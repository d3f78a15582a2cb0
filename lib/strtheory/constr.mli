(** String constraints (the paper's twelve operations, §4.1–§4.11).

    A constraint describes what the solver must *generate*: usually a
    string (encoded over [7n] binary variables), for {!Includes} a start
    position (one-hot over the candidate positions). {!verify} is the
    classical yardstick: it decides, with ordinary string semantics,
    whether a produced value satisfies the constraint — the solver never
    gets to grade its own homework. *)

type t =
  | Equals of string  (** §4.1: generate S equal to the given target *)
  | Concat of string list  (** §4.2: generate the concatenation *)
  | Contains of { length : int; substring : string }
      (** §4.3: generate a [length]-character string containing
          [substring]. NOTE the paper's overwrite semantics: the encoder
          writes the substring at every start position, later writes
          overwriting earlier ones. *)
  | Includes of { haystack : string; needle : string }
      (** §4.4: find a start position of [needle] within [haystack]
          (one-hot position variables, first match preferred) *)
  | Index_of of { length : int; substring : string; index : int }
      (** §4.5: generate a [length]-character string with [substring]
          forced at [index], soft constraints elsewhere *)
  | Has_length of { num_chars : int; target_length : int }
      (** §4.6, paper-faithful: over a [num_chars]-character variable
          string, force the first [7·target_length] bits to 1 and the
          rest to 0. (A unary-style check — see DESIGN.md for why this
          formulation is odd but reproduced as published.) *)
  | Replace_all of { source : string; find : char; replace : char }
      (** §4.7: generate [source] with every [find] replaced *)
  | Replace_first of { source : string; find : char; replace : char }
      (** §4.8: generate [source] with the first [find] replaced *)
  | Reverse of string  (** §4.9: generate the reversal *)
  | Palindrome of { length : int }  (** §4.10: generate any palindrome *)
  | Regex of { pattern : Qsmt_regex.Syntax.t; length : int }
      (** §4.11: generate a [length]-character string matching the
          pattern (product-form fragment) *)

(** What a solver produces for a constraint. *)
type value =
  | Str of string  (** generated string (all constraints except {!Includes}) *)
  | Pos of int option  (** chosen start position; [None] if the sample set no bit *)

val validate : t -> (unit, string) result
(** Structural sanity: lengths non-negative, substrings fit, characters
    7-bit, regex product-form and admitting the requested length. *)

val num_vars : t -> int
(** Number of QUBO variables the encoding uses.
    @raise Invalid_argument if the constraint is invalid. *)

val verify : t -> value -> bool
(** Classical satisfaction check. A [Str] for {!Includes} or a [Pos] for
    a string-producing constraint is never satisfied. For {!Includes},
    any valid occurrence position is accepted (the first-match preference
    is an energy tie-break, not a soundness condition). For
    {!Index_of}, characters outside the forced substring are
    unconstrained, so only length and the occurrence at [index] are
    checked. For {!Has_length} the check follows the paper's bit-level
    semantics: the first [7·target_length] decoded bits are 1 and the
    rest 0. *)

val verifier : t -> value -> bool
(** [verifier c] is [verify c], with the constraint's own setup done once
    when partially applied: a {!Regex} pattern's automaton is fetched
    there ({!Qsmt_regex.Dfa.of_syntax} memoizes it process-wide) instead
    of on every call. Build it once per query and call it per candidate
    value. *)

val describe : t -> string
(** One line, human-readable (used in experiment tables). *)

val pp_value : Format.formatter -> value -> unit
