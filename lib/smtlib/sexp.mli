(** S-expressions, SMT-LIB flavour.

    SMT-LIB scripts are s-expressions with lexical quirks this lexer
    handles: string literals use [""] (doubled quote) as the escape for
    an embedded quote, and SMT-LIB 2.6's [\ud₃d₂d₁d₀] and [\u{d…}] (one
    to five hex digits, the fifth at most 2) for any code point; a
    backslash that starts no such escape is itself. [|...|] delimits
    quoted symbols. Comments run from [;] to end of line. *)

type t =
  | Atom of string  (** symbol, keyword, or numeral — undistinguished *)
  | String of string
      (** ["..."] literal, unescaped. A code point above 0x7f, which the
          7-bit codec cannot hold, is kept as its UTF-8 bytes. *)
  | List of t list

val parse_all : string -> (t list, string) result
(** Every top-level expression in the input. Errors carry a line
    number. *)

val parse_one : string -> (t, string) result
(** Exactly one expression (trailing whitespace/comments allowed). *)

val pp : Format.formatter -> t -> unit

val pp_string : Format.formatter -> string -> unit
(** A string literal in the form the lexer reads back
    ({!Qsmt_strtheory.Smtgen.str_lit}): a double quote as [""], a
    character outside 0x20–0x7e and [\] as [\u{hh}]. {!pp} prints
    [String] this way. *)

val to_string : t -> string
