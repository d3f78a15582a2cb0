(** Thompson NFA construction and simulation.

    The reference semantics for the whole regex stack: the DFA is tested
    against it, and the classical string-solver baseline simulates it
    directly. States are integers; transitions are either ε or labelled
    with a character set. *)

type t

val of_syntax : Syntax.t -> t
(** Thompson construction: O(size of regex) states, one start, one
    accept. *)

val num_states : t -> int

val matches : t -> string -> bool
(** Subset simulation with ε-closure; O(|s| · states · transitions)
    worst case, no backtracking. *)

val epsilon_closure : t -> int list -> int list
(** Exposed for the DFA's subset construction. Sorted, deduplicated. *)

val step : t -> int list -> char -> int list
(** States reachable from any of the given states by consuming the
    character (before ε-closure). Sorted, deduplicated. *)

val start : t -> int
val accept : t -> int

val labels : t -> Charset.t list
(** The character sets on the automaton's non-ε transitions (with
    repeats). Exposed for the DFA's byte classes. *)
