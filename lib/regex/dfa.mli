(** Deterministic finite automata over 7-bit ASCII.

    Built from an {!Nfa} by subset construction over byte classes: the
    codes 0..127 are first split into the classes the NFA's character
    sets induce (codes no label tells apart), and each subset of NFA
    states is stepped and ε-closed once per class instead of once per
    code. Besides matching, the
    DFA supports the counting and sampling queries the experiment harness
    needs: how many strings of length [n] match (dynamic programming over
    states), uniform sampling of a matching string, and enumeration — the
    classical reference against which annealer outputs are judged. *)

type t
(** Immutable: no operation changes an automaton after {!of_nfa} or
    {!of_raw} builds it, so one value can be shared freely. *)

val of_nfa : Nfa.t -> t
(** Subset construction; builds a fresh automaton on every call. States
    are numbered in the order a depth-first, code-by-code construction
    would meet them (classes are visited by smallest code). *)

val of_syntax : Syntax.t -> t
(** [of_nfa (Nfa.of_syntax r)], memoized: structurally equal patterns
    ({!Syntax.equal}) get the same shared automaton. The table is
    process-wide, guarded by a mutex (safe from any domain), and emptied
    when it holds 256 patterns. *)

val num_states : t -> int
val matches : t -> string -> bool

val start_state : t -> int
val is_accepting : t -> int -> bool

val transition : t -> int -> char -> int option
(** [transition t s c] is the successor state, [None] for the implicit
    dead state. Exposed for the SAT bit-blaster's unrolled-automaton
    encoding. *)

val out_classes : t -> int -> (int * Charset.t) list
(** [out_classes t s] is state [s]'s transition row grouped by target:
    one [(target, codes)] pair per live successor, [codes] being every
    character leading there. The sets are disjoint and non-empty, and
    their union is exactly the characters with a {!transition} from [s].
    Lets set-at-a-time consumers (counting, Absint's reachability) do
    word operations per successor instead of a lookup per code. *)

val of_raw : trans:int array array -> accepting:bool array -> start:int -> t
(** Build a DFA directly from its transition table ([trans.(s).(code)],
    [-1] = dead). Used by {!Minimize}.
    @raise Invalid_argument on inconsistent table dimensions or
    out-of-range entries. *)

val count_matching : t -> len:int -> int
(** Number of strings of exactly [len] characters accepted, by dynamic
    programming over {!out_classes} (each successor's count times its
    class's size). Saturates at [max_int] (counts grow as 128^len).
    @raise Invalid_argument if [len < 0]. *)

val enumerate : ?limit:int -> t -> len:int -> string list
(** Lexicographically first [limit] (default 100) accepted strings of the
    exact length. *)

val sample : t -> len:int -> rng:Qsmt_util.Prng.t -> string option
(** Uniformly random accepted string of the exact length, [None] if the
    language has none of that length. Uses the {!count_matching} DP
    (exact as long as counts do not saturate). *)

val restrict : t -> Charset.t -> t
(** DFA for the intersection with [allowed]* — e.g. restrict to printable
    characters before sampling. *)

val accepts_nothing : t -> bool
