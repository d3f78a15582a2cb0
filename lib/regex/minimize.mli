(** DFA minimization (Hopcroft partition refinement) and language
    equivalence.

    No solver path calls this module: the SAT bit-blaster unrolls the
    automaton {!Dfa.of_syntax} builds as it is. It serves the tests,
    which use {!equivalent} to compare regexes as languages (an exported
    and re-parsed pattern may differ in syntax but not in language) and
    check that {!minimize} preserves the language with the fewest
    states. *)

val minimize : Dfa.t -> Dfa.t
(** Language-preserving; the result has the minimum number of states for
    the language (unreachable states dropped, equivalent states merged,
    dead states left implicit). *)

val equivalent : Dfa.t -> Dfa.t -> bool
(** Do two DFAs accept the same language? Decided by product-construction
    search for a distinguishing state pair (no minimization needed). *)
