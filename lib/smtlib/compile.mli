(** Assertion compiler: SMT-LIB assertions → annealer constraints.

    The generative fragment this solver handles mirrors the paper: one
    unknown at a time, with the assertions pinning down what to generate.
    The compiler folds ground subterms with {!Eval}, gathers per-variable
    facts (equality target, length, containment, forced index, regex
    membership, palindromicity), and emits one {!Qsmt_strtheory.Constr.t}:

    - an equality target wins outright (other facts are checked
      classically against it — a contradiction is [Unsat]);
    - [str.in_re] + a length → [Regex] (infeasible lengths are detected
      with the DFA counting oracle and reported [Unsat]);
    - [(= (str.indexof x sub 0) i)] + length → [Index_of] with
      [first = true] (no earlier occurrence; [str.at], [str.substr],
      [str.prefixof] and [str.suffixof] give [first = false]);
    - [str.contains] + length → [Contains];
    - [str.prefixof] / [str.suffixof] (ground prefix/suffix) + length →
      [Index_of] at position 0 / [length − |suffix|];
    - [str.palindrome] + length → [Palindrome];
    - several of the above on one variable → a joint conjunction solved
      over one merged QUBO ({!Qsmt_strtheory.Joint});
    - a length alone → [Regex .*] at that length (any string);
    - an Int unknown bound to [str.indexof] of two literals → the
      {!Qsmt_strtheory.Constr.Includes} position search, with
      [first = true] (the position must be the first occurrence).

    Anything else is [Unsupported] — reported as [unknown], never as a
    wrong answer. *)

type problem =
  | Trivial of bool  (** no unknowns in any assertion: sat/unsat by evaluation *)
  | Solved of { var : string; value : Eval.value }
      (** the unknown is classically forced (e.g. [str.indexof] with no
          occurrence forces −1, which the QUBO formulation cannot
          express) *)
  | Generate of { var : string; constr : Qsmt_strtheory.Constr.t }
      (** produce a string for [var] *)
  | Generate_joint of { var : string; conjuncts : Qsmt_strtheory.Constr.t list }
      (** several same-length facts on one variable: solved with the
          joint (merged-QUBO) encoding, {!Qsmt_strtheory.Joint} *)
  | Locate of { var : string; constr : Qsmt_strtheory.Constr.t }
      (** produce a position for the Int unknown [var] (Includes) *)

val compile : Typecheck.env -> Ast.term list -> (problem, string) result
(** [Error] means unsupported (the caller should answer [unknown]), not
    unsat. *)
