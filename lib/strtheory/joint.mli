(** Joint encoding of constraint conjunctions (extension of §4.12).

    The paper combines constraints sequentially — each operation is its
    own annealing run and strings flow between them. That cannot express
    a {e conjunction} ("a palindrome that contains 'ab'"): transformation
    pipelines compose functions, not predicates. This module provides the
    alternative the paper leaves open: merge the QUBOs of several
    string-generating constraints over the {e same} [7·L] variables by
    adding their coefficient matrices, then anneal once.

    Additive merging is sound in the sense that any string satisfying all
    conjuncts sits at the sum of their (individually minimal) energies;
    it is not complete — penalties from one constraint can overwhelm
    another's and the joint ground state may satisfy neither exactly
    (measured in the Ext-5 bench). The solver therefore verifies each
    conjunct classically, as always. *)

val compatible : Constr.t -> int option
(** [compatible c] is [Some length] if [c] generates a string of a fixed
    known length (every operation except {!Constr.Includes}), [None]
    otherwise. *)

val common_length : Constr.t list -> (int, string) result
(** The single string length every conjunct generates, or why there
    isn't one (empty list, an {!Constr.Includes}, disagreeing lengths,
    a failed validation). *)

val encode : Constr.t list -> (Qsmt_qubo.Qubo.t * int, string) result
(** [encode cs] merges the encodings through {!Stage.merge_frozen} — the
    fold every multi-conjunct {!Stage.run} uses, so a session's merge of
    cached parts is bit-exact identical to this one. The result's second
    component is the common string length. [Error] if the list is empty,
    a conjunct is {!Constr.Includes}, lengths disagree, or any conjunct
    fails its own validation. *)

val solve :
  ?sampler:Qsmt_anneal.Sampler.t ->
  ?absint:Absint.gate ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  Constr.t list ->
  (Solver.outcome, string) result
(** {!Stage.run} over the conjunction: samples once over the merged QUBO
    and scans in energy order for the first string satisfying {e all}
    conjuncts; if none does, the lowest-energy decode is reported with
    [satisfied = false] ({!Constr.verify} says which conjuncts it
    breaks). A static unsat is a proof; its [value] is [Str ""]. [Error]
    when {!common_length} refuses the conjunction. [telemetry] gets the
    span tree, counters and GC probe of {!Solver.solve}.

    [absint] (default [`On]) runs {!Absint.analyze} over the conjunction
    first: a static verdict skips merging and sampling entirely, and an
    undecided analysis clamps the statically-forced codec bits so the
    sampler anneals only the free subspace (answers and energies are
    unchanged — samples are lifted back and verified classically; pass
    [`Off] for a bit-exact replay of the unshrunk pipeline). *)
