(** Incremental solving: cached encodings, reused models, warm-started
    anneals.

    The SMT-LIB front end's [push]/[pop]/[check-sat-assuming] produce
    sequences of closely related queries; solving each from scratch
    re-encodes and re-anneals everything. A session value of this module
    runs every query through {!Stage.run} with three inputs a one-shot
    solve leaves out, in the spirit of Bian et al.'s incremental reuse
    (arXiv:1811.02524):

    - {b per-conjunct encoding cache} — each {!Constr.t} compiles (and
      passes the lint gate) once; [Constr.t] is structural, so the cache
      keys on the constraint itself. A conjunction is re-merged from its
      cached parts through {!Stage.merge_frozen} on every query, so the
      merged QUBO is bit-exact equal to a full recompile;
    - {b model reuse} — when the previous satisfying string still
      verifies against the new constraints (the [pop] case), absint and
      sampling are skipped entirely (the encoding still runs);
    - {b warm starts} — samplers seed their first read from the best
      assignment of the previous sampled or reused answer
      (reverse-anneal style, [?init]) and may early-exit on the first
      verified read; a warm run that fails to verify retries the exact
      cold configuration, so incremental verdicts are never worse than
      from-scratch ones.

    A fresh session's first query is bit-identical to a one-shot solve.
    Telemetry: the {!Stage.run} span tree and [incr.*] counters. *)

type t
(** An incremental solving session. Not domain-safe: one session per
    interpreter. *)

val create :
  ?sampler:Qsmt_anneal.Sampler.t ->
  ?lint:Lint.gate ->
  ?absint:Absint.gate ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  unit ->
  t
(** The sampler defaults to {!Solver.default_sampler}[ ~seed:0]; the
    lint gate (default [`Off]) vets each conjunct encoding once, before
    it enters the cache, raising {!Lint.Rejected} like {!Solver.solve}
    does.

    [absint] (default [`On]) re-runs {!Absint.analyze} on every query
    the last model does not answer — push/pop deltas change the
    conjunct list. Statically-decided queries return
    without touching the cache, the pool, or the warm state (their
    outcomes carry [decided = Some _] and zero sampler reads); undecided
    queries anneal a residual with the statically-forced codec bits
    clamped, with warm-start seeds projected onto it. [`Off] replays
    today's pipeline bit-exactly. *)

val reset : t -> unit
(** Drops every cache (encodings, warm state, last model). *)

val solve_generate : t -> Constr.t -> Solver.outcome
(** Incremental counterpart of {!Solver.solve}: same outcome, but the
    encoding comes from the cache when the constraint was seen before,
    the sampler is warm-started from the previous best assignment when
    the problem size matches, and a still-valid previous model
    short-circuits sampling. *)

val solve_joint : t -> Constr.t list -> (Solver.outcome, string) result
(** Incremental counterpart of {!Joint.solve} for conjunctions in
    canonical conjunct order. *)
