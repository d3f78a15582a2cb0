(** The one staged solve pipeline (Figure 1 end to end).

    {!Solver}, {!Joint} and {!Incremental} — and so every SMT-LIB
    [check-sat] — answer through {!run}, over a conjunction on one
    string variable (a single constraint is a conjunction of one):

    + {b model reuse check} — a session's last satisfying string that
      still satisfies every conjunct skips absint (the most absint
      could answer is that same string) and answers after encode and
      lint, with no sampling;
    + {b absint} — {!Absint.analyze}; a static verdict answers at once,
      with no QUBO, no pool and no sampler;
    + {b encode} — {!Compile.to_qubo} per conjunct (from a session's
      cache when it has the part), summed by {!merge_frozen} when there
      are several; then the optional {b lint} gate on fresh parts;
    + {b clamp} the codec bits absint forced, {b sample} the residual
      (warm-started with verified-read early exit when a session's bits
      fit, then a cold retry if that run found nothing), {b lift} the
      reads back ({!lift_samples});
    + {b decode} — one lazy scan in energy order for the first read
      satisfying every conjunct, else the lowest-energy decode.

    The verifier always reaches the sampler, so a portfolio stops at its
    first verified read. Telemetry: a [solve] span with [absint],
    [encode], [lint], [sample] and [decode] children, one [solve.done]
    event, a [solve.constraints] counter, and the [incr.encode_hit],
    [incr.model_reuse], [incr.warm_start], [incr.cold_retry] and
    [absint.shrunk] counters. Instrumentation consumes no PRNG values. *)

type config = {
  params : Params.t option;
  sampler : Qsmt_anneal.Sampler.t;
  lint : Lint.gate;
  absint : Absint.gate;
  telemetry : Qsmt_util.Telemetry.t;
}

type answer = {
  qubo : Qsmt_qubo.Qubo.t;  (** an empty placeholder for a static answer *)
  samples : Qsmt_anneal.Sampleset.t;
      (** the deciding run's lifted samples; the reused model's one
          entry; empty for a static answer *)
  value : Constr.value;
  satisfied : bool;  (** [value] satisfies every conjunct *)
  energy : float;
  hardware : Qsmt_anneal.Hardware.stats option;
  decided : Absint.analysis option;  (** [Some] iff absint answered *)
}
(** The one answer record: {!Solver.outcome} re-exports it, and
    {!Solver}, {!Joint} and {!Incremental} all return it. Stage times
    are not part of it: they are the [encode], [sample] and [decode]
    span totals ({!Qsmt_util.Telemetry.span_totals}) of the handle in
    [config]. *)

val merge_frozen : num_vars:int -> Qsmt_qubo.Qubo.t list -> Qsmt_qubo.Qubo.t
(** Adds the parts' coefficients and offsets in list order and freezes
    over [num_vars] variables: the one merge fold. *)

val lift_samples :
  qubo:Qsmt_qubo.Qubo.t ->
  Qsmt_qubo.Preprocess.t ->
  Qsmt_anneal.Sampleset.t ->
  Qsmt_anneal.Sampleset.t
(** Expands residual entries through {!Qsmt_qubo.Preprocess.expand} and
    re-prices them on the full [qubo], so shrunk solves report the
    energies an unshrunk solve would. *)

val run :
  ?cache:(Constr.t, Qsmt_qubo.Qubo.t) Hashtbl.t ->
  ?model:string ->
  ?warm:Qsmt_util.Bitvec.t ->
  probe:bool ->
  config ->
  Constr.t list ->
  (answer, string) result
(** Answers a non-empty conjunction whose conjuncts span the same
    variables. A session passes what one-shot callers leave out: its
    per-conjunct encode [cache] (read, and extended with every part
    compiled here that passes lint), its last satisfying [model], and
    the [warm] bits of its last answer. [probe] takes one
    {!Qsmt_util.Telemetry.with_gc_probe} on the [solve] span; a session
    leaves it to the SMT-LIB front end, which probes each [check-sat].
    [Error] only for an empty sample set. The [solve] span is closed on
    every exit, a raise included.
    @raise Lint.Rejected when the lint gate rejects an encoding. *)
