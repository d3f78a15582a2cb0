(** The quantum-annealing string solver (Figure 1 end to end).

    Encode the constraint to QUBO, hand it to a sampler, decode samples
    back to values, verify classically: {!Stage.run} over a conjunction
    of one. The returned {!outcome} keeps every intermediate artifact so
    callers (CLI, benches, tests) can inspect the pipeline the way the
    paper's Table 1 presents it: constraint → matrix → output. Stage
    times are the [encode], [sample] and [decode] span totals of the
    [telemetry] handle ({!Qsmt_util.Telemetry.span_totals}). *)

type outcome = Stage.answer = {
  qubo : Qsmt_qubo.Qubo.t;
  samples : Qsmt_anneal.Sampleset.t;
  value : Constr.value;  (** see [solve] for how it is chosen *)
  satisfied : bool;  (** [value] satisfies every conjunct ({!Constr.verify}) *)
  energy : float;  (** energy of the sample behind [value] *)
  hardware : Qsmt_anneal.Hardware.stats option;
      (** chain/embedding diagnostics — qubits used, chain-break
          fraction, embedding-cache hit, degradation — when the sampler
          went through the hardware-emulation path; [None] for
          all-to-all samplers *)
  decided : Absint.analysis option;
      (** [Some] iff the abstract interpreter decided the constraint
          statically ([V_sat]/[V_unsat]): [qubo] is then an empty
          placeholder, [samples] is {!Qsmt_anneal.Sampleset.empty} (zero
          reads — no sampler ran), and [energy] is [0.]. A [V_unsat]
          here is a proof, unlike an ordinary [satisfied = false]. *)
}
(** {!Stage.answer}, the one answer record every entry point returns
    ({!Joint.solve} and {!Incremental} too). *)

val default_sampler : seed:int -> Qsmt_anneal.Sampler.t
(** Simulated annealing, 32 reads × 1000 sweeps — the configuration the
    experiments use unless stated otherwise. *)

val lift_samples :
  qubo:Qsmt_qubo.Qubo.t ->
  Qsmt_qubo.Preprocess.t ->
  Qsmt_anneal.Sampleset.t ->
  Qsmt_anneal.Sampleset.t
(** {!Stage.lift_samples}: the lift step of the absint shrink path. *)

val solve :
  ?params:Params.t ->
  ?sampler:Qsmt_anneal.Sampler.t ->
  ?lint:Lint.gate ->
  ?absint:Absint.gate ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  Constr.t ->
  outcome
(** Samples once and scans the sample set in ascending energy order for
    the first decoded value that verifies; if none verifies, the
    lowest-energy decode is returned with [satisfied = false]. The
    sampler defaults to [default_sampler ~seed:0].

    [lint] (default [`Off]) runs the static linter between encoding and
    sampling and raises {!Lint.Rejected} when any finding reaches the
    gate severity — no annealing time is spent on an encoding the linter
    can already prove broken ({!Lint.default_config}). It runs inside
    the [solve] span as a [lint] child.

    Passes the constraint verifier down to the sampler, so a portfolio
    stops at its first satisfying read. [telemetry] gets the
    {!Stage.run} span tree and counters, is shared with the encoder (per
    operator counters) and the sampler (sweep streams, portfolio
    lifecycle), and takes one GC probe ([gc.*]) around the call.
    Instrumentation never consumes PRNG values, so the outcome is
    identical with or without it. *)

val solve_batch :
  ?sampler:Qsmt_anneal.Sampler.t ->
  ?jobs:int ->
  Constr.t list ->
  outcome list
(** Solves many independent constraints concurrently over the shared
    domain pool ([jobs <= 0], the default, means
    {!Qsmt_util.Parallel.recommended_domains}). Results are in input
    order. Each solve is identical to a standalone {!solve} call, so
    batching never changes results — only wall-clock. *)

type pipeline_error = {
  stage_index : int;
      (** 0 = the initial constraint, [i > 0] = the [i]-th stage *)
  blocking_value : Constr.value;  (** the non-string decode *)
  completed : outcome list;
      (** all outcomes solved before the run stopped, including the
          blocking one (always non-empty, the blocker last) *)
}
(** A pipeline stage needs the previous decode as its input string; a
    positional decode (from an [Includes] initial constraint) has no
    string form, so the run stops rather than silently feeding [""]
    forward — which is what earlier revisions did. *)

val solve_pipeline :
  ?sampler:Qsmt_anneal.Sampler.t ->
  Pipeline.t ->
  (outcome list, pipeline_error) result
(** Runs the initial constraint, then each stage on the previous decoded
    string (§4.12). [Ok outcomes] lists them in stage order; a stage that
    merely fails to verify still yields its best-effort {e string} decode
    to the next stage (the [satisfied] flags record where things went
    wrong). [Error] is reserved for a non-string decode blocking a
    downstream stage; a non-string decode of the {e final} constraint is
    [Ok] (there is nothing downstream to block). *)

val pipeline_output : outcome list -> string option
(** Final decoded string of a pipeline run, [None] for an empty run or a
    non-string final value. *)
