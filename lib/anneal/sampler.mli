(** Uniform sampler interface.

    The string-theory solver, the portfolio and the benchmark harness are
    parametric in the sampler; this type is the one vocabulary for all
    of them. Constructors wrap each concrete sampler with its parameter
    record baked in. *)

type t = {
  name : string;
  sample :
    ?init:Qsmt_util.Bitvec.t ->
    ?stop:(unit -> bool) ->
    ?on_read:(Qsmt_util.Bitvec.t -> unit) ->
    ?verify:(Qsmt_util.Bitvec.t -> bool) ->
    telemetry:Qsmt_util.Telemetry.t ->
    Qsmt_qubo.Qubo.t ->
    Sampleset.t * Hardware.stats option;
      (** One run. [init], [stop] and [on_read] follow the read contract
          of {!Reads}; [verify] is read only by {!Portfolio.sampler}. The
          stats are [Some] for the hardware path. *)
  reseed : int -> t;  (** the same sampler under another seed *)
}

val name : t -> string

val run :
  ?verify:(Qsmt_util.Bitvec.t -> bool) ->
  ?init:Qsmt_util.Bitvec.t ->
  ?early_exit:bool ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  t ->
  Qsmt_qubo.Qubo.t ->
  Sampleset.t
(** May raise the underlying sampler's exceptions (e.g.
    {!Hardware.Embedding_failed}, {!Exact}'s size cap).

    [verify] by itself is consumed only by {!Portfolio.sampler}s (see
    {!Portfolio.run}); every other sampler ignores it, keeping their
    output deterministic. With [early_exit] (default [false]) the
    samplers that read through {!Reads} (SA, SQA, PT, tabu, greedy)
    and the hardware path additionally stop at their next poll
    point once any read verifies — the incremental solver's warm
    re-solves opt in, cold solves keep the exhaustive deterministic
    sample sets.

    [init] seeds the first read/restart of the heuristic samplers with
    the given assignment (reverse-anneal-style warm start, see
    {!Reads}); exact, hardware and custom samplers ignore it.

    [telemetry] is handed to the underlying sampler
    (ignored by {!exact} and {!make} samplers); instrumentation never
    consumes PRNG values, so samples are identical with or without it. *)

val run_detailed :
  ?verify:(Qsmt_util.Bitvec.t -> bool) ->
  ?init:Qsmt_util.Bitvec.t ->
  ?early_exit:bool ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  t ->
  Qsmt_qubo.Qubo.t ->
  Sampleset.t * Hardware.stats option
(** {!run} plus the hardware diagnostics when the sampler went through
    the hardware-emulation path: a {!hardware} / {!hardware_auto} sampler
    always yields [Some], a {!Portfolio.sampler} yields the first
    hardware member's stats (if it has one), everything else [None].
    This is how the string solver surfaces chain-break fractions,
    embedding-cache hits, and {!Hardware.degradation} in its outcomes. *)

val make : name:string -> (Qsmt_qubo.Qubo.t -> Sampleset.t) -> t
(** Wrap an arbitrary sampling function (used by tests to inject oracles
    and failure modes). {!with_seed} leaves such samplers unchanged. *)

val simulated_annealing : ?params:Sa.params -> unit -> t

val simulated_quantum_annealing : ?params:Sqa.params -> unit -> t
val tabu : ?params:Tabu.params -> unit -> t
val parallel_tempering : ?params:Pt.params -> unit -> t
val greedy : ?params:Greedy.params -> unit -> t
val exact : ?keep:int -> unit -> t
val hardware : params:Hardware.params -> t
(** The full QPU-workflow sampler. Chain statistics, cache hits and
    degradation travel through {!run_detailed}; {!run} keeps only the
    samples. *)

val hardware_auto : (Qsmt_qubo.Qubo.t -> Hardware.params) -> t
(** Like {!hardware}, but the parameters (typically the topology, via
    {!Hardware.auto_topology}) are derived from each problem at sampling
    time — what the CLI uses so one [--sampler hardware] flag serves
    problems of any size. *)

val with_seed : t -> int -> t
(** [with_seed t seed] is [t.reseed seed]: a sampler identical to the
    input but reseeded. Samplers without a seed ({!exact}, {!make}) are
    returned unchanged; a hardware sampler reseeds its inner annealer. *)

val default_suite : seed:int -> t list
(** The ablation suite: SA, SQA, parallel tempering, tabu, greedy —
    everything that scales past {!Exact.max_vars} — with matching
    seeds and default parameters (one domain each). *)
