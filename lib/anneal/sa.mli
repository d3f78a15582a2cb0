(** Simulated annealing sampler.

    The classical stand-in for D-Wave's quantum annealer — and the solver
    the paper actually ran ("we use DWave's Simulated Annealer"). Each
    read is an independent single-spin-flip Metropolis chain over the
    Ising form of the problem, following a β schedule from hot to cold;
    reads can run in parallel across domains (each read owns a PRNG
    stream derived from the master seed, so results are independent of
    the domain count). *)

type params = {
  reads : int;  (** independent annealing runs (default 32) *)
  sweeps : int;  (** full-lattice Metropolis sweeps per read (default 1000) *)
  schedule : Schedule.t option;
      (** β schedule; [None] (default) derives one from the problem via
          {!Schedule.auto} with [sweeps] steps *)
  seed : int;  (** master PRNG seed (default 0) *)
  domains : int;  (** parallel domains for reads (default 1 = sequential) *)
  postprocess : bool;
      (** run steepest-descent to a local minimum after each read
          (default false) *)
}

val default : params

val sample :
  ?params:params ->
  ?init:Qsmt_util.Bitvec.t ->
  ?stop:(unit -> bool) ->
  ?on_read:(Qsmt_util.Bitvec.t -> unit) ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  Qsmt_qubo.Qubo.t ->
  Sampleset.t
(** Anneals [reads] reads through {!Reads}, which owns the [init],
    [stop] and [on_read] contract and the [sa.reads] / [sa.sweeps] /
    [sa.read_energy] telemetry. [stop] is also polled between sweeps.
    [telemetry] (default {!Qsmt_util.Telemetry.null}) additionally streams
    strided [sa.sweep] events (read, sweep, β, tracked energy, acceptance
    rate). [postprocess] descends with {!Greedy.descend_fields}.
    @raise Invalid_argument on [reads < 1], [sweeps < 1] or an [init] of
    the wrong length. *)

type packed_mode =
  | Bucketed
      (** Fast path: one bulk PRNG stream per 64-read group; accept
          decisions for all lanes come from geometric octave bucketing
          ({!Qsmt_qubo.Multispin.accept_mask}). Exact Metropolis
          marginals, but a different draw sequence than {!sample}. *)
  | Lockstep
      (** Parity path: each lane consumes its own per-read stream with
          the scalar sweep's exact conditional-draw discipline
          ({!Qsmt_qubo.Multispin.accept_mask_lockstep}); decoded samples
          are bit-identical to {!sample}'s (with [postprocess] off).
          Slower — this is the oracle-check vehicle, not the perf
          path. *)

val run_packed :
  ?params:params ->
  ?mode:packed_mode ->
  ?init:Qsmt_util.Bitvec.t ->
  ?stop:(unit -> bool) ->
  ?on_read:(Qsmt_util.Bitvec.t -> unit) ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  Qsmt_qubo.Qubo.t ->
  Sampleset.t
(** Multi-read SA through the bit-parallel {!Qsmt_qubo.Multispin}
    kernel: reads are packed 64 to a word-parallel state ([reads] not a
    multiple of 64 leaves the last group with masked tail lanes), so one
    CSR pass per site per sweep advances a whole group. Each group is one
    {!Reads} job, so [init] reaches lane 0 of group 0, [stop] is polled
    before each group and between its sweeps, and [on_read] sees every
    decoded lane. Starts come from the same per-read streams as
    {!sample}, and [postprocess] runs the same descent per decoded lane.
    [mode] defaults to {!Bucketed}. [domains] parallelises across groups,
    so it only helps past 64 reads. Telemetry: strided [sa.packed_sweep]
    events (group, lanes, sweep, β, best tracked energy, acceptance
    across lanes) plus the same [sa.*] aggregates as {!sample}, counted
    per lane. *)

val anneal_ising :
  rng:Qsmt_util.Prng.t ->
  schedule:Schedule.t ->
  ?init:Qsmt_util.Bitvec.t ->
  ?on_sweep:(sweep:int -> energy:float -> accepted:int -> unit) ->
  ?stop:(unit -> bool) ->
  Qsmt_qubo.Ising.t ->
  Qsmt_util.Bitvec.t * float
(** One annealing read over an Ising problem: starts from [init] (random
    if omitted), runs the full schedule, returns the final spin
    configuration and its (incrementally tracked) energy. Exposed for
    composition ({!Convergence} records trajectories with it). The whole
    read runs on a {!Qsmt_qubo.Fields} state, so proposals are O(1) and
    the energy is always available; [on_sweep] observes it after every
    sweep together with the number of accepted flips that sweep. [stop]
    is polled between sweeps; when it returns [true] the read returns its
    current configuration immediately. *)
