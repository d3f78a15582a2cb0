(** Parallel tempering (replica exchange) sampler.

    Runs [replicas] Metropolis chains at a geometric ladder of fixed
    temperatures and periodically proposes swapping neighboring replicas'
    configurations with the detailed-balance probability
    [min(1, exp((β_a − β_b)(E_a − E_b)))]. Hot replicas roam the
    landscape, cold replicas refine — on frustrated problems (embedded
    chains, one-hot penalties) this mixes far better than a single cooled
    chain, which is why it's the standard classical competitor in the
    annealing literature and belongs in the ablation suite.

    A read runs on the bit-parallel multi-spin kernel: the ladder is the
    lane dimension of one packed state (rungs don't interact through
    spins, so one word-wide accept decision per site is exact), and an
    accepted exchange just permutes the lane↔rung assignment — O(1)
    bookkeeping instead of a configuration swap. The ladder must
    therefore fit one word: [replicas] is at most
    {!Qsmt_qubo.Multispin.max_lanes} (64). *)

type params = {
  reads : int;  (** independent tempering runs (default 8) *)
  sweeps : int;  (** Metropolis sweeps per run (default 500) *)
  replicas : int;
      (** temperature rungs, 1 to 64 (default 8); a single rung
          degenerates to plain Metropolis at [beta_cold] with no
          exchanges *)
  beta_range : (float * float) option;
      (** (hot, cold); [None] (default) derives from the problem via
          {!Schedule.default_beta_range} *)
  exchange_interval : int;  (** sweeps between swap phases (default 10) *)
  seed : int;
  domains : int;  (** parallel domains across reads (default 1) *)
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
(** One entry per read: the coldest replica's best-ever configuration.
    Reads run through {!Reads}, which owns the [init], [stop] and
    [on_read] contract and the [pt.reads] / [pt.read_energy] aggregates;
    [init] starts every replica of read 0. [telemetry] also streams
    strided [pt.sweep] events (read, sweep, best energy, accepted swaps
    that sweep) and a [pt.replica_swaps] counter.

    @raise Invalid_argument on [reads < 1], [sweeps < 1], [replicas < 1],
    [replicas > ]{!Qsmt_qubo.Multispin.max_lanes},
    [exchange_interval < 1], a bad [beta_range], or an [init] of the
    wrong length. *)
