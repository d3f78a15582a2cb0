(** The multi-read driver every heuristic sampler runs through.

    D-Wave's samplers answer one problem with many independent reads;
    SA, packed SA, SQA, PT, tabu and greedy all share that contract, so
    it lives here once. A sampler supplies a {!plan}: how to run one
    job (one read, or one packed group of up to 64 reads) from its own
    PRNG streams. The driver owns everything around it.

    {b The read contract.}
    - [init] must have one bit per problem variable, or {!run} raises.
      It warm-starts job 0 only (reverse-anneal style); every other job
      keeps its random start, so the set stays diverse. Passing [init]
      changes the PRNG draw sequence, so warm and cold runs are not
      sample-for-sample comparable.
    - A zero-variable problem answers with one empty assignment.
    - [stop] is a cooperative cancellation flag. The driver polls it
      before each job starts and skips unstarted jobs once it returns
      [true]; samplers also poll it inside a job (between sweeps, or
      every 64 tabu iterations) and return the read they have. The set
      may then hold fewer reads than asked, or none.
    - [on_read] observes each returned read's bits, in job order within
      a job. Early exit ({!Sampler.run}'s [early_exit], the portfolio
      race) verifies decodes there and trips [stop].
    - Without [stop]/[on_read] the result is a pure function of the
      sampler's parameters, independent of [domains]: each read owns a
      PRNG stream derived from the seed and its index.

    {b Telemetry.} Per returned read, [<name>.reads] and (when the plan
    has sweeps) [<name>.sweeps] count up and [<name>.read_energy]
    observes its energy, before [on_read] sees it. After all jobs, a
    plan with sweeps sets the [<name>.sweeps_per_s] and
    [<name>.flips_per_s] gauges (flips = attempted proposals, sweeps ×
    proposals per sweep). The counts are nominal: a read cut short by
    [stop] is charged its full budget. Instrumentation never touches a
    PRNG, so samples are bit-identical with telemetry on or off. *)

type plan = {
  sweeps : int;
      (** sweeps per read; [0] for a sampler with no sweep loop (greedy),
          which then gets no sweeps counter and no gauges *)
  proposals : int;  (** flip proposals per sweep, for [flips_per_s] *)
  read : int -> Qsmt_util.Bitvec.t option -> (Qsmt_util.Bitvec.t * float) array;
      (** [read job init] runs one job and returns its reads with their
          QUBO energies (offset included); [init] is [Some] only for
          job 0 *)
}

val run :
  who:string ->
  name:string ->
  jobs:int ->
  domains:int ->
  ?init:Qsmt_util.Bitvec.t ->
  ?stop:(unit -> bool) ->
  ?on_read:(Qsmt_util.Bitvec.t -> unit) ->
  telemetry:Qsmt_util.Telemetry.t ->
  Qsmt_qubo.Qubo.t ->
  (Qsmt_qubo.Ising.t -> plan) ->
  Sampleset.t
(** [run ~who ~name ~jobs ~domains q prepare] checks [init], answers a
    zero-variable [q] directly, and otherwise calls [prepare] once on
    [Ising.of_qubo q] and runs [jobs] jobs of the plan over
    {!Qsmt_util.Parallel.init_array} with [domains]. The result holds
    every returned read, in job order. [name] prefixes the telemetry
    names; [who] prefixes error messages.
    @raise Invalid_argument ["<who>: init has %d bits, problem has %d vars"]
    on a wrong-length [init]. *)

val sweep_stride : int -> int
(** [sweep_stride sweeps] is the sweep-event decimation every sweep-loop
    sampler uses: one telemetry event every [max 1 (sweeps / 32)] sweeps
    (plus the final sweep), so traces stay proportional to reads, not to
    reads × sweeps. *)
