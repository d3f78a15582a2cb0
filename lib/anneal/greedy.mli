(** Steepest-descent sampler / post-processor.

    From each of [restarts] random starts, repeatedly flips the variable
    with the most negative energy delta until the assignment is a local
    minimum. Fast and deterministic given the seed; the baseline that any
    annealer has to beat, and the post-processing step used by the
    hardware model after chain-break repair. *)

type params = {
  restarts : int;  (** random restarts (default 32) *)
  seed : int;  (** master PRNG seed (default 0) *)
  domains : int;  (** parallel domains (default 1) *)
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
(** One entry per restart: the local minimum reached by steepest descent
    from a random start. Restarts run through {!Reads}, which owns the
    [init], [stop] and [on_read] contract and the [greedy.reads] /
    [greedy.read_energy] aggregates; a descent is not interrupted
    mid-run. *)

val descend_fields : Qsmt_qubo.Fields.t -> unit
(** Steepest descent in place: flips the variable with the most negative
    delta until no move gains more than 1e-12. The one descent kernel —
    {!Sa}'s [postprocess] runs it too. *)

val descend : Qsmt_qubo.Qubo.t -> Qsmt_util.Bitvec.t -> Qsmt_util.Bitvec.t
(** [descend q x] runs steepest descent from [x] (not mutated) and
    returns the reached local minimum. *)
