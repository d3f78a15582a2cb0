(** Tabu-search sampler.

    A deterministic-given-seed local search baseline in the spirit of
    D-Wave's [TabuSampler]: best-improvement moves with a recency-based
    tabu list, aspiration (a tabu move is allowed if it beats the best
    energy seen), and random restarts. Often stronger than plain greedy
    descent on frustrated landscapes, cheaper than a long anneal.

    Moves and random kicks range over the variables that appear in a
    QUBO term ({!Qsmt_qubo.Ising.active}); a variable in no term keeps
    its start value, and a problem with no term makes no move. Such a
    variable's flip costs nothing in every state, so offering it would
    let it win every scan without a downhill move and stall the search
    in the first local minimum. *)

type params = {
  restarts : int;  (** independent searches (default 8) *)
  iterations : int;  (** moves per search (default 500) *)
  tenure : int option;
      (** sweeps a flipped variable stays tabu; [None] (default) picks
          [min (n/4 + 1) 20] for an [n]-variable problem *)
  seed : int;
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
(** Returns the best assignment found by each restart. Restarts run
    through {!Reads}, which owns the [init], [stop] and [on_read]
    contract and the [tabu.reads] / [tabu.read_energy] aggregates; [stop]
    is also polled every 64 iterations inside a restart. [telemetry]
    streams strided [tabu.iter] events (restart, iteration, current and
    best energy) plus [tabu.aspirations] / [tabu.kicks] counters (tenure
    overridden by aspiration; random kick when every move is tabu). *)
