(** Parallel sampler portfolio with early exit.

    No single heuristic dominates across QUBO instances (Oshiyama &
    Ohzeki's benchmark), so instead of betting on one sampler the
    portfolio races several — SA, SQA, parallel tempering, tabu, greedy,
    optionally exact — concurrently over the shared
    {!Qsmt_util.Parallel.Pool} and merges their sample sets. When the
    caller supplies a [verify] predicate (the string-theory solver passes
    its constraint checker on decoded bits), the first read that verifies
    wins: a shared stop flag trips and every other member cancels
    cooperatively at its next poll point, so time-to-solution is the
    fastest member's, not the slowest's.

    Members are plain {!Sampler.t} values: each runs through its own
    [sample] with the race's shared [stop] and [on_read] hooks (see
    {!Reads} for that contract), so every sampler the repository builds,
    the hardware path included, can race.

    A per-member wall-clock [budget] bounds each member independently,
    so one slow member (e.g. {!Sampler.exact} on a 30-variable problem)
    cannot hang the portfolio past its deadline. *)

type params = {
  members : Sampler.t list;  (** raced samplers, in report order *)
  jobs : int;
      (** concurrent members; [<= 0] (default) means
          {!Qsmt_util.Parallel.recommended_domains}. With one chain
          ([jobs = 1] or a single member) the race runs on the caller
          and never starts the shared pool's worker domains. *)
  budget : float option;
      (** per-member wall-clock budget in seconds; [None] = unbounded *)
}

type member_report = {
  member_name : string;
  samples : Sampleset.t;  (** possibly empty if cancelled before any read *)
  elapsed : float;  (** wall-clock seconds this member ran *)
  cancelled : bool;  (** stopped early (win elsewhere or budget) *)
  failed : string option;
      (** exception text if the member (or the verify scan over its
          samples) raised — a crashed member never aborts the race, it
          surfaces here while the survivors keep running, and each
          failure bumps the [portfolio.member_failed] counter *)
  hardware : Hardware.stats option;
      (** chain/embedding diagnostics, for hardware members only *)
}

type result = {
  merged : Sampleset.t;  (** all members' samples, re-aggregated *)
  winner : (string * Qsmt_util.Bitvec.t) option;
      (** first verified (member, bits), if [verify] was given and hit *)
  reports : member_report list;  (** one per member, in [members] order *)
  wall_time : float;  (** seconds on {!Qsmt_util.Mclock}, the monotone clock *)
}

val default_members : seed:int -> Sampler.t list
(** SA, SQA, PT, tabu, greedy with default parameters, all seeded with
    [seed] and internal read-parallelism off ([domains = 1]: the
    portfolio spends its concurrency across members). *)

val default : params
(** [default_members ~seed:0], auto [jobs], no budget. *)

val run :
  ?params:params ->
  ?init:Qsmt_util.Bitvec.t ->
  ?verify:(Qsmt_util.Bitvec.t -> bool) ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  Qsmt_qubo.Qubo.t ->
  result
(** Races the members. [init] warm-starts the first read/restart of every
    heuristic member from the given assignment (ignored by exact and
    hardware members); see {!Reads}. Without [verify] (and with no
    budget) every member
    runs to completion and [merged] is deterministic — a pure function of
    [params], independent of [jobs]. With [verify], member sample sets
    may be truncated by early exit, but [merged] always contains the
    winning read.

    [telemetry] is shared with every member (their sweep streams and
    counters interleave in the trace) and additionally records the member
    lifecycle: [portfolio.member.start] (member, index),
    [portfolio.member.done] (member, index, elapsed_s, reads, cancelled,
    failed), [portfolio.winner] (member, elapsed_s since the race
    started) the instant a verified read is published, and a
    [portfolio.member_failed] counter per failed member. The telemetry sink
    is mutex-serialised, so concurrent members may emit freely.
    @raise Invalid_argument on an empty member list or non-positive
    budget. *)

val sampler : ?params:params -> unit -> Sampler.t
(** The race as a {!Sampler.t} named ["portfolio"]: it merges the
    members' sets, honours {!Sampler.run}'s [verify] for early exit and
    reports the first hardware member's stats. Reseeding it reseeds every
    member and keeps each member's other parameters, [domains]
    included. Use {!run} directly when you need per-member reports. *)
