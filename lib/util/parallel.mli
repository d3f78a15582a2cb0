(** Fork-join parallelism over a reusable pool of OCaml 5 domains.

    The annealers are embarrassingly parallel across reads: each read is an
    independent Markov chain with its own PRNG stream. This module provides
    the small fork-join helpers they need without pulling in domainslib
    (not available in the sealed container).

    Worker domains are spawned once into a process-wide {!Pool} and reused
    across calls — earlier revisions spawned fresh domains per call, which
    dominated wall-clock for short reads and made concurrent samplers
    (the portfolio) oversubscribe the machine. Callers pass [~domains:1]
    to run sequentially (the default), which is what tests use for full
    determinism of shared-PRNG call sites. Pooled and sequential calls
    run the same job loop; its [pool.*] probes are skipped when
    telemetry is off. *)

val recommended_domains : unit -> int
(** Number of domains worth using on this machine:
    [Domain.recommended_domain_count], capped at 16. *)

val partition : int -> int -> (int * int) list
(** [partition n d] splits [0, n) into at most [d] contiguous
    [(offset, length)] blocks whose lengths differ by at most one.
    Exposed for callers that schedule their own pool jobs. *)

(** A persistent pool of worker domains.

    Workers sleep between jobs; submitting work never spawns a domain.
    Acquisition is non-blocking: a submission that finds every worker busy
    simply runs on the calling domain, so nested parallel calls degrade to
    sequential instead of deadlocking. *)
module Pool : sig
  type t

  val create : int -> t
  (** [create n] spawns a pool of [n] worker domains ([n = 0] is legal:
      every job then runs on the caller). *)

  val global : unit -> t
  (** The process-wide shared pool, created on first use with
      [recommended_domains () - 1] workers (the calling domain is the
      remaining slot). Never shut down; idle workers sleep on a condition
      variable and cost nothing between calls. *)

  val size : t -> int
  (** Number of worker domains in the pool. *)

  val run_list : ?telemetry:Telemetry.t -> t -> (unit -> unit) list -> unit
  (** [run_list pool jobs] runs every job to completion in the module's
      one fork-join loop: the calling domain and the idle workers it
      acquires drain a shared job index (a fast participant takes the
      next pending job). Returns when all jobs have finished. If any job
      raises, the first exception is re-raised in the caller — with the
      backtrace captured at the raise site — after the remaining jobs
      complete; the raising job's worker slot is released normally, so
      the pool stays fully reusable and no exception ever escapes on a
      worker domain.

      The [pool.*] probes run only on an enabled [?telemetry] handle: a
      [pool.jobs] counter, [pool.submit_latency_s] (submit→start) and
      [pool.queue_depth] histograms plus a [pool.queue_depth] gauge, one
      [pool.worker] event per participant (jobs run, busy and idle
      seconds — participant 0 is the calling domain, busy from
      submission), a [pool.worker_busy_s] histogram, [pool.utilization]
      and [pool.participants] gauges, and a closing [pool.stats] event.
      With the null handle the loop reads no clock. *)

  val shutdown : t -> unit
  (** [shutdown pool] terminates and joins the worker domains. Only needed
      for pools from {!create}; the {!global} pool lives for the process.
      Subsequent [run_list] calls on a shut-down pool run sequentially. *)
end

val init_array : ?telemetry:Telemetry.t -> ?domains:int -> int -> (int -> 'a) -> 'a array
(** [init_array ~domains n f] is [Array.init n f], splitting the work
    into up to [domains] blocks ([1] = sequential, the default). [f] must
    be safe to run concurrently on distinct indices. Preserves order.
    Exceptions raised by [f] are re-raised in the caller. Several blocks
    run through {!Pool.run_list} on the shared pool. One block runs in
    the same loop on the caller alone, without looking up {!Pool.global}
    (so no worker domain is spawned), and reports the same [pool.*]
    vocabulary except the closing [pool.stats] event: one job, one
    participant, utilization 1. *)
