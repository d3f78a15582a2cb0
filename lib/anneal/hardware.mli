(** Hardware-model sampler: the full QPU workflow in simulation.

    Reproduces the pipeline a real annealer submission goes through —
    minor-embed the logical problem into a fixed topology (then trim the
    chains, {!Embedding.trim}), rewrite it onto physical qubits with
    chain penalties, optionally perturb the physical coefficients with
    Gaussian control noise (integrated control errors, a dominant
    imperfection of analog annealers), anneal the physical problem, then
    majority-vote broken chains back to logical assignments.

    Two batch-workload mechanisms sit on top of the seed pipeline:

    - an {e embedding cache} keyed by the problem's adjacency structure
      and the topology name. Table 1 constraints of the same shape
      compile to structurally identical QUBOs, so repeated solves skip
      the (dominant) routing cost; {!stats.embedding_cache_hit} reports
      reuse. The cache is process-global and thread-safe.
    - an {e adaptive chain-strength loop}: after each read batch the mean
      chain-break fraction is measured; if it exceeds
      [params.max_break_fraction], the strength is escalated
      geometrically ([strength_growth], at most [max_escalations] times)
      and the batch re-annealed. A batch still broken after the last
      escalation is returned with a typed {!degradation} record in
      {!stats.degraded} instead of being silently handed back as if the
      majority-vote repairs were trustworthy samples.

    This is the substrate for the paper's "testing these formulations on
    a real quantum computer" future work: the same QUBO formulations run
    unchanged, and the experiment harness measures what embedding and
    noise cost them. *)

type params = {
  topology : Topology.t;
  chain_strength : float option;
      (** starting strength; [None] (default) uses
          {!Chain.default_strength} of the logical problem. The adaptive
          loop may escalate from here. *)
  noise_sigma : float;
      (** std-dev of Gaussian noise added to every physical coefficient,
          relative to the largest |coefficient| (default 0. = ideal
          hardware) *)
  embed_tries : int;  (** randomized embedding attempts (default 16) *)
  anneal : Sa.params;  (** annealer run on the physical problem *)
  max_break_fraction : float;
      (** mean chain-break fraction above which a batch is rejected and
          the strength escalated (default 0.25; must be in (0, 1]) *)
  strength_growth : float;
      (** geometric escalation factor (default 2.; must be > 1 when
          [max_escalations > 0]) *)
  max_escalations : int;
      (** bound on strength escalations (default 3; 0 pins the strength
          and turns high-break batches directly into degradations) *)
  use_cache : bool;  (** consult/populate the embedding cache (default true) *)
}

val default_params : Topology.t -> params

type degradation = {
  break_fraction : float;  (** mean chain-break fraction of the final batch *)
  threshold : float;  (** the [max_break_fraction] it exceeded *)
  escalations : int;  (** escalations spent before giving up *)
}
(** The typed "this answer is untrustworthy" signal: every escalation was
    spent and chains still break more often than the configured
    threshold, so the returned samples are majority-vote guesses rather
    than faithful reads of the logical problem. *)

type stats = {
  topology : string;
  hardware_qubits : int;  (** qubits of the whole topology graph *)
  qubits_used : int;
      (** {!Embedding.total_qubits_used} — what the embedding actually
          occupies (the seed revision misreported the whole graph size
          here) *)
  max_chain_length : int;
  mean_chain_break_fraction : float;  (** of the final batch, averaged over reads *)
  embed_tries_used : int;  (** randomized attempts the embedding took (0 = cached/empty) *)
  embedding_cache_hit : bool;
  chain_strength : float;  (** final (possibly escalated) strength *)
  escalations : int;
  degraded : degradation option;  (** [Some] iff the final batch is untrustworthy *)
}

type result = {
  samples : Sampleset.t;
      (** logical samples from every batch (escalation retries included),
          energies under the logical QUBO *)
  embedding : Embedding.t;
  stats : stats;
}

exception Embedding_failed of string
(** Raised when no embedding is found within [embed_tries] attempts. *)

val sample :
  ?params:params ->
  ?stop:(unit -> bool) ->
  ?on_read:(Qsmt_util.Bitvec.t -> unit) ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  Qsmt_qubo.Qubo.t ->
  result
(** [stop] and [on_read] follow the {!Reads} contract of the inner
    {!Sa.sample} — [on_read] observes each completed read already
    projected to {e logical} bits (majority vote, seeded tie-breaks),
    which is what early exit's verifier needs; [stop] also aborts
    pending escalation retries.

    [telemetry] records the QPU workflow as events: [hardware.embed]
    (topology, cache_hit, tries, qubits_used, max_chain) once per call,
    [hardware.attempt] (attempt, strength, break_fraction, reads) per
    read batch, [hardware.escalate] + a [hardware.escalations] counter
    each time the chain strength is raised, and [hardware.degraded] when
    the final batch still exceeds the break threshold. The inner annealer
    shares the handle, so its [sa.sweep] stream is interleaved (its
    energies are of the {e physical} embedded problem).
    @raise Embedding_failed if the problem does not fit the topology.
    @raise Invalid_argument on nonsensical parameters. *)

type topology_kind = [ `Chimera | `King | `Complete ]

val auto_topology :
  ?seed:int -> ?tries:int -> kind:topology_kind -> Qsmt_qubo.Qubo.t -> Topology.t
(** Smallest square topology of the given family that the problem embeds
    into: [`Complete] is exact (one qubit per variable); [`Chimera] /
    [`King] grow the grid until a probe embedding succeeds ([tries]
    attempts per size, default 8). Probes go through the embedding cache,
    so the routing work is reused by the {!sample} call that follows.
    @raise Embedding_failed if nothing up to 4096 qubits fits. *)

val clear_embedding_cache : unit -> unit
(** Drops every cached embedding (tests; long-lived processes whose
    workload shape changed). *)

val embedding_cache_size : unit -> int
(** Number of distinct (topology, problem-structure) keys cached. *)

val pp_stats : Format.formatter -> stats -> unit
(** One-line rendering, with a [DEGRADED] suffix when applicable. *)
