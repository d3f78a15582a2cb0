(** Bit-parallel multi-replica sweep state (multi-spin coding).

    {!Fields} answers "what does flipping spin [i] cost?" for {e one}
    replica. Annealing-portfolio workloads run 32–64 independent
    replicas over the {e same} problem — SA reads, Trotter slices in
    SQA, the temperature ladder in PT — and a scalar kernel re-streams
    the CSR row of every touched spin once {e per replica}. Multi-spin
    coding packs up to 64 replicas' spins for site [i] into one [int64]
    word (bit [l] = lane [l]'s spin), so a single pass over the row
    advances every lane at once: one memory traversal per site per
    sweep, amortised across all replicas.

    Per lane the kernel maintains exactly what {!Fields} maintains — the
    local fields [f_l(i) = h_i + sum_j J_ij s_l(j)] and the running
    energy [H(s_l)] — and the float-operation order of every update and
    every from-scratch recompute matches the scalar kernel
    ({!Ising.energy} / {!Ising.local_field}) addition for addition.
    Consequently a lane that is driven through the same flip sequence as
    a scalar {!Fields} state reports bit-identical fields, deltas and
    energies; the property tests use the scalar kernel as the oracle on
    exactly this contract.

    Acceptance comes in two flavors (see DESIGN.md, "Multi-spin
    coding"):

    - {!accept_mask} — the fast path: exact Metropolis for all lanes
      from O(log lanes) PRNG words via geometric octave bucketing. The
      per-lane accept {e distribution} is exactly the scalar sampler's;
      only the PRNG consumption pattern differs.
    - {!accept_mask_lockstep} — one PRNG stream per lane, consumed with
      the scalar sweep's exact conditional-draw discipline, making a
      packed run bit-identical to scalar runs from the same seeds. This
      is the parity-test vehicle, not the fast path.

    A state is single-domain, like {!Fields}: scratch buffers live in
    the state, so concurrent sweeps need one state per domain. *)

type t

val max_lanes : int
(** 64: the word width. Callers with more replicas run several states
    (or groups of reads); samplers decline packing past this width. *)

val create : ?refresh_every:int -> Ising.t -> Ising.spins array -> t
(** [create ising lanes] packs the given assignments (lane [l] = element
    [l]) and computes all fields and energies in O(n·lanes + nnz·lanes).
    The assignments are {e copied} into the packed words, not adopted —
    unlike {!Fields.create}. [refresh_every], when positive, recomputes
    from scratch after that many accepted lane-flips; [0] (default)
    means never.
    @raise Invalid_argument if the array is empty or longer than
    {!max_lanes}, on any spin-count mismatch, or on negative
    [refresh_every]. *)

val problem : t -> Ising.t
val num_spins : t -> int

val lanes : t -> int
(** Number of live lanes, [1..64]. *)

val lane_mask : t -> int64
(** Low [lanes t] bits set; the tail bits of every word are kept zero
    and masked out of every accept mask. *)

val word : t -> int -> int64
(** [word t i] is site [i]'s packed spins: bit [l] set iff lane [l] has
    spin up. Bits at and above [lanes t] are zero. *)

val energy : t -> int -> float
(** [energy t l] is lane [l]'s tracked [H(s_l)], O(1). *)

val energies : t -> float array
(** All tracked lane energies, freshly copied. *)

val best_lane : t -> int
(** Lane index with the lowest tracked energy (ties to the lowest
    index). *)

val field : t -> int -> int -> float
(** [field t i l] is lane [l]'s tracked local field at site [i]. *)

val delta : t -> int -> int -> float
(** [delta t i l] is lane [l]'s flip cost at site [i] — the same
    expression as {!Fields.delta}, O(1). *)

val deltas : t -> int -> float array -> unit
(** [deltas t i buf] fills [buf.(l)] with [delta t i l] for every lane.
    [buf] must have length ≥ [lanes t]. The word is read once; this is
    the sweep-loop form. *)

val lane_spins : t -> int -> Ising.spins
(** [lane_spins t l] gathers lane [l] back out to a scalar assignment
    (fresh, not aliased).
    @raise Invalid_argument if [l] is outside [0..lanes t - 1]. *)

val flip : t -> int -> int64 -> unit
(** [flip t i mask] flips site [i] in every lane whose bit is set in
    [mask] (bits above {!lane_mask} are ignored): folds each flipped
    lane's delta into its energy, XORs the word, and updates the flipped
    lanes' neighbor fields in one CSR-row pass. O(degree i · popcount).
    A no-op when the masked [mask] is zero. *)

type draws
(** Bulk-draw state for the bucketed accept paths: a nested,
    allocation-free 32-bit generator (xoshiro128++ over native ints)
    that draws round words for ~1ns each. Its stream defines the packed
    samples, so it stays even though {!Qsmt_util.Prng} allocates nothing
    per draw either. *)

val draws : Qsmt_util.Prng.t -> draws
(** Seeds a bulk-draw state from the caller's generator (consumes two
    [bits64] draws, so runs stay deterministic under the usual stream
    discipline). Create once per run and reuse across sweeps. *)

val accept_mask : t -> draws:draws -> ?only:int64 -> betas:float array -> float array -> int64
(** [accept_mask t ~draws ~betas deltas] draws one Metropolis accept
    decision per lane — bit [l] of the result is set iff lane [l]
    accepts a flip of cost [deltas.(l)] at inverse temperature
    [betas.(l)] — using geometric octave bucketing: non-positive deltas
    accept outright; each positive [x = beta·delta] has acceptance
    probability [p = exp(-x)] in the octave [(2^-(m+1), 2^-m]] for
    [m = floor(x / ln 2)]; successive round words reveal each lane's
    uniform one binary digit at a time (for all lanes simultaneously),
    which settles every lane whose first set bit misses its octave; only
    the boundary octave pays a float draw and an [exp]. Expected cost
    ~7 round words and a handful of [exp]s per site, instead of one
    float draw and one [exp] per lane. The marginal accept probability
    per lane is {e exactly} [min 1 (exp (-beta·delta))]. [only]
    restricts the decision to the given lanes (others get a 0 bit and
    consume nothing lane-specific). *)

val metropolis_sweep : t -> draws:draws -> betas:float array -> sweep:int -> int
(** One full Metropolis sweep over every site and lane at the uniform
    inverse temperature [betas.(sweep)] — {!deltas}, {!accept_mask} and
    {!flip} fused into a single pass per site with no [int64]
    round-trips or intermediate buffers. The accept decisions are drawn
    exactly as {!accept_mask} draws them. Returns the number of accepted
    lane-flips. This is the packed SA fast path's inner loop, and it
    allocates nothing: β is read from the array in place, as
    {!Fields.metropolis_sweep} reads it. A fixed β is
    [~betas:[| beta |] ~sweep:0].
    @raise Invalid_argument if [sweep] is out of [betas]' bounds. *)

val accept_mask_lockstep : t -> rngs:Qsmt_util.Prng.t array -> betas:float array -> float array -> int64
(** Like {!accept_mask} but lane [l] decides with [rngs.(l)] using the
    scalar sweep's exact expression and draw discipline
    ([delta <= 0. || Prng.float rng < exp (-beta *. delta)] — no draw
    consumed on downhill moves). A packed run stepping lanes with this
    mask is bit-identical to scalar runs seeded with the same streams.
    [rngs] and [betas] must have length ≥ [lanes t]. *)

val reset : t -> Ising.spins array -> unit
(** [reset t lanes] packs new assignments (same problem, same lane
    count) and recomputes, reusing all storage — the multi-read
    counterpart of {!Fields.reset}.
    @raise Invalid_argument on lane-count or spin-count mismatch. *)

val refresh : t -> unit
(** Recomputes every lane's fields and energy from the packed words,
    zeroing accumulated drift. O(n·lanes + nnz·lanes). *)

val drift : t -> float
(** Worst lane's [|tracked energy - recomputed energy|], without
    mutating. *)
