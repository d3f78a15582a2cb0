(** Bit-parallel multi-replica sweep state (multi-spin coding).

    {!Fields} answers "what does flipping spin [i] cost?" for {e one}
    replica. SQA's Trotter slices and PT's temperature ladder run up to
    64 replicas over the {e same} problem, and a scalar kernel would
    re-stream the CSR row of every touched spin once {e per replica}.
    Multi-spin coding packs up to 64 replicas' spins for site [i] into
    one [int64] word (bit [l] = lane [l]'s spin), so a single pass over
    the row advances every lane at once: one memory traversal per site
    per sweep, amortised across all replicas.

    Per lane the kernel maintains exactly what {!Fields} maintains — the
    local fields [f_l(i) = h_i + sum_j J_ij s_l(j)] and the running
    energy [H(s_l)] — and the float-operation order of every update and
    every from-scratch recompute matches the scalar kernel
    ({!Ising.energy} / {!Ising.local_field}) addition for addition.
    Consequently a lane that is driven through the same flip sequence as
    a scalar {!Fields} state reports bit-identical fields, deltas and
    energies; the property tests use the scalar kernel as the oracle on
    exactly this contract.

    Acceptance is {!accept_mask} (see DESIGN.md, "Multi-spin coding"):
    exact Metropolis for all lanes from O(log lanes) PRNG words via
    geometric octave bucketing. The per-lane accept {e distribution} is
    exactly the scalar sampler's; only the PRNG consumption pattern
    differs.

    A state is single-domain, like {!Fields}: scratch buffers live in
    the state, so concurrent sweeps need one state per domain. *)

type t

val max_lanes : int
(** 64: the word width. SQA and PT refuse more slices or rungs. *)

val create : Ising.t -> Ising.spins array -> t
(** [create ising lanes] packs the given assignments (lane [l] = element
    [l]) and computes all fields and energies in O(n·lanes + nnz·lanes).
    The assignments are {e copied} into the packed words, not adopted —
    unlike {!Fields.create}. The number of assignments is the state's
    lane count.
    @raise Invalid_argument if the array is empty or longer than
    {!max_lanes}, or on any spin-count mismatch. *)

val lane_mask : t -> int64
(** One bit set per live lane, from bit 0 up; the tail bits of every
    word are kept zero and masked out of every accept mask. *)

val word : t -> int -> int64
(** [word t i] is site [i]'s packed spins: bit [l] set iff lane [l] has
    spin up. Bits above the live lanes are zero. *)

val energy : t -> int -> float
(** [energy t l] is lane [l]'s tracked [H(s_l)], O(1). *)

val best_lane : t -> int
(** Lane index with the lowest tracked energy (ties to the lowest
    index). *)

val field : t -> int -> int -> float
(** [field t i l] is lane [l]'s tracked local field at site [i]. *)

val delta : t -> int -> int -> float
(** [delta t i l] is lane [l]'s flip cost at site [i] — the same
    expression as {!Fields.delta}, O(1). *)

val deltas : t -> int -> float array -> unit
(** [deltas t i buf] fills [buf.(l)] with [delta t i l] for every live
    lane. [buf] must have one cell per live lane at least. The word is
    read once; this is the form SQA's and PT's sweeps call. *)

val lane_spins : t -> int -> Ising.spins
(** [lane_spins t l] gathers lane [l] back out to a scalar assignment
    (fresh, not aliased).
    @raise Invalid_argument if [l] is not a live lane. *)

val flip : t -> int -> int64 -> unit
(** [flip t i mask] flips site [i] in every lane whose bit is set in
    [mask] (bits above {!lane_mask} are ignored): folds each flipped
    lane's delta into its energy, XORs the word, and updates the flipped
    lanes' neighbor fields in one CSR-row pass. O(degree i · popcount).
    A no-op when the masked [mask] is zero. *)

type draws
(** Bulk-draw state for {!accept_mask}: a nested, allocation-free 32-bit
    generator (xoshiro128++ over native ints) that draws round words for
    ~1ns each. Its stream defines SQA's and PT's samples, so it stays
    even though {!Qsmt_util.Prng} allocates nothing per draw either. *)

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

val refresh : t -> unit
(** Recomputes every lane's fields and energy from the packed words,
    zeroing accumulated drift. O(n·lanes + nnz·lanes). *)

val drift : t -> float
(** Worst lane's [|tracked energy - recomputed energy|], without
    mutating. *)
