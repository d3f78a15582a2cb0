(** Incremental sweep state for annealing-style samplers.

    Every sampler's inner loop asks the same two questions millions of
    times: "what would flipping spin [i] cost?" and "what is the current
    energy?". Answering them from scratch is O(degree i) and O(n + nnz)
    respectively. This module wraps a frozen {!Ising.t} plus a live spin
    assignment and maintains

    - the {e local field} array [f_i = h_i + sum_j J_ij s_j], and
    - the running energy [H(s)],

    so that {!delta} is O(1) and {!energy} is O(1), at the price of an
    O(degree i) neighbor update inside {!flip}. A full Metropolis sweep
    drops from O(n · avg_degree) to O(n + accepted_flips · avg_degree) —
    the local-field trick quantum-inspired QUBO solvers (and D-Wave's
    neal) get their throughput from.

    Invariants (restored by every {!flip}):

    {v sign_i = s_i  (1. or -1.)             for all i
   f_i    = h_i + sum_j J_ij s_j        for all i
   energy = offset + sum_i h_i s_i + sum_{i<j} J_ij s_i s_j v}

    Floating-point drift: each accepted flip updates [energy] and the
    neighbor fields incrementally, so rounding error can accumulate over
    very long runs. {!refresh} recomputes both from scratch; {!drift}
    measures the current energy error without mutating. The string
    encodings' dyadic coefficients make every update exact (see
    DESIGN.md, "Incremental local-field kernel"). *)

type t

val create : Ising.t -> Ising.spins -> t
(** [create ising spins] builds the tracked state in O(n + nnz). [spins]
    is {e adopted}, not copied: {!flip} mutates it in place and {!spins}
    returns it. Mutating it behind the kernel's back invalidates the
    invariants (call {!refresh} if you must). The kernel never refreshes
    on its own.
    @raise Invalid_argument on spin-count mismatch. *)

val problem : t -> Ising.t
val num_spins : t -> int

val spins : t -> Ising.spins
(** The live assignment — aliased, not a copy. The kernel also mirrors
    it as an array of spin signs ([1.] / [-1.]), which {!delta} reads;
    {!flip}, {!refresh} and {!reset} keep the two in step. *)

val energy : t -> float
(** Tracked [H(s)], O(1). The value is stored unboxed, but the returned
    float is boxed on each call (a float crosses the module boundary
    boxed), so hot loops read it once, outside their per-spin scan. *)

val field : t -> int -> float
(** Tracked local field [f_i], O(1). *)

val delta : t -> int -> float
(** [delta t i] is [H(s with spin i flipped) - H(s)], O(1). Numerically
    identical to [Ising.flip_delta] evaluated fresh, up to the rounding
    of the incremental field updates. *)

val flip : t -> int -> unit
(** Flips spin [i]: applies {!delta} to the energy, toggles the bit, and
    updates the neighbors' fields. O(degree i). Allocates nothing. *)

val metropolis_sweep : t -> rng:Qsmt_util.Prng.t -> betas:float array -> sweep:int -> int
(** [metropolis_sweep t ~rng ~betas ~sweep] runs one Metropolis pass at
    inverse temperature [betas.(sweep)] and returns the number of
    accepted flips. Its draws, decisions and end state are exactly
    those of the loop over spins [0 .. n-1] in order that flips spin [i]
    (through {!flip}) when [delta t i <= 0.], or else when
    [Prng.float rng < exp (-. beta *. delta t i)], drawing the uniform
    only for uphill moves: the same spins, the same energy bits, the
    same count and the same [rng] state.

    It gets there in two passes. The first prices the spins that appear
    in a term ({!Ising.active}), in ascending order, with the decision
    above. The second flips every idle spin ({!Ising.idle}): its delta is
    [+-0.] in every state, so the loop above accepts it without a draw,
    and the flip changes no field and no energy. The rng's four state
    words are read once at the start of the sweep, advanced inline for
    each uphill draw (the {!Qsmt_util.Prng.bits53} step) and written
    back once at the end, and accepted flips XOR the assignment's bytes
    in place: nothing in the loop is a call into another module or a
    boxed value. β is read from the array in place (a [float] argument
    would be boxed by every caller in another module), and an uphill
    delta equal to the previous one reuses its [exp], which yields the
    same value. A fixed β is [~betas:[| beta |] ~sweep:0]. The scalar
    twin of {!Multispin.metropolis_sweep}, and scalar SA's inner loop.
    @raise Invalid_argument if [sweep] is out of [betas]' bounds. *)

val refresh : t -> unit
(** Recomputes every field and the energy from the current spins in
    O(n + nnz), zeroing accumulated drift. *)

val drift : t -> float
(** [|tracked energy - recomputed energy|], without mutating. *)

val reset : t -> Ising.spins -> unit
(** [reset t spins] adopts a new assignment (same problem) and
    recomputes, reusing the field array — for running many reads through
    one kernel without reallocation.
    @raise Invalid_argument on spin-count mismatch. *)
