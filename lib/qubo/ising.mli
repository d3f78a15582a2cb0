(** Ising-model view of a QUBO.

    Annealers (simulated and quantum alike) natively work on spins
    [s_i ∈ {-1,+1}] with Hamiltonian

    {v H(s) = offset + sum_i h_i s_i + sum_{i<j} J_ij s_i s_j v}

    The standard change of variables [x_i = (1 + s_i) / 2] maps a QUBO to
    an Ising instance with identical energy landscape ({!of_qubo} /
    {!to_qubo} round-trip preserves energies exactly, offset included).
    The frozen form mirrors {!Qubo.t}'s CSR layout so the Metropolis inner
    loop is a couple of array reads per neighbor.

    {!of_qubo} also splits the spins, once per problem, into those that
    appear in a term ({!active}) and the {e idle} rest ({!idle}): the
    characters a constraint leaves unconstrained, which the paper's
    encodings leave arbitrary. Scalar SA prices only the active spins
    and flips the idle ones without a draw; tabu search moves only
    active spins. *)

type t

type spins = Qsmt_util.Bitvec.t
(** Spin assignments are packed bit vectors: bit set = spin up (+1),
    clear = spin down (-1). *)

val of_qubo : Qubo.t -> t
(** Exact transformation; variable indices are preserved. *)

val to_qubo : t -> Qubo.t
(** Inverse of {!of_qubo} (up to float rounding). *)

val num_spins : t -> int
val offset : t -> float
val field : t -> int -> float
(** [field t i] is [h_i]. *)

val couplings : t -> (int * int * float) list
(** Nonzero [J_ij] as [(i, j, J)] with [i < j], ascending. *)

val neighbors : t -> int -> (int * float) list
val degree : t -> int -> int

val iter_neighbors : t -> int -> (int -> float -> unit) -> unit
(** [iter_neighbors t i f] calls [f j J_ij] for every coupler touching
    [i], in CSR order, without allocating the {!neighbors} list. *)

val csr : t -> int array * int array * float array
(** [(row_ptr, col, value)]: the raw CSR adjacency. Row [i]'s couplers
    occupy indices [row_ptr.(i) .. row_ptr.(i+1) - 1] of [col]/[value];
    every coupler appears in both endpoints' rows. The arrays are
    physically shared with the problem — treat them as read-only. This is
    the escape hatch for allocation-free inner loops ({!Fields}, schedule
    derivation). *)

val active : t -> int array
(** The spins that appear in a term: those with a coupler or a nonzero
    field [h_i], ascending. Computed once by {!of_qubo}; the array is
    physically shared with the problem, so treat it as read-only. *)

val idle : t -> int array
(** The {e idle} spins, ascending: no coupler and [h_i = 0.] (the QUBO
    variables that appear in no term, such as characters no constraint
    touches). Together with {!active} they partition [0 .. n-1]. An idle
    spin's local field is [0.] whatever the other spins are, so its flip
    delta is [0.] and flipping it changes no field and no energy: scalar
    SA's sweep flips every idle spin without a draw, and tabu search
    never moves one. Shared and read-only like {!active}. *)

val energy : t -> spins -> float
(** [energy t s] is [H(s)].
    @raise Invalid_argument on length mismatch. *)

val local_field : t -> spins -> int -> float
(** [local_field t s i] is [h_i + sum_j J_ij s_j]: the energy cost of spin
    [i] being up rather than down is [2 * local_field]. O(degree i). *)

val flip_delta : t -> spins -> int -> float
(** [flip_delta t s i] is [H(s with spin i flipped) - H(s)]. *)

val spins_of_bits : Qsmt_util.Bitvec.t -> spins
(** Identity on the representation: [x_i = 1] means spin up. Provided for
    intent at call sites. *)

val bits_of_spins : spins -> Qsmt_util.Bitvec.t
(** Inverse of {!spins_of_bits}. *)

val max_abs_field : t -> float
(** Largest [|h_i|] or [|J_ij|]; drives default β schedules. *)

val min_abs_nonzero : t -> float
(** Smallest nonzero [|h_i|] or [|J_ij|]; [1.] for an all-zero problem. *)

val pp : Format.formatter -> t -> unit
