(** Packed bit vectors.

    Samples coming back from the annealers are assignments to thousands of
    binary variables; storing them one-bit-per-bit (rather than one byte or
    one boxed bool per bit) keeps multi-read sample sets compact and makes
    Hamming-distance and equality checks word-parallel. *)

type t = private { len : int; data : Bytes.t }
(** A fixed-length vector of bits. Mutable. Bit [i] is bit [i land 7]
    of byte [i lsr 3] of [data]; the unused high bits of the last byte
    are always clear, which keeps {!equal}, {!compare} and {!hash}
    byte-wise.

    The representation is visible (as a [private] type, so only this
    module builds one) for scalar SA's sweep: its accepted flips XOR
    the bit in [data] in place
    ({!Qsmt_qubo.Fields.metropolis_sweep}, {!Qsmt_qubo.Fields.flip}),
    where a call to {!flip} per accepted flip would cross a module
    boundary. Everything else goes through the functions below. *)

val create : int -> t
(** [create n] is an all-zero vector of length [n]. *)

val init : int -> (int -> bool) -> t
(** [init n f] sets bit [i] to [f i]. *)

val length : t -> int
(** Number of bits. *)

val get : t -> int -> bool
(** [get t i] is bit [i].
    @raise Invalid_argument if [i] is out of bounds. *)

val set : t -> int -> bool -> unit
(** [set t i b] writes bit [i].
    @raise Invalid_argument if [i] is out of bounds. *)

val flip : t -> int -> unit
(** [flip t i] toggles bit [i]. *)

val copy : t -> t
(** Independent copy. *)

val fill : t -> bool -> unit
(** [fill t b] sets every bit to [b]. *)

val equal : t -> t -> bool
(** Structural equality (same length, same bits). *)

val compare : t -> t -> int
(** Total order consistent with {!equal}. *)

val hash : t -> int
(** Hash consistent with {!equal}. *)

val popcount : t -> int
(** Number of set bits. *)

val hamming : t -> t -> int
(** [hamming a b] is the number of positions where [a] and [b] differ.
    @raise Invalid_argument on length mismatch. *)

val to_bool_array : t -> bool array
val of_bool_array : bool array -> t

val to_string : t -> string
(** [to_string t] is e.g. ["10110"], most significant position first
    (index 0 leftmost). *)

val of_string : string -> t
(** Inverse of {!to_string}.
    @raise Invalid_argument on characters other than '0'/'1'. *)

val random : Prng.t -> int -> t
(** [random rng n] is a uniformly random vector of [n] bits. *)

val pp : Format.formatter -> t -> unit
