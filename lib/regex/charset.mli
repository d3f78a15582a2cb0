(** Sets of 7-bit ASCII characters.

    The alphabet everywhere in this library is the 7-bit ASCII range the
    paper's encoding supports (codes 0-127). Implemented as a two-word
    bitset, so union/intersection/membership/subset tests are a few
    machine operations, and the traversals ({!fold}, {!iter},
    {!to_list}, {!for_all}, {!choose}) walk the set bits, lowest first,
    in time proportional to the members rather than to the 128 codes.
    These sit in the DFA construction and the abstract interpreter's
    per-position domains. *)

type t

val empty : t
val full : t
(** All 128 characters. *)

val printable : t
(** Codes 32-126. *)

val singleton : char -> t
val of_list : char list -> t
val of_range : char -> char -> t
(** [of_range lo hi] is inclusive.
    @raise Invalid_argument if [lo > hi]. *)

val of_string : string -> t
(** Set of the string's characters. *)

val mem : char -> t -> bool
val add : char -> t -> t
val remove : char -> t -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val complement : t -> t
(** With respect to {!full}. *)

val is_empty : t -> bool

val disjoint : t -> t -> bool
(** [disjoint a b] iff [inter a b] is empty, without building it. *)

val subset : t -> t -> bool
(** [subset a b] iff every member of [a] is in [b]. *)

val cardinal : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int

val choose : t -> char option
(** Smallest member. *)

val to_list : t -> char list
(** Ascending. *)

val iter : (char -> unit) -> t -> unit
(** Ascending. *)

val fold : (char -> 'a -> 'a) -> t -> 'a -> 'a
(** Ascending: [fold f t a] is [f cn (... (f c1 a))] for members
    [c1 < ... < cn]. *)

val for_all : (char -> bool) -> t -> bool
(** Ascending, stopping at the first member the predicate rejects. *)

val pp : Format.formatter -> t -> unit
(** Compact rendering, e.g. [\[a-c x\]]. *)
