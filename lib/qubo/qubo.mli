(** Quadratic Unconstrained Binary Optimization problems.

    A QUBO instance over binary variables [x_0 .. x_{n-1}] is

    {v E(x) = offset + sum_{i} Q_ii x_i + sum_{i<j} Q_ij x_i x_j v}

    Diagonal entries are the linear terms (since [x^2 = x]); off-diagonal
    entries are couplers, stored upper-triangular: [(i, j)] with [i < j]
    and [(j, i)] refer to the same coefficient.

    Construction goes through a mutable {!builder} — string-constraint
    encoders write entries one at a time, sometimes overwriting earlier
    ones (the paper's substring-matching semantics, §4.3) — which is then
    {!freeze}-d into an immutable CSR form that samplers evaluate against
    millions of times. *)

type builder
(** Mutable under-construction QUBO. *)

type t
(** Frozen (immutable) QUBO. *)

(** {1 Building} *)

val builder : unit -> builder
(** Fresh empty builder. The variable count is the highest index touched
    plus one (or the value forced by {!freeze}'s [?num_vars]). *)

val set : builder -> int -> int -> float -> unit
(** [set b i j q] overwrites coefficient [(min i j, max i j)] with [q].
    Paper-faithful "last write wins" semantics.
    @raise Invalid_argument on negative indices. *)

val add : builder -> int -> int -> float -> unit
(** [add b i j q] adds [q] to the current coefficient (0 if absent). *)

val get : builder -> int -> int -> float
(** Current coefficient, [0.] if never written. *)

val add_offset : builder -> float -> unit
val set_offset : builder -> float -> unit

val merge : into:builder -> builder -> unit
(** [merge ~into src] adds every coefficient and the offset of [src] into
    [into] (summing semantics). *)

(** {1 Write provenance} *)

type overwrite = {
  ov_i : int;
  ov_j : int;  (** normalized: [ov_i <= ov_j] *)
  old_value : float;
  new_value : float;
}
(** One value-changing {!set} collision: the entry already held
    [old_value] and was overwritten with the different [new_value].
    Re-writing the value already present is not a collision. *)

val with_overwrite_log : (unit -> 'a) -> 'a * overwrite list
(** [with_overwrite_log f] records, for every builder touched while [f]
    runs, each value-changing [set] overwrite, in program order. The
    paper's substring encoding (§4.3) relies on last-write-wins
    semantics, so collisions are not errors — the static analyzer
    ({!Analyze}) surfaces them as findings instead of letting them stay
    tribal knowledge. Recording is process-global and not domain-safe:
    run it single-threaded (the linter's compile step is). Nested calls
    log to the innermost scope. When no scope is active (the default),
    {!set} pays one reference read and no allocation. *)

(** {1 Freezing and inspection} *)

val freeze : ?num_vars:int -> builder -> t
(** [freeze ?num_vars b] compiles [b] to CSR. [num_vars] forces the
    variable count (useful when trailing variables are unconstrained, as
    in the paper's substring encodings); it must be at least the highest
    index touched plus one. Entries that are exactly [0.] are dropped —
    including negative zero ([-0. = 0.] under float comparison), so a
    coefficient overwritten to zero is indistinguishable from one never
    written. {!Analyze}'s dead-variable check relies on exactly this: a
    variable whose every entry was dropped has no terms at all in the
    frozen problem. Nonzero entries are copied verbatim (bit-exact, no
    rounding), so [builder] values round-trip through [freeze]
    unchanged. The builder remains usable afterwards. *)

val num_vars : t -> int
val offset : t -> float

val linear : t -> int -> float
(** [linear q i] is [Q_ii]. *)

val quadratic : t -> (int * int * float) list
(** All nonzero couplers as [(i, j, q)] with [i < j], ascending. *)

val num_interactions : t -> int
(** Number of nonzero couplers. *)

val degree : t -> int -> int
(** Number of distinct variables coupled to [i]. *)

val neighbors : t -> int -> (int * float) list
(** [(j, Q_ij)] for every coupler touching [i]. *)

val iter_linear : t -> (int -> float -> unit) -> unit
(** Visits every nonzero diagonal entry. *)

val iter_quadratic : t -> (int -> int -> float -> unit) -> unit
(** Visits every nonzero coupler once, with [i < j]. *)

(** {1 Evaluation} *)

val energy : t -> Qsmt_util.Bitvec.t -> float
(** [energy q x] is [E(x)].
    @raise Invalid_argument if [x] has the wrong length. *)

val flip_delta : t -> Qsmt_util.Bitvec.t -> int -> float
(** [flip_delta q x i] is [E(x with bit i flipped) - E(x)], computed in
    O(degree i). This is the inner loop of every sampler. *)

(** {1 Transformations} *)

val scale : t -> float -> t
(** Multiplies every coefficient and the offset. *)

val relabel : t -> (int -> int) -> num_vars:int -> t
(** [relabel q f ~num_vars] renames variable [i] to [f i]. [f] must be
    injective on the variables of [q] and map into [\[0, num_vars)].
    @raise Invalid_argument if two variables collide. *)

val to_dense : t -> float array array
(** Symmetric-upper-triangular dense matrix: [m.(i).(j)] for [i <= j]
    holds the coefficient; entries below the diagonal are [0.]. Intended
    for small matrices (printing, tests). *)

val of_dense : float array array -> t
(** Inverse of {!to_dense}; reads the upper triangle including the
    diagonal, adds lower-triangle entries into their mirrored position.
    @raise Invalid_argument if the matrix is not square. *)

val max_abs_coefficient : t -> float
(** Largest absolute value over linear and quadratic coefficients;
    [0.] for an empty problem. Drives default temperature schedules. *)

val equal : t -> t -> bool
(** Same variable count, offset, and coefficients. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: variable count, interaction count, offset. *)
