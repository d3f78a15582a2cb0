(** Collections of solver samples.

    Mirrors dimod's [SampleSet]: every sampler returns one of these —
    assignments with their energies and occurrence counts, ordered by
    ascending energy, identical assignments aggregated. *)

type entry = {
  bits : Qsmt_util.Bitvec.t; (** variable assignment *)
  energy : float; (** QUBO energy including offset *)
  occurrences : int; (** how many reads produced this assignment *)
}

type t

val of_bits : Qsmt_qubo.Qubo.t -> Qsmt_util.Bitvec.t list -> t
(** [of_bits q samples] computes each sample's energy under [q],
    aggregates duplicates, sorts ascending by energy. *)

val of_entries : entry list -> t
(** Aggregates duplicate assignments, sorts ascending by energy. When
    duplicates disagree on energy (possible when noisy hardware-model
    reads merge with exact ones) the minimum is kept — order-independent,
    unlike the first-seen energy an earlier revision silently kept. *)

val of_tracked : Qsmt_qubo.Qubo.t -> (Qsmt_util.Bitvec.t * float) list -> t
(** [of_tracked q samples] builds a set from [(bits, energy)] pairs whose
    energies the sampler already knows (incrementally tracked during the
    sweep loop), skipping {!of_bits}'s per-read [Qubo.energy] recompute.
    Energies must be [q]-energies (offset included); samplers guarantee
    agreement with full recomputation to ~1e-9 (tested).
    @raise Invalid_argument if any assignment has the wrong length. *)

val empty : t
val is_empty : t -> bool

val size : t -> int
(** Number of distinct assignments. *)

val total_reads : t -> int
(** Sum of occurrence counts. *)

val best : t -> entry
(** Lowest-energy entry. @raise Invalid_argument if empty. *)

val best_opt : t -> entry option
val entries : t -> entry list
(** Ascending energy. *)

val lowest_energy : t -> float
(** @raise Invalid_argument if empty. *)

val energies : t -> float array
(** One energy per read (entries expanded by occurrence count),
    ascending. *)

val filter : (entry -> bool) -> t -> t
val merge : t -> t -> t
(** Re-aggregates entries from both sets; duplicate assignments sum their
    occurrences and keep the minimum energy (see {!of_entries}). *)

val truncate : int -> t -> t
(** Keeps the [k] lowest-energy entries. *)

val ground_probability : t -> tol:float -> float
(** Fraction of reads whose energy is within [tol] of the set's lowest
    energy — the per-read success estimate the annealing literature
    reports. [0.] if empty. *)

val pp : Format.formatter -> t -> unit
(** Tabular rendering, best first, capped at 10 rows. *)
