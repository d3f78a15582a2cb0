(** Simulated quantum annealing (path-integral Monte Carlo).

    The closest classical simulation of a transverse-field quantum
    annealer — the "real quantum computer" the paper defers to future
    work. The quantum system at inverse temperature β with transverse
    field Γ is mapped by the Suzuki-Trotter decomposition onto [trotter]
    coupled replicas ("slices") of the classical Ising problem:

    - classical couplings act within each slice, scaled by [1/P];
    - spins of the same variable in adjacent slices (periodic) are tied
      by a ferromagnetic coupling
      [J⊥(Γ) = -(1 / (2 β_slice)) · ln tanh(β_slice Γ)], which weakens as
      Γ grows — large Γ lets world lines break up (quantum fluctuation),
      Γ → 0 forces all slices to agree (classical limit).

    The anneal lowers Γ geometrically from [gamma_hot] to [gamma_cold] at
    fixed β. Each sweep applies Metropolis to every (slice, spin) pair,
    then one world-line move per variable (flipping a variable across all
    slices), which decorrelates much faster on the strongly tied late
    phase. The best slice by classical energy is the read's result.

    A read runs on the bit-parallel multi-spin kernel: the slices are
    the lanes of one packed state, local moves advance every slice per
    site in ring-colored passes (adjacent slices are coupled, so they
    never decide simultaneously), and the transverse-field term comes
    from word rotations. The slices must therefore fit one word:
    [trotter] is at most {!Qsmt_qubo.Multispin.max_lanes} (64). *)

type params = {
  reads : int;  (** independent runs (default 16) *)
  sweeps : int;  (** Γ steps per read (default 500) *)
  trotter : int;  (** Trotter slices, 2 ≤ P ≤ 64 (default 8) *)
  beta : float option;
      (** fixed inverse temperature; [None] (default) uses the cold end
          of {!Schedule.default_beta_range} *)
  gamma_hot : float option;
      (** initial transverse field; [None] (default) uses
          [3 × max |coefficient|] (min 1.0) *)
  gamma_cold : float;  (** final transverse field (default 1e-2) *)
  seed : int;
  domains : int;  (** parallel domains for reads (default 1) *)
}

val default : params

val sample :
  ?params:params ->
  ?init:Qsmt_util.Bitvec.t ->
  ?stop:(unit -> bool) ->
  ?on_read:(Qsmt_util.Bitvec.t -> unit) ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  Qsmt_qubo.Qubo.t ->
  Sampleset.t
(** One entry per read: the lowest-classical-energy slice of that read's
    final configuration. Reads run through {!Reads}, which owns the
    [init], [stop] and [on_read] contract and the [sqa.reads] /
    [sqa.read_energy] aggregates; [init] starts every Trotter slice of
    read 0 at the given assignment (a fully coherent world line, the
    reverse-anneal starting condition). [telemetry] also streams
    strided [sqa.sweep] events (read, sweep, Γ, best slice energy,
    replica spread = worst − best world line); the spread is the
    replica-coherence signal that
    distinguishes the quantum-fluctuation phase from the frozen tail.

    @raise Invalid_argument on [reads < 1], [sweeps < 1], [trotter < 2],
    [trotter > ]{!Qsmt_qubo.Multispin.max_lanes}, [gamma_cold <= 0],
    [beta <= 0], [gamma_hot < gamma_cold], or an [init] of the wrong
    length. *)
