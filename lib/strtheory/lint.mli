(** Static encoding linter — the constraint-aware half of the gate.

    {!Qsmt_qubo.Analyze} checks what a matrix alone can reveal; this
    module adds the paper's semantics. For every compiled constraint it
    can decide — post-{!Qsmt_qubo.Preprocess} residual small enough to
    enumerate — it verifies the central soundness contract statically:
    the QUBO's ground-state set must decode (via {!Compile.decode})
    exactly onto assignments the classical oracle ({!Constr.verify})
    accepts. On top of that it measures the penalty gap separating
    satisfying from violating assignments, flags shallow soft-bias
    excitations (the known non-dyadic [soft_scale = 0.1] indexOf
    wobble), and — given a hardware topology — judges chain-strength
    adequacy against {!Qsmt_anneal.Chain.default_strength} and the
    max-local-field bound, all without ever running a sampler.

    Severity semantics:
    - [Error] — the encoding is unsound (a ground state decodes to a
      violating value, a coefficient is non-finite, the problem does not
      embed): sampling cannot return a trustworthy answer.
    - [Warning] — the encoding is fragile (gap below threshold, chain
      strength below the recommended default, dynamic range beyond
      analog precision): correct under ideal conditions, at risk on
      hardware.
    - [Info] — structure worth knowing (dead variables, overwrite
      collisions, preprocessing headroom, skipped enumeration).

    [qsmt lint] surfaces these on the command line; {!Solver} can run
    them as a pre-sample gate. *)

type finding = Qsmt_qubo.Analyze.finding
type severity = Qsmt_qubo.Analyze.severity

(** {1 Configuration} *)

type chain_spec = {
  kind : Qsmt_anneal.Hardware.topology_kind;
  size : int;
      (** grid parameter (chimera m / king side / complete qubit count);
          [0] auto-sizes via {!Qsmt_anneal.Hardware.auto_topology} *)
  strength : float option;
      (** chain strength under test; [None] uses
          {!Qsmt_anneal.Chain.default_strength} of the logical problem *)
  embed_seed : int;
  embed_tries : int;
}

val chain_spec : ?size:int -> ?strength:float -> ?seed:int -> ?tries:int ->
  Qsmt_anneal.Hardware.topology_kind -> chain_spec
(** Defaults: [size 0] (auto), [strength None], [seed 0], [tries 16]. *)

type config = {
  analyze : Qsmt_qubo.Analyze.config;
  soundness : bool;
      (** run the exhaustive ground-set-vs-oracle check (default true) *)
  chain : chain_spec option;  (** chain-strength adequacy (default off) *)
}

val default_config : config

(** {1 Linting} *)

val lint_compiled :
  ?config:config ->
  ?overwrites:Qsmt_qubo.Qubo.overwrite list ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  Constr.t ->
  Qsmt_qubo.Qubo.t ->
  finding list
(** Lints a constraint together with an already-compiled (possibly
    mutated — that is the point of taking both) QUBO: structural checks,
    then soundness / gap / shallow-excitation against the oracle, then
    chain adequacy when configured. Findings are ordered
    most-severe-first, stable within a severity. [telemetry] bumps one
    [lint.<severity>] counter per finding plus [lint.check.<tag>]
    counters. A variable-count mismatch between constraint and QUBO is
    itself an [Error] finding (and skips the oracle checks). *)

val lint :
  ?config:config ->
  ?params:Params.t ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  Constr.t ->
  finding list
(** Compiles the constraint (recording builder overwrite collisions via
    {!Qsmt_qubo.Qubo.with_overwrite_log}) and runs {!lint_compiled}.
    @raise Invalid_argument if the constraint fails {!Constr.validate}. *)

(** {1 Pre-sample gate} *)

type gate = [ `Off | `Error | `Warning ]
(** Reject threshold: [`Warning] rejects on warnings {e or} errors. *)

exception Rejected of Constr.t * finding list
(** Raised by the gate; carries every finding (not only the triggering
    ones) so callers can print the full report. *)

val gate_check :
  ?telemetry:Qsmt_util.Telemetry.t ->
  gate:gate ->
  Constr.t ->
  Qsmt_qubo.Qubo.t ->
  unit
(** No-op at [`Off]; otherwise runs {!lint_compiled} with
    {!default_config} and raises
    {!Rejected} when any finding reaches the gate severity. Bumps a
    [lint.rejected] counter on rejection. *)
