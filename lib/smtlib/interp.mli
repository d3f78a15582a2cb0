(** SMT-LIB script interpreter.

    Executes a command list the way an SMT solver's REPL would:
    declarations build the sort environment, assertions accumulate (and
    are sort-checked on entry), [check-sat] compiles the assertion set
    and runs the annealing solver, [get-model] / [get-value] read the
    model produced by the last [check-sat]. Output is returned as lines
    (what a solver would print to stdout).

    Answer discipline: [sat] is only reported when the decoded model has
    been verified classically against every assertion; an annealer
    failure or an unsupported fragment yields [unknown], never a wrong
    [sat]/[unsat]. *)

type state

type solve_result = [ `Value of Eval.value | `Unsat | `Unknown ]
(** Verdict of a theory backend on one compiled problem. [`Unsat] must
    only be returned when it is a proof (a complete solver refuted the
    cube); heuristic failure is [`Unknown]. *)

type backend = {
  backend_name : string;
  solve_generate : Qsmt_strtheory.Constr.t -> solve_result;
      (** decide a single [Generate]/[Locate] constraint *)
  solve_joint : Qsmt_strtheory.Constr.t list -> solve_result;
      (** decide a conjunction of constraints on one string variable *)
}
(** Theory solver plugged under the boolean (DNF) layer. The default is
    {!annealing_backend}; the CLI injects {!classical_backend} for
    [--sampler classical], and a test or benchmark may plug in its own
    record. *)

val annealing_backend :
  ?sampler:Qsmt_anneal.Sampler.t ->
  ?absint:Qsmt_strtheory.Absint.gate ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  unit ->
  backend
(** QUBO compile + sampler backend. Sampling is incomplete, so sampler
    failure is [`Unknown]; the only [`Unsat] answers are static proofs
    from the pre-encode abstract interpreter ([absint], default [`On] —
    re-run on every query, so [push]/[pop] deltas get fresh verdicts;
    [`Off] restores the never-[`Unsat] behavior). The sampler defaults
    to {!Qsmt_strtheory.Solver.default_sampler} with seed 0. [telemetry]
    is handed to the backend's {!Qsmt_strtheory.Incremental} session, so
    every query emits the {!Qsmt_strtheory.Stage.run} span tree. *)

val classical_backend : unit -> backend
(** CDCL bit-blasting ({!Qsmt_classical.Strsolver.Session}): complete on
    the supported fragment, so its [`Unsat] is a refutation. A
    conjunction the session cannot encode jointly (an [Includes]
    conjunct, a length mismatch) is solved conjunct by conjunct: one
    refuted conjunct refutes it, and a conjunct's model that verifies
    against every conjunct answers it; anything else is [`Unknown]. *)

val create :
  ?sampler:Qsmt_anneal.Sampler.t ->
  ?backend:backend ->
  ?absint:Qsmt_strtheory.Absint.gate ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  unit ->
  state
(** [backend] wins when given; otherwise [annealing_backend ?sampler
    ?absint ~telemetry ()]. The state also uses [telemetry] itself: an
    [smtlib.assertions] counter and one [smtlib.check_sat] span (with an
    [smtlib.verdict] event) per [check-sat]. *)

val exec : state -> Ast.command -> (string list, string) result
(** Output lines of one command. [Error] is a solver-level error
    (redeclaration, sort error, get-model before check-sat, ...), or the
    message of an exception the backend raised during a check-sat. *)

val run_script : state -> Ast.command list -> (string list, string) result
(** Executes until the end or the first [Exit]; concatenates output.
    Stops at the first error. *)

val run_string :
  ?sampler:Qsmt_anneal.Sampler.t ->
  ?backend:backend ->
  ?absint:Qsmt_strtheory.Absint.gate ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  string ->
  (string list, string) result
(** Parse and run a whole script from source text. Optional arguments as
    in {!create}; parsing is additionally bracketed in an [smtlib.parse]
    span. *)

val run_string_partial :
  ?sampler:Qsmt_anneal.Sampler.t ->
  ?backend:backend ->
  ?absint:Qsmt_strtheory.Absint.gate ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  string ->
  string list * string option
(** {!run_string} that keeps the answers already given: the output lines
    of every command run before the end, the first [Exit] or the first
    error, and that error ([None] when there was none; a parse error
    comes with no lines). [qsmt run] prints the lines, then the error. *)

val model : state -> (string * Eval.value) list option
(** Model from the last [check-sat], if it answered [sat]. *)
