(* qsmt — command-line front end for the quantum-annealing string solver.

   Subcommands:
     qsmt run FILE.smt2        execute an SMT-LIB script
     qsmt repl                 interactive incremental session on stdin
     qsmt gen OP ARGS          generate a string for one operation
     qsmt lint OP ARGS         statically analyze an encoding, no sampling
     qsmt analyze OP ARGS      abstract-interpret constraints before encoding
     qsmt matrix OP ARGS       print the QUBO matrix for one operation
     qsmt trace FILE.jsonl     validate a telemetry trace
     qsmt samplers             list available samplers

   `qsmt gen --help` documents the operations. *)

module Constr = Qsmt_strtheory.Constr
module Solver = Qsmt_strtheory.Solver
module Compile = Qsmt_strtheory.Compile
module Params = Qsmt_strtheory.Params
module Lint = Qsmt_strtheory.Lint
module Absint = Qsmt_strtheory.Absint
module Workload = Qsmt_strtheory.Workload
module Analyze = Qsmt_qubo.Analyze
module Qubo = Qsmt_qubo.Qubo
module Qubo_print = Qsmt_qubo.Qubo_print
module Sampler = Qsmt_anneal.Sampler
module Sa = Qsmt_anneal.Sa
module Hardware = Qsmt_anneal.Hardware
module Topology = Qsmt_anneal.Topology
module Sqa = Qsmt_anneal.Sqa
module Tabu = Qsmt_anneal.Tabu
module Greedy = Qsmt_anneal.Greedy
module Portfolio = Qsmt_anneal.Portfolio
module Interp = Qsmt_smtlib.Interp
module Ast = Qsmt_smtlib.Ast
module Parser = Qsmt_smtlib.Parser
module Strsolver = Qsmt_classical.Strsolver
module Smtgen = Qsmt_strtheory.Smtgen
module Qubo_io = Qsmt_qubo.Qubo_io
module Dimacs = Qsmt_classical.Dimacs
module Bitblast = Qsmt_classical.Bitblast
module Telemetry = Qsmt_util.Telemetry
module Json = Qsmt_trace.Json
module Trace = Qsmt_trace.Trace
module Sampleset = Qsmt_anneal.Sampleset
module Metrics = Qsmt_anneal.Metrics

open Cmdliner

(* ------------------------------------------------------------------ *)
(* shared options *)

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed (results are deterministic per seed).")

let reads_arg =
  Arg.(value & opt int 32 & info [ "reads" ] ~docv:"N" ~doc:"Annealing reads (independent runs).")

let sweeps_arg =
  Arg.(value & opt int 1000 & info [ "sweeps" ] ~docv:"N" ~doc:"Metropolis sweeps per read.")

let domains_arg =
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc:"Parallel domains for reads.")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "jobs" ] ~docv:"N"
        ~doc:"Concurrent portfolio members (0 = one per available core). Only meaningful with $(b,--sampler portfolio).")

let budget_arg =
  let positive_float =
    let parse s =
      match float_of_string_opt s with
      | Some b when b > 0. -> Ok b
      | Some _ -> Error (`Msg "budget must be positive")
      | None -> Error (`Msg (s ^ " is not a number"))
    in
    Arg.conv (parse, Format.pp_print_float)
  in
  Arg.(
    value & opt (some positive_float) None
    & info [ "budget" ] ~docv:"SECONDS"
        ~doc:"Per-member wall-clock budget for the portfolio sampler; members exceeding it are cancelled cooperatively.")

let sampler_arg =
  let choices =
    [ ("sa", `Sa); ("sqa", `Sqa); ("tabu", `Tabu); ("greedy", `Greedy); ("exact", `Exact);
      ("hardware", `Hardware); ("portfolio", `Portfolio); ("classical", `Classical) ]
  in
  Arg.(
    value
    & opt (enum choices) `Sa
    & info [ "sampler" ] ~docv:"NAME"
        ~doc:"Solver backend: $(b,sa) (simulated annealing), $(b,sqa) (simulated quantum annealing), $(b,tabu), $(b,greedy), $(b,exact) (exhaustive, small problems), $(b,hardware) (QPU-workflow emulation: minor embedding into $(b,--topology), chain penalties, control noise, adaptive chain strength), $(b,portfolio) (race sa/sqa/pt/tabu/greedy concurrently, first verified read wins), $(b,classical) (CDCL bit-blasting).")

let topology_arg =
  Arg.(
    value
    & opt (enum [ ("chimera", `Chimera); ("king", `King); ("complete", `Complete) ]) `Chimera
    & info [ "topology" ] ~docv:"NAME"
        ~doc:
          "Hardware graph family for $(b,--sampler hardware): $(b,chimera) (D-Wave 2000Q-style \
           C(m,m,4)), $(b,king) (8-neighbor grid, CMOS annealers), $(b,complete) (all-to-all; \
           embedding becomes the identity).")

let topology_size_arg =
  Arg.(
    value & opt int 0
    & info [ "topology-size" ] ~docv:"N"
        ~doc:
          "Grid parameter for $(b,--topology) (chimera m / king side / complete qubit count). 0 \
           (default) grows the smallest grid the problem embeds into.")

let chain_strength_arg =
  Arg.(
    value & opt (some float) None
    & info [ "chain-strength" ] ~docv:"C"
        ~doc:
          "Starting ferromagnetic chain penalty for $(b,--sampler hardware) (default: 2 x the \
           largest |coefficient|). The adaptive loop escalates it geometrically while chains \
           break too often.")

let noise_arg =
  Arg.(
    value & opt float 0.
    & info [ "noise" ] ~docv:"SIGMA"
        ~doc:
          "Gaussian control-noise std-dev on every physical coefficient, relative to the largest \
           |coefficient| ($(b,--sampler hardware) only; default 0 = ideal hardware).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a JSONL telemetry trace of the whole solve pipeline (encode/sample/decode spans, \
           sweep-level sampler events, portfolio lifecycle) to $(docv), one JSON object per line. \
           Validate with $(b,qsmt trace FILE).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print a telemetry summary (span totals, counters, gauges, histograms, \
           time-to-solution) after solving. Works with or without $(b,--trace).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the final metrics snapshot (counters, gauges, histograms with p50/p90/p99 \
           quantiles, span totals) to $(docv) in Prometheus text exposition format. Works with \
           or without $(b,--trace).")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Print a one-line status to stderr every half second while solving (phase, reads, \
           sweeps, best energy so far, pool utilization), read from the telemetry snapshot \
           without perturbing the trace. Interval override: QSMT_PROGRESS_INTERVAL_S.")

(* --param KEY=VALUE, repeatable. Each assignment is validated through
   Params.validate at parse time, so `--param soft=inf` dies as a CLI
   error (exit 124) with the typed message instead of compiling a QUBO
   full of garbage coefficients. *)
let param_arg =
  let assign =
    let parse s =
      match String.index_opt s '=' with
      | None -> Error (`Msg (Printf.sprintf "%s: expected KEY=VALUE (keys: a strong soft b d)" s))
      | Some eq -> begin
        let key = String.sub s 0 eq in
        let v = String.sub s (eq + 1) (String.length s - eq - 1) in
        match float_of_string_opt v with
        | None -> Error (`Msg (Printf.sprintf "%s is not a number" v))
        | Some value -> begin
          let update p =
            match key with
            | "a" -> Some { p with Params.a = value }
            | "strong" -> Some { p with Params.strong_scale = value }
            | "soft" -> Some { p with Params.soft_scale = value }
            | "b" -> Some { p with Params.includes_b = value }
            | "d" -> Some { p with Params.includes_d = value }
            | _ -> None
          in
          match update Params.default with
          | None -> Error (`Msg (Printf.sprintf "unknown parameter %S (keys: a strong soft b d)" key))
          | Some probe -> begin
            match Params.validate probe with
            | Error inv -> Error (`Msg (Params.invalid_message inv))
            | Ok () -> Ok (s, update)
          end
        end
      end
    in
    Arg.conv (parse, fun ppf (s, _) -> Format.pp_print_string ppf s)
  in
  Arg.(
    value & opt_all assign []
    & info [ "param" ] ~docv:"KEY=VALUE"
        ~doc:
          "Override an encoding strength: $(b,a) (base penalty), $(b,strong) (forced-position \
           multiplier), $(b,soft) (soft-bias multiplier), $(b,b) (includes one-hot penalty), \
           $(b,d) (includes first-match increment). Repeatable; values must be finite and \
           positive.")

let params_of_assignments assigns =
  match assigns with
  | [] -> None
  | _ ->
    Some
      (List.fold_left
         (fun p (_, update) -> match update p with Some p -> p | None -> p)
         Params.default assigns)

let lint_level_arg =
  Arg.(
    value
    & opt (enum [ ("off", `Off); ("error", `Error); ("warning", `Warning) ]) `Off
    & info [ "lint-level" ] ~docv:"LEVEL"
        ~doc:
          "Run the static encoding linter between encoding and sampling and refuse to sample \
           when any finding reaches $(docv) ($(b,error) or $(b,warning); default $(b,off)). See \
           $(b,qsmt lint).")

let no_absint_arg =
  Arg.(
    value & flag
    & info [ "no-absint" ]
        ~doc:
          "Disable the pre-encode abstract interpreter: no static verdicts, no statically-forced \
           codec bits clamped out of the anneal — reproduces the unshrunk QUBO pipeline \
           bit-exactly. See $(b,qsmt analyze).")

(* The --metrics summary table: reads the aggregates maintained on the
   handle, so it needs no event stream (aggregate-only handles discard
   it). [tts] rides along from the caller because time-to-solution needs
   the outcome, not just the aggregates. *)
let print_metrics ?tts t =
  let spans = Telemetry.span_totals t in
  if spans <> [] then begin
    Format.printf "metrics   : spans (count, total)@.";
    List.iter
      (fun (name, n, total) -> Format.printf "  %-26s %6d %10.2fms@." name n (1e3 *. total))
      spans
  end;
  let counters = Telemetry.counters t in
  if counters <> [] then begin
    Format.printf "metrics   : counters@.";
    List.iter (fun (name, v) -> Format.printf "  %-26s %6d@." name v) counters
  end;
  let gauges = Telemetry.gauges t in
  if gauges <> [] then begin
    Format.printf "metrics   : gauges@.";
    List.iter (fun (name, v) -> Format.printf "  %-26s %10.4g@." name v) gauges
  end;
  let hists = Telemetry.histograms t in
  if hists <> [] then begin
    Format.printf "metrics   : histograms (count, min, p50, mean, max)@.";
    List.iter
      (fun (name, h) ->
        Format.printf "  %-26s %6d %10.4g %10.4g %10.4g %10.4g@." name h.Telemetry.h_count
          h.Telemetry.h_min h.Telemetry.h_p50 h.Telemetry.h_mean h.Telemetry.h_max)
      hists
  end;
  match tts with
  | None -> ()
  | Some (p_success, time_per_read, tts) ->
    Format.printf "metrics   : time-to-solution@.";
    Format.printf "  p_success                  %10.3f@." p_success;
    Format.printf "  time_per_read              %8.3fms@." (1e3 *. time_per_read);
    Format.printf "  tts(99%%)                   %10s@." (Format.asprintf "%a" Metrics.pp_tts tts)

(* ------------------------------------------------------------------ *)
(* Live progress reporter *)

let progress_interval () =
  match Option.bind (Sys.getenv_opt "QSMT_PROGRESS_INTERVAL_S") float_of_string_opt with
  | Some x when x > 0. -> x
  | _ -> 0.5

(* One status line from a snapshot: current phase (innermost open span),
   reads/sweeps so far (summed over the per-sampler counters), best
   energy seen (min over the *.read_energy histograms — sets are sorted
   so this is the best sampled read), and pool utilization. *)
let progress_line ?(final = false) snap =
  let counter_sum suffix =
    List.fold_left
      (fun acc (name, n) -> if String.ends_with ~suffix name then acc + n else acc)
      0 snap.Telemetry.snap_counters
  in
  let best =
    List.fold_left
      (fun acc (name, h) ->
        if String.ends_with ~suffix:".read_energy" name && h.Telemetry.h_count > 0 then
          Some (match acc with Some b -> Float.min b h.Telemetry.h_min | None -> h.Telemetry.h_min)
        else acc)
      None snap.Telemetry.snap_hists
  in
  let pool = List.assoc_opt "pool.utilization" snap.Telemetry.snap_gauges in
  let phase =
    match snap.Telemetry.snap_phase with
    | Some p -> p
    | None -> if final then "done" else "idle"
  in
  Printf.sprintf "[progress] t=%.1fs phase=%s reads=%d sweeps=%d best=%s pool=%s"
    snap.Telemetry.snap_elapsed_s phase (counter_sum ".reads") (counter_sum ".sweeps")
    (match best with Some e -> Printf.sprintf "%g" e | None -> "-")
    (match pool with Some u -> Printf.sprintf "%.2f" u | None -> "-")

(* The reporter runs on its own domain and only ever reads snapshots
   (one lock acquisition each), so it observes the solve without
   perturbing the trace: no events, no counters, no PRNG draws. A final
   line is always printed so short solves still report. *)
let with_progress enabled t f =
  if not enabled then f ()
  else begin
    let stop = Atomic.make false in
    let ticker =
      Domain.spawn (fun () ->
          let interval = progress_interval () in
          let rec loop since =
            if not (Atomic.get stop) then begin
              (* sleep in short slices so stopping never waits a full interval *)
              Unix.sleepf (Float.min 0.05 interval);
              let since = since +. Float.min 0.05 interval in
              if since >= interval then begin
                prerr_endline (progress_line (Telemetry.snapshot t));
                loop 0.
              end
              else loop since
            end
          in
          loop 0.)
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join ticker;
        prerr_endline (progress_line ~final:true (Telemetry.snapshot t)))
      f
  end

(* Threads a telemetry handle matching --trace/--metrics/--metrics-out/
   --progress through [f]: JSONL writer when tracing (flushed with
   counter/gauge/histogram summaries on the way out), aggregate-only
   when any of the other switches need live aggregates, {!Telemetry.null}
   otherwise. [tts_of] derives the summary's TTS row from the handle and
   f's result. *)
let with_telemetry ~trace ~metrics ?(metrics_out = None) ?(progress = false) ?tts_of f =
  let summarize t r =
    if metrics then
      print_metrics ?tts:(match tts_of with None -> None | Some g -> g t r) t;
    (match metrics_out with
    | Some path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Trace.expose (Telemetry.snapshot t)))
    | None -> ());
    r
  in
  let f t = with_progress progress t (fun () -> f t) in
  match trace with
  | Some path -> Telemetry.with_jsonl path (fun t -> summarize t (f t))
  | None when metrics || metrics_out <> None || progress ->
    let t = Telemetry.aggregate_only () in
    summarize t (f t)
  | None -> f Telemetry.null

(* The sampler every solving command takes, from its 11 flags. [None]
   is [--sampler classical]: CDCL bit-blasting is a different solver
   family, not a sampler, and an earlier revision silently handed such
   requests to [Sampler.exact]. *)
let sampler_term =
  let build kind seed reads sweeps domains jobs budget topology topology_size
      chain_strength noise =
    let sa = { Sa.default with Sa.seed; reads; sweeps; domains } in
    match kind with
    | `Classical -> None
    | `Sa -> Some (Sampler.simulated_annealing ~params:sa ())
    | `Sqa ->
      Some
        (Sampler.simulated_quantum_annealing
           ~params:{ Sqa.default with Sqa.seed; sweeps = max 1 (sweeps / 2); reads; domains }
           ())
    | `Tabu ->
      Some
        (Sampler.tabu
           ~params:{ Tabu.default with Tabu.seed; restarts = reads; iterations = sweeps; domains }
           ())
    | `Greedy -> Some (Sampler.greedy ~params:{ Greedy.seed; restarts = reads; domains } ())
    | `Exact -> Some (Sampler.exact ())
    | `Hardware ->
      (* Parameters are derived per problem: auto-sizing needs the
         compiled QUBO, which only exists once the constraint is
         encoded. *)
      Some
        (Sampler.hardware_auto (fun q ->
             let topology =
               if topology_size > 0 then
                 match topology with
                 | `Chimera -> Topology.chimera ~m:topology_size ()
                 | `King -> Topology.king ~rows:topology_size ~cols:topology_size
                 | `Complete -> Topology.complete topology_size
               else Hardware.auto_topology ~seed ~kind:topology q
             in
             { (Hardware.default_params topology) with
               Hardware.chain_strength;
               noise_sigma = noise;
               anneal = sa }))
    | `Portfolio ->
      Some
        (Portfolio.sampler
           ~params:{ Portfolio.members = Portfolio.default_members ~seed; jobs; budget }
           ())
  in
  Term.(
    const build $ sampler_arg $ seed_arg $ reads_arg $ sweeps_arg $ domains_arg $ jobs_arg
    $ budget_arg $ topology_arg $ topology_size_arg $ chain_strength_arg $ noise_arg)

(* ------------------------------------------------------------------ *)
(* operation parsing for `gen` and `matrix` *)

let constraint_of_op op args =
  let int s = match int_of_string_opt s with Some n -> Ok n | None -> Error (`Msg (s ^ " is not an integer")) in
  let char s = if String.length s = 1 then Ok s.[0] else Error (`Msg (s ^ " is not a single character")) in
  let ( let* ) = Result.bind in
  match (op, args) with
  | "equals", [ s ] -> Ok (Constr.Equals s)
  | "concat", parts when parts <> [] -> Ok (Constr.Concat parts)
  | "contains", [ len; sub ] ->
    let* length = int len in
    Ok (Constr.Contains { length; substring = sub })
  | "includes", [ haystack; needle ] -> Ok (Constr.Includes { haystack; needle; first = false })
  | "indexof", [ len; sub; idx ] ->
    let* length = int len in
    let* index = int idx in
    Ok (Constr.Index_of { length; substring = sub; index; first = false })
  | "length", [ chars; target ] ->
    let* num_chars = int chars in
    let* target_length = int target in
    Ok (Constr.Has_length { num_chars; target_length })
  | "replace-all", [ src; f; r ] ->
    let* find = char f in
    let* replace = char r in
    Ok (Constr.Replace_all { source = src; find; replace })
  | "replace", [ src; f; r ] ->
    let* find = char f in
    let* replace = char r in
    Ok (Constr.Replace_first { source = src; find; replace })
  | "reverse", [ s ] -> Ok (Constr.Reverse s)
  | "palindrome", [ len ] ->
    let* length = int len in
    Ok (Constr.Palindrome { length })
  | "regex", [ pattern; len ] ->
    let* length = int len in
    let* pattern =
      match Qsmt_regex.Parser.parse pattern with
      | Ok p -> Ok p
      | Error e -> Error (`Msg ("bad regex: " ^ e))
    in
    Ok (Constr.Regex { pattern; length })
  | _ ->
    Error
      (`Msg
        (Printf.sprintf
           "unknown operation %S or wrong arguments. Operations: equals S | concat S... | \
            contains LEN SUB | includes HAY NEEDLE | indexof LEN SUB IDX | length CHARS TARGET \
            | replace-all SRC C D | replace SRC C D | reverse S | palindrome LEN | regex PAT LEN"
           op))

let op_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"OP" ~doc:"Operation name.")
let op_args = Arg.(value & pos_right 0 string [] & info [] ~docv:"ARGS" ~doc:"Operation arguments.")

(* ------------------------------------------------------------------ *)
(* gen *)

(* TTS row of the --metrics summary, consistent with
   [Metrics.time_to_solution]: p_success is the fraction of reads at or
   below the verified sample's energy (0 when nothing verified, printing
   "n/a"), time_per_read the [sample] span's wall time split across
   reads. *)
let gen_tts telemetry outcome =
  let reads = Sampleset.total_reads outcome.Solver.samples in
  let sample_s =
    match List.find_opt (fun (name, _, _) -> name = "sample") (Telemetry.span_totals telemetry) with
    | Some (_, _, total) -> total
    | None -> 0.
  in
  if reads = 0 || sample_s <= 0. then None
  else begin
    let time_per_read = sample_s /. float_of_int reads in
    let p_success =
      if outcome.Solver.satisfied then
        Metrics.success_probability outcome.Solver.samples
          ~ground_energy:outcome.Solver.energy ()
      else 0.
    in
    Some (p_success, time_per_read, Metrics.time_to_solution ~time_per_read ~p_success ())
  end

(* One-line summary of a static verdict for the gen/analyze outputs. *)
let absint_summary ppf (a : Absint.analysis) =
  let verdict =
    match a.Absint.verdict with
    | Absint.V_sat _ -> "sat"
    | Absint.V_unsat why -> "unsat (" ^ why ^ ")"
    | Absint.V_undecided -> "undecided"
  in
  Format.fprintf ppf "%s — %d iteration(s), %d fact(s), %d/%d position(s) fixed" verdict
    a.Absint.iterations a.Absint.facts (Absint.num_fixed_positions a) a.Absint.length

let gen_action op args sampler show_matrix param_assigns lint_level no_absint trace metrics
    metrics_out =
  let params = params_of_assignments param_assigns in
  match constraint_of_op op args with
  | Error (`Msg m) ->
    prerr_endline ("qsmt: " ^ m);
    2
  | Ok constr -> begin
    match Constr.validate constr with
    | Error m ->
      prerr_endline ("qsmt: invalid constraint: " ^ m);
      2
    | Ok () ->
      Format.printf "constraint: %s@." (Constr.describe constr);
      match sampler with
      | None ->
        let o = Strsolver.solve constr in
        (match o.Strsolver.result with
        | `Sat ->
          (match o.Strsolver.value with
          | Some v -> Format.printf "result    : %a (%s)@." Constr.pp_value v
                        (if o.Strsolver.satisfied then "verified" else "NOT verified")
          | None -> ());
          Format.printf "cdcl      : %a@." Qsmt_classical.Cdcl.pp_stats o.Strsolver.sat_stats
        | `Unsat -> Format.printf "result    : unsat@."
        | `Unknown -> Format.printf "result    : unknown (budget)@.");
        if o.Strsolver.satisfied || o.Strsolver.result = `Unsat then 0 else 1
      | Some sampler ->
        let absint = if no_absint then `Off else `On in
        let result =
          with_telemetry ~trace ~metrics ~metrics_out
            ~tts_of:(fun telemetry -> function Ok o -> gen_tts telemetry o | Error _ -> None)
            (fun telemetry ->
              match
                Solver.solve ?params ~sampler ~lint:lint_level ~absint ~telemetry constr
              with
              | exception Lint.Rejected (_, findings) -> Error (`Lint findings)
              (* a sampler refusing its input (the exact solver's size cap,
                 [reads < 1]): reported as [run] reports it *)
              | exception (Invalid_argument m | Failure m) -> Error (`Msg m)
              | outcome -> begin
                match outcome.Solver.decided with
                | Some a ->
                  (* Statically decided: no QUBO was built, no sampler ran —
                     the qubo/hardware lines would be placeholders, so
                     print the analysis instead. *)
                  Format.printf "absint    : %a@." absint_summary a;
                  (match a.Absint.verdict with
                  | Absint.V_sat _ ->
                    Format.printf "result    : %a (verified, decided statically)@."
                      Constr.pp_value outcome.Solver.value
                  | Absint.V_unsat _ | Absint.V_undecided ->
                    Format.printf "result    : unsat (proved statically)@.");
                  Ok outcome
                | None ->
                  if show_matrix then
                    Format.printf "matrix    :@.%a@."
                      (fun ppf q -> Qubo_print.pp_dense ~max_dim:14 ppf q)
                      outcome.Solver.qubo;
                  Format.printf "qubo      : %a@." Qubo.pp outcome.Solver.qubo;
                  Format.printf "result    : %a (energy %g, %s)@." Constr.pp_value
                    outcome.Solver.value outcome.Solver.energy
                    (if outcome.Solver.satisfied then "verified" else "NOT satisfied");
                  (match outcome.Solver.hardware with
                  | Some stats -> Format.printf "hardware  : %a@." Hardware.pp_stats stats
                  | None -> ());
                  Ok outcome
              end)
        in
        match result with
        | Error (`Lint findings) ->
          Format.eprintf "qsmt: lint gate rejected the encoding (%d error(s), %d warning(s)):@."
            (Analyze.count_severity findings Analyze.Error)
            (Analyze.count_severity findings Analyze.Warning);
          List.iter (fun f -> Format.eprintf "  %a@." Analyze.pp_finding f) findings;
          1
        | Error (`Msg m) ->
          prerr_endline ("qsmt: " ^ m);
          2
        | Ok outcome -> if outcome.Solver.satisfied then 0 else 1
  end

let gen_cmd =
  let show_matrix =
    Arg.(value & flag & info [ "matrix" ] ~doc:"Also print the (abbreviated) QUBO matrix.")
  in
  let term =
    Term.(
      const gen_action $ op_arg $ op_args $ sampler_term $ show_matrix $ param_arg
      $ lint_level_arg $ no_absint_arg $ trace_arg $ metrics_arg $ metrics_out_arg)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a string (or position) satisfying one operation."
       ~man:
         [
           `S Manpage.s_examples;
           `P "qsmt gen reverse hello";
           `P "qsmt gen palindrome 6 --sampler sqa";
           `P "qsmt gen regex 'a[bc]+' 5 --seed 3 --matrix";
           `P "qsmt gen includes 'hello world' world --sampler classical";
         ])
    term

(* ------------------------------------------------------------------ *)
(* lint *)

let json_int n = Json.Num (float_of_int n)

(* One finding of the [--json] lines of lint and analyze. *)
let finding_to_json (f : Analyze.finding) =
  let location =
    match f.location with
    | Analyze.Global -> [ ("kind", Json.Str "global") ]
    | Analyze.Var i -> [ ("kind", Json.Str "var"); ("i", json_int i) ]
    | Analyze.Coupler (i, j) -> [ ("kind", Json.Str "coupler"); ("i", json_int i); ("j", json_int j) ]
  in
  Json.Obj
    [
      ("severity", Json.Str (Analyze.severity_name f.severity));
      ("check", Json.Str f.check);
      ("location", Json.Obj location);
      ("message", Json.Str f.message);
    ]

module Smt_parser = Qsmt_smtlib.Parser
module Smt_typecheck = Qsmt_smtlib.Typecheck
module Smt_ast = Qsmt_smtlib.Ast
module Smt_compile = Qsmt_smtlib.Compile

(* The six Table 1 constraints — the paper's evaluation set, and the
   regression corpus `qsmt lint --table1` gates in CI. *)
let table1_constraints () =
  let pattern =
    match Qsmt_regex.Parser.parse "a[bc]+" with Ok p -> p | Error _ -> assert false
  in
  [
    Constr.Reverse "hello";
    Constr.Palindrome { length = 6 };
    Constr.Regex { pattern; length = 5 };
    Constr.Concat [ "hello"; " "; "world" ];
    Constr.Index_of { length = 6; substring = "hi"; index = 2; first = false };
    Constr.Includes { haystack = "hello world"; needle = "world"; first = false };
  ]

(* Solve units of an SMT-LIB script: the conjunct list the assertion
   compiler would hand to the annealer at each check-sat (assumptions
   included), under the push/pop scope the interpreter gives it. A
   script without check-sat reads as if it ended in one.
   Trivial/classically-solved problems compile no QUBO, so there is
   nothing to lint or analyze. *)
let units_of_script source =
  let ( let* ) = Result.bind in
  let* cmds = Smt_parser.parse_script source in
  (* a scope is (env, assertions newest first), as in the interpreter *)
  let* scope, _, queries =
    List.fold_left
      (fun acc cmd ->
        let* ((env, asserts) as scope), stack, queries = acc in
        match cmd with
        | Smt_ast.Declare_const (name, sort) ->
          let* env = Smt_typecheck.declare env name sort in
          Ok ((env, asserts), stack, queries)
        | Smt_ast.Assert t -> Ok ((env, t :: asserts), stack, queries)
        | Smt_ast.Push n -> Ok (scope, List.init n (fun _ -> scope) @ stack, queries)
        | Smt_ast.Pop n -> begin
          match List.filteri (fun i _ -> i >= n) (scope :: stack) with
          | scope :: stack -> Ok (scope, stack, queries)
          | [] -> Error "pop without matching push"
        end
        | Smt_ast.Check_sat -> Ok (scope, stack, scope :: queries)
        | Smt_ast.Check_sat_assuming ts ->
          Ok (scope, stack, (env, List.rev_append (List.rev ts) asserts) :: queries)
        | _ -> acc)
      (Ok ((Smt_typecheck.empty_env, []), [], []))
      cmds
  in
  let queries = match queries with [] -> [ scope ] | qs -> List.rev qs in
  List.fold_left
    (fun acc (env, asserts) ->
      let* units = acc in
      let* problem = Smt_compile.compile env (List.rev asserts) in
      match problem with
      | Smt_compile.Trivial _ | Smt_compile.Solved _ -> Ok units
      | Smt_compile.Generate { var; constr } | Smt_compile.Locate { var; constr } ->
        Ok (units @ [ (var, [ constr ]) ])
      | Smt_compile.Generate_joint { var; conjuncts } -> Ok (units @ [ (var, conjuncts) ]))
    (Ok []) queries

(* The targets of lint and analyze, from exactly one of an operation,
   --table1, --smt2 FILE or --workload N: conjunctions, each with the
   variable it constrains when it comes from a script. *)
let resolve_targets ~verb op args table1 smt2 workload ~seed =
  match (op, table1, smt2, workload) with
  | Some op, false, None, 0 -> begin
    match constraint_of_op op args with
    | Error (`Msg m) -> Error m
    | Ok c -> begin
      match Constr.validate c with
      | Error m -> Error ("invalid constraint: " ^ m)
      | Ok () -> Ok [ (None, [ c ]) ]
    end
  end
  | None, true, None, 0 -> Ok (List.map (fun c -> (None, [ c ])) (table1_constraints ()))
  | None, false, Some path, 0 -> begin
    let source =
      if path = "-" then In_channel.input_all In_channel.stdin
      else In_channel.with_open_text path In_channel.input_all
    in
    match units_of_script source with
    | Error m -> Error (path ^ ": " ^ m)
    | Ok units -> Ok (List.map (fun (var, cs) -> (Some var, cs)) units)
  end
  | None, false, None, n when n > 0 ->
    Ok (List.map (fun c -> (None, [ c ])) (Workload.suite ~seed ~max_length:6 ~count:n ()))
  | None, false, None, 0 ->
    Error
      (Printf.sprintf "nothing to %s: give an operation, --table1, --smt2 FILE, or --workload N"
         verb)
  | _ -> Error "choose exactly one of: an operation, --table1, --smt2 FILE, --workload N"

let target_label (var, cs) =
  let text = String.concat " /\\ " (List.map Constr.describe cs) in
  match var with Some var -> Printf.sprintf "%s: %s" var text | None -> text

(* The exit status of lint and analyze: 1 when any finding reaches the
   --fail-on severity, else 0. *)
let fail_on_status fail_on findings =
  let threshold =
    match fail_on with
    | `Never -> max_int
    | `Warning -> Analyze.severity_rank Analyze.Warning
    | `Error -> Analyze.severity_rank Analyze.Error
  in
  if List.exists (fun f -> Analyze.severity_rank f.Analyze.severity >= threshold) findings then 1
  else 0

(* The six arguments lint and analyze share: the four target arguments,
   which resolve to [resolve_targets] awaiting the workload seed, then
   --fail-on and --json. [verb] and the [doc] texts keep each command's
   help its own. *)
let targets_term ~verb ~smt2_doc =
  let cap = String.capitalize_ascii verb in
  let op =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"OP" ~doc:"Operation name (as in $(b,qsmt gen)).")
  in
  let table1 =
    Arg.(value & flag & info [ "table1" ] ~doc:(cap ^ " the paper's six Table 1 constraints."))
  in
  let smt2 = Arg.(value & opt (some string) None & info [ "smt2" ] ~docv:"FILE" ~doc:smt2_doc) in
  let workload =
    Arg.(
      value & opt int 0
      & info [ "workload" ] ~docv:"N"
          ~doc:(cap ^ " $(docv) seeded random constraints from the workload generator."))
  in
  Term.(const (resolve_targets ~verb) $ op $ op_args $ table1 $ smt2 $ workload)

let fail_on_arg ~doc =
  Arg.(
    value
    & opt (enum [ ("error", `Error); ("warning", `Warning); ("never", `Never) ]) `Error
    & info [ "fail-on" ] ~docv:"SEVERITY"
        ~doc:
          ("Exit 1 when any finding reaches $(docv) ($(b,error), $(b,warning), or $(b,never); \
            default $(b,error))." ^ doc))

let json_arg ~doc = Arg.(value & flag & info [ "json" ] ~doc)

(* Deterministic single-site damage for the mutation-detection tests:
   does the linter notice? `zero-penalty` deletes the first diagonal
   penalty (an unconstrained bit where the oracle expects a forced one);
   `flip-coupler` negates the first coupler (rewards what the encoding
   meant to punish). Iteration is CSR-ascending, so the damaged site is
   stable across runs. *)
let apply_mutation kind q =
  match kind with
  | `None -> q
  | (`Zero_penalty | `Flip_coupler) as kind ->
    let b = Qubo.builder () in
    Qubo.set_offset b (Qubo.offset q);
    let mutated = ref false in
    Qubo.iter_linear q (fun i v ->
        if kind = `Zero_penalty && not !mutated then mutated := true
        else Qubo.set b i i v);
    Qubo.iter_quadratic q (fun i j v ->
        if kind = `Flip_coupler && not !mutated then begin
          mutated := true;
          Qubo.set b i j (-.v)
        end
        else Qubo.set b i j v);
    Qubo.freeze ~num_vars:(Qubo.num_vars q) b

let lint_action targets fail_on json chain topology topology_size chain_strength seed max_enum
    no_soundness mutate param_assigns trace metrics =
  let params = params_of_assignments param_assigns in
  (* The linter inspects each compiled QUBO on its own, so it flattens
     the units, each distinct constraint once; the abstract interpreter
     keeps them whole — "length 2 /\ contains ab /\ contains ba" is
     only refutable jointly. *)
  let targets =
    Result.map
      (fun units ->
        List.concat_map (fun (var, cs) -> List.map (fun c -> (var, c)) cs) units
        |> List.fold_left (fun seen t -> if List.mem t seen then seen else t :: seen) []
        |> List.rev_map (fun (var, c) -> (target_label (var, [ c ]), c)))
      (targets ~seed)
  in
  match targets with
  | Error m ->
    prerr_endline ("qsmt: " ^ m);
    2
  | Ok targets ->
    let config =
      {
        Lint.analyze = { Analyze.default_config with Analyze.max_enum_vars = max_enum };
        soundness = not no_soundness;
        chain =
          (if chain then
             Some (Lint.chain_spec ~size:topology_size ?strength:chain_strength ~seed topology)
           else None);
      }
    in
    let reported = ref [] in
    with_telemetry ~trace ~metrics (fun telemetry ->
        List.iter
          (fun (name, constr) ->
            let q, overwrites =
              Qubo.with_overwrite_log (fun () -> Compile.to_qubo ?params constr)
            in
            let q = apply_mutation mutate q in
            let findings = Lint.lint_compiled ~config ~overwrites ~telemetry constr q in
            reported := findings @ !reported;
            let errors = Analyze.count_severity findings Analyze.Error in
            let warnings = Analyze.count_severity findings Analyze.Warning in
            let infos = Analyze.count_severity findings Analyze.Info in
            if json then
              Format.printf "%s@."
                (Json.to_string
                   (Json.Obj
                      [
                        ("target", Json.Str name);
                        ("errors", json_int errors);
                        ("warnings", json_int warnings);
                        ("infos", json_int infos);
                        ("findings", Json.List (List.map finding_to_json findings));
                      ]))
            else begin
              Format.printf "==> %s@." name;
              List.iter (fun f -> Format.printf "  %a@." Analyze.pp_finding f) findings;
              if findings = [] then Format.printf "  clean@."
              else Format.printf "  %d error(s), %d warning(s), %d info(s)@." errors warnings infos
            end)
          targets);
    fail_on_status fail_on !reported

let lint_cmd =
  let targets =
    targets_term ~verb:"lint"
      ~smt2_doc:"Lint every annealer constraint an SMT-LIB script compiles to ($(b,-) for stdin)."
  in
  let fail_on = fail_on_arg ~doc:"" in
  let json =
    json_arg ~doc:"Machine-readable output: one JSON object per linted constraint, findings inline."
  in
  let chain =
    Arg.(
      value & flag
      & info [ "chain" ]
          ~doc:
            "Also check hardware-embedding adequacy: embed into $(b,--topology) (auto-sized \
             unless $(b,--topology-size) is given) and judge $(b,--chain-strength) against the \
             recommended default and the max-local-field no-break bound.")
  in
  let max_enum =
    Arg.(
      value & opt int Analyze.default_config.Analyze.max_enum_vars
      & info [ "max-enum" ] ~docv:"N"
          ~doc:
            "Exhaustive-soundness budget: enumerate the reduced residual only when it keeps at \
             most $(docv) free variables (hard cap 24).")
  in
  let no_soundness =
    Arg.(
      value & flag
      & info [ "no-soundness" ] ~doc:"Skip the exhaustive ground-set-vs-oracle check.")
  in
  let mutate =
    Arg.(
      value
      & opt (enum [ ("none", `None); ("zero-penalty", `Zero_penalty); ("flip-coupler", `Flip_coupler) ]) `None
      & info [ "mutate" ] ~docv:"KIND"
          ~doc:
            "Damage the compiled QUBO before linting ($(b,zero-penalty): drop the first diagonal \
             penalty; $(b,flip-coupler): negate the first coupler) — demonstrates and tests that \
             the linter catches the broken encoding.")
  in
  let term =
    Term.(
      const lint_action $ targets $ fail_on $ json $ chain
      $ topology_arg $ topology_size_arg $ chain_strength_arg $ seed_arg $ max_enum
      $ no_soundness $ mutate $ param_arg $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyze QUBO encodings: soundness, penalty gaps, precision, structure."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Compiles the constraint and analyzes the frozen QUBO without ever sampling: \
              exhaustive ground-set soundness against the classical verifier (when the \
              preprocessed residual is small enough to enumerate), penalty-gap and \
              shallow-excitation margins, dynamic-range and non-dyadic precision, dead \
              variables, overwrite collisions, disconnected components, and (with $(b,--chain)) \
              embedding and chain-strength adequacy.";
           `P
             "ERROR findings mean sampling cannot return a trustworthy answer; WARNING means \
              fragile on hardware; INFO is structure worth knowing. Exit status: 0 clean (below \
              $(b,--fail-on)), 1 findings at or above $(b,--fail-on), 2 usage errors.";
           `S Manpage.s_examples;
           `P "qsmt lint reverse hello";
           `P "qsmt lint --table1 --json";
           `P "qsmt lint includes 'hello world' world --mutate flip-coupler";
           `P "qsmt lint palindrome 4 --chain --topology king --chain-strength 0.5";
         ])
    term

(* ------------------------------------------------------------------ *)
(* analyze *)

let analysis_to_json name (a : Absint.analysis) findings =
  let errors = Analyze.count_severity findings Analyze.Error in
  let warnings = Analyze.count_severity findings Analyze.Warning in
  let infos = Analyze.count_severity findings Analyze.Info in
  let verdict, value =
    match a.Absint.verdict with
    | Absint.V_sat v -> ("sat", Format.asprintf "%a" Constr.pp_value v)
    | Absint.V_unsat why -> ("unsat", why)
    | Absint.V_undecided -> ("undecided", "")
  in
  Json.to_string
    (Json.Obj
       [
         ("target", Json.Str name);
         ("verdict", Json.Str verdict);
         ("value", Json.Str value);
         ("length", json_int a.Absint.length);
         ("iterations", json_int a.Absint.iterations);
         ("facts", json_int a.Absint.facts);
         ("positions_fixed", json_int (Absint.num_fixed_positions a));
         ("bits_forced", json_int (List.length (Absint.forced_bits a)));
         ("widened", Json.Bool a.Absint.widened);
         ("errors", json_int errors);
         ("warnings", json_int warnings);
         ("infos", json_int infos);
         ("findings", Json.List (List.map finding_to_json findings));
       ])

let analyze_action targets fail_on json max_iters seed trace metrics metrics_out =
  match targets ~seed with
  | Error m ->
    prerr_endline ("qsmt: " ^ m);
    2
  | Ok targets ->
    let reported = ref [] in
    let failed = ref false in
    with_telemetry ~trace ~metrics ~metrics_out (fun telemetry ->
        List.iter
          (fun ((_, cs) as target) ->
            let name = target_label target in
            match Absint.analyze ~max_iters cs with
            | Error m ->
              failed := true;
              Format.eprintf "qsmt: %s: not analyzable (%s)@." name m
            | Ok a ->
              Absint.emit telemetry a;
              let findings = Absint.findings a in
              reported := findings @ !reported;
              if json then print_endline (analysis_to_json name a findings)
              else begin
                Format.printf "==> %s@." name;
                Format.printf "  %a@." Absint.pp a;
                List.iter (fun f -> Format.printf "  %a@." Analyze.pp_finding f) findings
              end)
          targets);
    if !failed then 2 else fail_on_status fail_on !reported

let analyze_cmd =
  let targets =
    targets_term ~verb:"analyze"
      ~smt2_doc:
        "Analyze every solve unit of an SMT-LIB script as one conjunction ($(b,-) for stdin)."
  in
  let fail_on = fail_on_arg ~doc:" A static contradiction is an $(b,error) finding." in
  let json =
    json_arg
      ~doc:
        "Machine-readable output: one JSON object per analyzed conjunction — verdict, fixpoint \
         stats, forced-bit counts, findings inline."
  in
  let max_iters =
    Arg.(
      value & opt int Absint.default_max_iters
      & info [ "max-iters" ] ~docv:"N"
          ~doc:
            "Widening cap on fixpoint iterations; analyses stopped by the cap keep their (sound) \
             partial domains and report a $(b,absint-widened) finding.")
  in
  let term =
    Term.(
      const analyze_action $ targets $ fail_on $ json $ max_iters $ seed_arg $ trace_arg
      $ metrics_arg $ metrics_out_arg)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Abstract-interpret constraints before encoding: prove, decide, or shrink statically."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the pre-encode abstract interpreter over each target conjunction: \
              per-position character-set domains seeded from literals and operation structure, \
              refined by DFA-based regex reachability and substring-placement feasibility, \
              closed under palindrome congruence, iterated to a fixpoint. No QUBO is built and \
              no sampler runs.";
           `P
             "An empty domain proves the conjunction unsatisfiable ($(b,unsat) verdict, an ERROR \
              finding); all-singleton domains name the unique candidate, which the classical \
              verifier grades ($(b,sat) verdict). Undecided conjunctions report how many codec \
              bits the solver will clamp out of the anneal ($(b,absint-shrink)). Exit status: 0 \
              clean (below $(b,--fail-on)), 1 findings at or above $(b,--fail-on), 2 usage \
              errors.";
           `S Manpage.s_examples;
           `P "qsmt analyze reverse hello";
           `P "qsmt analyze --table1 --json";
           `P "qsmt analyze --smt2 problem.smt2 --fail-on error";
           `P "qsmt analyze regex 'a[bc]+' 5";
         ])
    term

(* ------------------------------------------------------------------ *)
(* matrix *)

let matrix_action op args full =
  match constraint_of_op op args with
  | Error (`Msg m) ->
    prerr_endline ("qsmt: " ^ m);
    2
  | Ok constr -> begin
    match Constr.validate constr with
    | Error m ->
      prerr_endline ("qsmt: invalid constraint: " ^ m);
      2
    | Ok () ->
      let q = Compile.to_qubo constr in
      Format.printf "%s@.%a@.%a@." (Constr.describe constr) Qubo.pp q
        (fun ppf q ->
          if full then Qubo_print.pp_sparse ppf q else Qubo_print.pp_dense ~max_dim:14 ppf q)
        q;
      0
  end

let matrix_cmd =
  let full = Arg.(value & flag & info [ "sparse" ] ~doc:"Print every entry (sparse listing) instead of the dense block.") in
  Cmd.v
    (Cmd.info "matrix" ~doc:"Print the QUBO encoding of one operation (Table 1 style).")
    Term.(const matrix_action $ op_arg $ op_args $ full)

(* ------------------------------------------------------------------ *)
(* run *)

let run_action path sampler no_absint trace metrics metrics_out progress =
  let source =
    if path = "-" then In_channel.input_all In_channel.stdin
    else In_channel.with_open_text path In_channel.input_all
  in
  let absint = if no_absint then `Off else `On in
  let lines, error =
    with_telemetry ~trace ~metrics ~metrics_out ~progress (fun telemetry ->
        match sampler with
        | None -> Interp.run_string_partial ~backend:(Interp.classical_backend ()) ~telemetry source
        | Some sampler -> Interp.run_string_partial ~sampler ~absint ~telemetry source)
  in
  (* the answers given before a failing command stay printed *)
  List.iter print_endline lines;
  match error with
  | None -> 0
  | Some msg ->
    prerr_endline ("qsmt: " ^ msg);
    2

let run_cmd =
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"SMT-LIB script ($(b,-) for stdin).")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute an SMT-LIB script (QF_S generative fragment).")
    Term.(
      const run_action $ path $ sampler_term $ no_absint_arg $ trace_arg $ metrics_arg
      $ metrics_out_arg $ progress_arg)

(* ------------------------------------------------------------------ *)
(* repl *)

(* Incremental REPL: reads s-expressions from stdin one top-level form
   at a time (so push/pop/check-sat interleave with their output), keeps
   one interpreter state — and therefore one incremental solver session
   with its encode cache, warm starts and learned clauses — across
   commands, and recovers from errors instead of aborting the way
   `qsmt run` does. *)
let repl_session sampler no_absint telemetry =
  let st =
    match sampler with
    | None -> Interp.create ~backend:(Interp.classical_backend ()) ~telemetry ()
    | Some sampler ->
      Interp.create ~sampler ~absint:(if no_absint then `Off else `On) ~telemetry ()
  in
  let stop = ref None in
  let exec_chunk chunk =
    (* the span [Interp.run_string] opens around its parse *)
    match Telemetry.with_span telemetry "smtlib.parse" (fun _ -> Parser.parse_script chunk) with
    | Error msg -> Printf.printf "(error %S)\n" msg
    | Ok cmds ->
      List.iter
        (fun cmd ->
          if !stop = None then begin
            match Interp.exec st cmd with
            | Ok lines ->
              List.iter print_endline lines;
              if cmd = Ast.Exit then stop := Some 0
            | Error msg -> Printf.printf "(error %S)\n" msg
          end)
        cmds
  in
  (* Quote-aware paren balancing: a chunk is complete when the paren
     depth returns to 0. SMT-LIB strings escape quotes by doubling, so a
     bare toggle on '"' tracks in-string correctly for counting; ';'
     comments run to end of line. The chunk text itself goes to the real
     parser — this scanner only finds the boundaries. *)
  let buf = Buffer.create 256 in
  let depth = ref 0 and in_string = ref false and in_comment = ref false in
  let feed c =
    let keep () = if !depth > 0 || Buffer.length buf > 0 then Buffer.add_char buf c in
    if !in_comment then begin
      if c = '\n' then in_comment := false;
      keep ()
    end
    else if !in_string then begin
      if c = '"' then in_string := false;
      Buffer.add_char buf c
    end
    else begin
      match c with
      | ';' ->
        in_comment := true;
        keep ()
      | '"' ->
        in_string := true;
        Buffer.add_char buf c
      | '(' ->
        incr depth;
        Buffer.add_char buf c
      | ')' ->
        decr depth;
        Buffer.add_char buf c;
        if !depth <= 0 then begin
          let chunk = Buffer.contents buf in
          Buffer.clear buf;
          depth := 0;
          exec_chunk chunk;
          flush stdout
        end
      | ' ' | '\t' | '\r' | '\n' -> keep ()
      | _ -> Buffer.add_char buf c
    end
  in
  let rec pump () =
    if !stop = None then begin
      match In_channel.input_line In_channel.stdin with
      | None -> ()
      | Some line ->
        String.iter feed line;
        feed '\n';
        pump ()
    end
  in
  pump ();
  match !stop with
  | Some code -> code
  | None ->
    if !depth = 0 && (not !in_string) && String.trim (Buffer.contents buf) = "" then 0
    else begin
      prerr_endline "qsmt: unbalanced input at end of stream";
      2
    end

let repl_action sampler no_absint trace metrics =
  with_telemetry ~trace ~metrics (repl_session sampler no_absint)

let repl_cmd =
  Cmd.v
    (Cmd.info "repl"
       ~doc:
         "Interactive SMT-LIB session on stdin. One incremental solver session persists across \
          commands, so push/pop re-checks reuse cached encodings, warm-start the anneal from the \
          previous model (or retain learned clauses with $(b,--sampler classical)); errors are \
          reported as $(b,(error ...)) and the session continues."
       ~man:
         [
           `S Manpage.s_examples;
           `P "qsmt repl < session.smt2";
           `P
             "printf '(declare-const x String)(assert (str.palindrome x))(assert (= (str.len x) \
              4))(check-sat)(get-model)(exit)' | qsmt repl";
         ])
    Term.(const repl_action $ sampler_term $ no_absint_arg $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* export *)

let export_action op args format =
  match constraint_of_op op args with
  | Error (`Msg m) ->
    prerr_endline ("qsmt: " ^ m);
    2
  | Ok constr -> begin
    match format with
    | `Qubo -> begin
      match Constr.validate constr with
      | Error m ->
        prerr_endline ("qsmt: invalid constraint: " ^ m);
        2
      | Ok () ->
        print_string (Qubo_io.to_string (Compile.to_qubo constr));
        0
    end
    | `Dimacs ->
      print_string (Dimacs.to_string (Bitblast.encode constr));
      0
    | `Smt2 -> begin
      match Smtgen.script constr with
      | Ok text ->
        print_string text;
        0
      | Error m ->
        prerr_endline ("qsmt: " ^ m);
        2
    end
  end

let export_cmd =
  let format =
    Arg.(
      value
      & opt (enum [ ("qubo", `Qubo); ("dimacs", `Dimacs); ("smt2", `Smt2) ]) `Qubo
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: $(b,qubo) (COO text of the annealing encoding), $(b,dimacs) (CNF of \
             the classical bit-blasting), $(b,smt2) (a runnable SMT-LIB script).")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Export one operation's encoding (QUBO / DIMACS CNF / SMT-LIB script) to stdout."
       ~man:
         [
           `S Manpage.s_examples;
           `P "qsmt export palindrome 4 --format qubo";
           `P "qsmt export contains 4 cat --format dimacs | minisat /dev/stdin";
           `P "qsmt export regex 'a[bc]+' 5 --format smt2 | z3 -in";
         ])
    Term.(const export_action $ op_arg $ op_args $ format)

(* ------------------------------------------------------------------ *)
(* trace *)

let trace_action path chrome =
  match In_channel.with_open_text path Trace.validate with
  | Ok n -> begin
    Format.printf "%s: %d events, well-formed JSONL, monotone timestamps, balanced spans@." path n;
    match chrome with
    | None -> 0
    | Some dst -> begin
      match
        In_channel.with_open_text path (fun ic ->
            Out_channel.with_open_text dst (Trace.to_chrome ic))
      with
      | Ok events ->
        Format.printf "%s: %d trace events (Chrome trace-event format)@." dst events;
        0
      | Error msg ->
        prerr_endline ("qsmt: chrome export failed: " ^ msg);
        2
    end
  end
  | Error msg ->
    prerr_endline ("qsmt: invalid trace: " ^ msg);
    2

let trace_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"JSONL trace written by $(b,--trace).")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"OUT"
          ~doc:
            "After validating, also convert the trace to Chrome trace-event JSON at $(docv) — \
             loadable in Perfetto (ui.perfetto.dev) or chrome://tracing; spans become nested \
             slices, overlapping spans (portfolio members) get their own lanes.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Validate a telemetry trace: every line a JSON object with an event name and timestamp, \
          timestamps non-decreasing, span begin/end stream balanced and properly nested. Exits 0 \
          and prints the event count on success."
       ~man:
         [
           `S Manpage.s_examples;
           `P "qsmt gen reverse hello --trace t.jsonl && qsmt trace t.jsonl";
           `P "qsmt trace t.jsonl --chrome t.chrome.json";
         ])
    Term.(const trace_action $ path $ chrome)

(* ------------------------------------------------------------------ *)
(* metrics *)

let metrics_action path =
  match In_channel.with_open_text path Trace.replay with
  | Ok snap ->
    print_string (Trace.expose snap);
    0
  | Error msg ->
    prerr_endline ("qsmt: invalid trace: " ^ msg);
    2

let metrics_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"JSONL trace written by $(b,--trace).")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Replay a JSONL telemetry trace and print its metrics (counters, gauges, histograms \
          with p50/p90/p99 quantiles, span totals) in Prometheus text exposition format — the \
          same dump $(b,--metrics-out) writes live."
       ~man:
         [
           `S Manpage.s_examples;
           `P "qsmt gen reverse hello --trace t.jsonl && qsmt metrics t.jsonl";
         ])
    Term.(const metrics_action $ path)

(* ------------------------------------------------------------------ *)
(* samplers *)

let samplers_action () =
  print_endline "sa         simulated annealing (D-Wave neal equivalent; the paper's solver)";
  print_endline "sqa        simulated quantum annealing (path-integral Monte Carlo)";
  print_endline "tabu       tabu search";
  print_endline "greedy     steepest-descent with restarts";
  print_endline "exact      exhaustive ground-state search (<= 30 variables)";
  print_endline
    "hardware   QPU-workflow emulation: minor embedding, chain penalties, control noise";
  print_endline "portfolio  race sa/sqa/pt/tabu/greedy concurrently; first verified read wins";
  print_endline "classical  CDCL SAT solver over bit-blasted constraints (complete)";
  0

let samplers_cmd =
  Cmd.v (Cmd.info "samplers" ~doc:"List available solver backends.") Term.(const samplers_action $ const ())

let main_cmd =
  Cmd.group
    (Cmd.info "qsmt" ~version:"1.0.0"
       ~doc:"Quantum-annealing SMT solver for the theory of strings (QUBO formulations).")
    [
      run_cmd;
      repl_cmd;
      gen_cmd;
      lint_cmd;
      analyze_cmd;
      matrix_cmd;
      export_cmd;
      trace_cmd;
      metrics_cmd;
      samplers_cmd;
    ]

(* A file that cannot be read or written (a script, a trace, a
   --metrics-out dump) is an input error, reported once for every
   command; any other escaping exception is a bug and keeps Cmdliner's
   internal-error exit. *)
let () =
  exit
    (match Cmd.eval' ~catch:false main_cmd with
    | code -> code
    | exception Sys_error msg ->
      prerr_endline ("qsmt: " ^ msg);
      2
    | exception e ->
      let backtrace = Printexc.get_backtrace () in
      Printf.eprintf "qsmt: internal error, uncaught exception:\n  %s\n%s%!" (Printexc.to_string e)
        backtrace;
      Cmd.Exit.internal_error)
