(* Benchmark and reproduction harness.

   Regenerates every table and figure of the paper's evaluation, then
   the extension experiments DESIGN.md commits to, then Bechamel micro
   timings (one Test.make per table/figure). Everything is seeded, so
   the output is reproducible run to run.

     dune exec bench/main.exe              full run
     QSMT_BENCH_FAST=1 dune exec ...       reduced sizes (CI smoke run)

   Sections:
     [Table 1]  the paper's six sample constraints: encoding, matrix,
                solver output, classical verification
     [Figure 1] pipeline stage trace (inputs -> vars -> QUBO -> anneal
                -> decode), with wall-clock per stage
     [Ext-1]    scaling: success probability and time vs string length
     [Ext-2]    sampler ablation (SA / SQA / tabu / greedy / exact) and
                encoding ablations (overwrite-vs-sum, class width)
     [Ext-3]    classical baselines: CDCL bit-blasting and brute force
     [Ext-4]    hardware model: chain strength (EXPERIMENTS Ext-11's
                sweep and adaptive row) and control noise
     [Ext-5]    joint (merged-QUBO) conjunctions vs the paper's pipelines
     [Ext-6]    QUBO preprocessing (Lewis-Glover fixing, paper ref [37])
     [Ext-7]    time-to-solution, convergence, frustrated spin glasses
     [Ext-8]    random-workload throughput, annealer vs CDCL
     [Ext-9]    portfolio racing (concurrent samplers, early exit) vs the
                sequential sampler sweep; batched multi-constraint solving
     [Timing]   Bechamel micro-benchmarks *)

module Bitvec = Qsmt_util.Bitvec
module Ascii7 = Qsmt_util.Ascii7
module Stats = Qsmt_util.Stats
module Qubo = Qsmt_qubo.Qubo
module Qubo_print = Qsmt_qubo.Qubo_print
module Sampleset = Qsmt_anneal.Sampleset
module Sampler = Qsmt_anneal.Sampler
module Sa = Qsmt_anneal.Sa
module Sqa = Qsmt_anneal.Sqa
module Tabu = Qsmt_anneal.Tabu
module Greedy = Qsmt_anneal.Greedy
module Exact = Qsmt_anneal.Exact
module Pt = Qsmt_anneal.Pt
module Portfolio = Qsmt_anneal.Portfolio
module Metrics = Qsmt_anneal.Metrics
module Spinglass = Qsmt_anneal.Spinglass
module Convergence = Qsmt_anneal.Convergence
module Topology = Qsmt_anneal.Topology
module Hardware = Qsmt_anneal.Hardware
module Constr = Qsmt_strtheory.Constr
module Params = Qsmt_strtheory.Params
module Compile = Qsmt_strtheory.Compile
module Solver = Qsmt_strtheory.Solver
module Pipeline = Qsmt_strtheory.Pipeline
module Semantics = Qsmt_strtheory.Semantics
module Op_substring = Qsmt_strtheory.Op_substring
module Op_regex = Qsmt_strtheory.Op_regex
module Joint = Qsmt_strtheory.Joint
module Preprocess = Qsmt_qubo.Preprocess
module Qgraph = Qsmt_qubo.Qgraph
module Encode = Qsmt_strtheory.Encode
module Strsolver = Qsmt_classical.Strsolver
module Workload = Qsmt_strtheory.Workload
module Brute = Qsmt_classical.Brute
module Rparser = Qsmt_regex.Parser
module Telemetry = Qsmt_util.Telemetry

let fast = Sys.getenv_opt "QSMT_BENCH_FAST" <> None

(* QSMT_BENCH_TRACE=path streams the instrumented section (Ext-7)
   through the same JSONL sink the CLI's --trace uses, so bench
   traces and CLI traces are byte-compatible and `qsmt trace` validates
   both. Unset: the null handle, which costs one pointer compare. *)
let trace_path = Sys.getenv_opt "QSMT_BENCH_TRACE"

let telemetry, close_trace =
  match trace_path with
  | None -> (Telemetry.null, fun () -> ())
  | Some path ->
    let oc = open_out path in
    let t = Telemetry.jsonl oc in
    ( t,
      fun () ->
        Telemetry.flush t;
        close_out oc )
let reads = if fast then 8 else 32
let sweeps = if fast then 200 else 1000
(* Monotonic (never steps backwards with wall-clock adjustments). *)
let now = Qsmt_util.Mclock.now

let header title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

let subheader title = Format.printf "@.-- %s --@." title

let show_string s = String.map Ascii7.clamp_printable s

let pp_val ppf = function
  | Constr.Str s -> Format.fprintf ppf "%S" (show_string s)
  | Constr.Pos (Some i) -> Format.fprintf ppf "position %d" i
  | Constr.Pos None -> Format.fprintf ppf "no position"

let sa_sampler ~seed =
  Sampler.simulated_annealing ~params:{ Sa.default with Sa.seed; reads; sweeps } ()

(* Fraction of reads whose decode verifies the constraint. *)
let success_fraction constr samples =
  let total = ref 0 and good = ref 0 in
  List.iter
    (fun e ->
      total := !total + e.Sampleset.occurrences;
      if Constr.verify constr (Compile.decode constr e.Sampleset.bits) then
        good := !good + e.Sampleset.occurrences)
    (Sampleset.entries samples);
  if !total = 0 then 0. else float_of_int !good /. float_of_int !total

let time_it f =
  let t0 = now () in
  let result = f () in
  (result, now () -. t0)

(* Wall-clock plus GC-pressure columns: minor words allocated and major
   collections forced while [f] ran. [Gc.quick_stat] is domain-local on
   OCaml 5, so for multi-domain sections the numbers are the
   coordinating domain's share — a pressure signal, not a full ledger. *)
let time_gc_it f =
  let g0 = Gc.quick_stat () in
  let result, dt = time_it f in
  let g1 = Gc.quick_stat () in
  ( result,
    dt,
    g1.Gc.minor_words -. g0.Gc.minor_words,
    g1.Gc.major_collections - g0.Gc.major_collections )

(* ================================================================== *)
(* Table 1 *)

type table1_row = {
  label : string;
  run : int -> Constr.value * bool * Qubo.t; (* seed -> output, verified, last-stage qubo *)
  expected : string option; (* classically forced result, if any *)
  paper_output : string;
}

let run_single constr seed =
  let outcome = Solver.solve ~sampler:(sa_sampler ~seed) constr in
  (outcome.Solver.value, outcome.Solver.satisfied, outcome.Solver.qubo)

let run_pipeline pipeline seed =
  (* Benchmark pipelines are all string-valued, so a positional block is
     a bug worth failing loudly on, not a case to report. *)
  let outcomes =
    match Solver.solve_pipeline ~sampler:(sa_sampler ~seed) pipeline with
    | Ok outcomes -> outcomes
    | Error { Solver.stage_index; _ } ->
      failwith (Printf.sprintf "pipeline blocked on a positional decode at stage %d" stage_index)
  in
  let all_ok = List.for_all (fun o -> o.Solver.satisfied) outcomes in
  match List.rev outcomes with
  | last :: _ -> (last.Solver.value, all_ok, last.Solver.qubo)
  | [] -> assert false

let table1_rows =
  [
    {
      label = "Reverse 'hello' and replace 'e' with 'a'";
      run =
        run_pipeline
          { Pipeline.initial = Constr.Reverse "hello";
            Pipeline.stages = [ Pipeline.Replace_all { find = 'e'; replace = 'a' } ] };
      expected = Some "ollah";
      paper_output = "ollah";
    };
    {
      label = "Generate a palindrome with length 6";
      run = run_single (Constr.Palindrome { length = 6 });
      expected = None;
      paper_output = "OnFFnO (any palindrome)";
    };
    {
      label = "Generate the regex a[bc]+ with length 5";
      run = run_single (Constr.Regex { pattern = Rparser.parse_exn "a[bc]+"; length = 5 });
      expected = None;
      paper_output = "abcbb (any match)";
    };
    {
      label = "Concatenate 'hello' and 'world', and replace all 'l' with 'x'";
      run =
        run_pipeline
          { Pipeline.initial = Constr.Concat [ "hello"; " "; "world" ];
            Pipeline.stages = [ Pipeline.Replace_all { find = 'l'; replace = 'x' } ] };
      expected = Some "hexxo worxd";
      paper_output = "hexxo worxd";
    };
    {
      label = "Generate a string of length 6 that contains the substring 'hi' at index 2";
      run = run_single (Constr.Index_of { length = 6; substring = "hi"; index = 2; first = false });
      expected = None;
      paper_output = "qphiqp (hi forced at 2, rest free)";
    };
    {
      label = "Find the position of 'world' within 'hello world' (string includes)";
      run = run_single (Constr.Includes { haystack = "hello world"; needle = "world" });
      expected = Some "position 6";
      paper_output = "(operation from Sec. 4.4)";
    };
  ]

let table1 () =
  header "Table 1: sample string constraints (paper's evaluation)";
  List.iteri
    (fun i row ->
      let (value, ok, qubo), dt = time_it (fun () -> row.run 1) in
      Format.printf "@.row %d: %s@." (i + 1) row.label;
      Format.printf "  matrix (abbreviated):@.";
      Format.printf "    %s@."
        (String.concat "\n    "
           (String.split_on_char '\n' (Qubo_print.dense_string ~max_dim:6 qubo)));
      Format.printf "  paper output : %s@." row.paper_output;
      Format.printf "  our output   : %a  [%s, %.0f ms]@." pp_val value
        (if ok then "verified" else "NOT SATISFIED")
        (1e3 *. dt);
      match row.expected with
      | Some want ->
        let got =
          match value with Constr.Str s -> show_string s | _ -> Format.asprintf "%a" pp_val value
        in
        Format.printf "  deterministic check: expected %S, got %S -> %s@." want got
          (if want = got then "MATCH" else "MISMATCH")
      | None -> ())
    table1_rows

(* ================================================================== *)
(* Figure 1 *)

let figure1 () =
  header "Figure 1: approach pipeline (inputs -> binary vars -> QUBO -> annealer -> decode)";
  let cases =
    [
      Constr.Reverse "hello";
      Constr.Palindrome { length = 6 };
      Constr.Regex { pattern = Rparser.parse_exn "a[bc]+"; length = 5 };
      Constr.Includes { haystack = "hello world"; needle = "world" };
    ]
  in
  Format.printf "%-55s %6s %10s %10s %10s %9s %6s  %s@." "constraint" "vars" "encode" "anneal"
    "decode" "alloc" "majgc" "output";
  List.iter
    (fun constr ->
      (* Each solve gets its own aggregate handle, whose span totals are
         the stage times; the alloc column includes its bookkeeping. *)
      let stages = Telemetry.aggregate_only () in
      let outcome, _, minor_words, major_gcs =
        time_gc_it (fun () ->
            Solver.solve ~sampler:(sa_sampler ~seed:1) ~telemetry:stages constr)
      in
      let span_s name =
        match List.find_opt (fun (n, _, _) -> n = name) (Telemetry.span_totals stages) with
        | Some (_, _, total) -> total
        | None -> 0.
      in
      Format.printf "%-55s %6d %8.1fus %8.1fms %8.1fus %7.1fMw %6d  %a@."
        (Constr.describe constr)
        (Qubo.num_vars outcome.Solver.qubo)
        (1e6 *. span_s "encode")
        (1e3 *. span_s "sample")
        (1e6 *. span_s "decode")
        (minor_words /. 1e6) major_gcs pp_val outcome.Solver.value)
    cases

(* ================================================================== *)
(* Ext-1: scaling *)

let ext1 () =
  header "Ext-1: scaling with string length (success probability per read, time per solve)";
  let lengths = if fast then [ 2; 4; 8 ] else [ 2; 4; 6; 8; 12; 16 ] in
  let make_cases n =
    [
      ("equality", Constr.Equals (String.init n (fun i -> Char.chr (97 + (i mod 26)))));
      ("palindrome", Constr.Palindrome { length = n });
      ("regex a[bc]+", Constr.Regex { pattern = Rparser.parse_exn "a[bc]+"; length = n });
    ]
  in
  Format.printf "%-14s %4s %6s %14s %10s@." "constraint" "len" "vars" "success/read" "time";
  List.iter
    (fun n ->
      List.iter
        (fun (name, constr) ->
          match Constr.validate constr with
          | Error _ -> ()
          | Ok () ->
            let qubo = Compile.to_qubo constr in
            let samples, dt =
              time_it (fun () ->
                  Sa.sample ~params:{ Sa.default with Sa.seed = n; reads; sweeps } qubo)
            in
            Format.printf "%-14s %4d %6d %13.0f%% %8.1fms@." name n (Qubo.num_vars qubo)
              (100. *. success_fraction constr samples)
              (1e3 *. dt))
        (make_cases n))
    lengths

(* ================================================================== *)
(* Ext-2: sampler ablation + encoding ablations *)

let ext2_samplers () =
  subheader "Ext-2a: sampler ablation (same constraints, same seed)";
  let suite =
    [
      Constr.Equals "quantum";
      Constr.Palindrome { length = 8 };
      Constr.Regex { pattern = Rparser.parse_exn "a[bc]+"; length = 8 };
      Constr.Includes { haystack = "abcabcabcabc"; needle = "cab" };
    ]
  in
  let samplers =
    [
      ("sa", Sampler.simulated_annealing ~params:{ Sa.default with Sa.seed = 3; reads; sweeps } ());
      ( "sqa",
        Sampler.simulated_quantum_annealing
          ~params:
            { Sqa.default with
              Sqa.seed = 3;
              reads = max 4 (reads / 2);
              sweeps = max 100 (sweeps / 2)
            }
          () );
      ( "pt",
        Sampler.parallel_tempering
          ~params:{ Pt.default with Pt.seed = 3; reads = max 4 (reads / 4); sweeps = max 100 (sweeps / 2) } () );
      ( "tabu",
        Sampler.tabu
          ~params:{ Tabu.default with Tabu.seed = 3; restarts = reads; iterations = sweeps }
          () );
      ("greedy", Sampler.greedy ~params:{ Greedy.restarts = reads; seed = 3; domains = 1 } ());
    ]
  in
  Format.printf "%-50s %-8s %10s %9s %10s@." "constraint" "sampler" "bestE" "success" "time";
  List.iter
    (fun constr ->
      List.iter
        (fun (name, sampler) ->
          (* absint off: the ablation compares samplers on one QUBO, and a
             static answer has no reads to compare *)
          let outcome, dt = time_it (fun () -> Solver.solve ~sampler ~absint:`Off constr) in
          Format.printf "%-50s %-8s %10.2f %8.0f%% %8.1fms@." (Constr.describe constr) name
            (Sampleset.lowest_energy outcome.Solver.samples)
            (100. *. success_fraction constr outcome.Solver.samples)
            (1e3 *. dt))
        samplers;
      (* exact oracle where the problem is small enough *)
      if Constr.num_vars constr <= Exact.max_vars then begin
        let qubo = Compile.to_qubo constr in
        let (_, ground), dt = time_it (fun () -> Exact.ground_states qubo) in
        Format.printf "%-50s %-8s %10.2f %9s %8.1fms@." "" "exact" ground "-" (1e3 *. dt)
      end)
    suite

let ext2_overwrite_vs_sum () =
  subheader "Ext-2b: substring matching, paper overwrite vs additive (Sum) encoding";
  let lengths = if fast then [ 4; 6 ] else [ 4; 6; 8; 10 ] in
  Format.printf "%4s  %-10s %14s %14s@." "len" "substring" "overwrite" "sum";
  List.iter
    (fun length ->
      let substring = "cat" in
      let constr = Constr.Contains { length; substring } in
      let frac combine =
        let qubo = Op_substring.encode ~combine ~length ~substring () in
        let samples = Sa.sample ~params:{ Sa.default with Sa.seed = length; reads; sweeps } qubo in
        success_fraction constr samples
      in
      Format.printf "%4d  %-10s %13.0f%% %13.0f%%@." length substring
        (100. *. frac Encode.Overwrite)
        (100. *. frac Encode.Sum))
    lengths

let ext2_class_width () =
  subheader "Ext-2c: regex class width vs shared-preference encoding fidelity (Sec 4.11)";
  let classes = [ "[bc]"; "[b-e]"; "[b-i]"; "[b-q]"; "[b-z]" ] in
  Format.printf "%-8s %6s %22s@." "class" "|cls|" "reads decoding to member";
  List.iter
    (fun cls ->
      let pattern = Rparser.parse_exn ("a" ^ cls ^ "+") in
      let length = 6 in
      let constr = Constr.Regex { pattern; length } in
      let qubo = Op_regex.encode_exn ~pattern ~length () in
      let samples = Sa.sample ~params:{ Sa.default with Sa.seed = 9; reads; sweeps } qubo in
      let width =
        match Qsmt_regex.Unroll.to_position_sets pattern ~len:length with
        | Ok sets -> Qsmt_regex.Charset.cardinal sets.(1)
        | Error _ -> 0
      in
      Format.printf "%-8s %6d %21.0f%%@." cls width (100. *. success_fraction constr samples))
    classes

(* ================================================================== *)
(* Ext-3: classical baselines *)

let ext3 () =
  header "Ext-3: annealer vs classical baselines (CDCL bit-blast, brute force)";
  let lengths = if fast then [ 2; 4 ] else [ 2; 3; 4; 6; 8 ] in
  Format.printf "%-28s %12s %12s %12s@." "constraint" "SA" "CDCL" "brute(a-z)";
  let lowercase = List.init 26 (fun i -> Char.chr (97 + i)) in
  List.iter
    (fun n ->
      let target = String.init n (fun i -> Char.chr (97 + ((i * 7) mod 26))) in
      let constr = Constr.Equals target in
      let _, sa_t = time_it (fun () -> Solver.solve ~sampler:(sa_sampler ~seed:n) constr) in
      let _, cdcl_t = time_it (fun () -> Strsolver.solve constr) in
      let brute =
        if n <= 4 then begin
          let r, t =
            time_it (fun () -> Brute.solve ~alphabet:lowercase ~limit:2_000_000 constr)
          in
          match r with Some _ -> Format.asprintf "%8.1fms" (1e3 *. t) | None -> "miss"
        end
        else ">1e6 cands"
      in
      Format.printf "%-28s %10.1fms %10.1fms %12s@."
        (Printf.sprintf "equality len %d" n)
        (1e3 *. sa_t) (1e3 *. cdcl_t) brute)
    lengths;
  subheader "constraints where completeness matters";
  (* CDCL proves unsat; the annealer cannot *)
  let absent = Constr.Includes { haystack = "aaaaaaa"; needle = "xyz" } in
  let o, dt = time_it (fun () -> Strsolver.solve absent) in
  Format.printf "%-46s CDCL: %s in %.1fms (annealer: cannot prove unsat)@."
    (Constr.describe absent)
    (match o.Strsolver.result with `Unsat -> "unsat" | `Sat -> "sat" | `Unknown -> "unknown")
    (1e3 *. dt);
  (* alternation regex outside the QUBO product-form fragment *)
  let alt = Constr.Regex { pattern = Rparser.parse_exn "cat|dog"; length = 3 } in
  let o, dt = time_it (fun () -> Strsolver.solve alt) in
  Format.printf "%-46s CDCL: %s %s in %.1fms (QUBO encoder: unsupported)@."
    (Constr.describe alt)
    (match o.Strsolver.result with `Sat -> "sat" | `Unsat -> "unsat" | `Unknown -> "unknown")
    (match o.Strsolver.value with Some v -> Format.asprintf "%a" pp_val v | None -> "")
    (1e3 *. dt)

(* ================================================================== *)
(* Ext-4: hardware model *)

(* The chain penalty is the one free parameter a QPU submission must get
   right: too weak and chains break (majority-vote garbage), too strong
   and it drowns the logical energy scale (ground-state probability
   collapses). The sweep pins each strength with escalation off, so each
   is measured raw, over the densest Table-1 constraint (Includes: a
   complete interaction graph, hence the longest chains), a denser
   variant and a palindrome, then reports what the adaptive escalation
   loop picks from its default guess. *)
let chain_strength_sweep (name, constr) =
  let qubo = Compile.to_qubo constr in
  let topology = Hardware.auto_topology ~seed:5 ~kind:`Chimera qubo in
  let base =
    { (Hardware.default_params topology) with
      Hardware.embed_tries = 64;
      anneal =
        { Sa.default with
          Sa.seed = 5;
          reads = (if fast then 16 else 64);
          sweeps = (if fast then 300 else 1000)
        }
    }
  in
  Format.printf "@.%s: %s on %s@." name (Constr.describe constr) (Topology.name topology);
  Format.printf "%10s %8s %9s %9s@." "strength" "breaks" "groundP" "verified";
  let measure params =
    let r = Hardware.sample ~params qubo in
    let best = Sampleset.best r.Hardware.samples in
    (r, Constr.verify constr (Compile.decode constr best.Sampleset.bits))
  in
  List.iter
    (fun strength ->
      let r, verified =
        measure { base with Hardware.chain_strength = Some strength; max_escalations = 0 }
      in
      Format.printf "%10.3f %7.1f%% %8.1f%% %9s@." strength
        (100. *. r.Hardware.stats.Hardware.mean_chain_break_fraction)
        (100. *. Sampleset.ground_probability r.Hardware.samples ~tol:1e-9)
        (if verified then "yes" else "no"))
    (if fast then [ 0.25; 1.0; 8.0 ] else [ 0.125; 0.25; 0.5; 1.0; 2.0; 4.0; 8.0; 16.0 ]);
  let s = (fst (measure base)).Hardware.stats in
  Format.printf
    "adaptive: strength %g after %d escalations, breaks %.1f%%%s (%d logical vars, %d qubits, \
     longest chain %d)@."
    s.Hardware.chain_strength s.Hardware.escalations
    (100. *. s.Hardware.mean_chain_break_fraction)
    (if s.Hardware.degraded <> None then " DEGRADED" else "")
    (Qubo.num_vars qubo) s.Hardware.qubits_used s.Hardware.max_chain_length

let ext4 () =
  header "Ext-4: hardware model (minor embedding on Chimera, chains, control noise)";
  subheader "chain strength sweep (noise 0, pinned strength; then the adaptive loop)";
  List.iter chain_strength_sweep
    [
      ("includes-k7", Constr.Includes { haystack = "hello world"; needle = "world" });
      ("includes-k7-dense", Constr.Includes { haystack = "abcabcabc"; needle = "abc" });
      ("palindrome-6", Constr.Palindrome { length = 6 });
    ];
  let constr = Constr.Includes { haystack = "abcabcabc"; needle = "abc" } in
  let qubo = Compile.to_qubo constr in
  let topology = Topology.chimera ~m:3 () in
  subheader "control-noise sweep (auto chain strength)";
  Format.printf "problem: %s (%d logical vars, K%d interactions) on %s@."
    (Constr.describe constr) (Qubo.num_vars qubo) (Qubo.num_vars qubo) (Topology.name topology);
  Format.printf "%8s %10s %12s %10s@." "sigma" "breaks" "groundP" "verified";
  List.iter
    (fun noise_sigma ->
      let params =
        { (Hardware.default_params topology) with
          Hardware.noise_sigma;
          Hardware.embed_tries = 64;
          Hardware.anneal = { Sa.default with Sa.seed = 5; reads; sweeps }
        }
      in
      match Hardware.sample ~params qubo with
      | r ->
        let ok =
          Constr.verify constr
            (Compile.decode constr (Sampleset.best r.Hardware.samples).Sampleset.bits)
        in
        Format.printf "%8.2f %9.1f%% %11.0f%% %10s@." noise_sigma
          (100. *. r.Hardware.stats.Hardware.mean_chain_break_fraction)
          (100. *. Sampleset.ground_probability r.Hardware.samples ~tol:1e-9)
          (if ok then "yes" else "no")
      | exception Hardware.Embedding_failed msg -> Format.printf "embedding failed: %s@." msg)
    (if fast then [ 0.0; 0.1 ] else [ 0.0; 0.02; 0.05; 0.1; 0.2 ])


(* ================================================================== *)
(* Ext-5: joint conjunctions vs what the paper can express *)

let ext5 () =
  header "Ext-5: joint (merged-QUBO) conjunctions — beyond the paper's sequential pipelines";
  let cases =
    [
      ( "palindrome(4) AND 'ab' at 0",
        [
          Constr.Palindrome { length = 4 };
          Constr.Index_of { length = 4; substring = "ab"; index = 0; first = false };
        ] );
      ( "palindrome(6) AND regex [ab]+",
        [
          Constr.Palindrome { length = 6 };
          Constr.Regex { pattern = Rparser.parse_exn "[ab]+"; length = 6 };
        ] );
      ( "regex a[bc]+ AND contains 'cb'",
        [
          Constr.Regex { pattern = Rparser.parse_exn "a[bc]+"; length = 6 };
          Constr.Contains { length = 6; substring = "cb" };
        ] );
      ( "contradiction: = 'ab' AND = 'cd'",
        [ Constr.Equals "ab"; Constr.Equals "cd" ] );
    ]
  in
  Format.printf "%-38s %-12s %9s %10s@." "conjunction" "value" "joint-ok" "time";
  List.iter
    (fun (label, conjuncts) ->
      match time_it (fun () -> Joint.solve ~sampler:(sa_sampler ~seed:4) conjuncts) with
      | Ok o, dt ->
        Format.printf "%-38s %-12s %9s %8.1fms@." label
          (Format.asprintf "%a" pp_val o.Solver.value)
          (if o.Solver.satisfied then "yes" else "NO")
          (1e3 *. dt)
      | Error e, _ -> Format.printf "%-38s error: %s@." label e)
    cases

(* ================================================================== *)
(* Ext-6: QUBO preprocessing (Lewis-Glover variable fixing) *)

let ext6 () =
  header "Ext-6: preprocessing (paper ref [37]) — variables fixed per operation";
  Format.printf "%-50s %6s %7s %10s@." "constraint" "vars" "fixed" "residual";
  List.iter
    (fun constr ->
      let q = Compile.to_qubo constr in
      let t = Preprocess.reduce q in
      Format.printf "%-50s %6d %7d %10d@." (Constr.describe constr) (Qubo.num_vars q)
        (Preprocess.num_fixed t) (Preprocess.num_free t))
    [
      Constr.Equals "hello world";
      Constr.Replace_all { source = "hello"; find = 'l'; replace = 'x' };
      Constr.Contains { length = 6; substring = "cat" };
      Constr.Index_of { length = 6; substring = "hi"; index = 2; first = false };
      Constr.Palindrome { length = 6 };
      Constr.Regex { pattern = Rparser.parse_exn "a[bc]+"; length = 6 };
      Constr.Includes { haystack = "abcabcabc"; needle = "abc" };
    ];
  Format.printf
    "@.(diagonal-only encodings collapse entirely: preprocessing alone solves them;@.\
     \ coupled encodings — palindrome, includes — keep their interaction structure)@."

(* ================================================================== *)
(* Ext-7: time-to-solution, convergence, and frustrated instances *)

let ext7 () =
  header "Ext-7: time-to-solution and convergence";
  subheader "TTS(99%) per sampler on a frustrated planted spin glass (king 4x4, 16 vars)";
  let rng = Qsmt_util.Prng.create 13 in
  let graph = Topology.graph (Topology.king ~rows:4 ~cols:4) in
  let q, _target, ground = Spinglass.planted ~rng ~coupling:Spinglass.Gaussian graph in
  Format.printf "%-8s %10s %10s %12s %14s@." "sampler" "p_succ" "t/read" "TTS(99%)" "residual E";
  List.iter
    (fun sampler ->
      let samples, dt = time_it (fun () -> Sampler.run ~telemetry sampler q) in
      let n_reads = Sampleset.total_reads samples in
      let time_per_read = dt /. float_of_int (max 1 n_reads) in
      let p = Metrics.success_probability samples ~ground_energy:ground () in
      let tts = if p > 0. then Metrics.time_to_solution ~time_per_read ~p_success:p () else None in
      Format.printf "%-8s %9.0f%% %8.2fms %12s %14s@." (Sampler.name sampler) (100. *. p)
        (1e3 *. time_per_read)
        (Format.asprintf "%a" Metrics.pp_tts tts)
        (match Metrics.residual_energy samples ~ground_energy:ground with
        | Some r -> Printf.sprintf "%.3f" r
        | None -> "n/a"))
    (Sampler.default_suite ~seed:21);
  subheader "SA convergence (mean best energy vs sweep) on the same instance";
  let t = Convergence.sa_trajectory ~reads:(max 8 (reads / 2)) ~sweeps:(max 100 (sweeps / 2)) ~seed:2 q in
  Format.printf "%a@." Convergence.pp t;
  (match Convergence.sweeps_to_reach t ~target:ground ~tol:1e-6 () with
  | Some k -> Format.printf "mean trajectory reaches the planted ground after %d sweeps@." k
  | None ->
    Format.printf "mean trajectory does not reach the planted ground (best %.3f vs %.3f)@."
      t.Convergence.final_best ground)


(* ================================================================== *)
(* Ext-8: workload throughput *)

let ext8 () =
  header "Ext-8: random-workload throughput (constraints solved per second, verified)";
  let count = if fast then 10 else 40 in
  let kinds =
    [
      ("equality-ish", [ Workload.K_equals; Workload.K_reverse; Workload.K_replace_all ]);
      ("substring", [ Workload.K_contains; Workload.K_index_of ]);
      ("includes", [ Workload.K_includes ]);
      ("generative", [ Workload.K_palindrome; Workload.K_regex ]);
    ]
  in
  Format.printf "%-14s %8s %10s %12s | %10s %12s@." "kind" "solved" "SA rate" "SA thru"
    "CDCL rate" "CDCL thru";
  List.iter
    (fun (label, ks) ->
      let suite = Workload.suite ~seed:77 ~kinds:ks ~max_length:5 ~count () in
      let sa_ok = ref 0 in
      let _, sa_t =
        time_it (fun () ->
            List.iter
              (fun c ->
                let o = Solver.solve ~sampler:(sa_sampler ~seed:7) c in
                if o.Solver.satisfied then incr sa_ok)
              suite)
      in
      let cdcl_ok = ref 0 in
      let _, cdcl_t =
        time_it (fun () ->
            List.iter
              (fun c ->
                let o = Strsolver.solve c in
                if o.Strsolver.satisfied then incr cdcl_ok)
              suite)
      in
      Format.printf "%-14s %5d/%2d %9.0f%% %10.1f/s | %9.0f%% %10.1f/s@." label !sa_ok count
        (100. *. float_of_int !sa_ok /. float_of_int count)
        (float_of_int count /. sa_t)
        (100. *. float_of_int !cdcl_ok /. float_of_int count)
        (float_of_int count /. cdcl_t))
    kinds

(* ================================================================== *)
(* Ext-9: portfolio racing and batched solving *)

let ext9 () =
  header "Ext-9: portfolio racing vs sequential sampler sweep (Table-1 workload)";
  Format.printf "pool: %d worker domains (+ the caller)@."
    (Qsmt_util.Parallel.Pool.size (Qsmt_util.Parallel.Pool.global ()));
  let workload =
    [
      ("reverse hello", Constr.Reverse "hello");
      ("palindrome 6", Constr.Palindrome { length = 6 });
      ("regex a[bc]+ 5", Constr.Regex { pattern = Rparser.parse_exn "a[bc]+"; length = 5 });
      ("concat hello world", Constr.Concat [ "hello"; " "; "world" ]);
      ("indexof hi@2 len6", Constr.Index_of { length = 6; substring = "hi"; index = 2; first = false });
      ("includes world", Constr.Includes { haystack = "hello world"; needle = "world" });
    ]
  in
  let seed = 5 in
  subheader
    "sequential sweep = every default-suite sampler to completion; portfolio = same members \
     raced concurrently, first verified read cancels the rest";
  Format.printf "%-20s %12s %12s %8s %9s %11s@." "constraint" "sweep" "portfolio" "speedup"
    "winner" "cancelled";
  let total_seq = ref 0. and total_port = ref 0. in
  List.iter
    (fun (label, constr) ->
      let qubo = Compile.to_qubo constr in
      let verify bits = Constr.verify constr (Compile.decode constr bits) in
      let _, seq_t =
        time_it (fun () ->
            List.iter (fun s -> ignore (Sampler.run s qubo)) (Sampler.default_suite ~seed))
      in
      let result, port_t =
        time_it (fun () ->
            Portfolio.run
              ~params:
                { Portfolio.members = Portfolio.default_members ~seed; jobs = 0; budget = Some 30. }
              ~verify qubo)
      in
      let cancelled =
        List.length (List.filter (fun r -> r.Portfolio.cancelled) result.Portfolio.reports)
      in
      total_seq := !total_seq +. seq_t;
      total_port := !total_port +. port_t;
      Format.printf "%-20s %10.1fms %10.1fms %7.1fx %9s %8d/%d@." label (1e3 *. seq_t)
        (1e3 *. port_t)
        (seq_t /. port_t)
        (match result.Portfolio.winner with Some (name, _) -> name | None -> "-")
        cancelled
        (List.length result.Portfolio.reports))
    workload;
  Format.printf "%-20s %10.1fms %10.1fms %7.1fx@." "TOTAL" (1e3 *. !total_seq)
    (1e3 *. !total_port)
    (!total_seq /. !total_port);
  subheader "solve_batch: the same six constraints, one solver call, pooled domains";
  let constrs = List.map snd workload in
  let sampler = sa_sampler ~seed in
  let _, one_by_one_t =
    time_it (fun () -> List.iter (fun c -> ignore (Solver.solve ~sampler c)) constrs)
  in
  let batched, batch_t = time_it (fun () -> Solver.solve_batch ~sampler constrs) in
  List.iter2
    (fun (label, _) outcome ->
      Format.printf "  %-20s %s@." label (if outcome.Solver.satisfied then "ok" else "MISS"))
    workload batched;
  Format.printf "one-by-one %.1fms  batched %.1fms  speedup %.1fx@." (1e3 *. one_by_one_t)
    (1e3 *. batch_t)
    (one_by_one_t /. batch_t)

(* ================================================================== *)
(* Bechamel micro timings *)

let bechamel_section () =
  header "Timing (Bechamel, OLS estimate per solve)";
  let open Bechamel in
  let open Toolkit in
  let quick_params = { Sa.default with Sa.reads = 4; sweeps = 200; seed = 1 } in
  let quick = Sampler.simulated_annealing ~params:quick_params () in
  let solve constr () = ignore (Solver.solve ~sampler:quick constr) in
  let tests =
    [
      (* one per Table 1 row *)
      Test.make ~name:"table1/row1-reverse+replace"
        (Staged.stage (fun () ->
             ignore
               (Solver.solve_pipeline ~sampler:quick
                  { Pipeline.initial = Constr.Reverse "hello";
                    Pipeline.stages = [ Pipeline.Replace_all { find = 'e'; replace = 'a' } ]
                  })));
      Test.make ~name:"table1/row2-palindrome6"
        (Staged.stage (solve (Constr.Palindrome { length = 6 })));
      Test.make ~name:"table1/row3-regex"
        (Staged.stage (solve (Constr.Regex { pattern = Rparser.parse_exn "a[bc]+"; length = 5 })));
      Test.make ~name:"table1/row4-concat+replaceAll"
        (Staged.stage (fun () ->
             ignore
               (Solver.solve_pipeline ~sampler:quick
                  { Pipeline.initial = Constr.Concat [ "hello"; " "; "world" ];
                    Pipeline.stages = [ Pipeline.Replace_all { find = 'l'; replace = 'x' } ]
                  })));
      Test.make ~name:"table1/row5-indexof"
        (Staged.stage (solve (Constr.Index_of { length = 6; substring = "hi"; index = 2; first = false })));
      Test.make ~name:"table1/row6-includes"
        (Staged.stage (solve (Constr.Includes { haystack = "hello world"; needle = "world" })));
      (* figure 1 stages in isolation *)
      Test.make ~name:"fig1/encode-only"
        (Staged.stage (fun () -> ignore (Compile.to_qubo (Constr.Reverse "hello world"))));
      Test.make ~name:"fig1/anneal-only"
        (let qubo = Compile.to_qubo (Constr.Reverse "hello world") in
         Staged.stage (fun () -> ignore (Sa.sample ~params:quick_params qubo)));
      Test.make ~name:"fig1/decode-only"
        (let constr = Constr.Reverse "hello world" in
         let bits = Ascii7.encode "dlrow olleh" in
         Staged.stage (fun () -> ignore (Compile.decode constr bits)));
      (* extensions *)
      Test.make ~name:"ext1/equality-len16"
        (Staged.stage (solve (Constr.Equals "abcdefghijklmnop")));
      Test.make ~name:"ext2/sqa-palindrome6"
        (let qubo = Compile.to_qubo (Constr.Palindrome { length = 6 }) in
         Staged.stage (fun () ->
             ignore (Sqa.sample ~params:{ Sqa.default with Sqa.reads = 2; sweeps = 100 } qubo)));
      Test.make ~name:"ext3/cdcl-contains"
        (Staged.stage (fun () ->
             ignore (Strsolver.solve (Constr.Contains { length = 8; substring = "cat" }))));
      Test.make ~name:"ext4/embed-includes-K5"
        (let qubo = Compile.to_qubo (Constr.Includes { haystack = "abcabca"; needle = "abc" }) in
         let problem = Qsmt_qubo.Qgraph.of_qubo qubo in
         let hardware = Topology.graph (Topology.chimera ~m:2 ()) in
         Staged.stage (fun () ->
             ignore (Qsmt_anneal.Embedding.find ~tries:8 ~problem ~hardware ())));
    ]
  in
  let grouped = Test.make_grouped ~name:"qsmt" tests in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second (if fast then 0.1 else 0.5)) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  let rows = List.sort compare rows in
  Format.printf "%-40s %14s %8s@." "benchmark" "per solve" "r^2";
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some [ est ] ->
        let pretty =
          if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
          else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
          else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
          else Printf.sprintf "%.0f ns" est
        in
        Format.printf "%-40s %14s %8s@." name pretty
          (match Analyze.OLS.r_square r with
          | Some r2 -> Printf.sprintf "%.3f" r2
          | None -> "-")
      | Some _ | None -> Format.printf "%-40s %14s@." name "n/a")
    rows

(* ================================================================== *)

let () =
  let t0 = now () in
  Format.printf "qsmt benchmark harness%s (reads=%d, sweeps=%d, seeds fixed)@."
    (if fast then " [FAST]" else "")
    reads sweeps;
  table1 ();
  figure1 ();
  ext1 ();
  header "Ext-2: encoding and sampler ablations";
  ext2_samplers ();
  ext2_overwrite_vs_sum ();
  ext2_class_width ();
  ext3 ();
  ext4 ();
  ext5 ();
  ext6 ();
  ext7 ();
  ext8 ();
  ext9 ();
  bechamel_section ();
  close_trace ();
  (match trace_path with
  | Some path -> Format.printf "@.telemetry trace written to %s@." path
  | None -> ());
  Format.printf "@.total wall clock: %.1f s@." (now () -. t0)
