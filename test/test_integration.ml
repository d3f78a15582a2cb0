(* Cross-library integration tests: whole-pipeline flows that no single
   suite covers — exported SMT-LIB scripts replayed through the front
   end, random workloads pushed through all three solver families,
   preprocessing composed with sampling, and the hardware model run on
   actual string constraints with chain trimming. *)

module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng
module Qubo = Qsmt_qubo.Qubo
module Qgraph = Qsmt_qubo.Qgraph
module Preprocess = Qsmt_qubo.Preprocess
module Exact = Qsmt_anneal.Exact
module Sa = Qsmt_anneal.Sa
module Sampleset = Qsmt_anneal.Sampleset
module Sampler = Qsmt_anneal.Sampler
module Topology = Qsmt_anneal.Topology
module Embedding = Qsmt_anneal.Embedding
module Chain = Qsmt_anneal.Chain
module Hardware = Qsmt_anneal.Hardware
module Metrics = Qsmt_anneal.Metrics
module Spinglass = Qsmt_anneal.Spinglass
module Constr = Qsmt_strtheory.Constr
module Compile = Qsmt_strtheory.Compile
module Solver = Qsmt_strtheory.Solver
module Pipeline = Qsmt_strtheory.Pipeline
module Workload = Qsmt_strtheory.Workload
module Smtgen = Qsmt_strtheory.Smtgen
module Joint = Qsmt_strtheory.Joint
module Interp = Qsmt_smtlib.Interp
module Parser = Qsmt_smtlib.Parser
module Typecheck = Qsmt_smtlib.Typecheck
module Scompile = Qsmt_smtlib.Compile
module Eval = Qsmt_smtlib.Eval
module Rparser = Qsmt_regex.Parser
module Strsolver = Qsmt_classical.Strsolver
module Brute = Qsmt_classical.Brute

let check = Alcotest.check
let sampler = Solver.default_sampler ~seed:0

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

(* ------------------------------------------------------------------ *)
(* smtgen -> parse -> compile: the exporter must reach the compiler's
   Generate/Locate path, not fall into Unsupported. *)

let compile_script source =
  let commands = ok_exn (Parser.parse_script source) in
  let env, assertions =
    List.fold_left
      (fun (env, asserts) cmd ->
        match cmd with
        | Qsmt_smtlib.Ast.Declare_const (n, s) -> (ok_exn (Typecheck.declare env n s), asserts)
        | Qsmt_smtlib.Ast.Assert t -> (env, t :: asserts)
        | _ -> (env, asserts))
      (Typecheck.empty_env, []) commands
  in
  Scompile.compile env (List.rev assertions)

let test_export_compile_roundtrip () =
  let cases =
    [
      Constr.Equals "hi";
      Constr.Contains { length = 4; substring = "cat" };
      Constr.Includes { haystack = "xxcat"; needle = "cat" };
      (* the export renders str.indexof, so the round trip is exact for
         the first-occurrence form *)
      Constr.Index_of { length = 5; substring = "hi"; index = 1; first = true };
      Constr.Palindrome { length = 4 };
      Constr.Regex { pattern = Qsmt_regex.Parser.parse_exn "a[bc]+"; length = 4 };
    ]
  in
  List.iter
    (fun c ->
      let script = ok_exn (Smtgen.script c) in
      let regex_equal p1 p2 =
        Qsmt_regex.Minimize.equivalent (Qsmt_regex.Dfa.of_syntax p1) (Qsmt_regex.Dfa.of_syntax p2)
      in
      match ok_exn (compile_script script) with
      | Scompile.Generate { constr; _ } -> begin
        (* structural round trip, except regexes compare as languages
           (the exporter renders single chars as str.to_re strings) *)
        match (c, constr) with
        | Constr.Regex { pattern = p1; length = l1 }, Constr.Regex { pattern = p2; length = l2 }
          ->
          if l1 <> l2 || not (regex_equal p1 p2) then
            Alcotest.failf "%s came back as a different regex" (Constr.describe c)
        | _ ->
          if constr <> c then
            Alcotest.failf "%s came back as %s" (Constr.describe c) (Constr.describe constr)
      end
      | Scompile.Locate { constr; _ } ->
        if constr <> c then
          Alcotest.failf "%s came back as %s" (Constr.describe c) (Constr.describe constr)
      | Scompile.Generate_joint _ -> Alcotest.failf "%s became a joint problem" (Constr.describe c)
      | Scompile.Trivial _ | Scompile.Solved _ ->
        Alcotest.failf "%s compiled away" (Constr.describe c))
    cases

(* One verifier: the constraints the compiler emits from exported
   scripts accept a string exactly when Eval accepts it as the model of
   the script's assertions (what [Interp] holds every answer to). Random
   conjunctions of 1-3 string constraints over one variable, each
   rendered by [Smtgen], compiled together, and checked on every string
   over {a, b, c} of the conjunction's length and one longer. An
   Includes script binds an Int, so it is left out here: its
   [Constr.verify] accepts any occurrence where Eval wants the first. *)
let prop_verify_agrees_with_eval =
  let open QCheck2.Gen in
  let word n = string_size ~gen:(oneofl [ 'a'; 'b' ]) (return n) in
  let gen_constr len =
    oneof
      [
        map (fun s -> Constr.Equals s) (word len);
        (let* cut = int_range 0 len in
         let* w = word len in
         return (Constr.Concat [ String.sub w 0 cut; String.sub w cut (len - cut) ]));
        (let* m = int_range 1 len in
         let* substring = word m in
         return (Constr.Contains { length = len; substring }));
        (let* m = int_range 1 len in
         let* substring = word m in
         let* index = int_range 0 (len - m) in
         let* first = bool in
         return (Constr.Index_of { length = len; substring; index; first }));
        (let* source = word len in
         let* find = oneofl [ 'a'; 'b' ] and* replace = oneofl [ 'a'; 'b'; 'c' ] in
         oneofl
           [
             Constr.Replace_all { source; find; replace };
             Constr.Replace_first { source; find; replace };
           ]);
        map (fun s -> Constr.Reverse s) (word len);
        return (Constr.Palindrome { length = len });
        map
          (fun p -> Constr.Regex { pattern = Rparser.parse_exn p; length = len })
          (oneofl [ "a[bc]+"; "[ab]+"; "b?a*"; "[a-c]*c"; "ab?" ]);
      ]
  in
  let gen =
    let* len = int_range 1 4 in
    let* cs = list_size (int_range 1 3) (gen_constr len) in
    return (len, List.filter (fun c -> Result.is_ok (Constr.validate c)) cs)
  in
  let print (len, cs) =
    Printf.sprintf "length %d: %s" len (String.concat "; " (List.map Constr.describe cs))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~print ~name:"compiled constraints verify as Eval" gen
       (fun (len, cs) ->
         let asserts = List.concat_map (fun c -> ok_exn (Smtgen.assertions ~var:"x" c)) cs in
         let script = String.concat "\n" ("(declare-const x String)" :: asserts) in
         let terms =
           List.filter_map
             (function Qsmt_smtlib.Ast.Assert t -> Some t | _ -> None)
             (ok_exn (Parser.parse_script script))
         in
         let eval_ok v =
           List.for_all
             (fun t -> Eval.term ~model:[ ("x", Eval.V_str v) ] t = Ok (Eval.V_bool true))
             terms
         in
         let rec strings n =
           if n = 0 then [ "" ]
           else List.concat_map (fun s -> List.map (fun c -> s ^ String.make 1 c) [ 'a'; 'b'; 'c' ]) (strings (n - 1))
         in
         let candidates = strings len @ [ String.make (len + 1) 'a' ] in
         let agrees emitted =
           List.for_all
             (fun v ->
               List.for_all (fun c -> Constr.verify c (Constr.Str v)) emitted = eval_ok v)
             candidates
         in
         match compile_script script with
         | Ok (Scompile.Generate { constr; _ }) -> agrees [ constr ]
         | Ok (Scompile.Generate_joint { conjuncts; _ }) -> agrees conjuncts
         | Ok (Scompile.Trivial b) -> List.for_all (fun v -> eval_ok v = b) candidates
         | Ok (Scompile.Solved _ | Scompile.Locate _) | Error _ -> cs = []))

let test_export_solves_for_folding_ops () =
  (* replace/reverse/concat fold to Equals during compilation — the round
     trip is semantic (same model), not structural *)
  List.iter
    (fun (c, expected) ->
      let script = ok_exn (Smtgen.script c) in
      match ok_exn (Interp.run_string ~sampler script) with
      | [ "sat"; value_line ] ->
        if not (String.length value_line > 0 && String.sub value_line 0 1 = "(") then
          Alcotest.fail "expected a get-value response";
        let expected_line = Printf.sprintf {|((x "%s"))|} expected in
        check Alcotest.string (Constr.describe c) expected_line value_line
      | lines -> Alcotest.failf "%s: unexpected output %s" (Constr.describe c) (String.concat "|" lines))
    [
      (Constr.Replace_all { source = "hello"; find = 'l'; replace = 'x' }, "hexxo");
      (Constr.Replace_first { source = "hello"; find = 'l'; replace = 'x' }, "hexlo");
      (Constr.Reverse "abc", "cba");
      (Constr.Concat [ "ab"; "cd" ], "abcd");
    ]

(* ------------------------------------------------------------------ *)
(* prefix / suffix conjunctions through the front end *)

let test_prefix_suffix_script () =
  let out =
    ok_exn
      (Interp.run_string ~sampler
         {|(declare-const x String)
           (assert (str.prefixof "ab" x))
           (assert (str.suffixof "yz" x))
           (assert (= (str.len x) 6))
           (check-sat)|})
  in
  check (Alcotest.list Alcotest.string) "sat" [ "sat" ] out

let test_prefix_too_long_unsat () =
  let out =
    ok_exn
      (Interp.run_string ~sampler
         {|(declare-const x String)
           (assert (str.prefixof "abcdef" x))
           (assert (= (str.len x) 3))
           (check-sat)|})
  in
  check (Alcotest.list Alcotest.string) "unsat" [ "unsat" ] out

let test_prefix_checked_against_equality () =
  let out =
    ok_exn
      (Interp.run_string ~sampler
         {|(declare-const x String)
           (assert (= x "hello"))
           (assert (str.prefixof "x" x))
           (check-sat)|})
  in
  check (Alcotest.list Alcotest.string) "unsat" [ "unsat" ] out

(* ------------------------------------------------------------------ *)
(* workload through all solver families *)

let test_workload_three_ways () =
  let suite = Workload.suite ~seed:23 ~max_length:4 ~count:10 () in
  List.iter
    (fun c ->
      (* annealer *)
      let a = Solver.solve ~sampler c in
      if a.Solver.satisfied && not (Constr.verify c a.Solver.value) then
        Alcotest.failf "annealer lied on %s" (Constr.describe c);
      (* CDCL *)
      let o = Strsolver.solve c in
      (match (o.Strsolver.result, o.Strsolver.value) with
      | `Sat, Some v ->
        if not (Constr.verify c v) then Alcotest.failf "CDCL lied on %s" (Constr.describe c)
      | `Sat, None -> Alcotest.fail "sat without value"
      | (`Unsat | `Unknown), _ -> ());
      (* workload constraints are satisfiable by construction, so CDCL
         (complete) must answer sat *)
      if o.Strsolver.result <> `Sat then
        Alcotest.failf "CDCL failed to prove satisfiable workload %s" (Constr.describe c))
    suite

let test_workload_export_roundtrip_satisfiable () =
  (* every exportable workload constraint's script must answer sat *)
  let suite = Workload.suite ~seed:31 ~max_length:4 ~count:10 () in
  List.iter
    (fun c ->
      match Smtgen.script c with
      | Error _ -> () (* Has_length is never generated; other errors none *)
      | Ok script -> begin
        match Interp.run_string ~sampler script with
        | Ok lines ->
          if not (List.mem "sat" lines || List.mem "unknown" lines) then
            Alcotest.failf "%s: exported script said %s" (Constr.describe c)
              (String.concat "|" lines)
        | Error e -> Alcotest.failf "%s: %s" (Constr.describe c) e
      end)
    suite

(* ------------------------------------------------------------------ *)
(* preprocessing composed with sampling *)

let test_preprocess_then_sample_on_workload () =
  let suite = Workload.suite ~seed:41 ~max_length:3 ~count:8 () in
  List.iter
    (fun c ->
      match c with
      | Constr.Includes _ -> () (* position space, skip *)
      | _ ->
        let q = Compile.to_qubo c in
        let t = Preprocess.reduce q in
        let solve_residual r =
          (Sampleset.best (Sa.sample ~params:{ Sa.default with Sa.reads = 16; sweeps = 400 } r))
            .Sampleset.bits
        in
        let x =
          if Preprocess.num_free t = 0 then Preprocess.expand t (Bitvec.create 0)
          else Preprocess.expand t (solve_residual (Preprocess.residual t))
        in
        (* preprocessing + sampling must do at least as well as direct
           sampling on the full problem *)
        let direct =
          Sampleset.lowest_energy (Sa.sample ~params:{ Sa.default with Sa.reads = 16; sweeps = 400 } q)
        in
        if Qubo.energy q x > direct +. 1e-6 then
          Alcotest.failf "preprocessing hurt %s: %g vs %g" (Constr.describe c) (Qubo.energy q x)
            direct)
    suite

(* ------------------------------------------------------------------ *)
(* hardware model on a string constraint, with chain trimming *)

let test_embedding_trim_shrinks () =
  (* hand-built slack: var1's chain {2,3} only needs qubit 2 on the path
     0-1-2-3 *)
  let problem = Qgraph.of_edges 2 [ (0, 1) ] in
  let hardware = Qgraph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let padded = Embedding.of_chains [| [ 0; 1 ]; [ 2; 3 ] |] in
  check (Alcotest.result Alcotest.unit Alcotest.string) "padded valid" (Ok ())
    (Embedding.validate ~problem ~hardware padded);
  let trimmed = Embedding.trim ~problem ~hardware padded in
  check (Alcotest.result Alcotest.unit Alcotest.string) "still valid" (Ok ())
    (Embedding.validate ~problem ~hardware trimmed);
  check Alcotest.bool "strictly fewer qubits" true
    (Embedding.total_qubits_used trimmed < Embedding.total_qubits_used padded);
  (* and on a real greedy embedding it must never grow or invalidate *)
  let constr = Constr.Includes { haystack = "abcabcabc"; needle = "abc" } in
  let q = Compile.to_qubo constr in
  let problem = Qgraph.of_qubo q in
  let hardware = Topology.graph (Topology.chimera ~m:3 ()) in
  match Embedding.find ~seed:0 ~tries:64 ~problem ~hardware () with
  | None -> Alcotest.fail "no embedding"
  | Some e ->
    let trimmed = Embedding.trim ~problem ~hardware e in
    check (Alcotest.result Alcotest.unit Alcotest.string) "greedy trim valid" (Ok ())
      (Embedding.validate ~problem ~hardware trimmed);
    check Alcotest.bool "not more qubits" true
      (Embedding.total_qubits_used trimmed <= Embedding.total_qubits_used e)

let test_hardware_on_string_constraint () =
  let constr = Constr.Equals "hi" in
  let q = Compile.to_qubo constr in
  let params =
    { (Hardware.default_params (Topology.chimera ~m:2 ())) with
      Hardware.anneal = { Sa.default with Sa.reads = 16; sweeps = 400; seed = 9 }
    }
  in
  let r = Hardware.sample ~params q in
  let decoded = Compile.decode constr (Sampleset.best r.Hardware.samples).Sampleset.bits in
  check Alcotest.bool "decodes to hi" true (Constr.verify constr decoded)

let test_embed_anneal_unembed_preserves_table1 () =
  (* The manual physical pipeline — embed_qubo, anneal the physical
     problem, majority-vote back — must preserve satisfiability of the
     paper's Table 1 formulations on Chimera: the best unembedded read
     decodes to a value the classical checker accepts. *)
  let suite =
    [
      Constr.Equals "qubo";
      Constr.Concat [ "an"; "neal" ];
      Constr.Palindrome { length = 6 };
      Constr.Includes { haystack = "hello world"; needle = "world" };
      Constr.Contains { length = 5; substring = "cat" };
      Constr.Reverse "chain";
    ]
  in
  List.iter
    (fun constr ->
      let q = Compile.to_qubo constr in
      let topology = Hardware.auto_topology ~seed:3 ~kind:`Chimera q in
      let problem = Qgraph.of_qubo q in
      let hardware = Topology.graph topology in
      match Embedding.find ~seed:3 ~tries:64 ~problem ~hardware () with
      | None -> Alcotest.failf "no embedding for %s" (Constr.describe constr)
      | Some e ->
        let e = Embedding.trim ~problem ~hardware e in
        let physical =
          Chain.embed_qubo q ~embedding:e ~hardware
            ~chain_strength:(Chain.default_strength q)
        in
        let s =
          Sa.sample ~params:{ Sa.default with Sa.reads = 32; sweeps = 1000; seed = 3 } physical
        in
        let rng = Prng.create 3 in
        let best =
          List.fold_left
            (fun acc entry ->
              let bits = Chain.unembed ~rng ~embedding:e entry.Sampleset.bits in
              let energy = Qubo.energy q bits in
              match acc with
              | Some (_, e0) when e0 <= energy -> acc
              | _ -> Some (bits, energy))
            None (Sampleset.entries s)
        in
        let bits, _ = Option.get best in
        let decoded = Compile.decode constr bits in
        if not (Constr.verify constr decoded) then
          Alcotest.failf "satisfiability lost through embedding for %s (decoded %s)"
            (Constr.describe constr)
            (Format.asprintf "%a" Constr.pp_value decoded))
    suite

let test_solver_carries_hardware_stats () =
  (* Solver.solve through the hardware sampler surfaces the diagnostics;
     a second same-shape solve reuses the cached embedding. *)
  Hardware.clear_embedding_cache ();
  let constr = Constr.Includes { haystack = "hello world"; needle = "world" } in
  let mk () =
    Sampler.hardware_auto (fun q ->
        { (Hardware.default_params (Hardware.auto_topology ~seed:0 ~kind:`Chimera q)) with
          Hardware.anneal = { Sa.default with Sa.reads = 16; sweeps = 400; seed = 0 } })
  in
  (* absint off: a literal Includes is decided statically, and a static
     verdict never touches the hardware path under test *)
  let first = Solver.solve ~sampler:(mk ()) ~absint:`Off constr in
  (match first.Solver.hardware with
  | None -> Alcotest.fail "hardware outcome missing"
  | Some s ->
    check Alcotest.bool "qubits used positive" true (s.Hardware.qubits_used > 0);
    check Alcotest.bool "not degraded" true (s.Hardware.degraded = None));
  let second = Solver.solve ~sampler:(mk ()) ~absint:`Off constr in
  (match second.Solver.hardware with
  | None -> Alcotest.fail "hardware outcome missing on rerun"
  | Some s -> check Alcotest.bool "same shape hits cache" true s.Hardware.embedding_cache_hit);
  (* all-to-all samplers keep the field empty *)
  check Alcotest.bool "sa has no hardware stats" true
    ((Solver.solve ~sampler ~absint:`Off constr).Solver.hardware = None);
  Hardware.clear_embedding_cache ()

(* ------------------------------------------------------------------ *)
(* pipeline across solver families *)

let test_pipeline_annealer_matches_classical () =
  let p =
    { Pipeline.initial = Constr.Concat [ "qu"; "antum" ];
      Pipeline.stages =
        [ Pipeline.Replace_all { find = 'u'; replace = 'o' }; Pipeline.Reverse ]
    }
  in
  let annealed =
    Solver.pipeline_output (Result.get_ok (Solver.solve_pipeline ~sampler p))
  in
  let classical =
    match List.rev (Strsolver.solve_pipeline p) with
    | last :: _ -> (match last.Strsolver.value with Some (Constr.Str s) -> Some s | _ -> None)
    | [] -> None
  in
  check (Alcotest.option Alcotest.string) "same final string" classical annealed;
  check (Alcotest.option Alcotest.string) "matches semantics" (Pipeline.expected_output p)
    annealed

(* ------------------------------------------------------------------ *)
(* spin glass: metrics pipeline sanity on a planted instance *)

let test_metrics_on_planted_instance () =
  let rng = Prng.create 2 in
  let graph = Topology.graph (Topology.king ~rows:3 ~cols:3) in
  let q, _, ground = Spinglass.planted ~rng graph in
  let samples = Sa.sample ~params:{ Sa.default with Sa.reads = 16; sweeps = 400; seed = 1 } q in
  let p = Metrics.success_probability samples ~ground_energy:ground () in
  check Alcotest.bool "some reads succeed" true (p > 0.);
  match Metrics.time_to_solution ~time_per_read:1e-3 ~p_success:p () with
  | Some tts -> check Alcotest.bool "finite positive TTS" true (tts > 0.)
  | None -> Alcotest.fail "expected finite TTS"

let () =
  Alcotest.run "qsmt_integration"
    [
      ( "export-roundtrip",
        [
          Alcotest.test_case "compile roundtrip" `Quick test_export_compile_roundtrip;
          Alcotest.test_case "folding ops solve" `Quick test_export_solves_for_folding_ops;
          prop_verify_agrees_with_eval;
        ] );
      ( "prefix-suffix",
        [
          Alcotest.test_case "conjunction sat" `Quick test_prefix_suffix_script;
          Alcotest.test_case "too long unsat" `Quick test_prefix_too_long_unsat;
          Alcotest.test_case "checked vs equality" `Quick test_prefix_checked_against_equality;
        ] );
      ( "workload",
        [
          Alcotest.test_case "three solver families" `Slow test_workload_three_ways;
          Alcotest.test_case "export roundtrip" `Slow test_workload_export_roundtrip_satisfiable;
        ] );
      ( "preprocess",
        [
          Alcotest.test_case "compose with sampling" `Slow test_preprocess_then_sample_on_workload;
        ] );
      ( "hardware",
        [
          Alcotest.test_case "trim shrinks chains" `Quick test_embedding_trim_shrinks;
          Alcotest.test_case "string constraint end-to-end" `Quick
            test_hardware_on_string_constraint;
          Alcotest.test_case "embed+anneal+unembed preserves Table 1" `Quick
            test_embed_anneal_unembed_preserves_table1;
          Alcotest.test_case "solver carries hardware stats" `Quick
            test_solver_carries_hardware_stats;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "annealer = classical" `Quick test_pipeline_annealer_matches_classical;
        ] );
      ( "metrics",
        [ Alcotest.test_case "planted instance" `Quick test_metrics_on_planted_instance ] );
    ]
