(* Fixed-seed regressions for the incremental solving layer (both solver
   families):

   - a cold first query in a fresh annealing session is bit-for-bit the
     from-scratch [Solver.solve] / [Joint.solve] outcome, and re-queries
     (push/pop shapes) never degrade the verdict;
   - a session's merged QUBOs are bit-exact equal to a full recompile
     (property-tested over random conjunction prefixes/extensions);
   - the telemetry counters record which incremental tier served each
     query (encode cache, warm start, model reuse);
   - the classical side: CDCL solving under assumptions, learned-clause
     retention across calls, growable variable sets, and the
     session-level exact conjunction solver;
   - SMT-LIB push/pop/check-sat-assuming verdicts match running each
     query from scratch, on both backends. *)

module Bitvec = Qsmt_util.Bitvec
module Telemetry = Qsmt_util.Telemetry
module Qubo = Qsmt_qubo.Qubo
module Sa = Qsmt_anneal.Sa
module Sampler = Qsmt_anneal.Sampler
module Sampleset = Qsmt_anneal.Sampleset
module Constr = Qsmt_strtheory.Constr
module Solver = Qsmt_strtheory.Solver
module Joint = Qsmt_strtheory.Joint
module Incremental = Qsmt_strtheory.Incremental
module Rparser = Qsmt_regex.Parser
module Cnf = Qsmt_classical.Cnf
module Cdcl = Qsmt_classical.Cdcl
module Strsolver = Qsmt_classical.Strsolver
module Interp = Qsmt_smtlib.Interp

let check = Alcotest.check

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Annealing sessions: verdict parity with from-scratch solving *)

(* One constraint per Table-1 operation. *)
let table1_ops =
  [
    Constr.Equals "hi";
    Constr.Concat [ "ab"; "c" ];
    Constr.Contains { length = 3; substring = "ab" };
    Constr.Includes { haystack = "hello world"; needle = "world" };
    Constr.Index_of { length = 3; substring = "bc"; index = 1 };
    Constr.Has_length { num_chars = 3; target_length = 2 };
    Constr.Replace_all { source = "aba"; find = 'a'; replace = 'o' };
    Constr.Replace_first { source = "aba"; find = 'a'; replace = 'o' };
    Constr.Reverse "abc";
    Constr.Palindrome { length = 3 };
    Constr.Regex { pattern = Rparser.parse_exn "a[bc]+"; length = 3 };
  ]

let test_generate_cold_parity () =
  (* A fresh session's first query runs the exact same sampler
     configuration as [Solver.solve]: identical value, verdict and
     energy. *)
  List.iter
    (fun constr ->
      let scratch = Solver.solve constr in
      let session = Incremental.create () in
      let incr = Incremental.solve_generate session constr in
      let name = Constr.describe constr in
      check Alcotest.bool (name ^ " verdict") scratch.Solver.satisfied incr.Solver.satisfied;
      check Alcotest.bool (name ^ " value") true (scratch.Solver.value = incr.Solver.value);
      check (Alcotest.float 0.) (name ^ " energy") scratch.Solver.energy incr.Solver.energy)
    table1_ops

let test_generate_requery_never_worse () =
  (* Re-solving the same constraint in-session (the push/pop shape) uses
     model reuse or a warm start with cold retry; a query that succeeded
     from scratch must still succeed. *)
  List.iter
    (fun constr ->
      let scratch = Solver.solve constr in
      let session = Incremental.create () in
      let _first = Incremental.solve_generate session constr in
      let second = Incremental.solve_generate session constr in
      if scratch.Solver.satisfied then
        check Alcotest.bool
          (Constr.describe constr ^ " requery verdict")
          true second.Solver.satisfied)
    table1_ops

let test_joint_push_pop_parity () =
  let pal = Constr.Palindrome { length = 4 } in
  let con = Constr.Contains { length = 4; substring = "ab" } in
  let scratch cs = Result.get_ok (Joint.solve cs) in
  let session = Incremental.create () in
  let incr cs = Result.get_ok (Incremental.solve_joint session cs) in
  (* push sequence: [pal] then [pal; con] (re-merged from the cache) *)
  let s1 = scratch [ pal ] and i1 = incr [ pal ] in
  check Alcotest.bool "cold verdict" s1.Solver.satisfied i1.Solver.satisfied;
  check Alcotest.bool "cold value" true (s1.Solver.value = i1.Solver.value);
  let s2 = scratch [ pal; con ] and i2 = incr [ pal; con ] in
  check Alcotest.bool "push qubo bit-exact" true (Qubo.equal s2.Solver.qubo i2.Solver.qubo);
  if s2.Solver.satisfied then check Alcotest.bool "push verdict" true i2.Solver.satisfied;
  (* pop back to [pal]: the previous model still verifies, so the
     verdict must stay sat without any sampling *)
  let i3 = incr [ pal ] in
  check Alcotest.bool "pop verdict" true i3.Solver.satisfied;
  check Alcotest.bool "pop qubo bit-exact" true (Qubo.equal s1.Solver.qubo i3.Solver.qubo)

(* ------------------------------------------------------------------ *)
(* Bit-exact session merges (property) *)

let cheap_sampler = Sampler.simulated_annealing ~params:{ Sa.default with Sa.reads = 2; sweeps = 40; seed = 3 } ()

let gen_conjunction =
  let open QCheck2.Gen in
  let* length = int_range 2 3 in
  let letter = map (fun i -> Char.chr (Char.code 'a' + i)) (int_range 0 2) in
  let word n = map (fun l -> String.init n (List.nth l)) (list_repeat n letter) in
  let conjunct =
    oneof
      [
        map (fun s -> Constr.Equals s) (word length);
        return (Constr.Palindrome { length });
        map (fun c -> Constr.Contains { length; substring = String.make 1 c }) letter;
        map
          (fun t -> Constr.Has_length { num_chars = length; target_length = t })
          (int_range 0 length);
      ]
  in
  let* prefix = list_size (int_range 1 2) conjunct in
  let* suffix = list_size (int_range 1 2) conjunct in
  return (prefix, suffix)

let prop_session_merge_bitexact =
  qtest ~count:30 "session merge = Joint.encode" gen_conjunction
    (fun (prefix, suffix) ->
      (* absint off: random Equals/Has_length conjuncts decide statically
         and would skip the merge machinery under test *)
      let session = Incremental.create ~sampler:cheap_sampler ~absint:`Off () in
      let full = prefix @ suffix in
      match
        ( Incremental.solve_joint session prefix,
          Incremental.solve_joint session full,
          Joint.encode full )
      with
      | Ok _, Ok incr, Ok (scratch_q, _) -> Qubo.equal incr.Solver.qubo scratch_q
      | _ -> false)

let test_counters () =
  let telemetry = Telemetry.collector () in
  (* absint off: the counter under test belongs to the encode cache,
     which static verdicts bypass *)
  let session = Incremental.create ~sampler:cheap_sampler ~absint:`Off ~telemetry () in
  let pal = Constr.Palindrome { length = 2 } in
  let hl = Constr.Has_length { num_chars = 2; target_length = 2 } in
  let counter name = Option.value ~default:0 (Telemetry.find_counter telemetry name) in
  ignore (Result.get_ok (Incremental.solve_joint session [ pal ]));
  ignore (Result.get_ok (Incremental.solve_joint session [ pal ]));
  ignore (Result.get_ok (Incremental.solve_joint session [ pal; hl ]));
  (* a reordered query re-merges from the per-conjunct encoding cache
     (both conjuncts already encoded) *)
  ignore (Result.get_ok (Incremental.solve_joint session [ hl; pal ]));
  check Alcotest.bool "encode cache hit" true (counter "incr.encode_hit" >= 2)

let test_model_reuse_skips_sampling () =
  let telemetry = Telemetry.collector () in
  let session = Incremental.create ~sampler:cheap_sampler ~telemetry () in
  let pal = Constr.Palindrome { length = 2 } in
  let o1 = Result.get_ok (Incremental.solve_joint session [ pal ]) in
  check Alcotest.bool "sat" true o1.Solver.satisfied;
  let o2 = Result.get_ok (Incremental.solve_joint session [ pal ]) in
  check Alcotest.bool "still sat" true o2.Solver.satisfied;
  check Alcotest.bool "same model" true (o1.Solver.value = o2.Solver.value);
  check Alcotest.bool "model reuse counted" true
    (Option.value ~default:0 (Telemetry.find_counter telemetry "incr.model_reuse") >= 1)

let test_lint_rejection_not_cached () =
  (* indexOf's soft bias is a lint warning: a session gating at warning
     level rejects it on every query instead of answering the second
     from a cached, unvetted encoding *)
  let session = Incremental.create ~sampler:cheap_sampler ~lint:`Warning ~absint:`Off () in
  let c = Constr.Index_of { length = 6; substring = "hi"; index = 2 } in
  for query = 1 to 2 do
    match Incremental.solve_generate session c with
    | exception Qsmt_strtheory.Lint.Rejected _ -> ()
    | _ -> Alcotest.failf "query %d: the lint gate let a warning through" query
  done

(* ------------------------------------------------------------------ *)
(* Classical: CDCL incremental interface *)

let test_cdcl_incremental_basic () =
  let s = Cdcl.Incremental.create ~num_vars:2 () in
  Cdcl.Incremental.add_clauses s [ [ Cnf.pos 0; Cnf.pos 1 ] ];
  (match Cdcl.Incremental.solve s with
  | Cdcl.Sat _, _ -> ()
  | _ -> Alcotest.fail "x0 v x1 should be sat");
  Cdcl.Incremental.add_clauses s [ [ Cnf.neg 0 ] ];
  (match Cdcl.Incremental.solve s with
  | Cdcl.Sat m, _ ->
    check Alcotest.bool "x0 false" false (Bitvec.get m 0);
    check Alcotest.bool "x1 true" true (Bitvec.get m 1)
  | _ -> Alcotest.fail "still sat after unit");
  Cdcl.Incremental.add_clauses s [ [ Cnf.neg 1 ] ];
  (match Cdcl.Incremental.solve s with
  | Cdcl.Unsat, _ -> ()
  | _ -> Alcotest.fail "contradiction must be unsat");
  (* permanently unsat now *)
  match Cdcl.Incremental.solve s with
  | Cdcl.Unsat, _ -> ()
  | _ -> Alcotest.fail "permanent unsat must persist"

let test_cdcl_assumptions () =
  let s = Cdcl.Incremental.create ~num_vars:3 () in
  Cdcl.Incremental.add_clauses s [ [ Cnf.pos 0; Cnf.pos 1 ]; [ Cnf.neg 0; Cnf.pos 2 ] ];
  (match Cdcl.Incremental.solve ~assumptions:[ Cnf.neg 1 ] s with
  | Cdcl.Sat m, _ ->
    check Alcotest.bool "x0 forced" true (Bitvec.get m 0);
    check Alcotest.bool "x2 propagated" true (Bitvec.get m 2)
  | _ -> Alcotest.fail "sat under ~x1");
  (match Cdcl.Incremental.solve ~assumptions:[ Cnf.neg 0; Cnf.neg 1 ] s with
  | Cdcl.Unsat, _ -> ()
  | _ -> Alcotest.fail "unsat under ~x0 ~x1");
  (* assumptions do not stick: the solver is still satisfiable *)
  (match Cdcl.Incremental.solve s with
  | Cdcl.Sat _, _ -> ()
  | _ -> Alcotest.fail "sat with no assumptions");
  (* duplicate assumptions each open a level; verdict unchanged *)
  match Cdcl.Incremental.solve ~assumptions:[ Cnf.pos 0; Cnf.pos 0; Cnf.pos 2 ] s with
  | Cdcl.Sat _, _ -> ()
  | _ -> Alcotest.fail "sat under duplicated assumptions"

(* Pigeonhole clauses over p*holes+h variables, each guarded by ¬g so the
   instance can be activated by assumption. *)
let php_clauses ~pigeons ~holes ~guard =
  let var p h = (p * holes) + h in
  let per_pigeon =
    List.init pigeons (fun p ->
        Cnf.neg guard :: List.init holes (fun h -> Cnf.pos (var p h)))
  in
  let per_hole =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 ->
                if p2 > p1 then
                  Some [ Cnf.neg guard; Cnf.neg (var p1 h); Cnf.neg (var p2 h) ]
                else None)
              (List.init pigeons Fun.id))
          (List.init pigeons Fun.id))
      (List.init holes Fun.id)
  in
  per_pigeon @ per_hole

let test_cdcl_learned_retention () =
  let pigeons = 5 and holes = 4 in
  let guard = pigeons * holes in
  let s = Cdcl.Incremental.create ~num_vars:(guard + 1) () in
  Cdcl.Incremental.add_clauses s (php_clauses ~pigeons ~holes ~guard);
  let r1, st1 = Cdcl.Incremental.solve ~assumptions:[ Cnf.pos guard ] s in
  check Alcotest.bool "php unsat" true (r1 = Cdcl.Unsat);
  check Alcotest.bool "worked for it" true (st1.Cdcl.conflicts > 0);
  (* with the guard unassumed the formula is trivially sat *)
  (match Cdcl.Incremental.solve s with
  | Cdcl.Sat _, _ -> ()
  | _ -> Alcotest.fail "unguarded php is sat");
  (* learned clauses survive: re-proving is strictly cheaper *)
  let r2, st2 = Cdcl.Incremental.solve ~assumptions:[ Cnf.pos guard ] s in
  check Alcotest.bool "php still unsat" true (r2 = Cdcl.Unsat);
  check Alcotest.bool "fewer conflicts on re-proof" true
    (st2.Cdcl.conflicts < st1.Cdcl.conflicts)

let test_cdcl_ensure_vars () =
  let s = Cdcl.Incremental.create ~num_vars:1 () in
  Cdcl.Incremental.add_clauses s [ [ Cnf.pos 0 ] ];
  Cdcl.Incremental.ensure_vars s 3;
  check Alcotest.int "grown" 3 (Cdcl.Incremental.num_vars s);
  Cdcl.Incremental.add_clauses s [ [ Cnf.pos 1; Cnf.pos 2 ]; [ Cnf.neg 1 ] ];
  match Cdcl.Incremental.solve s with
  | Cdcl.Sat m, _ ->
    check Alcotest.int "model spans new vars" 3 (Bitvec.length m);
    check Alcotest.bool "x2 forced" true (Bitvec.get m 2)
  | _ -> Alcotest.fail "sat expected after growth"

(* ------------------------------------------------------------------ *)
(* Classical: string session *)

let test_session_outcome_cache () =
  let session = Strsolver.Session.create () in
  let c = Constr.Palindrome { length = 3 } in
  let o1 = Strsolver.Session.solve session c in
  let o2 = Strsolver.Session.solve session c in
  check Alcotest.bool "sat" true o1.Strsolver.satisfied;
  check Alcotest.bool "cached (physically equal)" true (o1 == o2)

let test_session_joint () =
  let session = Strsolver.Session.create () in
  let sat_cs = [ Constr.Palindrome { length = 4 }; Constr.Contains { length = 4; substring = "ab" } ] in
  (match Strsolver.Session.solve_joint session sat_cs with
  | Ok (`Sat s, _) ->
    check Alcotest.bool "verifies" true
      (List.for_all (fun c -> Constr.verify c (Constr.Str s)) sat_cs)
  | _ -> Alcotest.fail "conjunction should be sat");
  let unsat_cs =
    [ Constr.Palindrome { length = 2 }; Constr.Contains { length = 2; substring = "ab" } ]
  in
  (match Strsolver.Session.solve_joint session unsat_cs with
  | Ok (`Unsat, _) -> ()
  | _ -> Alcotest.fail "2-char palindrome containing ab is a refutation");
  (* re-query reuses the loaded guarded clauses; verdict stable *)
  (match Strsolver.Session.solve_joint session unsat_cs with
  | Ok (`Unsat, _) -> ()
  | _ -> Alcotest.fail "re-query verdict must be stable");
  (* and the earlier sat conjunction still answers sat afterwards *)
  (match Strsolver.Session.solve_joint session sat_cs with
  | Ok (`Sat _, _) -> ()
  | _ -> Alcotest.fail "sat conjunction must stay sat");
  match
    Strsolver.Session.solve_joint session
      [ Constr.Includes { haystack = "ab"; needle = "a" } ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Includes is not joint-encodable"

(* ------------------------------------------------------------------ *)
(* SMT-LIB: push/pop/check-sat-assuming verdict parity *)

let run ?backend source = Result.get_ok (Interp.run_string ?backend source)

let incremental_script =
  {|
(declare-const x String)
(assert (str.palindrome x))
(push)
(assert (= (str.len x) 4))
(check-sat)
(pop)
(check-sat-assuming ((= (str.len x) 2)))
(check-sat)
|}

let flat_scripts =
  [
    "(declare-const x String)(assert (str.palindrome x))(assert (= (str.len x) 4))(check-sat)";
    "(declare-const x String)(assert (str.palindrome x))(assert (= (str.len x) 2))(check-sat)";
    "(declare-const x String)(assert (str.palindrome x))(check-sat)";
  ]

let test_smtlib_parity_annealing () =
  let scratch = List.concat_map (fun s -> run s) flat_scripts in
  check (Alcotest.list Alcotest.string) "incremental = from-scratch" scratch
    (run incremental_script)

let test_smtlib_parity_classical () =
  (* fresh backend per flat script = true from-scratch solving *)
  let scratch =
    List.concat_map (fun s -> run ~backend:(Interp.classical_backend ()) s) flat_scripts
  in
  check (Alcotest.list Alcotest.string) "incremental = from-scratch" scratch
    (run ~backend:(Interp.classical_backend ()) incremental_script)

let test_smtlib_classical_unsat_pop () =
  let script =
    {|
(declare-const x String)
(assert (str.palindrome x))
(assert (= (str.len x) 2))
(push)
(assert (str.contains x "ab"))
(check-sat)
(pop)
(check-sat)
|}
  in
  check (Alcotest.list Alcotest.string) "unsat then sat" [ "unsat"; "sat" ]
    (run ~backend:(Interp.classical_backend ()) script);
  (* the annealing backend now proves the unsat case statically: the
     palindrome congruence makes positions 0 and 1 equal, and {a} meets
     {b} empty — no sampling, a real refutation *)
  check (Alcotest.list Alcotest.string) "unsat then sat" [ "unsat"; "sat" ] (run script)

let test_smtlib_assumptions_scoped () =
  (* check-sat-assuming must not leak its assumptions into later checks *)
  let script =
    {|
(declare-const x String)
(assert (str.palindrome x))
(assert (= (str.len x) 2))
(check-sat-assuming ((str.contains x "ab")))
(check-sat)
|}
  in
  check (Alcotest.list Alcotest.string) "assumption scoped" [ "unsat"; "sat" ]
    (run ~backend:(Interp.classical_backend ()) script)

let test_smtlib_reuse_before_absint () =
  (* The check after the pop is answered by the session's last model,
     which still satisfies every conjunct, ahead of the absint gate: no
     analysis, no sampling, no automaton rebuilt. *)
  let script =
    {|(declare-const x String)
(assert (str.in_re x (re.+ (re.union (str.to_re "a") (str.to_re "b")))))
(assert (= (str.len x) 6))
(assert (= (str.at x 2) "b"))
(check-sat)
(push 1)
(assert (= (str.at x 0) "a"))
(check-sat)
(pop 1)|}
  in
  let telemetry = Telemetry.collector () in
  let st = Interp.create ~telemetry () in
  List.iter
    (fun command -> ignore (Result.get_ok (Interp.exec st command)))
    (Result.get_ok (Qsmt_smtlib.Parser.parse_script script));
  let absint_runs () = Option.value ~default:0 (Telemetry.find_counter telemetry "absint.runs") in
  let runs = absint_runs () in
  let before = Gc.minor_words () in
  let answer = Interp.exec st Qsmt_smtlib.Ast.Check_sat in
  let words = Gc.minor_words () -. before in
  check (Alcotest.result (Alcotest.list Alcotest.string) Alcotest.string) "verdict" (Ok [ "sat" ])
    answer;
  check Alcotest.bool "same model" true
    (Interp.model st = Some [ ("x", Qsmt_smtlib.Eval.V_str "abbbab") ]);
  check Alcotest.int "no absint run" runs (absint_runs ());
  if words >= 20_000. then Alcotest.failf "a reuse check allocated %.0f minor words" words

let () =
  Alcotest.run "qsmt_incremental"
    [
      ( "annealing-session",
        [
          Alcotest.test_case "cold parity (Table 1)" `Quick test_generate_cold_parity;
          Alcotest.test_case "requery never worse" `Quick test_generate_requery_never_worse;
          Alcotest.test_case "joint push/pop parity" `Quick test_joint_push_pop_parity;
          prop_session_merge_bitexact;
          Alcotest.test_case "telemetry counters" `Quick test_counters;
          Alcotest.test_case "model reuse" `Quick test_model_reuse_skips_sampling;
          Alcotest.test_case "lint rejection not cached" `Quick test_lint_rejection_not_cached;
        ] );
      ( "cdcl-incremental",
        [
          Alcotest.test_case "basic" `Quick test_cdcl_incremental_basic;
          Alcotest.test_case "assumptions" `Quick test_cdcl_assumptions;
          Alcotest.test_case "learned retention" `Quick test_cdcl_learned_retention;
          Alcotest.test_case "ensure_vars" `Quick test_cdcl_ensure_vars;
        ] );
      ( "classical-session",
        [
          Alcotest.test_case "outcome cache" `Quick test_session_outcome_cache;
          Alcotest.test_case "joint conjunctions" `Quick test_session_joint;
        ] );
      ( "smtlib",
        [
          Alcotest.test_case "parity (annealing)" `Quick test_smtlib_parity_annealing;
          Alcotest.test_case "parity (classical)" `Quick test_smtlib_parity_classical;
          Alcotest.test_case "unsat then pop" `Quick test_smtlib_classical_unsat_pop;
          Alcotest.test_case "assumptions scoped" `Quick test_smtlib_assumptions_scoped;
          Alcotest.test_case "model reuse before absint" `Quick test_smtlib_reuse_before_absint;
        ] );
    ]
