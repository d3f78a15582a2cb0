(* Tests for qsmt_anneal: sample sets, schedules, every sampler against
   the exact solver on small problems, topologies, minor embedding, chain
   handling, and the composed hardware model. *)

module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng
module Telemetry = Qsmt_util.Telemetry
module Qubo = Qsmt_qubo.Qubo
module Ising = Qsmt_qubo.Ising
module Qgraph = Qsmt_qubo.Qgraph
module Sampleset = Qsmt_anneal.Sampleset
module Schedule = Qsmt_anneal.Schedule
module Sa = Qsmt_anneal.Sa
module Sqa = Qsmt_anneal.Sqa
module Tabu = Qsmt_anneal.Tabu
module Pt = Qsmt_anneal.Pt
module Greedy = Qsmt_anneal.Greedy
module Exact = Qsmt_anneal.Exact
module Sampler = Qsmt_anneal.Sampler
module Topology = Qsmt_anneal.Topology
module Embedding = Qsmt_anneal.Embedding
module Chain = Qsmt_anneal.Chain
module Hardware = Qsmt_anneal.Hardware
module Metrics = Qsmt_anneal.Metrics
module Spinglass = Qsmt_anneal.Spinglass
module Portfolio = Qsmt_anneal.Portfolio
module Convergence = Qsmt_anneal.Convergence
module Constr = Qsmt_strtheory.Constr
module Compile = Qsmt_strtheory.Compile

let check = Alcotest.check

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* A QUBO whose unique ground state is the given bit string: diagonal
   -1 for wanted ones, +1 for wanted zeros (the paper's string-equality
   encoding shape). Ground energy = -popcount. *)
let target_qubo bits =
  let b = Qubo.builder () in
  String.iteri (fun i c -> Qubo.set b i i (if c = '1' then -1. else 1.)) bits;
  Qubo.freeze ~num_vars:(String.length bits) b

(* Random small QUBO for sampler-vs-exact property tests. *)
let gen_small_qubo =
  let open QCheck2.Gen in
  let* n = int_range 2 10 in
  let* entries =
    list_size (int_range 1 (2 * n))
      (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (map float_of_int (int_range (-5) 5)))
  in
  return
    (let b = Qubo.builder () in
     List.iter (fun (i, j, v) -> Qubo.add b i j v) entries;
     Qubo.freeze ~num_vars:n b)

(* ------------------------------------------------------------------ *)
(* Sampleset *)

let entry bits energy occurrences = { Sampleset.bits = Bitvec.of_string bits; energy; occurrences }

let test_sampleset_aggregation () =
  let s = Sampleset.of_entries [ entry "10" 1. 1; entry "10" 1. 2; entry "01" (-1.) 1 ] in
  check Alcotest.int "distinct" 2 (Sampleset.size s);
  check Alcotest.int "reads" 4 (Sampleset.total_reads s);
  let best = Sampleset.best s in
  check (Alcotest.float 0.) "best energy" (-1.) best.Sampleset.energy;
  check Alcotest.int "merged occurrences" 3
    (List.find (fun e -> Bitvec.to_string e.Sampleset.bits = "10") (Sampleset.entries s))
      .Sampleset.occurrences

let test_sampleset_aggregate_min_energy () =
  (* Duplicate assignments may arrive with disagreeing energies (noisy
     physical pricing); aggregation must keep the minimum regardless of
     arrival order, not whichever came first. *)
  let s = Sampleset.of_entries [ entry "10" 3. 1; entry "10" 1. 2; entry "10" 2. 1 ] in
  check Alcotest.int "one distinct" 1 (Sampleset.size s);
  check (Alcotest.float 0.) "min energy kept" 1. (Sampleset.lowest_energy s);
  check Alcotest.int "occurrences summed" 4 (Sampleset.total_reads s);
  (* order independence *)
  let s' = Sampleset.of_entries [ entry "10" 1. 2; entry "10" 2. 1; entry "10" 3. 1 ] in
  check (Alcotest.float 0.) "order independent" (Sampleset.lowest_energy s)
    (Sampleset.lowest_energy s');
  (* merge goes through the same path *)
  let m =
    Sampleset.merge
      (Sampleset.of_entries [ entry "01" 5. 1 ])
      (Sampleset.of_entries [ entry "01" 4. 1 ])
  in
  check (Alcotest.float 0.) "merge keeps min" 4. (Sampleset.lowest_energy m);
  check Alcotest.int "merge sums occurrences" 2 (Sampleset.total_reads m)

let test_sampleset_of_bits () =
  let q = target_qubo "11" in
  let s = Sampleset.of_bits q [ Bitvec.of_string "11"; Bitvec.of_string "00"; Bitvec.of_string "11" ] in
  check (Alcotest.float 0.) "lowest" (-2.) (Sampleset.lowest_energy s);
  check Alcotest.int "aggregated" 2 (Sampleset.size s);
  check Alcotest.int "total" 3 (Sampleset.total_reads s)

let test_sampleset_empty () =
  check Alcotest.bool "empty" true (Sampleset.is_empty Sampleset.empty);
  check (Alcotest.option Alcotest.reject) "best_opt none"
    None
    (Option.map (fun _ -> assert false) (Sampleset.best_opt Sampleset.empty));
  Alcotest.check_raises "best raises" (Invalid_argument "Sampleset.best: empty sample set")
    (fun () -> ignore (Sampleset.best Sampleset.empty))

let test_sampleset_energies_sorted () =
  let s = Sampleset.of_entries [ entry "10" 3. 2; entry "01" 1. 1 ] in
  check (Alcotest.array (Alcotest.float 0.)) "expanded ascending" [| 1.; 3.; 3. |]
    (Sampleset.energies s)

let test_sampleset_merge_truncate_filter () =
  let a = Sampleset.of_entries [ entry "10" 3. 1 ] in
  let b = Sampleset.of_entries [ entry "10" 3. 1; entry "01" 1. 1 ] in
  let m = Sampleset.merge a b in
  check Alcotest.int "merge aggregates" 2 (Sampleset.size m);
  check Alcotest.int "merge reads" 3 (Sampleset.total_reads m);
  let t = Sampleset.truncate 1 m in
  check Alcotest.int "truncated" 1 (Sampleset.size t);
  check (Alcotest.float 0.) "kept best" 1. (Sampleset.lowest_energy t);
  let f = Sampleset.filter (fun e -> e.Sampleset.energy > 2.) m in
  check Alcotest.int "filtered" 1 (Sampleset.size f)

let test_sampleset_ground_probability () =
  let s = Sampleset.of_entries [ entry "01" 1. 3; entry "10" 5. 1 ] in
  check (Alcotest.float 1e-12) "3/4" 0.75 (Sampleset.ground_probability s ~tol:1e-9);
  check (Alcotest.float 0.) "empty" 0. (Sampleset.ground_probability Sampleset.empty ~tol:1e-9)

(* ------------------------------------------------------------------ *)
(* Schedule *)

let test_schedule_geometric () =
  let s = Schedule.make ~beta_hot:0.1 ~beta_cold:10. ~sweeps:5 () in
  check Alcotest.int "sweeps" 5 (Schedule.sweeps s);
  check (Alcotest.float 1e-9) "starts hot" 0.1 (Schedule.beta s 0);
  check (Alcotest.float 1e-9) "ends cold" 10. (Schedule.beta s 4);
  (* geometric: constant ratio *)
  let r1 = Schedule.beta s 1 /. Schedule.beta s 0 in
  let r2 = Schedule.beta s 3 /. Schedule.beta s 2 in
  check (Alcotest.float 1e-9) "constant ratio" r1 r2

let test_schedule_linear () =
  let s = Schedule.make ~kind:Schedule.Linear ~beta_hot:1. ~beta_cold:5. ~sweeps:5 () in
  check (Alcotest.float 1e-9) "step" 2. (Schedule.beta s 1 -. Schedule.beta s 0 +. Schedule.beta s 1 -. Schedule.beta s 0);
  check (Alcotest.float 1e-9) "ends" 5. (Schedule.beta s 4)

let test_schedule_monotone () =
  let s = Schedule.make ~beta_hot:0.01 ~beta_cold:100. ~sweeps:64 () in
  let betas = Schedule.betas s in
  for k = 1 to Array.length betas - 1 do
    if betas.(k) < betas.(k - 1) then Alcotest.fail "schedule not monotone"
  done

let test_schedule_single_sweep () =
  let s = Schedule.make ~beta_hot:1. ~beta_cold:2. ~sweeps:1 () in
  check (Alcotest.float 0.) "single sweep at cold" 2. (Schedule.beta s 0)

let test_schedule_validation () =
  Alcotest.check_raises "sweeps" (Invalid_argument "Schedule.make: sweeps < 1") (fun () ->
      ignore (Schedule.make ~beta_hot:1. ~beta_cold:2. ~sweeps:0 ()));
  Alcotest.check_raises "order" (Invalid_argument "Schedule.make: beta_hot > beta_cold") (fun () ->
      ignore (Schedule.make ~beta_hot:3. ~beta_cold:2. ~sweeps:2 ()));
  Alcotest.check_raises "positive" (Invalid_argument "Schedule.make: beta must be positive")
    (fun () -> ignore (Schedule.make ~beta_hot:0. ~beta_cold:2. ~sweeps:2 ()))

let test_schedule_auto_range () =
  let ising = Ising.of_qubo (target_qubo "1010") in
  let hot, cold = Schedule.default_beta_range ising in
  check Alcotest.bool "hot < cold" true (hot < cold);
  check Alcotest.bool "hot positive" true (hot > 0.);
  let zero = Ising.of_qubo (Qubo.freeze (Qubo.builder ())) in
  check (Alcotest.pair (Alcotest.float 0.) (Alcotest.float 0.)) "fallback" (0.1, 10.)
    (Schedule.default_beta_range zero)

(* ------------------------------------------------------------------ *)
(* Exact *)

let test_exact_finds_target () =
  let q = target_qubo "1011001" in
  let states, e = Exact.ground_states q in
  check Alcotest.int "unique ground" 1 (List.length states);
  check Alcotest.string "right state" "1011001" (Bitvec.to_string (List.hd states));
  check (Alcotest.float 1e-12) "energy" (-4.) e

let test_exact_degenerate_ground () =
  (* E = x0 x1: ground states are 00, 01, 10 *)
  let b = Qubo.builder () in
  Qubo.set b 0 1 1.;
  let states, e = Exact.ground_states (Qubo.freeze b) in
  check Alcotest.int "three ground states" 3 (List.length states);
  check (Alcotest.float 0.) "zero energy" 0. e

let test_exact_solve_sorted () =
  let q = target_qubo "110" in
  let s = Exact.solve ~keep:4 q in
  check Alcotest.int "kept 4" 4 (Sampleset.size s);
  let es = Sampleset.energies s in
  check (Alcotest.float 0.) "best first" (-2.) es.(0);
  for i = 1 to Array.length es - 1 do
    if es.(i) < es.(i - 1) then Alcotest.fail "not sorted"
  done

let test_exact_minimum_energy () =
  check (Alcotest.float 0.) "min" (-3.) (Exact.minimum_energy (target_qubo "111"))

let test_exact_size_cap () =
  let b = Qubo.builder () in
  Qubo.set b 31 31 1.;
  Alcotest.check_raises "cap" (Invalid_argument "Exact: 32 variables exceeds the 30-variable cap")
    (fun () -> ignore (Exact.minimum_energy (Qubo.freeze b)))

let test_exact_offset_respected () =
  let b = Qubo.builder () in
  Qubo.set b 0 0 1.;
  Qubo.set_offset b 5.;
  check (Alcotest.float 0.) "offset included" 5. (Exact.minimum_energy (Qubo.freeze b))

(* ------------------------------------------------------------------ *)
(* Samplers find ground states *)

let sa_params = { Sa.default with Sa.reads = 16; sweeps = 300; seed = 7 }

let test_sa_solves_diagonal () =
  let q = target_qubo "110100110010" in
  let s = Sa.sample ~params:sa_params q in
  check (Alcotest.float 1e-9) "ground found" (Exact.minimum_energy q) (Sampleset.lowest_energy s);
  check Alcotest.string "decodes to target" "110100110010"
    (Bitvec.to_string (Sampleset.best s).Sampleset.bits)

let test_sa_deterministic_given_seed () =
  let q = target_qubo "10110" in
  let s1 = Sa.sample ~params:sa_params q and s2 = Sa.sample ~params:sa_params q in
  check Alcotest.bool "same results" true
    (List.for_all2
       (fun a b -> Bitvec.equal a.Sampleset.bits b.Sampleset.bits && a.Sampleset.occurrences = b.Sampleset.occurrences)
       (Sampleset.entries s1) (Sampleset.entries s2))

let test_sa_parallel_matches_sequential () =
  let q = target_qubo "1011010" in
  let seq = Sa.sample ~params:{ sa_params with Sa.domains = 1 } q in
  let par = Sa.sample ~params:{ sa_params with Sa.domains = 4 } q in
  check Alcotest.bool "identical sample sets" true
    (Sampleset.size seq = Sampleset.size par
    && List.for_all2
         (fun a b -> Bitvec.equal a.Sampleset.bits b.Sampleset.bits)
         (Sampleset.entries seq) (Sampleset.entries par))

let test_sa_total_reads () =
  let s = Sa.sample ~params:{ sa_params with Sa.reads = 9 } (target_qubo "101") in
  check Alcotest.int "9 reads" 9 (Sampleset.total_reads s)

let test_sa_empty_problem () =
  let s = Sa.sample (Qubo.freeze (Qubo.builder ())) in
  check Alcotest.int "one empty sample" 1 (Sampleset.size s)

let test_sa_postprocess_at_local_min () =
  let q = target_qubo "1100" in
  let s = Sa.sample ~params:{ sa_params with Sa.postprocess = true } q in
  (* after descent, every sample must be a local minimum *)
  List.iter
    (fun e ->
      for i = 0 to Qubo.num_vars q - 1 do
        if Qubo.flip_delta q e.Sampleset.bits i < -1e-9 then Alcotest.fail "not a local minimum"
      done)
    (Sampleset.entries s)

let test_sa_validation () =
  Alcotest.check_raises "reads" (Invalid_argument "Sa.sample: reads < 1") (fun () ->
      ignore (Sa.sample ~params:{ sa_params with Sa.reads = 0 } (target_qubo "1")))

let prop_sa_finds_ground_small =
  qtest ~count:30 "SA reaches exact minimum on random small QUBOs" gen_small_qubo (fun q ->
      let s = Sa.sample ~params:{ sa_params with Sa.reads = 24; sweeps = 400 } q in
      Float.abs (Sampleset.lowest_energy s -. Exact.minimum_energy q) < 1e-9)

let test_sqa_solves_diagonal () =
  let q = target_qubo "1101001" in
  let s = Sqa.sample ~params:{ Sqa.default with Sqa.reads = 8; sweeps = 200; seed = 3 } q in
  check (Alcotest.float 1e-9) "ground found" (Exact.minimum_energy q) (Sampleset.lowest_energy s)

let test_sqa_deterministic () =
  let q = target_qubo "10101" in
  let p = { Sqa.default with Sqa.reads = 4; sweeps = 100; seed = 11 } in
  let s1 = Sqa.sample ~params:p q and s2 = Sqa.sample ~params:p q in
  check Alcotest.bool "same" true
    (List.for_all2
       (fun a b -> Bitvec.equal a.Sampleset.bits b.Sampleset.bits)
       (Sampleset.entries s1) (Sampleset.entries s2))

let test_sqa_validation () =
  let q = target_qubo "1" in
  Alcotest.check_raises "trotter" (Invalid_argument "Sqa.sample: trotter < 2") (fun () ->
      ignore (Sqa.sample ~params:{ Sqa.default with Sqa.trotter = 1 } q));
  Alcotest.check_raises "trotter past one word" (Invalid_argument "Sqa.sample: trotter > 64")
    (fun () -> ignore (Sqa.sample ~params:{ Sqa.default with Sqa.trotter = 65 } q));
  let full = Sqa.sample ~params:{ Sqa.default with Sqa.reads = 3; sweeps = 20; trotter = 64 } q in
  check Alcotest.int "64 slices, 3 reads" 3 (Sampleset.total_reads full);
  Alcotest.check_raises "gamma order" (Invalid_argument "Sqa.sample: gamma_hot < gamma_cold")
    (fun () -> ignore (Sqa.sample ~params:{ Sqa.default with Sqa.gamma_hot = Some 1e-9 } q))

let prop_sqa_finds_ground_small =
  qtest ~count:15 "SQA reaches exact minimum on random small QUBOs" gen_small_qubo (fun q ->
      let s = Sqa.sample ~params:{ Sqa.default with Sqa.reads = 12; sweeps = 300; seed = 5 } q in
      Float.abs (Sampleset.lowest_energy s -. Exact.minimum_energy q) < 1e-9)

let test_tabu_solves_diagonal () =
  let q = target_qubo "011010" in
  let s = Tabu.sample ~params:{ Tabu.default with Tabu.seed = 2 } q in
  check (Alcotest.float 1e-9) "ground found" (Exact.minimum_energy q) (Sampleset.lowest_energy s)

let prop_tabu_finds_ground_small =
  qtest ~count:30 "tabu reaches exact minimum on random small QUBOs" gen_small_qubo (fun q ->
      let s = Tabu.sample ~params:{ Tabu.default with Tabu.restarts = 8; iterations = 300 } q in
      Float.abs (Sampleset.lowest_energy s -. Exact.minimum_energy q) < 1e-9)

(* A shrunk counterexample of the property above: variables 1, 2, 4, 5
   and 8 appear in no term, and the minimum -1 needs a zero-delta move
   on x6 out of a local minimum. A search that also offers the idle
   variables' zero-delta flips takes one of those every time instead. *)
let test_tabu_leaves_idle_variables () =
  let b = Qubo.builder () in
  List.iter
    (fun (i, j, v) -> Qubo.add b i j v)
    [ (0, 0, 1.); (0, 3, -1.); (3, 7, 2.); (6, 7, -1.); (6, 9, 1.) ];
  let q = Qubo.freeze ~num_vars:10 b in
  check (Alcotest.float 0.) "exact minimum" (-1.) (Exact.minimum_energy q);
  let s = Tabu.sample ~params:{ Tabu.default with Tabu.restarts = 8; iterations = 300 } q in
  check (Alcotest.float 1e-9) "tabu reaches it" (-1.) (Sampleset.lowest_energy s)

let test_tabu_validation () =
  Alcotest.check_raises "tenure" (Invalid_argument "Tabu.sample: negative tenure") (fun () ->
      ignore (Tabu.sample ~params:{ Tabu.default with Tabu.tenure = Some (-1) } (target_qubo "1")))

let test_greedy_solves_easy () =
  (* the diagonal target problem has no local minima besides the global *)
  let q = target_qubo "111000111" in
  let s = Greedy.sample ~params:{ Greedy.default with Greedy.restarts = 4 } q in
  check (Alcotest.float 1e-9) "ground found" (Exact.minimum_energy q) (Sampleset.lowest_energy s)

let test_greedy_descend_monotone () =
  let q = target_qubo "1010" in
  let rng = Prng.create 5 in
  for _ = 1 to 20 do
    let x = Bitvec.random rng 4 in
    let y = Greedy.descend q x in
    check Alcotest.bool "descent does not increase energy" true
      (Qubo.energy q y <= Qubo.energy q x +. 1e-12)
  done

let test_sampler_interface () =
  let q = target_qubo "1100" in
  List.iter
    (fun sampler ->
      let s = Sampler.run sampler q in
      check Alcotest.bool
        (Sampler.name sampler ^ " returns samples")
        true
        (Sampleset.size s > 0))
    (Sampler.default_suite ~seed:1)

let test_sampler_with_seed () =
  let q = target_qubo "110101" in
  let sa = Sampler.simulated_annealing ~params:sa_params () in
  let s1 = Sampler.run (Sampler.with_seed sa 123) q in
  let s2 = Sampler.run (Sampler.with_seed sa 123) q in
  let s3 = Sampler.run (Sampler.with_seed sa 124) q in
  check Alcotest.bool "same seed same result" true
    (Sampleset.energies s1 = Sampleset.energies s2);
  (* different seeds give a different read history with high probability;
     compare full entry lists *)
  let fingerprint s =
    List.map (fun e -> (Bitvec.to_string e.Sampleset.bits, e.Sampleset.occurrences)) (Sampleset.entries s)
  in
  check Alcotest.bool "different seed may differ (no crash)" true
    (ignore (fingerprint s3);
     true)

let test_sampler_custom () =
  let q = target_qubo "11" in
  let oracle = Sampler.make ~name:"oracle" (fun q -> Exact.solve q) in
  check (Alcotest.float 0.) "custom runs" (-2.) (Sampleset.lowest_energy (Sampler.run oracle q));
  (* with_seed leaves custom samplers alone *)
  check Alcotest.string "name preserved" "oracle" (Sampler.name (Sampler.with_seed oracle 9))

(* ------------------------------------------------------------------ *)
(* Portfolio *)

let same_sampleset a b =
  Sampleset.size a = Sampleset.size b
  && List.for_all2
       (fun x y ->
         Bitvec.equal x.Sampleset.bits y.Sampleset.bits
         && x.Sampleset.occurrences = y.Sampleset.occurrences
         && x.Sampleset.energy = y.Sampleset.energy)
       (Sampleset.entries a) (Sampleset.entries b)

let test_portfolio_deterministic_across_jobs () =
  (* Without verify or budget, the merged set is a pure function of the
     members — the jobs count only changes the execution shape. *)
  let q = target_qubo "1011010" in
  let members = Portfolio.default_members ~seed:3 in
  let run jobs =
    (Portfolio.run ~params:{ Portfolio.members; jobs; budget = None } q).Portfolio.merged
  in
  check Alcotest.bool "jobs=1 equals jobs=4" true (same_sampleset (run 1) (run 4))

let test_portfolio_early_exit_wins () =
  let target = "110100" in
  let q = target_qubo target in
  let verify bits = Bitvec.to_string bits = target in
  let r =
    Portfolio.run
      ~params:{ Portfolio.members = Portfolio.default_members ~seed:5; jobs = 2; budget = None }
      ~verify q
  in
  (match r.Portfolio.winner with
  | None -> Alcotest.fail "no winner on an easy instance"
  | Some (name, bits) ->
    check Alcotest.bool "winner is a member" true
      (List.mem name [ "sa"; "sqa"; "pt"; "tabu"; "greedy" ]);
    check Alcotest.string "winner bits verify" target (Bitvec.to_string bits);
    (* the winning read must survive into the merged set *)
    check Alcotest.bool "merged contains winner" true
      (List.exists
         (fun e -> Bitvec.equal e.Sampleset.bits bits)
         (Sampleset.entries r.Portfolio.merged)));
  check Alcotest.int "one report per member" 5 (List.length r.Portfolio.reports);
  check Alcotest.bool "losers were cancelled" true
    (List.exists (fun rep -> rep.Portfolio.cancelled) r.Portfolio.reports);
  check Alcotest.bool "no member failed" true
    (List.for_all (fun rep -> rep.Portfolio.failed = None) r.Portfolio.reports)

let test_portfolio_budget_cuts_slow_member () =
  (* Exhaustive enumeration of 2^26 states takes far longer than the
     budget; the deadline must cancel it at a poll point. *)
  let q = target_qubo "10110100101101001011010010" in
  let r =
    Portfolio.run
      ~params:{ Portfolio.members = [ Sampler.exact () ]; jobs = 1; budget = Some 0.05 }
      q
  in
  match r.Portfolio.reports with
  | [ rep ] ->
    check Alcotest.string "exact member" "exact" rep.Portfolio.member_name;
    check Alcotest.bool "cancelled by budget" true rep.Portfolio.cancelled;
    check Alcotest.bool "stopped well before full enumeration" true (rep.Portfolio.elapsed < 5.)
  | reps -> Alcotest.failf "expected 1 report, got %d" (List.length reps)

let test_portfolio_validation () =
  let q = target_qubo "1" in
  Alcotest.check_raises "no members" (Invalid_argument "Portfolio.run: no members") (fun () ->
      ignore (Portfolio.run ~params:{ Portfolio.members = []; jobs = 1; budget = None } q));
  Alcotest.check_raises "bad budget" (Invalid_argument "Portfolio.run: budget <= 0") (fun () ->
      ignore
        (Portfolio.run
           ~params:
             { Portfolio.members = Portfolio.default_members ~seed:0; jobs = 1; budget = Some 0. }
           q))

let test_portfolio_member_failure_is_typed () =
  (* 31 variables: exact raises its size cap the moment it starts. The
     crash must surface as a typed per-member failure (plus the
     portfolio.member_failed counter) while the surviving member's race
     completes normally. *)
  let q = target_qubo "1011010010110100101101001011010" in
  let t = Qsmt_util.Telemetry.collector () in
  let r =
    Portfolio.run
      ~params:
        {
          Portfolio.members =
            [ Sampler.exact ();
              Sampler.greedy ~params:{ Greedy.seed = 1; restarts = 4; domains = 1 } () ];
          jobs = 2;
          budget = None;
        }
      ~telemetry:t q
  in
  match r.Portfolio.reports with
  | [ ex; gr ] ->
    check Alcotest.string "exact first" "exact" ex.Portfolio.member_name;
    check Alcotest.bool "exact failed with typed message" true (ex.Portfolio.failed <> None);
    check Alcotest.bool "failed member not marked cancelled" false ex.Portfolio.cancelled;
    check Alcotest.bool "exact samples empty" true (Sampleset.is_empty ex.Portfolio.samples);
    check (Alcotest.option Alcotest.string) "greedy survived" None gr.Portfolio.failed;
    check Alcotest.bool "survivor produced reads" true
      (not (Sampleset.is_empty gr.Portfolio.samples));
    check Alcotest.bool "merged keeps survivor reads" true
      (not (Sampleset.is_empty r.Portfolio.merged));
    check (Alcotest.option Alcotest.int) "member_failed counter" (Some 1)
      (Qsmt_util.Telemetry.find_counter t "portfolio.member_failed")
  | reps -> Alcotest.failf "expected 2 reports, got %d" (List.length reps)

let test_portfolio_raising_verify_is_member_failure () =
  (* The verify predicate is caller code; when it raises during the
     post-run scan the member must report failure with its samples kept,
     not abort the race. *)
  let q = target_qubo "110100" in
  let r =
    Portfolio.run
      ~params:{ Portfolio.members = [ Sampler.exact () ]; jobs = 1; budget = None }
      ~verify:(fun _ -> failwith "verifier bug") q
  in
  match r.Portfolio.reports with
  | [ rep ] ->
    check Alcotest.bool "typed failure" true (rep.Portfolio.failed <> None);
    check Alcotest.bool "samples preserved" true (not (Sampleset.is_empty rep.Portfolio.samples))
  | reps -> Alcotest.failf "expected 1 report, got %d" (List.length reps)

let test_portfolio_sampler_integration () =
  let q = target_qubo "1101" in
  let s = Portfolio.sampler () in
  check Alcotest.string "name" "portfolio" (Sampler.name s);
  check (Alcotest.float 0.) "finds ground state" (-3.)
    (Sampleset.lowest_energy (Sampler.run s q));
  (* with_seed reseeds every member, and the reseeded portfolio still
     solves *)
  let s9 = Sampler.with_seed s 9 in
  check (Alcotest.float 0.) "reseeded solves" (-3.) (Sampleset.lowest_energy (Sampler.run s9 q))

(* ------------------------------------------------------------------ *)
(* Topology *)

let test_chimera_counts () =
  let t = Topology.chimera ~m:2 ~t:4 () in
  check Alcotest.int "qubits" 32 (Topology.num_qubits t);
  (* edges: 4 cells * 16 intra + vertical 2*4 + horizontal 2*4 = 64+16 = 80 *)
  check Alcotest.int "edges" 80 (Qgraph.num_edges (Topology.graph t))

let test_chimera_degree_bound () =
  let t = Topology.chimera ~m:3 ~t:4 () in
  check Alcotest.bool "degree <= t+2" true (Qgraph.max_degree (Topology.graph t) <= 6)

let test_chimera_coords_roundtrip () =
  let m = 3 and n = 2 and tt = 4 in
  let total = m * n * 2 * tt in
  for idx = 0 to total - 1 do
    let c = Topology.chimera_coord ~m ~n ~t:tt idx in
    check Alcotest.int "roundtrip" idx (Topology.chimera_index ~m ~n ~t:tt c)
  done

let test_king_counts () =
  let t = Topology.king ~rows:3 ~cols:3 in
  check Alcotest.int "qubits" 9 (Topology.num_qubits t);
  (* 3x3 king graph: 12 orthogonal + 8 diagonal = 20 *)
  check Alcotest.int "edges" 20 (Qgraph.num_edges (Topology.graph t));
  check Alcotest.int "center degree" 8 (Qgraph.degree (Topology.graph t) 4)

let test_complete_counts () =
  let t = Topology.complete 6 in
  check Alcotest.int "edges" 15 (Qgraph.num_edges (Topology.graph t))

let test_topologies_connected () =
  List.iter
    (fun t -> check (Alcotest.string) (Topology.name t ^ " connected") "yes"
        (if Qgraph.is_connected (Topology.graph t) then "yes" else "no"))
    [ Topology.chimera ~m:2 (); Topology.king ~rows:4 ~cols:3; Topology.complete 5 ]

(* ------------------------------------------------------------------ *)
(* Embedding *)

let test_embedding_identity_valid () =
  let problem = Qgraph.of_edges 3 [ (0, 1); (1, 2) ] in
  let hardware = Topology.graph (Topology.complete 3) in
  let e = Embedding.identity 3 in
  check (Alcotest.result Alcotest.unit Alcotest.string) "valid" (Ok ())
    (Embedding.validate ~problem ~hardware e)

let test_embedding_find_triangle_in_chimera () =
  (* K_3 does not embed 1:1 in bipartite Chimera; chains are required. *)
  let problem = Qgraph.of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  let hardware = Topology.graph (Topology.chimera ~m:1 ()) in
  match Embedding.find ~problem ~hardware () with
  | None -> Alcotest.fail "no embedding found for K3 in chimera(1)"
  | Some e ->
    check (Alcotest.result Alcotest.unit Alcotest.string) "valid" (Ok ())
      (Embedding.validate ~problem ~hardware e);
    check Alcotest.bool "some chain longer than 1" true (Embedding.max_chain_length e >= 1)

let test_embedding_find_k6_in_chimera2 () =
  let problem = Qgraph.of_edges 6 (List.concat_map (fun i -> List.init 6 (fun j -> (i, j))) (List.init 6 Fun.id) |> List.filter (fun (i, j) -> i < j)) in
  let hardware = Topology.graph (Topology.chimera ~m:2 ()) in
  match Embedding.find ~seed:1 ~tries:32 ~problem ~hardware () with
  | None -> Alcotest.fail "no embedding found for K6 in chimera(2)"
  | Some e ->
    check (Alcotest.result Alcotest.unit Alcotest.string) "valid" (Ok ())
      (Embedding.validate ~problem ~hardware e)

let test_embedding_impossible () =
  (* 5 vertices cannot fit in 3 qubits *)
  let problem = Qgraph.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let hardware = Topology.graph (Topology.complete 3) in
  check Alcotest.bool "fails" true (Embedding.find ~tries:4 ~problem ~hardware () = None)

let test_embedding_empty_problem () =
  let problem = Qgraph.create 0 in
  let hardware = Topology.graph (Topology.complete 2) in
  match Embedding.find ~problem ~hardware () with
  | None -> Alcotest.fail "empty problem should embed"
  | Some e -> check Alcotest.int "no chains" 0 (Embedding.num_problem_vars e)

let test_validate_catches_overlap () =
  let problem = Qgraph.of_edges 2 [ (0, 1) ] in
  let hardware = Topology.graph (Topology.complete 3) in
  (* both vertices claim qubit 0: build via identity then poke *)
  let bogus = Embedding.identity 2 in
  ignore bogus;
  (* identity maps 0->[0], 1->[1]; a valid case first *)
  check (Alcotest.result Alcotest.unit Alcotest.string) "identity fine" (Ok ())
    (Embedding.validate ~problem ~hardware (Embedding.identity 2))

let test_validate_catches_missing_edge () =
  let problem = Qgraph.of_edges 2 [ (0, 1) ] in
  (* hardware with no edge between 0 and 1 *)
  let hardware = Qgraph.create 2 in
  match Embedding.validate ~problem ~hardware (Embedding.identity 2) with
  | Ok () -> Alcotest.fail "should have failed"
  | Error msg -> check Alcotest.bool "mentions edge" true (String.length msg > 0)

(* ------------------------------------------------------------------ *)
(* Chain *)

let test_chain_default_strength () =
  let q = target_qubo "11" in
  check (Alcotest.float 0.) "2x max abs" 2. (Chain.default_strength q)

let test_chain_embed_energy_preserved () =
  (* Embed a 2-variable problem with both vars chained; unembedded ground
     state must match the logical ground state. *)
  let b = Qubo.builder () in
  Qubo.set b 0 0 (-1.);
  Qubo.set b 1 1 (-1.);
  Qubo.set b 0 1 2.;
  let q = Qubo.freeze b in
  let problem = Qgraph.of_qubo q in
  let hardware = Topology.graph (Topology.chimera ~m:1 ()) in
  match Embedding.find ~problem ~hardware () with
  | None -> Alcotest.fail "embedding failed"
  | Some e ->
    let physical = Chain.embed_qubo q ~embedding:e ~hardware ~chain_strength:4. in
    let logical_states, logical_energy = Exact.ground_states q in
    (* anneal the physical problem and unembed its best sample *)
    let s = Sa.sample ~params:{ sa_params with Sa.reads = 16; sweeps = 400 } physical in
    let unembedded = Chain.unembed ~embedding:e (Sampleset.best s).Sampleset.bits in
    check Alcotest.bool "ground state recovered" true
      (List.exists (fun g -> Bitvec.equal g unembedded) logical_states);
    check (Alcotest.float 1e-9) "logical energy matches" logical_energy (Qubo.energy q unembedded)

let test_chain_unembed_majority () =
  let e =
    (* chains: var 0 -> qubits {0,1,2}, var 1 -> {3} *)
    match
      Embedding.validate
        ~problem:(Qgraph.create 2)
        ~hardware:(Topology.graph (Topology.complete 4))
        (Embedding.identity 2)
    with
    | _ ->
      (* build by hand through find on a path problem to get real chains is
         overkill; use identity-style literal construction instead *)
      Embedding.identity 2
  in
  ignore e;
  (* majority vote via a hand-built 3-qubit chain using find *)
  let problem = Qgraph.of_edges 2 [ (0, 1) ] in
  let hardware = Qgraph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  (* force var chains by invoking find; on a path it must chain if needed *)
  match Embedding.find ~problem ~hardware () with
  | None -> Alcotest.fail "path embedding failed"
  | Some emb ->
    let sample = Bitvec.of_string "1111" in
    let logical = Chain.unembed ~embedding:emb sample in
    check Alcotest.string "all ones" "11" (Bitvec.to_string logical)

let test_chain_break_fraction () =
  let problem = Qgraph.of_edges 1 [] in
  let hardware = Qgraph.of_edges 2 [ (0, 1) ] in
  ignore problem;
  ignore hardware;
  (* one var chained over 2 qubits: broken sample "10" -> fraction 1 *)
  let emb_problem = Qgraph.of_edges 2 [ (0, 1) ] in
  let emb_hardware = Qgraph.of_edges 3 [ (0, 1); (1, 2) ] in
  match Embedding.find ~problem:emb_problem ~hardware:emb_hardware () with
  | None -> Alcotest.fail "embedding failed"
  | Some emb ->
    let n_qubits = Qgraph.num_vertices emb_hardware in
    let all_ones = Bitvec.init n_qubits (fun _ -> true) in
    check (Alcotest.float 0.) "agreeing chains unbroken" 0.
      (Chain.chain_break_fraction ~embedding:emb all_ones)

let test_unembed_tie_break_unbiased () =
  (* Even-length chains can tie the majority vote. The seed revision
     resolved every tie to 1 (2*ones >= len), biasing repaired reads
     toward all-ones; with an rng the tie must split roughly evenly. *)
  let emb = Embedding.of_chains [| [ 0; 1 ]; [ 2; 3 ] |] in
  let tied = Bitvec.of_string "1001" in
  (* no rng: deterministic, documented ties-to-one legacy behaviour *)
  check Alcotest.string "no rng ties to one" "11"
    (Bitvec.to_string (Chain.unembed ~embedding:emb tied));
  let trials = 500 in
  let ones = ref 0 in
  let rng = Prng.create 42 in
  for _ = 1 to trials do
    if Bitvec.get (Chain.unembed ~rng ~embedding:emb tied) 0 then incr ones
  done;
  (* binomial(500, 0.5): [175, 325] is > 11 sigma, flake-proof *)
  check Alcotest.bool "ties split evenly" true (!ones > 175 && !ones < 325);
  (* unanimous chains are untouched by the rng *)
  check Alcotest.string "unanimous unaffected" "10"
    (Bitvec.to_string (Chain.unembed ~rng ~embedding:emb (Bitvec.of_string "1100")))

let test_embedding_find_detailed () =
  let problem = Qgraph.of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  let hardware = Topology.graph (Topology.chimera ~m:1 ()) in
  (match Embedding.find_detailed ~problem ~hardware () with
  | None -> Alcotest.fail "K3 should embed in a chimera cell"
  | Some (e, tries) ->
    check Alcotest.bool "tries are 1-based" true (tries >= 1);
    check (Alcotest.result Alcotest.unit Alcotest.string) "embedding valid" (Ok ())
      (Embedding.validate ~problem ~hardware e));
  match Embedding.find_detailed ~problem:(Qgraph.create 0) ~hardware () with
  | Some (_, 0) -> ()
  | Some (_, n) -> Alcotest.failf "empty problem reported %d tries" n
  | None -> Alcotest.fail "empty problem should embed"

let test_validate_rejects_mutated_chains () =
  let problem = Qgraph.of_edges 2 [ (0, 1) ] in
  let hardware = Qgraph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  (* a valid baseline... *)
  check (Alcotest.result Alcotest.unit Alcotest.string) "baseline valid" (Ok ())
    (Embedding.validate ~problem ~hardware (Embedding.of_chains [| [ 0; 1 ]; [ 2 ] |]));
  (* ...then mutate it: overlapping chains (qubit 1 claimed twice) *)
  (match Embedding.validate ~problem ~hardware (Embedding.of_chains [| [ 0; 1 ]; [ 1; 2 ] |]) with
  | Ok () -> Alcotest.fail "overlapping chains must be rejected"
  | Error _ -> ());
  (* ...and a disconnected chain (qubits 0 and 2 are not adjacent) *)
  match Embedding.validate ~problem ~hardware (Embedding.of_chains [| [ 0; 2 ]; [ 3 ] |]) with
  | Ok () -> Alcotest.fail "disconnected chain must be rejected"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Hardware *)

let test_hardware_end_to_end () =
  let b = Qubo.builder () in
  Qubo.set b 0 0 (-1.);
  Qubo.set b 1 1 1.;
  Qubo.set b 2 2 (-1.);
  Qubo.set b 0 1 2.;
  Qubo.set b 1 2 2.;
  Qubo.set b 0 2 2.;
  let q = Qubo.freeze b in
  let params =
    { (Hardware.default_params (Topology.chimera ~m:1 ())) with
      Hardware.anneal = { sa_params with Sa.reads = 16; sweeps = 400 } }
  in
  let r = Hardware.sample ~params q in
  let s = r.Hardware.stats in
  check (Alcotest.float 1e-9) "finds logical ground" (Exact.minimum_energy q)
    (Sampleset.lowest_energy r.Hardware.samples);
  check Alcotest.int "whole topology size" 8 s.Hardware.hardware_qubits;
  (* the seed revision reported the whole graph (8) here; qubits_used
     must reflect the embedding, which cannot occupy fewer qubits than
     logical variables nor more than the graph *)
  check Alcotest.bool "qubits_used reflects embedding" true
    (s.Hardware.qubits_used >= 3 && s.Hardware.qubits_used <= 8);
  check Alcotest.bool "max chain covers usage" true
    (s.Hardware.max_chain_length >= 1 && s.Hardware.qubits_used <= 3 * s.Hardware.max_chain_length);
  check Alcotest.bool "chain break fraction in [0,1]" true
    (s.Hardware.mean_chain_break_fraction >= 0. && s.Hardware.mean_chain_break_fraction <= 1.)

let test_hardware_embedding_failure () =
  (* 10 variables cannot embed into complete(3) *)
  let b = Qubo.builder () in
  for i = 0 to 9 do
    Qubo.set b i i (-1.)
  done;
  for i = 0 to 8 do
    Qubo.set b i (i + 1) 1.
  done;
  let q = Qubo.freeze b in
  let params = Hardware.default_params (Topology.complete 3) in
  check Alcotest.bool "raises Embedding_failed" true
    (try
       ignore (Hardware.sample ~params q);
       false
     with Hardware.Embedding_failed _ -> true)

let test_hardware_noise_still_samples () =
  let q = target_qubo "101" in
  let params =
    { (Hardware.default_params (Topology.complete 3)) with
      Hardware.noise_sigma = 0.05;
      Hardware.anneal = { sa_params with Sa.reads = 8 } }
  in
  let r = Hardware.sample ~params q in
  check Alcotest.int "8 reads out" 8 (Sampleset.total_reads r.Hardware.samples)

(* a K4 that needs real chains on a chimera cell *)
let k4_qubo () =
  let b = Qubo.builder () in
  for i = 0 to 3 do
    Qubo.set b i i (-1.)
  done;
  for i = 0 to 3 do
    for j = i + 1 to 3 do
      Qubo.set b i j 2.
    done
  done;
  Qubo.freeze b

let test_hardware_embedding_cache () =
  Hardware.clear_embedding_cache ();
  let q = k4_qubo () in
  let params =
    { (Hardware.default_params (Topology.chimera ~m:1 ())) with
      Hardware.anneal = { sa_params with Sa.reads = 8; sweeps = 200 } }
  in
  let r1 = Hardware.sample ~params q in
  check Alcotest.bool "first solve misses" false r1.Hardware.stats.Hardware.embedding_cache_hit;
  let r2 = Hardware.sample ~params q in
  check Alcotest.bool "same shape hits" true r2.Hardware.stats.Hardware.embedding_cache_hit;
  check Alcotest.int "one structure cached" 1 (Hardware.embedding_cache_size ());
  (* cached and fresh runs agree bit for bit (same embedding, same seed) *)
  check Alcotest.bool "same samples" true
    (List.for_all2
       (fun a b -> Bitvec.equal a.Sampleset.bits b.Sampleset.bits)
       (Sampleset.entries r1.Hardware.samples)
       (Sampleset.entries r2.Hardware.samples));
  (* opting out leaves the cache alone *)
  Hardware.clear_embedding_cache ();
  let r3 = Hardware.sample ~params:{ params with Hardware.use_cache = false } q in
  check Alcotest.bool "uncached run misses" false r3.Hardware.stats.Hardware.embedding_cache_hit;
  check Alcotest.int "nothing cached" 0 (Hardware.embedding_cache_size ())

(* A K7 needs chains of length up to ~11 on chimera(3) — long enough that
   weak chain penalties reliably break them. *)
let k7_qubo () =
  let b = Qubo.builder () in
  for i = 0 to 6 do
    Qubo.set b i i (-1.)
  done;
  for i = 0 to 6 do
    for j = i + 1 to 6 do
      Qubo.set b i j 2.
    done
  done;
  Qubo.freeze b

let test_hardware_degradation_signal () =
  (* Absurdly weak pinned chains under heavy noise: chains break, the
     escalation loop is disabled, and the result must carry the typed
     degradation record instead of passing silently. *)
  let q = k7_qubo () in
  let params =
    { (Hardware.default_params (Topology.chimera ~m:3 ())) with
      Hardware.chain_strength = Some 1e-4;
      noise_sigma = 2.0;
      max_escalations = 0;
      anneal = { sa_params with Sa.reads = 16; sweeps = 200 } }
  in
  let r = Hardware.sample ~params q in
  match r.Hardware.stats.Hardware.degraded with
  | Some d ->
    check Alcotest.bool "break fraction over threshold" true
      (d.Hardware.break_fraction > d.Hardware.threshold);
    check Alcotest.int "no escalations spent" 0 d.Hardware.escalations
  | None -> Alcotest.fail "expected a degradation signal"

let test_hardware_adaptive_escalates () =
  let q = k7_qubo () in
  let params =
    { (Hardware.default_params (Topology.chimera ~m:3 ())) with
      Hardware.chain_strength = Some 1e-4;
      noise_sigma = 2.0;
      max_escalations = 3;
      anneal = { sa_params with Sa.reads = 16; sweeps = 200 } }
  in
  let r = Hardware.sample ~params q in
  let s = r.Hardware.stats in
  check Alcotest.bool "escalated at least once" true (s.Hardware.escalations >= 1);
  check Alcotest.bool "strength grew geometrically" true
    (s.Hardware.chain_strength > 1e-4
    && s.Hardware.chain_strength <= 1e-4 *. (2. ** float_of_int s.Hardware.escalations) *. 1.001);
  (* an adequate strength never escalates *)
  let ok = Hardware.sample ~params:{ params with Hardware.chain_strength = None; noise_sigma = 0. } q in
  check Alcotest.int "no escalation when healthy" 0 ok.Hardware.stats.Hardware.escalations;
  check Alcotest.bool "not degraded" true (ok.Hardware.stats.Hardware.degraded = None)

let test_hardware_auto_topology () =
  let q = k4_qubo () in
  check Alcotest.int "complete is exact" 4
    (Topology.num_qubits (Hardware.auto_topology ~kind:`Complete q));
  let t = Hardware.auto_topology ~kind:`Chimera q in
  check Alcotest.bool "chimera fits the problem" true (Topology.num_qubits t >= 4);
  (* the sizing probe's embedding is reusable: sampling on the returned
     topology must succeed *)
  let params =
    { (Hardware.default_params t) with Hardware.anneal = { sa_params with Sa.reads = 8 } }
  in
  check (Alcotest.float 1e-9) "solves on auto topology" (Exact.minimum_energy q)
    (Sampleset.lowest_energy (Hardware.sample ~params q).Hardware.samples)

let test_hardware_param_validation () =
  let q = target_qubo "1" in
  let base = Hardware.default_params (Topology.complete 2) in
  Alcotest.check_raises "break fraction range"
    (Invalid_argument "Hardware.sample: max_break_fraction must be in (0, 1]") (fun () ->
      ignore (Hardware.sample ~params:{ base with Hardware.max_break_fraction = 0. } q));
  Alcotest.check_raises "growth factor"
    (Invalid_argument "Hardware.sample: strength_growth must be > 1 when escalation is enabled")
    (fun () -> ignore (Hardware.sample ~params:{ base with Hardware.strength_growth = 1. } q));
  Alcotest.check_raises "negative escalations"
    (Invalid_argument "Hardware.sample: negative max_escalations") (fun () ->
      ignore (Hardware.sample ~params:{ base with Hardware.max_escalations = -1 } q))

let test_sampler_run_detailed_stats () =
  let q = target_qubo "110" in
  let hw =
    Sampler.hardware
      ~params:
        { (Hardware.default_params (Topology.complete 3)) with
          Hardware.anneal = { sa_params with Sa.reads = 8 } }
  in
  let samples, stats = Sampler.run_detailed hw q in
  check Alcotest.bool "hardware sampler reports stats" true (stats <> None);
  check Alcotest.bool "samples flow through" false (Sampleset.is_empty samples);
  let _, none = Sampler.run_detailed (Sampler.simulated_annealing ~params:sa_params ()) q in
  check Alcotest.bool "all-to-all samplers report none" true (none = None)

let test_portfolio_hardware_member () =
  let q = k4_qubo () in
  let hw_params =
    { (Hardware.default_params (Topology.chimera ~m:1 ())) with
      Hardware.anneal = { sa_params with Sa.reads = 8; sweeps = 200; domains = 1 } }
  in
  let params =
    { Portfolio.default with
      Portfolio.members =
        [ Sampler.simulated_annealing ~params:{ sa_params with Sa.domains = 1 } ();
          Sampler.hardware ~params:hw_params ] }
  in
  let r = Portfolio.run ~params q in
  let hw = List.find (fun rep -> rep.Portfolio.member_name = "hardware") r.Portfolio.reports in
  check Alcotest.bool "report carries stats" true (hw.Portfolio.hardware <> None);
  check Alcotest.bool "sa report has no stats" true
    ((List.find (fun rep -> rep.Portfolio.member_name = "sa") r.Portfolio.reports).Portfolio.hardware
    = None);
  check (Alcotest.float 1e-9) "merged set has the ground" (Exact.minimum_energy q)
    (Sampleset.lowest_energy r.Portfolio.merged)


(* ------------------------------------------------------------------ *)
(* Parallel tempering *)

let pt_params = { Pt.default with Pt.reads = 4; sweeps = 150; seed = 7 }

let test_pt_solves_diagonal () =
  let q = target_qubo "110100101" in
  let s = Pt.sample ~params:pt_params q in
  check (Alcotest.float 1e-9) "ground found" (Exact.minimum_energy q) (Sampleset.lowest_energy s)

let test_pt_deterministic () =
  let q = target_qubo "10110" in
  let s1 = Pt.sample ~params:pt_params q and s2 = Pt.sample ~params:pt_params q in
  check Alcotest.bool "same" true
    (List.for_all2
       (fun a b -> Bitvec.equal a.Sampleset.bits b.Sampleset.bits)
       (Sampleset.entries s1) (Sampleset.entries s2))

let test_pt_validation () =
  let q = target_qubo "1" in
  Alcotest.check_raises "replicas" (Invalid_argument "Pt.sample: replicas < 1") (fun () ->
      ignore (Pt.sample ~params:{ pt_params with Pt.replicas = 0 } q));
  Alcotest.check_raises "replicas past one word" (Invalid_argument "Pt.sample: replicas > 64")
    (fun () -> ignore (Pt.sample ~params:{ pt_params with Pt.replicas = 65 } q));
  let full = Pt.sample ~params:{ pt_params with Pt.reads = 3; sweeps = 20; replicas = 64 } q in
  check Alcotest.int "64 rungs, 3 reads" 3 (Sampleset.total_reads full);
  Alcotest.check_raises "beta range" (Invalid_argument "Pt.sample: bad beta_range") (fun () ->
      ignore (Pt.sample ~params:{ pt_params with Pt.beta_range = Some (2., 1.) } q));
  Alcotest.check_raises "exchange" (Invalid_argument "Pt.sample: exchange_interval < 1")
    (fun () -> ignore (Pt.sample ~params:{ pt_params with Pt.exchange_interval = 0 } q))

let test_pt_empty_problem () =
  let s = Pt.sample (Qubo.freeze (Qubo.builder ())) in
  check Alcotest.int "one empty sample" 1 (Sampleset.size s)

let prop_pt_finds_ground_small =
  qtest ~count:20 "PT reaches exact minimum on random small QUBOs" gen_small_qubo (fun q ->
      let s = Pt.sample ~params:{ pt_params with Pt.reads = 6; sweeps = 250 } q in
      Float.abs (Sampleset.lowest_energy s -. Exact.minimum_energy q) < 1e-9)

let test_pt_in_default_suite () =
  check Alcotest.bool "pt registered" true
    (List.exists (fun s -> Sampler.name s = "pt") (Sampler.default_suite ~seed:0))

let test_pt_with_seed () =
  let q = target_qubo "110101" in
  let pt = Sampler.parallel_tempering ~params:pt_params () in
  let s1 = Sampler.run (Sampler.with_seed pt 42) q in
  let s2 = Sampler.run (Sampler.with_seed pt 42) q in
  check Alcotest.bool "reseed deterministic" true
    (Sampleset.energies s1 = Sampleset.energies s2)


(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_success_probability () =
  let s = Sampleset.of_entries [ entry "01" 1. 3; entry "10" 5. 1 ] in
  check (Alcotest.float 1e-12) "3/4" 0.75 (Metrics.success_probability s ~ground_energy:1. ());
  check (Alcotest.float 1e-12) "with tol" 1.0
    (Metrics.success_probability s ~ground_energy:1. ~tol:10. ());
  check (Alcotest.float 0.) "empty" 0.
    (Metrics.success_probability Sampleset.empty ~ground_energy:0. ())

let test_metrics_repeats () =
  check (Alcotest.option Alcotest.int) "p=1" (Some 1)
    (Metrics.repeats_needed ~p_success:1. ~confidence:0.99);
  check (Alcotest.option Alcotest.int) "p=0" None
    (Metrics.repeats_needed ~p_success:0. ~confidence:0.99);
  (* p = 0.5, c = 0.99: 1-(0.5)^R >= 0.99 -> R >= 6.64 -> 7 *)
  check (Alcotest.option Alcotest.int) "p=0.5" (Some 7)
    (Metrics.repeats_needed ~p_success:0.5 ~confidence:0.99);
  Alcotest.check_raises "bad confidence" (Invalid_argument "Metrics: confidence must be in (0,1)")
    (fun () -> ignore (Metrics.repeats_needed ~p_success:0.5 ~confidence:1.))

let test_metrics_tts () =
  (match Metrics.time_to_solution ~time_per_read:0.01 ~p_success:0.5 () with
  | Some t -> check Alcotest.bool "about 66ms" true (t > 0.06 && t < 0.07)
  | None -> Alcotest.fail "expected finite TTS");
  check Alcotest.bool "p=0 infinite" true
    (Metrics.time_to_solution ~time_per_read:0.01 ~p_success:0. () = None);
  check Alcotest.bool "p=1 one read" true
    (Metrics.time_to_solution ~time_per_read:0.01 ~p_success:1. () = Some 0.01);
  Alcotest.check_raises "bad time" (Invalid_argument "Metrics.time_to_solution: non-positive time_per_read")
    (fun () -> ignore (Metrics.time_to_solution ~time_per_read:0. ~p_success:0.5 ()))

let test_metrics_residual () =
  let s = Sampleset.of_entries [ entry "01" 1. 1; entry "10" 3. 1 ] in
  (match Metrics.residual_energy s ~ground_energy:1. with
  | Some r -> check (Alcotest.float 1e-12) "mean above ground" 1. r
  | None -> Alcotest.fail "expected Some residual");
  check Alcotest.bool "empty set has no residual" true
    (Metrics.residual_energy Sampleset.empty ~ground_energy:0. = None)

(* ------------------------------------------------------------------ *)
(* Spinglass *)

let test_spinglass_random_shape () =
  let rng = Prng.create 3 in
  let graph = Topology.graph (Topology.king ~rows:3 ~cols:3) in
  let q = Spinglass.random_on_graph ~rng graph in
  check Alcotest.int "one var per vertex" 9 (Qubo.num_vars q);
  check Alcotest.int "one coupler per edge" (Qgraph.num_edges graph) (Qubo.num_interactions q)

let test_spinglass_planted_is_ground () =
  let rng = Prng.create 11 in
  let graph = Topology.graph (Topology.king ~rows:3 ~cols:3) in
  let q, target, energy = Spinglass.planted ~rng graph in
  check (Alcotest.float 1e-9) "target attains claimed energy" energy (Qubo.energy q target);
  (* no assignment can beat it: every edge term is individually minimal;
     cross-check with SA *)
  let s = Sa.sample ~params:{ sa_params with Sa.reads = 16; sweeps = 400 } q in
  check Alcotest.bool "SA cannot beat the plant" true
    (Sampleset.lowest_energy s >= energy -. 1e-9);
  check (Alcotest.float 0.) "plant is unfrustrated" 0. (Spinglass.frustration_index q target)

let test_spinglass_planted_gaussian () =
  let rng = Prng.create 5 in
  let graph = Topology.graph (Topology.complete 6) in
  let q, target, energy = Spinglass.planted ~rng ~coupling:Spinglass.Gaussian graph in
  check (Alcotest.float 1e-9) "energy consistent" energy (Qubo.energy q target);
  check (Alcotest.float 1e-9) "exact agrees" energy (Exact.minimum_energy q)

let test_spinglass_random_is_frustrated_sometimes () =
  (* a +-J instance on a triangle with an odd number of negative edges is
     frustrated; statistically some draw should show nonzero frustration
     at its own ground state *)
  let rng = Prng.create 7 in
  let graph = Qgraph.of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  let found = ref false in
  for _ = 1 to 20 do
    let q = Spinglass.random_on_graph ~rng graph in
    let states, _ = Exact.ground_states q in
    if Spinglass.frustration_index q (List.hd states) > 0. then found := true
  done;
  check Alcotest.bool "frustration occurs" true !found

(* ------------------------------------------------------------------ *)
(* Convergence *)

let test_convergence_monotone_best () =
  let q = target_qubo "110100101" in
  let t = Convergence.sa_trajectory ~reads:8 ~sweeps:100 ~seed:3 q in
  check Alcotest.int "right length" 100 (Array.length t.Convergence.mean_best);
  for k = 1 to 99 do
    if t.Convergence.mean_best.(k) > t.Convergence.mean_best.(k - 1) +. 1e-9 then
      Alcotest.fail "best-so-far must be non-increasing"
  done;
  check (Alcotest.float 1e-9) "reaches ground" (Exact.minimum_energy q) t.Convergence.final_best

let test_convergence_sweeps_to_reach () =
  let q = target_qubo "1101" in
  let t = Convergence.sa_trajectory ~reads:8 ~sweeps:200 ~seed:1 q in
  (match Convergence.sweeps_to_reach t ~target:(Exact.minimum_energy q) () with
  | Some k -> check Alcotest.bool "within schedule" true (k < 200)
  | None -> Alcotest.fail "should reach the ground state");
  check Alcotest.bool "unreachable target" true
    (Convergence.sweeps_to_reach t ~target:(-1000.) () = None)

let test_convergence_validation () =
  Alcotest.check_raises "empty problem"
    (Invalid_argument "Convergence.sa_trajectory: empty problem") (fun () ->
      ignore (Convergence.sa_trajectory (Qubo.freeze (Qubo.builder ()))))


let test_sa_explicit_schedule () =
  let q = target_qubo "1101" in
  let schedule = Schedule.make ~beta_hot:0.05 ~beta_cold:20. ~sweeps:300 () in
  let s = Sa.sample ~params:{ sa_params with Sa.schedule = Some schedule } q in
  check (Alcotest.float 1e-9) "solves with explicit schedule" (Exact.minimum_energy q)
    (Sampleset.lowest_energy s)

let test_sqa_beta_validation () =
  Alcotest.check_raises "beta <= 0" (Invalid_argument "Sqa.sample: beta <= 0") (fun () ->
      ignore (Sqa.sample ~params:{ Sqa.default with Sqa.beta = Some 0. } (target_qubo "1")))

let test_hardware_negative_noise_rejected () =
  let params = { (Hardware.default_params (Topology.complete 3)) with Hardware.noise_sigma = -0.1 } in
  Alcotest.check_raises "negative sigma" (Invalid_argument "Hardware.sample: negative noise_sigma")
    (fun () -> ignore (Hardware.sample ~params (target_qubo "101")))

let test_hardware_sampler_wrapper () =
  let q = target_qubo "110" in
  let sampler =
    Sampler.hardware
      ~params:
        { (Hardware.default_params (Topology.complete 3)) with
          Hardware.anneal = { sa_params with Sa.reads = 8 } }
  in
  check (Alcotest.float 1e-9) "wrapper finds ground" (Exact.minimum_energy q)
    (Sampleset.lowest_energy (Sampler.run sampler q))

let test_schedule_accessors () =
  let s = Schedule.make ~kind:Schedule.Linear ~beta_hot:1. ~beta_cold:2. ~sweeps:3 () in
  check Alcotest.bool "kind" true (Schedule.kind s = Schedule.Linear);
  check Alcotest.bool "pp nonempty" true
    (String.length (Format.asprintf "%a" Schedule.pp s) > 0)

let test_sampleset_pp () =
  let s = Sampleset.of_entries [ entry "10" 1. 2 ] in
  let rendered = Format.asprintf "%a" Sampleset.pp s in
  check Alcotest.bool "mentions reads" true (String.length rendered > 10);
  check Alcotest.bool "empty renders" true
    (String.length (Format.asprintf "%a" Sampleset.pp Sampleset.empty) > 0)

(* ------------------------------------------------------------------ *)
(* Incremental-PR regressions: schedule fallback, single-replica /
   single-sweep edges, stack-safe truncate, warm starts *)

let test_schedule_coupler_only_range () =
  (* All fields exactly zero, one coupler: Q_01 = 4, Q_00 = Q_11 = -2
     maps to h = 0, J_01 = 1 under x = (1+s)/2. The range used to fall
     into the hardcoded (0.1, 10.) fallback whenever max_abs_field-like
     heuristics saw no usable signal; the row sums derive it fine. *)
  let b = Qubo.builder () in
  Qubo.set b 0 0 (-2.);
  Qubo.set b 1 1 (-2.);
  Qubo.set b 0 1 4.;
  let ising = Ising.of_qubo (Qubo.freeze b) in
  check (Alcotest.float 1e-12) "field 0" 0. (Ising.field ising 0);
  check (Alcotest.float 1e-12) "field 1" 0. (Ising.field ising 1);
  let hot, cold = Schedule.default_beta_range ising in
  (* reach = |h| + Σ|J| = 1 per spin, max_delta = 2, min_delta = 2 *)
  check (Alcotest.float 1e-12) "hot from rows" (Float.log 2. /. 2.) hot;
  check (Alcotest.float 1e-12) "cold from rows" (Float.log 100. /. 2.) cold;
  (* The fallback survives only for a genuinely flat problem (every
     coefficient zero -> no flip ever changes the energy). *)
  let flat = Qubo.builder () in
  Qubo.set flat 0 0 0.;
  check (Alcotest.pair (Alcotest.float 0.) (Alcotest.float 0.)) "flat fallback" (0.1, 10.)
    (Schedule.default_beta_range (Ising.of_qubo (Qubo.freeze ~num_vars:2 flat)))

let test_pt_single_replica () =
  (* replicas = 1 used to divide by zero in the hand-rolled geometric
     ladder (1 / (k - 1)) and produce inf/NaN betas. *)
  let q = target_qubo "110" in
  let s = Pt.sample ~params:{ pt_params with Pt.replicas = 1; sweeps = 300 } q in
  check Alcotest.bool "nonempty" true (Sampleset.size s > 0);
  Array.iter
    (fun e -> check Alcotest.bool "finite energy" true (Float.is_finite e))
    (Sampleset.energies s);
  check (Alcotest.float 1e-9) "still solves" (Exact.minimum_energy q)
    (Sampleset.lowest_energy s)

let test_sqa_single_sweep () =
  (* Audit companion to the Pt fix: Sqa's gamma ratio guards sweeps = 1
     before the (sweeps - 1) divisor. *)
  let q = target_qubo "11" in
  let s = Sqa.sample ~params:{ Sqa.default with Sqa.reads = 2; sweeps = 1 } q in
  Array.iter
    (fun e -> check Alcotest.bool "finite energy" true (Float.is_finite e))
    (Sampleset.energies s)

let test_sampleset_truncate_huge () =
  (* The old non-tail [take] blew the stack around this size. *)
  let n = 300_000 in
  let entries =
    List.init n (fun i ->
        {
          Sampleset.bits = Bitvec.init 32 (fun k -> (i lsr k) land 1 = 1);
          energy = float_of_int i;
          occurrences = 1;
        })
  in
  let s = Sampleset.of_entries entries in
  let t = Sampleset.truncate (n - 1) s in
  check Alcotest.int "kept n-1" (n - 1) (Sampleset.size t);
  check (Alcotest.float 0.) "prefix preserved" 0. (Sampleset.lowest_energy t)

let test_sampleset_energies_empty () =
  check Alcotest.int "empty energies" 0 (Array.length (Sampleset.energies Sampleset.empty))

let prop_sampleset_truncate =
  qtest ~count:100 "truncate k = first min(k, size) entries"
    QCheck2.Gen.(pair (int_range 0 20) (list_size (int_range 0 12) (int_range 0 7)))
    (fun (k, xs) ->
      let s =
        Sampleset.of_entries
          (List.map
             (fun x ->
               {
                 Sampleset.bits = Bitvec.init 3 (fun b -> (x lsr b) land 1 = 1);
                 energy = float_of_int x;
                 occurrences = 1;
               })
             xs)
      in
      let t = Sampleset.truncate k s in
      Sampleset.size t = min k (Sampleset.size s)
      && Sampleset.entries t
         = List.filteri (fun i _ -> i < k) (Sampleset.entries s))

let test_init_length_validation () =
  let q = target_qubo "1101" in
  let bad = Bitvec.create 3 in
  List.iter
    (fun (who, f) ->
      Alcotest.check_raises who
        (Invalid_argument (who ^ ": init has 3 bits, problem has 4 vars"))
        (fun () -> ignore (f ())))
    [
      ("Sa.sample", fun () -> Sa.sample ~init:bad q);
      ("Sa.run_packed", fun () -> Sa.run_packed ~init:bad q);
      ("Sqa.sample", fun () -> Sqa.sample ~init:bad q);
      ("Pt.sample", fun () -> Pt.sample ~init:bad q);
      ("Tabu.sample", fun () -> Tabu.sample ~init:bad q);
      ("Greedy.sample", fun () -> Greedy.sample ~init:bad q);
    ]

(* The read contract of [Reads], checked once per sampler that reads
   through it (and for the hardware path, which reads through SA). Each
   row builds the sampler at a given [domains]; [budget] is its read
   count. sa_packed asks for 70 reads: one full 64-lane group plus a
   masked tail group. *)
let test_read_driver_contract () =
  let q = target_qubo "101101" in
  let ground = Bitvec.of_string "101101" in
  let verify bits = Bitvec.equal bits ground in
  let rows =
    [
      ( "sa", 16,
        fun domains ->
          Sampler.simulated_annealing ~params:{ sa_params with Sa.domains } () );
      ( "sa_packed", 70,
        fun domains ->
          Sampler.simulated_annealing_packed
            ~params:{ sa_params with Sa.reads = 70; domains } () );
      ( "sqa", 8,
        fun domains ->
          Sampler.simulated_quantum_annealing
            ~params:{ Sqa.default with Sqa.reads = 8; sweeps = 100; seed = 7; domains } () );
      ( "pt", 8,
        fun domains ->
          Sampler.parallel_tempering
            ~params:{ Pt.default with Pt.reads = 8; sweeps = 100; seed = 7; domains } () );
      ( "tabu", 8,
        fun domains ->
          Sampler.tabu
            ~params:{ Tabu.default with Tabu.restarts = 8; iterations = 100; seed = 7; domains } () );
      ( "greedy", 16,
        fun domains -> Sampler.greedy ~params:{ Greedy.restarts = 16; seed = 7; domains } () );
      ( "hardware", 16,
        fun domains ->
          Sampler.hardware
            ~params:
              { (Hardware.default_params (Topology.complete 6)) with
                Hardware.anneal = { sa_params with Sa.domains } } );
    ]
  in
  let entries s =
    List.map
      (fun e -> (Bitvec.to_string e.Sampleset.bits, e.Sampleset.energy, e.Sampleset.occurrences))
      (Sampleset.entries s)
  in
  List.iter
    (fun (name, budget, make) ->
      let s1 = make 1 in
      check Alcotest.string "name" name (Sampler.name s1);
      let full = Sampler.run s1 q in
      check Alcotest.int (name ^ ": full budget") budget (Sampleset.total_reads full);
      check Alcotest.bool (name ^ ": domains 1 = domains 2") true
        (entries full = entries (Sampler.run (make 2) q));
      let early = Sampler.run ~verify ~init:ground ~early_exit:true s1 q in
      check Alcotest.bool
        (Printf.sprintf "%s: early exit (%d of %d reads)" name (Sampleset.total_reads early) budget)
        true
        (Sampleset.total_reads early < budget);
      check Alcotest.bool (name ^ ": early set holds the ground") true
        (List.exists (fun e -> verify e.Sampleset.bits) (Sampleset.entries early));
      let stopped, _ =
        s1.Sampler.sample ~stop:(fun () -> true) ~telemetry:Qsmt_util.Telemetry.null q
      in
      check Alcotest.bool (name ^ ": stop before the first read") true (Sampleset.is_empty stopped);
      let seen = ref 0 in
      let observed, _ =
        s1.Sampler.sample ~on_read:(fun _ -> incr seen) ~telemetry:Qsmt_util.Telemetry.null q
      in
      check Alcotest.int (name ^ ": on_read once per read") (Sampleset.total_reads observed) !seen)
    rows

let test_greedy_init_respected () =
  (* A single restart seeded at the global minimum must return exactly
     it: descent from a ground state has no improving move. *)
  let q = target_qubo "101101" in
  let ground = Bitvec.of_string "101101" in
  let s =
    Greedy.sample ~params:{ Greedy.default with Greedy.restarts = 1 } ~init:ground q
  in
  let best = Sampleset.best s in
  check Alcotest.string "returns the seed" "101101" (Bitvec.to_string best.Sampleset.bits);
  check (Alcotest.float 1e-12) "at ground energy" (Exact.minimum_energy q)
    best.Sampleset.energy

let test_sampler_early_exit () =
  (* With a verifier and early_exit, heuristic samplers stop after the
     first verified read instead of completing every read. *)
  let q = target_qubo "11010" in
  let ground = Bitvec.of_string "11010" in
  let sampler = Sampler.simulated_annealing ~params:{ sa_params with Sa.reads = 32 } () in
  let verify bits = Bitvec.equal bits ground in
  let s = Sampler.run ~verify ~init:ground ~early_exit:true sampler q in
  check Alcotest.bool "stopped early" true (Sampleset.total_reads s < 32);
  check Alcotest.bool "found ground" true
    (List.exists (fun e -> Bitvec.equal e.Sampleset.bits ground) (Sampleset.entries s));
  (* Without early_exit the full read count is preserved. *)
  let full = Sampler.run ~verify sampler q in
  check Alcotest.int "no early exit by default" 32 (Sampleset.total_reads full)

let allocation_problems () =
  [
    ("palindrome 8", Compile.to_qubo (Constr.Palindrome { length = 8 }));
    ( "chimera C(4)",
      Spinglass.random_on_graph ~rng:(Prng.create 3) (Topology.graph (Topology.chimera ~m:4 ()))
    );
  ]

(* The allocation gate: minor words per flip proposal of one sampler
   call (one domain, telemetry off), a deterministic count. Neither SA
   sweep allocates, so what remains is per-read and per-solve setup; the
   packed row counts lane-proposals (0.006 and 0.005 measured here, where
   a boxed float per boundary-octave lane once made it 0.29). *)
let test_sampler_words_per_proposal () =
  let sweeps = 500 in
  let problems = allocation_problems () in
  let rows =
    [
      ("Sa.sample", 8, 0.25, fun params q -> Sa.sample ~params q);
      ("Sa.run_packed", 64, 0.02, fun params q -> Sa.run_packed ~params q);
    ]
  in
  List.iter
    (fun (problem, q) ->
      List.iter
        (fun (who, reads, limit, run) ->
          let params = { Sa.default with Sa.reads; sweeps; domains = 1 } in
          let w0 = Gc.minor_words () in
          ignore (Sys.opaque_identity (run params q));
          let words = Gc.minor_words () -. w0 in
          let per_proposal = words /. float_of_int (reads * sweeps * Qubo.num_vars q) in
          if not (per_proposal < limit) then
            Alcotest.failf "%s on %s: %.3f minor words per proposal, limit %g" who problem
              per_proposal limit)
        rows)
    problems

(* A sweep allocates nothing: 500 more sweeps per read cost only the
   longer schedule's once-per-solve setup (1,000 words). One boxed float
   per sweep would be 8,000 words for 8 scalar reads; the packed sweep's
   64 lanes once cost ~1,000 words per sweep on palindrome 8. *)
let test_sampler_sweeps_allocate_nothing () =
  let words run reads sweeps q =
    let params = { Sa.default with Sa.reads; sweeps; domains = 1 } in
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (run ~params q));
    Gc.minor_words () -. w0
  in
  List.iter
    (fun (problem, q) ->
      List.iter
        (fun (who, reads, run) ->
          ignore (words run reads 500 q);
          let extra = words run reads 1000 q -. words run reads 500 q in
          if not (extra < 2000.) then
            Alcotest.failf "%s on %s: %d reads x 500 extra sweeps cost %.0f minor words, limit 2000"
              who problem reads extra)
        [
          ("Sa.sample", 8, fun ~params q -> Sa.sample ~params q);
          ("Sa.run_packed", 64, fun ~params q -> Sa.run_packed ~params q);
        ])
    (allocation_problems ())

(* Tracing costs what it records: the sweep observer reads the energy
   only on the sweeps it emits as [sa.sweep], and builds no events for a
   sink that drops them, so a solve under [aggregate_only] allocates
   about what an untraced one does. Boxing every sweep's energy made it
   156,375 minor words against 12,690. *)
let test_traced_sweeps_allocate_little () =
  let q = Compile.to_qubo (Constr.Palindrome { length = 6 }) in
  let params = { Sa.default with Sa.reads = 32; sweeps = 1000; domains = 1 } in
  let words telemetry =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Sa.sample ~params ~telemetry q));
    Gc.minor_words () -. w0
  in
  ignore (words Telemetry.null);
  let untraced = words Telemetry.null in
  let traced = words (Telemetry.aggregate_only ()) in
  if not (traced -. untraced < 5000.) then
    Alcotest.failf "traced solve: %.0f minor words, untraced %.0f; limit 5000 more" traced
      untraced

let () =
  Alcotest.run "qsmt_anneal"
    [
      ( "sampleset",
        [
          Alcotest.test_case "aggregation" `Quick test_sampleset_aggregation;
          Alcotest.test_case "aggregate keeps min energy" `Quick
            test_sampleset_aggregate_min_energy;
          Alcotest.test_case "of_bits" `Quick test_sampleset_of_bits;
          Alcotest.test_case "empty" `Quick test_sampleset_empty;
          Alcotest.test_case "energies sorted" `Quick test_sampleset_energies_sorted;
          Alcotest.test_case "merge/truncate/filter" `Quick test_sampleset_merge_truncate_filter;
          Alcotest.test_case "ground probability" `Quick test_sampleset_ground_probability;
          Alcotest.test_case "truncate huge (stack-safe)" `Quick test_sampleset_truncate_huge;
          Alcotest.test_case "energies on empty" `Quick test_sampleset_energies_empty;
          prop_sampleset_truncate;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "geometric" `Quick test_schedule_geometric;
          Alcotest.test_case "linear" `Quick test_schedule_linear;
          Alcotest.test_case "monotone" `Quick test_schedule_monotone;
          Alcotest.test_case "single sweep" `Quick test_schedule_single_sweep;
          Alcotest.test_case "validation" `Quick test_schedule_validation;
          Alcotest.test_case "auto range" `Quick test_schedule_auto_range;
          Alcotest.test_case "coupler-only range" `Quick test_schedule_coupler_only_range;
        ] );
      ( "exact",
        [
          Alcotest.test_case "finds target" `Quick test_exact_finds_target;
          Alcotest.test_case "degenerate ground" `Quick test_exact_degenerate_ground;
          Alcotest.test_case "solve sorted" `Quick test_exact_solve_sorted;
          Alcotest.test_case "minimum energy" `Quick test_exact_minimum_energy;
          Alcotest.test_case "size cap" `Quick test_exact_size_cap;
          Alcotest.test_case "offset respected" `Quick test_exact_offset_respected;
        ] );
      ( "sa",
        [
          Alcotest.test_case "solves diagonal" `Quick test_sa_solves_diagonal;
          Alcotest.test_case "deterministic" `Quick test_sa_deterministic_given_seed;
          Alcotest.test_case "parallel = sequential" `Quick test_sa_parallel_matches_sequential;
          Alcotest.test_case "total reads" `Quick test_sa_total_reads;
          Alcotest.test_case "empty problem" `Quick test_sa_empty_problem;
          Alcotest.test_case "postprocess local min" `Quick test_sa_postprocess_at_local_min;
          Alcotest.test_case "validation" `Quick test_sa_validation;
          prop_sa_finds_ground_small;
        ] );
      ( "sqa",
        [
          Alcotest.test_case "solves diagonal" `Quick test_sqa_solves_diagonal;
          Alcotest.test_case "deterministic" `Quick test_sqa_deterministic;
          Alcotest.test_case "validation" `Quick test_sqa_validation;
          Alcotest.test_case "single sweep" `Quick test_sqa_single_sweep;
          prop_sqa_finds_ground_small;
        ] );
      ( "tabu",
        [
          Alcotest.test_case "solves diagonal" `Quick test_tabu_solves_diagonal;
          Alcotest.test_case "idle variables do not stall it" `Quick test_tabu_leaves_idle_variables;
          Alcotest.test_case "validation" `Quick test_tabu_validation;
          prop_tabu_finds_ground_small;
        ] );
      ( "pt",
        [
          Alcotest.test_case "solves diagonal" `Quick test_pt_solves_diagonal;
          Alcotest.test_case "deterministic" `Quick test_pt_deterministic;
          Alcotest.test_case "validation" `Quick test_pt_validation;
          Alcotest.test_case "empty problem" `Quick test_pt_empty_problem;
          Alcotest.test_case "in default suite" `Quick test_pt_in_default_suite;
          Alcotest.test_case "with_seed" `Quick test_pt_with_seed;
          Alcotest.test_case "single replica" `Quick test_pt_single_replica;
          prop_pt_finds_ground_small;
        ] );
      ( "greedy",
        [
          Alcotest.test_case "solves easy" `Quick test_greedy_solves_easy;
          Alcotest.test_case "descent monotone" `Quick test_greedy_descend_monotone;
          Alcotest.test_case "init respected" `Quick test_greedy_init_respected;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "interface" `Quick test_sampler_interface;
          Alcotest.test_case "with_seed" `Quick test_sampler_with_seed;
          Alcotest.test_case "custom" `Quick test_sampler_custom;
          Alcotest.test_case "init length validation" `Quick test_init_length_validation;
          Alcotest.test_case "early exit" `Quick test_sampler_early_exit;
          Alcotest.test_case "read driver contract" `Quick test_read_driver_contract;
          Alcotest.test_case "words per proposal" `Quick test_sampler_words_per_proposal;
          Alcotest.test_case "sweeps allocate nothing" `Quick test_sampler_sweeps_allocate_nothing;
          Alcotest.test_case "traced sweeps allocate little" `Quick
            test_traced_sweeps_allocate_little;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "deterministic across jobs" `Quick
            test_portfolio_deterministic_across_jobs;
          Alcotest.test_case "early exit wins" `Quick test_portfolio_early_exit_wins;
          Alcotest.test_case "budget cuts slow member" `Quick
            test_portfolio_budget_cuts_slow_member;
          Alcotest.test_case "validation" `Quick test_portfolio_validation;
          Alcotest.test_case "crashed member -> typed failure" `Quick
            test_portfolio_member_failure_is_typed;
          Alcotest.test_case "raising verify -> typed failure" `Quick
            test_portfolio_raising_verify_is_member_failure;
          Alcotest.test_case "sampler integration" `Quick test_portfolio_sampler_integration;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "sa explicit schedule" `Quick test_sa_explicit_schedule;
          Alcotest.test_case "sqa beta validation" `Quick test_sqa_beta_validation;
          Alcotest.test_case "hardware negative noise" `Quick
            test_hardware_negative_noise_rejected;
          Alcotest.test_case "hardware sampler wrapper" `Quick test_hardware_sampler_wrapper;
          Alcotest.test_case "schedule accessors" `Quick test_schedule_accessors;
          Alcotest.test_case "sampleset pp" `Quick test_sampleset_pp;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "success probability" `Quick test_metrics_success_probability;
          Alcotest.test_case "repeats needed" `Quick test_metrics_repeats;
          Alcotest.test_case "time to solution" `Quick test_metrics_tts;
          Alcotest.test_case "residual energy" `Quick test_metrics_residual;
        ] );
      ( "spinglass",
        [
          Alcotest.test_case "random shape" `Quick test_spinglass_random_shape;
          Alcotest.test_case "planted is ground" `Quick test_spinglass_planted_is_ground;
          Alcotest.test_case "planted gaussian" `Quick test_spinglass_planted_gaussian;
          Alcotest.test_case "frustration occurs" `Quick test_spinglass_random_is_frustrated_sometimes;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "monotone best" `Quick test_convergence_monotone_best;
          Alcotest.test_case "sweeps to reach" `Quick test_convergence_sweeps_to_reach;
          Alcotest.test_case "validation" `Quick test_convergence_validation;
        ] );
      ( "topology",
        [
          Alcotest.test_case "chimera counts" `Quick test_chimera_counts;
          Alcotest.test_case "chimera degree" `Quick test_chimera_degree_bound;
          Alcotest.test_case "chimera coords" `Quick test_chimera_coords_roundtrip;
          Alcotest.test_case "king counts" `Quick test_king_counts;
          Alcotest.test_case "complete counts" `Quick test_complete_counts;
          Alcotest.test_case "connected" `Quick test_topologies_connected;
        ] );
      ( "embedding",
        [
          Alcotest.test_case "identity valid" `Quick test_embedding_identity_valid;
          Alcotest.test_case "K3 in chimera" `Quick test_embedding_find_triangle_in_chimera;
          Alcotest.test_case "K6 in chimera(2)" `Quick test_embedding_find_k6_in_chimera2;
          Alcotest.test_case "impossible" `Quick test_embedding_impossible;
          Alcotest.test_case "empty problem" `Quick test_embedding_empty_problem;
          Alcotest.test_case "validate identity" `Quick test_validate_catches_overlap;
          Alcotest.test_case "validate missing edge" `Quick test_validate_catches_missing_edge;
          Alcotest.test_case "find_detailed" `Quick test_embedding_find_detailed;
          Alcotest.test_case "validate rejects mutated chains" `Quick
            test_validate_rejects_mutated_chains;
        ] );
      ( "chain",
        [
          Alcotest.test_case "default strength" `Quick test_chain_default_strength;
          Alcotest.test_case "embed preserves ground" `Quick test_chain_embed_energy_preserved;
          Alcotest.test_case "unembed majority" `Quick test_chain_unembed_majority;
          Alcotest.test_case "break fraction" `Quick test_chain_break_fraction;
          Alcotest.test_case "unembed tie break unbiased" `Quick test_unembed_tie_break_unbiased;
        ] );
      ( "hardware",
        [
          Alcotest.test_case "end to end" `Quick test_hardware_end_to_end;
          Alcotest.test_case "embedding failure" `Quick test_hardware_embedding_failure;
          Alcotest.test_case "noise" `Quick test_hardware_noise_still_samples;
          Alcotest.test_case "embedding cache" `Quick test_hardware_embedding_cache;
          Alcotest.test_case "degradation signal" `Quick test_hardware_degradation_signal;
          Alcotest.test_case "adaptive escalation" `Quick test_hardware_adaptive_escalates;
          Alcotest.test_case "auto topology" `Quick test_hardware_auto_topology;
          Alcotest.test_case "param validation" `Quick test_hardware_param_validation;
          Alcotest.test_case "run_detailed stats" `Quick test_sampler_run_detailed_stats;
          Alcotest.test_case "portfolio hardware member" `Quick test_portfolio_hardware_member;
        ] );
    ]
