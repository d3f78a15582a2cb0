(* Tests for the static encoding linter: Qsmt_qubo.Analyze (matrix-only
   checks, exhaustive enumeration) and Qsmt_strtheory.Lint (oracle
   soundness, penalty gaps, chain adequacy, the pre-sample gate).

   The regression core: all six Table 1 constraints lint free of errors
   (the indexOf soft-bias warning is by design), and seeded single-site
   mutations of their QUBOs are detected at the right severity. *)

module Bitvec = Qsmt_util.Bitvec
module Telemetry = Qsmt_util.Telemetry
module Qubo = Qsmt_qubo.Qubo
module Analyze = Qsmt_qubo.Analyze
module Constr = Qsmt_strtheory.Constr
module Compile = Qsmt_strtheory.Compile
module Params = Qsmt_strtheory.Params
module Lint = Qsmt_strtheory.Lint
module Solver = Qsmt_strtheory.Solver
module Workload = Qsmt_strtheory.Workload
module Rparser = Qsmt_regex.Parser

let check = Alcotest.check

let table1 =
  [
    Constr.Reverse "hello";
    Constr.Palindrome { length = 6 };
    Constr.Regex { pattern = Rparser.parse_exn "a[bc]+"; length = 5 };
    Constr.Concat [ "hello"; " "; "world" ];
    Constr.Index_of { length = 6; substring = "hi"; index = 2; first = false };
    Constr.Includes { haystack = "hello world"; needle = "world" };
  ]

let has_check tag findings = List.exists (fun f -> f.Analyze.check = tag) findings
let errors findings = Analyze.count_severity findings Analyze.Error

(* Deterministic damage, mirroring `qsmt lint --mutate`. *)
let zero_first_penalty q =
  let b = Qubo.builder () in
  Qubo.set_offset b (Qubo.offset q);
  let dropped = ref false in
  Qubo.iter_linear q (fun i v -> if not !dropped then dropped := true else Qubo.set b i i v);
  Qubo.iter_quadratic q (fun i j v -> Qubo.set b i j v);
  Qubo.freeze ~num_vars:(Qubo.num_vars q) b

let flip_first_coupler q =
  let b = Qubo.builder () in
  Qubo.set_offset b (Qubo.offset q);
  let flipped = ref false in
  Qubo.iter_linear q (fun i v -> Qubo.set b i i v);
  Qubo.iter_quadratic q (fun i j v ->
      if not !flipped then begin
        flipped := true;
        Qubo.set b i j (-.v)
      end
      else Qubo.set b i j v);
  Qubo.freeze ~num_vars:(Qubo.num_vars q) b

(* ------------------------------------------------------------------ *)
(* Analyze: matrix-only checks *)

let test_analyze_finite () =
  let b = Qubo.builder () in
  Qubo.set b 0 0 Float.nan;
  Qubo.set b 0 1 1.;
  let findings = Analyze.check_finite (Qubo.freeze b) in
  check Alcotest.int "one error" 1 (errors findings);
  check Alcotest.bool "tagged" true (has_check "non-finite-coefficient" findings)

let test_analyze_dynamic_range () =
  let b = Qubo.builder () in
  Qubo.set b 0 0 1e6;
  Qubo.set b 1 1 1e-6;
  let q = Qubo.freeze b in
  check Alcotest.bool "wide range flagged" true
    (has_check "dynamic-range" (Analyze.check_dynamic_range q));
  let b2 = Qubo.builder () in
  Qubo.set b2 0 0 2.;
  Qubo.set b2 1 1 1.;
  check (Alcotest.list Alcotest.string) "narrow range clean" []
    (List.map (fun f -> f.Analyze.check) (Analyze.check_dynamic_range (Qubo.freeze b2)))

let test_analyze_coefficient_quantum () =
  let b = Qubo.builder () in
  Qubo.set b 0 0 0.1;
  check Alcotest.bool "0.1 is not dyadic" true
    (has_check "coefficient-quantum" (Analyze.check_coefficient_quantum (Qubo.freeze b)));
  let b2 = Qubo.builder () in
  Qubo.set b2 0 0 0.25;
  Qubo.set b2 0 1 (-3.);
  check Alcotest.int "dyadic values clean" 0
    (List.length (Analyze.check_coefficient_quantum (Qubo.freeze b2)))

let test_analyze_empty_and_single_var () =
  (* The degenerate shapes must flow through every structural check
     totally: the coefficient-quantum check used to reach an
     [assert false] when its offender counter and example list could
     drift apart. *)
  let empty = Qubo.freeze (Qubo.builder ()) in
  check (Alcotest.list Alcotest.string) "empty QUBO -> no findings" []
    (List.map (fun f -> f.Analyze.check) (Analyze.structural empty));
  let b = Qubo.builder () in
  Qubo.set b 0 0 (-1.);
  check Alcotest.int "1-var QUBO -> no errors" 0 (errors (Analyze.structural (Qubo.freeze b)));
  let b2 = Qubo.builder () in
  Qubo.set b2 0 0 0.1;
  check Alcotest.bool "single non-dyadic offender still reported" true
    (has_check "coefficient-quantum" (Analyze.structural (Qubo.freeze b2)))

let test_analyze_dead_and_connectivity () =
  let b = Qubo.builder () in
  Qubo.set b 0 1 1.;
  Qubo.set b 2 3 1.;
  let q = Qubo.freeze ~num_vars:5 b in
  let dead = Analyze.check_dead_variables q in
  check Alcotest.bool "var 4 dead" true (has_check "dead-variable" dead);
  check Alcotest.bool "split components" true
    (has_check "disconnected-components" (Analyze.check_connectivity q))

let test_analyze_enumerate_small () =
  (* Frustrated pair E = -x0 - x1 + 2 x0 x1: dominance cannot fix either
     variable, so both survive to the enumeration. Grounds (1,0) and
     (0,1) at energy -1; (0,0) and (1,1) at 0 -> spectral gap 1. *)
  let b = Qubo.builder () in
  Qubo.set b 0 0 (-1.);
  Qubo.set b 1 1 (-1.);
  Qubo.set b 0 1 2.;
  let q = Qubo.freeze b in
  match Analyze.enumerate q with
  | Error free -> Alcotest.failf "unexpected skip at %d free vars" free
  | Ok e ->
    check (Alcotest.float 1e-12) "ground energy" (-1.) e.Analyze.ground_energy;
    check Alcotest.int "two grounds" 2 e.Analyze.ground_count;
    check Alcotest.int "both vars free" 2 e.Analyze.num_free;
    check Alcotest.int "2^free states" (1 lsl e.Analyze.num_free) (Array.length e.Analyze.energies);
    (match e.Analyze.spectral_gap with
    | Some g -> check (Alcotest.float 1e-12) "spectral gap" 1. g
    | None -> Alcotest.fail "expected a spectral gap");
    (* the representative ground assignment really is a ground state *)
    let k =
      let rec find k =
        if k >= Array.length e.Analyze.energies then Alcotest.fail "no ground index"
        else if e.Analyze.energies.(k) <= e.Analyze.ground_energy +. Analyze.ground_tolerance e
        then k
        else find (k + 1)
      in
      find 0
    in
    let bits = Analyze.assignment e k in
    check (Alcotest.float 1e-12) "assignment energy" (-1.) (Qubo.energy q bits)

let test_analyze_enumerate_respects_cap () =
  (* a frustrated ring (negative fields, positive couplers) that
     dominance cannot shrink: 10 free variables > the cap of 4 *)
  let b = Qubo.builder () in
  for i = 0 to 9 do
    Qubo.set b i i (-1.);
    Qubo.set b i ((i + 1) mod 10) 2.
  done;
  let q = Qubo.freeze b in
  match Analyze.enumerate ~max_vars:4 q with
  | Error free -> check Alcotest.int "reports free count" 10 free
  | Ok _ -> Alcotest.fail "should refuse to enumerate past the cap"

(* ------------------------------------------------------------------ *)
(* Lint: Table 1 regression *)

let test_table1_no_errors () =
  List.iter
    (fun constr ->
      let findings = Lint.lint constr in
      if errors findings > 0 then
        Alcotest.failf "%s has %d lint error(s): %s" (Constr.describe constr) (errors findings)
          (String.concat "; "
             (List.map (fun f -> f.Analyze.check ^ ": " ^ f.Analyze.message) findings)))
    table1

let test_table1_indexof_warns_by_design () =
  (* The 0.1·A soft bias is the paper's design: detectable, not fatal.
     The linter must call it out as the known shallow-excitation wobble
     (and the non-dyadic 0.1 as an exact-tie info). *)
  let findings = Lint.lint (Constr.Index_of { length = 6; substring = "hi"; index = 2; first = false }) in
  check Alcotest.bool "shallow excitation warned" true (has_check "shallow-excitation" findings);
  check Alcotest.bool "non-dyadic flagged" true (has_check "coefficient-quantum" findings);
  check Alcotest.int "but no errors" 0 (errors findings)

let test_findings_ordered_by_severity () =
  let constr = Constr.Includes { haystack = "hello world"; needle = "world" } in
  let q = flip_first_coupler (Compile.to_qubo constr) in
  let findings = Lint.lint_compiled constr q in
  let ranks = List.map (fun f -> Analyze.severity_rank f.Analyze.severity) findings in
  check Alcotest.bool "non-increasing severity" true
    (List.for_all2 ( >= ) ranks (List.tl ranks @ [ min_int ]))

(* ------------------------------------------------------------------ *)
(* Lint: seeded mutations are detected *)

let test_mutation_zeroed_penalty_is_error () =
  let constr = Constr.Equals "a" in
  let q = zero_first_penalty (Compile.to_qubo constr) in
  let findings = Lint.lint_compiled constr q in
  check Alcotest.bool "unsound ground state" true (has_check "unsound-ground-state" findings);
  check Alcotest.bool "is an error" true (errors findings > 0)

let test_mutation_flipped_coupler_is_error () =
  let constr = Constr.Includes { haystack = "hello world"; needle = "world" } in
  let q = flip_first_coupler (Compile.to_qubo constr) in
  let findings = Lint.lint_compiled constr q in
  check Alcotest.bool "unsound ground state" true (has_check "unsound-ground-state" findings)

let test_mutation_halved_chain_strength_warns () =
  let constr = Constr.Equals "hi" in
  let q = Compile.to_qubo constr in
  let weak = Qsmt_anneal.Chain.default_strength q /. 2. in
  let config =
    { Lint.default_config with Lint.chain = Some (Lint.chain_spec ~strength:weak `Complete) }
  in
  let findings = Lint.lint_compiled ~config constr q in
  let strength_warning =
    List.exists
      (fun f -> f.Analyze.check = "chain-strength" && f.Analyze.severity = Analyze.Warning)
      findings
  in
  check Alcotest.bool "halved strength warned" true strength_warning;
  (* at the recommended default there is no chain-strength warning *)
  let config_ok =
    { Lint.default_config with Lint.chain = Some (Lint.chain_spec `Complete) }
  in
  let ok_findings = Lint.lint_compiled ~config:config_ok constr q in
  check Alcotest.bool "default strength clean" false
    (List.exists
       (fun f -> f.Analyze.check = "chain-strength" && f.Analyze.severity = Analyze.Warning)
       ok_findings)

let test_chain_bound_info () =
  (* between 2·max|Q| and the max-local-field bound: Info, not Warning *)
  let constr = Constr.Equals "hi" in
  let q = Compile.to_qubo constr in
  let recommended = Qsmt_anneal.Chain.default_strength q in
  let bound = Qsmt_anneal.Chain.max_local_field q in
  if bound > recommended then begin
    let mid = (recommended +. bound) /. 2. in
    let config =
      { Lint.default_config with Lint.chain = Some (Lint.chain_spec ~strength:mid `Complete) }
    in
    let findings = Lint.lint_compiled ~config constr q in
    check Alcotest.bool "bound info present" true (has_check "chain-strength-bound" findings);
    check Alcotest.bool "no warning" false
      (List.exists
         (fun f -> f.Analyze.check = "chain-strength" && f.Analyze.severity = Analyze.Warning)
         findings)
  end

let test_max_local_field () =
  let b = Qubo.builder () in
  Qubo.set b 0 0 (-2.);
  Qubo.set b 0 1 3.;
  Qubo.set b 0 2 (-1.);
  Qubo.set b 1 1 0.5;
  let q = Qubo.freeze b in
  (* var 0: |-2| + |3| + |-1| = 6 is the worst *)
  check (Alcotest.float 1e-12) "max local field" 6. (Qsmt_anneal.Chain.max_local_field q)

(* ------------------------------------------------------------------ *)
(* Lint: workload sweep and variable-count guard *)

let test_workload_sweep_no_errors () =
  let suite = Workload.suite ~seed:11 ~max_length:5 ~count:12 () in
  List.iter
    (fun constr ->
      let findings = Lint.lint constr in
      if errors findings > 0 then
        Alcotest.failf "workload %s has lint errors" (Constr.describe constr))
    suite

let test_variable_count_mismatch_is_error () =
  let constr = Constr.Equals "ab" in
  let b = Qubo.builder () in
  Qubo.set b 0 0 1.;
  let findings = Lint.lint_compiled constr (Qubo.freeze b) in
  check Alcotest.bool "mismatch reported" true (has_check "variable-count-mismatch" findings);
  check Alcotest.bool "is an error" true (errors findings > 0)

(* ------------------------------------------------------------------ *)
(* gate + telemetry *)

let test_gate_rejects_and_counts () =
  let constr = Constr.Index_of { length = 6; substring = "hi"; index = 2; first = false } in
  let q = Compile.to_qubo constr in
  let t = Telemetry.aggregate_only () in
  (* warnings present but no errors: `Error admits, `Warning rejects *)
  Lint.gate_check ~telemetry:t ~gate:`Error constr q;
  (match Lint.gate_check ~telemetry:t ~gate:`Warning constr q with
  | () -> Alcotest.fail "warning gate should reject the indexOf soft bias"
  | exception Lint.Rejected (_, findings) ->
    check Alcotest.bool "findings carried" true (findings <> []));
  let counter name = Option.value (List.assoc_opt name (Telemetry.counters t)) ~default:0 in
  check Alcotest.int "one rejection counted" 1 (counter "lint.rejected");
  check Alcotest.bool "per-check counters" true (counter "lint.check.shallow-excitation" >= 1);
  check Alcotest.bool "severity counters" true (counter "lint.warning" >= 1)

let test_solver_gate_integration () =
  let constr = Constr.Index_of { length = 6; substring = "hi"; index = 2; first = false } in
  (match Solver.solve ~lint:`Warning constr with
  | _ -> Alcotest.fail "solve should have been stopped by the lint gate"
  | exception Lint.Rejected (c, _) ->
    check Alcotest.string "constraint carried" (Constr.describe constr) (Constr.describe c));
  (* `Error level lets the warning-only encoding through to a real solve *)
  let outcome = Solver.solve ~lint:`Error constr in
  check Alcotest.bool "solved through the gate" true outcome.Solver.satisfied

let test_lint_off_is_default_and_free () =
  let constr = Constr.Reverse "ab" in
  let a = Solver.solve constr in
  let b = Solver.solve ~lint:`Error constr in
  (* the gate never perturbs the solve itself (no PRNG consumption) *)
  check Alcotest.bool "same value" true (a.Solver.value = b.Solver.value);
  check (Alcotest.float 0.) "same energy" a.Solver.energy b.Solver.energy

let () =
  Alcotest.run "qsmt-lint"
    [
      ( "analyze",
        [
          Alcotest.test_case "non-finite" `Quick test_analyze_finite;
          Alcotest.test_case "dynamic range" `Quick test_analyze_dynamic_range;
          Alcotest.test_case "coefficient quantum" `Quick test_analyze_coefficient_quantum;
          Alcotest.test_case "empty and 1-var QUBOs" `Quick test_analyze_empty_and_single_var;
          Alcotest.test_case "dead vars + connectivity" `Quick test_analyze_dead_and_connectivity;
          Alcotest.test_case "enumerate small" `Quick test_analyze_enumerate_small;
          Alcotest.test_case "enumerate cap" `Quick test_analyze_enumerate_respects_cap;
        ] );
      ( "table1",
        [
          Alcotest.test_case "no errors on the paper set" `Quick test_table1_no_errors;
          Alcotest.test_case "indexOf warns by design" `Quick test_table1_indexof_warns_by_design;
          Alcotest.test_case "severity ordering" `Quick test_findings_ordered_by_severity;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "zeroed penalty -> error" `Quick test_mutation_zeroed_penalty_is_error;
          Alcotest.test_case "flipped coupler -> error" `Quick
            test_mutation_flipped_coupler_is_error;
          Alcotest.test_case "halved chain strength -> warning" `Quick
            test_mutation_halved_chain_strength_warns;
          Alcotest.test_case "sub-bound strength -> info" `Quick test_chain_bound_info;
          Alcotest.test_case "max local field" `Quick test_max_local_field;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "workload no errors" `Quick test_workload_sweep_no_errors;
          Alcotest.test_case "var-count mismatch" `Quick test_variable_count_mismatch_is_error;
        ] );
      ( "gate",
        [
          Alcotest.test_case "gate + telemetry" `Quick test_gate_rejects_and_counts;
          Alcotest.test_case "solver integration" `Quick test_solver_gate_integration;
          Alcotest.test_case "off by default" `Quick test_lint_off_is_default_and_free;
        ] );
    ]
