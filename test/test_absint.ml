(* Tests for the pre-encode abstract interpreter (Qsmt_strtheory.Absint)
   and its wiring into the solver paths.

   The load-bearing properties:
   - soundness: any string satisfying every conjunct is pointwise a
     member of the computed domains, whatever the iteration budget
     (witness-based QCheck property);
   - static verdicts are real: planted contradictions analyze to
     V_unsat, fully-determined systems to a classically-verified V_sat,
     and the static fast path never touches a sampler;
   - the widening cap terminates the fixpoint and only ever loses
     precision, never soundness;
   - cold parity: [~absint:`Off] replays the unshrunk pipeline, and the
     shrink path preserves models and full-QUBO energies. *)

module Bitvec = Qsmt_util.Bitvec
module Telemetry = Qsmt_util.Telemetry
module Qubo = Qsmt_qubo.Qubo
module Charset = Qsmt_regex.Charset
module Rparser = Qsmt_regex.Parser
module Dfa = Qsmt_regex.Dfa
module Sampler = Qsmt_anneal.Sampler
module Sampleset = Qsmt_anneal.Sampleset
module Constr = Qsmt_strtheory.Constr
module Compile = Qsmt_strtheory.Compile
module Absint = Qsmt_strtheory.Absint
module Solver = Qsmt_strtheory.Solver
module Joint = Qsmt_strtheory.Joint

let check = Alcotest.check

let analyze_exn ?max_iters cs =
  match Absint.analyze ?max_iters cs with
  | Ok a -> a
  | Error m -> Alcotest.fail ("Absint.analyze: " ^ m)

let is_unsat a = match a.Absint.verdict with Absint.V_unsat _ -> true | _ -> false

let member_pointwise a s =
  check Alcotest.int "domain count" (String.length s) (Array.length a.Absint.doms);
  String.iteri
    (fun i c ->
      if not (Charset.mem c a.Absint.doms.(i)) then
        Alcotest.failf "witness char %C fell out of the domain at position %d" c i)
    s

(* ------------------------------------------------------------------ *)
(* Static verdicts *)

let test_static_sat () =
  (match (analyze_exn [ Constr.Reverse "hello" ]).Absint.verdict with
  | Absint.V_sat (Constr.Str s) -> check Alcotest.string "reverse" "olleh" s
  | _ -> Alcotest.fail "reverse should be fully determined");
  (match (analyze_exn [ Constr.Concat [ "ab"; "cd" ] ]).Absint.verdict with
  | Absint.V_sat (Constr.Str s) -> check Alcotest.string "concat" "abcd" s
  | _ -> Alcotest.fail "concat should be fully determined");
  (* conjunction: prefix + palindrome mirror determine "abba" *)
  (match
     (analyze_exn
        [
          Constr.Index_of { length = 4; substring = "ab"; index = 0; first = false };
          Constr.Palindrome { length = 4 };
        ])
       .Absint.verdict
   with
  | Absint.V_sat (Constr.Str s) -> check Alcotest.string "abba" "abba" s
  | _ -> Alcotest.fail "prefix + palindrome should be fully determined");
  (* a single Includes is decided through Semantics.index_of *)
  match
    (analyze_exn [ Constr.Includes { haystack = "hello world"; needle = "world" } ])
      .Absint.verdict
  with
  | Absint.V_sat (Constr.Pos (Some i)) -> check Alcotest.int "includes" 6 i
  | _ -> Alcotest.fail "includes hit should be statically sat"

let test_static_unsat () =
  let unsat cs name = Alcotest.(check bool) name true (is_unsat (analyze_exn cs)) in
  unsat
    [
      Constr.Contains { length = 2; substring = "ab" };
      Constr.Contains { length = 2; substring = "ba" };
    ]
    "contains ab /\\ contains ba at length 2";
  unsat
    [
      Constr.Palindrome { length = 2 };
      Constr.Index_of { length = 2; substring = "ab"; index = 0; first = false };
    ]
    "length-2 palindrome with prefix ab";
  unsat
    [
      Constr.Regex { pattern = Rparser.parse_exn "[ab]+"; length = 3 };
      Constr.Index_of { length = 3; substring = "c"; index = 1; first = false };
    ]
    "[ab]+ with c pinned inside";
  unsat [ Constr.Equals "ab"; Constr.Equals "ba" ] "two different literal targets";
  unsat [ Constr.Includes { haystack = "hello"; needle = "xyz" } ] "includes miss";
  (* disagreeing fixed lengths refute the conjunction (the joint solver
     reports its own error before asking; the analyzer itself proves it
     for qsmt analyze) *)
  unsat
    [ Constr.Palindrome { length = 4 }; Constr.Reverse "abc" ]
    "length mismatch across conjuncts"

let test_unique_candidate_fails () =
  (* every domain collapses to a singleton whose candidate then fails
     classical verification: Contains' overwrite semantics make "aa"
     impossible to place twice in 3 chars without the windows clashing —
     construct instead a direct clash: palindrome of length 2 whose two
     positions congruence-merge, intersected with a regex whose only
     length-2 words are "ab" and "ba". The merged domain at each
     position is {a,b} — undecided, not a unique candidate — so use the
     simplest genuine case: equals "ab" /\ palindrome 2 collapses to
     "ab" via Equals and then congruence empties the domains (unsat
     before candidate grading). The candidate-fails branch needs domains
     that are singletons yet wrong, which only Contains' overwrite
     semantics produce: "aba" must contain "ab" and "ba"; placements
     force a unique candidate per the windows, and verification still
     passes. So this test pins the weaker, still-important contract:
     a V_sat candidate always passes Constr.verify on every conjunct. *)
  let cs =
    [
      Constr.Contains { length = 3; substring = "ab" };
      Constr.Contains { length = 3; substring = "ba" };
    ]
  in
  match (analyze_exn cs).Absint.verdict with
  | Absint.V_sat (Constr.Str s) ->
    List.iter
      (fun c ->
        Alcotest.(check bool)
          ("verified: " ^ Constr.describe c)
          true
          (Constr.verify c (Constr.Str s)))
      cs
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Fixpoint and widening *)

let test_widening_cap () =
  let cs = [ Constr.Regex { pattern = Rparser.parse_exn "a[bc]+"; length = 5 } ] in
  (* the full fixpoint needs 2 iterations here *)
  let full = analyze_exn cs in
  Alcotest.(check bool) "converged" false full.Absint.widened;
  check Alcotest.int "iterations" 2 full.Absint.iterations;
  (* capped at 1 iteration: flagged as widened, still sound *)
  let capped = analyze_exn ~max_iters:1 cs in
  Alcotest.(check bool) "widened" true capped.Absint.widened;
  check Alcotest.int "capped iterations" 1 capped.Absint.iterations;
  member_pointwise capped "abbcb";
  (* capped at 0 iterations: nothing derived, everything still sound *)
  let zero = analyze_exn ~max_iters:0 cs in
  check Alcotest.int "zero iterations" 0 zero.Absint.iterations;
  Alcotest.(check bool) "zero widened" true zero.Absint.widened;
  Alcotest.(check (list (pair int bool))) "no forced bits" [] (Absint.forced_bits zero);
  (* the default cap converges on every Table 1 constraint *)
  List.iter
    (fun c ->
      let a = analyze_exn [ c ] in
      Alcotest.(check bool) ("table1 converged: " ^ Constr.describe c) false a.Absint.widened)
    [
      Constr.Reverse "hello";
      Constr.Palindrome { length = 6 };
      Constr.Regex { pattern = Rparser.parse_exn "a[bc]+"; length = 5 };
      Constr.Concat [ "hello"; " "; "world" ];
      Constr.Index_of { length = 6; substring = "hi"; index = 2; first = false };
      Constr.Includes { haystack = "hello world"; needle = "world" };
    ]

let test_forced_bits_shape () =
  let a = analyze_exn [ Constr.Regex { pattern = Rparser.parse_exn "a[bc]+"; length = 5 } ] in
  let forced = Absint.forced_bits a in
  check Alcotest.int "31 of 35 bits forced" 31 (List.length forced);
  check Alcotest.int "one fixed position" 1 (Absint.num_fixed_positions a);
  (* ascending variable order, and position 0 = 'a' fully pinned *)
  let vars = List.map fst forced in
  Alcotest.(check bool) "ascending" true (List.sort compare vars = vars);
  List.iter
    (fun k ->
      let bit = (Char.code 'a' lsr (6 - k)) land 1 = 1 in
      check Alcotest.bool
        (Printf.sprintf "bit %d of position 0" k)
        bit
        (List.assoc k forced))
    [ 0; 1; 2; 3; 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* Witness-based soundness property *)

(* Build random conjunctions from a known witness: every generated
   conjunct is satisfied by the witness by construction, so the analysis
   must keep the witness inside the domains (and may never answer
   V_unsat). When it answers V_sat, the all-singleton domains can only
   name the witness itself. *)
let gen_witness_system =
  let open QCheck2.Gen in
  let* length = int_range 1 6 in
  let* palindromic = bool in
  let* chars = list_size (return length) (char_range 'a' 'e') in
  let s =
    let half = Array.of_list chars in
    String.init length (fun i ->
        if palindromic && i >= length - 1 - i then half.(length - 1 - i) else half.(i))
  in
  let sub_at i len = String.sub s i len in
  let* picks =
    list_size (int_range 1 4)
      (oneof
         [
           return (Constr.Reverse (sub_at 0 length |> fun t ->
                                   String.init length (fun i -> t.[length - 1 - i])));
           (let* i = int_range 0 (length - 1) in
            let* l = int_range 1 (length - i) in
            return (Constr.Contains { length; substring = sub_at i l }));
           (let* i = int_range 0 (length - 1) in
            let* l = int_range 1 (length - i) in
            return (Constr.Index_of { length; substring = sub_at i l; index = i; first = false }));
           return (Constr.Equals s);
         ])
  in
  let picks = if palindromic then Constr.Palindrome { length } :: picks else picks in
  return (s, picks)

let prop_witness_sound (s, cs) =
  match Absint.analyze cs with
  | Error m -> QCheck2.Test.fail_reportf "analyze failed on a valid system: %s" m
  | Ok a -> begin
    (match a.Absint.verdict with
    | Absint.V_unsat reason ->
      QCheck2.Test.fail_reportf "refuted a system with witness %S: %s" s reason
    | Absint.V_sat (Constr.Str v) when v <> s ->
      QCheck2.Test.fail_reportf "unique candidate %S differs from witness %S" v s
    | _ -> ());
    String.iteri (fun i c -> assert (Charset.mem c a.Absint.doms.(i))) s;
    true
  end

let prop_witness_sound_capped (s, cs) =
  (* widening at any budget only loses precision, never the witness *)
  match Absint.analyze ~max_iters:1 cs with
  | Error m -> QCheck2.Test.fail_reportf "analyze failed on a valid system: %s" m
  | Ok a ->
    (match a.Absint.verdict with
    | Absint.V_unsat reason ->
      QCheck2.Test.fail_reportf "refuted a system with witness %S: %s" s reason
    | _ -> ());
    String.iteri (fun i c -> assert (Charset.mem c a.Absint.doms.(i))) s;
    true

(* ------------------------------------------------------------------ *)
(* Solver integration: fast path, parity, shrink *)

let poisoned_sampler =
  Sampler.make ~name:"poisoned" (fun _ ->
      Alcotest.fail "sampler ran on a statically-decided constraint")

let test_static_fast_path () =
  let telemetry = Telemetry.collector () in
  let outcome =
    Solver.solve ~sampler:poisoned_sampler ~telemetry (Constr.Reverse "hello")
  in
  Alcotest.(check bool) "satisfied" true outcome.Solver.satisfied;
  Alcotest.(check bool) "decided" true (outcome.Solver.decided <> None);
  check Alcotest.int "zero reads" 0 (Sampleset.total_reads outcome.Solver.samples);
  let counter name = Option.value ~default:0 (Telemetry.find_counter telemetry name) in
  check Alcotest.int "absint.static_sat" 1 (counter "absint.static_sat");
  check Alcotest.int "absint.runs" 1 (counter "absint.runs");
  (* the fast path must not spin up the domain pool, a sampler, or the
     embedding cache: no counter from those subsystems may appear *)
  List.iter
    (fun (name, _) ->
      List.iter
        (fun prefix ->
          if String.starts_with ~prefix name then
            Alcotest.failf "static path emitted %s" name)
        [ "pool."; "sa."; "sqa."; "embed."; "hw." ])
    (Telemetry.counters telemetry)

let test_static_unsat_outcome () =
  let outcome =
    Solver.solve ~sampler:poisoned_sampler
      (Constr.Includes { haystack = "hello"; needle = "xyz" })
  in
  Alcotest.(check bool) "not satisfied" false outcome.Solver.satisfied;
  check Alcotest.int "zero reads" 0 (Sampleset.total_reads outcome.Solver.samples);
  match outcome.Solver.decided with
  | Some { Absint.verdict = Absint.V_unsat _; _ } -> ()
  | _ -> Alcotest.fail "expected a static unsat proof"

let test_cold_parity () =
  (* `Off never decides and compiles exactly today's QUBO *)
  let c = Constr.Reverse "hello" in
  let off = Solver.solve ~absint:`Off c in
  Alcotest.(check bool) "off: undecided" true (off.Solver.decided = None);
  Alcotest.(check bool) "off: qubo" true (Qubo.equal off.Solver.qubo (Compile.to_qubo c));
  Alcotest.(check bool) "off: satisfied" true off.Solver.satisfied;
  (* no forced bits => `On takes the ordinary path bit-exactly *)
  let c = Constr.Palindrome { length = 4 } in
  let on = Solver.solve c and off = Solver.solve ~absint:`Off c in
  Alcotest.(check bool) "palindrome: undecided" true (on.Solver.decided = None);
  Alcotest.(check bool) "palindrome: qubo" true (Qubo.equal on.Solver.qubo off.Solver.qubo);
  check Alcotest.string "palindrome: value"
    (Format.asprintf "%a" Constr.pp_value off.Solver.value)
    (Format.asprintf "%a" Constr.pp_value on.Solver.value);
  check (Alcotest.float 1e-9) "palindrome: energy" off.Solver.energy on.Solver.energy

let test_shrunk_preserves_models () =
  List.iter
    (fun c ->
      let on = Solver.solve c in
      let off = Solver.solve ~absint:`Off c in
      Alcotest.(check bool) ("undecided: " ^ Constr.describe c) true (on.Solver.decided = None);
      (* the outcome carries the full QUBO even when the anneal ran on a
         clamped residual *)
      Alcotest.(check bool)
        ("full qubo: " ^ Constr.describe c)
        true
        (Qubo.equal on.Solver.qubo off.Solver.qubo);
      Alcotest.(check bool) ("satisfied: " ^ Constr.describe c) true on.Solver.satisfied;
      Alcotest.(check bool)
        ("verifies: " ^ Constr.describe c)
        true
        (Constr.verify c on.Solver.value);
      (* lifted samples respect the forced bits and re-price on the full
         QUBO *)
      let analysis =
        match Absint.analyze [ c ] with Ok a -> a | Error m -> Alcotest.fail m
      in
      let forced = Absint.forced_bits analysis in
      List.iter
        (fun e ->
          List.iter
            (fun (i, b) ->
              if Bitvec.get e.Sampleset.bits i <> b then
                Alcotest.failf "sample violates forced bit %d of %s" i (Constr.describe c))
            forced;
          let repriced = Qubo.energy on.Solver.qubo e.Sampleset.bits in
          if abs_float (repriced -. e.Sampleset.energy) > 1e-9 then
            Alcotest.failf "sample energy drifted from the full QUBO on %s"
              (Constr.describe c))
        (Sampleset.entries on.Solver.samples))
    [
      Constr.Index_of { length = 6; substring = "hi"; index = 2; first = false };
      Constr.Regex { pattern = Rparser.parse_exn "a[bc]+"; length = 5 };
    ]

let test_joint_static () =
  (* planted joint contradiction: static unsat without merging *)
  let contradiction =
    [
      Constr.Contains { length = 2; substring = "ab" };
      Constr.Contains { length = 2; substring = "ba" };
    ]
  in
  (match Joint.solve contradiction with
  | Error m -> Alcotest.fail m
  | Ok o ->
    Alcotest.(check bool) "joint unsat: not satisfied" false o.Solver.satisfied;
    Alcotest.(check bool) "joint unsat: decided" true (o.Solver.decided <> None);
    check Alcotest.int "joint unsat: zero reads" 0 (Sampleset.total_reads o.Solver.samples);
    Alcotest.(check bool)
      "joint unsat: all conjuncts unsatisfied"
      true
      (List.for_all (fun c -> not (Constr.verify c o.Solver.value)) contradiction));
  (* fully determined joint system: static sat, classically verified *)
  match
    Joint.solve
      [
        Constr.Index_of { length = 4; substring = "ab"; index = 0; first = false };
        Constr.Palindrome { length = 4 };
      ]
  with
  | Error m -> Alcotest.fail m
  | Ok o ->
    Alcotest.(check bool) "joint sat" true o.Solver.satisfied;
    Alcotest.(check bool) "joint value" true (o.Solver.value = Constr.Str "abba");
    Alcotest.(check bool) "joint decided" true (o.Solver.decided <> None);
    check Alcotest.int "joint zero reads" 0 (Sampleset.total_reads o.Solver.samples)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Precision of the regex transfer function: for a lone Regex conjunct
   the fixpoint reaches exactly the projection of the language onto
   each position, the characters some accepted string of that length
   holds there (empty everywhere when none has that length). Patterns
   over {a, b, c} keep the enumeration small. *)
let gen_lone_regex =
  let open QCheck2.Gen in
  let atom = oneofl [ "a"; "b"; "c"; "[ab]"; "[bc]"; "[abc]" ] in
  let piece = map2 ( ^ ) atom (oneofl [ ""; "*"; "+"; "?" ]) in
  pair (map (String.concat "") (list_size (int_range 1 4) piece)) (int_range 0 5)

let prop_regex_exact (pat, length) =
  let pattern = Rparser.parse_exn pat in
  match Absint.analyze [ Constr.Regex { pattern; length } ] with
  | Error _ -> true (* not product-form at this length: the pass does not apply *)
  | Ok a ->
    let words = Dfa.enumerate ~limit:max_int (Dfa.of_syntax pattern) ~len:length in
    List.for_all
      (fun i ->
        Charset.equal a.Absint.doms.(i) (Charset.of_list (List.map (fun w -> w.[i]) words)))
      (List.init length Fun.id)

let () =
  Alcotest.run "qsmt_absint"
    [
      ( "verdicts",
        [
          Alcotest.test_case "fully determined systems are V_sat" `Quick test_static_sat;
          Alcotest.test_case "planted contradictions are V_unsat" `Quick test_static_unsat;
          Alcotest.test_case "V_sat candidates verify classically" `Quick
            test_unique_candidate_fails;
        ] );
      ( "fixpoint",
        [
          Alcotest.test_case "widening cap terminates and stays sound" `Quick
            test_widening_cap;
          Alcotest.test_case "forced bits: count, order, values" `Quick
            test_forced_bits_shape;
        ] );
      ( "soundness",
        [
          qtest "witness survives analysis" gen_witness_system prop_witness_sound;
          qtest "witness survives a capped analysis" gen_witness_system
            prop_witness_sound_capped;
          qtest "a lone regex narrows to its projection" gen_lone_regex prop_regex_exact;
        ] );
      ( "solver",
        [
          Alcotest.test_case "static fast path touches nothing" `Quick
            test_static_fast_path;
          Alcotest.test_case "static unsat is reported as a proof" `Quick
            test_static_unsat_outcome;
          Alcotest.test_case "absint off replays the cold pipeline" `Quick
            test_cold_parity;
          Alcotest.test_case "shrunk solves preserve models and energies" `Quick
            test_shrunk_preserves_models;
          Alcotest.test_case "joint conjunctions decide statically" `Quick
            test_joint_static;
        ] );
    ]
