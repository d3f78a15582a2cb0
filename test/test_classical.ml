(* Tests for qsmt_classical: CNF plumbing, the CDCL solver (against a
   brute-force truth-table oracle on random formulas), bit-blasting of
   every constraint, the classical string solver end to end, and the
   brute-force enumerator. *)

module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng
module Cnf = Qsmt_classical.Cnf
module Cdcl = Qsmt_classical.Cdcl
module Bitblast = Qsmt_classical.Bitblast
module Strsolver = Qsmt_classical.Strsolver
module Brute = Qsmt_classical.Brute
module Dimacs = Qsmt_classical.Dimacs
module Constr = Qsmt_strtheory.Constr
module Semantics = Qsmt_strtheory.Semantics
module Pipeline = Qsmt_strtheory.Pipeline
module Rparser = Qsmt_regex.Parser

let check = Alcotest.check

let qtest ?(count = 150) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Cnf *)

let test_literals () =
  check Alcotest.int "pos" 6 (Cnf.pos 3);
  check Alcotest.int "neg" 7 (Cnf.neg 3);
  check Alcotest.int "var" 3 (Cnf.var_of (Cnf.neg 3));
  check Alcotest.bool "polarity" true (Cnf.is_pos (Cnf.pos 3));
  check Alcotest.int "negate" (Cnf.neg 3) (Cnf.negate (Cnf.pos 3));
  check Alcotest.int "double negate" (Cnf.pos 3) (Cnf.negate (Cnf.negate (Cnf.pos 3)))

let test_cnf_eval () =
  let f = Cnf.create ~num_vars:2 [ [ Cnf.pos 0; Cnf.pos 1 ]; [ Cnf.neg 0; Cnf.neg 1 ] ] in
  check Alcotest.bool "10 sat" true (Cnf.eval f (Bitvec.of_string "10"));
  check Alcotest.bool "11 unsat" false (Cnf.eval f (Bitvec.of_string "11"));
  check Alcotest.bool "00 unsat" false (Cnf.eval f (Bitvec.of_string "00"))

let test_cnf_create_checks () =
  Alcotest.check_raises "empty clause" (Invalid_argument "Cnf.create: empty clause") (fun () ->
      ignore (Cnf.create ~num_vars:1 [ [] ]));
  check Alcotest.bool "oob literal" true
    (try
       ignore (Cnf.create ~num_vars:1 [ [ Cnf.pos 5 ] ]);
       false
     with Invalid_argument _ -> true)

let test_gadgets () =
  (* exactly_one over 3 vars: 1 ALO + 3 AMO clauses *)
  let clauses = Cnf.exactly_one [ 0; 1; 2 ] in
  let f = Cnf.create ~num_vars:3 clauses in
  let count = ref 0 in
  for v = 0 to 7 do
    let bits = Bitvec.init 3 (fun i -> v land (1 lsl i) <> 0) in
    if Cnf.eval f bits then incr count
  done;
  check Alcotest.int "exactly 3 models" 3 !count;
  let iff = Cnf.create ~num_vars:2 (Cnf.iff 0 1) in
  check Alcotest.bool "iff 11" true (Cnf.eval iff (Bitvec.of_string "11"));
  check Alcotest.bool "iff 10" false (Cnf.eval iff (Bitvec.of_string "10"))

(* ------------------------------------------------------------------ *)
(* Cdcl against a truth-table oracle *)

let brute_force_sat (f : Cnf.t) =
  let n = f.Cnf.num_vars in
  let rec go v =
    if v >= 1 lsl n then false
    else begin
      let bits = Bitvec.init n (fun i -> v land (1 lsl i) <> 0) in
      Cnf.eval f bits || go (v + 1)
    end
  in
  if n = 0 then f.Cnf.clauses = [] else go 0

let gen_cnf =
  let open QCheck2.Gen in
  let* n = int_range 1 8 in
  let* clauses =
    list_size (int_range 1 25)
      (list_size (int_range 1 4)
         (map2 (fun v p -> if p then Cnf.pos v else Cnf.neg v) (int_range 0 (n - 1)) bool))
  in
  return (Cnf.create ~num_vars:n clauses)

let prop_cdcl_matches_brute_force =
  qtest "CDCL agrees with truth table" gen_cnf (fun f ->
      let result, _ = Cdcl.solve f in
      match result with
      | Cdcl.Sat model -> Cnf.eval f model
      | Cdcl.Unsat -> not (brute_force_sat f)
      | Cdcl.Unknown -> false)

let test_cdcl_simple_sat () =
  let f = Cnf.create ~num_vars:2 [ [ Cnf.pos 0 ]; [ Cnf.neg 0; Cnf.pos 1 ] ] in
  match Cdcl.solve f with
  | Cdcl.Sat model, _ ->
    check Alcotest.bool "x0" true (Bitvec.get model 0);
    check Alcotest.bool "x1" true (Bitvec.get model 1)
  | _ -> Alcotest.fail "expected sat"

let test_cdcl_simple_unsat () =
  let f = Cnf.create ~num_vars:1 [ [ Cnf.pos 0 ]; [ Cnf.neg 0 ] ] in
  match Cdcl.solve f with
  | Cdcl.Unsat, _ -> ()
  | _ -> Alcotest.fail "expected unsat"

let test_cdcl_unsat_needs_learning () =
  (* pigeonhole PHP(3,2): 3 pigeons, 2 holes — classic small unsat *)
  let var p h = (p * 2) + h in
  let clauses =
    List.concat_map (fun p -> [ [ Cnf.pos (var p 0); Cnf.pos (var p 1) ] ]) [ 0; 1; 2 ]
    @ List.concat_map
        (fun h ->
          [
            [ Cnf.neg (var 0 h); Cnf.neg (var 1 h) ];
            [ Cnf.neg (var 0 h); Cnf.neg (var 2 h) ];
            [ Cnf.neg (var 1 h); Cnf.neg (var 2 h) ];
          ])
        [ 0; 1 ]
  in
  match Cdcl.solve (Cnf.create ~num_vars:6 clauses) with
  | Cdcl.Unsat, stats -> check Alcotest.bool "had conflicts" true (stats.Cdcl.conflicts > 0)
  | _ -> Alcotest.fail "PHP(3,2) must be unsat"

let test_cdcl_empty_formula () =
  match Cdcl.solve (Cnf.create ~num_vars:3 []) with
  | Cdcl.Sat _, _ -> ()
  | _ -> Alcotest.fail "empty formula is sat"

let test_cdcl_budget () =
  (* larger pigeonhole with a tiny budget should give Unknown or finish *)
  let n_p = 6 and n_h = 5 in
  let var p h = (p * n_h) + h in
  let pigeons = List.init n_p Fun.id and holes = List.init n_h Fun.id in
  let clauses =
    List.map (fun p -> List.map (fun h -> Cnf.pos (var p h)) holes) pigeons
    @ List.concat_map
        (fun h ->
          List.concat_map
            (fun p1 ->
              List.filter_map
                (fun p2 ->
                  if p1 < p2 then Some [ Cnf.neg (var p1 h); Cnf.neg (var p2 h) ] else None)
                pigeons)
            pigeons)
        holes
  in
  match Cdcl.solve ~conflict_budget:3 (Cnf.create ~num_vars:(n_p * n_h) clauses) with
  | Cdcl.Unknown, stats -> check Alcotest.bool "stopped early" true (stats.Cdcl.conflicts <= 4)
  | Cdcl.Unsat, _ -> () (* acceptable if it proves it fast *)
  | Cdcl.Sat _, _ -> Alcotest.fail "PHP(6,5) cannot be sat"

(* ------------------------------------------------------------------ *)
(* Bitblast *)

let solve_constr c =
  let cnf = Bitblast.encode c in
  match Cdcl.solve cnf with
  | Cdcl.Sat model, _ -> Some (Bitblast.decode c model)
  | _ -> None

let test_blast_equals () =
  match solve_constr (Constr.Equals "hi!") with
  | Some v -> check Alcotest.bool "verifies" true (Constr.verify (Constr.Equals "hi!") v)
  | None -> Alcotest.fail "expected sat"

let test_blast_contains_is_sound () =
  let c = Constr.Contains { length = 4; substring = "cat" } in
  match solve_constr c with
  | Some (Constr.Str s) ->
    check Alcotest.bool "contains" true (Semantics.contains s ~sub:"cat");
    check Alcotest.int "length" 4 (String.length s)
  | _ -> Alcotest.fail "expected sat string"

let test_blast_includes_position () =
  let c = Constr.Includes { haystack = "xxcatx"; needle = "cat" } in
  match solve_constr c with
  | Some (Constr.Pos (Some 2)) -> ()
  | Some v -> Alcotest.failf "wrong position: %s" (Format.asprintf "%a" Constr.pp_value v)
  | None -> Alcotest.fail "expected sat"

let test_blast_includes_absent_unsat () =
  let c = Constr.Includes { haystack = "xxxxx"; needle = "cat" } in
  let cnf = Bitblast.encode c in
  match Cdcl.solve cnf with
  | Cdcl.Unsat, _ -> ()
  | _ -> Alcotest.fail "no occurrence must be unsat"

let test_blast_palindrome () =
  let c = Constr.Palindrome { length = 5 } in
  match solve_constr c with
  | Some (Constr.Str s) -> check Alcotest.bool "palindrome" true (Semantics.is_palindrome s)
  | _ -> Alcotest.fail "expected sat"

let test_blast_indexof () =
  let c = Constr.Index_of { length = 6; substring = "hi"; index = 2; first = false } in
  match solve_constr c with
  | Some (Constr.Str s) -> check Alcotest.string "hi at 2" "hi" (String.sub s 2 2)
  | _ -> Alcotest.fail "expected sat"

let test_blast_regex_exact_dfa () =
  (* unlike the QUBO encoder, alternation is supported *)
  let pattern = Rparser.parse_exn "cat|dog" in
  let c = Constr.Regex { pattern; length = 3 } in
  match solve_constr c with
  | Some (Constr.Str s) -> check Alcotest.bool "matched" true (s = "cat" || s = "dog")
  | _ -> Alcotest.fail "expected sat"

let test_blast_regex_paper_example () =
  let pattern = Rparser.parse_exn "a[bc]+" in
  let c = Constr.Regex { pattern; length = 5 } in
  match solve_constr c with
  | Some v -> check Alcotest.bool "verifies" true (Constr.verify c v)
  | None -> Alcotest.fail "expected sat"

let test_blast_regex_infeasible_unsat () =
  let pattern = Rparser.parse_exn "abc" in
  let c = Constr.Regex { pattern; length = 2 } in
  match Cdcl.solve (Bitblast.encode c) with
  | Cdcl.Unsat, _ -> ()
  | _ -> Alcotest.fail "wrong length must be unsat"

let test_blast_has_length () =
  let c = Constr.Has_length { num_chars = 2; target_length = 1 } in
  match solve_constr c with
  | Some v -> check Alcotest.bool "verifies" true (Constr.verify c v)
  | None -> Alcotest.fail "expected sat"

let all_ops =
  [
    Constr.Equals "ab";
    Constr.Concat [ "a"; "bc" ];
    Constr.Contains { length = 4; substring = "cat" };
    Constr.Includes { haystack = "abcabc"; needle = "bc" };
    Constr.Index_of { length = 5; substring = "hi"; index = 1; first = false };
    Constr.Has_length { num_chars = 3; target_length = 2 };
    Constr.Replace_all { source = "hello"; find = 'l'; replace = 'x' };
    Constr.Replace_first { source = "hello"; find = 'l'; replace = 'x' };
    Constr.Reverse "abc";
    Constr.Palindrome { length = 4 };
    Constr.Regex { pattern = Rparser.parse_exn "a[bc]+"; length = 4 };
  ]

let test_blast_all_ops_verify () =
  List.iter
    (fun c ->
      match solve_constr c with
      | Some v ->
        if not (Constr.verify c v) then
          Alcotest.failf "%s: model does not verify" (Constr.describe c)
      | None -> Alcotest.failf "%s: expected sat" (Constr.describe c))
    all_ops

(* ------------------------------------------------------------------ *)
(* Strsolver *)

let test_strsolver_outcome () =
  let o = Strsolver.solve (Constr.Equals "hello") in
  check Alcotest.bool "sat" true (o.Strsolver.result = `Sat);
  check Alcotest.bool "satisfied" true o.Strsolver.satisfied;
  check Alcotest.bool "value" true (o.Strsolver.value = Some (Constr.Str "hello"));
  check Alcotest.bool "cnf sizes recorded" true
    (o.Strsolver.cnf_vars > 0 && o.Strsolver.cnf_clauses > 0)

let test_strsolver_unsat () =
  let o = Strsolver.solve (Constr.Includes { haystack = "aaa"; needle = "b" }) in
  check Alcotest.bool "unsat" true (o.Strsolver.result = `Unsat);
  check Alcotest.bool "no value" true (o.Strsolver.value = None)

let test_strsolver_pipeline () =
  let p =
    { Pipeline.initial = Constr.Reverse "hello";
      Pipeline.stages = [ Pipeline.Replace_all { find = 'e'; replace = 'a' } ] }
  in
  let outcomes = Strsolver.solve_pipeline p in
  check Alcotest.int "two stages" 2 (List.length outcomes);
  match List.rev outcomes with
  | last :: _ -> check Alcotest.bool "ollah" true (last.Strsolver.value = Some (Constr.Str "ollah"))
  | [] -> Alcotest.fail "no outcomes"

(* ------------------------------------------------------------------ *)
(* Brute *)

let lowercase = List.init 26 (fun i -> Char.chr (Char.code 'a' + i))

let test_brute_equals () =
  match Brute.solve ~alphabet:[ 'h'; 'i' ] (Constr.Equals "hi") with
  | Some (Constr.Str "hi") -> ()
  | _ -> Alcotest.fail "expected hi"

let test_brute_contains () =
  let c = Constr.Contains { length = 3; substring = "ab" } in
  match Brute.solve ~alphabet:[ 'a'; 'b' ] c with
  | Some v -> check Alcotest.bool "verifies" true (Constr.verify c v)
  | None -> Alcotest.fail "expected a solution"

let test_brute_includes () =
  match Brute.solve ~alphabet:lowercase (Constr.Includes { haystack = "xxhix"; needle = "hi" }) with
  | Some (Constr.Pos (Some 2)) -> ()
  | _ -> Alcotest.fail "expected position 2"

let test_brute_limit () =
  (* target outside the alphabet: exhausts and returns None *)
  check Alcotest.bool "no solution" true
    (Brute.solve ~alphabet:[ 'a' ] ~limit:100 (Constr.Equals "zz") = None)

let test_brute_palindrome () =
  let c = Constr.Palindrome { length = 3 } in
  match Brute.solve ~alphabet:[ 'a'; 'b' ] c with
  | Some v -> check Alcotest.bool "verifies" true (Constr.verify c v)
  | None -> Alcotest.fail "expected a palindrome"

let test_brute_agrees_with_cdcl () =
  List.iter
    (fun c ->
      let brute = Brute.solve ~alphabet:lowercase c in
      let sat = solve_constr c in
      match (brute, sat) with
      | Some bv, Some sv ->
        check Alcotest.bool "both verify" true (Constr.verify c bv && Constr.verify c sv)
      | None, None -> ()
      | Some _, None -> Alcotest.failf "%s: brute found, CDCL missed" (Constr.describe c)
      | None, Some sv ->
        (* brute may miss solutions outside its alphabet; but the SAT
           model must still verify *)
        check Alcotest.bool "sat verifies" true (Constr.verify c sv))
    [
      Constr.Contains { length = 3; substring = "ab" };
      Constr.Includes { haystack = "abab"; needle = "ba" };
      Constr.Palindrome { length = 2 };
    ]


(* ------------------------------------------------------------------ *)
(* Dimacs *)

let test_dimacs_export () =
  let f = Cnf.create ~num_vars:3 [ [ Cnf.pos 0; Cnf.neg 1 ]; [ Cnf.pos 2 ] ] in
  check Alcotest.string "format" "p cnf 3 2\n1 -2 0\n3 0\n" (Dimacs.to_string f)

let test_dimacs_roundtrip () =
  let f = Cnf.create ~num_vars:4 [ [ Cnf.pos 0; Cnf.neg 3 ]; [ Cnf.neg 0; Cnf.pos 1; Cnf.pos 2 ] ] in
  match Dimacs.of_string (Dimacs.to_string f) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok f' ->
    check Alcotest.int "vars" f.Cnf.num_vars f'.Cnf.num_vars;
    check Alcotest.bool "clauses" true (f.Cnf.clauses = f'.Cnf.clauses)

let prop_dimacs_roundtrip =
  qtest ~count:100 "DIMACS roundtrip" gen_cnf (fun f ->
      match Dimacs.of_string (Dimacs.to_string f) with
      | Error _ -> false
      | Ok f' -> f.Cnf.num_vars = f'.Cnf.num_vars && f.Cnf.clauses = f'.Cnf.clauses)

let test_dimacs_comments_and_multiline () =
  let text = "c header comment\np cnf 3 2\nc mid comment\n1 -2\n3 0\n2 0\n" in
  match Dimacs.of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok f ->
    check Alcotest.int "two clauses" 2 (Cnf.num_clauses f);
    (* first clause spans two lines: 1 -2 3 0 *)
    check Alcotest.bool "multiline clause" true
      (List.hd f.Cnf.clauses = [ Cnf.pos 0; Cnf.neg 1; Cnf.pos 2 ])

let test_dimacs_errors () =
  let fails s = match Dimacs.of_string s with Error _ -> true | Ok _ -> false in
  check Alcotest.bool "no header" true (fails "1 2 0\n");
  check Alcotest.bool "bad count" true (fails "p cnf 2 5\n1 0\n");
  check Alcotest.bool "bad literal" true (fails "p cnf 2 1\n1 x 0\n");
  check Alcotest.bool "unterminated" true (fails "p cnf 2 1\n1 2\n");
  check Alcotest.bool "duplicate header" true (fails "p cnf 1 0\np cnf 1 0\n");
  check Alcotest.bool "oob var" true (fails "p cnf 1 1\n5 0\n")

let test_dimacs_file_roundtrip () =
  let f = Cnf.create ~num_vars:2 [ [ Cnf.pos 0 ]; [ Cnf.neg 0; Cnf.pos 1 ] ] in
  let path = Filename.temp_file "qsmt" ".cnf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dimacs.write_file path f;
      match Dimacs.read_file path with
      | Error e -> Alcotest.failf "read failed: %s" e
      | Ok f' -> check Alcotest.bool "equal" true (f.Cnf.clauses = f'.Cnf.clauses))

let test_dimacs_solve_imported () =
  (* import a tiny instance and solve it *)
  let text = "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n" in
  let f = Dimacs.of_string_exn text in
  match Cdcl.solve f with
  | Cdcl.Sat model, _ -> check Alcotest.bool "model satisfies" true (Cnf.eval f model)
  | _ -> Alcotest.fail "expected sat"

let () =
  Alcotest.run "qsmt_classical"
    [
      ( "cnf",
        [
          Alcotest.test_case "literals" `Quick test_literals;
          Alcotest.test_case "eval" `Quick test_cnf_eval;
          Alcotest.test_case "create checks" `Quick test_cnf_create_checks;
          Alcotest.test_case "gadgets" `Quick test_gadgets;
        ] );
      ( "cdcl",
        [
          Alcotest.test_case "simple sat" `Quick test_cdcl_simple_sat;
          Alcotest.test_case "simple unsat" `Quick test_cdcl_simple_unsat;
          Alcotest.test_case "pigeonhole unsat" `Quick test_cdcl_unsat_needs_learning;
          Alcotest.test_case "empty formula" `Quick test_cdcl_empty_formula;
          Alcotest.test_case "budget" `Quick test_cdcl_budget;
          prop_cdcl_matches_brute_force;
        ] );
      ( "bitblast",
        [
          Alcotest.test_case "equals" `Quick test_blast_equals;
          Alcotest.test_case "contains sound" `Quick test_blast_contains_is_sound;
          Alcotest.test_case "includes position" `Quick test_blast_includes_position;
          Alcotest.test_case "includes absent unsat" `Quick test_blast_includes_absent_unsat;
          Alcotest.test_case "palindrome" `Quick test_blast_palindrome;
          Alcotest.test_case "indexof" `Quick test_blast_indexof;
          Alcotest.test_case "regex via DFA (alternation)" `Quick test_blast_regex_exact_dfa;
          Alcotest.test_case "regex paper example" `Quick test_blast_regex_paper_example;
          Alcotest.test_case "regex infeasible unsat" `Quick test_blast_regex_infeasible_unsat;
          Alcotest.test_case "has_length" `Quick test_blast_has_length;
          Alcotest.test_case "all ops verify" `Quick test_blast_all_ops_verify;
        ] );
      ( "strsolver",
        [
          Alcotest.test_case "outcome" `Quick test_strsolver_outcome;
          Alcotest.test_case "unsat" `Quick test_strsolver_unsat;
          Alcotest.test_case "pipeline" `Quick test_strsolver_pipeline;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "export" `Quick test_dimacs_export;
          Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "comments/multiline" `Quick test_dimacs_comments_and_multiline;
          Alcotest.test_case "errors" `Quick test_dimacs_errors;
          Alcotest.test_case "file roundtrip" `Quick test_dimacs_file_roundtrip;
          Alcotest.test_case "solve imported" `Quick test_dimacs_solve_imported;
          prop_dimacs_roundtrip;
        ] );
      ( "brute",
        [
          Alcotest.test_case "equals" `Quick test_brute_equals;
          Alcotest.test_case "contains" `Quick test_brute_contains;
          Alcotest.test_case "includes" `Quick test_brute_includes;
          Alcotest.test_case "limit" `Quick test_brute_limit;
          Alcotest.test_case "palindrome" `Quick test_brute_palindrome;
          Alcotest.test_case "agrees with cdcl" `Quick test_brute_agrees_with_cdcl;
        ] );
    ]
