(* Tests for qsmt_smtlib: s-expression lexing, script parsing, sort
   checking, ground evaluation, assertion compilation, and the full
   interpreter on end-to-end scripts. *)

module Sexp = Qsmt_smtlib.Sexp
module Ast = Qsmt_smtlib.Ast
module Parser = Qsmt_smtlib.Parser
module Typecheck = Qsmt_smtlib.Typecheck
module Eval = Qsmt_smtlib.Eval
module Compile = Qsmt_smtlib.Compile
module Interp = Qsmt_smtlib.Interp
module Dnf = Qsmt_smtlib.Dnf
module Constr = Qsmt_strtheory.Constr
module Syntax = Qsmt_regex.Syntax

let check = Alcotest.check

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Sexp *)

let test_sexp_atoms_lists () =
  match ok_exn (Sexp.parse_one "(assert (= x 3))") with
  | Sexp.List [ Sexp.Atom "assert"; Sexp.List [ Sexp.Atom "="; Sexp.Atom "x"; Sexp.Atom "3" ] ] ->
    ()
  | other -> Alcotest.failf "unexpected parse: %s" (Sexp.to_string other)

let test_sexp_strings () =
  (match ok_exn (Sexp.parse_one {|"hello world"|}) with
  | Sexp.String "hello world" -> ()
  | other -> Alcotest.failf "unexpected: %s" (Sexp.to_string other));
  (* doubled quote escape *)
  match ok_exn (Sexp.parse_one {|"say ""hi"""|}) with
  | Sexp.String {|say "hi"|} -> ()
  | other -> Alcotest.failf "unexpected: %s" (Sexp.to_string other)

let test_sexp_comments () =
  let script = "; a comment\n(check-sat) ; trailing\n" in
  check Alcotest.int "one expr" 1 (List.length (ok_exn (Sexp.parse_all script)))

let test_sexp_quoted_symbol () =
  match ok_exn (Sexp.parse_one "|odd symbol|") with
  | Sexp.Atom "odd symbol" -> ()
  | other -> Alcotest.failf "unexpected: %s" (Sexp.to_string other)

let test_sexp_errors () =
  let fails s = match Sexp.parse_all s with Error _ -> true | Ok _ -> false in
  check Alcotest.bool "unclosed paren" true (fails "(a (b)");
  check Alcotest.bool "unmatched close" true (fails "a)");
  check Alcotest.bool "unterminated string" true (fails "\"abc");
  check Alcotest.bool "error carries line" true
    (match Sexp.parse_all "(ok)\n(bad" with
    | Error msg -> String.length msg > 0 && String.sub msg 0 4 = "line"
    | Ok _ -> false)

let test_sexp_roundtrip () =
  let s = {|(assert (= x "a ""b"" c"))|} in
  let parsed = ok_exn (Sexp.parse_one s) in
  check Alcotest.string "print matches" s (Sexp.to_string parsed)

let test_sexp_unicode_escapes () =
  let lexed text =
    match ok_exn (Sexp.parse_one text) with
    | Sexp.String s -> s
    | other -> Alcotest.failf "unexpected: %s" (Sexp.to_string other)
  in
  List.iter
    (fun (text, want) -> check Alcotest.string text want (lexed text))
    [
      ({|"\u{61}b"|}, "ab");
      ({|"\u{0}\u{7F}"|}, "\000\127");
      ({|"\u0041\u{0005c}"|}, "A\\");
      (* malformed sequences are literal characters *)
      ({|"\u{zz}\u{}\u{000061}\u004\x"|}, {|\u{zz}\u{}\u{000061}\u004\x|});
      ({|"\u{30000}\u{61"|}, {|\u{30000}\u{61|});
      (* a code point above 0x7f stays outside the 7-bit alphabet *)
      ({|"\u{e9}\u{2FFFF}"|}, "\xc3\xa9\xf0\xaf\xbf\xbf");
    ]

(* Printed literals read back unchanged: [Eval.pp_value] is what models
   print, [Sexp.parse_one] what reads them (and scripts) back. The
   second alphabet makes escape-like text common. *)
let prop_literal_roundtrip =
  let open QCheck2.Gen in
  qtest ~count:500 "7-bit literal prints and lexes back unchanged"
    (oneof
       [
         string_size ~gen:(map Char.chr (int_range 0 127)) (int_range 0 24);
         string_size ~gen:(oneofl [ '\\'; 'u'; '{'; '}'; '6'; '1'; '"'; '\127' ]) (int_range 0 24);
       ])
    (fun s ->
      Sexp.parse_one (Format.asprintf "%a" Eval.pp_value (Eval.V_str s)) = Ok (Sexp.String s))

(* ------------------------------------------------------------------ *)
(* Parser *)

let parse_script s = ok_exn (Parser.parse_script s)

let test_parse_declare () =
  match parse_script "(declare-const x String)" with
  | [ Ast.Declare_const ("x", Ast.S_string) ] -> ()
  | _ -> Alcotest.fail "bad declare"

let test_parse_declare_fun () =
  match parse_script "(declare-fun y () Int)" with
  | [ Ast.Declare_const ("y", Ast.S_int) ] -> ()
  | _ -> Alcotest.fail "bad declare-fun"

let test_parse_assert_app () =
  match parse_script {|(assert (str.contains x "hi"))|} with
  | [ Ast.Assert (Ast.App ("str.contains", [ Ast.Var "x"; Ast.Str "hi" ])) ] -> ()
  | _ -> Alcotest.fail "bad assert"

let test_parse_negative_int () =
  match parse_script "(assert (= i (- 3)))" with
  | [ Ast.Assert (Ast.App ("=", [ Ast.Var "i"; Ast.Int (-3) ])) ] -> ()
  | _ -> Alcotest.fail "bad negative"

let test_parse_unknown_command () =
  match Parser.parse_script "(reset-assertions)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reset-assertions should be unsupported"

let test_parse_push_pop () =
  match parse_script "(push)(push 2)(pop)(pop 2)" with
  | [ Ast.Push 1; Ast.Push 2; Ast.Pop 1; Ast.Pop 2 ] -> ()
  | _ -> Alcotest.fail "bad push/pop parse"

let test_parse_unknown_sort () =
  match Parser.parse_script "(declare-const x Float)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Float should be rejected"

(* ------------------------------------------------------------------ *)
(* Typecheck *)

let env_with decls =
  List.fold_left (fun env (n, s) -> ok_exn (Typecheck.declare env n s)) Typecheck.empty_env decls

let sort_of env t = Typecheck.sort_of_term env t

let test_typecheck_ops () =
  let env = env_with [ ("x", Ast.S_string); ("i", Ast.S_int) ] in
  check Alcotest.bool "len" true (sort_of env (Ast.App ("str.len", [ Ast.Var "x" ])) = Ok Ast.S_int);
  check Alcotest.bool "++" true
    (sort_of env (Ast.App ("str.++", [ Ast.Var "x"; Ast.Str "a" ])) = Ok Ast.S_string);
  check Alcotest.bool "contains" true
    (sort_of env (Ast.App ("str.contains", [ Ast.Var "x"; Ast.Str "a" ])) = Ok Ast.S_bool);
  check Alcotest.bool "in_re" true
    (sort_of env
       (Ast.App ("str.in_re", [ Ast.Var "x"; Ast.App ("str.to_re", [ Ast.Str "ab" ]) ]))
    = Ok Ast.S_bool)

let test_typecheck_errors () =
  let env = env_with [ ("x", Ast.S_string) ] in
  let is_err t = match sort_of env t with Error _ -> true | Ok _ -> false in
  check Alcotest.bool "undeclared" true (is_err (Ast.Var "y"));
  check Alcotest.bool "arity" true (is_err (Ast.App ("str.len", [])));
  check Alcotest.bool "sort mismatch" true (is_err (Ast.App ("str.len", [ Ast.Int 3 ])));
  check Alcotest.bool "unknown op" true (is_err (Ast.App ("str.frobnicate", [ Ast.Var "x" ])));
  check Alcotest.bool "= mixed sorts" true (is_err (Ast.App ("=", [ Ast.Var "x"; Ast.Int 1 ])))

let test_typecheck_redeclare () =
  let env = env_with [ ("x", Ast.S_string) ] in
  match Typecheck.declare env "x" Ast.S_int with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "redeclaration should fail"

let test_typecheck_assertion_must_be_bool () =
  let env = env_with [ ("x", Ast.S_string) ] in
  match Typecheck.check_assertion env (Ast.App ("str.len", [ Ast.Var "x" ])) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "Int assertion should fail"

(* ------------------------------------------------------------------ *)
(* Eval *)

let eval_exn t = ok_exn (Eval.term t)

let test_eval_string_ops () =
  check Alcotest.bool "concat" true
    (eval_exn (Ast.App ("str.++", [ Ast.Str "ab"; Ast.Str "cd" ])) = Eval.V_str "abcd");
  check Alcotest.bool "len" true (eval_exn (Ast.App ("str.len", [ Ast.Str "abc" ])) = Eval.V_int 3);
  check Alcotest.bool "replace first" true
    (eval_exn (Ast.App ("str.replace", [ Ast.Str "banana"; Ast.Str "an"; Ast.Str "x" ]))
    = Eval.V_str "bxana");
  check Alcotest.bool "replace_all" true
    (eval_exn (Ast.App ("str.replace_all", [ Ast.Str "banana"; Ast.Str "an"; Ast.Str "x" ]))
    = Eval.V_str "bxxa");
  check Alcotest.bool "indexof found" true
    (eval_exn (Ast.App ("str.indexof", [ Ast.Str "hello"; Ast.Str "ll"; Ast.Int 0 ]))
    = Eval.V_int 2);
  check Alcotest.bool "indexof absent = -1" true
    (eval_exn (Ast.App ("str.indexof", [ Ast.Str "hello"; Ast.Str "z"; Ast.Int 0 ]))
    = Eval.V_int (-1));
  check Alcotest.bool "at" true
    (eval_exn (Ast.App ("str.at", [ Ast.Str "abc"; Ast.Int 1 ])) = Eval.V_str "b");
  check Alcotest.bool "at out of range" true
    (eval_exn (Ast.App ("str.at", [ Ast.Str "abc"; Ast.Int 9 ])) = Eval.V_str "");
  check Alcotest.bool "substr" true
    (eval_exn (Ast.App ("str.substr", [ Ast.Str "abcdef"; Ast.Int 1; Ast.Int 3 ]))
    = Eval.V_str "bcd");
  check Alcotest.bool "rev" true
    (eval_exn (Ast.App ("str.rev", [ Ast.Str "abc" ])) = Eval.V_str "cba");
  check Alcotest.bool "palindrome" true
    (eval_exn (Ast.App ("str.palindrome", [ Ast.Str "abba" ])) = Eval.V_bool true)

let test_eval_bool_ops () =
  check Alcotest.bool "and" true
    (eval_exn (Ast.App ("and", [ Ast.Bool true; Ast.Bool true ])) = Eval.V_bool true);
  check Alcotest.bool "and false" true
    (eval_exn (Ast.App ("and", [ Ast.Bool true; Ast.Bool false ])) = Eval.V_bool false);
  check Alcotest.bool "not" true (eval_exn (Ast.App ("not", [ Ast.Bool false ])) = Eval.V_bool true);
  check Alcotest.bool "= strings" true
    (eval_exn (Ast.App ("=", [ Ast.Str "a"; Ast.Str "a" ])) = Eval.V_bool true)

let test_eval_model () =
  let model = [ ("x", Eval.V_str "hi") ] in
  check Alcotest.bool "var under model" true
    (ok_exn (Eval.term ~model (Ast.App ("str.len", [ Ast.Var "x" ]))) = Eval.V_int 2)

let test_eval_free_var_error () =
  match Eval.term (Ast.Var "x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "free var should fail"

let test_eval_regex () =
  let re =
    Ast.App
      ( "re.++",
        [
          Ast.App ("str.to_re", [ Ast.Str "a" ]);
          Ast.App ("re.+", [ Ast.App ("re.union", [ Ast.App ("str.to_re", [ Ast.Str "b" ]); Ast.App ("str.to_re", [ Ast.Str "c" ]) ]) ]);
        ] )
  in
  let syntax = ok_exn (Eval.regex re) in
  let dfa = Qsmt_regex.Dfa.of_syntax syntax in
  check Alcotest.bool "abcb matches" true (Qsmt_regex.Dfa.matches dfa "abcb");
  check Alcotest.bool "a alone does not" false (Qsmt_regex.Dfa.matches dfa "a")

let test_eval_in_re () =
  let t =
    Ast.App
      ("str.in_re", [ Ast.Str "ab"; Ast.App ("str.to_re", [ Ast.Str "ab" ]) ])
  in
  check Alcotest.bool "in_re" true (eval_exn t = Eval.V_bool true)

(* ------------------------------------------------------------------ *)
(* Compile *)

let compile_script source =
  let commands = parse_script source in
  let env, assertions =
    List.fold_left
      (fun (env, asserts) cmd ->
        match cmd with
        | Ast.Declare_const (n, s) -> (ok_exn (Typecheck.declare env n s), asserts)
        | Ast.Assert t -> (env, t :: asserts)
        | _ -> (env, asserts))
      (Typecheck.empty_env, []) commands
  in
  Compile.compile env (List.rev assertions)

let test_compile_equality () =
  match ok_exn (compile_script {|(declare-const x String)(assert (= x "hi"))|}) with
  | Compile.Generate { var = "x"; constr = Constr.Equals "hi" } -> ()
  | _ -> Alcotest.fail "expected Equals"

let test_compile_ground_concat_folds () =
  match
    ok_exn (compile_script {|(declare-const x String)(assert (= x (str.++ "a" "b")))|})
  with
  | Compile.Generate { constr = Constr.Equals "ab"; _ } -> ()
  | _ -> Alcotest.fail "expected folded Equals"

let test_compile_contains_with_length () =
  match
    ok_exn
      (compile_script
         {|(declare-const x String)(assert (str.contains x "cat"))(assert (= (str.len x) 4))|})
  with
  | Compile.Generate { constr = Constr.Contains { length = 4; substring = "cat" }; _ } -> ()
  | _ -> Alcotest.fail "expected Contains"

let test_compile_contains_without_length_unsupported () =
  match compile_script {|(declare-const x String)(assert (str.contains x "cat"))|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should need a length"

let test_compile_regex () =
  match
    ok_exn
      (compile_script
         {|(declare-const x String)
           (assert (str.in_re x (re.++ (str.to_re "a") (re.+ (re.union (str.to_re "b") (str.to_re "c"))))))
           (assert (= (str.len x) 5))|})
  with
  | Compile.Generate { constr = Constr.Regex { length = 5; _ }; _ } -> ()
  | _ -> Alcotest.fail "expected Regex"

let test_compile_regex_infeasible_length_unsat () =
  match
    ok_exn
      (compile_script
         {|(declare-const x String)
           (assert (str.in_re x (str.to_re "abc")))
           (assert (= (str.len x) 2))|})
  with
  | Compile.Trivial false -> ()
  | _ -> Alcotest.fail "expected unsat"

let test_compile_indexof_forced () =
  match
    ok_exn
      (compile_script
         {|(declare-const x String)
           (assert (= (str.indexof x "hi" 0) 2))
           (assert (= (str.len x) 6))|})
  with
  | Compile.Generate { constr = Constr.Index_of { length = 6; substring = "hi"; index = 2; first = true }; _ } ->
    ()
  | _ -> Alcotest.fail "expected Index_of"

(* Each needle's first occurrence has one index, but different needles
   each have their own: "ba" starts at 0 and so does its first "b". *)
let test_compile_two_indexofs () =
  (match
     ok_exn
       (compile_script
          {|(declare-const x String)
            (assert (= (str.indexof x "b" 0) 0))
            (assert (= (str.indexof x "ba" 0) 0))
            (assert (= (str.len x) 2))|})
   with
  | Compile.Generate_joint
      {
        conjuncts =
          [
            Constr.Index_of { substring = "b"; index = 0; first = true; _ };
            Constr.Index_of { substring = "ba"; index = 0; first = true; _ };
          ];
        _;
      } ->
    ()
  | _ -> Alcotest.fail "expected both indexof facts");
  match
    ok_exn
      (compile_script
         {|(declare-const x String)
           (assert (= (str.indexof x "b" 0) 0))
           (assert (= (str.indexof x "b" 0) 1))
           (assert (= (str.len x) 2))|})
  with
  | Compile.Trivial false -> ()
  | _ -> Alcotest.fail "one needle at two first indices is unsat"

let test_compile_includes () =
  match
    ok_exn
      (compile_script
         {|(declare-const i Int)(assert (= i (str.indexof "hello world" "world" 0)))|})
  with
  | Compile.Locate
      {
        var = "i";
        constr = Constr.Includes { haystack = "hello world"; needle = "world"; first = true };
      } ->
    ()
  | _ -> Alcotest.fail "expected Locate"

let test_compile_includes_absent_is_solved () =
  match
    ok_exn
      (compile_script {|(declare-const i Int)(assert (= i (str.indexof "hello" "zz" 0)))|})
  with
  | Compile.Solved { var = "i"; value = Eval.V_int (-1) } -> ()
  | _ -> Alcotest.fail "expected Solved -1"

let test_compile_palindrome () =
  match
    ok_exn
      (compile_script
         {|(declare-const x String)(assert (str.palindrome x))(assert (= (str.len x) 6))|})
  with
  | Compile.Generate { constr = Constr.Palindrome { length = 6 }; _ } -> ()
  | _ -> Alcotest.fail "expected Palindrome"

let test_compile_length_only () =
  match ok_exn (compile_script {|(declare-const x String)(assert (= (str.len x) 3))|}) with
  | Compile.Generate { constr = Constr.Regex { length = 3; pattern }; _ } ->
    check Alcotest.bool "any pattern" true (Syntax.equal pattern (Syntax.Star Syntax.any))
  | _ -> Alcotest.fail "expected any-string Regex"

let test_compile_ground_truths () =
  (match ok_exn (compile_script {|(assert (= "a" "a"))|}) with
  | Compile.Trivial true -> ()
  | _ -> Alcotest.fail "expected trivially sat");
  match ok_exn (compile_script {|(assert (= "a" "b"))|}) with
  | Compile.Trivial false -> ()
  | _ -> Alcotest.fail "expected trivially unsat"

let test_compile_contradictory_equalities () =
  match
    ok_exn (compile_script {|(declare-const x String)(assert (= x "a"))(assert (= x "b"))|})
  with
  | Compile.Trivial false -> ()
  | _ -> Alcotest.fail "expected unsat"

let test_compile_eq_checks_other_facts () =
  match
    ok_exn
      (compile_script
         {|(declare-const x String)(assert (= x "abc"))(assert (str.contains x "zz"))|})
  with
  | Compile.Trivial false -> ()
  | _ -> Alcotest.fail "expected unsat"

let test_compile_two_unknowns_unsupported () =
  match
    compile_script
      {|(declare-const x String)(declare-const y String)(assert (= x "a"))(assert (= y "b"))|}
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "two unknowns should be unsupported"

(* ------------------------------------------------------------------ *)
(* Interp end to end *)

let run source = ok_exn (Interp.run_string source)

let test_interp_sat_model () =
  let out =
    run
      {|(set-logic QF_S)
        (declare-const x String)
        (assert (= x "hi"))
        (check-sat)
        (get-value (x))|}
  in
  check (Alcotest.list Alcotest.string) "sat and value" [ "sat"; {|((x "hi"))|} ] out

let test_interp_unsat () =
  let out = run {|(declare-const x String)(assert (= x "a"))(assert (= x "b"))(check-sat)|} in
  check (Alcotest.list Alcotest.string) "unsat" [ "unsat" ] out

let test_interp_regex_generation () =
  let out =
    run
      {|(declare-const x String)
        (assert (str.in_re x (re.++ (str.to_re "a") (re.+ (re.union (str.to_re "b") (str.to_re "c"))))))
        (assert (= (str.len x) 5))
        (check-sat)|}
  in
  check (Alcotest.list Alcotest.string) "sat" [ "sat" ] out

let test_interp_includes_position () =
  let out =
    run
      {|(declare-const i Int)
        (assert (= i (str.indexof "hello world" "world" 0)))
        (check-sat)
        (get-value (i))|}
  in
  check (Alcotest.list Alcotest.string) "position 6" [ "sat"; "((i 6))" ] out

let test_interp_includes_absent () =
  let out =
    run
      {|(declare-const i Int)
        (assert (= i (str.indexof "hello" "zz" 0)))
        (check-sat)
        (get-value (i))|}
  in
  check (Alcotest.list Alcotest.string) "minus one" [ "sat"; "((i (- 1)))" ] out

let test_interp_get_model () =
  let out = run {|(declare-const x String)(assert (= x "ab"))(check-sat)(get-model)|} in
  check Alcotest.bool "has define-fun" true
    (List.exists
       (fun line ->
         let line = String.trim line in
         String.length line > 11 && String.sub line 0 11 = "(define-fun")
       out)

let test_interp_model_verified_classically () =
  (* a deliberately broken sampler cannot make the interpreter lie *)
  let bad =
    Qsmt_anneal.Sampler.make ~name:"bad" (fun q ->
        Qsmt_anneal.Sampleset.of_bits q [ Qsmt_util.Bitvec.create (Qsmt_qubo.Qubo.num_vars q) ])
  in
  (* absint off: with it on, string equality is decided (and verified)
     before the sampler could ever lie *)
  let out =
    ok_exn
      (Interp.run_string ~sampler:bad ~absint:`Off
         {|(declare-const x String)(assert (= x "zz"))(check-sat)|})
  in
  check (Alcotest.list Alcotest.string) "unknown, not a wrong sat" [ "unknown" ] out

let test_interp_unsupported_is_unknown () =
  let out =
    run {|(declare-const x String)(declare-const y String)(assert (= x y))(check-sat)|}
  in
  check (Alcotest.list Alcotest.string) "unknown" [ "unknown" ] out

let test_interp_echo_exit () =
  let out = run {|(echo "hello")(exit)(echo "not printed")|} in
  check (Alcotest.list Alcotest.string) "echo then stop" [ "hello" ] out

let test_interp_get_model_before_check () =
  match Interp.run_string "(get-model)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "get-model without check-sat should error"

let test_interp_palindrome_script () =
  let st = Interp.create () in
  let commands =
    parse_script
      {|(declare-const x String)(assert (str.palindrome x))(assert (= (str.len x) 4))(check-sat)|}
  in
  let out = ok_exn (Interp.run_script st commands) in
  check (Alcotest.list Alcotest.string) "sat" [ "sat" ] out;
  match Interp.model st with
  | Some [ ("x", Eval.V_str s) ] ->
    check Alcotest.int "length 4" 4 (String.length s);
    check Alcotest.bool "palindrome" true (Qsmt_strtheory.Semantics.is_palindrome s)
  | _ -> Alcotest.fail "expected a model for x"


let test_interp_push_pop () =
  let out =
    run
      {|(declare-const x String)
        (assert (= x "ab"))
        (check-sat)
        (push)
        (assert (= x "cd"))
        (check-sat)
        (pop)
        (check-sat)|}
  in
  check (Alcotest.list Alcotest.string) "sat/unsat/sat" [ "sat"; "unsat"; "sat" ] out

let test_interp_pop_without_push () =
  match Interp.run_string "(pop)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "pop without push should error"

(* A code point the 7-bit codec cannot hold is never a verdict, even
   where byte lengths would make one look decidable. *)
let test_interp_wide_code_point_unknown () =
  check (Alcotest.list Alcotest.string) "unknown" [ "unknown"; "unknown"; "unknown"; "unknown" ]
    (run
       {|(declare-const x String)
         (push 1)
         (assert (= x "\u{e9}"))
         (assert (= (str.len x) 1))
         (check-sat)
         (assert (= (str.len x) 2))
         (check-sat)
         (pop 1)
         (push 1)
         (assert (or (= x "\u{e9}") (= x "a")))
         (check-sat)
         (pop 1)
         (assert (str.in_re x (str.to_re "\u{e9}")))
         (assert (= (str.len x) 1))
         (check-sat)|})

let test_interp_keeps_answers_before_error () =
  let lines, error =
    Interp.run_string_partial
      {|(declare-const x String)(assert (= x "a"))(check-sat)(pop 1)(check-sat)|}
  in
  check (Alcotest.list Alcotest.string) "first answer" [ "sat" ] lines;
  check (Alcotest.option Alcotest.string) "error" (Some "pop without matching push") error

let test_compile_joint_conjunction () =
  match
    ok_exn
      (compile_script
         {|(declare-const x String)
           (assert (str.palindrome x))
           (assert (str.contains x "aa"))
           (assert (= (str.len x) 4))|})
  with
  | Compile.Generate_joint { var = "x"; conjuncts } ->
    check Alcotest.int "two conjuncts" 2 (List.length conjuncts)
  | _ -> Alcotest.fail "expected Generate_joint"

let test_interp_joint_script () =
  let st = Interp.create () in
  let commands =
    parse_script
      {|(declare-const x String)
        (assert (str.palindrome x))
        (assert (= (str.indexof x "ab" 0) 0))
        (assert (= (str.len x) 4))
        (check-sat)|}
  in
  let out = ok_exn (Interp.run_script st commands) in
  check (Alcotest.list Alcotest.string) "sat" [ "sat" ] out;
  match Interp.model st with
  | Some [ ("x", Eval.V_str s) ] -> check Alcotest.string "abba" "abba" s
  | _ -> Alcotest.fail "expected model for x"


(* ------------------------------------------------------------------ *)
(* DNF expansion and boolean structure *)

let atom name = Ast.App ("=", [ Ast.Var name; Ast.Str "v" ])

let test_dnf_plain_conjunction () =
  match ok_exn (Dnf.expand [ atom "a"; atom "b" ]) with
  | [ cube ] -> check Alcotest.int "one cube, two literals" 2 (List.length cube)
  | cubes -> Alcotest.failf "expected 1 cube, got %d" (List.length cubes)

let test_dnf_disjunction_splits () =
  match ok_exn (Dnf.expand [ Ast.App ("or", [ atom "a"; atom "b" ]) ]) with
  | [ _; _ ] -> ()
  | cubes -> Alcotest.failf "expected 2 cubes, got %d" (List.length cubes)

let test_dnf_distribution () =
  (* (a or b) and (c or d) -> 4 cubes *)
  let f = [ Ast.App ("or", [ atom "a"; atom "b" ]); Ast.App ("or", [ atom "c"; atom "d" ]) ] in
  check Alcotest.int "4 cubes" 4 (List.length (ok_exn (Dnf.expand f)))

let test_dnf_de_morgan () =
  (* not (a and b) -> (not a) or (not b): 2 cubes of negative literals *)
  match ok_exn (Dnf.expand [ Ast.App ("not", [ Ast.App ("and", [ atom "a"; atom "b" ]) ]) ]) with
  | [ [ l1 ]; [ l2 ] ] ->
    check Alcotest.bool "both negative" true (not l1.Dnf.positive && not l2.Dnf.positive)
  | _ -> Alcotest.fail "expected two singleton cubes"

let test_dnf_double_negation () =
  match ok_exn (Dnf.expand [ Ast.App ("not", [ Ast.App ("not", [ atom "a" ]) ]) ]) with
  | [ [ l ] ] -> check Alcotest.bool "positive" true l.Dnf.positive
  | _ -> Alcotest.fail "expected one positive literal"

let test_dnf_true_false () =
  check Alcotest.int "true -> one empty cube" 1 (List.length (ok_exn (Dnf.expand [ Ast.Bool true ])));
  check Alcotest.int "false -> no cubes" 0 (List.length (ok_exn (Dnf.expand [ Ast.Bool false ])))

let test_dnf_budget () =
  (* 2^8 = 256 cubes exceeds the default 64 budget *)
  let big = List.init 8 (fun i -> Ast.App ("or", [ atom (Printf.sprintf "a%d" i); atom (Printf.sprintf "b%d" i) ])) in
  match Dnf.expand big with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected budget error"

let test_dnf_dedup () =
  let f = [ Ast.App ("or", [ atom "a"; atom "a" ]) ] in
  check Alcotest.int "deduplicated" 1 (List.length (ok_exn (Dnf.expand f)))

let test_interp_disjunction () =
  let out =
    run {|(declare-const x String)(assert (or (= x "cat") (= x "dog")))(check-sat)(get-value (x))|}
  in
  check Alcotest.string "sat" "sat" (List.hd out);
  check Alcotest.bool "model is cat or dog" true
    (List.nth out 1 = {|((x "cat"))|} || List.nth out 1 = {|((x "dog"))|})

let test_interp_disjunction_with_negation () =
  let out =
    run
      {|(declare-const x String)
        (assert (or (= x "a") (= x "b")))
        (assert (not (= x "a")))
        (check-sat)
        (get-value (x))|}
  in
  check (Alcotest.list Alcotest.string) "sat b" [ "sat"; {|((x "b"))|} ] out

let test_interp_disjunction_unsat () =
  let out =
    run
      {|(declare-const x String)
        (assert (or (= x "a") (= x "b")))
        (assert (and (not (= x "a")) (not (= x "b"))))
        (check-sat)|}
  in
  check (Alcotest.list Alcotest.string) "unsat" [ "unsat" ] out

let test_interp_disjoint_lengths () =
  (* two length branches: either a 2-char palindrome or exactly "xyz" *)
  let out =
    run
      {|(declare-const x String)
        (assert (or (= x "xyz") (and (str.palindrome x) (= (str.len x) 2))))
        (check-sat)|}
  in
  check (Alcotest.list Alcotest.string) "sat" [ "sat" ] out


let test_interp_re_loop () =
  let out =
    run
      {|(declare-const x String)
        (assert (str.in_re x (re.++ (str.to_re "a") ((_ re.loop 2 3) (re.range "b" "c")))))
        (assert (= (str.len x) 3))
        (check-sat)|}
  in
  check (Alcotest.list Alcotest.string) "sat" [ "sat" ] out

let test_interp_str_at () =
  let st = Interp.create () in
  let commands =
    parse_script
      {|(declare-const x String)
        (assert (= (str.at x 1) "q"))
        (assert (= (str.len x) 3))
        (check-sat)|}
  in
  let out = ok_exn (Interp.run_script st commands) in
  check (Alcotest.list Alcotest.string) "sat" [ "sat" ] out;
  match Interp.model st with
  | Some [ ("x", Eval.V_str s) ] -> check Alcotest.char "q at 1" 'q' s.[1]
  | _ -> Alcotest.fail "expected model"

let test_interp_str_substr () =
  let st = Interp.create () in
  let commands =
    parse_script
      {|(declare-const x String)
        (assert (= (str.substr x 2 2) "zz"))
        (assert (= (str.len x) 5))
        (check-sat)|}
  in
  let out = ok_exn (Interp.run_script st commands) in
  check (Alcotest.list Alcotest.string) "sat" [ "sat" ] out;
  match Interp.model st with
  | Some [ ("x", Eval.V_str s) ] -> check Alcotest.string "zz at 2" "zz" (String.sub s 2 2)
  | _ -> Alcotest.fail "expected model"

let test_interp_str_at_out_of_range_unsat () =
  let out =
    run
      {|(declare-const x String)
        (assert (= (str.at x 5) "q"))
        (assert (= (str.len x) 3))
        (check-sat)|}
  in
  check (Alcotest.list Alcotest.string) "unsat" [ "unsat" ] out

let test_interp_prefix_suffix_eval () =
  check Alcotest.bool "prefixof eval" true
    (ok_exn (Eval.term (Ast.App ("str.prefixof", [ Ast.Str "he"; Ast.Str "hello" ])))
    = Eval.V_bool true);
  check Alcotest.bool "suffixof eval" true
    (ok_exn (Eval.term (Ast.App ("str.suffixof", [ Ast.Str "lo"; Ast.Str "hello" ])))
    = Eval.V_bool true)

(* Facts the encoders reject are decided by the front end: the
   interpreter answers them instead of reporting an encoder error. *)
let answer fact =
  run
    (Printf.sprintf "(declare-const x String)(assert (= (str.len x) 2))(assert %s)(check-sat)"
       fact)

let test_interp_empty_substring_holds () =
  List.iter
    (fun fact -> check (Alcotest.list Alcotest.string) fact [ "sat" ] (answer fact))
    [
      {|(str.contains x "")|};
      {|(str.prefixof "" x)|};
      {|(str.suffixof "" x)|};
      {|(= (str.indexof x "" 0) 0)|};
      {|(= (str.substr x 1 0) "")|};
    ]

let test_interp_empty_substring_index_unsat () =
  check (Alcotest.list Alcotest.string) "found only at 0" [ "unsat" ]
    (answer {|(= (str.indexof x "" 0) 1)|})

let test_interp_negative_length_unsat () =
  check (Alcotest.list Alcotest.string) "no negative length" [ "unsat" ]
    (run "(declare-const x String)(assert (= (str.len x) (- 1)))(check-sat)")

let test_interp_indexof_first_occurrence () =
  (* str.indexof names the first occurrence: "ab" also sits at 2 in
     "abab", but indexof is 0 *)
  let indexof target i =
    run
      (Printf.sprintf
         {|(declare-const x String)(assert (= x %S))(assert (= (str.indexof x "ab" 0) %s))(check-sat)|}
         target i)
  in
  check (Alcotest.list Alcotest.string) "second occurrence" [ "unsat" ] (indexof "abab" "2");
  check (Alcotest.list Alcotest.string) "first occurrence" [ "sat" ] (indexof "abab" "0");
  check (Alcotest.list Alcotest.string) "absent is -1" [ "sat" ] (indexof "cd" "(- 1)");
  check (Alcotest.list Alcotest.string) "present is not -1" [ "unsat" ] (indexof "ab" "(- 1)");
  (* an absent substring has no encoding: unknown, not a refutation *)
  check (Alcotest.list Alcotest.string) "absent, not encodable" [ "unknown" ]
    (answer {|(= (str.indexof x "ab" 0) (- 1))|})

let () =
  Alcotest.run "qsmt_smtlib"
    [
      ( "sexp",
        [
          Alcotest.test_case "atoms/lists" `Quick test_sexp_atoms_lists;
          Alcotest.test_case "strings" `Quick test_sexp_strings;
          Alcotest.test_case "comments" `Quick test_sexp_comments;
          Alcotest.test_case "quoted symbol" `Quick test_sexp_quoted_symbol;
          Alcotest.test_case "errors" `Quick test_sexp_errors;
          Alcotest.test_case "roundtrip" `Quick test_sexp_roundtrip;
          Alcotest.test_case "unicode escapes" `Quick test_sexp_unicode_escapes;
          prop_literal_roundtrip;
        ] );
      ( "parser",
        [
          Alcotest.test_case "declare" `Quick test_parse_declare;
          Alcotest.test_case "declare-fun" `Quick test_parse_declare_fun;
          Alcotest.test_case "assert app" `Quick test_parse_assert_app;
          Alcotest.test_case "negative int" `Quick test_parse_negative_int;
          Alcotest.test_case "unknown command" `Quick test_parse_unknown_command;
          Alcotest.test_case "push/pop" `Quick test_parse_push_pop;
          Alcotest.test_case "unknown sort" `Quick test_parse_unknown_sort;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "operator sorts" `Quick test_typecheck_ops;
          Alcotest.test_case "errors" `Quick test_typecheck_errors;
          Alcotest.test_case "redeclare" `Quick test_typecheck_redeclare;
          Alcotest.test_case "assertion bool" `Quick test_typecheck_assertion_must_be_bool;
        ] );
      ( "eval",
        [
          Alcotest.test_case "string ops" `Quick test_eval_string_ops;
          Alcotest.test_case "bool ops" `Quick test_eval_bool_ops;
          Alcotest.test_case "model lookup" `Quick test_eval_model;
          Alcotest.test_case "free var" `Quick test_eval_free_var_error;
          Alcotest.test_case "regex terms" `Quick test_eval_regex;
          Alcotest.test_case "in_re" `Quick test_eval_in_re;
        ] );
      ( "compile",
        [
          Alcotest.test_case "equality" `Quick test_compile_equality;
          Alcotest.test_case "ground concat folds" `Quick test_compile_ground_concat_folds;
          Alcotest.test_case "contains+length" `Quick test_compile_contains_with_length;
          Alcotest.test_case "contains needs length" `Quick
            test_compile_contains_without_length_unsupported;
          Alcotest.test_case "regex" `Quick test_compile_regex;
          Alcotest.test_case "regex infeasible length" `Quick
            test_compile_regex_infeasible_length_unsat;
          Alcotest.test_case "indexof forced" `Quick test_compile_indexof_forced;
          Alcotest.test_case "two indexof needles" `Quick test_compile_two_indexofs;
          Alcotest.test_case "includes" `Quick test_compile_includes;
          Alcotest.test_case "includes absent" `Quick test_compile_includes_absent_is_solved;
          Alcotest.test_case "palindrome" `Quick test_compile_palindrome;
          Alcotest.test_case "length only" `Quick test_compile_length_only;
          Alcotest.test_case "ground truths" `Quick test_compile_ground_truths;
          Alcotest.test_case "contradictory equalities" `Quick
            test_compile_contradictory_equalities;
          Alcotest.test_case "equality checks facts" `Quick test_compile_eq_checks_other_facts;
          Alcotest.test_case "two unknowns" `Quick test_compile_two_unknowns_unsupported;
        ] );
      ( "dnf",
        [
          Alcotest.test_case "conjunction" `Quick test_dnf_plain_conjunction;
          Alcotest.test_case "disjunction" `Quick test_dnf_disjunction_splits;
          Alcotest.test_case "distribution" `Quick test_dnf_distribution;
          Alcotest.test_case "de morgan" `Quick test_dnf_de_morgan;
          Alcotest.test_case "double negation" `Quick test_dnf_double_negation;
          Alcotest.test_case "true/false" `Quick test_dnf_true_false;
          Alcotest.test_case "budget" `Quick test_dnf_budget;
          Alcotest.test_case "dedup" `Quick test_dnf_dedup;
          Alcotest.test_case "interp or" `Quick test_interp_disjunction;
          Alcotest.test_case "interp or + not" `Quick test_interp_disjunction_with_negation;
          Alcotest.test_case "interp or unsat" `Quick test_interp_disjunction_unsat;
          Alcotest.test_case "interp disjoint lengths" `Quick test_interp_disjoint_lengths;
        ] );
      ( "interp",
        [
          Alcotest.test_case "sat + get-value" `Quick test_interp_sat_model;
          Alcotest.test_case "unsat" `Quick test_interp_unsat;
          Alcotest.test_case "regex generation" `Quick test_interp_regex_generation;
          Alcotest.test_case "includes position" `Quick test_interp_includes_position;
          Alcotest.test_case "includes absent" `Quick test_interp_includes_absent;
          Alcotest.test_case "get-model" `Quick test_interp_get_model;
          Alcotest.test_case "model verified classically" `Quick
            test_interp_model_verified_classically;
          Alcotest.test_case "unsupported = unknown" `Quick test_interp_unsupported_is_unknown;
          Alcotest.test_case "echo/exit" `Quick test_interp_echo_exit;
          Alcotest.test_case "get-model before check" `Quick test_interp_get_model_before_check;
          Alcotest.test_case "palindrome script" `Quick test_interp_palindrome_script;
          Alcotest.test_case "push/pop" `Quick test_interp_push_pop;
          Alcotest.test_case "pop without push" `Quick test_interp_pop_without_push;
          Alcotest.test_case "joint compile" `Quick test_compile_joint_conjunction;
          Alcotest.test_case "joint script" `Quick test_interp_joint_script;
          Alcotest.test_case "re.loop" `Quick test_interp_re_loop;
          Alcotest.test_case "str.at" `Quick test_interp_str_at;
          Alcotest.test_case "str.substr" `Quick test_interp_str_substr;
          Alcotest.test_case "str.at out of range" `Quick test_interp_str_at_out_of_range_unsat;
          Alcotest.test_case "prefix/suffix eval" `Quick test_interp_prefix_suffix_eval;
          Alcotest.test_case "empty substring holds" `Quick test_interp_empty_substring_holds;
          Alcotest.test_case "empty substring index" `Quick
            test_interp_empty_substring_index_unsat;
          Alcotest.test_case "negative length unsat" `Quick test_interp_negative_length_unsat;
          Alcotest.test_case "indexof first occurrence" `Quick
            test_interp_indexof_first_occurrence;
          Alcotest.test_case "code point above 0x7f is unknown" `Quick
            test_interp_wide_code_point_unknown;
          Alcotest.test_case "answers before an error kept" `Quick
            test_interp_keeps_answers_before_error;
        ] );
    ]
