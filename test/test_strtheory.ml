(* Tests for qsmt_strtheory: every operation's encoding against the
   paper's specification, decode/verify semantics, the solver end to end,
   and the sequential pipeline (§4.12). Exact ground states are checked
   with the exhaustive solver where sizes permit; larger problems use the
   SA sampler, whose determinism (fixed seed) keeps these tests stable. *)

module Bitvec = Qsmt_util.Bitvec
module Ascii7 = Qsmt_util.Ascii7
module Prng = Qsmt_util.Prng
module Qubo = Qsmt_qubo.Qubo
module Exact = Qsmt_anneal.Exact
module Sa = Qsmt_anneal.Sa
module Sampleset = Qsmt_anneal.Sampleset
module Sampler = Qsmt_anneal.Sampler
module Params = Qsmt_strtheory.Params
module Semantics = Qsmt_strtheory.Semantics
module Constr = Qsmt_strtheory.Constr
module Encode = Qsmt_strtheory.Encode
module Compile = Qsmt_strtheory.Compile
module Solver = Qsmt_strtheory.Solver
module Pipeline = Qsmt_strtheory.Pipeline
module Op_equality = Qsmt_strtheory.Op_equality
module Op_substring = Qsmt_strtheory.Op_substring
module Op_includes = Qsmt_strtheory.Op_includes
module Op_indexof = Qsmt_strtheory.Op_indexof
module Op_length = Qsmt_strtheory.Op_length
module Op_palindrome = Qsmt_strtheory.Op_palindrome
module Op_regex = Qsmt_strtheory.Op_regex
module Joint = Qsmt_strtheory.Joint
module Workload = Qsmt_strtheory.Workload
module Smtgen = Qsmt_strtheory.Smtgen
module Rparser = Qsmt_regex.Parser

let check = Alcotest.check

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let sampler = Solver.default_sampler ~seed:0

(* The pipelines below are all string-valued, so an [Error] (positional
   decode blocking a stage) would be a solver bug. *)
let solve_pipeline_ok ?sampler p =
  match Solver.solve_pipeline ?sampler p with
  | Ok outcomes -> outcomes
  | Error { Solver.stage_index; _ } ->
    Alcotest.failf "pipeline unexpectedly blocked at stage %d" stage_index

(* Decode the unique/first exact ground state of a constraint's QUBO.
   Only usable when num_vars <= Exact.max_vars. *)
let exact_ground constr =
  let q = Compile.to_qubo constr in
  let states, energy = Exact.ground_states q in
  (states, energy)

let gen_short_lowercase = QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 97 122)) (int_range 1 4))

(* ------------------------------------------------------------------ *)
(* Params / semantics *)

let test_params_validate () =
  (match Params.validate Params.default with
  | Ok () -> ()
  | Error inv -> Alcotest.failf "default rejected: %s" (Params.invalid_message inv));
  let expect_invalid label params field reason =
    match Params.validate params with
    | Ok () -> Alcotest.failf "%s should be rejected" label
    | Error inv ->
      check Alcotest.string (label ^ " field") field inv.Params.field;
      check Alcotest.bool (label ^ " reason") true (inv.Params.reason = reason)
  in
  expect_invalid "a = 0" { Params.default with Params.a = 0. } "a" Params.Nonpositive;
  expect_invalid "soft < 0" { Params.default with Params.soft_scale = -0.1 } "soft_scale"
    Params.Nonpositive;
  (* infinity passes a bare "positive" check — the typed validator must
     classify it (and nan, which fails *both* float comparisons) as
     Not_finite rather than letting them through to the encoders. *)
  expect_invalid "b = inf" { Params.default with Params.includes_b = infinity } "includes_b"
    Params.Not_finite;
  expect_invalid "strong = nan" { Params.default with Params.strong_scale = Float.nan }
    "strong_scale" Params.Not_finite;
  (match Params.validate { Params.default with Params.includes_d = Float.nan } with
  | Error inv ->
    check Alcotest.string "message mentions field" "Params.includes_d must be finite, got nan"
      (Params.invalid_message inv)
  | Ok () -> Alcotest.fail "d = nan should be rejected")

let test_semantics () =
  check Alcotest.string "reverse" "olleh" (Semantics.reverse "hello");
  check Alcotest.string "replace_all" "hexxo" (Semantics.replace_all "hello" ~find:'l' ~replace:'x');
  check Alcotest.string "replace_first" "hexlo"
    (Semantics.replace_first "hello" ~find:'l' ~replace:'x');
  check Alcotest.string "replace_first no match" "hello"
    (Semantics.replace_first "hello" ~find:'z' ~replace:'x');
  check Alcotest.bool "contains" true (Semantics.contains "hello" ~sub:"ell");
  check Alcotest.bool "contains empty" true (Semantics.contains "x" ~sub:"");
  check (Alcotest.option Alcotest.int) "index_of" (Some 2) (Semantics.index_of "hello" ~sub:"ll");
  check (Alcotest.option Alcotest.int) "index_of missing" None (Semantics.index_of "hello" ~sub:"z");
  check Alcotest.bool "occurs_at" true (Semantics.occurs_at "hello" ~sub:"ell" 1);
  check Alcotest.bool "occurs_at wrong" false (Semantics.occurs_at "hello" ~sub:"ell" 2);
  check Alcotest.bool "palindrome even" true (Semantics.is_palindrome "abba");
  check Alcotest.bool "palindrome odd" true (Semantics.is_palindrome "gobog");
  check Alcotest.bool "not palindrome" false (Semantics.is_palindrome "abc");
  check Alcotest.bool "empty palindrome" true (Semantics.is_palindrome "")

(* ------------------------------------------------------------------ *)
(* §4.1 equality *)

let test_equality_matrix_shape () =
  (* the paper's example: 'a' = 1100001 -> diagonal [-A,-A,+A,+A,+A,+A,-A] *)
  let q = Op_equality.encode "a" in
  check Alcotest.int "7 vars" 7 (Qubo.num_vars q);
  check Alcotest.int "diagonal only" 0 (Qubo.num_interactions q);
  let expected = [ -1.; -1.; 1.; 1.; 1.; 1.; -1. ] in
  check (Alcotest.list (Alcotest.float 0.)) "paper diagonal" expected
    (List.init 7 (Qubo.linear q))

let test_equality_ground_state () =
  let states, energy = exact_ground (Constr.Equals "ab") in
  check Alcotest.int "unique" 1 (List.length states);
  check Alcotest.string "decodes to target" "ab" (Ascii7.decode (List.hd states));
  check (Alcotest.float 1e-9) "zero ground energy" 0. energy

let test_equality_strength_scales () =
  let params = { Params.default with Params.a = 3. } in
  let q = Op_equality.encode ~params "a" in
  check (Alcotest.float 0.) "scaled" (-3.) (Qubo.linear q 0)

let prop_equality_ground_is_target =
  qtest ~count:25 "equality ground state = target" gen_short_lowercase (fun s ->
      let states, energy = exact_ground (Constr.Equals (String.sub s 0 (min 3 (String.length s)))) in
      let target = String.sub s 0 (min 3 (String.length s)) in
      List.length states = 1
      && Ascii7.decode (List.hd states) = target
      && Float.abs energy < 1e-9)

(* ------------------------------------------------------------------ *)
(* §4.2 concat *)

let test_concat_encoding () =
  let q = Compile.to_qubo (Constr.Concat [ "ab"; "c" ]) in
  let q' = Compile.to_qubo (Constr.Equals "abc") in
  check Alcotest.bool "same as equality on the concatenation" true (Qubo.equal q q')

let test_concat_solve () =
  let outcome = Solver.solve ~sampler (Constr.Concat [ "hi"; " "; "yo" ]) in
  check Alcotest.bool "satisfied" true outcome.Solver.satisfied;
  check Alcotest.bool "value" true (outcome.Solver.value = Constr.Str "hi yo")

(* ------------------------------------------------------------------ *)
(* §4.3 substring matching (overwrite semantics) *)

let test_substring_paper_ccat () =
  check (Alcotest.option Alcotest.string) "paper example" (Some "ccat")
    (Op_substring.encoded_target ~length:4 ~substring:"cat");
  (* encoded QUBO should equal equality against "ccat" *)
  let q = Op_substring.encode ~length:4 ~substring:"cat" () in
  let eq = Op_equality.encode "ccat" in
  check Alcotest.bool "diagonals match" true
    (List.init (Qubo.num_vars q) (Qubo.linear q) = List.init (Qubo.num_vars eq) (Qubo.linear eq))

let test_substring_exact_fit () =
  (* length = |substring|: only one position, no overwriting *)
  check (Alcotest.option Alcotest.string) "exact" (Some "cat")
    (Op_substring.encoded_target ~length:3 ~substring:"cat")

let test_substring_solve_verifies () =
  let outcome = Solver.solve ~sampler (Constr.Contains { length = 4; substring = "cat" }) in
  check Alcotest.bool "satisfied" true outcome.Solver.satisfied;
  match outcome.Solver.value with
  | Constr.Str s ->
    check Alcotest.int "length 4" 4 (String.length s);
    check Alcotest.bool "contains cat" true (Semantics.contains s ~sub:"cat")
  | Constr.Pos _ -> Alcotest.fail "expected a string"

let test_substring_sum_variant_differs () =
  let over = Op_substring.encode ~combine:Encode.Overwrite ~length:4 ~substring:"cat" () in
  let sum = Op_substring.encode ~combine:Encode.Sum ~length:4 ~substring:"cat" () in
  check Alcotest.bool "different encodings" false (Qubo.equal over sum)

let test_substring_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Op_substring: empty substring") (fun () ->
      ignore (Op_substring.encode ~length:3 ~substring:"" ()));
  Alcotest.check_raises "too long"
    (Invalid_argument "Op_substring: substring longer than the string") (fun () ->
      ignore (Op_substring.encode ~length:2 ~substring:"cat" ()))

(* ------------------------------------------------------------------ *)
(* §4.4 includes *)

let test_includes_match_count () =
  check Alcotest.int "full match" 3 (Op_includes.match_count ~haystack:"xcatx" ~needle:"cat" ~at:1);
  check Alcotest.int "partial" 1 (Op_includes.match_count ~haystack:"xcatx" ~needle:"cxz" ~at:1);
  check Alcotest.int "none" 0 (Op_includes.match_count ~haystack:"xyz" ~needle:"ab" ~at:0)

let test_includes_ground_is_first_match () =
  (* "abcabc" contains "abc" at 0 and 3; ground state must pick 0 *)
  let q = Op_includes.encode ~haystack:"abcabc" ~needle:"abc" () in
  check Alcotest.int "4 position vars" 4 (Qubo.num_vars q);
  let states, _ = Exact.ground_states q in
  check Alcotest.int "unique ground" 1 (List.length states);
  check (Alcotest.option Alcotest.int) "first match" (Some 0)
    (Op_includes.decode (List.hd states))

let test_includes_later_match_only () =
  let q = Op_includes.encode ~haystack:"xxcat" ~needle:"cat" () in
  let states, _ = Exact.ground_states q in
  check (Alcotest.option Alcotest.int) "position 2" (Some 2)
    (Op_includes.decode (List.hd states))

let test_includes_one_hot_enforced () =
  let q = Op_includes.encode ~haystack:"aaaa" ~needle:"aa" () in
  (* three full matches at 0,1,2; ground must be exactly one bit: the first *)
  let states, _ = Exact.ground_states q in
  List.iter
    (fun s -> check Alcotest.int "exactly one bit" 1 (Bitvec.popcount s))
    states;
  check (Alcotest.option Alcotest.int) "first" (Some 0) (Op_includes.decode (List.hd states))

let test_includes_solve () =
  let outcome = Solver.solve ~sampler (Constr.Includes { haystack = "hello world"; needle = "wor" }) in
  check Alcotest.bool "satisfied" true outcome.Solver.satisfied;
  check Alcotest.bool "position 6" true (outcome.Solver.value = Constr.Pos (Some 6))

let test_includes_decode_empty () =
  check (Alcotest.option Alcotest.int) "no bit set" None (Op_includes.decode (Bitvec.create 3))

let test_includes_validation () =
  Alcotest.check_raises "empty needle" (Invalid_argument "Op_includes: empty needle") (fun () ->
      ignore (Op_includes.encode ~haystack:"abc" ~needle:"" ()));
  Alcotest.check_raises "too long" (Invalid_argument "Op_includes: needle longer than haystack")
    (fun () -> ignore (Op_includes.encode ~haystack:"ab" ~needle:"abc" ()))

(* ------------------------------------------------------------------ *)
(* §4.5 indexOf *)

let test_indexof_strong_positions () =
  let q = Op_indexof.encode ~length:4 ~substring:"hi" ~index:1 () in
  check Alcotest.int "28 vars" 28 (Qubo.num_vars q);
  (* 'h' = 1101000: first bit of char 1 (var 7) should be -2A *)
  check (Alcotest.float 0.) "strong bit" (-2.) (Qubo.linear q 7);
  (* char 0 is soft: bit 0 biased to 1 at 0.1 A *)
  check (Alcotest.float 1e-12) "soft bit" (-0.1) (Qubo.linear q 0)

let test_indexof_solve () =
  let outcome = Solver.solve ~sampler (Constr.Index_of { length = 6; substring = "hi"; index = 2; first = false }) in
  check Alcotest.bool "satisfied" true outcome.Solver.satisfied;
  match outcome.Solver.value with
  | Constr.Str s ->
    check Alcotest.int "length" 6 (String.length s);
    check Alcotest.string "hi at 2" "hi" (String.sub s 2 2)
  | Constr.Pos _ -> Alcotest.fail "expected string"

let test_indexof_validation () =
  Alcotest.check_raises "does not fit"
    (Invalid_argument "Op_indexof: substring does not fit at index") (fun () ->
      ignore (Op_indexof.encode ~length:3 ~substring:"hi" ~index:2 ()))

(* ------------------------------------------------------------------ *)
(* §4.6 length (paper's unary bit semantics) *)

let test_length_matrix () =
  let q = Op_length.encode ~num_chars:2 ~target_length:1 () in
  check Alcotest.int "14 vars" 14 (Qubo.num_vars q);
  check (Alcotest.float 0.) "first block -A" (-1.) (Qubo.linear q 6);
  check (Alcotest.float 0.) "second block +A" 1. (Qubo.linear q 7)

let test_length_ground_state () =
  let states, energy = exact_ground (Constr.Has_length { num_chars = 2; target_length = 1 }) in
  check Alcotest.int "unique" 1 (List.length states);
  check (Alcotest.float 1e-9) "zero energy" 0. energy;
  let s = List.hd states in
  for i = 0 to 6 do
    check Alcotest.bool "prefix set" true (Bitvec.get s i)
  done;
  for i = 7 to 13 do
    check Alcotest.bool "suffix clear" false (Bitvec.get s i)
  done

let test_length_verify () =
  let c = Constr.Has_length { num_chars = 2; target_length = 1 } in
  check Alcotest.bool "DEL+NUL verifies" true (Constr.verify c (Constr.Str "\127\000"));
  check Alcotest.bool "other strings fail" false (Constr.verify c (Constr.Str "a\000"))

let test_length_solve () =
  let outcome = Solver.solve ~sampler (Constr.Has_length { num_chars = 3; target_length = 2 }) in
  check Alcotest.bool "satisfied" true outcome.Solver.satisfied

(* ------------------------------------------------------------------ *)
(* §4.7 / §4.8 replace *)

let test_replace_all_matches_equality_of_result () =
  let q = Compile.to_qubo (Constr.Replace_all { source = "hello"; find = 'l'; replace = 'x' }) in
  let eq = Compile.to_qubo (Constr.Equals "hexxo") in
  check Alcotest.bool "same encoding" true (Qubo.equal q eq)

let test_replace_first_encoding () =
  let q = Compile.to_qubo (Constr.Replace_first { source = "hello"; find = 'l'; replace = 'x' }) in
  let eq = Compile.to_qubo (Constr.Equals "hexlo") in
  check Alcotest.bool "same encoding" true (Qubo.equal q eq)

let test_replace_solve () =
  let outcome =
    Solver.solve ~sampler (Constr.Replace_all { source = "hello"; find = 'l'; replace = 'x' })
  in
  check Alcotest.bool "satisfied" true outcome.Solver.satisfied;
  check Alcotest.bool "value" true (outcome.Solver.value = Constr.Str "hexxo")

(* ------------------------------------------------------------------ *)
(* §4.9 reverse *)

let test_reverse_ground () =
  let states, _ = exact_ground (Constr.Reverse "hi") in
  check Alcotest.string "reversed" "ih" (Ascii7.decode (List.hd states))

let test_reverse_solve () =
  let outcome = Solver.solve ~sampler (Constr.Reverse "hello") in
  check Alcotest.bool "value" true (outcome.Solver.value = Constr.Str "olleh")

(* ------------------------------------------------------------------ *)
(* §4.10 palindrome *)

let test_palindrome_matrix () =
  (* length 2: 7 mirrored pairs, each +A diag / -2A coupler *)
  let q = Op_palindrome.encode ~length:2 () in
  check Alcotest.int "14 vars" 14 (Qubo.num_vars q);
  check Alcotest.int "7 couplers" 7 (Qubo.num_interactions q);
  check (Alcotest.float 0.) "diag" 1. (Qubo.linear q 0);
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int (Alcotest.float 0.)))
    "coupler values"
    (List.init 7 (fun i -> (i, i + 7, -2.)))
    (Qubo.quadratic q)

let test_palindrome_energy_zero_iff_mirrored () =
  let q = Op_palindrome.encode ~length:2 () in
  let mirrored = Ascii7.encode "aa" and broken = Ascii7.encode "ab" in
  check (Alcotest.float 1e-12) "mirrored zero" 0. (Qubo.energy q mirrored);
  check Alcotest.bool "broken positive" true (Qubo.energy q broken > 0.)

let test_palindrome_solve () =
  let outcome = Solver.solve ~sampler (Constr.Palindrome { length = 6 }) in
  check Alcotest.bool "satisfied" true outcome.Solver.satisfied;
  match outcome.Solver.value with
  | Constr.Str s ->
    check Alcotest.int "length" 6 (String.length s);
    check Alcotest.bool "palindrome" true (Semantics.is_palindrome s)
  | Constr.Pos _ -> Alcotest.fail "expected string"

let test_palindrome_odd_middle_free () =
  (* length 3: middle char has no entries *)
  let q = Op_palindrome.encode ~length:3 () in
  for bit = 7 to 13 do
    check (Alcotest.float 0.) "middle unconstrained" 0. (Qubo.linear q bit);
    check Alcotest.int "no couplers on middle" 0 (Qubo.degree q bit)
  done

let test_palindrome_printable_bias () =
  let q = Op_palindrome.encode ~printable_bias:0.05 ~length:2 () in
  (* bias adds -0.05 on bits 0 and 1 of each char on top of +A diag *)
  check (Alcotest.float 1e-12) "biased diag" 0.95 (Qubo.linear q 0)

let prop_palindrome_ground_states_are_palindromes =
  qtest ~count:20 "random mirrored strings have zero energy"
    QCheck2.Gen.(pair (int_range 1 4) (int_range 0 10_000))
    (fun (half, seed) ->
      let rng = Prng.create seed in
      let left = Prng.string_printable rng half in
      let s = left ^ Semantics.reverse left in
      let q = Op_palindrome.encode ~length:(String.length s) () in
      Float.abs (Qubo.energy q (Ascii7.encode s)) < 1e-9)

(* ------------------------------------------------------------------ *)
(* §4.11 regex *)

let test_regex_literal_positions () =
  let pattern = Rparser.parse_exn "ab" in
  let q = Op_regex.encode_exn ~pattern ~length:2 () in
  let eq = Op_equality.encode "ab" in
  check Alcotest.bool "literal pattern = equality diagonal" true
    (List.init 14 (Qubo.linear q) = List.init 14 (Qubo.linear eq))

let test_regex_class_shared_preference () =
  (* [bc]: b = 1100010, c = 1100011 -> bits 0,1,5 forced 1 at -A, bits
     2,3,4 forced 0 at +A, bit 6 cancels to 0 *)
  let pattern = Rparser.parse_exn "[bc]" in
  let q = Op_regex.encode_exn ~pattern ~length:1 () in
  check (Alcotest.float 1e-12) "bit0" (-1.) (Qubo.linear q 0);
  check (Alcotest.float 1e-12) "bit5" (-1.) (Qubo.linear q 5);
  check (Alcotest.float 1e-12) "bit2" 1. (Qubo.linear q 2);
  check (Alcotest.float 1e-12) "bit6 cancels" 0. (Qubo.linear q 6)

let test_regex_class_ground_states_are_members () =
  let pattern = Rparser.parse_exn "[bc]" in
  let q = Op_regex.encode_exn ~pattern ~length:1 () in
  let states, _ = Exact.ground_states q in
  let decoded = List.map Ascii7.decode states |> List.sort_uniq compare in
  check (Alcotest.list Alcotest.string) "exactly b and c" [ "b"; "c" ] decoded

let test_regex_solve_paper_example () =
  let pattern = Rparser.parse_exn "a[bc]+" in
  let outcome = Solver.solve ~sampler (Constr.Regex { pattern; length = 5 }) in
  check Alcotest.bool "satisfied" true outcome.Solver.satisfied;
  match outcome.Solver.value with
  | Constr.Str s ->
    check Alcotest.char "starts with a" 'a' s.[0];
    String.iter (fun c -> if not (List.mem c [ 'b'; 'c' ]) then Alcotest.failf "bad char %C" c)
      (String.sub s 1 4)
  | Constr.Pos _ -> Alcotest.fail "expected string"

let test_regex_encode_errors () =
  let pattern = Rparser.parse_exn "ab|c" in
  (match Op_regex.encode ~pattern ~length:1 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "alternation should fail");
  let pattern = Rparser.parse_exn "abc" in
  match Op_regex.encode ~pattern ~length:2 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "infeasible length should fail"

(* ------------------------------------------------------------------ *)
(* Constraint plumbing *)

let test_constr_num_vars () =
  check Alcotest.int "equals" 21 (Constr.num_vars (Constr.Equals "abc"));
  check Alcotest.int "includes" 4
    (Constr.num_vars (Constr.Includes { haystack = "abcabc"; needle = "abc" }));
  check Alcotest.int "palindrome" 42 (Constr.num_vars (Constr.Palindrome { length = 6 }))

let test_constr_validate () =
  let bad = Constr.Contains { length = 2; substring = "cat" } in
  (match Constr.validate bad with Error _ -> () | Ok () -> Alcotest.fail "should reject");
  let bad2 = Constr.Index_of { length = 3; substring = "hi"; index = 2; first = false } in
  (match Constr.validate bad2 with Error _ -> () | Ok () -> Alcotest.fail "should reject");
  match Constr.validate (Constr.Equals "ok") with
  | Ok () -> ()
  | Error e -> Alcotest.failf "should accept: %s" e

let test_verify_wrong_value_kind () =
  check Alcotest.bool "string for includes" false
    (Constr.verify (Constr.Includes { haystack = "ab"; needle = "a" }) (Constr.Str "a"));
  check Alcotest.bool "pos for equals" false
    (Constr.verify (Constr.Equals "a") (Constr.Pos (Some 0)))

let test_decode_length_mismatch () =
  Alcotest.check_raises "bad sample size"
    (Invalid_argument "Compile.decode: sample has 3 bits, constraint uses 7") (fun () ->
      ignore (Compile.decode (Constr.Equals "a") (Bitvec.create 3)))

(* Random constraints of every workload kind plus hand-picked regexes
   (whose strings over [abc] match often enough to exercise both
   answers), against values of both kinds. *)
let gen_verify_case =
  let open QCheck2.Gen in
  let* c =
    oneof
      [
        map (fun seed -> Workload.generate ~rng:(Prng.create seed) ~max_length:5 ()) (int_range 0 99999);
        map2
          (fun pattern length -> Constr.Regex { pattern = Rparser.parse_exn pattern; length })
          (oneofl [ "a[bc]+"; "[ab]*c"; "(ab|c)+"; "a?b[bc]?" ])
          (int_range 0 5);
        (let* num_chars = int_range 0 4 in
         let* target_length = int_range 0 num_chars in
         return (Constr.Has_length { num_chars; target_length }));
      ]
  in
  let* value =
    oneof
      [
        map (fun s -> Constr.Str s) (string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; '\127'; '\000' ]) (int_range 0 6));
        map (fun p -> Constr.Pos p) (opt (int_range 0 6));
      ]
  in
  return (c, value)

let prop_verifier_is_verify =
  qtest ~count:500 "verifier c v = verify c v" gen_verify_case (fun (c, v) ->
      Constr.verifier c v = Constr.verify c v)

let test_verifier_allocation () =
  (* a built verifier matches against its DFA; determinizing [a[bc]+]
     per call costs ~32k words *)
  let check_value = Constr.verifier (Constr.Regex { pattern = Rparser.parse_exn "a[bc]+"; length = 5 }) in
  let value = Constr.Str "abcbc" in
  ignore (check_value value);
  let w0 = Gc.minor_words () in
  let ok = Sys.opaque_identity (check_value value) in
  let words = Gc.minor_words () -. w0 in
  check Alcotest.bool "matches" true ok;
  if not (words < 100.) then
    Alcotest.failf "prebuilt regex verifier allocated %.0f minor words, limit 100" words

(* ------------------------------------------------------------------ *)
(* Solver behaviour *)

let test_solver_prefers_satisfying_sample () =
  (* a custom sampler returning a bad sample at lower energy cannot fool
     the solver into reporting satisfaction *)
  let c = Constr.Equals "a" in
  let good = Ascii7.encode "a" and bad = Ascii7.encode "b" in
  let fake =
    Sampler.make ~name:"fake" (fun q -> Sampleset.of_bits q [ bad; good ])
  in
  (* absint off: this exercises the decode scan's sample preference,
     which a static verdict would bypass *)
  let outcome = Solver.solve ~sampler:fake ~absint:`Off c in
  check Alcotest.bool "satisfied via good sample" true outcome.Solver.satisfied;
  check Alcotest.bool "picked the good one" true (outcome.Solver.value = Constr.Str "a")

let test_solver_reports_unsatisfied () =
  let c = Constr.Equals "a" in
  let bad = Ascii7.encode "b" in
  let fake = Sampler.make ~name:"fake" (fun q -> Sampleset.of_bits q [ bad ]) in
  let outcome = Solver.solve ~sampler:fake ~absint:`Off c in
  check Alcotest.bool "unsatisfied" false outcome.Solver.satisfied;
  check Alcotest.bool "still decodes" true (outcome.Solver.value = Constr.Str "b")

(* ------------------------------------------------------------------ *)
(* §4.12 pipelines (Table 1 combined rows) *)

let test_pipeline_reverse_then_replace () =
  (* Table 1 row 1: reverse 'hello', replace e->a => "ollah" *)
  let p =
    { Pipeline.initial = Constr.Reverse "hello";
      Pipeline.stages = [ Pipeline.Replace_all { find = 'e'; replace = 'a' } ] }
  in
  check (Alcotest.option Alcotest.string) "expected output" (Some "ollah")
    (Pipeline.expected_output p);
  let outcomes = solve_pipeline_ok ~sampler p in
  check Alcotest.int "two stages" 2 (List.length outcomes);
  List.iter (fun o -> check Alcotest.bool "stage satisfied" true o.Solver.satisfied) outcomes;
  check (Alcotest.option Alcotest.string) "final output" (Some "ollah")
    (Solver.pipeline_output outcomes)

let test_pipeline_concat_then_replace_all () =
  (* Table 1 row 4: concat 'hello' 'world' (with a space), replace all
     l->x => "hexxo worxd" *)
  let p =
    { Pipeline.initial = Constr.Concat [ "hello"; " "; "world" ];
      Pipeline.stages = [ Pipeline.Replace_all { find = 'l'; replace = 'x' } ] }
  in
  check (Alcotest.option Alcotest.string) "expected" (Some "hexxo worxd")
    (Pipeline.expected_output p);
  let outcomes = solve_pipeline_ok ~sampler p in
  check (Alcotest.option Alcotest.string) "final" (Some "hexxo worxd")
    (Solver.pipeline_output outcomes)

let test_pipeline_generative_no_expected () =
  let p = { Pipeline.initial = Constr.Palindrome { length = 4 }; Pipeline.stages = [ Pipeline.Reverse ] } in
  check (Alcotest.option Alcotest.string) "no classical expectation" None
    (Pipeline.expected_output p)

let test_pipeline_append_prepend () =
  let p =
    { Pipeline.initial = Constr.Equals "b";
      Pipeline.stages = [ Pipeline.Prepend "a"; Pipeline.Append "c" ] }
  in
  check (Alcotest.option Alcotest.string) "abc" (Some "abc") (Pipeline.expected_output p);
  let outcomes = solve_pipeline_ok ~sampler p in
  check (Alcotest.option Alcotest.string) "solved abc" (Some "abc")
    (Solver.pipeline_output outcomes)

let test_pipeline_positional_decode_blocks () =
  (* An [Includes] initial constraint decodes to a position, which has no
     string form to feed the downstream stage. Earlier revisions fed ""
     forward silently; now this is a typed error naming the stage. *)
  let p =
    { Pipeline.initial = Constr.Includes { haystack = "hello world"; needle = "world" };
      Pipeline.stages = [ Pipeline.Reverse ] }
  in
  match Solver.solve_pipeline ~sampler p with
  | Ok _ -> Alcotest.fail "positional pipeline should not succeed"
  | Error { Solver.stage_index; blocking_value; completed } ->
    check Alcotest.int "blocked at the initial constraint" 0 stage_index;
    (match blocking_value with
    | Constr.Pos (Some 6) -> ()
    | v -> Alcotest.failf "unexpected blocking value: %a" Constr.pp_value v);
    check Alcotest.int "the blocking outcome is reported" 1 (List.length completed)

let test_pipeline_positional_final_stage_ok () =
  (* A positional decode is only an error when something comes *after*
     it; as the last (only) constraint it is a normal outcome. *)
  let p =
    { Pipeline.initial = Constr.Includes { haystack = "hello world"; needle = "world" };
      Pipeline.stages = [] }
  in
  match Solver.solve_pipeline ~sampler p with
  | Error _ -> Alcotest.fail "trailing positional decode must be Ok"
  | Ok [ outcome ] ->
    check Alcotest.bool "satisfied" true outcome.Solver.satisfied
  | Ok outcomes -> Alcotest.failf "expected 1 outcome, got %d" (List.length outcomes)

let test_solve_batch_matches_individual () =
  let constrs =
    [ Constr.Reverse "hi"; Constr.Equals "ab"; Constr.Concat [ "a"; "b" ]; Constr.Reverse "abc" ]
  in
  let individual = List.map (fun c -> Solver.solve ~sampler c) constrs in
  List.iter
    (fun jobs ->
      let batched = Solver.solve_batch ~sampler ~jobs constrs in
      check Alcotest.int "one result per constraint" (List.length constrs) (List.length batched);
      List.iter2
        (fun solo outcome ->
          check Alcotest.string "same value"
            (Format.asprintf "%a" Constr.pp_value solo.Solver.value)
            (Format.asprintf "%a" Constr.pp_value outcome.Solver.value);
          check Alcotest.bool "same satisfied" solo.Solver.satisfied outcome.Solver.satisfied;
          check (Alcotest.float 0.) "same energy" solo.Solver.energy outcome.Solver.energy)
        individual batched)
    [ 1; 4 ]

let test_pipeline_describe () =
  let p =
    { Pipeline.initial = Constr.Reverse "hello";
      Pipeline.stages = [ Pipeline.Replace_all { find = 'e'; replace = 'a' } ] }
  in
  check Alcotest.bool "mentions both stages" true (String.length (Pipeline.describe p) > 10)


(* ------------------------------------------------------------------ *)
(* Joint encoding (conjunctions over one merged QUBO) *)

let test_joint_compatible () =
  check (Alcotest.option Alcotest.int) "equals" (Some 3) (Joint.compatible (Constr.Equals "abc"));
  check (Alcotest.option Alcotest.int) "palindrome" (Some 4)
    (Joint.compatible (Constr.Palindrome { length = 4 }));
  check (Alcotest.option Alcotest.int) "includes excluded" None
    (Joint.compatible (Constr.Includes { haystack = "ab"; needle = "a" }))

let test_joint_encode_errors () =
  (match Joint.encode [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty conjunction should fail");
  (match Joint.encode [ Constr.Equals "ab"; Constr.Palindrome { length = 3 } ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "length mismatch should fail");
  match Joint.encode [ Constr.Includes { haystack = "ab"; needle = "a" } ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "includes should fail"

let test_joint_encode_merges () =
  match Joint.encode [ Constr.Palindrome { length = 4 }; Constr.Equals "abba" ] with
  | Error e -> Alcotest.failf "encode failed: %s" e
  | Ok (q, length) ->
    check Alcotest.int "length" 4 length;
    check Alcotest.int "28 vars" 28 (Qubo.num_vars q);
    (* the satisfying string has the sum of both minimal energies: 0 *)
    check (Alcotest.float 1e-9) "abba is joint ground" 0. (Qubo.energy q (Ascii7.encode "abba"))

let test_joint_solve_palindrome_with_index () =
  (* palindrome of length 4 with "ab" forced at 0 -> "abba" *)
  let conjuncts =
    [
      Constr.Palindrome { length = 4 };
      Constr.Index_of { length = 4; substring = "ab"; index = 0; first = false };
    ]
  in
  match Joint.solve ~sampler conjuncts with
  | Error e -> Alcotest.failf "solve failed: %s" e
  | Ok o ->
    check Alcotest.bool "satisfied" true o.Solver.satisfied;
    check Alcotest.bool "abba" true (o.Solver.value = Constr.Str "abba");
    List.iter
      (fun c -> check Alcotest.bool "each conjunct" true (Constr.verify c o.Solver.value))
      conjuncts

let test_joint_solve_regex_and_palindrome () =
  (* a length-4 palindrome matching [ab]+ : abba, baab, aaaa, bbbb, ... *)
  let conjuncts =
    [
      Constr.Palindrome { length = 4 };
      Constr.Regex { pattern = Rparser.parse_exn "[ab]+"; length = 4 };
    ]
  in
  match Joint.solve ~sampler conjuncts with
  | Error e -> Alcotest.failf "solve failed: %s" e
  | Ok { Solver.value = Constr.Pos _; _ } -> Alcotest.fail "a joint answer is a string"
  | Ok ({ Solver.value = Constr.Str s; _ } as o) ->
    check Alcotest.bool "satisfied" true o.Solver.satisfied;
    check Alcotest.bool "palindrome" true (Semantics.is_palindrome s);
    check Alcotest.bool "alphabet" true (String.for_all (fun c -> c = 'a' || c = 'b') s)

let test_joint_reports_conjunct_failures () =
  (* contradictory conjunction: x = "ab" and x = "cd" *)
  let conjuncts = [ Constr.Equals "ab"; Constr.Equals "cd" ] in
  match Joint.solve ~sampler conjuncts with
  | Error e -> Alcotest.failf "solve failed: %s" e
  | Ok o ->
    check Alcotest.bool "not satisfied" false o.Solver.satisfied;
    check Alcotest.bool "at least one conjunct fails" true
      (List.exists (fun c -> not (Constr.verify c o.Solver.value)) conjuncts)

let test_joint_verifier_reaches_sampler () =
  (* The verifier reaches the sampler whether or not absint clamped any
     bits: with absint off (nothing clamped) a one-member portfolio still
     stops at its first verified read and names a winner. *)
  let telemetry = Qsmt_util.Telemetry.collector () in
  let portfolio =
    Qsmt_anneal.Portfolio.sampler
      ~params:
        {
          Qsmt_anneal.Portfolio.default with
          Qsmt_anneal.Portfolio.members = [ Sampler.simulated_annealing () ];
          jobs = 1;
        }
      ()
  in
  let conjuncts = [ Constr.Palindrome { length = 4 }; Constr.Contains { length = 4; substring = "ab" } ] in
  (match Joint.solve ~sampler:portfolio ~absint:`Off ~telemetry conjuncts with
  | Error e -> Alcotest.failf "solve failed: %s" e
  | Ok o -> check Alcotest.bool "satisfied" true o.Solver.satisfied);
  check Alcotest.bool "portfolio.winner emitted" true
    (List.exists
       (fun e -> e.Qsmt_util.Telemetry.ev = "portfolio.winner")
       (Qsmt_util.Telemetry.events telemetry))

(* ------------------------------------------------------------------ *)
(* Workload generator *)

let test_workload_valid () =
  let rng = Prng.create 42 in
  for _ = 1 to 200 do
    let c = Workload.generate ~rng ~max_length:6 () in
    match Constr.validate c with
    | Ok () -> ()
    | Error e -> Alcotest.failf "invalid workload constraint (%s): %s" (Constr.describe c) e
  done

let test_workload_deterministic () =
  let a = Workload.suite ~seed:9 ~max_length:5 ~count:20 () in
  let b = Workload.suite ~seed:9 ~max_length:5 ~count:20 () in
  check Alcotest.bool "same suite" true (List.map Constr.describe a = List.map Constr.describe b);
  let c = Workload.suite ~seed:10 ~max_length:5 ~count:20 () in
  check Alcotest.bool "different seed differs" false
    (List.map Constr.describe a = List.map Constr.describe c)

let test_workload_planted_includes () =
  let rng = Prng.create 3 in
  for _ = 1 to 100 do
    match
      Workload.generate_satisfiable ~rng ~kinds:[ Workload.K_includes ] ~max_length:6 ()
    with
    | Constr.Includes { haystack; needle } ->
      if Semantics.index_of haystack ~sub:needle = None then
        Alcotest.failf "unplanted needle %S in %S" needle haystack
    | c -> Alcotest.failf "wrong kind: %s" (Constr.describe c)
  done

let test_workload_kind_restriction () =
  let rng = Prng.create 5 in
  for _ = 1 to 50 do
    match Workload.generate ~rng ~kinds:[ Workload.K_palindrome ] ~max_length:4 () with
    | Constr.Palindrome _ -> ()
    | c -> Alcotest.failf "wrong kind: %s" (Constr.describe c)
  done

let test_workload_validation () =
  let rng = Prng.create 1 in
  check Alcotest.bool "empty kinds" true
    (try
       ignore (Workload.generate ~rng ~kinds:[] ~max_length:4 ());
       false
     with Invalid_argument _ -> true);
  check Alcotest.bool "bad max_length" true
    (try
       ignore (Workload.generate ~rng ~max_length:0 ());
       false
     with Invalid_argument _ -> true)

let test_workload_solvers_agree () =
  (* integration: on a satisfiable workload, the classical solver's model
     verifies, and the annealer is never judged satisfied on a wrong value *)
  let suite = Workload.suite ~seed:11 ~max_length:4 ~count:12 () in
  List.iter
    (fun c ->
      let o = Qsmt_classical.Strsolver.solve c in
      (match (o.Qsmt_classical.Strsolver.result, o.Qsmt_classical.Strsolver.value) with
      | `Sat, Some v ->
        if not (Constr.verify c v) then
          Alcotest.failf "CDCL model fails verification on %s" (Constr.describe c)
      | `Sat, None -> Alcotest.fail "sat without a value"
      | (`Unsat | `Unknown), _ -> ());
      let a = Solver.solve ~sampler c in
      if a.Solver.satisfied && not (Constr.verify c a.Solver.value) then
        Alcotest.failf "annealer claims unsatisfying value on %s" (Constr.describe c))
    suite


(* ------------------------------------------------------------------ *)
(* Smtgen *)

let test_smtgen_escape () =
  check Alcotest.string "doubles quotes" {|a ""b"" c|} (Smtgen.escape_string {|a "b" c|})

let test_smtgen_regex_terms () =
  check Alcotest.string "literal" {|(str.to_re "a")|}
    (Smtgen.regex_term (Rparser.parse_exn "a"));
  check Alcotest.string "range" {|(re.range "a" "c")|}
    (Smtgen.regex_term (Rparser.parse_exn "[a-c]"));
  check Alcotest.string "plus of class" {|(re.+ (re.range "b" "c"))|}
    (Smtgen.regex_term (Rparser.parse_exn "[bc]+"));
  check Alcotest.string "allchar" "re.allchar" (Smtgen.regex_term Qsmt_regex.Syntax.any)

let test_smtgen_assertions () =
  (match Smtgen.assertions ~var:"x" (Constr.Equals "hi") with
  | Ok [ a ] -> check Alcotest.string "equality" {|(assert (= x "hi"))|} a
  | _ -> Alcotest.fail "expected one assertion");
  match Smtgen.assertions ~var:"x" (Constr.Has_length { num_chars = 2; target_length = 1 }) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Has_length must be rejected"

let test_smtgen_script_runs () =
  (* exported scripts must parse and solve through our own front end *)
  List.iter
    (fun c ->
      match Smtgen.script c with
      | Error e -> Alcotest.failf "script failed for %s: %s" (Constr.describe c) e
      | Ok text -> begin
        match Qsmt_smtlib.Interp.run_string ~sampler text with
        | Ok lines ->
          if not (List.mem "sat" lines) then
            Alcotest.failf "%s: exported script did not answer sat (%s)" (Constr.describe c)
              (String.concat " | " lines)
        | Error e -> Alcotest.failf "%s: exported script errored: %s" (Constr.describe c) e
      end)
    [
      Constr.Equals "hi";
      Constr.Concat [ "a"; "b" ];
      Constr.Contains { length = 4; substring = "cat" };
      Constr.Includes { haystack = "xxcat"; needle = "cat" };
      Constr.Index_of { length = 5; substring = "hi"; index = 1; first = false };
      Constr.Replace_all { source = "hello"; find = 'l'; replace = 'x' };
      Constr.Reverse "abc";
      Constr.Palindrome { length = 4 };
      Constr.Regex { pattern = Rparser.parse_exn "a[bc]+"; length = 4 };
    ]


let test_smtgen_rep_rendering () =
  check Alcotest.string "bounded loop" {|((_ re.loop 2 4) (str.to_re "a"))|}
    (Smtgen.regex_term (Rparser.parse_exn "a{2,4}"));
  check Alcotest.bool "unbounded uses loop + star" true
    (let s = Smtgen.regex_term (Rparser.parse_exn "a{2,}") in
     String.length s > 0
     &&
     let has sub =
       let rec go i =
         i + String.length sub <= String.length s
         && (String.sub s i (String.length sub) = sub || go (i + 1))
       in
       go 0
     in
     has "re.loop" && has "re.*")

let test_pipeline_output_empty () =
  check (Alcotest.option Alcotest.string) "empty run" None (Solver.pipeline_output [])

let test_params_pp () =
  check Alcotest.bool "renders" true
    (String.length (Format.asprintf "%a" Params.pp Params.default) > 0)

let test_regex_constraint_with_rep () =
  let pattern = Rparser.parse_exn "a[bc]{2}z" in
  let outcome = Solver.solve ~sampler (Constr.Regex { pattern; length = 4 }) in
  check Alcotest.bool "satisfied" true outcome.Solver.satisfied;
  match outcome.Solver.value with
  | Constr.Str s ->
    check Alcotest.char "a first" 'a' s.[0];
    check Alcotest.char "z last" 'z' s.[3]
  | Constr.Pos _ -> Alcotest.fail "expected string"

let () =
  Alcotest.run "qsmt_strtheory"
    [
      ( "foundations",
        [
          Alcotest.test_case "params validate" `Quick test_params_validate;
          Alcotest.test_case "semantics" `Quick test_semantics;
        ] );
      ( "equality",
        [
          Alcotest.test_case "matrix shape (paper 'a')" `Quick test_equality_matrix_shape;
          Alcotest.test_case "ground state" `Quick test_equality_ground_state;
          Alcotest.test_case "strength scales" `Quick test_equality_strength_scales;
          prop_equality_ground_is_target;
        ] );
      ( "concat",
        [
          Alcotest.test_case "encoding" `Quick test_concat_encoding;
          Alcotest.test_case "solve" `Quick test_concat_solve;
        ] );
      ( "substring",
        [
          Alcotest.test_case "paper ccat example" `Quick test_substring_paper_ccat;
          Alcotest.test_case "exact fit" `Quick test_substring_exact_fit;
          Alcotest.test_case "solve verifies" `Quick test_substring_solve_verifies;
          Alcotest.test_case "sum variant differs" `Quick test_substring_sum_variant_differs;
          Alcotest.test_case "validation" `Quick test_substring_validation;
        ] );
      ( "includes",
        [
          Alcotest.test_case "match count" `Quick test_includes_match_count;
          Alcotest.test_case "ground = first match" `Quick test_includes_ground_is_first_match;
          Alcotest.test_case "later match only" `Quick test_includes_later_match_only;
          Alcotest.test_case "one-hot enforced" `Quick test_includes_one_hot_enforced;
          Alcotest.test_case "solve" `Quick test_includes_solve;
          Alcotest.test_case "decode empty" `Quick test_includes_decode_empty;
          Alcotest.test_case "validation" `Quick test_includes_validation;
        ] );
      ( "indexof",
        [
          Alcotest.test_case "strong/soft positions" `Quick test_indexof_strong_positions;
          Alcotest.test_case "solve" `Quick test_indexof_solve;
          Alcotest.test_case "validation" `Quick test_indexof_validation;
        ] );
      ( "length",
        [
          Alcotest.test_case "matrix" `Quick test_length_matrix;
          Alcotest.test_case "ground state" `Quick test_length_ground_state;
          Alcotest.test_case "verify semantics" `Quick test_length_verify;
          Alcotest.test_case "solve" `Quick test_length_solve;
        ] );
      ( "replace",
        [
          Alcotest.test_case "replace_all = equality" `Quick
            test_replace_all_matches_equality_of_result;
          Alcotest.test_case "replace_first" `Quick test_replace_first_encoding;
          Alcotest.test_case "solve" `Quick test_replace_solve;
        ] );
      ( "reverse",
        [
          Alcotest.test_case "ground" `Quick test_reverse_ground;
          Alcotest.test_case "solve" `Quick test_reverse_solve;
        ] );
      ( "palindrome",
        [
          Alcotest.test_case "matrix (Table 1 shape)" `Quick test_palindrome_matrix;
          Alcotest.test_case "energy zero iff mirrored" `Quick
            test_palindrome_energy_zero_iff_mirrored;
          Alcotest.test_case "solve" `Quick test_palindrome_solve;
          Alcotest.test_case "odd middle free" `Quick test_palindrome_odd_middle_free;
          Alcotest.test_case "printable bias" `Quick test_palindrome_printable_bias;
          prop_palindrome_ground_states_are_palindromes;
        ] );
      ( "regex",
        [
          Alcotest.test_case "literal = equality" `Quick test_regex_literal_positions;
          Alcotest.test_case "class shared preference" `Quick test_regex_class_shared_preference;
          Alcotest.test_case "class ground states" `Quick test_regex_class_ground_states_are_members;
          Alcotest.test_case "solve paper example" `Quick test_regex_solve_paper_example;
          Alcotest.test_case "encode errors" `Quick test_regex_encode_errors;
        ] );
      ( "constr",
        [
          Alcotest.test_case "num_vars" `Quick test_constr_num_vars;
          Alcotest.test_case "validate" `Quick test_constr_validate;
          Alcotest.test_case "verify wrong kind" `Quick test_verify_wrong_value_kind;
          Alcotest.test_case "decode length mismatch" `Quick test_decode_length_mismatch;
          prop_verifier_is_verify;
          Alcotest.test_case "verifier built once" `Quick test_verifier_allocation;
        ] );
      ( "joint",
        [
          Alcotest.test_case "compatible" `Quick test_joint_compatible;
          Alcotest.test_case "encode errors" `Quick test_joint_encode_errors;
          Alcotest.test_case "encode merges" `Quick test_joint_encode_merges;
          Alcotest.test_case "palindrome + indexof" `Quick test_joint_solve_palindrome_with_index;
          Alcotest.test_case "regex + palindrome" `Quick test_joint_solve_regex_and_palindrome;
          Alcotest.test_case "per-constraint verdicts" `Quick
            test_joint_reports_conjunct_failures;
          Alcotest.test_case "verifier reaches sampler" `Quick
            test_joint_verifier_reaches_sampler;
        ] );
      ( "workload",
        [
          Alcotest.test_case "always valid" `Quick test_workload_valid;
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "planted includes" `Quick test_workload_planted_includes;
          Alcotest.test_case "kind restriction" `Quick test_workload_kind_restriction;
          Alcotest.test_case "validation" `Quick test_workload_validation;
          Alcotest.test_case "solvers agree" `Slow test_workload_solvers_agree;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "smtgen rep rendering" `Quick test_smtgen_rep_rendering;
          Alcotest.test_case "pipeline output empty" `Quick test_pipeline_output_empty;
          Alcotest.test_case "params pp" `Quick test_params_pp;
          Alcotest.test_case "regex {m,n} solve" `Quick test_regex_constraint_with_rep;
        ] );
      ( "smtgen",
        [
          Alcotest.test_case "escape" `Quick test_smtgen_escape;
          Alcotest.test_case "regex terms" `Quick test_smtgen_regex_terms;
          Alcotest.test_case "assertions" `Quick test_smtgen_assertions;
          Alcotest.test_case "scripts solve" `Slow test_smtgen_script_runs;
        ] );
      ( "solver",
        [
          Alcotest.test_case "prefers satisfying sample" `Quick
            test_solver_prefers_satisfying_sample;
          Alcotest.test_case "reports unsatisfied" `Quick test_solver_reports_unsatisfied;
          Alcotest.test_case "batch matches individual" `Quick test_solve_batch_matches_individual;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "reverse+replace (Table 1 r1)" `Quick
            test_pipeline_reverse_then_replace;
          Alcotest.test_case "concat+replaceAll (Table 1 r4)" `Quick
            test_pipeline_concat_then_replace_all;
          Alcotest.test_case "generative has no expectation" `Quick
            test_pipeline_generative_no_expected;
          Alcotest.test_case "append/prepend" `Quick test_pipeline_append_prepend;
          Alcotest.test_case "positional decode blocks" `Quick
            test_pipeline_positional_decode_blocks;
          Alcotest.test_case "trailing positional is ok" `Quick
            test_pipeline_positional_final_stage_ok;
          Alcotest.test_case "describe" `Quick test_pipeline_describe;
        ] );
    ]
