(* Conjunctions: beyond the paper's sequential pipelines.

   Run with:  dune exec examples/conjunctions.exe

   Section 4.12 of the paper chains operations sequentially — each stage
   transforms the previous output. That cannot pose a *conjunction*
   ("one string satisfying all of these at once"). The joint encoding
   merges the per-constraint QUBOs over the same variables and anneals
   once; the same conjunctions also flow through the SMT-LIB front end.
   Finally, Lewis-Glover preprocessing (the paper's reference [37]) shows
   which conjunctions are secretly easy: if variable fixing solves the
   merged QUBO outright, no annealer was needed. *)

module Constr = Qsmt_strtheory.Constr
module Joint = Qsmt_strtheory.Joint
module Preprocess = Qsmt_qubo.Preprocess
module Solver = Qsmt_strtheory.Solver
module Interp = Qsmt_smtlib.Interp
module Rparser = Qsmt_regex.Parser

let () =
  let sampler = Solver.default_sampler ~seed:5 in

  Format.printf "== joint conjunctions over one merged QUBO ==@.@.";
  List.iter
    (fun (label, conjuncts) ->
      match Joint.solve ~sampler conjuncts with
      | Error e -> Format.printf "%-42s error: %s@." label e
      | Ok o ->
        let value = match o.Solver.value with Constr.Str s -> s | Constr.Pos _ -> "" in
        Format.printf "%-42s -> %S %s@." label
          (String.map Qsmt_util.Ascii7.clamp_printable value)
          (if o.Solver.satisfied then "(all conjuncts verified)" else "(FAILED)");
        if not o.Solver.satisfied then
          List.iter
            (fun c ->
              Format.printf "      %-38s %s@." (Constr.describe c)
                (if Constr.verify c o.Solver.value then "ok" else "violated"))
            conjuncts)
    [
      ( "palindrome(4) and 'ab' at index 0",
        [
          Constr.Palindrome { length = 4 };
          Constr.Index_of { length = 4; substring = "ab"; index = 0; first = false };
        ] );
      ( "palindrome(6) over alphabet [ab]",
        [
          Constr.Palindrome { length = 6 };
          Constr.Regex { pattern = Rparser.parse_exn "[ab]+"; length = 6 };
        ] );
      ( "x = 'ab' and x = 'cd' (contradiction)",
        [ Constr.Equals "ab"; Constr.Equals "cd" ] );
    ];

  Format.printf "@.== the same conjunction through SMT-LIB ==@.@.";
  let script =
    {|(declare-const x String)
      (assert (str.palindrome x))
      (assert (= (str.indexof x "ab" 0) 0))
      (assert (= (str.len x) 4))
      (check-sat)
      (get-value (x))|}
  in
  print_endline script;
  (match Interp.run_string ~sampler script with
  | Ok lines -> List.iter (fun l -> print_endline ("  => " ^ l)) lines
  | Error e -> Format.printf "error: %s@." e);

  Format.printf "@.== which conjunctions even need an annealer? (preprocessing) ==@.@.";
  List.iter
    (fun (label, conjuncts) ->
      match Joint.encode conjuncts with
      | Error e -> Format.printf "%-42s error: %s@." label e
      | Ok (q, _) ->
        let t = Preprocess.reduce q in
        Format.printf "%-42s %d vars -> %d free after fixing%s@." label
          (Qsmt_qubo.Qubo.num_vars q) (Preprocess.num_free t)
          (if Preprocess.num_free t = 0 then "  (solved classically!)" else ""))
    [
      ("equality alone", [ Constr.Equals "abcd" ]);
      ( "palindrome + forced prefix",
        [
          Constr.Palindrome { length = 4 };
          Constr.Index_of { length = 4; substring = "ab"; index = 0; first = false };
        ] );
      ("palindrome alone", [ Constr.Palindrome { length = 4 } ]);
    ]
