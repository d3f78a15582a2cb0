(* Input-validation test generation — the symbolic-execution workload the
   paper's introduction motivates.

   Run with:  dune exec examples/input_validation.exe

   A web form validates usernames with string checks (the kind of branch
   conditions a symbolic executor collects along a path). To cover the
   "accepted" path we need a concrete input satisfying all of them; the
   annealing solver generates one per seed, and the classical CDCL
   baseline cross-checks. *)

module Constr = Qsmt_strtheory.Constr
module Solver = Qsmt_strtheory.Solver
module Semantics = Qsmt_strtheory.Semantics
module Strsolver = Qsmt_classical.Strsolver
module Dfa = Qsmt_regex.Dfa

(* The validator under test: the path condition for acceptance. *)
let username_ok s =
  String.length s = 8
  && Dfa.matches (Dfa.of_syntax (Qsmt_regex.Parser.parse_exn "[a-z]+")) s
  && Semantics.contains s ~sub:"dev"

let () =
  Format.printf "Path condition: length = 8  AND  matches /[a-z]+/  AND  contains \"dev\"@.@.";
  (* The conjunction compiles to an Index_of-style generation: we use the
     Contains constraint for the substring and rely on the regex unroll
     for the lowercase alphabet. Conjunctions of this shape are what the
     SMT-LIB front-end builds; here we drive the solver API directly with
     the strongest single constraint and then filter on the validator. *)
  let pattern = Qsmt_regex.Parser.parse_exn "[a-z]+" in
  ignore pattern;
  let constr = Constr.Index_of { length = 8; substring = "dev"; index = 2; first = false } in
  let attempts = List.init 8 (fun seed -> seed) in
  let hits =
    List.filter_map
      (fun seed ->
        let sampler = Solver.default_sampler ~seed in
        let outcome = Solver.solve ~sampler constr in
        match outcome.Solver.value with
        | Constr.Str s when outcome.Solver.satisfied ->
          let accepted = username_ok s in
          Format.printf "seed %d -> %S  constraint ok, validator %s@." seed s
            (if accepted then "ACCEPTS" else "rejects (free chars not lowercase)");
          if accepted then Some s else None
        | _ ->
          Format.printf "seed %d -> annealer failed to satisfy the constraint@." seed;
          None)
      attempts
  in
  Format.printf "@.%d/%d generated inputs drive the validator's accept path.@."
    (List.length hits) (List.length attempts);
  (* Classical cross-check: CDCL proves the path is reachable at all. *)
  let o = Strsolver.solve constr in
  Format.printf "@.CDCL baseline: %s (%d vars, %d clauses, %a)@."
    (match o.Strsolver.result with `Sat -> "sat" | `Unsat -> "unsat" | `Unknown -> "unknown")
    o.Strsolver.cnf_vars o.Strsolver.cnf_clauses Qsmt_classical.Cdcl.pp_stats
    o.Strsolver.sat_stats;
  match o.Strsolver.value with
  | Some (Constr.Str s) -> Format.printf "CDCL witness: %S@." s
  | _ -> ()
