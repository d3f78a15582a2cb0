(* Quickstart: the Figure 1 pipeline on a handful of constraints.

   Run with:  dune exec examples/quickstart.exe

   Each constraint is compiled to a QUBO, annealed (simulated annealing,
   fixed seed), decoded back to a value, and verified classically — the
   exact flow of the paper's Table 1, including the abbreviated matrix
   print-outs. *)

module Constr = Qsmt_strtheory.Constr
module Solver = Qsmt_strtheory.Solver
module Qubo = Qsmt_qubo.Qubo
module Qubo_print = Qsmt_qubo.Qubo_print
module Telemetry = Qsmt_util.Telemetry

let () =
  let sampler = Solver.default_sampler ~seed:42 in
  let constraints =
    [
      Constr.Equals "hi";
      Constr.Reverse "hello";
      Constr.Replace_all { source = "hello"; find = 'l'; replace = 'x' };
      Constr.Palindrome { length = 6 };
      Constr.Regex { pattern = Qsmt_regex.Parser.parse_exn "a[bc]+"; length = 5 };
      Constr.Includes { haystack = "hello world"; needle = "world" };
    ]
  in
  List.iter
    (fun c ->
      (* The stage times are the solve's encode/sample/decode span totals. *)
      let telemetry = Telemetry.aggregate_only () in
      let outcome = Solver.solve ~sampler ~telemetry c in
      let span_s name =
        match List.find_opt (fun (n, _, _) -> n = name) (Telemetry.span_totals telemetry) with
        | Some (_, _, total) -> total
        | None -> 0.
      in
      Format.printf "@.constraint : %s@." (Constr.describe c);
      Format.printf "qubo       : %a@." Qubo.pp outcome.Solver.qubo;
      Format.printf "matrix     :@.%a@."
        (fun ppf q -> Qubo_print.pp_dense ~max_dim:8 ppf q)
        outcome.Solver.qubo;
      Format.printf "output     : %a  (energy %g, %s)@." Constr.pp_value outcome.Solver.value
        outcome.Solver.energy
        (if outcome.Solver.satisfied then "verified" else "NOT satisfied");
      Format.printf "timing     : encode %.1f us | anneal %.1f ms | decode %.1f us@."
        (1e6 *. span_s "encode")
        (1e3 *. span_s "sample")
        (1e6 *. span_s "decode"))
    constraints
