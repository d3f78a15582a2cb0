(* Tests that need a process in which no domain has been spawned yet.
   Every other test executable may already hold the shared pool's
   worker domains by the time a test runs, so these live in their own
   executable, which dune starts as a fresh process. *)

module Qubo = Qsmt_qubo.Qubo
module Portfolio = Qsmt_anneal.Portfolio

(* Threads of this process: one per running domain, plus the runtime's
   helper threads once a second domain has started. *)
let threads () = Array.length (Sys.readdir "/proc/self/task")

let test_portfolio_one_job_spawns_no_domain () =
  if not (Sys.file_exists "/proc/self/task") then Alcotest.skip ();
  let b = Qubo.builder () in
  String.iteri (fun i c -> Qubo.set b i i (if c = '1' then -1. else 1.)) "1011010";
  let q = Qubo.freeze b in
  let before = threads () in
  let r = Portfolio.run ~params:{ Portfolio.default with Portfolio.jobs = 1 } q in
  Alcotest.(check int) "every member reported" 5 (List.length r.Portfolio.reports);
  Alcotest.(check int) "threads after a jobs = 1 race" before (threads ())

let () =
  Alcotest.run "qsmt_fresh_process"
    [
      ( "domains",
        [
          Alcotest.test_case "portfolio with one job spawns no domain" `Quick
            test_portfolio_one_job_spawns_no_domain;
        ] );
    ]
