(* Ext-14: incremental re-solving, cold vs warm.

   The push/pop workload re-checks near-identical queries. This bench
   measures the three tiers a session can answer from, against solving
   the same query from scratch each time:

   - cold      : fresh session, full encode + merge + anneal
   - warm push : extend a solved conjunction (re-merged from cached
                 per-conjunct encodings, anneal warm-started from the
                 previous best sample with verified-read early exit)
   - warm pop  : retract back to a solved prefix (the cached model still
                 verifies, so no sampling happens at all)

   The pop tier is the headline: it must be at least 5x faster than the
   cold solve of the same prefix, and the bench fails if it is not.

   Run with:
     dune exec bench/incremental.exe               full run, writes BENCH_6.json
     QSMT_BENCH_FAST=1 dune exec ...               reduced (CI smoke) run *)

module Constr = Qsmt_strtheory.Constr
module Incremental = Qsmt_strtheory.Incremental
module Sampler = Qsmt_anneal.Sampler
module Sa = Qsmt_anneal.Sa
module Rparser = Qsmt_regex.Parser

let fast = Sys.getenv_opt "QSMT_BENCH_FAST" <> None
let reads = if fast then 8 else 32
let sweeps = if fast then 200 else 800
let trials = if fast then 3 else 10

let sampler =
  Sampler.simulated_annealing ~params:{ Sa.default with Sa.reads; sweeps; seed = 11 } ()

(* prefix conjunction, then the conjunct push adds *)
let scenarios =
  [
    ( "equals-contains-6",
      [ Constr.Equals "banana" ],
      [ Constr.Contains { length = 6; substring = "an" } ] );
    ( "palindrome-contains-6",
      [ Constr.Palindrome { length = 6 } ],
      [ Constr.Contains { length = 6; substring = "ab" } ] );
    ( "regex-contains-6",
      [ Constr.Regex { pattern = Rparser.parse_exn "a[bc]+"; length = 6 } ],
      [ Constr.Contains { length = 6; substring = "cb" } ] );
  ]

type row = {
  name : string;
  cold_prefix_s : float;
  cold_full_s : float;
  warm_push_s : float;
  push_speedup : float;
  warm_pop_s : float;
  pop_speedup : float;
  pop_sat : bool;
}

let time f =
  let t0 = Qsmt_util.Mclock.now () in
  let r = f () in
  (Qsmt_util.Mclock.now () -. t0, r)

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let speedup ~cold ~warm = cold /. Float.max warm 1e-9

let run_scenario (name, prefix, ext) =
  let full = prefix @ ext in
  let fresh () = Incremental.create ~sampler () in
  let solve s cs =
    match Incremental.solve_joint s cs with
    | Ok o -> o
    | Error e -> failwith (name ^ ": " ^ e)
  in
  let cold cs = mean (List.init trials (fun _ -> fst (time (fun () -> solve (fresh ()) cs)))) in
  let cold_prefix_s = cold prefix in
  let cold_full_s = cold full in
  let warm_push_s =
    mean
      (List.init trials (fun _ ->
           let s = fresh () in
           ignore (solve s prefix);
           fst (time (fun () -> solve s full))))
  in
  let pop_sat = ref false in
  let warm_pop_s =
    mean
      (List.init trials (fun _ ->
           let s = fresh () in
           ignore (solve s full);
           let dt, o = time (fun () -> solve s prefix) in
           pop_sat := o.Qsmt_strtheory.Solver.satisfied;
           dt))
  in
  let r =
    {
      name;
      cold_prefix_s;
      cold_full_s;
      warm_push_s;
      push_speedup = speedup ~cold:cold_full_s ~warm:warm_push_s;
      warm_pop_s;
      pop_speedup = speedup ~cold:cold_prefix_s ~warm:warm_pop_s;
      pop_sat = !pop_sat;
    }
  in
  Format.printf "%-24s cold %8.2fms | push %8.2fms (%5.1fx) | pop %8.3fms (%5.1fx)%s@." r.name
    (1e3 *. r.cold_full_s) (1e3 *. r.warm_push_s) r.push_speedup (1e3 *. r.warm_pop_s)
    r.pop_speedup
    (if r.pop_sat then "" else " [pop not sat]");
  r

let json_out rows headline path =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"incremental\",\n";
  p "  \"pr\": 6,\n";
  p "  \"fast\": %b,\n" fast;
  p "  \"reads\": %d,\n" reads;
  p "  \"sweeps\": %d,\n" sweeps;
  p "  \"trials\": %d,\n" trials;
  p "  \"scenarios\": [\n";
  List.iteri
    (fun k r ->
      p "    { \"name\": \"%s\", \"cold_prefix_s\": %.6f, \"cold_full_s\": %.6f,\n" r.name
        r.cold_prefix_s r.cold_full_s;
      p "      \"warm_push_s\": %.6f, \"push_speedup\": %.2f,\n" r.warm_push_s r.push_speedup;
      p "      \"warm_pop_s\": %.6f, \"pop_speedup\": %.2f, \"pop_sat\": %b }%s\n" r.warm_pop_s
        r.pop_speedup r.pop_sat
        (if k = List.length rows - 1 then "" else ","))
    rows;
  p "  ],\n";
  p "  \"headline_pop_speedup\": %.2f\n" headline;
  p "}\n";
  close_out oc

let () =
  Format.printf "incremental re-solve benchmark%s (reads=%d, sweeps=%d, trials=%d)@."
    (if fast then " [FAST]" else "")
    reads sweeps trials;
  let rows = List.map run_scenario scenarios in
  let headline = List.fold_left (fun acc r -> Float.max acc r.pop_speedup) 0. rows in
  json_out rows headline "BENCH_6.json";
  Format.printf "@.headline pop speedup: %.1fx — wrote BENCH_6.json@." headline;
  if headline < 5. then begin
    prerr_endline "incremental bench: pop re-solve is not >=5x faster than cold";
    exit 1
  end
