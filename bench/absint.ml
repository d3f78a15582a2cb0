(* Ext-17: pre-encode abstract interpretation — static decisions and
   encoding shrinking over the Table 1 corpus.

   For every instance the bench compares the annealed search space with
   and without the absint pass:

   - statically decided instances (verdict sat/unsat) anneal zero
     variables — the whole QUBO evaporates;
   - undecided instances anneal only the residual left after clamping
     the statically-forced codec bits ({!Qsmt_qubo.Preprocess.clamp});
   - every solve still goes through the classical verifier, and each
     fixed-seed row must come back satisfied, so the shrink never costs
     an answer.

   The headline is the aggregate logical-variable reduction across the
   corpus (sum of annealed variables, absint on vs off); the bench
   fails under 15%, the CI shrink gate.

   Run with:
     dune exec bench/absint.exe          full run, writes BENCH_10.json
     QSMT_BENCH_FAST=1 dune exec ...     reduced (CI smoke) run *)

module Constr = Qsmt_strtheory.Constr
module Compile = Qsmt_strtheory.Compile
module Absint = Qsmt_strtheory.Absint
module Solver = Qsmt_strtheory.Solver
module Workload = Qsmt_strtheory.Workload
module Preprocess = Qsmt_qubo.Preprocess
module Qubo = Qsmt_qubo.Qubo
module Sampler = Qsmt_anneal.Sampler
module Sa = Qsmt_anneal.Sa
module Rparser = Qsmt_regex.Parser

let fast = Sys.getenv_opt "QSMT_BENCH_FAST" <> None
let reads = if fast then 8 else 32
let sweeps = if fast then 200 else 1000
let trials = if fast then 2 else 5

let sampler =
  Sampler.simulated_annealing ~params:{ Sa.default with Sa.reads; sweeps; seed = 0 } ()

let table1 =
  [
    Constr.Reverse "hello";
    Constr.Palindrome { length = 6 };
    Constr.Regex { pattern = Rparser.parse_exn "a[bc]+"; length = 5 };
    Constr.Concat [ "hello"; " "; "world" ];
    Constr.Index_of { length = 6; substring = "hi"; index = 2; first = false };
    Constr.Includes { haystack = "hello world"; needle = "world"; first = false };
  ]

let corpus = table1 @ Workload.suite ~seed:7 ~max_length:6 ~count:4 ()

type row = {
  name : string;
  verdict : string;
  vars : int;  (** logical variables of the full encoding *)
  annealed : int;  (** variables the sampler actually explores with absint on *)
  off_s : float;
  on_s : float;
  sat : bool;  (** satisfied (or proven unsat) with absint on *)
}

let time f =
  let t0 = Qsmt_util.Mclock.now () in
  let r = f () in
  (Qsmt_util.Mclock.now () -. t0, r)

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let run_instance c =
  let name = Constr.describe c in
  let vars = Constr.num_vars c in
  let analysis =
    match Absint.analyze [ c ] with
    | Ok a -> Some a
    | Error _ -> None
  in
  let verdict, annealed =
    match analysis with
    | Some { Absint.verdict = Absint.V_sat _; _ } -> ("sat", 0)
    | Some { Absint.verdict = Absint.V_unsat _; _ } -> ("unsat", 0)
    | Some ({ Absint.verdict = Absint.V_undecided; _ } as a) -> begin
      match Absint.forced_bits a with
      | [] -> ("undecided", vars)
      | forced ->
        let red = Preprocess.clamp (Compile.to_qubo c) forced in
        ("undecided", Preprocess.num_free red)
    end
    | None -> ("n/a", vars)
  in
  let solve absint = Solver.solve ~sampler ~absint c in
  let off_s = mean (List.init trials (fun _ -> fst (time (fun () -> solve `Off)))) in
  let on_s, outcome =
    let samples = List.init trials (fun _ -> time (fun () -> solve `On)) in
    (mean (List.map fst samples), snd (List.hd samples))
  in
  (* a static unsat is a correct answer too: the row only fails when the
     solver neither satisfied the constraint nor proved it unsatisfiable *)
  let sat =
    outcome.Solver.satisfied
    ||
    match outcome.Solver.decided with
    | Some { Absint.verdict = Absint.V_unsat _; _ } -> true
    | _ -> false
  in
  let r = { name; verdict; vars; annealed; off_s; on_s; sat } in
  Format.printf "%-44s %-9s vars %3d -> %3d | off %7.2fms on %7.2fms%s@." r.name r.verdict
    r.vars r.annealed (1e3 *. r.off_s) (1e3 *. r.on_s)
    (if r.sat then "" else " [NOT SAT]");
  r

let json_out rows ~reduction path =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"absint\",\n";
  p "  \"pr\": 10,\n";
  p "  \"fast\": %b,\n" fast;
  p "  \"reads\": %d,\n" reads;
  p "  \"sweeps\": %d,\n" sweeps;
  p "  \"trials\": %d,\n" trials;
  p "  \"rows\": [\n";
  List.iteri
    (fun k r ->
      p "    { \"name\": %S, \"verdict\": \"%s\", \"vars\": %d, \"annealed\": %d,\n" r.name
        r.verdict r.vars r.annealed;
      p "      \"off_s\": %.6f, \"on_s\": %.6f, \"sat\": %b }%s\n" r.off_s r.on_s r.sat
        (if k = List.length rows - 1 then "" else ","))
    rows;
  p "  ],\n";
  p "  \"headline_var_reduction\": %.4f\n" reduction;
  p "}\n";
  close_out oc

let () =
  Format.printf "absint shrink benchmark%s (reads=%d, sweeps=%d, trials=%d)@."
    (if fast then " [FAST]" else "")
    reads sweeps trials;
  let rows = List.map run_instance corpus in
  let full = List.fold_left (fun acc r -> acc + r.vars) 0 rows in
  let annealed = List.fold_left (fun acc r -> acc + r.annealed) 0 rows in
  let reduction = 1. -. (float_of_int annealed /. float_of_int (max full 1)) in
  json_out rows ~reduction "BENCH_10.json";
  Format.printf "@.logical variables annealed: %d of %d (%.1f%% reduction) — wrote BENCH_10.json@."
    annealed full (100. *. reduction);
  let unsat_rows = List.filter (fun r -> not r.sat) rows in
  List.iter
    (fun r -> Printf.eprintf "absint bench: row not satisfied: %s\n" r.name)
    unsat_rows;
  if reduction < 0.15 then begin
    prerr_endline "absint bench: aggregate variable reduction below the 15% gate";
    exit 1
  end;
  if unsat_rows <> [] then exit 1
