(* Unit tests for annealing figures of merit (Metrics) and the
   telemetry layer (spans, counters, histograms, JSONL round-trip).

   The Metrics formulas are the quantities every bench table reports;
   each test here pins a hand-computed value so a refactor of the
   log-ratio arithmetic cannot silently shift published numbers. *)

module Bitvec = Qsmt_util.Bitvec
module Telemetry = Qsmt_util.Telemetry
module Json = Qsmt_trace.Json
module Trace = Qsmt_trace.Trace
module Sampleset = Qsmt_anneal.Sampleset
module Metrics = Qsmt_anneal.Metrics

let check = Alcotest.check

let feq ?(eps = 1e-9) name want got =
  if Float.abs (want -. got) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" name want got

(* A set with [good] reads at the ground energy 0.0 and [bad] reads at
   energy 2.0. Distinct bit patterns so aggregation keeps them apart. *)
let two_level ~good ~bad =
  let entry bits energy occurrences =
    { Sampleset.bits = Bitvec.of_string bits; energy; occurrences }
  in
  Sampleset.of_entries
    (List.concat
       [
         (if good > 0 then [ entry "00" 0.0 good ] else []);
         (if bad > 0 then [ entry "11" 2.0 bad ] else []);
       ])

(* ------------------------------------------------------------------ *)
(* success_probability *)

let test_success_basic () =
  let s = two_level ~good:3 ~bad:1 in
  feq "3/4 good" 0.75 (Metrics.success_probability s ~ground_energy:0.0 ());
  feq "empty is 0" 0.
    (Metrics.success_probability Sampleset.empty ~ground_energy:0.0 ())

let test_success_tolerance_edges () =
  let entry bits energy occurrences =
    { Sampleset.bits = Bitvec.of_string bits; energy; occurrences }
  in
  let s = Sampleset.of_entries [ entry "0" 1.0 1; entry "1" (1.0 +. 1e-10) 1 ] in
  (* default tol 1e-9: both reads count as ground *)
  feq "within default tol" 1.0 (Metrics.success_probability s ~ground_energy:1.0 ());
  (* tol 0 would still admit exactly-equal energies but not the +1e-10 read *)
  feq "tol 0 excludes epsilon-above" 0.5
    (Metrics.success_probability s ~ground_energy:1.0 ~tol:0. ());
  (* a generous tol admits everything *)
  feq "wide tol admits all" 1.0
    (Metrics.success_probability s ~ground_energy:1.0 ~tol:1e-3 ());
  (* ground strictly below every read: nothing counts *)
  feq "unreached ground" 0.
    (Metrics.success_probability s ~ground_energy:0.0 ~tol:1e-6 ())

(* ------------------------------------------------------------------ *)
(* repeats_needed *)

let test_repeats_boundaries () =
  check Alcotest.(option int) "p=0 unreachable" None
    (Metrics.repeats_needed ~p_success:0. ~confidence:0.99);
  check Alcotest.(option int) "p<0 unreachable" None
    (Metrics.repeats_needed ~p_success:(-0.5) ~confidence:0.99);
  check Alcotest.(option int) "p=1 one read" (Some 1)
    (Metrics.repeats_needed ~p_success:1. ~confidence:0.99);
  check Alcotest.(option int) "p>1 clamps to one read" (Some 1)
    (Metrics.repeats_needed ~p_success:1.5 ~confidence:0.99)

let test_repeats_hand_computed () =
  (* p=0.5, conf=0.99: ln(0.01)/ln(0.5) = 6.64... -> 7 reads *)
  check Alcotest.(option int) "p=.5 conf=.99" (Some 7)
    (Metrics.repeats_needed ~p_success:0.5 ~confidence:0.99);
  (* p=0.9, conf=0.99: ln(0.01)/ln(0.1) = 2 exactly *)
  check Alcotest.(option int) "p=.9 conf=.99" (Some 2)
    (Metrics.repeats_needed ~p_success:0.9 ~confidence:0.99);
  (* p=0.99, conf=0.5: one read already exceeds the target *)
  check Alcotest.(option int) "easy target" (Some 1)
    (Metrics.repeats_needed ~p_success:0.99 ~confidence:0.5)

let test_repeats_confidence_domain () =
  let raises c =
    match Metrics.repeats_needed ~p_success:0.5 ~confidence:c with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check Alcotest.bool "confidence 0 rejected" true (raises 0.);
  check Alcotest.bool "confidence 1 rejected" true (raises 1.);
  check Alcotest.bool "confidence 1.5 rejected" true (raises 1.5);
  check Alcotest.bool "confidence 0.5 fine" false (raises 0.5)

(* ------------------------------------------------------------------ *)
(* time_to_solution *)

let test_tts_hand_computed () =
  (* TTS = t_read * ln(1-conf)/ln(1-p). With p=0.9, conf=0.99 the ratio
     is exactly 2, so TTS = 2 * t_read. *)
  (match Metrics.time_to_solution ~time_per_read:1e-3 ~p_success:0.9 () with
  | Some t -> feq "p=.9 doubles t_read" 2e-3 t ~eps:1e-12
  | None -> Alcotest.fail "expected Some");
  (* p=0.5, conf=0.99: ratio ln(0.01)/ln(0.5) = 6.6438561897747... *)
  (match Metrics.time_to_solution ~time_per_read:2.0 ~p_success:0.5 () with
  | Some t -> feq "p=.5" (2.0 *. (Float.log 0.01 /. Float.log 0.5)) t ~eps:1e-12
  | None -> Alcotest.fail "expected Some");
  (* explicit confidence: conf=0.5, p=0.5 -> exactly one read's time *)
  match Metrics.time_to_solution ~time_per_read:0.25 ~p_success:0.5 ~confidence:0.5 () with
  | Some t -> feq "conf=.5 p=.5 is one read" 0.25 t ~eps:1e-12
  | None -> Alcotest.fail "expected Some"

let test_tts_boundaries () =
  check Alcotest.bool "p=0 -> None" true
    (Metrics.time_to_solution ~time_per_read:1. ~p_success:0. () = None);
  (match Metrics.time_to_solution ~time_per_read:0.5 ~p_success:1. () with
  | Some t -> feq "p=1 -> one read" 0.5 t
  | None -> Alcotest.fail "expected Some");
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check Alcotest.bool "t_read=0 rejected" true
    (raises (fun () -> Metrics.time_to_solution ~time_per_read:0. ~p_success:0.5 ()));
  check Alcotest.bool "bad confidence rejected" true
    (raises (fun () ->
         Metrics.time_to_solution ~time_per_read:1. ~p_success:0.5 ~confidence:1. ()))

let test_pp_tts () =
  let s v = Format.asprintf "%a" Metrics.pp_tts v in
  check Alcotest.string "never-seen prints n/a" "n/a" (s None);
  check Alcotest.string "seconds" "2.50 s" (s (Some 2.5));
  check Alcotest.string "millis" "3.20 ms" (s (Some 3.2e-3));
  check Alcotest.string "micros" "4.0 us" (s (Some 4e-6))

(* ------------------------------------------------------------------ *)
(* residual_energy *)

let test_residual () =
  check Alcotest.bool "empty -> None" true
    (Metrics.residual_energy Sampleset.empty ~ground_energy:0. = None);
  (match Metrics.residual_energy (two_level ~good:1 ~bad:1) ~ground_energy:0. with
  | Some r -> feq "mean of 0 and 2" 1.0 r
  | None -> Alcotest.fail "expected Some");
  match Metrics.residual_energy (two_level ~good:3 ~bad:1) ~ground_energy:0. with
  | Some r -> feq "occurrence-weighted" 0.5 r
  | None -> Alcotest.fail "expected Some"

(* ================================================================== *)
(* Telemetry *)

let test_null_disabled () =
  check Alcotest.bool "null disabled" false (Telemetry.enabled Telemetry.null);
  (* every operation is a no-op, and reading aggregates is safe *)
  Telemetry.count Telemetry.null "x" 3;
  Telemetry.observe Telemetry.null "h" 1.0;
  let sp = Telemetry.span Telemetry.null "s" in
  Telemetry.finish Telemetry.null sp;
  Telemetry.emit Telemetry.null "ev" [];
  Telemetry.flush Telemetry.null;
  check Alcotest.(list (pair string int)) "no counters" [] (Telemetry.counters Telemetry.null);
  check Alcotest.int "no events" 0 (List.length (Telemetry.events Telemetry.null))

let test_collector_events_and_counters () =
  let t = Telemetry.collector () in
  check Alcotest.bool "collector enabled" true (Telemetry.enabled t);
  Telemetry.count t "reads" 8;
  Telemetry.count t "reads" 4;
  Telemetry.count t "other" 1;
  Telemetry.emit t "point" [ ("k", Telemetry.Int 7) ];
  check Alcotest.(option int) "counter sums" (Some 12) (Telemetry.find_counter t "reads");
  check
    Alcotest.(list (pair string int))
    "sorted counters"
    [ ("other", 1); ("reads", 12) ]
    (Telemetry.counters t);
  let evs = Telemetry.events t in
  check Alcotest.int "one point event" 1 (List.length evs);
  let e = List.hd evs in
  check Alcotest.string "event name" "point" e.Telemetry.ev;
  check Alcotest.bool "field survives" true
    (List.assoc "k" e.Telemetry.fields = Telemetry.Int 7)

let test_span_nesting () =
  let t = Telemetry.collector () in
  let outer = Telemetry.span t "outer" in
  let inner = Telemetry.span t ~parent:outer "inner" in
  Telemetry.finish t inner;
  Telemetry.finish t outer;
  (match Telemetry.events t with
  | [ b_out; b_in; e_in; e_out ] ->
    check Alcotest.string "begin outer" "span.begin" b_out.Telemetry.ev;
    check Alcotest.string "begin inner" "span.begin" b_in.Telemetry.ev;
    check Alcotest.int "inner's parent is outer" b_out.Telemetry.span b_in.Telemetry.parent;
    check Alcotest.bool "distinct span ids" true
      (b_out.Telemetry.span <> b_in.Telemetry.span);
    check Alcotest.string "inner ends first" "span.end" e_in.Telemetry.ev;
    check Alcotest.int "end matches begin" b_in.Telemetry.span e_in.Telemetry.span;
    check Alcotest.string "outer ends last" "span.end" e_out.Telemetry.ev;
    check Alcotest.bool "end carries duration" true
      (List.mem_assoc "dur_s" e_in.Telemetry.fields)
  | evs -> Alcotest.failf "expected 4 events, got %d" (List.length evs));
  match Telemetry.span_totals t with
  | [ ("inner", 1, d_in); ("outer", 1, d_out) ] ->
    check Alcotest.bool "durations non-negative" true (d_in >= 0. && d_out >= 0.);
    check Alcotest.bool "outer contains inner" true (d_out >= d_in)
  | _ -> Alcotest.fail "span totals should list inner and outer once each"

let test_with_span_on_raise () =
  let t = Telemetry.collector () in
  (try Telemetry.with_span t "risky" (fun _ -> failwith "boom") with Failure _ -> ());
  match Telemetry.span_totals t with
  | [ ("risky", 1, _) ] -> ()
  | _ -> Alcotest.fail "span must be finished when the body raises"

let test_timestamps_monotone () =
  let t = Telemetry.collector () in
  for i = 0 to 99 do
    Telemetry.emit t "tick" [ ("i", Telemetry.Int i) ]
  done;
  let ts = List.map (fun e -> e.Telemetry.ts) (Telemetry.events t) in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  check Alcotest.bool "non-decreasing ts" true (sorted ts)

let test_histograms () =
  let t = Telemetry.aggregate_only () in
  List.iter (Telemetry.observe t "e") [ 1.0; 2.0; 3.0; 4.0 ];
  match Telemetry.histograms t with
  | [ ("e", h) ] ->
    check Alcotest.int "count" 4 h.Telemetry.h_count;
    feq "min" 1.0 h.Telemetry.h_min;
    feq "max" 4.0 h.Telemetry.h_max;
    feq "mean" 2.5 h.Telemetry.h_mean;
    (* sample stddev of {1,2,3,4}: sqrt(5/3) *)
    feq "stddev" (sqrt (5. /. 3.)) h.Telemetry.h_stddev ~eps:1e-9
  | _ -> Alcotest.fail "expected one histogram"

let test_jsonl_roundtrip () =
  let path = Filename.temp_file "qsmt_telemetry" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Telemetry.with_jsonl path (fun t ->
          Telemetry.with_span t "solve" (fun solve ->
              Telemetry.emit t ~span:solve "sa.sweep"
                [ ("sweep", Telemetry.Int 1); ("energy", Telemetry.Float (-2.5)) ];
              Telemetry.count t "sa.reads" 32;
              Telemetry.observe t "sa.read_energy" 0.5));
      match In_channel.with_open_text path Trace.validate with
      | Error msg -> Alcotest.failf "trace invalid: %s" msg
      | Ok n ->
        (* span.begin + sa.sweep + span.end + flushed counter + hist *)
        check Alcotest.bool "all events present" true (n >= 5);
        let ic = open_in path in
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> close_in ic);
        let has sub =
          List.exists
            (fun l ->
              let rec find i =
                i + String.length sub <= String.length l
                && (String.sub l i (String.length sub) = sub || find (i + 1))
              in
              find 0)
            !lines
        in
        check Alcotest.bool "sweep event serialised" true (has "\"ev\":\"sa.sweep\"");
        check Alcotest.bool "counter flushed" true (has "sa.reads");
        check Alcotest.bool "histogram flushed" true (has "sa.read_energy"))

let test_validate_rejects_garbage () =
  let path = Filename.temp_file "qsmt_telemetry_bad" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"ts\":1.0,\"ev\":\"a\"}\n{\"ts\":0.5,\"ev\":\"b\"}\n";
      close_out oc;
      match In_channel.with_open_text path Trace.validate with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "decreasing timestamps must be rejected")

let test_instrumentation_is_invisible () =
  (* The determinism contract: instrumentation never consumes PRNG state
     or changes control flow, so a traced run returns bit-identical
     samples to an untraced one. *)
  let module Sa = Qsmt_anneal.Sa in
  let module Qubo = Qsmt_qubo.Qubo in
  let b = Qubo.builder () in
  Qubo.add b 0 0 1.5;
  Qubo.add b 3 3 (-2.0);
  Qubo.add b 0 1 (-1.0);
  Qubo.add b 2 4 0.75;
  Qubo.add b 1 5 (-0.5);
  let q = Qubo.freeze ~num_vars:6 b in
  let params = { Sa.default with Sa.seed = 11; reads = 8; sweeps = 64 } in
  let plain = Sa.sample ~params q in
  let t = Telemetry.collector () in
  let traced = Sa.sample ~params ~telemetry:t q in
  let sig_of s =
    List.map
      (fun e -> (Bitvec.to_string e.Sampleset.bits, e.Sampleset.energy, e.Sampleset.occurrences))
      (Sampleset.entries s)
  in
  check Alcotest.bool "bit-identical samples" true (sig_of plain = sig_of traced);
  check Alcotest.(option int) "reads counted" (Some 8) (Telemetry.find_counter t "sa.reads");
  check Alcotest.bool "sweep stream present" true
    (List.exists (fun e -> e.Telemetry.ev = "sa.sweep") (Telemetry.events t))

(* ================================================================== *)
(* Observability: quantiles, snapshot/exposition, pool probes,
   strengthened validator, Chrome export *)

let test_quantiles_exact_small () =
  (* n <= 5: the estimator interpolates the buffered sample directly and
     must agree with Stats.percentile to the digit. *)
  let samples = [ 9.0; 1.0; 5.0; 3.0; 7.0 ] in
  let t = Telemetry.aggregate_only () in
  List.iter (Telemetry.observe t "x") samples;
  let arr = Array.of_list samples in
  match Telemetry.histograms t with
  | [ ("x", h) ] ->
    feq "p50 exact" (Qsmt_util.Stats.percentile arr 50.) h.Telemetry.h_p50;
    feq "p90 exact" (Qsmt_util.Stats.percentile arr 90.) h.Telemetry.h_p90;
    feq "p99 exact" (Qsmt_util.Stats.percentile arr 99.) h.Telemetry.h_p99
  | _ -> Alcotest.fail "expected one histogram"

let test_quantiles_sane_large () =
  (* 1..1000 shuffled deterministically: P² estimates carry error, but
     the estimates must stay ordered, in range, and near the exact
     values for a smooth distribution. *)
  let n = 1000 in
  let xs = Array.init n (fun i -> float_of_int (((i * 611) mod n) + 1)) in
  let t = Telemetry.aggregate_only () in
  Array.iter (Telemetry.observe t "x") xs;
  match Telemetry.histograms t with
  | [ ("x", h) ] ->
    check Alcotest.int "count" n h.Telemetry.h_count;
    check Alcotest.bool "ordered" true
      (h.Telemetry.h_min <= h.Telemetry.h_p50
      && h.Telemetry.h_p50 <= h.Telemetry.h_p90
      && h.Telemetry.h_p90 <= h.Telemetry.h_p99
      && h.Telemetry.h_p99 <= h.Telemetry.h_max);
    let near name want got tol =
      if Float.abs (want -. got) > tol then
        Alcotest.failf "%s: expected ~%.1f, got %.1f" name want got
    in
    near "p50" 500.5 h.Telemetry.h_p50 25.;
    near "p90" 900.1 h.Telemetry.h_p90 25.;
    near "p99" 990.01 h.Telemetry.h_p99 25.
  | _ -> Alcotest.fail "expected one histogram"

let test_snapshot_and_exposition () =
  let t = Telemetry.collector () in
  Telemetry.count t "sa.reads" 32;
  Telemetry.gauge t "pool.utilization" 0.75;
  List.iter (Telemetry.observe t "sa.read_energy") [ 1.0; 2.0; 3.0 ];
  Telemetry.with_span t "solve" (fun _ -> ());
  let open_sp = Telemetry.span t "sample" in
  let snap = Telemetry.snapshot t in
  check Alcotest.(option string) "phase is the open span" (Some "sample") snap.Telemetry.snap_phase;
  check
    Alcotest.(list (pair string int))
    "counters in snapshot"
    [ ("sa.reads", 32) ]
    snap.Telemetry.snap_counters;
  check Alcotest.bool "elapsed non-negative" true (snap.Telemetry.snap_elapsed_s >= 0.);
  let text = Trace.expose snap in
  let has sub =
    let rec find i =
      i + String.length sub <= String.length text
      && (String.sub text i (String.length sub) = sub || find (i + 1))
    in
    find 0
  in
  check Alcotest.bool "counter gets _total" true (has "qsmt_sa_reads_total 32");
  check Alcotest.bool "gauge line" true (has "qsmt_pool_utilization 0.75");
  check Alcotest.bool "median quantile line" true
    (has "qsmt_sa_read_energy{quantile=\"0.5\"} 2");
  check Alcotest.bool "summary count" true (has "qsmt_sa_read_energy_count 3");
  check Alcotest.bool "span total" true (has "qsmt_span_seconds_total{span=\"solve\"}");
  check Alcotest.bool "open span gauge" true (has "qsmt_open_spans{span=\"sample\"} 1");
  Telemetry.finish t open_sp;
  (* deterministic: same aggregates render to the same bytes *)
  check Alcotest.string "exposition deterministic" text
    (Trace.expose { snap with Telemetry.snap_elapsed_s = snap.Telemetry.snap_elapsed_s })

let test_snapshot_of_jsonl_roundtrip () =
  let path = Filename.temp_file "qsmt_snapjsonl" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Telemetry.with_jsonl path (fun t ->
          Telemetry.with_span t "solve" (fun _ ->
              Telemetry.count t "sa.reads" 32;
              Telemetry.gauge t "sa.sweeps_per_s" 1234.5;
              List.iter (Telemetry.observe t "sa.read_energy") [ 0.5; 1.5 ]));
      match In_channel.with_open_text path Trace.replay with
      | Error msg -> Alcotest.failf "replay failed: %s" msg
      | Ok snap ->
        check
          Alcotest.(list (pair string int))
          "counters survive the round-trip"
          [ ("sa.reads", 32) ]
          snap.Telemetry.snap_counters;
        (match snap.Telemetry.snap_gauges with
        | [ ("sa.sweeps_per_s", v) ] -> feq "gauge value" 1234.5 v
        | g -> Alcotest.failf "expected one gauge, got %d" (List.length g));
        (match snap.Telemetry.snap_hists with
        | [ ("sa.read_energy", h) ] ->
          check Alcotest.int "hist count" 2 h.Telemetry.h_count;
          feq "hist min" 0.5 h.Telemetry.h_min;
          feq "hist p50" 1.0 h.Telemetry.h_p50
        | _ -> Alcotest.fail "expected one histogram");
        (match snap.Telemetry.snap_spans with
        | [ ("solve", 1, d) ] -> check Alcotest.bool "span duration" true (d >= 0.)
        | _ -> Alcotest.fail "expected one span total");
        check Alcotest.(list (pair string int)) "nothing left open" []
          snap.Telemetry.snap_open_spans)

let test_pool_instrumentation () =
  let module Parallel = Qsmt_util.Parallel in
  let t = Telemetry.collector () in
  let hits = Atomic.make 0 in
  let jobs = List.init 16 (fun _ () -> Atomic.incr hits) in
  Parallel.Pool.run_list ~telemetry:t (Parallel.Pool.global ()) jobs;
  check Alcotest.int "all jobs ran" 16 (Atomic.get hits);
  check Alcotest.(option int) "jobs counted" (Some 16) (Telemetry.find_counter t "pool.jobs");
  let gauges = Telemetry.gauges t in
  (match List.assoc_opt "pool.utilization" gauges with
  | Some u -> check Alcotest.bool "utilization in (0,1]" true (u > 0. && u <= 1.)
  | None -> Alcotest.fail "pool.utilization gauge missing");
  (match List.assoc_opt "pool.participants" gauges with
  | Some p -> check Alcotest.bool "participants >= 1" true (p >= 1.)
  | None -> Alcotest.fail "pool.participants gauge missing");
  let worker_events =
    List.filter (fun e -> e.Telemetry.ev = "pool.worker") (Telemetry.events t)
  in
  check Alcotest.bool "per-worker events" true (worker_events <> []);
  let jobs_reported =
    List.fold_left
      (fun acc e ->
        match List.assoc_opt "jobs" e.Telemetry.fields with
        | Some (Telemetry.Int n) -> acc + n
        | _ -> acc)
      0 worker_events
  in
  check Alcotest.int "workers account for every job" 16 jobs_reported;
  match Telemetry.histograms t with
  | hists ->
    check Alcotest.bool "submit latency histogram" true
      (List.mem_assoc "pool.submit_latency_s" hists)

(* The pool.* contract of the two entry points: a sequential init_array
   is one job on the caller with no closing pool.stats event, and
   run_list always closes with one, also on a worker-less pool. *)
let pool_events t name = List.filter (fun e -> e.Telemetry.ev = name) (Telemetry.events t)

let test_pool_contract () =
  let module Parallel = Qsmt_util.Parallel in
  let t = Telemetry.collector () in
  check (Alcotest.array Alcotest.int) "values" [| 0; 2; 4 |]
    (Parallel.init_array ~telemetry:t ~domains:1 3 (fun i -> 2 * i));
  (match pool_events t "pool.worker" with
  | [ e ] ->
    check Alcotest.bool "worker 0, one job" true
      (List.assoc_opt "worker" e.Telemetry.fields = Some (Telemetry.Int 0)
      && List.assoc_opt "jobs" e.Telemetry.fields = Some (Telemetry.Int 1))
  | es -> Alcotest.failf "expected one pool.worker event, got %d" (List.length es));
  check Alcotest.int "no pool.stats" 0 (List.length (pool_events t "pool.stats"));
  check Alcotest.(option int) "pool.jobs" (Some 1) (Telemetry.find_counter t "pool.jobs");
  check
    Alcotest.(option (float 0.))
    "pool.participants" (Some 1.)
    (List.assoc_opt "pool.participants" (Telemetry.gauges t));
  check
    Alcotest.(option (float 0.))
    "caller alone is fully utilized" (Some 1.)
    (List.assoc_opt "pool.utilization" (Telemetry.gauges t));
  let t = Telemetry.collector () in
  let pool = Parallel.Pool.create 0 in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () -> Parallel.Pool.run_list ~telemetry:t pool (List.init 3 (fun _ () -> ())));
  match pool_events t "pool.stats" with
  | [ e ] ->
    check Alcotest.bool "participants 1" true
      (List.assoc_opt "participants" e.Telemetry.fields = Some (Telemetry.Int 1))
  | es -> Alcotest.failf "expected one pool.stats event, got %d" (List.length es)

(* Runs a trace reader over the given lines. *)
let read_lines reader lines =
  let path = Filename.temp_file "qsmt_val" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) lines);
      In_channel.with_open_text path reader)

let beginl ?(parent = -1) id name ts =
  Printf.sprintf "{\"ts\":%g,\"ev\":\"span.begin\",\"span\":%d,\"parent\":%d,\"name\":\"%s\"}"
    ts id parent name

let endl id name ts =
  Printf.sprintf "{\"ts\":%g,\"ev\":\"span.end\",\"span\":%d,\"name\":\"%s\",\"dur_s\":0.1}" ts
    id name

let test_validator_span_balance () =
  let run = read_lines Trace.validate in
  (* well-nested pair passes *)
  (match run [ beginl 1 "a" 0.1; beginl ~parent:1 2 "b" 0.2; endl 2 "b" 0.3; endl 1 "a" 0.4 ] with
  | Ok 4 -> ()
  | Ok n -> Alcotest.failf "expected 4 events, got %d" n
  | Error msg -> Alcotest.failf "balanced trace rejected: %s" msg);
  (* end without begin names the line *)
  (match run [ endl 9 "ghost" 0.1 ] with
  | Error msg ->
    check Alcotest.bool "names line 1" true
      (String.length msg >= 7 && String.sub msg 0 7 = "line 1:")
  | Ok _ -> Alcotest.fail "unmatched span.end accepted");
  (* parent must still be open *)
  (match run [ beginl 1 "a" 0.1; endl 1 "a" 0.2; beginl ~parent:1 2 "b" 0.3; endl 2 "b" 0.4 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "closed parent accepted");
  (* improper nesting: parent closed while the child is open *)
  (match run [ beginl 1 "a" 0.1; beginl ~parent:1 2 "b" 0.2; endl 1 "a" 0.3; endl 2 "b" 0.4 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "interleaved span closure accepted");
  (* dangling open span at EOF *)
  match run [ beginl 1 "a" 0.1 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dangling open span accepted"

let test_chrome_export () =
  let src = Filename.temp_file "qsmt_chrome_src" ".jsonl" in
  let dst = Filename.temp_file "qsmt_chrome_dst" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove src;
      Sys.remove dst)
    (fun () ->
      Telemetry.with_jsonl src (fun t ->
          Telemetry.with_span t "solve" (fun solve ->
              Telemetry.with_span t ~parent:solve "sample" (fun sp ->
                  Telemetry.emit t ~span:sp "sa.sweep" [ ("sweep", Telemetry.Int 1) ]);
              Telemetry.count t "sa.reads" 8));
      match
        In_channel.with_open_text src (fun ic -> Out_channel.with_open_text dst (Trace.to_chrome ic))
      with
      | Error msg -> Alcotest.failf "export failed: %s" msg
      | Ok n ->
        check Alcotest.bool "events written" true (n > 0);
        let text = In_channel.with_open_text dst In_channel.input_all in
        (match Json.parse text with
        | Error msg -> Alcotest.failf "chrome output is not JSON: %s" msg
        | Ok (Json.Obj kvs) ->
          (match List.assoc_opt "traceEvents" kvs with
          | Some (Json.List evs) ->
            check Alcotest.bool "traceEvents non-empty" true (evs <> []);
            (* both spans become complete ("X") slices *)
            let phases =
              List.filter_map
                (fun e ->
                  match e with
                  | Json.Obj fields -> (
                    match List.assoc_opt "ph" fields with
                    | Some (Json.Str p) -> Some p
                    | _ -> None)
                  | _ -> None)
                evs
            in
            check Alcotest.int "two complete slices" 2
              (List.length (List.filter (( = ) "X") phases))
          | _ -> Alcotest.fail "no traceEvents array")
        | Ok _ -> Alcotest.fail "chrome output is not a JSON object"))

(* A crashed run leaves its trace cut short: replay still reads it and
   reports what was open. The first four lines of this trace are solve
   begin, encode begin, encode.done and encode end. *)
let test_replay_cut_trace () =
  let path = Filename.temp_file "qsmt_cut" ".jsonl" in
  let lines =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Telemetry.with_jsonl path (fun t ->
            Telemetry.with_span t "solve" (fun solve ->
                Telemetry.with_span t ~parent:solve "encode" (fun sp ->
                    Telemetry.emit t ~span:sp "encode.done" [ ("vars", Telemetry.Int 35) ]);
                Telemetry.with_span t ~parent:solve "sample" ignore));
        In_channel.with_open_text path In_channel.input_lines)
  in
  match read_lines Trace.replay (List.filteri (fun i _ -> i < 4) lines) with
  | Error msg -> Alcotest.failf "cut trace rejected: %s" msg
  | Ok snap ->
    check Alcotest.(list (pair string int)) "solve still open" [ ("solve", 1) ]
      snap.Telemetry.snap_open_spans;
    check Alcotest.(option string) "phase is the open span" (Some "solve") snap.Telemetry.snap_phase;
    (match snap.Telemetry.snap_spans with
    | [ ("encode", 1, _) ] -> ()
    | _ -> Alcotest.fail "expected the closed encode span only")

let test_replay_rejects_stray_end () =
  let ghost = [ endl 9 "ghost" 0.1 ] in
  match (read_lines Trace.replay ghost, read_lines Trace.validate ghost) with
  | Error replayed, Error validated ->
    check Alcotest.string "validator's message" validated replayed;
    check Alcotest.string "names the line" "line 1: span.end for id 9 which is not open" replayed
  | Ok _, _ -> Alcotest.fail "replay accepted a span.end with no begin"
  | _, Ok _ -> Alcotest.fail "validate accepted a span.end with no begin"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "qsmt_metrics"
    [
      ( "metrics",
        [
          Alcotest.test_case "success basic" `Quick test_success_basic;
          Alcotest.test_case "success tolerance edges" `Quick test_success_tolerance_edges;
          Alcotest.test_case "repeats boundaries" `Quick test_repeats_boundaries;
          Alcotest.test_case "repeats hand-computed" `Quick test_repeats_hand_computed;
          Alcotest.test_case "repeats confidence domain" `Quick test_repeats_confidence_domain;
          Alcotest.test_case "tts hand-computed" `Quick test_tts_hand_computed;
          Alcotest.test_case "tts boundaries" `Quick test_tts_boundaries;
          Alcotest.test_case "pp_tts" `Quick test_pp_tts;
          Alcotest.test_case "residual energy" `Quick test_residual;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "null disabled" `Quick test_null_disabled;
          Alcotest.test_case "collector events+counters" `Quick test_collector_events_and_counters;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "with_span on raise" `Quick test_with_span_on_raise;
          Alcotest.test_case "timestamps monotone" `Quick test_timestamps_monotone;
          Alcotest.test_case "histograms (Welford)" `Quick test_histograms;
          Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "validator rejects garbage" `Quick test_validate_rejects_garbage;
          Alcotest.test_case "instrumentation invisible to sampler" `Quick
            test_instrumentation_is_invisible;
        ] );
      ( "observability",
        [
          Alcotest.test_case "quantiles exact for small samples" `Quick test_quantiles_exact_small;
          Alcotest.test_case "quantiles sane for large samples" `Quick test_quantiles_sane_large;
          Alcotest.test_case "snapshot + exposition" `Quick test_snapshot_and_exposition;
          Alcotest.test_case "snapshot from jsonl replay" `Quick test_snapshot_of_jsonl_roundtrip;
          Alcotest.test_case "pool instrumentation" `Quick test_pool_instrumentation;
          Alcotest.test_case "pool.* contract" `Quick test_pool_contract;
          Alcotest.test_case "validator span balance" `Quick test_validator_span_balance;
          Alcotest.test_case "chrome export" `Quick test_chrome_export;
          Alcotest.test_case "replay of a cut trace" `Quick test_replay_cut_trace;
          Alcotest.test_case "replay rejects a stray span.end" `Quick test_replay_rejects_stray_end;
        ] );
    ]
