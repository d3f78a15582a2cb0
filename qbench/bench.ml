(* The SMT-LIB query benchmark.

   bench.exe --workload anneal|static|session --seed N --seconds S --trace 0|1

   One domain, one closed-loop client: each script of the seeded corpus
   runs on a fresh interpreter ([Qsmt_smtlib.Interp], the [qsmt run] /
   [repl] front door with its default SA sampler), the next only after
   the previous one answered. Whole decks run until the time is up.
   Every answer is graded against its planted verdict (see [Gate]); a
   wrong one makes the run exit 1.

   --trace 0 prints the end-to-end metrics. The measured time is split
   between a few child processes run one after another (see
   [end_to_end]), and their samples are pooled. --trace 1 runs every
   deck twice in one process — untraced, then traced stage by stage
   (see [Replay]) — asserts the two agree, prints the per-layer metrics
   and writes the spans to .qbench/spans-<workload>.tsv. The last line
   of stdout is one JSON object: correct, attempted, failed, metrics. *)

module Interp = Qsmt_smtlib.Interp
module Parser = Qsmt_smtlib.Parser
module Ast = Qsmt_smtlib.Ast
module Telemetry = Qsmt_util.Telemetry

let now_ns = Spans.now_ns

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)

let workload = ref None
let seed = ref 0
let seconds = ref 10.
let trace = ref false

(* Set in the child processes of an end-to-end run: which child. *)
let child = ref (-1)

let specs =
  [
    ( "--workload",
      Arg.String
        (fun s ->
          match Corpus.workload_of_string s with
          | Some w -> workload := Some w
          | None -> raise (Arg.Bad ("unknown workload " ^ s))),
      " anneal | static | session" );
    ("--seed", Arg.Set_int seed, " corpus seed");
    ("--seconds", Arg.Set_float seconds, " measured time of one run");
    ("--trace", Arg.Int (fun t -> trace := t <> 0), " 1 = per-layer run");
    ("--child", Arg.Set_int child, " (internal) measure as child process N");
  ]

(* Where the traced run writes its spans. *)
let out_dir = ".qbench"

(* Decks in the corpus; a run that needs more cycles through them (the
   program keeps no state across interpreters). *)
let corpus_decks = function Corpus.Anneal -> 8 | Corpus.Static -> 250 | Corpus.Session -> 20

(* A p90 needs at least ten samples beyond it. *)
let min_queries = 100

(* Child processes of an end-to-end run: one per [child_seconds] of
   it (about one anneal deck, three session decks), at most 15. *)
let child_seconds = function Corpus.Anneal -> 5. | Corpus.Session -> 3. | Corpus.Static -> 2.
let max_children = 15

let children_for w seconds =
  max 1 (min max_children (int_of_float (seconds /. child_seconds w)))

(* Decks after which a child reads its peak heap: about 1 s of each
   child's work here, so every child gets there. *)
let heap_decks = function Corpus.Anneal -> 1 | Corpus.Session -> 1 | Corpus.Static -> 2000

(* The traced run keeps every span in memory; this bounds it. *)
let traced_max_queries = 20_000

(* Latency slots; a run that fills them stops at the next deck. *)
let latency_capacity = 1 lsl 23

(* ------------------------------------------------------------------ *)
(* One script                                                          *)

type answer = { verdict : string; model : string list option }

let no_answer = { verdict = "error"; model = None }

(* Runs [script] on a fresh interpreter: parse, then every command in
   order. Each check runs inside [around] and its latency goes to
   [on_check]. Exceptions escaping the interpreter are answers of their
   own ("error"). *)
let run_script ?spans ?backend ?(around = fun f -> f ()) ~qid0 ~on_check (script : Corpus.script) =
  let span layer f = match spans with None -> f () | Some s -> Spans.with_span s layer f in
  let set_query q = match spans with Some s -> s.Spans.query <- q | None -> () in
  set_query qid0;
  let answers = Array.make (List.length script.Corpus.checks) no_answer in
  let k = ref (-1) in
  let exec st cmd = try Interp.exec st cmd with e -> Error (Printexc.to_string e) in
  (match span Spans.Parse (fun () -> Parser.parse_script script.Corpus.text) with
  | Error _ -> ()
  | Ok cmds ->
    let st = Interp.create ?backend () in
    List.iter
      (fun cmd ->
        match cmd with
        | (Ast.Check_sat | Ast.Check_sat_assuming _) when !k + 1 < Array.length answers ->
          incr k;
          set_query (qid0 + !k);
          let t0 = now_ns () in
          let r = around (fun () -> span Spans.Check (fun () -> exec st cmd)) in
          on_check (now_ns () - t0);
          answers.(!k) <- { verdict = (match r with Ok [ v ] -> v | _ -> "error"); model = None }
        | Ast.Get_model when !k >= 0 -> (
          match exec st cmd with
          | Ok lines -> answers.(!k) <- { (answers.(!k)) with model = Some lines }
          | Error _ -> ())
        | _ -> ignore (exec st cmd))
      cmds);
  answers

(* ------------------------------------------------------------------ *)
(* Passes over the corpus                                              *)

type pass = {
  mutable decks : int;
  mutable scripts : int;
  mutable queries : int;
  mutable wall_ns : int;  (** summed script wall: parse + interpreter + every command *)
  mutable words : float;  (** minor words allocated inside those walls *)
  mutable decided : int;
  mutable failed : int;
  mutable wrong : string list;
  mutable failures : string list;  (** distinct "label check k: verdict" of failed operations *)
  mutable answers : answer array list;  (** newest first; kept for the parity check *)
  mutable top_heap_words : int;
  mutable deck_rates : float list;  (** queries per second of each deck, newest first *)
}

let new_pass () =
  {
    decks = 0;
    scripts = 0;
    queries = 0;
    wall_ns = 0;
    words = 0.;
    decided = 0;
    failed = 0;
    wrong = [];
    failures = [];
    answers = [];
    top_heap_words = 0;
    deck_rates = [];
  }

let latencies = Bigarray.(Array1.create int c_layout latency_capacity)
let latency_count = ref 0

let record_latency ns =
  if !latency_count < latency_capacity then begin
    latencies.{!latency_count} <- ns;
    incr latency_count
  end

(* Gate one script's answers; the parsed assertions are memoised per
   corpus slot, outside every timed region. *)
let grade pass terms (script : Corpus.script) answers =
  let terms = Lazy.force terms in
  List.iteri
    (fun k check ->
      let a = answers.(k) in
      match Gate.grade ~terms:(List.nth terms k) check ~verdict:a.verdict ~model:a.model with
      | Gate.Decided -> pass.decided <- pass.decided + 1
      | Gate.Failed ->
        pass.failed <- pass.failed + 1;
        let f = Printf.sprintf "%s check %d: %s" script.Corpus.label (k + 1) a.verdict in
        if not (List.mem f pass.failures) then pass.failures <- f :: pass.failures
      | Gate.Wrong why ->
        pass.wrong <- Printf.sprintf "%s check %d: %s" script.Corpus.label (k + 1) why :: pass.wrong)
    script.Corpus.checks

(* Runs one whole deck into [pass], continuing from script [first +
   pass.scripts] of the corpus. [run] answers one script and returns its
   answers; [run] is timed as the script's wall. *)
let run_deck pass ~first ~corpus ~terms ~deck ~keep ~run =
  let n = Array.length corpus in
  let q0 = pass.queries and wall0 = pass.wall_ns in
  for _ = 1 to deck do
    let i = (first + pass.scripts) mod n in
    let script = corpus.(i) in
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let answers = run ~qid0:pass.queries script in
    let t1 = now_ns () in
    let w1 = Gc.minor_words () in
    pass.wall_ns <- pass.wall_ns + (t1 - t0);
    pass.words <- pass.words +. (w1 -. w0);
    pass.scripts <- pass.scripts + 1;
    pass.queries <- pass.queries + Array.length answers;
    grade pass terms.(i) script answers;
    if keep then pass.answers <- answers :: pass.answers
  done;
  pass.decks <- pass.decks + 1;
  pass.deck_rates <-
    (float_of_int (pass.queries - q0) /. (float_of_int (pass.wall_ns - wall0) /. 1e9))
    :: pass.deck_rates

(* Runs whole decks, starting with script [first], until [stop pass
   ~elapsed_ns] says to stop after one. [top_heap_words] is read after
   deck [heap_decks] (or the last, if fewer ran): the peak grows with
   the work done, and one domain's GC is a function of its allocations,
   so a fixed amount of work gives a peak that does not depend on the
   host's speed. *)
let run_pass ~first ~corpus ~terms ~deck ~heap_decks ~stop ~run =
  let pass = new_pass () in
  let started = now_ns () in
  let rec decks () =
    run_deck pass ~first ~corpus ~terms ~deck ~keep:false ~run;
    if pass.decks <= heap_decks then
      pass.top_heap_words <- (Gc.quick_stat ()).Gc.top_heap_words;
    if not (stop pass ~elapsed_ns:(now_ns () - started)) then decks ()
  in
  decks ();
  pass

(* Stop before a deck that would, at the mean deck time so far, end
   more than half a deck past [budget_s] (so at least one deck runs);
   or at [max_queries]; or, whatever else, after 150 s. *)
let timed_stop ~budget_s ~max_queries pass ~elapsed_ns =
  let elapsed = float_of_int elapsed_ns /. 1e9 in
  let decks = float_of_int pass.decks in
  elapsed *. (1. +. (0.5 /. decks)) >= budget_s
  || pass.queries >= max_queries || elapsed >= 150.

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

let median_float xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The corpus generated from the seed, an interpreter set up once, and
   each check's assertions parsed for the gate — lazily, once per
   corpus slot, outside every timed region. *)
let setup w =
  let corpus = Corpus.generate w ~seed:!seed ~decks:(corpus_decks w) in
  ignore (Interp.create ());
  let terms =
    Array.map
      (fun (s : Corpus.script) ->
        lazy (List.map (fun (c : Corpus.check) -> List.map Gate.term c.Corpus.active) s.Corpus.checks))
      corpus
  in
  (corpus, terms)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number value) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed (String.concat ", " fields)

let ratio a b = if b = 0. then 0. else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

let report_wrong pass =
  List.iter (fun f -> Printf.printf "  failed %s\n" f) (List.rev pass.failures);
  List.iter (fun w -> Printf.printf "  WRONG %s\n" w) (List.rev pass.wrong)

(* Nearest-rank percentile of the sorted latencies. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1))

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics                                       *)

(* What one child process measured, sent to the parent with [Marshal]
   over its stdout. [ready_ns] is when its first query was about to
   start, on the system-wide monotonic clock. *)
type measured = { ready_ns : int; pass : pass; latencies_ns : int array }

(* Child [index]: set up, then answer whole decks for [!seconds],
   starting [index] decks into the corpus. *)
let measure_child w ~index =
  let corpus, terms = setup w in
  let deck = Corpus.deck_size w in
  let ready_ns = now_ns () in
  let pass =
    run_pass ~first:(index * deck) ~corpus ~terms ~deck ~heap_decks:(heap_decks w)
      ~stop:(timed_stop ~budget_s:!seconds ~max_queries:latency_capacity)
      ~run:(fun ~qid0 script -> run_script ~qid0 ~on_check:record_latency script)
  in
  let latencies_ns = Array.init !latency_count (fun i -> latencies.{i}) in
  set_binary_mode_out stdout true;
  Marshal.to_channel stdout { ready_ns; pass; latencies_ns } [];
  flush stdout

(* Runs child [index] for [budget_s] and reads back what it measured,
   with its set-up time: from just before the child process was
   started to its first query. *)
let spawn_child w ~index ~budget_s =
  let args =
    [|
      Sys.executable_name;
      "--workload";
      Corpus.workload_name w;
      "--seed";
      string_of_int !seed;
      "--seconds";
      Printf.sprintf "%.17g" budget_s;
      "--trace";
      "0";
      "--child";
      string_of_int index;
    |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let spawned_ns = now_ns () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  set_binary_mode_in ic true;
  let m = try Some (Marshal.from_channel ic : measured) with End_of_file | Failure _ -> None in
  close_in ic;
  match (Unix.waitpid [] pid, m) with
  | (_, Unix.WEXITED 0), Some m -> (float_of_int (m.ready_ns - spawned_ns) /. 1e9, m)
  | _ -> failwith (Printf.sprintf "child %d of the %s run failed" index (Corpus.workload_name w))

(* A process's speed on this code depends on where its address space
   happens to be laid out: on one host, one static workload ran at
   29-31k queries/s in five runs with address randomisation off, and
   at 31-44k/s with it on. So the measured time is split between
   [children_for w !seconds] child processes, each with its own layout,
   run one after another (more, if they answered too few checks for a
   p90), and their samples are pooled. *)
let end_to_end w =
  let k = children_for w !seconds in
  let budget_s = !seconds /. float_of_int k in
  let rec spawn index acc queries =
    if index >= k && queries >= min_queries then List.rev acc
    else
      let ((_, m) as child) = spawn_child w ~index ~budget_s in
      spawn (index + 1) (child :: acc) (queries + m.pass.queries)
  in
  let setups, children = List.split (spawn 0 [] 0) in
  let sum f = List.fold_left (fun acc m -> acc + f m.pass) 0 children in
  let queries = sum (fun p -> p.queries) and scripts = sum (fun p -> p.scripts) in
  let wall_ns = sum (fun p -> p.wall_ns) and decided = sum (fun p -> p.decided) in
  let failed = sum (fun p -> p.failed) in
  let words = List.fold_left (fun acc m -> acc +. m.pass.words) 0. children in
  let sorted = Array.concat (List.map (fun m -> m.latencies_ns) children) in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let p50 = percentile sorted 0.5 and p90 = percentile sorted 0.9 in
  let beyond = Array.fold_left (fun acc x -> if x > p90 then acc + 1 else acc) 0 sorted in
  let wall_s = float_of_int wall_ns /. 1e9 in
  let q = float_of_int queries in
  (* On a shared VM the CPU's speed also drifts by tens of percent over
     seconds; the median over decks (each holds every slot once) is
     steadier than the run's mean rate. *)
  let rates = List.sort compare (List.concat_map (fun m -> m.pass.deck_rates) children) in
  let heap_mb m = float_of_int (m.pass.top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  let metrics =
    [
      ("queries_per_s", median_float rates, "1/s");
      ("query_p50_us", float_of_int p50 /. 1e3, "us");
      ("query_p90_us", float_of_int p90 /. 1e3, "us");
      ("decided_ratio", fratio decided queries, "ratio");
      ("alloc_mw_per_query", ratio words q /. 1e6, "Mwords");
      ("peak_heap_mb", median_float (List.map heap_mb children), "MB");
      ("setup_s", median_float setups, "s");
    ]
  in
  let c = List.length children in
  Printf.printf
    "qbench %s seed=%d: %d queries in %d scripts (%d decks) in %d processes, %.3f s of workload \
     wall (mean %.4f/s)\n"
    (Corpus.workload_name w) !seed queries scripts (List.length rates) c wall_s (ratio q wall_s);
  List.iter
    (fun (name, v, unit) ->
      let samples =
        match name with
        | "query_p50_us" | "query_p90_us" -> Printf.sprintf "n=%d, %d beyond p90" n beyond
        | "setup_s" -> Printf.sprintf "median of %d processes" c
        | "queries_per_s" -> Printf.sprintf "median of %d decks" (List.length rates)
        | "peak_heap_mb" -> Printf.sprintf "median of %d processes" c
        | _ -> Printf.sprintf "n=%d queries" queries
      in
      Printf.printf "  %-20s %14.4f %-7s (%s)\n" name v unit samples)
    metrics;
  Printf.printf "  deck rates (1/s): min %.4f, max %.4f; per process (mean):" (List.hd rates)
    (List.nth rates (List.length rates - 1));
  List.iter
    (fun m -> Printf.printf " %.4f" (fratio m.pass.queries m.pass.wall_ns *. 1e9))
    children;
  print_newline ();
  List.iter (fun m -> report_wrong m.pass) children;
  let correct = List.for_all (fun m -> m.pass.wrong = []) children in
  print_result ~correct ~attempted:queries ~failed metrics;
  correct

(* ------------------------------------------------------------------ *)
(* --trace 1: per-layer metrics                                        *)

let per_layer w =
  let corpus, terms = setup w in
  let deck = Corpus.deck_size w in
  let spans = Spans.create () and st = Replay.stats () in
  (* What answered each check: the front end alone (no backend call),
     the sampler, model reuse, or an Absint verdict. *)
  let front = ref 0 and sampled = ref 0 and reused = ref 0 and by_absint = ref 0 in
  let around f =
    let b0 = st.Replay.backend_calls and s0 = st.Replay.sampled in
    let r0 = st.Replay.reused and d0 = st.Replay.absint_decided in
    let r = f () in
    if st.Replay.backend_calls = b0 then incr front
    else if st.Replay.sampled > s0 then incr sampled
    else if st.Replay.reused > r0 then incr reused
    else if st.Replay.absint_decided > d0 then incr by_absint;
    r
  in
  let replay = Replay.replay spans st in
  let run ~qid0 script =
    match w with
    | Corpus.Anneal | Corpus.Static -> run_script ~spans ~backend:replay ~around ~qid0 ~on_check:ignore script
    | Corpus.Session ->
      let tel = Telemetry.collector () in
      let answers =
        run_script ~spans ~backend:(Replay.stock spans st tel) ~around ~qid0 ~on_check:ignore script
      in
      Replay.absorb st tel;
      answers
  in
  (* Each deck runs untraced, then traced: the two passes answer the
     same scripts with the same warm caches, heap and host speed, so
     their walls give the tracing overhead. *)
  let untraced = new_pass () and traced = new_pass () in
  let started = now_ns () in
  let stop = timed_stop ~budget_s:!seconds ~max_queries:traced_max_queries in
  let rec decks () =
    run_deck untraced ~first:0 ~corpus ~terms ~deck ~keep:true
      ~run:(fun ~qid0 script -> run_script ~qid0 ~on_check:ignore script);
    run_deck traced ~first:0 ~corpus ~terms ~deck ~keep:true ~run;
    if not (stop traced ~elapsed_ns:(now_ns () - started)) then decks ()
  in
  decks ();
  let mismatches =
    List.fold_left2 (fun acc a b -> if a = b then acc else acc + 1) 0 untraced.answers traced.answers
  in
  let t = Spans.totals spans in
  let self l = float_of_int t.Spans.self_ns.(Spans.index l) in
  let count l = float_of_int t.Spans.spans.(Spans.index l) in
  let per_span l = ratio (self l) (count l) /. 1e3 in
  let wall = float_of_int traced.wall_ns in
  let sample_ns = self Spans.Sample +. st.Replay.derived_sample_ns in
  let s = st in
  let metrics =
    [
      ("smtlib.parse_us", per_span Spans.Parse, "us");
      ("smtlib.front_us", per_span Spans.Check, "us");
      ("absint.us", per_span Spans.Absint, "us");
      ("absint.decided_ratio", fratio s.absint_decided s.absint_runs, "ratio");
      ("absint.forced_bit_ratio", fratio s.forced_bits s.analyzed_bits, "ratio");
      ("encode.us", per_span Spans.Encode, "us");
      ("encode.vars", fratio s.vars s.encoded, "count");
      ("encode.couplers", fratio s.couplers s.encoded, "count");
      ("clamp.us", ratio (self Spans.Clamp) (float_of_int s.decoded) /. 1e3, "us");
      ("clamp.free_vars", fratio s.free_vars s.sampled, "count");
      ("sample.ms", ratio sample_ns (float_of_int s.sampled) /. 1e6, "ms");
      ("sample.time_share", ratio sample_ns wall, "ratio");
      ("sample.ns_per_proposal", ratio sample_ns s.proposals, "ns");
      ("sample.words_per_proposal", ratio s.sample_words s.proposals, "words");
      ("sample.reads", fratio s.reads s.sampled, "count");
      ("sample.sweeps", fratio s.sweeps s.sampled, "count");
      ("sample.success_per_read", fratio s.verified_reads s.traced_reads, "ratio");
      ("sample.reads_to_first_verified", fratio s.first_verified s.with_verified, "count");
      ( "sample.wasted_sweep_ratio",
        fratio s.wasted_sweeps (s.traced_reads * Replay.sa_params.Qsmt_anneal.Sa.sweeps),
        "ratio" );
      ("decode.us", per_span Spans.Decode, "us");
      ("decode.scanned", fratio s.scanned s.decoded, "count");
      ( "incremental.backend_us",
        ratio (self Spans.Backend -. s.derived_sample_ns) (float_of_int s.backend_calls) /. 1e3,
        "us" );
      ("incremental.reuse_ratio", fratio s.reused s.backend_calls, "ratio");
      ("incremental.warm_ratio", fratio s.warm s.backend_calls, "ratio");
      ("incremental.cold_retry_ratio", fratio s.cold_retry s.backend_calls, "ratio");
      ("incremental.encode_hit_ratio", fratio s.encode_hits (s.encode_hits + s.encode_misses), "ratio");
      ("trace.overhead_ratio", ratio wall (float_of_int untraced.wall_ns) -. 1., "ratio");
    ]
  in
  let q = traced.queries in
  Printf.printf "qbench %s seed=%d traced: %d queries in %d scripts, %d spans\n"
    (Corpus.workload_name w) !seed q traced.scripts spans.Spans.len;
  Printf.printf
    "  answered by: sampler %.3f, model reuse %.3f, Absint %.3f, front end %.3f (of %d queries)\n"
    (fratio !sampled q) (fratio !reused q) (fratio !by_absint q) (fratio !front q) q;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-32s %14.4f %s\n" name v unit) metrics;
  if mismatches > 0 then
    Printf.printf "  PARITY: %d of %d traced scripts answered differently from the untraced run\n"
      mismatches traced.scripts;
  report_wrong untraced;
  report_wrong traced;
  (try
     if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
     Spans.write spans (Filename.concat out_dir ("spans-" ^ Corpus.workload_name w ^ ".tsv"))
   with Sys_error e -> Printf.printf "  spans not written: %s\n" e);
  let correct = mismatches = 0 && untraced.wrong = [] && traced.wrong = [] in
  print_result ~correct ~attempted:(untraced.queries + q) ~failed:(untraced.failed + traced.failed)
    metrics;
  correct

let () =
  Arg.parse (Arg.align specs) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload anneal|static|session --seed N --seconds S --trace 0|1";
  match !workload with
  | None ->
    prerr_endline "bench.exe: --workload is required";
    exit 2
  | Some w when !child >= 0 -> measure_child w ~index:!child
  | Some w ->
    let correct = if !trace then per_layer w else end_to_end w in
    exit (if correct then 0 else 1)
