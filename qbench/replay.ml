(* Traced backends for the per-layer run.

   [replay] answers a query on a fresh session the way the stock
   annealing backend does ([Incremental] on its first query is
   bit-identical to [Solver.solve] / [Joint.solve]), but stage by stage
   through the layers' public functions, with a span around each:
   absint, encode, clamp, sample, lift (clamp layer), decode. The
   benchmark checks that its answers equal the untraced run's.

   [stock] wraps the stock backend itself, for push/pop sessions whose
   tiers only [Incremental] implements: one span per backend call, with
   tier and sampler counts read from the telemetry the program already
   emits. *)

module Interp = Qsmt_smtlib.Interp
module Eval = Qsmt_smtlib.Eval
module Constr = Qsmt_strtheory.Constr
module Absint = Qsmt_strtheory.Absint
module Compile = Qsmt_strtheory.Compile
module Joint = Qsmt_strtheory.Joint
module Solver = Qsmt_strtheory.Solver
module Preprocess = Qsmt_qubo.Preprocess
module Qubo = Qsmt_qubo.Qubo
module Sa = Qsmt_anneal.Sa
module Sampleset = Qsmt_anneal.Sampleset
module Bitvec = Qsmt_util.Bitvec
module Ascii7 = Qsmt_util.Ascii7
module Telemetry = Qsmt_util.Telemetry

(* Layer counts of one traced pass. Times live in the spans. *)
type stats = {
  mutable backend_calls : int;
  mutable absint_runs : int;
  mutable absint_decided : int;
  mutable forced_bits : int;  (** over undecided analyses *)
  mutable analyzed_bits : int;  (** codec bits of those analyses *)
  mutable encoded : int;
  mutable vars : int;
  mutable couplers : int;
  mutable sampled : int;  (** sampler invocations *)
  mutable free_vars : int;  (** variables the sampler annealed, summed *)
  mutable reads : int;
  mutable sweeps : int;
  mutable verified_reads : int;
  mutable first_verified : int;  (** 1-based read index, summed over queries with one *)
  mutable with_verified : int;
  mutable wasted_sweeps : int;  (** sweeps run after the first verified read *)
  mutable traced_reads : int;  (** reads whose verification the trace observed *)
  mutable proposals : float;
  mutable sample_words : float;  (** minor words allocated inside the sampler *)
  mutable derived_sample_ns : float;  (** sampler time read off telemetry gauges *)
  mutable decoded : int;
  mutable scanned : int;
  mutable reused : int;
  mutable warm : int;
  mutable cold_retry : int;
  mutable encode_hits : int;
  mutable encode_misses : int;
}

let stats () =
  {
    backend_calls = 0;
    absint_runs = 0;
    absint_decided = 0;
    forced_bits = 0;
    analyzed_bits = 0;
    encoded = 0;
    vars = 0;
    couplers = 0;
    sampled = 0;
    free_vars = 0;
    reads = 0;
    sweeps = 0;
    verified_reads = 0;
    first_verified = 0;
    with_verified = 0;
    wasted_sweeps = 0;
    traced_reads = 0;
    proposals = 0.;
    sample_words = 0.;
    derived_sample_ns = 0.;
    decoded = 0;
    scanned = 0;
    reused = 0;
    warm = 0;
    cold_retry = 0;
    encode_hits = 0;
    encode_misses = 0;
  }

(* The default sampler of [Interp]: [Solver.default_sampler ~seed:0]. *)
let sa_params = Sa.default

let analyze spans st cs =
  match Spans.with_span spans Spans.Absint (fun () -> Absint.analyze cs) with
  | Error _ -> None
  | Ok a ->
    st.absint_runs <- st.absint_runs + 1;
    (match a.Absint.verdict with
    | Absint.V_sat _ | Absint.V_unsat _ -> st.absint_decided <- st.absint_decided + 1
    | Absint.V_undecided -> st.analyzed_bits <- st.analyzed_bits + (7 * a.Absint.length));
    Some a

let note_encoded st qubo =
  st.encoded <- st.encoded + 1;
  st.vars <- st.vars + Qubo.num_vars qubo;
  st.couplers <- st.couplers + Qubo.num_interactions qubo

(* Time-to-solution counts of one sampler run: which reads verify, and
   how many sweeps ran after the first that did. *)
let note_sampler_run st ~verify ~expand ~words problem reads =
  let n = Qubo.num_vars problem in
  let k = List.length reads and sweeps = sa_params.Sa.sweeps in
  st.sampled <- st.sampled + 1;
  st.free_vars <- st.free_vars + n;
  st.reads <- st.reads + k;
  st.sweeps <- st.sweeps + (k * sweeps);
  st.traced_reads <- st.traced_reads + k;
  st.proposals <- st.proposals +. float_of_int (k * sweeps * n);
  st.sample_words <- st.sample_words +. words;
  let first = ref 0 in
  List.iteri
    (fun r bits ->
      if verify (expand bits) then begin
        st.verified_reads <- st.verified_reads + 1;
        if !first = 0 then first := r + 1
      end)
    reads;
  if !first > 0 then begin
    st.with_verified <- st.with_verified + 1;
    st.first_verified <- st.first_verified + !first;
    st.wasted_sweeps <- st.wasted_sweeps + ((k - !first) * sweeps)
  end

(* Anneals [problem] (the residual when bits are clamped) and grades
   every read with [verify] (full-space bits) once the sampler is done,
   so the trace knows the first verified read without the sampler
   stopping early. *)
let anneal spans st ~verify ~expand problem =
  let reads = ref [] in
  let on_read bits = reads := bits :: !reads in
  let words = ref 0. in
  let samples =
    Spans.with_span spans Spans.Sample (fun () ->
        let w0 = Gc.minor_words () in
        let samples = Sa.sample ~params:sa_params ~on_read problem in
        words := Gc.minor_words () -. w0;
        samples)
  in
  Spans.with_span spans Spans.Bookkeeping (fun () ->
      note_sampler_run st ~verify ~expand ~words:!words problem (List.rev !reads));
  samples

(* Clamp the statically forced bits, anneal the free subspace, lift the
   samples back — [Solver]'s shrink path, one span per stage. *)
let sample spans st ~verify analysis qubo =
  let forced =
    Spans.with_span spans Spans.Clamp (fun () ->
        match analysis with Some a -> Absint.forced_bits a | None -> [])
  in
  st.forced_bits <- st.forced_bits + List.length forced;
  match forced with
  | [] -> anneal spans st ~verify ~expand:Fun.id qubo
  | forced ->
    let red = Spans.with_span spans Spans.Clamp (fun () -> Preprocess.clamp qubo forced) in
    if Preprocess.num_free red = 0 then
      Sampleset.of_bits qubo [ Preprocess.expand red (Bitvec.create 0) ]
    else begin
      let samples_r =
        anneal spans st ~verify ~expand:(Preprocess.expand red) (Preprocess.residual red)
      in
      Spans.with_span spans Spans.Clamp (fun () -> Solver.lift_samples ~qubo red samples_r)
    end

let value_of_constr = function
  | Constr.Str s -> Some (Eval.V_str s)
  | Constr.Pos (Some i) -> Some (Eval.V_int i)
  | Constr.Pos None -> None

(* [Incremental.solve_generate] on a fresh session. *)
let generate spans st constr =
  let analysis = analyze spans st [ constr ] in
  match analysis with
  | Some { Absint.verdict = Absint.V_sat value; _ } -> (
    match value_of_constr value with Some v -> `Value v | None -> `Unknown)
  | Some { Absint.verdict = Absint.V_unsat _; _ } -> `Unsat
  | None | Some { Absint.verdict = Absint.V_undecided; _ } -> (
    let qubo = Spans.with_span spans Spans.Encode (fun () -> Compile.to_qubo constr) in
    note_encoded st qubo;
    let verify bits = Constr.verify constr (Compile.decode constr bits) in
    let samples = sample spans st ~verify analysis qubo in
    let scanned = ref 0 in
    let found =
      Spans.with_span spans Spans.Decode (fun () ->
          List.find_map
            (fun e ->
              incr scanned;
              let value = Compile.decode constr e.Sampleset.bits in
              if Constr.verify constr value then Some value else None)
            (Sampleset.entries samples))
    in
    st.decoded <- st.decoded + 1;
    st.scanned <- st.scanned + !scanned;
    match Option.bind found value_of_constr with Some v -> `Value v | None -> `Unknown)

(* [Incremental.solve_joint] on a fresh session. *)
let joint spans st cs =
  match Joint.common_length cs with
  | Error _ -> `Unknown
  | Ok _ -> (
    let analysis = analyze spans st cs in
    match analysis with
    | Some { Absint.verdict = Absint.V_sat (Constr.Str s); _ } -> `Value (Eval.V_str s)
    | Some { Absint.verdict = Absint.V_sat (Constr.Pos _); _ } -> `Unknown
    | Some { Absint.verdict = Absint.V_unsat _; _ } -> `Unsat
    | None | Some { Absint.verdict = Absint.V_undecided; _ } -> (
      match Spans.with_span spans Spans.Encode (fun () -> Joint.encode cs) with
      | Error _ -> `Unknown
      | Ok (qubo, _) -> (
        note_encoded st qubo;
        let all_ok s = List.for_all (fun c -> Constr.verify c (Constr.Str s)) cs in
        let verify bits = all_ok (Ascii7.decode bits) in
        let samples = sample spans st ~verify analysis qubo in
        let entries = Sampleset.entries samples in
        let found =
          Spans.with_span spans Spans.Decode (fun () ->
              List.find_opt all_ok (List.map (fun e -> Ascii7.decode e.Sampleset.bits) entries))
        in
        st.decoded <- st.decoded + 1;
        st.scanned <- st.scanned + List.length entries;
        match found with Some s -> `Value (Eval.V_str s) | None -> `Unknown)))

let replay spans st =
  let call f x =
    st.backend_calls <- st.backend_calls + 1;
    Spans.with_span spans Spans.Backend (fun () -> f spans st x)
  in
  {
    Interp.backend_name = "annealing (traced replay)";
    solve_generate = call generate;
    solve_joint = call joint;
  }

(* ------------------------------------------------------------------ *)

let counter tel name = Option.value ~default:0 (Telemetry.find_counter tel name)

(* The stock backend on [tel], one span per call. The sampler's wall
   time is not a span here: it is read back from the sweep counter and
   the [sa.sweeps_per_s] gauge the sampler publishes after each run
   (exact when one sampler run happened in the call; a warm run plus
   its cold retry is priced at the retry's rate). *)
let stock spans st tel =
  let b = Interp.annealing_backend ~telemetry:tel () in
  let decided () = counter tel "absint.static_sat" + counter tel "absint.static_unsat" in
  let call f x =
    st.backend_calls <- st.backend_calls + 1;
    (* only what classifies the call is read per call; the other
       counters are folded in per session by [absorb] *)
    let reads0 = counter tel "sa.reads" and sweeps0 = counter tel "sa.sweeps" in
    let reused0 = counter tel "incr.model_reuse" and decided0 = decided () in
    let r = Spans.with_span spans Spans.Backend (fun () -> f x) in
    st.reused <- st.reused + counter tel "incr.model_reuse" - reused0;
    st.absint_decided <- st.absint_decided + decided () - decided0;
    let sweeps = counter tel "sa.sweeps" - sweeps0 in
    if sweeps > 0 then begin
      let gauges = Telemetry.gauges tel in
      match (List.assoc_opt "sa.sweeps_per_s" gauges, List.assoc_opt "sa.flips_per_s" gauges) with
      | Some sweeps_per_s, Some flips_per_s when sweeps_per_s > 0. ->
        let s = float_of_int sweeps /. sweeps_per_s in
        st.sampled <- st.sampled + 1;
        st.reads <- st.reads + (counter tel "sa.reads" - reads0);
        st.sweeps <- st.sweeps + sweeps;
        st.derived_sample_ns <- st.derived_sample_ns +. (1e9 *. s);
        st.proposals <- st.proposals +. (flips_per_s *. s)
      | _ -> ()
    end;
    r
  in
  { b with Interp.solve_generate = call b.Interp.solve_generate; solve_joint = call b.Interp.solve_joint }

(* Folds one finished session's telemetry into [st]: the tier counters
   [stock] does not read per call, and the per-encode / per-analysis
   events. *)
let absorb st tel =
  let c = counter tel in
  st.warm <- st.warm + c "incr.warm_start";
  st.cold_retry <- st.cold_retry + c "incr.cold_retry";
  st.encode_hits <- st.encode_hits + c "incr.encode_hit";
  st.absint_runs <- st.absint_runs + c "absint.runs";
  st.forced_bits <- st.forced_bits + c "absint.bits_forced";
  List.iter
    (fun ev ->
      let int name =
        match List.assoc_opt name ev.Telemetry.fields with Some (Telemetry.Int n) -> n | _ -> 0
      in
      match ev.Telemetry.ev with
      | "encode.done" ->
        st.encode_misses <- st.encode_misses + 1;
        st.encoded <- st.encoded + 1;
        st.vars <- st.vars + int "vars";
        st.couplers <- st.couplers + int "penalty_terms"
      | "absint.done" when List.assoc_opt "verdict" ev.Telemetry.fields = Some (Telemetry.Str "undecided")
        ->
        st.analyzed_bits <- st.analyzed_bits + (7 * int "length")
      | _ -> ())
    (Telemetry.events tel)
