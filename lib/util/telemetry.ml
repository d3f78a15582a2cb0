type value = Int of int | Float of float | Str of string | Bool of bool

type event = {
  ts : float;
  ev : string;
  span : int;
  parent : int;
  fields : (string * value) list;
}

(* P² (Jain & Chlamtac, 1985) streaming quantile marker state: five
   marker heights tracking min, the quantile and its two flanking
   markers, and max. O(1) memory and deterministic — quantile estimates
   never consume randomness, which the instrumentation-invisibility
   invariant depends on. *)
type p2 = {
  p2_p : float;
  p2_q : float array; (* marker heights *)
  p2_n : int array; (* marker positions, 1-based *)
  p2_d : float array; (* desired marker positions *)
}

type hist = {
  mutable h_n : int;
  mutable h_lo : float;
  mutable h_hi : float;
  mutable h_mean : float;
  mutable h_m2 : float; (* Welford sum of squared deviations *)
  h_buf : float array; (* first 5 observations: exact small-n quantiles *)
  mutable h_q : p2 array; (* marker states, one per tracked quantile; [||] until n = 5 *)
}

let tracked_quantiles = [| 0.5; 0.9; 0.99 |]

let p2_init p sorted5 =
  {
    p2_p = p;
    p2_q = Array.copy sorted5;
    p2_n = [| 1; 2; 3; 4; 5 |];
    p2_d = [| 1.; 1. +. (2. *. p); 1. +. (4. *. p); 3. +. (2. *. p); 5. |];
  }

let p2_update st x =
  let q = st.p2_q and np = st.p2_n and dn = st.p2_d in
  let k =
    if x < q.(0) then begin
      q.(0) <- x;
      0
    end
    else if x >= q.(4) then begin
      q.(4) <- x;
      3
    end
    else begin
      let k = ref 0 in
      for i = 1 to 3 do
        if x >= q.(i) then k := i
      done;
      !k
    end
  in
  for i = k + 1 to 4 do
    np.(i) <- np.(i) + 1
  done;
  dn.(1) <- dn.(1) +. (st.p2_p /. 2.);
  dn.(2) <- dn.(2) +. st.p2_p;
  dn.(3) <- dn.(3) +. ((1. +. st.p2_p) /. 2.);
  dn.(4) <- dn.(4) +. 1.;
  for i = 1 to 3 do
    let d = dn.(i) -. float_of_int np.(i) in
    if
      (d >= 1. && np.(i + 1) - np.(i) > 1) || (d <= -1. && np.(i - 1) - np.(i) < -1)
    then begin
      let s = if d >= 1. then 1 else -1 in
      let sf = float_of_int s in
      let qi = q.(i) and qp = q.(i + 1) and qm = q.(i - 1) in
      let ni = float_of_int np.(i)
      and nip = float_of_int np.(i + 1)
      and nim = float_of_int np.(i - 1) in
      let parabolic =
        qi
        +. sf /. (nip -. nim)
           *. (((ni -. nim +. sf) *. (qp -. qi) /. (nip -. ni))
              +. ((nip -. ni -. sf) *. (qi -. qm) /. (ni -. nim)))
      in
      let updated =
        if qm < parabolic && parabolic < qp then parabolic
        else if s > 0 then qi +. ((qp -. qi) /. (nip -. ni))
        else qi -. ((qm -. qi) /. (nim -. ni))
      in
      q.(i) <- updated;
      np.(i) <- np.(i) + s
    end
  done

(* Exact quantile of a small sample (linear interpolation between order
   statistics), matching [Stats.percentile]'s convention. *)
let exact_quantile xs p =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let xs = Array.copy xs in
    Array.sort Float.compare xs;
    let r = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor r) in
    let hi = min (n - 1) (lo + 1) in
    let w = r -. float_of_int lo in
    ((1. -. w) *. xs.(lo)) +. (w *. xs.(hi))
  end

type sink = Null | Collector of event list ref | Aggregate | Jsonl of out_channel

type t = {
  sink : sink;
  mutex : Mutex.t;
  epoch : float;
  next_id : int Atomic.t;
  counters : (string, int ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  span_agg : (string, (int * float) ref) Hashtbl.t;
  open_spans : (int, string) Hashtbl.t; (* ids of begun-but-unfinished spans *)
}

type span = { id : int; sname : string; sparent : int; start : float }

let no_span = { id = -1; sname = ""; sparent = -1; start = 0. }

let make sink =
  {
    sink;
    mutex = Mutex.create ();
    epoch = Mclock.now ();
    next_id = Atomic.make 0;
    counters = Hashtbl.create 16;
    hists = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    span_agg = Hashtbl.create 16;
    open_spans = Hashtbl.create 16;
  }

let null = make Null
let enabled t = match t.sink with Null -> false | _ -> true
let keeps_events t = match t.sink with Collector _ | Jsonl _ -> true | Null | Aggregate -> false
let collector () = make (Collector (ref []))
let aggregate_only () = make Aggregate
let jsonl oc = make (Jsonl oc)

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* ------------------------------------------------------------------ *)
(* JSON encoding *)

let buf_add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let buf_add_json_float buf x =
  (* JSON has no inf/nan literals; clamp to null so a pathological
     observation can never corrupt the trace. *)
  if Float.is_finite x then Buffer.add_string buf (Printf.sprintf "%.9g" x)
  else Buffer.add_string buf "null"

let buf_add_value buf = function
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float x -> buf_add_json_float buf x
  | Str s -> buf_add_json_string buf s
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")

let event_to_json e =
  let buf = Buffer.create 96 in
  Buffer.add_string buf "{\"ts\":";
  buf_add_json_float buf e.ts;
  Buffer.add_string buf ",\"ev\":";
  buf_add_json_string buf e.ev;
  if e.span >= 0 then Buffer.add_string buf (Printf.sprintf ",\"span\":%d" e.span);
  if e.parent >= 0 then Buffer.add_string buf (Printf.sprintf ",\"parent\":%d" e.parent);
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ',';
      buf_add_json_string buf k;
      Buffer.add_char buf ':';
      buf_add_value buf v)
    e.fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Emission *)

(* Caller holds the mutex, so events reach the sink in clock order;
   [Mclock] never steps backwards, so the stream is non-decreasing even
   if the system clock does. *)
let now_locked t = Mclock.now () -. t.epoch

let write_locked t e =
  match t.sink with
  | Null -> ()
  | Aggregate -> ()
  | Collector r -> r := e :: !r
  | Jsonl oc ->
    output_string oc (event_to_json e);
    output_char oc '\n'

let emit_locked t ?(span = no_span) ev fields =
  let e = { ts = now_locked t; ev; span = span.id; parent = span.sparent; fields } in
  write_locked t e

let emit t ?span ev fields =
  if enabled t then locked t (fun () -> emit_locked t ?span ev fields)

let count t name n =
  if enabled t then
    locked t (fun () ->
        match Hashtbl.find_opt t.counters name with
        | Some r -> r := !r + n
        | None -> Hashtbl.replace t.counters name (ref n))

let observe t name x =
  if enabled t then
    locked t (fun () ->
        let h =
          match Hashtbl.find_opt t.hists name with
          | Some h -> h
          | None ->
            let h =
              {
                h_n = 0;
                h_lo = infinity;
                h_hi = neg_infinity;
                h_mean = 0.;
                h_m2 = 0.;
                h_buf = Array.make 5 0.;
                h_q = [||];
              }
            in
            Hashtbl.replace t.hists name h;
            h
        in
        h.h_n <- h.h_n + 1;
        if x < h.h_lo then h.h_lo <- x;
        if x > h.h_hi then h.h_hi <- x;
        let d = x -. h.h_mean in
        h.h_mean <- h.h_mean +. (d /. float_of_int h.h_n);
        h.h_m2 <- h.h_m2 +. (d *. (x -. h.h_mean));
        if h.h_n <= 5 then begin
          h.h_buf.(h.h_n - 1) <- x;
          if h.h_n = 5 then begin
            let sorted = Array.copy h.h_buf in
            Array.sort Float.compare sorted;
            h.h_q <- Array.map (fun p -> p2_init p sorted) tracked_quantiles
          end
        end
        else Array.iter (fun st -> p2_update st x) h.h_q)

let gauge t name x =
  if enabled t then
    locked t (fun () ->
        match Hashtbl.find_opt t.gauges name with
        | Some r -> r := x
        | None -> Hashtbl.replace t.gauges name (ref x))

(* ------------------------------------------------------------------ *)
(* Spans *)

let span t ?(parent = no_span) name =
  if not (enabled t) then no_span
  else begin
    let id = Atomic.fetch_and_add t.next_id 1 in
    locked t (fun () ->
        let start = now_locked t in
        let e =
          { ts = start; ev = "span.begin"; span = id; parent = parent.id; fields = [ ("name", Str name) ] }
        in
        write_locked t e;
        Hashtbl.replace t.open_spans id name;
        { id; sname = name; sparent = parent.id; start })
  end

let finish t sp =
  if enabled t && sp.id >= 0 then
    locked t (fun () ->
        let ts = now_locked t in
        let dur = ts -. sp.start in
        let e =
          {
            ts;
            ev = "span.end";
            span = sp.id;
            parent = sp.sparent;
            fields = [ ("name", Str sp.sname); ("dur_s", Float dur) ];
          }
        in
        write_locked t e;
        Hashtbl.remove t.open_spans sp.id;
        match Hashtbl.find_opt t.span_agg sp.sname with
        | Some r ->
          let n, total = !r in
          r := (n + 1, total +. dur)
        | None -> Hashtbl.replace t.span_agg sp.sname (ref (1, dur)))

(* The null handle skips the [Fun.protect] frame: there is nothing to
   finish, and every SMT-LIB query brackets its stages this way. *)
let with_span t ?parent name f =
  if not (enabled t) then f no_span
  else begin
    let sp = span t ?parent name in
    Fun.protect ~finally:(fun () -> finish t sp) (fun () -> f sp)
  end

(* ------------------------------------------------------------------ *)
(* Aggregate read-back and flush *)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters t = List.map (fun (k, r) -> (k, !r)) (locked t (fun () -> sorted_bindings t.counters))
let find_counter t name = locked t (fun () -> Option.map ( ! ) (Hashtbl.find_opt t.counters name))

type hist_summary = {
  h_count : int;
  h_min : float;
  h_max : float;
  h_mean : float;
  h_stddev : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
}

let hist_quantile h p =
  if h.h_n = 0 then Float.nan
  else if h.h_n <= 5 then exact_quantile (Array.sub h.h_buf 0 h.h_n) p
  else begin
    (* marker 2 of the matching P² state is the running estimate *)
    let rec find i =
      if i >= Array.length tracked_quantiles then Float.nan
      else if tracked_quantiles.(i) = p then h.h_q.(i).p2_q.(2)
      else find (i + 1)
    in
    find 0
  end

let summarize h =
  {
    h_count = h.h_n;
    h_min = h.h_lo;
    h_max = h.h_hi;
    h_mean = h.h_mean;
    h_stddev = (if h.h_n < 2 then 0. else sqrt (h.h_m2 /. float_of_int (h.h_n - 1)));
    h_p50 = hist_quantile h 0.5;
    h_p90 = hist_quantile h 0.9;
    h_p99 = hist_quantile h 0.99;
  }

let histograms t =
  List.map (fun (k, h) -> (k, summarize h)) (locked t (fun () -> sorted_bindings t.hists))

let gauges t = List.map (fun (k, r) -> (k, !r)) (locked t (fun () -> sorted_bindings t.gauges))

let span_totals t =
  List.map
    (fun (k, r) ->
      let n, total = !r in
      (k, n, total))
    (locked t (fun () -> sorted_bindings t.span_agg))

let events t =
  match t.sink with Collector r -> locked t (fun () -> List.rev !r) | _ -> []

let flush t =
  if enabled t then
    locked t (fun () ->
        List.iter
          (fun (name, r) -> emit_locked t "counter" [ ("name", Str name); ("n", Int !r) ])
          (sorted_bindings t.counters);
        List.iter
          (fun (name, r) -> emit_locked t "gauge" [ ("name", Str name); ("value", Float !r) ])
          (sorted_bindings t.gauges);
        List.iter
          (fun (name, h) ->
            let s = summarize h in
            emit_locked t "hist"
              [
                ("name", Str name);
                ("count", Int s.h_count);
                ("min", Float s.h_min);
                ("max", Float s.h_max);
                ("mean", Float s.h_mean);
                ("stddev", Float s.h_stddev);
                ("p50", Float s.h_p50);
                ("p90", Float s.h_p90);
                ("p99", Float s.h_p99);
              ])
          (sorted_bindings t.hists);
        match t.sink with Jsonl oc -> Stdlib.flush oc | _ -> ())

let with_jsonl path f =
  let oc = open_out path in
  let t = jsonl oc in
  Fun.protect
    ~finally:(fun () ->
      flush t;
      close_out oc)
    (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* Snapshot *)

type snapshot = {
  snap_elapsed_s : float;
  snap_phase : string option; (* most recently begun still-open span *)
  snap_counters : (string * int) list;
  snap_gauges : (string * float) list;
  snap_hists : (string * hist_summary) list;
  snap_spans : (string * int * float) list;
  snap_open_spans : (string * int) list; (* open span count per name *)
}

let empty_snapshot =
  {
    snap_elapsed_s = 0.;
    snap_phase = None;
    snap_counters = [];
    snap_gauges = [];
    snap_hists = [];
    snap_spans = [];
    snap_open_spans = [];
  }

(* One lock acquisition for the whole read, so a snapshot taken from a
   progress-reporter domain is a consistent cut of all aggregates. *)
let snapshot t =
  if not (enabled t) then empty_snapshot
  else
    locked t (fun () ->
        let counters = List.map (fun (k, r) -> (k, !r)) (sorted_bindings t.counters) in
        let gauges = List.map (fun (k, r) -> (k, !r)) (sorted_bindings t.gauges) in
        let hists = List.map (fun (k, h) -> (k, summarize h)) (sorted_bindings t.hists) in
        let spans =
          List.map
            (fun (k, r) ->
              let n, total = !r in
              (k, n, total))
            (sorted_bindings t.span_agg)
        in
        (* span ids are allocated monotonically, so the open span with the
           highest id is the most recently begun — the current "phase" *)
        let phase =
          Hashtbl.fold
            (fun id name acc ->
              match acc with
              | Some (best, _) when best >= id -> acc
              | _ -> Some (id, name))
            t.open_spans None
          |> Option.map snd
        in
        let open_counts = Hashtbl.create 8 in
        Hashtbl.iter
          (fun _ name ->
            match Hashtbl.find_opt open_counts name with
            | Some r -> incr r
            | None -> Hashtbl.replace open_counts name (ref 1))
          t.open_spans;
        let opens = List.map (fun (k, r) -> (k, !r)) (sorted_bindings open_counts) in
        {
          snap_elapsed_s = now_locked t;
          snap_phase = phase;
          snap_counters = counters;
          snap_gauges = gauges;
          snap_hists = hists;
          snap_spans = spans;
          snap_open_spans = opens;
        })

(* ------------------------------------------------------------------ *)
(* GC probes *)

(* Per-solve GC deltas from [Gc.quick_stat] (cheap: no heap walk). On
   OCaml 5 the word counts are domain-local, so a probe around a
   multi-domain sample phase reports the orchestrating domain's share —
   deltas are a pressure signal, not an exact allocation ledger. *)
let with_gc_probe t ?span f =
  if not (enabled t) then f ()
  else begin
    let g0 = Gc.quick_stat () in
    Fun.protect
      ~finally:(fun () ->
        let g1 = Gc.quick_stat () in
        let minor_words = g1.Gc.minor_words -. g0.Gc.minor_words in
        let major_words = g1.Gc.major_words -. g0.Gc.major_words in
        let promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words in
        let minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections in
        let major_collections = g1.Gc.major_collections - g0.Gc.major_collections in
        count t "gc.minor_collections" minor_collections;
        count t "gc.major_collections" major_collections;
        observe t "gc.minor_words" minor_words;
        observe t "gc.major_words" major_words;
        observe t "gc.promoted_words" promoted_words;
        gauge t "gc.heap_words" (float_of_int g1.Gc.heap_words);
        emit t ?span "gc.delta"
          [
            ("minor_words", Float minor_words);
            ("major_words", Float major_words);
            ("promoted_words", Float promoted_words);
            ("minor_collections", Int minor_collections);
            ("major_collections", Int major_collections);
          ])
      f
  end
