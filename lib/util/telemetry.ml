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
  mutable last_ts : float;
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
    epoch = Unix.gettimeofday ();
    next_id = Atomic.make 0;
    last_ts = 0.;
    counters = Hashtbl.create 16;
    hists = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    span_agg = Hashtbl.create 16;
    open_spans = Hashtbl.create 16;
  }

let null = make Null
let enabled t = match t.sink with Null -> false | _ -> true
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

(* Caller holds the mutex. Wall clock reads are clamped to the previous
   timestamp so the exported stream is non-decreasing even if the system
   clock steps backwards mid-run. *)
let now_locked t =
  let raw = Unix.gettimeofday () -. t.epoch in
  let ts = if raw > t.last_ts then raw else t.last_ts in
  t.last_ts <- ts;
  ts

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
(* Snapshot + Prometheus-style exposition *)

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

(* Prometheus text-format exposition. Metric names are the event
   vocabulary with non-[a-zA-Z0-9_] bytes mapped to '_' and a "qsmt_"
   prefix; histograms render as summaries (p50/p90/p99 quantile lines
   plus _sum/_count and non-standard _min/_max). Everything is emitted
   in sorted order so the dump is diffable. *)
let expose_name name =
  "qsmt_"
  ^ String.map
      (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      name

let expose_float x =
  if Float.is_nan x then "NaN"
  else if x = Float.infinity then "+Inf"
  else if x = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.9g" x

let expose_text snap =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "# qsmt metrics (Prometheus text exposition)";
  (match snap.snap_phase with Some p -> line "# phase: %s" p | None -> ());
  line "# TYPE qsmt_uptime_seconds gauge";
  line "qsmt_uptime_seconds %s" (expose_float snap.snap_elapsed_s);
  List.iter
    (fun (name, n) ->
      let m = expose_name name ^ "_total" in
      line "# TYPE %s counter" m;
      line "%s %d" m n)
    snap.snap_counters;
  List.iter
    (fun (name, v) ->
      let m = expose_name name in
      line "# TYPE %s gauge" m;
      line "%s %s" m (expose_float v))
    snap.snap_gauges;
  List.iter
    (fun (name, s) ->
      let m = expose_name name in
      line "# TYPE %s summary" m;
      line "%s{quantile=\"0.5\"} %s" m (expose_float s.h_p50);
      line "%s{quantile=\"0.9\"} %s" m (expose_float s.h_p90);
      line "%s{quantile=\"0.99\"} %s" m (expose_float s.h_p99);
      line "%s_sum %s" m (expose_float (s.h_mean *. float_of_int s.h_count));
      line "%s_count %d" m s.h_count;
      line "%s_min %s" m (expose_float s.h_min);
      line "%s_max %s" m (expose_float s.h_max))
    snap.snap_hists;
  if snap.snap_spans <> [] then begin
    line "# TYPE qsmt_span_seconds_total counter";
    List.iter
      (fun (name, _, total) -> line "qsmt_span_seconds_total{span=\"%s\"} %s" name (expose_float total))
      snap.snap_spans;
    line "# TYPE qsmt_span_count_total counter";
    List.iter (fun (name, n, _) -> line "qsmt_span_count_total{span=\"%s\"} %d" name n) snap.snap_spans
  end;
  if snap.snap_open_spans <> [] then begin
    line "# TYPE qsmt_open_spans gauge";
    List.iter
      (fun (name, n) -> line "qsmt_open_spans{span=\"%s\"} %d" name n)
      snap.snap_open_spans
  end;
  Buffer.contents buf

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

(* ------------------------------------------------------------------ *)
(* JSONL validation.

   A trace is a CI artifact consumed by external tooling, so "it parses"
   has to mean real JSON, not just "our writer ran" — this is a small
   but complete JSON reader (objects, arrays, strings with escapes,
   numbers, literals) used by `qsmt trace` and the cram/CI smoke. *)

exception Bad of string

type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_list of json list
  | J_obj of (string * json) list

let parse_json line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Bad msg) in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match line.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if !pos < n && line.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected %C at byte %d" c !pos)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else begin
        let c = line.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' ->
          if !pos >= n then fail "dangling escape";
          let e = line.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub line !pos 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | None -> fail "bad \\u escape"
            | Some code ->
              (* traces are ASCII; decode BMP escapes to '?' outside it *)
              if code < 128 then Buffer.add_char buf (Char.chr code)
              else Buffer.add_char buf '?');
            pos := !pos + 4
          | _ -> fail "unknown escape");
          go ()
        | c -> Buffer.add_char buf c; go ()
      end
    in
    go ()
  in
  let parse_literal word v =
    if !pos + String.length word <= n && String.sub line !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("bad literal at byte " ^ string_of_int !pos)
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_num_char line.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub line start (!pos - start)) with
    | Some x -> J_num x
    | None -> fail ("bad number at byte " ^ string_of_int start)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> J_str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        J_obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            J_obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        J_list []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            J_list (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
      end
    | Some 't' -> parse_literal "true" (J_bool true)
    | Some 'f' -> parse_literal "false" (J_bool false)
    | Some 'n' -> parse_literal "null" J_null
    | Some _ -> parse_number ()
  in
  match parse_value () with
  | v ->
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at byte %d" !pos) else Ok v
  | exception Bad msg -> Error msg

(* Field lookup helpers over a parsed trace line. *)
let jfield members k = List.assoc_opt k members
let jnum members k = match jfield members k with Some (J_num x) -> Some x | _ -> None
let jstr members k = match jfield members k with Some (J_str s) -> Some s | _ -> None
let jint members k = Option.map int_of_float (jnum members k)

(* State of one open span while validating / exporting a trace. *)
type open_rec = {
  o_name : string;
  o_parent : int;
  o_line : int;
  o_ts : float;
  mutable o_children : int;
}

let validate_jsonl ic =
  (* In addition to the line-level contract (JSON object, string "ev",
     non-decreasing float "ts"), check span balance: every span.begin
     carries a fresh id and an open (or absent) parent, every span.end
     closes an open id with a matching name and no still-open children,
     and nothing is left open at end of input. *)
  let opens : (int, open_rec) Hashtbl.t = Hashtbl.create 32 in
  let err lineno fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" lineno m)) fmt in
  let check_span lineno ev members ts =
    match ev with
    | "span.begin" -> begin
      match (jint members "span", jstr members "name") with
      | None, _ -> err lineno "span.begin without an integer \"span\" id"
      | _, None -> err lineno "span.begin without a string \"name\""
      | Some id, Some name ->
        if Hashtbl.mem opens id then err lineno "span id %d begun twice" id
        else begin
          let parent = match jint members "parent" with Some p -> p | None -> -1 in
          if parent >= 0 then begin
            match Hashtbl.find_opt opens parent with
            | None -> err lineno "span %d (%s) begins under unopened parent %d" id name parent
            | Some po ->
              po.o_children <- po.o_children + 1;
              Hashtbl.replace opens id
                { o_name = name; o_parent = parent; o_line = lineno; o_ts = ts; o_children = 0 };
              Ok ()
          end
          else begin
            Hashtbl.replace opens id
              { o_name = name; o_parent = parent; o_line = lineno; o_ts = ts; o_children = 0 };
            Ok ()
          end
        end
    end
    | "span.end" -> begin
      match jint members "span" with
      | None -> err lineno "span.end without an integer \"span\" id"
      | Some id -> begin
        match Hashtbl.find_opt opens id with
        | None -> err lineno "span.end for id %d which is not open" id
        | Some o ->
          if o.o_children > 0 then
            err lineno "span %d (%s) ends with %d child span(s) still open" id o.o_name
              o.o_children
          else begin
            (match jstr members "name" with
            | Some n when n <> o.o_name ->
              err lineno "span %d ends as %S but began as %S (line %d)" id n o.o_name o.o_line
            | _ ->
              Hashtbl.remove opens id;
              (match Hashtbl.find_opt opens o.o_parent with
              | Some po -> po.o_children <- po.o_children - 1
              | None -> ());
              Ok ())
          end
      end
    end
    | _ -> Ok ()
  in
  let rec go lineno count last_ts =
    match In_channel.input_line ic with
    | None ->
      if Hashtbl.length opens = 0 then Ok count
      else begin
        (* report the earliest-opened dangling span *)
        let worst =
          Hashtbl.fold
            (fun id o acc ->
              match acc with
              | Some (_, o') when o'.o_line <= o.o_line -> acc
              | _ -> Some (id, o))
            opens None
        in
        match worst with
        | Some (id, o) ->
          Error
            (Printf.sprintf "end of input: span %d (%s) opened at line %d never ends" id
               o.o_name o.o_line)
        | None -> Ok count
      end
    | Some line when String.trim line = "" -> go (lineno + 1) count last_ts
    | Some line -> begin
      match parse_json line with
      | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
      | Ok (J_obj members) -> begin
        match (jfield members "ev", jfield members "ts") with
        | Some (J_str ev), Some (J_num ts) ->
          if ts < last_ts then
            Error
              (Printf.sprintf "line %d: timestamp %g decreases (previous %g)" lineno ts last_ts)
          else begin
            match check_span lineno ev members ts with
            | Error _ as e -> e
            | Ok () -> go (lineno + 1) (count + 1) ts
          end
        | Some (J_str _), _ -> Error (Printf.sprintf "line %d: missing numeric \"ts\"" lineno)
        | _, _ -> Error (Printf.sprintf "line %d: missing string \"ev\"" lineno)
      end
      | Ok _ -> Error (Printf.sprintf "line %d: not a JSON object" lineno)
    end
  in
  go 1 0 neg_infinity

let validate_jsonl_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> validate_jsonl ic)

(* ------------------------------------------------------------------ *)
(* Trace replay: rebuild a snapshot from a flushed JSONL trace *)

let snapshot_of_jsonl ic =
  (* Counters / gauges / histogram summaries come from the flush-emitted
     summary events (last flush wins — flushes are cumulative); span
     totals are re-accumulated from the span.end stream, which also
     yields whatever is left open at end of trace. *)
  let counters = Hashtbl.create 16 in
  let gauges = Hashtbl.create 16 in
  let hists = Hashtbl.create 16 in
  let spans = Hashtbl.create 16 in
  let opens = Hashtbl.create 16 in
  let last_ts = ref 0. in
  let last_open = ref None in
  let rec go lineno =
    match In_channel.input_line ic with
    | None -> Ok ()
    | Some line when String.trim line = "" -> go (lineno + 1)
    | Some line -> begin
      match parse_json line with
      | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
      | Ok (J_obj members) -> begin
        (match jnum members "ts" with Some ts when ts > !last_ts -> last_ts := ts | _ -> ());
        (match jstr members "ev" with
        | Some "counter" -> begin
          match (jstr members "name", jint members "n") with
          | Some name, Some n -> Hashtbl.replace counters name n
          | _ -> ()
        end
        | Some "gauge" -> begin
          match (jstr members "name", jnum members "value") with
          | Some name, Some v -> Hashtbl.replace gauges name v
          | _ -> ()
        end
        | Some "hist" -> begin
          match jstr members "name" with
          | Some name ->
            let f k = match jnum members k with Some x -> x | None -> Float.nan in
            let n = match jint members "count" with Some n -> n | None -> 0 in
            Hashtbl.replace hists name
              {
                h_count = n;
                h_min = f "min";
                h_max = f "max";
                h_mean = f "mean";
                h_stddev = f "stddev";
                h_p50 = f "p50";
                h_p90 = f "p90";
                h_p99 = f "p99";
              }
          | None -> ()
        end
        | Some "span.begin" -> begin
          match (jint members "span", jstr members "name") with
          | Some id, Some name ->
            Hashtbl.replace opens id name;
            last_open := Some (id, name)
          | _ -> ()
        end
        | Some "span.end" -> begin
          match (jint members "span", jstr members "name", jnum members "dur_s") with
          | Some id, Some name, Some dur ->
            Hashtbl.remove opens id;
            (match Hashtbl.find_opt spans name with
            | Some r ->
              let n, total = !r in
              r := (n + 1, total +. dur)
            | None -> Hashtbl.replace spans name (ref (1, dur)))
          | _ -> ()
        end
        | _ -> ());
        go (lineno + 1)
      end
      | Ok _ -> Error (Printf.sprintf "line %d: not a JSON object" lineno)
    end
  in
  match go 1 with
  | Error _ as e -> e
  | Ok () ->
    let open_counts = Hashtbl.create 8 in
    Hashtbl.iter
      (fun _ name ->
        match Hashtbl.find_opt open_counts name with
        | Some r -> incr r
        | None -> Hashtbl.replace open_counts name (ref 1))
      opens;
    let phase =
      match !last_open with
      | Some (id, name) when Hashtbl.mem opens id -> Some name
      | _ -> None
    in
    Ok
      {
        snap_elapsed_s = !last_ts;
        snap_phase = phase;
        snap_counters = List.map (fun (k, n) -> (k, n)) (sorted_bindings counters);
        snap_gauges = List.map (fun (k, v) -> (k, v)) (sorted_bindings gauges);
        snap_hists = List.map (fun (k, s) -> (k, s)) (sorted_bindings hists);
        snap_spans =
          List.map
            (fun (k, r) ->
              let n, total = !r in
              (k, n, total))
            (sorted_bindings spans);
        snap_open_spans = List.map (fun (k, r) -> (k, !r)) (sorted_bindings open_counts);
      }

let snapshot_of_jsonl_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> snapshot_of_jsonl ic)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export *)

let rec json_to_buf buf = function
  | J_null -> Buffer.add_string buf "null"
  | J_bool b -> Buffer.add_string buf (if b then "true" else "false")
  | J_num x ->
    if Float.is_integer x && Float.abs x < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.0f" x)
    else buf_add_json_float buf x
  | J_str s -> buf_add_json_string buf s
  | J_list l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        json_to_buf buf v)
      l;
    Buffer.add_char buf ']'
  | J_obj members ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        buf_add_json_string buf k;
        Buffer.add_char buf ':';
        json_to_buf buf v)
      members;
    Buffer.add_char buf '}'

(* Converts a JSONL trace to Chrome trace-event format (the JSON
   Perfetto / chrome://tracing load). Spans become "X" complete events;
   concurrency is made visible by assigning each span a lane ("tid"):
   a span shares its parent's lane when the parent is the lane's
   innermost open span, otherwise it gets the first free lane — so the
   portfolio's overlapping members land on separate rows. Point events become instants on their owning
   span's lane; counter and gauge summaries become "C" counter events. *)
let export_chrome ic oc =
  let reserved = [ "ts"; "ev"; "span"; "parent" ] in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  Buffer.add_string buf "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"qsmt\"}}";
  let count = ref 0 in
  let lanes : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  let nlanes = ref 0 in
  let span_lane : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let span_info : (int, open_rec) Hashtbl.t = Hashtbl.create 32 in
  let lane_top l = match Hashtbl.find_opt lanes l with Some (x :: _) -> Some x | _ -> None in
  let alloc_lane parent =
    let chosen =
      match (if parent >= 0 then Hashtbl.find_opt span_lane parent else None) with
      | Some lp when lane_top lp = Some parent -> Some lp
      | _ ->
        let rec free l = if l >= !nlanes then None else if lane_top l = None then Some l else free (l + 1) in
        free 0
    in
    match chosen with
    | Some l -> l
    | None ->
      let l = !nlanes in
      incr nlanes;
      l
  in
  let add_event json_fragment =
    Buffer.add_char buf ',';
    Buffer.add_string buf json_fragment;
    incr count
  in
  let ev_buf = Buffer.create 128 in
  let frag fmt = Printf.ksprintf (fun s -> s) fmt in
  let args_of members =
    Buffer.clear ev_buf;
    Buffer.add_char ev_buf '{';
    let first = ref true in
    List.iter
      (fun (k, v) ->
        if not (List.mem k reserved) then begin
          if not !first then Buffer.add_char ev_buf ',';
          first := false;
          buf_add_json_string ev_buf k;
          Buffer.add_char ev_buf ':';
          json_to_buf ev_buf v
        end)
      members;
    Buffer.add_char ev_buf '}';
    Buffer.contents ev_buf
  in
  let rec go lineno =
    match In_channel.input_line ic with
    | None -> Ok ()
    | Some line when String.trim line = "" -> go (lineno + 1)
    | Some line -> begin
      match parse_json line with
      | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
      | Ok (J_obj members) -> begin
        match (jstr members "ev", jnum members "ts") with
        | Some ev, Some ts -> begin
          let us = ts *. 1e6 in
          (match ev with
          | "span.begin" -> begin
            match (jint members "span", jstr members "name") with
            | Some id, Some name ->
              let parent = match jint members "parent" with Some p -> p | None -> -1 in
              let lane = alloc_lane parent in
              Hashtbl.replace lanes lane
                (id :: (match Hashtbl.find_opt lanes lane with Some s -> s | None -> []));
              Hashtbl.replace span_lane id lane;
              Hashtbl.replace span_info id
                { o_name = name; o_parent = parent; o_line = lineno; o_ts = ts; o_children = 0 }
            | _ -> ()
          end
          | "span.end" -> begin
            match jint members "span" with
            | Some id -> begin
              match Hashtbl.find_opt span_info id with
              | None -> ()
              | Some o ->
                let lane = match Hashtbl.find_opt span_lane id with Some l -> l | None -> 0 in
                let dur =
                  match jnum members "dur_s" with Some d -> d *. 1e6 | None -> us -. (o.o_ts *. 1e6)
                in
                Buffer.clear ev_buf;
                buf_add_json_string ev_buf o.o_name;
                add_event
                  (frag
                     "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d}}"
                     (Buffer.contents ev_buf) (lane + 1) (o.o_ts *. 1e6) dur id o.o_parent);
                (match Hashtbl.find_opt lanes lane with
                | Some stack -> Hashtbl.replace lanes lane (List.filter (fun x -> x <> id) stack)
                | None -> ());
                Hashtbl.remove span_lane id;
                Hashtbl.remove span_info id
            end
            | None -> ()
          end
          | "counter" | "gauge" -> begin
            match jstr members "name" with
            | Some name ->
              let v =
                match (jnum members "n", jnum members "value") with
                | Some n, _ -> n
                | None, Some v -> v
                | None, None -> 0.
              in
              Buffer.clear ev_buf;
              buf_add_json_string ev_buf name;
              add_event
                (frag "{\"name\":%s,\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":%.3f,\"args\":{\"value\":%s}}"
                   (Buffer.contents ev_buf) us (expose_float v))
            | None -> ()
          end
          | "hist" -> ()
          | _ ->
            let lane =
              match jint members "span" with
              | Some id -> (
                match Hashtbl.find_opt span_lane id with Some l -> l + 1 | None -> 0)
              | None -> 0
            in
            let args = args_of members in
            Buffer.clear ev_buf;
            buf_add_json_string ev_buf ev;
            add_event
              (frag "{\"name\":%s,\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"args\":%s}"
                 (Buffer.contents ev_buf) lane us args));
          go (lineno + 1)
        end
        | _ -> Error (Printf.sprintf "line %d: missing \"ev\" or \"ts\"" lineno)
      end
      | Ok _ -> Error (Printf.sprintf "line %d: not a JSON object" lineno)
    end
  in
  match go 1 with
  | Error _ as e -> e
  | Ok () ->
    for l = 0 to !nlanes - 1 do
      Buffer.add_char buf ',';
      Buffer.add_string buf
        (frag "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"lane %d\"}}"
           (l + 1) (l + 1))
    done;
    Buffer.add_string buf "]}";
    output_string oc (Buffer.contents buf);
    Ok !count

let export_chrome_file ~src ~dst =
  match open_in src with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match open_out dst with
        | exception Sys_error msg -> Error msg
        | oc -> Fun.protect ~finally:(fun () -> close_out oc) (fun () -> export_chrome ic oc))
