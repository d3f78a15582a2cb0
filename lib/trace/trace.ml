module Telemetry = Qsmt_util.Telemetry

(* ------------------------------------------------------------------ *)
(* The reader *)

(* A span the reader has seen begin. *)
type span = { name : string; parent : int; line : int; start : float; mutable children : int }

(* What one event does to the span stream. *)
type step = Point | Begin of int * span | End of int * span

type event = { ev : string; ts : float; members : (string * Json.t) list; step : step }

let num members k = match List.assoc_opt k members with Some (Json.Num x) -> Some x | _ -> None
let str members k = match List.assoc_opt k members with Some (Json.Str s) -> Some s | _ -> None
let int members k = Option.map int_of_float (num members k)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort (fun (a, _) (b, _) -> compare a b)

(* The one line loop: checks every event against the contract in
   trace.mli, then hands it to [f]. Returns the event count and the
   spans still open at end of input, earliest-begun first. *)
let read ic f =
  let opens : (int, span) Hashtbl.t = Hashtbl.create 32 in
  let err lineno fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" lineno m)) fmt in
  let check_span lineno ev members ts =
    match ev with
    | "span.begin" -> begin
      match (int members "span", str members "name") with
      | None, _ -> err lineno "span.begin without an integer \"span\" id"
      | _, None -> err lineno "span.begin without a string \"name\""
      | Some id, Some name ->
        let parent = Option.value (int members "parent") ~default:(-1) in
        let open_parent = if parent >= 0 then Hashtbl.find_opt opens parent else None in
        if Hashtbl.mem opens id then err lineno "span id %d begun twice" id
        else if parent >= 0 && Option.is_none open_parent then
          err lineno "span %d (%s) begins under unopened parent %d" id name parent
        else begin
          Option.iter (fun p -> p.children <- p.children + 1) open_parent;
          let s = { name; parent; line = lineno; start = ts; children = 0 } in
          Hashtbl.replace opens id s;
          Ok (Begin (id, s))
        end
    end
    | "span.end" -> begin
      match int members "span" with
      | None -> err lineno "span.end without an integer \"span\" id"
      | Some id -> begin
        match Hashtbl.find_opt opens id with
        | None -> err lineno "span.end for id %d which is not open" id
        | Some s when s.children > 0 ->
          err lineno "span %d (%s) ends with %d child span(s) still open" id s.name s.children
        | Some s -> begin
          match str members "name" with
          | Some n when n <> s.name ->
            err lineno "span %d ends as %S but began as %S (line %d)" id n s.name s.line
          | _ ->
            Hashtbl.remove opens id;
            Option.iter (fun p -> p.children <- p.children - 1) (Hashtbl.find_opt opens s.parent);
            Ok (End (id, s))
        end
      end
    end
    | _ -> Ok Point
  in
  let rec go lineno count last_ts =
    match In_channel.input_line ic with
    | None ->
      let still_open = Hashtbl.fold (fun id s acc -> (id, s) :: acc) opens [] in
      Ok (count, List.sort (fun (_, a) (_, b) -> compare a.line b.line) still_open)
    | Some line when String.trim line = "" -> go (lineno + 1) count last_ts
    | Some line -> begin
      match Json.parse line with
      | Error msg -> err lineno "%s" msg
      | Ok (Json.Obj members) -> begin
        match (List.assoc_opt "ev" members, List.assoc_opt "ts" members) with
        | Some (Json.Str ev), Some (Json.Num ts) ->
          if ts < last_ts then err lineno "timestamp %g decreases (previous %g)" ts last_ts
          else begin
            match check_span lineno ev members ts with
            | Error _ as e -> e
            | Ok step ->
              f { ev; ts; members; step };
              go (lineno + 1) (count + 1) ts
          end
        | Some (Json.Str _), _ -> err lineno "missing numeric \"ts\""
        | _, _ -> err lineno "missing string \"ev\""
      end
      | Ok _ -> err lineno "not a JSON object"
    end
  in
  go 1 0 neg_infinity

let validate ic =
  match read ic ignore with
  | Error _ as e -> e
  | Ok (count, []) -> Ok count
  | Ok (_, (id, s) :: _) ->
    Error (Printf.sprintf "end of input: span %d (%s) opened at line %d never ends" id s.name s.line)

(* ------------------------------------------------------------------ *)
(* Replay *)

let replay ic =
  let counters = Hashtbl.create 16 in
  let gauges = Hashtbl.create 16 in
  let hists = Hashtbl.create 16 in
  let spans = Hashtbl.create 16 in
  let elapsed = ref 0. in
  let on_event e =
    if e.ts > !elapsed then elapsed := e.ts;
    match (e.step, e.ev) with
    | End (_, s), _ -> begin
      match num e.members "dur_s" with
      | Some dur ->
        Hashtbl.replace spans s.name
          (match Hashtbl.find_opt spans s.name with Some (n, total) -> (n + 1, total +. dur) | None -> (1, dur))
      | None -> ()
    end
    | Point, "counter" -> begin
      match (str e.members "name", int e.members "n") with
      | Some name, Some n -> Hashtbl.replace counters name n
      | _ -> ()
    end
    | Point, "gauge" -> begin
      match (str e.members "name", num e.members "value") with
      | Some name, Some v -> Hashtbl.replace gauges name v
      | _ -> ()
    end
    | Point, "hist" -> begin
      match str e.members "name" with
      | Some name ->
        let f k = Option.value (num e.members k) ~default:Float.nan in
        Hashtbl.replace hists name
          {
            Telemetry.h_count = Option.value (int e.members "count") ~default:0;
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
    | _ -> ()
  in
  match read ic on_event with
  | Error _ as e -> e
  | Ok (_, still_open) ->
    let open_counts = Hashtbl.create 8 in
    List.iter
      (fun (_, s) ->
        Hashtbl.replace open_counts s.name
          (1 + Option.value (Hashtbl.find_opt open_counts s.name) ~default:0))
      still_open;
    Ok
      {
        Telemetry.snap_elapsed_s = !elapsed;
        snap_phase = (match List.rev still_open with (_, s) :: _ -> Some s.name | [] -> None);
        snap_counters = sorted_bindings counters;
        snap_gauges = sorted_bindings gauges;
        snap_hists = sorted_bindings hists;
        snap_spans = List.map (fun (k, (n, total)) -> (k, n, total)) (sorted_bindings spans);
        snap_open_spans = sorted_bindings open_counts;
      }

(* ------------------------------------------------------------------ *)
(* Prometheus-style exposition *)

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

let expose (snap : Telemetry.snapshot) =
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
    (fun (name, (s : Telemetry.hist_summary)) ->
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
(* Chrome trace-event export *)

(* Concurrency is made visible by assigning each span a lane ("tid"): a
   span shares its parent's lane when the parent is the lane's innermost
   open span, otherwise it gets the first free lane — so the portfolio's
   overlapping members land on separate rows. *)
let to_chrome ic oc =
  let reserved = [ "ts"; "ev"; "span"; "parent" ] in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  Buffer.add_string buf "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"qsmt\"}}";
  let count = ref 0 in
  let lanes : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  let nlanes = ref 0 in
  let span_lane : (int, int) Hashtbl.t = Hashtbl.create 32 in
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
  let add_event fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_char buf ',';
        Buffer.add_string buf s;
        incr count)
      fmt
  in
  let quote s = Json.to_string (Json.Str s) in
  let on_event e =
    let us = e.ts *. 1e6 in
    match (e.step, e.ev) with
    | Begin (id, s), _ ->
      let lane = alloc_lane s.parent in
      Hashtbl.replace lanes lane (id :: Option.value (Hashtbl.find_opt lanes lane) ~default:[]);
      Hashtbl.replace span_lane id lane
    | End (id, s), _ ->
      let lane = Hashtbl.find span_lane id in
      let dur = match num e.members "dur_s" with Some d -> d *. 1e6 | None -> us -. (s.start *. 1e6) in
      add_event
        "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d}}"
        (quote s.name) (lane + 1) (s.start *. 1e6) dur id s.parent;
      Hashtbl.replace lanes lane (List.filter (fun x -> x <> id) (Hashtbl.find lanes lane));
      Hashtbl.remove span_lane id
    | Point, ("counter" | "gauge") -> begin
      match str e.members "name" with
      | Some name ->
        let v =
          match (num e.members "n", num e.members "value") with
          | Some n, _ -> n
          | None, Some v -> v
          | None, None -> 0.
        in
        add_event "{\"name\":%s,\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":%.3f,\"args\":{\"value\":%s}}"
          (quote name) us (expose_float v)
      | None -> ()
    end
    | Point, "hist" -> ()
    | Point, ev ->
      let lane =
        match Option.bind (int e.members "span") (Hashtbl.find_opt span_lane) with
        | Some l -> l + 1
        | None -> 0
      in
      let args = List.filter (fun (k, _) -> not (List.mem k reserved)) e.members in
      add_event "{\"name\":%s,\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"args\":%s}"
        (quote ev) lane us
        (Json.to_string (Json.Obj args))
  in
  match read ic on_event with
  | Error _ as e -> e
  | Ok _ ->
    for l = 1 to !nlanes do
      Buffer.add_string buf
        (Printf.sprintf ",{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"lane %d\"}}" l l)
    done;
    Buffer.add_string buf "]}";
    output_string oc (Buffer.contents buf);
    Ok !count
