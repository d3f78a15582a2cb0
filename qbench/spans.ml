(* In-memory spans of the traced run, recorded from the benchmark around
   its calls into each layer. One domain, so spans nest strictly: a
   span's parent is whichever span was innermost when it opened, and a
   layer's self time is its duration minus its children's. *)

(* [Bookkeeping] is the trace's own work inside a layer call (grading
   every read for the time-to-solution counts); it keeps that cost out
   of the layers' self times. *)
type layer = Parse | Check | Backend | Absint | Encode | Clamp | Sample | Decode | Bookkeeping

let layers = [ Parse; Check; Backend; Absint; Encode; Clamp; Sample; Decode; Bookkeeping ]

let layer_name = function
  | Parse -> "smtlib.parse"
  | Check -> "smtlib.check"
  | Backend -> "incremental.backend"
  | Absint -> "absint"
  | Encode -> "encode"
  | Clamp -> "clamp"
  | Sample -> "sample"
  | Decode -> "decode"
  | Bookkeeping -> "trace.bookkeeping"

let index = function
  | Parse -> 0
  | Check -> 1
  | Backend -> 2
  | Absint -> 3
  | Encode -> 4
  | Clamp -> 5
  | Sample -> 6
  | Decode -> 7
  | Bookkeeping -> 8

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable len : int;
  mutable layer : layer array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable qid : int array;
  mutable open_ : int;  (** innermost open span, -1 when none *)
  mutable query : int;  (** query id stamped on spans opened from now on *)
}

let create () =
  let cap = 1024 in
  {
    len = 0;
    layer = Array.make cap Parse;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    qid = Array.make cap 0;
    open_ = -1;
    query = 0;
  }

let grow t =
  let cap = 2 * Array.length t.start in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.layer <- extend t.layer Parse;
  t.start <- extend t.start 0;
  t.stop <- extend t.stop 0;
  t.parent <- extend t.parent (-1);
  t.qid <- extend t.qid 0

let with_span t layer f =
  if t.len = Array.length t.start then grow t;
  let id = t.len in
  t.len <- id + 1;
  t.layer.(id) <- layer;
  t.parent.(id) <- t.open_;
  t.qid.(id) <- t.query;
  t.open_ <- id;
  t.start.(id) <- now_ns ();
  let finish () =
    t.stop.(id) <- now_ns ();
    t.open_ <- t.parent.(id)
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

type totals = { self_ns : int array; spans : int array }
(** Per layer (by {!index}): summed self time and span count. *)

let totals t =
  let self_ns = Array.make (List.length layers) 0 and spans = Array.make (List.length layers) 0 in
  for id = 0 to t.len - 1 do
    let dur = t.stop.(id) - t.start.(id) in
    let k = index t.layer.(id) in
    self_ns.(k) <- self_ns.(k) + dur;
    spans.(k) <- spans.(k) + 1;
    let p = t.parent.(id) in
    if p >= 0 then begin
      let kp = index t.layer.(p) in
      self_ns.(kp) <- self_ns.(kp) - dur
    end
  done;
  { self_ns; spans }

(* One line per span: id, name, start and end (ns, monotonic), parent
   id (-1 for a root), query id. *)
let write t path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id\tname\tstart_ns\tend_ns\tparent\tquery\n";
      for id = 0 to t.len - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" id (layer_name t.layer.(id)) t.start.(id)
          t.stop.(id) t.parent.(id) t.qid.(id)
      done)
