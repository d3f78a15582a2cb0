(* The process-wide clamp lives behind a mutex: benches and the portfolio
   time concurrently from several domains, and a torn read of the last
   timestamp could let one domain observe a step backwards that another
   already smoothed over. One lock per reading is noise next to the
   work being timed (benches read the clock a handful of times per rep). *)

let mutex = Mutex.create ()
let epoch = Unix.gettimeofday ()
let last = ref 0.

let now () =
  Mutex.lock mutex;
  let raw = Unix.gettimeofday () -. epoch in
  let t = if raw > !last then raw else !last in
  last := t;
  Mutex.unlock mutex;
  t
