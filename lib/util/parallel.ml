let recommended_domains () = min 16 (Domain.recommended_domain_count ())

(* Static block partition: worker [k] of [d] handles indices
   [lo_k, lo_k + size_k). All workers get within one element of each other,
   which is fine because per-element cost is uniform for our callers
   (identical annealing reads). *)
let partition n d =
  let d = max 1 (min d n) in
  let base = n / d and extra = n mod d in
  List.init d (fun k ->
      let lo = (k * base) + min k extra in
      let size = base + if k < extra then 1 else 0 in
      (lo, size))

module Pool = struct
  (* One long-lived domain per worker. A worker sleeps on its condition
     variable until a job is assigned, runs it, clears the slot, signals
     completion, and goes back to sleep — domains are spawned once per
     pool, not once per call. Jobs handed to [assign] must not raise;
     [fork_join] wraps user jobs so exceptions travel back to the caller. *)
  type worker = {
    mutex : Mutex.t;
    cond : Condition.t;
    mutable job : (unit -> unit) option;
    mutable quit : bool;
  }

  type t = {
    workers : worker array;
    domains : unit Domain.t array;
    free : int Queue.t; (* indices of idle workers *)
    free_mutex : Mutex.t;
    mutable alive : bool;
  }

  let rec worker_loop w =
    Mutex.lock w.mutex;
    while w.job = None && not w.quit do
      Condition.wait w.cond w.mutex
    done;
    if w.quit then Mutex.unlock w.mutex
    else begin
      let job = Option.get w.job in
      Mutex.unlock w.mutex;
      (* Defensive catch-all: [fork_join] wraps user jobs so they report
         exceptions through their own channel, but a job that raises
         anyway must not kill the worker domain — that would strand the
         slot forever (its index is back in [free], yet nobody would ever
         run or signal completion of the next job assigned to it). *)
      (try job () with _ -> ());
      Mutex.lock w.mutex;
      w.job <- None;
      Condition.broadcast w.cond;
      Mutex.unlock w.mutex;
      worker_loop w
    end

  let create n =
    let n = max 0 n in
    let workers =
      Array.init n (fun _ ->
          { mutex = Mutex.create (); cond = Condition.create (); job = None; quit = false })
    in
    let domains = Array.map (fun w -> Domain.spawn (fun () -> worker_loop w)) workers in
    let free = Queue.create () in
    Array.iteri (fun i _ -> Queue.push i free) workers;
    { workers; domains; free; free_mutex = Mutex.create (); alive = true }

  let size t = Array.length t.workers

  (* Grab up to [k] idle workers without blocking: callers always run part
     of the work themselves, so finding fewer (or zero) free workers only
     costs parallelism, never progress. This is also what makes nested
     parallel calls safe — an inner call simply finds the pool busy and
     degrades to sequential. *)
  let try_acquire t k =
    Mutex.lock t.free_mutex;
    let rec take k acc =
      if k = 0 || Queue.is_empty t.free then acc else take (k - 1) (Queue.pop t.free :: acc)
    in
    let ids = take (max 0 k) [] in
    Mutex.unlock t.free_mutex;
    ids

  let release t id =
    Mutex.lock t.free_mutex;
    Queue.push id t.free;
    Mutex.unlock t.free_mutex

  let assign t id job =
    let w = t.workers.(id) in
    Mutex.lock w.mutex;
    w.job <- Some job;
    Condition.broadcast w.cond;
    Mutex.unlock w.mutex

  let wait t id =
    let w = t.workers.(id) in
    Mutex.lock w.mutex;
    while w.job <> None do
      Condition.wait w.cond w.mutex
    done;
    Mutex.unlock w.mutex

  (* The one fork-join loop. The caller (participant 0) and each acquired
     worker (participants 1..k) drain a shared job index, so a participant
     that finishes early takes the next pending job. Workers are acquired
     only for more than one job, so a single job never looks the pool up.
     First exception wins; the remaining jobs still run (they may hold
     partial results the caller owns). The exception is captured together
     with its backtrace at the raise site — possibly on a worker domain —
     and re-raised on the caller with that backtrace attached, so a raising
     job reads like a raising function call, never a process abort. Every
     acquired worker is waited on and released whether or not jobs raised,
     so a raising job leaves the pool fully reusable.

     The pool.* probes run only on an enabled handle: per-job submit→start
     latency and queue depth, one pool.worker event per participant, the
     utilization and participants gauges and, with [~stats], a closing
     pool.stats event. The caller is busy from submission and the wall
     ends when the last participant finishes, so a caller alone reports
     utilization 1 and no idle time. Each participant writes only its own
     slots, and [wait]'s mutex round-trip publishes a worker's slots to
     the caller before they are read. Jobs are coarse (blocks of whole
     annealing reads), so the per-job telemetry locking is noise. *)
  let fork_join ~stats tm pool jobs =
    let tracked = Telemetry.enabled tm in
    let submit = if tracked then Mclock.now () else 0. in
    let jobs = Array.of_list jobs in
    let n = Array.length jobs in
    if tracked then Telemetry.count tm "pool.jobs" n;
    let acquired =
      if n = 1 then []
      else
        let t = pool () in
        if t.alive then List.map (fun id -> (t, id)) (try_acquire t (n - 1)) else []
    in
    let parts = 1 + List.length acquired in
    let start = Array.make parts submit and finish = Array.make parts submit in
    let ran = Array.make parts 0 in
    let next = Atomic.make 0 in
    let error = Atomic.make None in
    let drain who () =
      if tracked && who > 0 then start.(who) <- Mclock.now ();
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          if tracked then begin
            Telemetry.observe tm "pool.submit_latency_s" (Mclock.now () -. submit);
            let pending = float_of_int (n - i - 1) in
            Telemetry.gauge tm "pool.queue_depth" pending;
            Telemetry.observe tm "pool.queue_depth" pending;
            ran.(who) <- ran.(who) + 1
          end;
          (try jobs.(i) ()
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             ignore (Atomic.compare_and_set error None (Some (e, bt))));
          go ()
        end
      in
      go ();
      if tracked then finish.(who) <- Mclock.now ()
    in
    List.iteri (fun k (t, id) -> assign t id (drain (k + 1))) acquired;
    drain 0 ();
    List.iter
      (fun (t, id) ->
        wait t id;
        release t id)
      acquired;
    if tracked then begin
      let wall = Array.fold_left Float.max submit finish -. submit in
      let busy_total = ref 0. in
      for who = 0 to parts - 1 do
        let busy = finish.(who) -. start.(who) in
        busy_total := !busy_total +. busy;
        Telemetry.observe tm "pool.worker_busy_s" busy;
        Telemetry.emit tm "pool.worker"
          [
            ("worker", Telemetry.Int who);
            ("jobs", Telemetry.Int ran.(who));
            ("busy_s", Telemetry.Float busy);
            ("idle_s", Telemetry.Float (Float.max 0. (wall -. busy)));
          ]
      done;
      let util = if wall > 0. then !busy_total /. (wall *. float_of_int parts) else 1. in
      Telemetry.gauge tm "pool.utilization" util;
      Telemetry.gauge tm "pool.participants" (float_of_int parts);
      if stats then
        Telemetry.emit tm "pool.stats"
          [
            ("jobs", Telemetry.Int n);
            ("participants", Telemetry.Int parts);
            ("wall_s", Telemetry.Float wall);
            ("busy_s", Telemetry.Float !busy_total);
            ("utilization", Telemetry.Float util);
          ]
    end;
    match Atomic.get error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()

  let run_list ?(telemetry = Telemetry.null) t jobs =
    if not (List.is_empty jobs) then fork_join ~stats:true telemetry (fun () -> t) jobs

  let shutdown t =
    if t.alive then begin
      t.alive <- false;
      Array.iter
        (fun w ->
          Mutex.lock w.mutex;
          w.quit <- true;
          Condition.broadcast w.cond;
          Mutex.unlock w.mutex)
        t.workers;
      Array.iter Domain.join t.domains;
      Mutex.lock t.free_mutex;
      Queue.clear t.free;
      Mutex.unlock t.free_mutex
    end

  (* The process-wide shared pool, sized so that the caller plus all
     workers saturate the machine. Created on first parallel call and
     never shut down (worker domains sleep between calls). *)
  let shared = ref None
  let shared_mutex = Mutex.create ()

  let global () =
    Mutex.lock shared_mutex;
    let pool =
      match !shared with
      | Some pool -> pool
      | None ->
        let pool = create (recommended_domains () - 1) in
        shared := Some pool;
        pool
    in
    Mutex.unlock shared_mutex;
    pool
end

let init_array ?(telemetry = Telemetry.null) ?(domains = 1) n f =
  if n = 0 then [||]
  else begin
    (* Each block fills its own array. A block is left empty only by a
       raising job, and the loop re-raises before the blocks are read.
       One block (domains <= 1 or n = 1) runs on the caller alone: the
       shared pool is never looked up, so a process that never asks for
       parallelism spawns no worker domain, and no pool.stats closes it. *)
    let blocks = Array.of_list (partition n domains) in
    let out = Array.make (Array.length blocks) [||] in
    let fill b () =
      let lo, size = blocks.(b) in
      out.(b) <- Array.init size (fun i -> f (lo + i))
    in
    Pool.fork_join
      ~stats:(Array.length blocks > 1)
      telemetry Pool.global
      (List.init (Array.length blocks) fill);
    Array.concat (Array.to_list out)
  end
