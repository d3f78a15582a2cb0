module Bitvec = Qsmt_util.Bitvec
module Parallel = Qsmt_util.Parallel
module Mclock = Qsmt_util.Mclock
module Telemetry = Qsmt_util.Telemetry
module Qubo = Qsmt_qubo.Qubo

type params = {
  members : Sampler.t list;
  jobs : int;
  budget : float option;
}

type member_report = {
  member_name : string;
  samples : Sampleset.t;
  elapsed : float;
  cancelled : bool;
  failed : string option;
  hardware : Hardware.stats option;
}

type result = {
  merged : Sampleset.t;
  winner : (string * Bitvec.t) option;
  reports : member_report list;
  wall_time : float;
}

(* Members run one per job slot, so their internal read parallelism
   stays off — every default has [domains = 1] — and the concurrency
   budget is spent across members, not within them. *)
let default_members = Sampler.default_suite

let default = { members = default_members ~seed:0; jobs = 0; budget = None }

let run ?(params = default) ?init ?verify ?(telemetry = Telemetry.null) q =
  if List.is_empty params.members then invalid_arg "Portfolio.run: no members";
  (match params.budget with
  | Some b when b <= 0. -> invalid_arg "Portfolio.run: budget <= 0"
  | _ -> ());
  let members = Array.of_list params.members in
  let n = Array.length members in
  let jobs =
    if params.jobs > 0 then min params.jobs n else min (Parallel.recommended_domains ()) n
  in
  let t0 = Mclock.now () in
  (* Set once a verified sample is found (or, defensively, never): every
     member's stop closure reads it, so one member's win cancels the rest
     at their next poll point. *)
  let stop_all = Atomic.make false in
  let winner = Atomic.make None in
  let tracked = Telemetry.enabled telemetry in
  let try_win name bits =
    (* Copy before publishing: heuristic reads hand us their live buffer. *)
    if Atomic.compare_and_set winner None (Some (name, Bitvec.copy bits)) then begin
      Atomic.set stop_all true;
      if tracked then
        Telemetry.emit telemetry "portfolio.winner"
          [
            ("member", Telemetry.Str name);
            ("elapsed_s", Telemetry.Float (Mclock.now () -. t0));
          ]
    end
  in
  let run_one k =
    let m = members.(k) in
    let name = m.Sampler.name in
    if tracked then
      Telemetry.emit telemetry "portfolio.member.start"
        [ ("member", Telemetry.Str name); ("index", Telemetry.Int k) ];
    let started = Mclock.now () in
    let deadline =
      match params.budget with Some b -> Some (started +. b) | None -> None
    in
    let stop () =
      Atomic.get stop_all
      || match deadline with Some d -> Mclock.now () > d | None -> false
    in
    let on_read bits =
      match verify with
      | Some ok -> if ok bits then try_win name bits
      | None -> ()
    in
    (* The whole member — its sampler run AND the verify scan below (the
       predicate is caller code and may raise too) — reports failure as
       data, never as an exception: one crashed member must not abort the
       race, the survivors keep running and the caller reads the typed
       [failed] field. *)
    let samples, hardware, failed =
      if Atomic.get stop_all then (Sampleset.empty, None, None)
      else
        match m.Sampler.sample ?init ~stop ~on_read ~telemetry q with
        | samples, hardware ->
          (* Heuristic members verify through [on_read]; [Exact] only
             yields a sample set at the end, so scan it here. Re-scanning
             a heuristic's set is a harmless no-op once a winner exists. *)
          (match verify with
          | Some ok ->
            (match
               List.iter
                 (fun e ->
                   if Atomic.get winner = None && ok e.Sampleset.bits then
                     try_win name e.Sampleset.bits)
                 (Sampleset.entries samples)
             with
            | () -> (samples, hardware, None)
            | exception e -> (samples, hardware, Some (Printexc.to_string e)))
          | None -> (samples, hardware, None))
        | exception e -> (Sampleset.empty, None, Some (Printexc.to_string e))
    in
    if failed <> None then Telemetry.count telemetry "portfolio.member_failed" 1;
    let finished = Mclock.now () in
    let cancelled =
      (Atomic.get stop_all || match deadline with Some d -> finished > d | None -> false)
      && failed = None
    in
    if tracked then
      Telemetry.emit telemetry "portfolio.member.done"
        [
          ("member", Telemetry.Str name);
          ("index", Telemetry.Int k);
          ("elapsed_s", Telemetry.Float (finished -. started));
          ("reads", Telemetry.Int (Sampleset.total_reads samples));
          ("cancelled", Telemetry.Bool cancelled);
          ("failed", Telemetry.Bool (failed <> None));
        ];
    { member_name = name; samples; elapsed = finished -. started; cancelled; failed; hardware }
  in
  (* Cap concurrency at [jobs] by folding members into that many
     sequential chains; the pool schedules the chains over idle workers
     plus this domain. One chain runs on this domain alone, through a
     pool of no workers: looking up the shared pool would spawn its
     worker domains, and [run_list] still closes with [pool.stats]. Each
     chain fills its own array of reports; [run_list] re-raises before an
     unfilled one could be read. *)
  let chains = Array.of_list (Parallel.partition n jobs) in
  let out = Array.make (Array.length chains) [||] in
  let pool = if Array.length chains > 1 then Parallel.Pool.global () else Parallel.Pool.create 0 in
  Parallel.Pool.run_list ~telemetry pool
    (List.init (Array.length chains) (fun c () ->
         let lo, size = chains.(c) in
         out.(c) <- Array.init size (fun i -> run_one (lo + i))));
  let reports = List.concat_map Array.to_list (Array.to_list out) in
  let merged =
    List.fold_left (fun acc r -> Sampleset.merge acc r.samples) Sampleset.empty reports
  in
  {
    merged;
    winner = Atomic.get winner;
    reports;
    wall_time = Mclock.now () -. t0;
  }

let rec sampler ?(params = default) () =
  {
    Sampler.name = "portfolio";
    (* The race verifies through its own hooks, so the caller's stop and
       on_read have nothing to add. *)
    sample =
      (fun ?init ?stop:_ ?on_read:_ ?verify ~telemetry q ->
        let r = run ~params ?init ?verify ~telemetry q in
        (r.merged, List.find_map (fun rep -> rep.hardware) r.reports));
    reseed =
      (fun seed ->
        let members = List.map (fun m -> Sampler.with_seed m seed) params.members in
        sampler ~params:{ params with members } ());
  }
