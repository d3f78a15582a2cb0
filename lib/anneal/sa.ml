module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng
module Telemetry = Qsmt_util.Telemetry
module Ising = Qsmt_qubo.Ising
module Fields = Qsmt_qubo.Fields
module Multispin = Qsmt_qubo.Multispin

type params = {
  reads : int;
  sweeps : int;
  schedule : Schedule.t option;
  seed : int;
  domains : int;
  postprocess : bool;
}

let default = { reads = 32; sweeps = 1000; schedule = None; seed = 0; domains = 1; postprocess = false }

let read_rng ~seed r = Prng.stream ~seed r

(* The schedule over an already-built incremental state: one
   [Fields.metropolis_sweep] per sweep, [stop] polled before each. The
   per-spin loop lives in [Fields], next to the field array, and reads
   each sweep's beta from the schedule's own array, so a sweep allocates
   nothing. [on_sweep] gets only ints: an observer that wants the energy
   reads it from [fields] on the sweeps it records, so one that records
   a few sweeps boxes no float on the others. *)
let anneal_fields ~rng ~schedule ?on_sweep ?stop fields =
  let stopped () = match stop with Some f -> f () | None -> false in
  let betas = schedule.Schedule.betas in
  let k = ref 0 in
  while !k < Array.length betas && not (stopped ()) do
    let accepted = Fields.metropolis_sweep fields ~rng ~betas ~sweep:!k in
    (match on_sweep with Some f -> f ~sweep:!k ~accepted | None -> ());
    incr k
  done

let anneal_ising ~rng ~schedule ?init ?on_sweep ?stop ising =
  let n = Ising.num_spins ising in
  let spins = match init with Some s -> Bitvec.copy s | None -> Bitvec.random rng n in
  let fields = Fields.create ising spins in
  let on_sweep =
    Option.map (fun f ~sweep ~accepted -> f ~sweep ~energy:(Fields.energy fields) ~accepted) on_sweep
  in
  anneal_fields ~rng ~schedule ?on_sweep ?stop fields;
  (spins, Fields.energy fields)

let check_params who params =
  if params.reads < 1 then invalid_arg (who ^ ": reads < 1");
  if params.sweeps < 1 then invalid_arg (who ^ ": sweeps < 1")

let schedule_for params ising =
  match params.schedule with
  | Some s -> s
  | None -> Schedule.auto ~sweeps:params.sweeps ising

let sample ?(params = default) ?init ?stop ?on_read ?(telemetry = Telemetry.null) q =
  check_params "Sa.sample" params;
  Reads.run ~who:"Sa.sample" ~name:"sa" ~jobs:params.reads ~domains:params.domains ?init ?stop
    ?on_read ~telemetry q (fun ising ->
      let n = Ising.num_spins ising in
      let schedule = schedule_for params ising in
      (* the trajectory is point events only: skipped when no sink keeps them *)
      let tracked = Telemetry.keeps_events telemetry in
      let sweeps = Schedule.sweeps schedule in
      let stride = Reads.sweep_stride sweeps in
      let read r init =
        let rng = read_rng ~seed:params.seed r in
        let start = match init with Some b -> Bitvec.copy b | None -> Bitvec.random rng n in
        let fields = Fields.create ising start in
        let on_sweep =
          if not tracked then None
          else
            Some
              (fun ~sweep ~accepted ->
                if sweep mod stride = 0 || sweep = sweeps - 1 then
                  Telemetry.emit telemetry "sa.sweep"
                    [
                      ("read", Telemetry.Int r);
                      ("sweep", Telemetry.Int sweep);
                      ("beta", Telemetry.Float (Schedule.beta schedule sweep));
                      ("energy", Telemetry.Float (Fields.energy fields));
                      ("acceptance", Telemetry.Float (float_of_int accepted /. float_of_int n));
                    ])
        in
        anneal_fields ~rng ~schedule ?on_sweep ?stop fields;
        if params.postprocess then Greedy.descend_fields fields;
        [| (Fields.spins fields, Fields.energy fields) |]
      in
      { Reads.sweeps; proposals = n; read })

type packed_mode = Bucketed | Lockstep

let popcount64 w =
  let c = ref 0 in
  let m = ref w in
  while !m <> 0L do
    incr c;
    m := Int64.logand !m (Int64.sub !m 1L)
  done;
  !c

(* Multi-read SA over the packed kernel: reads are grouped 64 to a
   Multispin state, so one sweep's CSR traffic serves a whole group of
   reads. Starts come from the same per-read streams the scalar path
   uses, so the two paths explore from identical configurations; in
   [Lockstep] mode acceptance also consumes those streams with the
   scalar discipline and the decoded samples are bit-identical to
   {!sample}'s (postprocess off). [Bucketed] is the fast path: exact
   Metropolis marginals from a per-group bulk stream. *)
let run_packed ?(params = default) ?(mode = Bucketed) ?init ?stop ?on_read
    ?(telemetry = Telemetry.null) q =
  check_params "Sa.run_packed" params;
  let stopped () = match stop with Some f -> f () | None -> false in
  let groups = (params.reads + Multispin.max_lanes - 1) / Multispin.max_lanes in
  Reads.run ~who:"Sa.run_packed" ~name:"sa" ~jobs:groups ~domains:params.domains ?init ?stop
    ?on_read ~telemetry q (fun ising ->
      let n = Ising.num_spins ising in
      let schedule = schedule_for params ising in
      (* the trajectory is point events only: skipped when no sink keeps them *)
      let tracked = Telemetry.keeps_events telemetry in
      let sweeps = Schedule.sweeps schedule in
      let stride = Reads.sweep_stride sweeps in
      let read g init =
        let r0 = g * Multispin.max_lanes in
        let lanes = min Multispin.max_lanes (params.reads - r0) in
        (* Same per-read streams and warm-start rule as the scalar path:
           lane l of group g is read r0 + l. *)
        let rngs = Array.init lanes (fun l -> read_rng ~seed:params.seed (r0 + l)) in
        let starts =
          Array.init lanes (fun l ->
              match init with
              | Some b when l = 0 -> Bitvec.copy b
              | _ -> Bitvec.random rngs.(l) n)
        in
        let ms = Multispin.create ising starts in
        (* The bucketed accept path draws from one stream per group,
           disjoint from every per-read stream. *)
        let bulk_rng = read_rng ~seed:params.seed (params.reads + g) in
        let dr = Multispin.draws bulk_rng in
        let betas = Array.make lanes 0. in
        let deltas = Array.make lanes 0. in
        let schedule_betas = schedule.Schedule.betas in
        let k = ref 0 in
        while !k < sweeps && not (stopped ()) do
          let accepted = ref 0 in
          (match mode with
          | Bucketed ->
            accepted := Multispin.metropolis_sweep ms ~draws:dr ~betas:schedule_betas ~sweep:!k
          | Lockstep ->
            Array.fill betas 0 lanes schedule_betas.(!k);
            for i = 0 to n - 1 do
              Multispin.deltas ms i deltas;
              let mask = Multispin.accept_mask_lockstep ms ~rngs ~betas deltas in
              if mask <> 0L then begin
                Multispin.flip ms i mask;
                if tracked then accepted := !accepted + popcount64 mask
              end
            done);
          if tracked && (!k mod stride = 0 || !k = sweeps - 1) then
            Telemetry.emit telemetry "sa.packed_sweep"
              [
                ("group", Telemetry.Int g);
                ("lanes", Telemetry.Int lanes);
                ("sweep", Telemetry.Int !k);
                ("beta", Telemetry.Float schedule_betas.(!k));
                ("best_energy", Telemetry.Float (Multispin.energy ms (Multispin.best_lane ms)));
                ( "acceptance",
                  Telemetry.Float (float_of_int !accepted /. float_of_int (n * lanes)) );
              ];
          incr k
        done;
        Array.init lanes (fun l ->
            let spins = Multispin.lane_spins ms l in
            if params.postprocess then begin
              let fields = Fields.create ising spins in
              Greedy.descend_fields fields;
              (spins, Fields.energy fields)
            end
            else (spins, Multispin.energy ms l))
      in
      (* sweeps count lane-sweeps, so packed and scalar throughput are
         comparable *)
      { Reads.sweeps; proposals = n; read })
