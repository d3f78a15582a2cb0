module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng
module Telemetry = Qsmt_util.Telemetry
module Ising = Qsmt_qubo.Ising
module Fields = Qsmt_qubo.Fields

type params = {
  reads : int;
  sweeps : int;
  schedule : Schedule.t option;
  seed : int;
  domains : int;
  postprocess : bool;
}

let default = { reads = 32; sweeps = 1000; schedule = None; seed = 0; domains = 1; postprocess = false }

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

let sample ?(params = default) ?init ?stop ?on_read ?(telemetry = Telemetry.null) q =
  if params.reads < 1 then invalid_arg "Sa.sample: reads < 1";
  if params.sweeps < 1 then invalid_arg "Sa.sample: sweeps < 1";
  Reads.run ~who:"Sa.sample" ~name:"sa" ~jobs:params.reads ~domains:params.domains ?init ?stop
    ?on_read ~telemetry q (fun ising ->
      let n = Ising.num_spins ising in
      let schedule =
        match params.schedule with
        | Some s -> s
        | None -> Schedule.auto ~sweeps:params.sweeps ising
      in
      (* the trajectory is point events only: skipped when no sink keeps them *)
      let tracked = Telemetry.keeps_events telemetry in
      let sweeps = Schedule.sweeps schedule in
      let stride = Reads.sweep_stride sweeps in
      let read r init =
        let rng = Prng.stream ~seed:params.seed r in
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
        (Fields.spins fields, Fields.energy fields)
      in
      { Reads.sweeps; proposals = n; read })
