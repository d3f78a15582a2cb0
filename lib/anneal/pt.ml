module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng
module Telemetry = Qsmt_util.Telemetry
module Ising = Qsmt_qubo.Ising
module Multispin = Qsmt_qubo.Multispin

type params = {
  reads : int;
  sweeps : int;
  replicas : int;
  beta_range : (float * float) option;
  exchange_interval : int;
  seed : int;
  domains : int;
}

let default =
  {
    reads = 8;
    sweeps = 500;
    replicas = 8;
    beta_range = None;
    exchange_interval = 10;
    seed = 0;
    domains = 1;
  }

(* One read: the temperature ladder becomes the lane dimension of one
   {!Multispin} state — replicas at different rungs never interact
   through spins, so a word-wide accept decision per site is exact
   Metropolis for all of them at once (unlike SQA's coupled slices, no
   colored passes are needed). A replica exchange swaps which rung a lane
   answers to, not the configurations: two permutation arrays
   ([lane_of_temp] and the per-lane beta vector fed to the accept mask)
   make a swap O(1) bookkeeping. *)
let run_read ~ising ~params ~betas ?init ?stop ?on_sweep rng =
  let stopped () = match stop with Some f -> f () | None -> false in
  let n = Ising.num_spins ising in
  let k = Array.length betas in
  let start _ =
    match init with Some b -> Bitvec.copy b | None -> Bitvec.random rng n
  in
  let ms = Multispin.create ising (Array.init k start) in
  let dr = Multispin.draws rng in
  (* lane_of_temp.(t) holds the lane currently at rung t (cold = high t);
     beta_by_lane is its inverse image under betas, the accept-mask
     vector. Both start as the identity assignment. *)
  let lane_of_temp = Array.init k Fun.id in
  let beta_by_lane = Array.copy betas in
  let deltas = Array.make k 0. in
  let best = ref (Multispin.lane_spins ms lane_of_temp.(k - 1)) in
  let best_e = ref (Multispin.energy ms lane_of_temp.(k - 1)) in
  let note_best () =
    let l = Multispin.best_lane ms in
    if Multispin.energy ms l < !best_e then begin
      best_e := Multispin.energy ms l;
      best := Multispin.lane_spins ms l
    end
  in
  let sweep = ref 0 in
  while !sweep < params.sweeps && not (stopped ()) do
    incr sweep;
    let sweep = !sweep in
    for i = 0 to n - 1 do
      Multispin.deltas ms i deltas;
      let acc = Multispin.accept_mask ms ~draws:dr ~betas:beta_by_lane deltas in
      if acc <> 0L then Multispin.flip ms i acc
    done;
    note_best ();
    let swaps = ref 0 in
    if sweep mod params.exchange_interval = 0 then begin
      (* alternate even/odd neighbor pairs to keep proposals independent *)
      let parity = sweep / params.exchange_interval mod 2 in
      let r = ref parity in
      while !r + 1 < k do
        let a = !r and b = !r + 1 in
        let la = lane_of_temp.(a) and lb = lane_of_temp.(b) in
        let log_ratio =
          (betas.(a) -. betas.(b)) *. (Multispin.energy ms la -. Multispin.energy ms lb)
        in
        if log_ratio >= 0. || Prng.float rng < Float.exp log_ratio then begin
          lane_of_temp.(a) <- lb;
          lane_of_temp.(b) <- la;
          beta_by_lane.(la) <- betas.(b);
          beta_by_lane.(lb) <- betas.(a);
          incr swaps
        end;
        r := !r + 2
      done
    end;
    (match on_sweep with None -> () | Some f -> f ~sweep ~best:!best_e ~swaps:!swaps)
  done;
  (!best, !best_e)

let sample ?(params = default) ?init ?stop ?on_read ?(telemetry = Telemetry.null) q =
  if params.reads < 1 then invalid_arg "Pt.sample: reads < 1";
  if params.sweeps < 1 then invalid_arg "Pt.sample: sweeps < 1";
  if params.replicas < 1 then invalid_arg "Pt.sample: replicas < 1";
  if params.replicas > Multispin.max_lanes then
    invalid_arg (Printf.sprintf "Pt.sample: replicas > %d" Multispin.max_lanes);
  if params.exchange_interval < 1 then invalid_arg "Pt.sample: exchange_interval < 1";
  Reads.run ~who:"Pt.sample" ~name:"pt" ~jobs:params.reads ~domains:params.domains ?init ?stop
    ?on_read ~telemetry q (fun ising ->
      let beta_hot, beta_cold =
        match params.beta_range with
        | Some (hot, cold) ->
          if hot <= 0. || cold < hot then invalid_arg "Pt.sample: bad beta_range";
          (hot, cold)
        | None -> Schedule.default_beta_range ising
      in
      (* The geometric replica ladder is exactly [Schedule.make]'s
         geometric grid (bit-identical for k >= 2); reusing it also
         inherits the single-replica guard — the hand-rolled [1 / (k - 1)]
         here used to divide by zero at k = 1. One replica degenerates to
         plain Metropolis at [beta_cold] with no exchanges, which is still
         a valid sampler. *)
      let betas =
        Schedule.betas (Schedule.make ~beta_hot ~beta_cold ~sweeps:params.replicas ())
      in
      let tracked = Telemetry.enabled telemetry in
      let stride = Reads.sweep_stride params.sweeps in
      let read r init =
        let rng = Prng.stream ~seed:params.seed r in
        let on_sweep =
          if not tracked then None
          else
            Some
              (fun ~sweep ~best ~swaps ->
                if sweep mod stride = 0 || sweep = params.sweeps then begin
                  Telemetry.emit telemetry "pt.sweep"
                    [
                      ("read", Telemetry.Int r);
                      ("sweep", Telemetry.Int sweep);
                      ("energy", Telemetry.Float best);
                      ("swaps", Telemetry.Int swaps);
                    ];
                  if swaps > 0 then Telemetry.count telemetry "pt.replica_swaps" swaps
                end)
        in
        [| run_read ~ising ~params ~betas ?init ?stop ?on_sweep rng |]
      in
      (* one PT sweep proposes a flip per spin per replica rung *)
      { Reads.sweeps = params.sweeps; proposals = Ising.num_spins ising * params.replicas; read })
