module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng
module Telemetry = Qsmt_util.Telemetry
module Ising = Qsmt_qubo.Ising
module Multispin = Qsmt_qubo.Multispin

type params = {
  reads : int;
  sweeps : int;
  trotter : int;
  beta : float option;
  gamma_hot : float option;
  gamma_cold : float;
  seed : int;
  domains : int;
}

let default =
  {
    reads = 16;
    sweeps = 500;
    trotter = 8;
    beta = None;
    gamma_hot = None;
    gamma_cold = 1e-2;
    seed = 0;
    domains = 1;
  }

(* Inter-slice coupling strength at transverse field gamma. beta_slice is
   beta/P. The coupling enters the energy as -j_perp * s_{i,k} s_{i,k+1},
   so positive j_perp favors aligned world lines. *)
let j_perp ~beta_slice gamma =
  let t = Float.tanh (beta_slice *. gamma) in
  (* tanh is within (0,1) for positive arguments, so log is negative and
     j_perp positive; clamp guards against underflow at tiny gamma. *)
  let t = Float.max t 1e-300 in
  -0.5 /. beta_slice *. Float.log t

(* One read: the P Trotter slices become the P lanes of a {!Multispin}
   state, so one CSR pass per site serves every slice. The inter-slice
   ring couples lane l to lanes l±1 (mod P), so flipping all lanes of a
   site at once is not a valid Metropolis move — adjacent slices'
   deltas depend on each other's current spins. We 2-color the
   ring and run the local moves in colored passes (even lanes, then odd);
   an odd P leaves the wrap lane P-1 adjacent to lane 0 of the same
   color, so it gets a third pass of its own. Within a pass no two
   updated lanes are coupled, so the word-wide decision is exact.

   The transverse-field delta needs each lane's agreement with its ring
   neighbors: rotating the packed word by one lane position (with
   wraparound inside the low P bits) aligns every lane's neighbor under
   its own bit, and XOR marks the disagreeing lanes — two rotations and
   two XORs replace 2P bit reads. *)
let run_read ~ising ~params ~beta ~gamma_hot ?init ?stop ?on_sweep rng =
  let stopped () = match stop with Some f -> f () | None -> false in
  let n = Ising.num_spins ising in
  let p = params.trotter in
  let pf = float_of_int p in
  let beta_slice = beta /. pf in
  let start () =
    match init with Some b -> Bitvec.copy b | None -> Bitvec.random rng n
  in
  let ms = Multispin.create ising (Array.init p (fun _ -> start ())) in
  let dr = Multispin.draws rng in
  let all = Multispin.lane_mask ms in
  let even = ref 0L and odd = ref 0L in
  for l = 0 to p - 1 do
    let bit = Int64.shift_left 1L l in
    if l land 1 = 0 then even := Int64.logor !even bit else odd := Int64.logor !odd bit
  done;
  let passes =
    if p land 1 = 0 then [ !even; !odd ]
    else begin
      let wrap = Int64.shift_left 1L (p - 1) in
      [ Int64.logand !even (Int64.lognot wrap); !odd; wrap ]
    end
  in
  let betas = Array.make p beta in
  let deltas = Array.make p 0. in
  let ratio =
    if params.sweeps <= 1 then 1.
    else (params.gamma_cold /. gamma_hot) ** (1. /. float_of_int (params.sweeps - 1))
  in
  let gamma = ref gamma_hot in
  let sweep = ref 0 in
  while !sweep < params.sweeps && not (stopped ()) do
    let jp = j_perp ~beta_slice !gamma in
    let jp2 = 2. *. jp in
    (* Local moves: per site, each colored pass re-reads the word (earlier
       passes' flips must be visible) and decides its lanes at once. *)
    for i = 0 to n - 1 do
      List.iter
        (fun only ->
          let w = Multispin.word ms i in
          let up =
            Int64.logand
              (Int64.logor (Int64.shift_right_logical w 1) (Int64.shift_left w (p - 1)))
              all
          and down =
            Int64.logand
              (Int64.logor (Int64.shift_left w 1) (Int64.shift_right_logical w (p - 1)))
              all
          in
          let dis_up = Int64.logxor w up and dis_down = Int64.logxor w down in
          Multispin.deltas ms i deltas;
          for l = 0 to p - 1 do
            let au =
              if Int64.logand (Int64.shift_right_logical dis_up l) 1L = 0L then 1. else -1.
            and ad =
              if Int64.logand (Int64.shift_right_logical dis_down l) 1L = 0L then 1. else -1.
            in
            deltas.(l) <- (deltas.(l) /. pf) +. (jp2 *. (au +. ad))
          done;
          let acc = Multispin.accept_mask ms ~draws:dr ~only ~betas deltas in
          if acc <> 0L then Multispin.flip ms i acc)
        passes
    done;
    (* World-line moves: inter-slice terms cancel, the cost is the mean
       classical delta, and the accepted flip is one word-wide XOR. *)
    for i = 0 to n - 1 do
      Multispin.deltas ms i deltas;
      let d = ref 0. in
      for l = 0 to p - 1 do
        d := !d +. (deltas.(l) /. pf)
      done;
      if !d <= 0. || Prng.float rng < Float.exp (-.beta *. !d) then Multispin.flip ms i all
    done;
    (match on_sweep with
    | None -> ()
    | Some f ->
      let lo = ref infinity and hi = ref neg_infinity in
      for l = 0 to p - 1 do
        let e = Multispin.energy ms l in
        if e < !lo then lo := e;
        if e > !hi then hi := e
      done;
      f ~sweep:!sweep ~gamma:!gamma ~best:!lo ~spread:(!hi -. !lo));
    gamma := !gamma *. ratio;
    incr sweep
  done;
  let bl = Multispin.best_lane ms in
  (Multispin.lane_spins ms bl, Multispin.energy ms bl)

let sample ?(params = default) ?init ?stop ?on_read ?(telemetry = Telemetry.null) q =
  if params.reads < 1 then invalid_arg "Sqa.sample: reads < 1";
  if params.sweeps < 1 then invalid_arg "Sqa.sample: sweeps < 1";
  if params.trotter < 2 then invalid_arg "Sqa.sample: trotter < 2";
  if params.trotter > Multispin.max_lanes then
    invalid_arg (Printf.sprintf "Sqa.sample: trotter > %d" Multispin.max_lanes);
  if params.gamma_cold <= 0. then invalid_arg "Sqa.sample: gamma_cold <= 0";
  Reads.run ~who:"Sqa.sample" ~name:"sqa" ~jobs:params.reads ~domains:params.domains ?init ?stop
    ?on_read ~telemetry q (fun ising ->
      let beta =
        match params.beta with
        | Some b ->
          if b <= 0. then invalid_arg "Sqa.sample: beta <= 0";
          b
        | None -> snd (Schedule.default_beta_range ising)
      in
      let gamma_hot =
        match params.gamma_hot with
        | Some g ->
          if g < params.gamma_cold then invalid_arg "Sqa.sample: gamma_hot < gamma_cold";
          g
        | None -> Float.max 1. (3. *. Ising.max_abs_field ising)
      in
      let tracked = Telemetry.enabled telemetry in
      let stride = Reads.sweep_stride params.sweeps in
      let read r init =
        let rng = Prng.stream ~seed:params.seed r in
        let on_sweep =
          if not tracked then None
          else
            Some
              (fun ~sweep ~gamma ~best ~spread ->
                if sweep mod stride = 0 || sweep = params.sweeps - 1 then
                  Telemetry.emit telemetry "sqa.sweep"
                    [
                      ("read", Telemetry.Int r);
                      ("sweep", Telemetry.Int sweep);
                      ("gamma", Telemetry.Float gamma);
                      ("energy", Telemetry.Float best);
                      ("replica_spread", Telemetry.Float spread);
                    ])
        in
        run_read ~ising ~params ~beta ~gamma_hot ?init ?stop ?on_sweep rng
      in
      (* one SQA sweep proposes a flip per spin per Trotter slice *)
      { Reads.sweeps = params.sweeps; proposals = Ising.num_spins ising * params.trotter; read })
