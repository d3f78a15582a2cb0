module Bitvec = Qsmt_util.Bitvec
module Parallel = Qsmt_util.Parallel
module Telemetry = Qsmt_util.Telemetry
module Mclock = Qsmt_util.Mclock
module Qubo = Qsmt_qubo.Qubo
module Ising = Qsmt_qubo.Ising

type plan = {
  sweeps : int;
  proposals : int;
  read : int -> Bitvec.t option -> (Bitvec.t * float) array;
}

let sweep_stride sweeps = max 1 (sweeps / 32)

let run ~who ~name ~jobs ~domains ?init ?stop ?on_read ~telemetry q prepare =
  let n = Qubo.num_vars q in
  (match init with
  | Some b when Bitvec.length b <> n ->
    invalid_arg
      (Printf.sprintf "%s: init has %d bits, problem has %d vars" who (Bitvec.length b) n)
  | _ -> ());
  if n = 0 then Sampleset.of_bits q [ Bitvec.create 0 ]
  else begin
    let plan = prepare (Ising.of_qubo q) in
    let stopped () = match stop with Some f -> f () | None -> false in
    let tracked = Telemetry.enabled telemetry in
    let reads_name = name ^ ".reads"
    and sweeps_name = name ^ ".sweeps"
    and energy_name = name ^ ".read_energy" in
    let deliver (bits, energy) =
      if tracked then begin
        Telemetry.count telemetry reads_name 1;
        if plan.sweeps > 0 then Telemetry.count telemetry sweeps_name plan.sweeps;
        Telemetry.observe telemetry energy_name energy
      end;
      match on_read with Some f -> f bits | None -> ()
    in
    let job j =
      if stopped () then [||]
      else begin
        let out = plan.read j (if j = 0 then init else None) in
        Array.iter deliver out;
        out
      end
    in
    let t0 = if tracked then Mclock.now () else 0. in
    let outs = Parallel.init_array ~telemetry ~domains jobs job in
    (if tracked && plan.sweeps > 0 then
       let dt = Mclock.now () -. t0 in
       let sweeps_done =
         float_of_int (plan.sweeps * Array.fold_left (fun a o -> a + Array.length o) 0 outs)
       in
       if dt > 0. && sweeps_done > 0. then begin
         Telemetry.gauge telemetry (name ^ ".sweeps_per_s") (sweeps_done /. dt);
         Telemetry.gauge telemetry (name ^ ".flips_per_s")
           (sweeps_done *. float_of_int plan.proposals /. dt)
       end);
    Sampleset.of_tracked q (List.concat_map Array.to_list (Array.to_list outs))
  end
