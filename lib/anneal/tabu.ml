module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng
module Telemetry = Qsmt_util.Telemetry
module Ising = Qsmt_qubo.Ising
module Fields = Qsmt_qubo.Fields

type params = {
  restarts : int;
  iterations : int;
  tenure : int option;
  seed : int;
  domains : int;
}

let default = { restarts = 8; iterations = 500; tenure = None; seed = 0; domains = 1 }

let search ising ~rng ~iterations ~tenure ?init ?stop ?on_iter () =
  let n = Ising.num_spins ising in
  (* Incremental state: the best-admissible-move scan below reads n cached
     deltas in O(n) instead of rescanning n adjacency rows. *)
  let start = match init with Some b -> Bitvec.copy b | None -> Bitvec.random rng n in
  let fields = Fields.create ising start in
  let best = ref (Bitvec.copy (Fields.spins fields)) in
  let best_energy = ref (Fields.energy fields) in
  let stopped () = match stop with Some f -> f () | None -> false in
  (* Only spins in a term move. An idle spin's flip has delta 0 in every
     state, so while one is not tabu it would win every scan that has no
     negative move, and the search would walk idle bits instead of
     taking a zero or uphill move out of a local minimum. With every
     spin idle there is no move to make. *)
  let active = Ising.active ising in
  let m = Array.length active in
  (* tabu_until.(i): first iteration at which flipping i is allowed again *)
  let tabu_until = Array.make n 0 in
  (* Poll [stop] every 64 iterations: each iteration is already O(n), the
     check just has to stay off the inner loop. *)
  let cursor = ref 0 in
  while m > 0 && !cursor < iterations && ((!cursor land 63) <> 0 || not (stopped ())) do
    let it = !cursor in
    (* Best admissible move: most negative delta among non-tabu flips,
       or any tabu flip that would beat the incumbent (aspiration). *)
    let chosen = ref (-1) and chosen_delta = ref infinity in
    let chosen_tabu = ref false in
    (* constant during the scan; read once, since each read boxes *)
    let energy = Fields.energy fields in
    for k = 0 to m - 1 do
      let i = active.(k) in
      let delta = Fields.delta fields i in
      let is_tabu = tabu_until.(i) > it in
      let admissible = (not is_tabu) || energy +. delta < !best_energy -. 1e-12 in
      if admissible && delta < !chosen_delta then begin
        chosen := i;
        chosen_delta := delta;
        chosen_tabu := is_tabu
      end
    done;
    (* All moves tabu and none aspirates: fall back to a random kick so
       the search cannot stall. *)
    let kicked = !chosen < 0 in
    let i = if kicked then active.(Prng.int rng m) else !chosen in
    Fields.flip fields i;
    tabu_until.(i) <- it + 1 + tenure;
    if Fields.energy fields < !best_energy then begin
      best_energy := Fields.energy fields;
      best := Bitvec.copy (Fields.spins fields)
    end;
    (match on_iter with
    | None -> ()
    | Some f ->
      f ~iter:it ~energy:(Fields.energy fields) ~best:!best_energy ~aspirated:!chosen_tabu
        ~kicked);
    incr cursor
  done;
  (!best, !best_energy)

let sample ?(params = default) ?init ?stop ?on_read ?(telemetry = Telemetry.null) q =
  if params.restarts < 1 then invalid_arg "Tabu.sample: restarts < 1";
  if params.iterations < 1 then invalid_arg "Tabu.sample: iterations < 1";
  Reads.run ~who:"Tabu.sample" ~name:"tabu" ~jobs:params.restarts ~domains:params.domains ?init
    ?stop ?on_read ~telemetry q (fun ising ->
      let n = Ising.num_spins ising in
      let tenure =
        match params.tenure with
        | Some t ->
          if t < 0 then invalid_arg "Tabu.sample: negative tenure";
          t
        | None -> min ((n / 4) + 1) 20
      in
      let tracked = Telemetry.enabled telemetry in
      let stride = Reads.sweep_stride params.iterations in
      let read r init =
        let rng = Prng.stream ~seed:params.seed r in
        let on_iter =
          if not tracked then None
          else
            Some
              (fun ~iter ~energy ~best ~aspirated ~kicked ->
                if aspirated then Telemetry.count telemetry "tabu.aspirations" 1;
                if kicked then Telemetry.count telemetry "tabu.kicks" 1;
                if iter mod stride = 0 || iter = params.iterations - 1 then
                  Telemetry.emit telemetry "tabu.iter"
                    [
                      ("restart", Telemetry.Int r);
                      ("iter", Telemetry.Int iter);
                      ("energy", Telemetry.Float energy);
                      ("best", Telemetry.Float best);
                    ])
        in
        search ising ~rng ~iterations:params.iterations ~tenure ?init ?stop ?on_iter ()
      in
      (* a tabu iteration scans all n candidate moves and flips one, so
         an iteration is the analogue of one sweep of proposals *)
      { Reads.sweeps = params.iterations; proposals = n; read })
