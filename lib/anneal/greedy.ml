module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng
module Telemetry = Qsmt_util.Telemetry
module Ising = Qsmt_qubo.Ising
module Fields = Qsmt_qubo.Fields

type params = { restarts : int; seed : int; domains : int }

let default = { restarts = 32; seed = 0; domains = 1 }

(* Steepest descent over cached deltas: each round scans n O(1) deltas and
   pays one O(degree) update for the accepted flip. A move must gain more
   than 1e-12, so rounding noise cannot cycle; energy strictly decreases,
   so the descent terminates. *)
let descend_fields fields =
  let n = Fields.num_spins fields in
  let improved = ref true in
  while !improved do
    improved := false;
    let best_i = ref (-1) and best_delta = ref (-1e-12) in
    for i = 0 to n - 1 do
      let d = Fields.delta fields i in
      if d < !best_delta then begin
        best_delta := d;
        best_i := i
      end
    done;
    if !best_i >= 0 then begin
      Fields.flip fields !best_i;
      improved := true
    end
  done

let descend q x =
  let fields = Fields.create (Ising.of_qubo q) (Bitvec.copy x) in
  descend_fields fields;
  Fields.spins fields

let sample ?(params = default) ?init ?stop ?on_read ?(telemetry = Telemetry.null) q =
  if params.restarts < 1 then invalid_arg "Greedy.sample: restarts < 1";
  Reads.run ~who:"Greedy.sample" ~name:"greedy" ~jobs:params.restarts ~domains:params.domains
    ?init ?stop ?on_read ~telemetry q (fun ising ->
      let n = Ising.num_spins ising in
      let read r init =
        let rng = Prng.stream ~seed:params.seed r in
        let start = match init with Some b -> Bitvec.copy b | None -> Bitvec.random rng n in
        let fields = Fields.create ising start in
        descend_fields fields;
        [| (Fields.spins fields, Fields.energy fields) |]
      in
      { Reads.sweeps = 0; proposals = n; read })
