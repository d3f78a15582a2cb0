module Bitvec = Qsmt_util.Bitvec
module Telemetry = Qsmt_util.Telemetry
module Qubo = Qsmt_qubo.Qubo

type t = {
  name : string;
  sample :
    ?init:Bitvec.t ->
    ?stop:(unit -> bool) ->
    ?on_read:(Bitvec.t -> unit) ->
    ?verify:(Bitvec.t -> bool) ->
    telemetry:Telemetry.t ->
    Qubo.t ->
    Sampleset.t * Hardware.stats option;
  reseed : int -> t;
}

let name t = t.name
let with_seed t seed = t.reseed seed

let run_detailed ?verify ?init ?(early_exit = false) ?(telemetry = Telemetry.null) t q =
  (* Early exit is opt-in (and needs a verifier): the stop/on_read hooks
     truncate the read loops on the first verified read, which changes
     the sample set — cold solves keep the exhaustive deterministic
     behavior, incremental warm re-solves turn this on. *)
  let stop, on_read =
    match verify with
    | Some ok when early_exit ->
      let found = Atomic.make false in
      let stop () = Atomic.get found in
      let on_read bits = if (not (Atomic.get found)) && ok bits then Atomic.set found true in
      (Some stop, Some on_read)
    | _ -> (None, None)
  in
  t.sample ?init ?stop ?on_read ?verify ~telemetry q

let run ?verify ?init ?early_exit ?telemetry t q =
  fst (run_detailed ?verify ?init ?early_exit ?telemetry t q)

type reads =
  ?init:Bitvec.t ->
  ?stop:(unit -> bool) ->
  ?on_read:(Bitvec.t -> unit) ->
  ?telemetry:Telemetry.t ->
  Qubo.t ->
  Sampleset.t

(* A sampler over {!Reads}: it takes every hook and reports no hardware
   stats. *)
let of_reads name (sample : reads) reseed =
  {
    name;
    sample =
      (fun ?init ?stop ?on_read ?verify:_ ~telemetry q ->
        (sample ?init ?stop ?on_read ~telemetry q, None));
    reseed;
  }

let rec simulated_annealing ?(params = Sa.default) () =
  of_reads "sa" (Sa.sample ~params) (fun seed ->
      simulated_annealing ~params:{ params with Sa.seed } ())

let rec simulated_annealing_packed ?(params = Sa.default) () =
  of_reads "sa_packed" (Sa.run_packed ~params ~mode:Sa.Bucketed) (fun seed ->
      simulated_annealing_packed ~params:{ params with Sa.seed } ())

let rec simulated_quantum_annealing ?(params = Sqa.default) () =
  of_reads "sqa" (Sqa.sample ~params) (fun seed ->
      simulated_quantum_annealing ~params:{ params with Sqa.seed } ())

let rec tabu ?(params = Tabu.default) () =
  of_reads "tabu" (Tabu.sample ~params) (fun seed -> tabu ~params:{ params with Tabu.seed } ())

let rec parallel_tempering ?(params = Pt.default) () =
  of_reads "pt" (Pt.sample ~params) (fun seed ->
      parallel_tempering ~params:{ params with Pt.seed } ())

let rec greedy ?(params = Greedy.default) () =
  of_reads "greedy" (Greedy.sample ~params) (fun seed ->
      greedy ~params:{ params with Greedy.seed } ())

(* Seedless samplers reseed to themselves. *)
let seedless name sample =
  let rec t = { name; sample; reseed = (fun _ -> t) } in
  t

let make ~name f =
  seedless name (fun ?init:_ ?stop:_ ?on_read:_ ?verify:_ ~telemetry:_ q -> (f q, None))

let exact ?keep () =
  seedless "exact" (fun ?init:_ ?stop ?on_read:_ ?verify:_ ~telemetry:_ q ->
      (Exact.solve ?keep ?stop q, None))

(* The hardware path samples over physical qubits behind a minor
   embedding; a logical warm start has no direct physical image, so
   [init] is ignored rather than guessed. Its [on_read] already sees
   logical bits, so early exit applies unchanged. *)
let rec hardware_auto f =
  {
    name = "hardware";
    sample =
      (fun ?init:_ ?stop ?on_read ?verify:_ ~telemetry q ->
        let r = Hardware.sample ~params:(f q) ?stop ?on_read ~telemetry q in
        (r.Hardware.samples, Some r.Hardware.stats));
    reseed =
      (fun seed ->
        hardware_auto (fun q ->
            let p = f q in
            { p with Hardware.anneal = { p.Hardware.anneal with Sa.seed } }));
  }

let hardware ~params = hardware_auto (fun _ -> params)

let default_suite ~seed =
  [
    simulated_annealing ~params:{ Sa.default with Sa.seed } ();
    simulated_quantum_annealing ~params:{ Sqa.default with Sqa.seed } ();
    parallel_tempering ~params:{ Pt.default with Pt.seed } ();
    tabu ~params:{ Tabu.default with Tabu.seed } ();
    greedy ~params:{ Greedy.default with Greedy.seed } ();
  ]
