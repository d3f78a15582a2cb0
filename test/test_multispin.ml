(* The bit-parallel multi-replica kernel (Qsmt_qubo.Multispin) that SQA
   and PT sweep with, against its scalar oracle (Qsmt_qubo.Fields):

   - property tests drive random flip-mask sequences through a packed
     state next to one scalar Fields state per lane and require bitwise
     identical spins, fields, deltas (both [delta] and the buffer form
     [deltas]) and energies (the float-exactness contract from
     multispin.mli);
   - the bucketed accept path's marginals are checked against the
     closed-form min(1, exp(-beta*delta)) at a grid of deltas;
   - drift/refresh parity with the scalar kernel, and [create]'s
     validation. *)

module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng
module Qubo = Qsmt_qubo.Qubo
module Qgraph = Qsmt_qubo.Qgraph
module Ising = Qsmt_qubo.Ising
module Fields = Qsmt_qubo.Fields
module Multispin = Qsmt_qubo.Multispin
module Spinglass = Qsmt_anneal.Spinglass

(* ------------------------------------------------------------------ *)
(* instances *)

let random_ising ~seed ~n ~density =
  let rng = Prng.create seed in
  let g = Qgraph.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Prng.float rng < density then Qgraph.add_edge g i j
    done
  done;
  let q = Spinglass.random_on_graph ~rng ~coupling:Spinglass.Gaussian ~field:0.3 g in
  (q, Ising.of_qubo q)

let gen_case =
  QCheck.make ~print:(fun (seed, n, density, lanes) ->
      Printf.sprintf "seed=%d n=%d density=%.2f lanes=%d" seed n density lanes)
    QCheck.Gen.(
      let* seed = int_bound 1000 in
      let* n = int_range 2 40 in
      let* density = float_range 0.05 0.9 in
      let* lanes = int_range 1 Multispin.max_lanes in
      return (seed, n, density, lanes))

let qtest ~count name gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

(* ------------------------------------------------------------------ *)
(* packed kernel vs per-lane scalar Fields oracle *)

let oracle_parity (seed, n, density, lanes) =
  let _, ising = random_ising ~seed ~n ~density in
  let rng = Prng.create (seed + 1) in
  let starts = Array.init lanes (fun _ -> Bitvec.random rng n) in
  let ms = Multispin.create ising starts in
  let oracle = Array.map (fun s -> Fields.create ising (Bitvec.copy s)) starts in
  let buf = Array.make lanes nan in
  let check_all step =
    (* the buffer form, per site, for every lane at once: lanes at and
       above 32 read the word's high half *)
    for i = 0 to n - 1 do
      Multispin.deltas ms i buf;
      for l = 0 to lanes - 1 do
        if buf.(l) <> Fields.delta oracle.(l) i then
          QCheck.Test.fail_reportf "deltas diverged at step %d lane %d site %d: %h <> %h" step l
            i buf.(l) (Fields.delta oracle.(l) i)
      done
    done;
    for l = 0 to lanes - 1 do
      let f = oracle.(l) in
      if Multispin.energy ms l <> Fields.energy f then
        QCheck.Test.fail_reportf "energy diverged at step %d lane %d: %h <> %h" step l
          (Multispin.energy ms l) (Fields.energy f);
      if not (Bitvec.equal (Multispin.lane_spins ms l) (Fields.spins f)) then
        QCheck.Test.fail_reportf "spins diverged at step %d lane %d" step l;
      for i = 0 to n - 1 do
        if Multispin.field ms i l <> Fields.field f i then
          QCheck.Test.fail_reportf "field diverged at step %d lane %d site %d" step l i;
        if Multispin.delta ms i l <> Fields.delta f i then
          QCheck.Test.fail_reportf "delta diverged at step %d lane %d site %d" step l i
      done
    done
  in
  check_all (-1);
  for step = 0 to 99 do
    let i = Prng.int rng n in
    (* all 64 bits, so lanes at and above 32 flip too *)
    let mask = Prng.bits64 rng in
    Multispin.flip ms i mask;
    for l = 0 to lanes - 1 do
      if Int64.logand (Int64.shift_right_logical mask l) 1L = 1L then Fields.flip oracle.(l) i
    done;
    check_all step
  done;
  true

(* The packed word at a site must read back each lane's bit. *)
let word_readback (seed, n, density, lanes) =
  let _, ising = random_ising ~seed ~n ~density in
  let rng = Prng.create (seed + 2) in
  let starts = Array.init lanes (fun _ -> Bitvec.random rng n) in
  let ms = Multispin.create ising starts in
  for i = 0 to n - 1 do
    let w = Multispin.word ms i in
    if Int64.logand w (Int64.lognot (Multispin.lane_mask ms)) <> 0L then
      QCheck.Test.fail_reportf "tail bits set at site %d" i;
    for l = 0 to lanes - 1 do
      let bit = Int64.logand (Int64.shift_right_logical w l) 1L = 1L in
      if bit <> Bitvec.get starts.(l) i then
        QCheck.Test.fail_reportf "word bit mismatch at site %d lane %d" i l
    done
  done;
  true

let drift_refresh_parity (seed, n, density, lanes) =
  let _, ising = random_ising ~seed ~n ~density in
  let rng = Prng.create (seed + 3) in
  let starts = Array.init lanes (fun _ -> Bitvec.random rng n) in
  let ms = Multispin.create ising starts in
  for _ = 0 to 199 do
    Multispin.flip ms (Prng.int rng n) (Prng.bits64 rng)
  done;
  (* Tracked state follows the scalar op order exactly, so with dyadic
     or not, drift against a fresh recompute stays tiny; refresh must
     zero it. *)
  if Multispin.drift ms > 1e-6 then
    QCheck.Test.fail_reportf "drift %g after 200 masked flips" (Multispin.drift ms);
  Multispin.refresh ms;
  if Multispin.drift ms <> 0. then
    QCheck.Test.fail_reportf "drift %g after refresh" (Multispin.drift ms);
  true

let kernel_props =
  [
    qtest ~count:60 "packed tracks per-lane scalar Fields bitwise" gen_case oracle_parity;
    qtest ~count:60 "packed words read back lane spins" gen_case word_readback;
    qtest ~count:40 "drift stays tiny; refresh zeroes it" gen_case drift_refresh_parity;
  ]

(* ------------------------------------------------------------------ *)
(* bucketed accept marginals *)

let marginal_exactness () =
  let b = Qubo.builder () in
  Qubo.add b 0 0 1.0;
  let q = Qubo.freeze b in
  let ising = Ising.of_qubo q in
  let rng = Prng.create 42 in
  let dr = Multispin.draws rng in
  let trials = 30000 in
  List.iter
    (fun x ->
      let ms = Multispin.create ising (Array.init 64 (fun _ -> Bitvec.create 1)) in
      let betas = Array.make 64 1.0 in
      let deltas = Array.make 64 x in
      let count = ref 0 in
      for _ = 1 to trials do
        let m = Multispin.accept_mask ms ~draws:dr ~betas deltas in
        let c = ref 0 and w = ref m in
        while !w <> 0L do
          incr c;
          w := Int64.logand !w (Int64.sub !w 1L)
        done;
        count := !count + !c
      done;
      let freq = float_of_int !count /. float_of_int (trials * 64) in
      let expect = Float.exp (-.x) in
      (* 64*30000 lane-draws: a 5-sigma band on the binomial proportion. *)
      let sigma = Float.sqrt (expect *. (1. -. expect) /. float_of_int (trials * 64)) in
      if Float.abs (freq -. expect) > (5. *. sigma) +. 1e-9 then
        Alcotest.failf "accept marginal at x=%g: observed %.5f, expected %.5f (sigma %.5f)" x freq
          expect sigma)
    [ 0.05; 0.3; 0.6931; 1.5; 3.0; 8.0 ]

let downhill_always_accepts () =
  let b = Qubo.builder () in
  Qubo.add b 0 0 1.0;
  let q = Qubo.freeze b in
  let ising = Ising.of_qubo q in
  let rng = Prng.create 7 in
  let dr = Multispin.draws rng in
  let ms = Multispin.create ising (Array.init 5 (fun _ -> Bitvec.create 1)) in
  let betas = Array.make 5 2.0 in
  let deltas = [| -1.0; 0.; -0.5; 1e9; -0.1 |] in
  for _ = 1 to 100 do
    let m = Multispin.accept_mask ms ~draws:dr ~betas deltas in
    Alcotest.(check int64) "downhill lanes accept, the huge-uphill lane never does" 0b10111L
      (Int64.logor m 0b00111L)
  done

let only_restricts () =
  let b = Qubo.builder () in
  Qubo.add b 0 0 1.0;
  let q = Qubo.freeze b in
  let ising = Ising.of_qubo q in
  let rng = Prng.create 8 in
  let dr = Multispin.draws rng in
  let ms = Multispin.create ising (Array.init 8 (fun _ -> Bitvec.create 1)) in
  let betas = Array.make 8 1.0 in
  let deltas = Array.make 8 (-1.) in
  for _ = 1 to 50 do
    let m = Multispin.accept_mask ms ~draws:dr ~only:0b1010L ~betas deltas in
    Alcotest.(check int64) "only-masked lanes decide" 0b1010L m
  done

let accept_units =
  [
    Alcotest.test_case "bucketed marginals are exact Metropolis" `Slow marginal_exactness;
    Alcotest.test_case "downhill always accepts" `Quick downhill_always_accepts;
    Alcotest.test_case "only restricts the decision" `Quick only_restricts;
  ]

(* ------------------------------------------------------------------ *)
(* validation *)

let invalid_arg_of f = try ignore (f ()); None with Invalid_argument m -> Some m

let validation_units =
  let mk_ising () = snd (random_ising ~seed:20 ~n:8 ~density:0.5) in
  let starts lanes n =
    let rng = Prng.create 21 in
    Array.init lanes (fun _ -> Bitvec.random rng n)
  in
  [
    Alcotest.test_case "create: 0 lanes rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (invalid_arg_of (fun () -> Multispin.create (mk_ising ()) [||]) <> None));
    Alcotest.test_case "create: 65 lanes rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (invalid_arg_of (fun () -> Multispin.create (mk_ising ()) (starts 65 8)) <> None));
    Alcotest.test_case "create: lane length mismatch rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (invalid_arg_of (fun () -> Multispin.create (mk_ising ()) (starts 3 7)) <> None));
  ]

let () =
  Alcotest.run "qsmt_multispin"
    [
      ("kernel-vs-scalar-oracle", kernel_props);
      ("bucketed-accept", accept_units);
      ("validation", validation_units);
    ]
