(* Flip-throughput microbenchmark: the incremental local-field kernel
   (Qsmt_qubo.Fields) against the seed implementation's from-scratch
   CSR-row rescans, on the two landscape shapes that matter:

     - sparse Chimera-like spin glass (hardware-native, degree <= 6)
     - dense random QUBOs (>= 50% coupler density, the regime where an
       O(degree) rescan per proposal hurts most)

   Section A times the raw Metropolis proposal kernel (spin-flips/sec,
   naive vs Fields, same seed, same schedule). Section B times one read
   of every sampler: an inline replica of the seed inner loop vs the
   rewired library code. Section C times the bit-parallel multi-replica
   kernel (Qsmt_qubo.Multispin, 64 packed replicas) against 64 scalar
   Fields states, both at a fixed equilibrium beta (replica-sweeps/sec,
   the kernel-level number like Section A) and through the full
   annealing-schedule samplers (Sa.run_packed vs Sa.sample).

   Everything is fixed-seed; Sections A/B land in BENCH_2.json and
   Section C in BENCH_8.json so later PRs have a perf trajectory to
   regress against. When bench/baselines/BENCH_2.json (a committed full
   run) is present, the kernel speedups are gated against the recorded
   trajectory — machine-robust ratios, not absolute throughput — and
   Section C always gates packed >= scalar on the dense instances.

     dune exec bench/flip_throughput.exe          full run
     QSMT_BENCH_FAST=1 dune exec ...              reduced (CI smoke) run *)

module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng
module Json = Qsmt_trace.Json
module Qubo = Qsmt_qubo.Qubo
module Ising = Qsmt_qubo.Ising
module Fields = Qsmt_qubo.Fields
module Multispin = Qsmt_qubo.Multispin
module Schedule = Qsmt_anneal.Schedule
module Topology = Qsmt_anneal.Topology
module Spinglass = Qsmt_anneal.Spinglass
module Sa = Qsmt_anneal.Sa
module Pt = Qsmt_anneal.Pt
module Sqa = Qsmt_anneal.Sqa
module Tabu = Qsmt_anneal.Tabu
module Greedy = Qsmt_anneal.Greedy

let fast = Sys.getenv_opt "QSMT_BENCH_FAST" <> None
let kernel_sweeps = if fast then 60 else 250
let reps = 3
let seed = 9
(* Monotonic (never steps backwards with wall-clock adjustments). *)
let now = Qsmt_util.Mclock.now

(* ------------------------------------------------------------------ *)
(* Instances *)

let dense_qubo ~seed ~n ~density =
  let rng = Prng.create seed in
  let b = Qubo.builder () in
  for i = 0 to n - 1 do
    Qubo.set b i i (float_of_int (Prng.int rng 7 - 3));
    for j = i + 1 to n - 1 do
      if Prng.float rng < density then
        Qubo.set b i j (float_of_int (1 + Prng.int rng 3) *. if Prng.bool rng then 1. else -1.)
    done
  done;
  Qubo.freeze ~num_vars:n b

let instances =
  let chimera =
    let rng = Prng.create 42 in
    ( "chimera_m4_sparse",
      Spinglass.random_on_graph ~rng ~field:0.5 (Topology.graph (Topology.chimera ~m:4 ())) )
  in
  let dense128 = ("dense_p50_n128", dense_qubo ~seed:43 ~n:128 ~density:0.5) in
  let dense192 = ("dense_p75_n192", dense_qubo ~seed:44 ~n:192 ~density:0.75) in
  if fast then [ chimera; dense128 ] else [ chimera; dense128; dense192 ]

(* ------------------------------------------------------------------ *)
(* Section A: raw proposal kernel *)

(* The seed SA inner loop: flip_delta rescans the CSR row per proposal. *)
let naive_kernel ~rng ~schedule ising spins =
  let n = Ising.num_spins ising in
  for k = 0 to Schedule.sweeps schedule - 1 do
    let beta = Schedule.beta schedule k in
    for i = 0 to n - 1 do
      let delta = Ising.flip_delta ising spins i in
      if delta <= 0. || Prng.float rng < Float.exp (-.beta *. delta) then Bitvec.flip spins i
    done
  done

(* The same sweeps through the incremental state, O(1) per proposal:
   the loop scalar SA ships, drawing the same values as the one above. *)
let fields_kernel ~rng ~schedule fields =
  let betas = schedule.Schedule.betas in
  for sweep = 0 to Array.length betas - 1 do
    ignore (Fields.metropolis_sweep fields ~rng ~betas ~sweep)
  done

let best_of f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = now () in
    f ();
    best := Float.min !best (now () -. t0)
  done;
  !best

let kernel_throughput ising =
  let n = Ising.num_spins ising in
  let schedule = Schedule.auto ~sweeps:kernel_sweeps ising in
  let proposals = float_of_int (kernel_sweeps * n) in
  let naive_t =
    best_of (fun () ->
        let rng = Prng.stream ~seed 0 in
        naive_kernel ~rng ~schedule ising (Bitvec.random rng n))
  in
  let fields_t =
    best_of (fun () ->
        let rng = Prng.stream ~seed 0 in
        fields_kernel ~rng ~schedule (Fields.create ising (Bitvec.random rng n)))
  in
  (proposals /. naive_t, proposals /. fields_t)

(* ------------------------------------------------------------------ *)
(* Section B: one read per sampler, seed-replica vs library.

   Each naive replica is the pre-rewire inner loop verbatim: every delta
   is a fresh CSR-row (or P-row) rescan, energies are re-derived instead
   of carried. The "new" side calls the library entry point, so its time
   includes the (once-per-read) Fields construction and, for sample-based
   entry points, the QUBO->Ising conversion and sampleset assembly the
   naive side skips — the comparison is biased against the new code. *)

(* Seed Sa.descend / Greedy: rescan all n rows to pick the steepest flip. *)
let naive_descend q x =
  let n = Qubo.num_vars q in
  let improved = ref true in
  while !improved do
    improved := false;
    let best_i = ref (-1) and best_delta = ref (-1e-12) in
    for i = 0 to n - 1 do
      let d = Qubo.flip_delta q x i in
      if d < !best_delta then begin
        best_delta := d;
        best_i := i
      end
    done;
    if !best_i >= 0 then begin
      Bitvec.flip x !best_i;
      improved := true
    end
  done

(* Seed Tabu.search: Qubo-space flip_delta, full rescan per iteration. *)
let naive_tabu q ~rng ~iterations ~tenure =
  let n = Qubo.num_vars q in
  let x = Bitvec.random rng n in
  let energy = ref (Qubo.energy q x) in
  let best_energy = ref !energy in
  let tabu_until = Array.make n 0 in
  for it = 0 to iterations - 1 do
    let chosen = ref (-1) and chosen_delta = ref infinity in
    for i = 0 to n - 1 do
      let delta = Qubo.flip_delta q x i in
      let admissible = tabu_until.(i) <= it || !energy +. delta < !best_energy -. 1e-12 in
      if admissible && delta < !chosen_delta then begin
        chosen := i;
        chosen_delta := delta
      end
    done;
    let i = if !chosen >= 0 then !chosen else Prng.int rng n in
    let delta = if !chosen >= 0 then !chosen_delta else Qubo.flip_delta q x i in
    Bitvec.flip x i;
    energy := !energy +. delta;
    tabu_until.(i) <- it + 1 + tenure;
    if !energy < !best_energy then best_energy := !energy
  done

(* Seed Pt.run_read: per-replica spins+energy arrays, rescan per move,
   energy doubles swapped alongside configurations. *)
let naive_pt ising ~rng ~sweeps ~betas ~exchange_interval =
  let n = Ising.num_spins ising in
  let k = Array.length betas in
  let spins = Array.init k (fun _ -> Bitvec.random rng n) in
  let energy = Array.map (Ising.energy ising) spins in
  let best = ref (Bitvec.copy spins.(k - 1)) in
  let best_e = ref energy.(k - 1) in
  for sweep = 1 to sweeps do
    for r = 0 to k - 1 do
      let beta = betas.(r) in
      let s = spins.(r) in
      for i = 0 to n - 1 do
        let delta = Ising.flip_delta ising s i in
        if delta <= 0. || Prng.float rng < Float.exp (-.beta *. delta) then begin
          Bitvec.flip s i;
          energy.(r) <- energy.(r) +. delta
        end
      done;
      if energy.(r) < !best_e then begin
        best_e := energy.(r);
        best := Bitvec.copy s
      end
    done;
    if sweep mod exchange_interval = 0 then begin
      let parity = sweep / exchange_interval mod 2 in
      let r = ref parity in
      while !r + 1 < k do
        let a = !r and b = !r + 1 in
        let log_ratio = (betas.(a) -. betas.(b)) *. (energy.(a) -. energy.(b)) in
        if log_ratio >= 0. || Prng.float rng < Float.exp log_ratio then begin
          let tmp = spins.(a) in
          spins.(a) <- spins.(b);
          spins.(b) <- tmp;
          let te = energy.(a) in
          energy.(a) <- energy.(b);
          energy.(b) <- te
        end;
        r := !r + 2
      done
    end
  done;
  ignore !best

(* Seed Sqa.run_read: flip_delta rescans in both the local and the
   world-line move (the latter rescans all P slices per variable). *)
let naive_sqa ising ~rng ~sweeps ~trotter ~beta ~gamma_hot ~gamma_cold =
  let spin_sign slice i = if Bitvec.get slice i then 1. else -1. in
  let j_perp ~beta_slice gamma =
    let t = Float.max (Float.tanh (beta_slice *. gamma)) 1e-300 in
    -0.5 /. beta_slice *. Float.log t
  in
  let n = Ising.num_spins ising in
  let p = trotter in
  let pf = float_of_int p in
  let beta_slice = beta /. pf in
  let slices = Array.init p (fun _ -> Bitvec.random rng n) in
  let ratio =
    if sweeps <= 1 then 1. else (gamma_cold /. gamma_hot) ** (1. /. float_of_int (sweeps - 1))
  in
  let gamma = ref gamma_hot in
  for _ = 1 to sweeps do
    let jp = j_perp ~beta_slice !gamma in
    for k = 0 to p - 1 do
      let up = slices.((k + 1) mod p) and down = slices.((k + p - 1) mod p) in
      let slice = slices.(k) in
      for i = 0 to n - 1 do
        let d_classical = Ising.flip_delta ising slice i /. pf in
        let s = spin_sign slice i in
        let d_perp = 2. *. jp *. s *. (spin_sign up i +. spin_sign down i) in
        let delta = d_classical +. d_perp in
        if delta <= 0. || Prng.float rng < Float.exp (-.beta *. delta) then Bitvec.flip slice i
      done
    done;
    for i = 0 to n - 1 do
      let delta = ref 0. in
      Array.iter (fun slice -> delta := !delta +. (Ising.flip_delta ising slice i /. pf)) slices;
      if !delta <= 0. || Prng.float rng < Float.exp (-.beta *. !delta) then
        Array.iter (fun slice -> Bitvec.flip slice i) slices
    done;
    gamma := !gamma *. ratio
  done;
  let best = ref slices.(0) and best_e = ref (Ising.energy ising slices.(0)) in
  Array.iter
    (fun slice ->
      let e = Ising.energy ising slice in
      if e < !best_e then begin
        best_e := e;
        best := slice
      end)
    slices;
  ignore !best

let sampler_times q ising =
  let n = Qubo.num_vars q in
  let sweeps = kernel_sweeps in
  let schedule = Schedule.auto ~sweeps ising in
  let seeded f () = f (Prng.stream ~seed 0) in
  let pair name naive current = (name, best_of (seeded naive), best_of (seeded current)) in
  let beta_hot, beta_cold = Schedule.default_beta_range ising in
  let k_replicas = 8 in
  let ratio = (beta_cold /. beta_hot) ** (1. /. float_of_int (k_replicas - 1)) in
  let betas = Array.init k_replicas (fun r -> beta_hot *. (ratio ** float_of_int r)) in
  let sqa_sweeps = max 10 (sweeps / 4) in
  let gamma_hot = Float.max 1. (3. *. Ising.max_abs_field ising) in
  let tenure = min ((n / 4) + 1) 20 in
  [
    pair "sa"
      (fun rng -> naive_kernel ~rng ~schedule ising (Bitvec.random rng n))
      (fun rng -> ignore (Sa.anneal_ising ~rng ~schedule ising));
    pair "pt"
      (fun rng -> naive_pt ising ~rng ~sweeps ~betas ~exchange_interval:10)
      (fun _ ->
        ignore
          (Pt.sample ~params:{ Pt.default with reads = 1; sweeps; replicas = k_replicas; seed } q));
    pair "sqa"
      (fun rng ->
        naive_sqa ising ~rng ~sweeps:sqa_sweeps ~trotter:8 ~beta:beta_cold ~gamma_hot
          ~gamma_cold:1e-2)
      (fun _ ->
        ignore (Sqa.sample ~params:{ Sqa.default with reads = 1; sweeps = sqa_sweeps; seed } q));
    pair "tabu"
      (fun rng -> naive_tabu q ~rng ~iterations:(4 * sweeps) ~tenure)
      (fun _ ->
        ignore
          (Tabu.sample ~params:{ Tabu.default with restarts = 1; iterations = 4 * sweeps; seed } q));
    pair "greedy"
      (fun rng -> naive_descend q (Bitvec.random rng n))
      (fun rng -> ignore (Greedy.descend q (Bitvec.random rng n)));
  ]

(* ------------------------------------------------------------------ *)
(* Section C: bit-parallel multi-replica kernel (multi-spin coding).

   The scalar side is 64 independent Fields states, each swept by
   [Fields.metropolis_sweep] (scalar SA's loop); the packed side is one
   Multispin state whose fused sweep advances all 64 lanes per CSR
   pass. Both are measured at a fixed equilibrium beta (the cold end of
   the instance's default schedule) — like Section A, this isolates the
   kernel: at equilibrium the accept rate is low and the packed side's
   amortized proposal loop, bulk PRNG and shared exp calls dominate; in
   the hot phase both sides are bound by the identical
   per-accepted-flip field updates, which the full-schedule sampler
   comparison below captures. *)

let replica_lanes = Multispin.max_lanes
let packed_sweeps = if fast then 40 else 150

(* Both sides are warmed into equilibrium (state construction plus a
   burn-in from the random starts) before the timer starts: the
   equilibrium regime is what this measurement isolates, and the hot
   burn-in transient — where both kernels are bound by the same
   per-accepted-flip field updates — is the sampler comparison's job. *)
let multispin_kernel_throughput ising =
  let n = Ising.num_spins ising in
  let beta = snd (Schedule.default_beta_range ising) in
  let betas = [| beta |] in
  let warmup = packed_sweeps / 2 in
  let starts rng = Array.init replica_lanes (fun _ -> Bitvec.random rng n) in
  let timed build sweep =
    let best = ref infinity in
    for _ = 1 to reps do
      let rng = Prng.stream ~seed 1 in
      let state = build rng in
      for _ = 1 to warmup do
        sweep rng state
      done;
      let t0 = now () in
      for _ = 1 to packed_sweeps do
        sweep rng state
      done;
      best := Float.min !best (now () -. t0)
    done;
    !best
  in
  let scalar_t =
    timed
      (fun rng -> Array.map (fun s -> Fields.create ising (Bitvec.copy s)) (starts rng))
      (fun rng fields ->
        Array.iter (fun f -> ignore (Fields.metropolis_sweep f ~rng ~betas ~sweep:0)) fields)
  in
  let packed_t =
    timed
      (fun rng ->
        let ms = Multispin.create ising (starts rng) in
        (ms, Multispin.draws rng))
      (fun _ (ms, dr) -> ignore (Multispin.metropolis_sweep ms ~draws:dr ~betas ~sweep:0))
  in
  let rsweeps = float_of_int (packed_sweeps * replica_lanes) in
  (beta, rsweeps /. scalar_t, rsweeps /. packed_t)

(* Full annealing schedule, 64 reads: Sa.sample (one read at a time)
   against Sa.run_packed (one packed group). Also checks both decode the
   same best energy ballpark — run_packed's Bucketed mode draws
   differently, so only the times are compared, not the bits. *)
let multispin_sampler_times q =
  let params = { Sa.default with Sa.reads = replica_lanes; sweeps = packed_sweeps * 2; seed } in
  let scalar_t = best_of (fun () -> ignore (Sa.sample ~params q)) in
  let packed_t = best_of (fun () -> ignore (Sa.run_packed ~params q)) in
  (scalar_t, packed_t)

type packed_row = {
  p_name : string;
  p_n : int;
  p_nnz : int;
  beta : float;
  scalar_rs : float;  (* replica-sweeps/sec, 64 scalar Fields states *)
  packed_rs : float;  (* replica-sweeps/sec, one Multispin state *)
  sampler_scalar_s : float;
  sampler_packed_s : float;
  p_minor_words : float; (* GC pressure over the whole instance measurement *)
  p_major_collections : int;
}

let packed_json_out rows path =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"multispin_throughput\",\n";
  p "  \"pr\": 8,\n";
  p "  \"fast\": %b,\n" fast;
  p "  \"lanes\": %d,\n" replica_lanes;
  p "  \"fixed_beta_sweeps\": %d,\n" packed_sweeps;
  p "  \"instances\": [\n";
  List.iteri
    (fun k r ->
      p "    {\n";
      p "      \"name\": \"%s\",\n" r.p_name;
      p "      \"n\": %d,\n" r.p_n;
      p "      \"couplers\": %d,\n" r.p_nnz;
      p "      \"kernel\": {\n";
      p "        \"beta\": %.4f,\n" r.beta;
      p "        \"scalar_replica_sweeps_per_sec\": %.0f,\n" r.scalar_rs;
      p "        \"packed_replica_sweeps_per_sec\": %.0f,\n" r.packed_rs;
      p "        \"speedup\": %.2f\n" (r.packed_rs /. r.scalar_rs);
      p "      },\n";
      p "      \"sampler\": {\n";
      p "        \"scalar_64_reads_s\": %.6f,\n" r.sampler_scalar_s;
      p "        \"packed_64_reads_s\": %.6f,\n" r.sampler_packed_s;
      p "        \"speedup\": %.2f\n" (r.sampler_scalar_s /. r.sampler_packed_s);
      p "      },\n";
      p "      \"gc\": { \"minor_words\": %.0f, \"major_collections\": %d }\n" r.p_minor_words
        r.p_major_collections;
      p "    }%s\n" (if k = List.length rows - 1 then "" else ","))
    rows;
  p "  ]\n";
  p "}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Baseline-trajectory gate: compare this run's kernel speedups against
   the committed full-run baseline. Absolute throughput is
   machine-specific, so the gate is on speedup ratios with a generous
   0.4x tolerance — it catches "the incremental kernel stopped paying
   off", not scheduler jitter. *)

let baseline_path = "bench/baselines/BENCH_2.json"

let jfield k = function Json.Obj kvs -> List.assoc_opt k kvs | _ -> None
let jnum = function Some (Json.Num f) -> Some f | _ -> None
let jstr = function Some (Json.Str s) -> Some s | _ -> None

let baseline_kernel_speedups () =
  match In_channel.with_open_text baseline_path In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> (
    match Json.parse text with
    | Error _ -> None
    | Ok doc ->
      (match jfield "instances" doc with
      | Some (Json.List insts) ->
        Some
          (List.filter_map
             (fun inst ->
               match (jstr (jfield "name" inst), jfield "kernel" inst) with
               | Some name, Some kernel -> (
                 match jnum (jfield "speedup" kernel) with
                 | Some s -> Some (name, s)
                 | None -> None)
               | _ -> None)
             insts)
      | _ -> None))

type row = {
  name : string;
  n : int;
  nnz : int;
  density : float;
  naive_ps : float;
  fields_ps : float;
  samplers : (string * float * float) list;
  minor_words : float; (* GC pressure over the whole instance measurement *)
  major_collections : int;
}

let json_out rows path =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"flip_throughput\",\n";
  p "  \"pr\": 2,\n";
  p "  \"fast\": %b,\n" fast;
  p "  \"kernel_sweeps\": %d,\n" kernel_sweeps;
  p "  \"instances\": [\n";
  List.iteri
    (fun k r ->
      p "    {\n";
      p "      \"name\": \"%s\",\n" r.name;
      p "      \"n\": %d,\n" r.n;
      p "      \"couplers\": %d,\n" r.nnz;
      p "      \"density\": %.4f,\n" r.density;
      p "      \"kernel\": {\n";
      p "        \"naive_proposals_per_sec\": %.0f,\n" r.naive_ps;
      p "        \"fields_proposals_per_sec\": %.0f,\n" r.fields_ps;
      p "        \"speedup\": %.2f\n" (r.fields_ps /. r.naive_ps);
      p "      },\n";
      p "      \"samplers\": {\n";
      List.iteri
        (fun j (s, naive_t, new_t) ->
          p "        \"%s\": { \"naive_read_s\": %.6f, \"new_read_s\": %.6f, \"speedup\": %.2f }%s\n"
            s naive_t new_t (naive_t /. new_t)
            (if j = List.length r.samplers - 1 then "" else ","))
        r.samplers;
      p "      },\n";
      p "      \"gc\": { \"minor_words\": %.0f, \"major_collections\": %d }\n" r.minor_words
        r.major_collections;
      p "    }%s\n" (if k = List.length rows - 1 then "" else ","))
    rows;
  p "  ]\n";
  p "}\n";
  close_out oc

let () =
  Format.printf "flip-throughput benchmark%s (kernel_sweeps=%d, reps=%d, seeds fixed)@."
    (if fast then " [FAST]" else "")
    kernel_sweeps reps;
  let rows =
    List.map
      (fun (name, q) ->
        let ising = Ising.of_qubo q in
        let n = Qubo.num_vars q in
        let nnz = Qubo.num_interactions q in
        let density = float_of_int nnz /. (float_of_int (n * (n - 1)) /. 2.) in
        Format.printf "@.instance %s: n=%d couplers=%d density=%.1f%%@." name n nnz
          (100. *. density);
        (* GC pressure across the whole instance measurement; quick_stat
           is domain-local, which is exact here (single-domain bench). *)
        let g0 = Gc.quick_stat () in
        let naive_ps, fields_ps = kernel_throughput ising in
        Format.printf "  kernel: naive %.2fM props/s, fields %.2fM props/s, speedup %.2fx@."
          (naive_ps /. 1e6) (fields_ps /. 1e6) (fields_ps /. naive_ps);
        let samplers = sampler_times q ising in
        let g1 = Gc.quick_stat () in
        let minor_words = g1.Gc.minor_words -. g0.Gc.minor_words in
        let major_collections = g1.Gc.major_collections - g0.Gc.major_collections in
        List.iter
          (fun (s, naive_t, new_t) ->
            Format.printf "  %-7s naive %8.2fms  new %8.2fms  speedup %5.2fx@." s (1e3 *. naive_t)
              (1e3 *. new_t) (naive_t /. new_t))
          samplers;
        Format.printf "  gc: %.1fM minor words, %d major collections@." (minor_words /. 1e6)
          major_collections;
        { name; n; nnz; density; naive_ps; fields_ps; samplers; minor_words; major_collections })
      instances
  in
  json_out rows "BENCH_2.json";
  Format.printf "@.wrote BENCH_2.json@.";
  let failures = ref [] in
  (* Trajectory gate against the committed baseline. *)
  (match baseline_kernel_speedups () with
  | None -> Format.printf "@.no baseline at %s; skipping trajectory gate@." baseline_path
  | Some baseline ->
    Format.printf "@.trajectory gate vs %s:@." baseline_path;
    List.iter
      (fun r ->
        match List.assoc_opt r.name baseline with
        | None -> Format.printf "  %-18s no baseline entry, skipped@." r.name
        | Some want ->
          let got = r.fields_ps /. r.naive_ps in
          let ok = got >= 0.4 *. want in
          Format.printf "  %-18s kernel speedup %.2fx (recorded %.2fx) %s@." r.name got want
            (if ok then "ok" else "REGRESSED");
          if not ok then
            failures :=
              Printf.sprintf "%s: kernel speedup %.2fx fell below 0.4x of recorded %.2fx" r.name
                got want
              :: !failures)
      rows);
  (* Section C: packed multi-replica kernel. *)
  Format.printf "@.multi-spin kernel (%d lanes, fixed-beta sweeps=%d)@." replica_lanes
    packed_sweeps;
  let packed_rows =
    List.map
      (fun (name, q) ->
        let ising = Ising.of_qubo q in
        let g0 = Gc.quick_stat () in
        let beta, scalar_rs, packed_rs = multispin_kernel_throughput ising in
        let sampler_scalar_s, sampler_packed_s = multispin_sampler_times q in
        let g1 = Gc.quick_stat () in
        Format.printf
          "  %-18s beta=%-6.2f scalar %7.0f rsweeps/s  packed %7.0f rsweeps/s  speedup %5.2fx  \
           (sampler %.2fx)@."
          name beta scalar_rs packed_rs (packed_rs /. scalar_rs)
          (sampler_scalar_s /. sampler_packed_s);
        {
          p_name = name;
          p_n = Qubo.num_vars q;
          p_nnz = Qubo.num_interactions q;
          beta;
          scalar_rs;
          packed_rs;
          sampler_scalar_s;
          sampler_packed_s;
          p_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          p_major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
        })
      instances
  in
  packed_json_out packed_rows "BENCH_8.json";
  Format.printf "wrote BENCH_8.json@.";
  (* The dense instances are where multi-spin coding must win: one CSR
     pass is amortized over 64 lanes of real work. Sparse rows are too
     short to amortize, so chimera is reported but not gated. *)
  List.iter
    (fun r ->
      if String.length r.p_name >= 5 && String.sub r.p_name 0 5 = "dense" && r.packed_rs < r.scalar_rs
      then
        failures :=
          Printf.sprintf "%s: packed kernel slower than scalar (%.0f < %.0f rsweeps/s)" r.p_name
            r.packed_rs r.scalar_rs
          :: !failures)
    packed_rows;
  match !failures with
  | [] -> ()
  | fs ->
    Format.printf "@.BENCH GATE FAILURES:@.";
    List.iter (fun f -> Format.printf "  %s@." f) fs;
    exit 1
