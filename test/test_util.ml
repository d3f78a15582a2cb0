(* Unit and property tests for qsmt_util: PRNG, bit vectors, the 7-bit
   ASCII codec, parallel helpers, and stats. *)

module Prng = Qsmt_util.Prng
module Bitvec = Qsmt_util.Bitvec
module Ascii7 = Qsmt_util.Ascii7
module Parallel = Qsmt_util.Parallel
module Stats = Qsmt_util.Stats

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 4)

let test_prng_int_bounds () =
  let rng = Prng.create 7 in
  for _ = 1 to 10_000 do
    let v = Prng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.failf "Prng.int out of range: %d" v
  done

let test_prng_int_rejects_nonpositive () =
  let rng = Prng.create 0 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_float_range () =
  let rng = Prng.create 3 in
  for _ = 1 to 10_000 do
    let v = Prng.float rng in
    if v < 0. || v >= 1. then Alcotest.failf "Prng.float out of range: %f" v
  done

let test_prng_float_mean () =
  let rng = Prng.create 11 in
  let samples = Array.init 20_000 (fun _ -> Prng.float rng) in
  let mean = Stats.mean samples in
  check (Alcotest.float 0.02) "mean near 0.5" 0.5 mean

let test_prng_int_uniformity () =
  let rng = Prng.create 5 in
  let counts = Array.make 8 0 in
  let draws = 80_000 in
  for _ = 1 to draws do
    let v = Prng.int rng 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = draws / 8 in
      if abs (c - expected) > expected / 10 then
        Alcotest.failf "bucket %d count %d too far from %d" i c expected)
    counts

let test_prng_split_independent () =
  let master = Prng.create 99 in
  let child = Prng.split master in
  let a = Array.init 32 (fun _ -> Prng.bits64 master) in
  let b = Array.init 32 (fun _ -> Prng.bits64 child) in
  check Alcotest.bool "streams differ" false (a = b)

let test_prng_copy_diverges_with_use () =
  let a = Prng.create 13 in
  let b = Prng.copy a in
  check Alcotest.int64 "copies agree" (Prng.bits64 a) (Prng.bits64 b);
  ignore (Prng.bits64 a);
  (* a is now one step ahead of b *)
  check Alcotest.bool "advanced copy differs" false (Prng.bits64 a = Prng.bits64 b)

let test_prng_shuffle_permutation () =
  let rng = Prng.create 21 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_prng_choose () =
  let rng = Prng.create 8 in
  for _ = 1 to 100 do
    let v = Prng.choose rng [| 'x'; 'y'; 'z' |] in
    check Alcotest.bool "member" true (List.mem v [ 'x'; 'y'; 'z' ])
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Prng.choose: empty array") (fun () ->
      ignore (Prng.choose rng ([||] : int array)))

let test_prng_printable () =
  let rng = Prng.create 17 in
  let s = Prng.string_printable rng 1000 in
  String.iter (fun c -> if not (Ascii7.is_printable c) then Alcotest.failf "unprintable %C" c) s;
  let lower = Prng.string_lowercase rng 1000 in
  String.iter (fun c -> if c < 'a' || c > 'z' then Alcotest.failf "not lowercase %C" c) lower

(* Regression for the rejection-sampling bug: the threshold used to be
   compared against [Int64.max_int] while the draw only has 62 bits, so
   rejection never fired. A chi-square test over a non-power-of-two
   bound is the statistical witness that the fixed path stays uniform. *)
let test_prng_int_chi_square () =
  let bound = 37 in
  let draws = 74_000 in
  List.iter
    (fun seed ->
      let rng = Prng.create seed in
      let counts = Array.make bound 0 in
      for _ = 1 to draws do
        let v = Prng.int rng bound in
        counts.(v) <- counts.(v) + 1
      done;
      let expected = float_of_int draws /. float_of_int bound in
      let chi2 =
        Array.fold_left
          (fun acc c ->
            let d = float_of_int c -. expected in
            acc +. ((d *. d) /. expected))
          0. counts
      in
      (* 99.9th percentile of chi-square with 36 degrees of freedom. The
         draws are deterministic per seed, so this cannot flake. *)
      if chi2 > 67.99 then Alcotest.failf "seed %d: chi-square %.2f too high" seed chi2)
    [ 5; 19; 101 ]

let test_prng_int_large_bound () =
  (* A bound of 3 * 2^60 rejects ~1/4 of raw draws, so the rejection
     loop actually executes; results must still land in range. *)
  let bound = 3 * (1 lsl 60) in
  let rng = Prng.create 23 in
  for _ = 1 to 1_000 do
    let v = Prng.int rng bound in
    if v < 0 || v >= bound then Alcotest.failf "Prng.int out of range: %d" v
  done

let test_prng_stream_deterministic () =
  let a = Prng.stream ~seed:42 3 and b = Prng.stream ~seed:42 3 in
  for _ = 1 to 64 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_stream_decorrelated () =
  let streams = Array.init 8 (fun k -> Prng.stream ~seed:7 k) in
  let firsts = Array.map Prng.bits64 streams in
  Array.iteri
    (fun i x ->
      Array.iteri
        (fun j y -> if i < j && x = y then Alcotest.failf "streams %d and %d collide" i j)
        firsts)
    firsts;
  Alcotest.check_raises "negative index" (Invalid_argument "Prng.stream: negative stream index")
    (fun () -> ignore (Prng.stream ~seed:0 (-1)))

(* Known answers: the generator's output stream is part of every
   fixed-seed result in this repository, so its values are pinned
   literally, whatever the state representation. *)
let test_prng_known_answers () =
  let first4 name t expected =
    List.iteri
      (fun k want -> check Alcotest.int64 (Printf.sprintf "%s draw %d" name k) want (Prng.bits64 t))
      expected
  in
  first4 "create 0" (Prng.create 0)
    [ 0x99EC5F36CB75F2B4L; 0xBF6E1F784956452AL; 0x1A5F849D4933E6E0L; 0x6AA594F1262D2D2CL ];
  first4 "create 42" (Prng.create 42)
    [ 0x15780B2E0C2EC716L; 0x6104D9866D113A7EL; 0xAE17533239E499A1L; 0xECB8AD4703B360A1L ];
  first4 "stream ~seed:7 3" (Prng.stream ~seed:7 3)
    [ 0x1BC52AEEFC73FC07L; 0x56707CBE0CD97041L; 0x561098F7A08C42E6L; 0x34E7C9408C4624FEL ];
  first4 "split (create 1)"
    (Prng.split (Prng.create 1))
    [ 0x2C83F301EB3F9C90L; 0x4E876D9FAE53F0B8L; 0x516BA84E3A541549L; 0x18A46D9D1DF806FCL ];
  check (Alcotest.float 0.) "float" 0x1.275545e329532p-2 (Prng.float (Prng.create 5));
  check Alcotest.int "int 1000" 546 (Prng.int (Prng.create 5) 1000);
  check Alcotest.bool "bool" true (Prng.bool (Prng.create 5));
  let t = Prng.create 77 in
  let t' = Prng.copy t in
  for k = 1 to 10_000 do
    let f = Prng.float t and f' = float_of_int (Prng.bits53 t') *. 0x1.0p-53 in
    if Int64.bits_of_float f <> Int64.bits_of_float f' then
      Alcotest.failf "draw %d: float %h, bits53-derived %h" k f f'
  done

(* ------------------------------------------------------------------ *)
(* Bitvec *)

let test_bitvec_get_set () =
  let v = Bitvec.create 20 in
  check Alcotest.int "fresh is zero" 0 (Bitvec.popcount v);
  Bitvec.set v 0 true;
  Bitvec.set v 19 true;
  Bitvec.set v 7 true;
  check Alcotest.bool "bit 0" true (Bitvec.get v 0);
  check Alcotest.bool "bit 7" true (Bitvec.get v 7);
  check Alcotest.bool "bit 19" true (Bitvec.get v 19);
  check Alcotest.bool "bit 1" false (Bitvec.get v 1);
  check Alcotest.int "popcount" 3 (Bitvec.popcount v);
  Bitvec.set v 7 false;
  check Alcotest.int "popcount after clear" 2 (Bitvec.popcount v)

let test_bitvec_bounds () =
  let v = Bitvec.create 8 in
  Alcotest.check_raises "get oob" (Invalid_argument "Bitvec.get: index 8 out of [0,8)") (fun () ->
      ignore (Bitvec.get v 8));
  Alcotest.check_raises "set negative" (Invalid_argument "Bitvec.set: index -1 out of [0,8)")
    (fun () -> Bitvec.set v (-1) true)

let test_bitvec_flip () =
  let v = Bitvec.create 5 in
  Bitvec.flip v 2;
  check Alcotest.bool "flipped on" true (Bitvec.get v 2);
  Bitvec.flip v 2;
  check Alcotest.bool "flipped off" false (Bitvec.get v 2)

let test_bitvec_string_roundtrip () =
  let s = "1011001110001" in
  check Alcotest.string "roundtrip" s (Bitvec.to_string (Bitvec.of_string s));
  Alcotest.check_raises "bad char" (Invalid_argument "Bitvec.of_string: bad char 'x'") (fun () ->
      ignore (Bitvec.of_string "10x"))

let test_bitvec_fill () =
  let v = Bitvec.create 13 in
  Bitvec.fill v true;
  check Alcotest.int "all ones" 13 (Bitvec.popcount v);
  (* equality with an independently built all-ones vector checks that the
     tail bits beyond the length were kept canonical *)
  check Alcotest.bool "equal to init" true (Bitvec.equal v (Bitvec.init 13 (fun _ -> true)));
  Bitvec.fill v false;
  check Alcotest.int "all zero" 0 (Bitvec.popcount v)

let test_bitvec_hamming () =
  let a = Bitvec.of_string "10110" and b = Bitvec.of_string "10011" in
  check Alcotest.int "hamming" 2 (Bitvec.hamming a b);
  check Alcotest.int "self distance" 0 (Bitvec.hamming a a);
  Alcotest.check_raises "length mismatch" (Invalid_argument "Bitvec.hamming: length mismatch")
    (fun () -> ignore (Bitvec.hamming a (Bitvec.create 4)))

let test_bitvec_copy_independent () =
  let a = Bitvec.of_string "1010" in
  let b = Bitvec.copy a in
  Bitvec.flip b 0;
  check Alcotest.bool "original untouched" true (Bitvec.get a 0);
  check Alcotest.bool "copy changed" false (Bitvec.get b 0)

let prop_bitvec_bool_array_roundtrip =
  qtest "bitvec bool-array roundtrip"
    QCheck2.Gen.(list_size (int_range 0 200) bool)
    (fun bits ->
      let arr = Array.of_list bits in
      Bitvec.to_bool_array (Bitvec.of_bool_array arr) = arr)

let prop_bitvec_popcount =
  qtest "popcount matches list count"
    QCheck2.Gen.(list_size (int_range 0 200) bool)
    (fun bits ->
      let arr = Array.of_list bits in
      Bitvec.popcount (Bitvec.of_bool_array arr) = List.length (List.filter (fun b -> b) bits))

let prop_bitvec_hash_consistent =
  qtest "equal vectors hash equally"
    QCheck2.Gen.(list_size (int_range 0 64) bool)
    (fun bits ->
      let arr = Array.of_list bits in
      let a = Bitvec.of_bool_array arr and b = Bitvec.of_bool_array arr in
      Bitvec.equal a b && Bitvec.hash a = Bitvec.hash b && Bitvec.compare a b = 0)

(* ------------------------------------------------------------------ *)
(* Ascii7 *)

let test_ascii7_char_bits () =
  (* 'a' = 97 = 1100001 MSB first *)
  check (Alcotest.array Alcotest.bool) "'a' bits"
    [| true; true; false; false; false; false; true |]
    (Ascii7.char_to_bits 'a');
  check Alcotest.char "inverse" 'a' (Ascii7.bits_to_char (Ascii7.char_to_bits 'a'))

let test_ascii7_encode_length () =
  check Alcotest.int "7n bits" 35 (Bitvec.length (Ascii7.encode "hello"))

let test_ascii7_encode_decode () =
  check Alcotest.string "roundtrip" "hello world!" (Ascii7.decode (Ascii7.encode "hello world!"))

let test_ascii7_decode_sub () =
  let bits = Ascii7.encode "abc" in
  check Alcotest.string "char 1" "b" (Ascii7.decode_sub bits ~pos:7)

let test_ascii7_var_of () =
  check Alcotest.int "var index" 23 (Ascii7.var_of ~char_index:3 ~bit:2);
  Alcotest.check_raises "bad bit" (Invalid_argument "Ascii7.var_of: bit out of [0,7)") (fun () ->
      ignore (Ascii7.var_of ~char_index:0 ~bit:7))

let test_ascii7_rejects_non_ascii () =
  Alcotest.check_raises "8-bit char"
    (Invalid_argument "Ascii7.char_to_bits: '\\200' is not 7-bit ASCII") (fun () ->
      ignore (Ascii7.char_to_bits '\200'))

let test_ascii7_decode_length_check () =
  Alcotest.check_raises "bad length"
    (Invalid_argument "Ascii7.decode: length 8 not a multiple of 7") (fun () ->
      ignore (Ascii7.decode (Bitvec.create 8)))

let prop_ascii7_roundtrip =
  qtest "encode/decode identity on printable strings"
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 40))
    (fun s -> Ascii7.decode (Ascii7.encode s) = s)

let test_ascii7_printable () =
  check Alcotest.bool "space printable" true (Ascii7.is_printable ' ');
  check Alcotest.bool "tilde printable" true (Ascii7.is_printable '~');
  check Alcotest.bool "del not printable" false (Ascii7.is_printable '\127');
  check Alcotest.char "clamp keeps printable" 'q' (Ascii7.clamp_printable 'q');
  check Alcotest.char "clamp replaces control" '?' (Ascii7.clamp_printable '\003')

(* ------------------------------------------------------------------ *)
(* Parallel *)

let test_parallel_matches_sequential () =
  let f x = (x * x) + 1 in
  let seq = Array.init 100 f in
  check (Alcotest.array Alcotest.int) "2 domains" seq (Parallel.init_array ~domains:2 100 f);
  check (Alcotest.array Alcotest.int) "5 domains" seq (Parallel.init_array ~domains:5 100 f);
  check (Alcotest.array Alcotest.int) "more domains than work" seq
    (Parallel.init_array ~domains:64 100 f)

let test_parallel_empty_and_small () =
  check (Alcotest.array Alcotest.int) "empty" [||] (Parallel.init_array ~domains:4 0 Fun.id);
  check (Alcotest.array Alcotest.int) "singleton" [| 9 |]
    (Parallel.init_array ~domains:4 1 (fun _ -> 9))

let test_parallel_init () =
  check
    (Alcotest.array Alcotest.int)
    "init"
    (Array.init 17 (fun i -> 2 * i))
    (Parallel.init_array ~domains:3 17 (fun i -> 2 * i))

let test_parallel_exception_propagates () =
  let fails _ = failwith "boom" in
  check Alcotest.bool "raises" true
    (try
       ignore (Parallel.init_array ~domains:1 1 fails);
       false
     with Failure _ -> true)

let test_recommended_domains_positive () =
  check Alcotest.bool "at least 1" true (Parallel.recommended_domains () >= 1)

let test_partition_covers () =
  List.iter
    (fun (n, d) ->
      let chunks = Parallel.partition n d in
      let total = List.fold_left (fun acc (_, len) -> acc + len) 0 chunks in
      check Alcotest.int (Printf.sprintf "partition %d/%d total" n d) n total;
      ignore
        (List.fold_left
           (fun expected_start (start, len) ->
             check Alcotest.int "contiguous" expected_start start;
             check Alcotest.bool "nonempty chunk" true (len > 0);
             start + len)
           0 chunks))
    [ (10, 3); (3, 10); (1, 1); (100, 7) ]

let test_pool_runs_all_jobs () =
  let pool = Parallel.Pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      check Alcotest.int "size" 2 (Parallel.Pool.size pool);
      let hits = Array.make 50 0 in
      Parallel.Pool.run_list pool
        (List.init 50 (fun i () -> hits.(i) <- hits.(i) + 1));
      check (Alcotest.array Alcotest.int) "each job ran exactly once" (Array.make 50 1) hits;
      (* the pool is reusable: a second batch on the same workers *)
      let sum = Atomic.make 0 in
      Parallel.Pool.run_list pool
        (List.init 10 (fun i () -> ignore (Atomic.fetch_and_add sum i)));
      check Alcotest.int "second batch" 45 (Atomic.get sum))

let test_pool_reraises_job_exception () =
  let pool = Parallel.Pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      check Alcotest.bool "raises" true
        (try
           Parallel.Pool.run_list pool [ (fun () -> ()); (fun () -> failwith "boom") ];
           false
         with Failure msg -> msg = "boom"))

let test_pool_reusable_after_job_exception () =
  (* A raising job must release its worker slot: later batches still run
     on the full pool, and the re-raised exception is the job's own (not
     a pool-internal abort). *)
  let pool = Parallel.Pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      for _ = 1 to 3 do
        try Parallel.Pool.run_list pool [ (fun () -> failwith "boom"); (fun () -> ()) ]
        with Failure _ -> ()
      done;
      let hits = Atomic.make 0 in
      Parallel.Pool.run_list pool (List.init 20 (fun _ () -> Atomic.incr hits));
      check Alcotest.int "full batch after raising batches" 20 (Atomic.get hits);
      check Alcotest.bool "original exception identity" true
        (try
           Parallel.Pool.run_list pool [ (fun () -> raise Exit) ];
           false
         with Exit -> true))

let test_pool_zero_workers_degrades () =
  (* A 0-worker pool (single-core hosts) runs everything on the caller. *)
  let pool = Parallel.Pool.create 0 in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      let hits = Atomic.make 0 in
      Parallel.Pool.run_list pool (List.init 5 (fun _ () -> Atomic.incr hits));
      check Alcotest.int "all jobs ran inline" 5 (Atomic.get hits))

let test_pool_nested_run_list () =
  (* Nested use must not deadlock: an inner run_list issued from inside a
     pool job finds the workers busy and degrades to the calling thread. *)
  let pool = Parallel.Pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      let hits = Atomic.make 0 in
      Parallel.Pool.run_list pool
        (List.init 3 (fun _ () ->
             Parallel.Pool.run_list pool (List.init 4 (fun _ () -> Atomic.incr hits))));
      check Alcotest.int "inner jobs all ran" 12 (Atomic.get hits))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_mean_variance () =
  let a = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.mean a);
  check (Alcotest.float 1e-9) "variance" (32. /. 7.) (Stats.variance a);
  check (Alcotest.float 1e-9) "stddev" (sqrt (32. /. 7.)) (Stats.stddev a)

let test_stats_percentile () =
  let a = [| 1.; 2.; 3.; 4.; 5. |] in
  check (Alcotest.float 1e-9) "p0" 1. (Stats.percentile a 0.);
  check (Alcotest.float 1e-9) "p50" 3. (Stats.percentile a 50.);
  check (Alcotest.float 1e-9) "p100" 5. (Stats.percentile a 100.);
  check (Alcotest.float 1e-9) "p25" 2. (Stats.percentile a 25.);
  check (Alcotest.float 1e-9) "median" 3. (Stats.median a)

let test_stats_percentile_interpolates () =
  let a = [| 0.; 10. |] in
  check (Alcotest.float 1e-9) "p75" 7.5 (Stats.percentile a 75.)

let test_stats_errors () =
  Alcotest.check_raises "empty percentile" (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile [||] 50.));
  Alcotest.check_raises "bad p" (Invalid_argument "Stats.percentile: p outside [0,100]") (fun () ->
      ignore (Stats.percentile [| 1. |] 101.));
  Alcotest.check_raises "empty min_max" (Invalid_argument "Stats.min_max: empty") (fun () ->
      ignore (Stats.min_max [||]))

let test_stats_histogram () =
  let a = [| 0.; 0.5; 1.; 1.5; 2. |] in
  let h = Stats.histogram ~bins:2 a in
  check Alcotest.int "two bins" 2 (Array.length h);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  check Alcotest.int "all counted" 5 total

let test_stats_histogram_constant_input () =
  let h = Stats.histogram ~bins:3 [| 4.; 4.; 4. |] in
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  check Alcotest.int "all in some bin" 3 total

let test_stats_summary () =
  let s = Stats.summarize [| 1.; 2.; 3. |] in
  check Alcotest.int "n" 3 s.Stats.n;
  check (Alcotest.float 1e-9) "mean" 2. s.Stats.mean;
  check (Alcotest.float 1e-9) "min" 1. s.Stats.min;
  check (Alcotest.float 1e-9) "max" 3. s.Stats.max;
  check (Alcotest.float 1e-9) "median" 2. s.Stats.median

let () =
  Alcotest.run "qsmt_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int rejects nonpositive" `Quick test_prng_int_rejects_nonpositive;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "float mean" `Quick test_prng_float_mean;
          Alcotest.test_case "int uniformity" `Quick test_prng_int_uniformity;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "copy then diverge" `Quick test_prng_copy_diverges_with_use;
          Alcotest.test_case "shuffle is permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "choose" `Quick test_prng_choose;
          Alcotest.test_case "printable strings" `Quick test_prng_printable;
          Alcotest.test_case "chi-square non-power-of-two bound" `Quick test_prng_int_chi_square;
          Alcotest.test_case "large bound rejection" `Quick test_prng_int_large_bound;
          Alcotest.test_case "stream deterministic" `Quick test_prng_stream_deterministic;
          Alcotest.test_case "stream decorrelated" `Quick test_prng_stream_decorrelated;
          Alcotest.test_case "known answers" `Quick test_prng_known_answers;
        ] );
      ( "bitvec",
        [
          Alcotest.test_case "get/set" `Quick test_bitvec_get_set;
          Alcotest.test_case "bounds" `Quick test_bitvec_bounds;
          Alcotest.test_case "flip" `Quick test_bitvec_flip;
          Alcotest.test_case "string roundtrip" `Quick test_bitvec_string_roundtrip;
          Alcotest.test_case "fill" `Quick test_bitvec_fill;
          Alcotest.test_case "hamming" `Quick test_bitvec_hamming;
          Alcotest.test_case "copy independence" `Quick test_bitvec_copy_independent;
          prop_bitvec_bool_array_roundtrip;
          prop_bitvec_popcount;
          prop_bitvec_hash_consistent;
        ] );
      ( "ascii7",
        [
          Alcotest.test_case "char bits" `Quick test_ascii7_char_bits;
          Alcotest.test_case "encode length" `Quick test_ascii7_encode_length;
          Alcotest.test_case "encode/decode" `Quick test_ascii7_encode_decode;
          Alcotest.test_case "decode_sub" `Quick test_ascii7_decode_sub;
          Alcotest.test_case "var_of" `Quick test_ascii7_var_of;
          Alcotest.test_case "rejects non-ascii" `Quick test_ascii7_rejects_non_ascii;
          Alcotest.test_case "decode length check" `Quick test_ascii7_decode_length_check;
          Alcotest.test_case "printable predicates" `Quick test_ascii7_printable;
          prop_ascii7_roundtrip;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches sequential" `Quick test_parallel_matches_sequential;
          Alcotest.test_case "empty and small" `Quick test_parallel_empty_and_small;
          Alcotest.test_case "init" `Quick test_parallel_init;
          Alcotest.test_case "exceptions propagate" `Quick test_parallel_exception_propagates;
          Alcotest.test_case "recommended domains" `Quick test_recommended_domains_positive;
          Alcotest.test_case "partition covers range" `Quick test_partition_covers;
          Alcotest.test_case "pool runs all jobs" `Quick test_pool_runs_all_jobs;
          Alcotest.test_case "pool re-raises exceptions" `Quick test_pool_reraises_job_exception;
          Alcotest.test_case "pool reusable after exception" `Quick
            test_pool_reusable_after_job_exception;
          Alcotest.test_case "pool with zero workers" `Quick test_pool_zero_workers_degrades;
          Alcotest.test_case "pool nested run_list" `Quick test_pool_nested_run_list;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance" `Quick test_stats_mean_variance;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile interpolation" `Quick test_stats_percentile_interpolates;
          Alcotest.test_case "errors" `Quick test_stats_errors;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "histogram constant" `Quick test_stats_histogram_constant_input;
          Alcotest.test_case "summary" `Quick test_stats_summary;
        ] );
    ]
