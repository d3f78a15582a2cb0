module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng

let max_lanes = 64

(* The packed words are stored as PAIRS of native ints — low 32 lanes
   and high 32 lanes — rather than int64s: OCaml boxes int64 values, so
   an int64-typed sweep loop allocates on every logical op, which costs
   more than the float work it orchestrates. Native-int halves keep the
   whole hot path allocation-free; the public (int64) word/mask API
   splits and joins at the boundary only. *)

type t = {
  ising : Ising.t;
  row_ptr : int array;
  col : int array;
  value : float array;
  n : int;
  lanes : int;
  lane_lo : int; (* low-half lane mask: bits 0..min(lanes,32)-1 *)
  lane_hi : int; (* high-half lane mask: bits 0..lanes-33 when lanes > 32 *)
  words : int array; (* 2 per site: [2i] = low 32 lanes, [2i+1] = high 32 *)
  field : float array; (* lane-major per site: f_L(i) at [i * lanes + L] *)
  energy : float array; (* one tracked H(s) per lane *)
  refresh_every : int; (* accepted lane-flips between refreshes; 0 = never *)
  mutable flips : int;
  (* Per-state scratch (a state lives on one domain, like Fields): *)
  lane_buf : int array; (* set lanes of a mask, ascending *)
  sign_buf : float array; (* 2 * new_sign per set lane *)
  x_buf : float array; (* per-lane scaled delta beta*delta, bucketed accept only *)
  min_x : float array; (* one cell: the smallest x_buf entry, settle_geometric's input *)
  mutable acc_lo : int; (* settle_geometric's result halves: fields, not a tuple, *)
  mutable acc_hi : int; (* so a settled site allocates nothing *)
}

(* ------------------------------------------------------------------ *)
(* Bit twiddling on 32-bit halves held in native ints *)

let half_mask = 0xFFFFFFFF

(* Index of the lowest set bit of a 32-bit value via de Bruijn
   multiplication — no ctz intrinsic in the stdlib, and a shift-probe
   loop per neighbor would dominate the flip loop. The multiply is done
   in 63-bit native arithmetic, so the truncation the classic 32-bit
   trick relies on is an explicit mask. *)
let db32 = 0x077CB531

let ntz32_table =
  let tbl = Array.make 32 0 in
  for i = 0 to 31 do
    tbl.(((1 lsl i) * db32 land half_mask) lsr 27) <- i
  done;
  tbl

let ntz32 v = Array.unsafe_get ntz32_table (((v land -v) * db32 land half_mask) lsr 27)

(* Appends the set-bit positions of half [v], offset by [base] lanes,
   to [buf] starting at [c]; returns the new count. Ascending order. *)
let decompose_half v base buf c =
  let c = ref c in
  let m = ref v in
  while !m <> 0 do
    buf.(!c) <- base + ntz32 !m;
    incr c;
    m := !m land (!m - 1)
  done;
  !c

let split64 w = (Int64.to_int (Int64.logand w 0xFFFFFFFFL), Int64.to_int (Int64.shift_right_logical w 32))
let join64 lo hi = Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32)

(* ------------------------------------------------------------------ *)
(* Construction and refresh *)

let word t i = join64 t.words.(2 * i) t.words.((2 * i) + 1)

(* lane sign as a float, from the two halves of a word *)
let sign_of lo hi l =
  let b = if l < 32 then (lo lsr l) land 1 else (hi lsr (l - 32)) land 1 in
  if b = 1 then 1. else -1.

(* Per-lane float-operation order matches the scalar kernel exactly:
   fields fold h_i then the CSR row in k order (Ising.local_field),
   energies fold h_i s_i then the j > i couplers in CSR order
   (Ising.energy). Each lane therefore tracks the very same float values
   a scalar Fields state over that lane's spins would. *)
let recompute t =
  let lanes = t.lanes in
  let off = Ising.offset t.ising in
  for l = 0 to lanes - 1 do
    t.energy.(l) <- off
  done;
  for i = 0 to t.n - 1 do
    let base = i * lanes in
    let h = Ising.field t.ising i in
    let ilo = t.words.(2 * i) and ihi = t.words.((2 * i) + 1) in
    for l = 0 to lanes - 1 do
      t.field.(base + l) <- h;
      t.energy.(l) <- t.energy.(l) +. (h *. sign_of ilo ihi l)
    done;
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = t.col.(k) in
      let v = t.value.(k) in
      let jlo = t.words.(2 * j) and jhi = t.words.((2 * j) + 1) in
      for l = 0 to lanes - 1 do
        t.field.(base + l) <- t.field.(base + l) +. (v *. sign_of jlo jhi l)
      done;
      if j > i then begin
        (* s_i s_j = +1 iff the bits agree *)
        let aglo = lnot (ilo lxor jlo) and aghi = lnot (ihi lxor jhi) in
        for l = 0 to lanes - 1 do
          let a = if l < 32 then (aglo lsr l) land 1 else (aghi lsr (l - 32)) land 1 in
          t.energy.(l) <- t.energy.(l) +. (if a = 1 then v else -.v)
        done
      end
    done
  done;
  t.flips <- 0

let pack t spins_array =
  Array.iteri
    (fun l s ->
      if Bitvec.length s <> t.n then
        invalid_arg
          (Printf.sprintf "Multispin: lane %d has %d spins, problem has %d" l (Bitvec.length s)
             t.n))
    spins_array;
  Array.fill t.words 0 (Array.length t.words) 0;
  for i = 0 to t.n - 1 do
    let lo = ref 0 and hi = ref 0 in
    Array.iteri
      (fun l s ->
        if Bitvec.get s i then
          if l < 32 then lo := !lo lor (1 lsl l) else hi := !hi lor (1 lsl (l - 32)))
      spins_array;
    t.words.(2 * i) <- !lo;
    t.words.((2 * i) + 1) <- !hi
  done

let create ?(refresh_every = 0) ising spins_array =
  if refresh_every < 0 then
    invalid_arg
      (Printf.sprintf "Multispin: refresh_every %d is negative (0 means never refresh)"
         refresh_every);
  let lanes = Array.length spins_array in
  if lanes < 1 || lanes > max_lanes then
    invalid_arg (Printf.sprintf "Multispin: %d lanes outside [1,%d]" lanes max_lanes);
  let n = Ising.num_spins ising in
  let row_ptr, col, value = Ising.csr ising in
  let t =
    {
      ising;
      row_ptr;
      col;
      value;
      n;
      lanes;
      lane_lo = (if lanes >= 32 then half_mask else (1 lsl lanes) - 1);
      lane_hi = (if lanes <= 32 then 0 else (1 lsl (lanes - 32)) - 1);
      words = Array.make (max 1 (2 * n)) 0;
      field = Array.make (max 1 (n * lanes)) 0.;
      energy = Array.make lanes 0.;
      refresh_every;
      flips = 0;
      lane_buf = Array.make lanes 0;
      sign_buf = Array.make lanes 0.;
      x_buf = Array.make lanes 0.;
      min_x = [| infinity |];
      acc_lo = 0;
      acc_hi = 0;
    }
  in
  pack t spins_array;
  recompute t;
  t

let problem t = t.ising
let num_spins t = t.n
let lanes t = t.lanes
let lane_mask t = join64 t.lane_lo t.lane_hi
let energy t l = t.energy.(l)
let energies t = Array.copy t.energy
let field t i l = t.field.((i * t.lanes) + l)

let best_lane t =
  let best = ref 0 in
  for l = 1 to t.lanes - 1 do
    if t.energy.(l) < t.energy.(!best) then best := l
  done;
  !best

let lane_spins t l =
  if l < 0 || l >= t.lanes then
    invalid_arg (Printf.sprintf "Multispin.lane_spins: lane %d outside [0,%d)" l t.lanes);
  if l < 32 then Bitvec.init t.n (fun i -> (t.words.(2 * i) lsr l) land 1 = 1)
  else Bitvec.init t.n (fun i -> (t.words.((2 * i) + 1) lsr (l - 32)) land 1 = 1)

let reset t spins_array =
  if Array.length spins_array <> t.lanes then
    invalid_arg
      (Printf.sprintf "Multispin.reset: %d assignments for %d lanes" (Array.length spins_array)
         t.lanes);
  pack t spins_array;
  recompute t

let refresh t = recompute t

(* Same expression shape as Fields.delta so a lane and a scalar kernel
   over the same trajectory agree bit-for-bit. *)
let delta t i l =
  -2. *. sign_of t.words.(2 * i) t.words.((2 * i) + 1) l *. t.field.((i * t.lanes) + l)

let deltas t i buf =
  let lanes = t.lanes in
  let base = i * lanes in
  let lo = t.words.(2 * i) and hi = t.words.((2 * i) + 1) in
  let top = if lanes < 32 then lanes - 1 else 31 in
  for l = 0 to top do
    let s = if (lo lsr l) land 1 = 1 then 2. else -2. in
    Array.unsafe_set buf l (-.s *. Array.unsafe_get t.field (base + l))
  done;
  for l = 32 to lanes - 1 do
    let s = if (hi lsr (l - 32)) land 1 = 1 then 2. else -2. in
    Array.unsafe_set buf l (-.s *. Array.unsafe_get t.field (base + l))
  done

let drift t =
  let worst = ref 0. in
  for l = 0 to t.lanes - 1 do
    let e = Ising.energy t.ising (lane_spins t l) in
    worst := Float.max !worst (Float.abs (t.energy.(l) -. e))
  done;
  !worst

(* ------------------------------------------------------------------ *)
(* Word-wide flip *)

(* Applies a native-halves flip mask at site [i]; returns the number of
   flipped lanes. The masks must already be restricted to live lanes. *)
let flip_halves t i mlo mhi =
  if mlo lor mhi = 0 then 0
  else begin
    let lanes = t.lanes in
    let base = i * lanes in
    let ilo = t.words.(2 * i) and ihi = t.words.((2 * i) + 1) in
    let c = decompose_half mhi 32 t.lane_buf (decompose_half mlo 0 t.lane_buf 0) in
    for idx = 0 to c - 1 do
      let l = Array.unsafe_get t.lane_buf idx in
      let s = sign_of ilo ihi l in
      t.energy.(l) <- t.energy.(l) +. (-2. *. s *. Array.unsafe_get t.field (base + l));
      (* the new sign is -s; neighbors add J_ij * 2 * new_s_i *)
      Array.unsafe_set t.sign_buf idx (2. *. -.s)
    done;
    t.words.(2 * i) <- ilo lxor mlo;
    t.words.((2 * i) + 1) <- ihi lxor mhi;
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let jbase = Array.unsafe_get t.col k * lanes in
      let v = Array.unsafe_get t.value k in
      for idx = 0 to c - 1 do
        let slot = jbase + Array.unsafe_get t.lane_buf idx in
        Array.unsafe_set t.field slot
          (Array.unsafe_get t.field slot +. (v *. Array.unsafe_get t.sign_buf idx))
      done
    done;
    t.flips <- t.flips + c;
    if t.refresh_every > 0 && t.flips >= t.refresh_every then recompute t;
    c
  end

let flip t i mask =
  let mlo, mhi = split64 mask in
  ignore (flip_halves t i (mlo land t.lane_lo) (mhi land t.lane_hi))

(* ------------------------------------------------------------------ *)
(* Bulk Metropolis acceptance *)

let ln2 = Float.log 2.

(* Exact Metropolis for all lanes from O(log lanes) PRNG words: classify
   each positive scaled delta x = beta * delta into its octave
   m = floor(x / ln 2), so the acceptance probability p = exp(-x) lies in
   (2^-(m+1), 2^-m]. The uniform u each lane would compare against is
   materialized lazily, one binary digit for every lane at once per
   bits64 draw: lane L's first set bit at draw g means u in
   [2^-(g+1), 2^-g). Then g > m accepts outright, g < m rejects outright,
   and only the boundary octave g = m pays a float draw and an exp — one
   compare per settled lane instead of one draw and one exp per lane.
   The accept distribution is exactly the scalar kernel's; only the PRNG
   consumption pattern differs. *)
(* g * ln2 for g in 0..63, so settle rounds compare x against octave
   boundaries with a table load instead of an int_of_float in the per
   lane phase-1 loop. *)
let ln2_steps = Array.init 64 (fun g -> float_of_int g *. ln2)

(* Bulk-draw state: a nested xoshiro128++ held in four native ints,
   seeded from the caller's [Prng.t] (two bits64 draws), so runs stay
   deterministic in the usual stream discipline. Every draw is
   allocation-free 32-bit native arithmetic, inlined into the sweep
   below. [Prng] no longer boxes either; this generator stays because
   its stream defines the packed samples — replacing it would change
   every bucketed [Sa.run_packed] result. *)
type draws = { mutable d0 : int; mutable d1 : int; mutable d2 : int; mutable d3 : int }

let draws rng =
  let w0 = Prng.bits64 rng and w1 = Prng.bits64 rng in
  let lo w = Int64.to_int (Int64.logand w 0xFFFFFFFFL) in
  let hi w = Int64.to_int (Int64.shift_right_logical w 32) in
  let d = { d0 = lo w0; d1 = hi w0; d2 = lo w1; d3 = hi w1 } in
  (* xoshiro needs a nonzero state *)
  if d.d0 lor d.d1 lor d.d2 lor d.d3 = 0 then d.d3 <- 1;
  d

let rotl32 x k = ((x lsl k) lor (x lsr (32 - k))) land half_mask

let next32 d =
  let result = (rotl32 ((d.d0 + d.d3) land half_mask) 7 + d.d0) land half_mask in
  let t = (d.d1 lsl 9) land half_mask in
  d.d2 <- d.d2 lxor d.d0;
  d.d3 <- d.d3 lxor d.d1;
  d.d1 <- d.d1 lxor d.d2;
  d.d0 <- d.d0 lxor d.d3;
  d.d2 <- d.d2 lxor t;
  d.d3 <- rotl32 d.d3 11;
  result

(* 53-bit uniform in [0,1) from two 32-bit words: 27 high + 26 low.
   Inlined, so the float is compared unboxed: as a call it would box
   its result at every boundary-octave lane. *)
let[@inline] float53 d =
  let a = next32 d in
  let b = next32 d in
  float_of_int (((a lsr 5) * 67108864) + (b lsr 6)) *. 0x1.0p-53

(* Phase 2 of the bucketed decision: reveal each undecided lane's
   uniform one octave per round word — every lane settles at its first
   set bit, at round g meaning u in [2^-(g+1), 2^-g). Scaled deltas come
   from [x_buf] (phase 1 fills it, and their minimum into [min_x.(0)]);
   [acc_lo]/[acc_hi] carry the already-settled downhill accepts in.
   Leaves the final accept halves in [t.acc_lo]/[t.acc_hi]: a float
   argument or a tuple result would be boxed at every site. The settled
   decision: x <= g ln2 (p >= 2^-g > u) accepts, x >= (g+1) ln2
   (p <= 2^-(g+1) <= u) rejects, and the boundary octave pays one float
   draw and one exp. The refine
   inequality v < p 2^(g+1) - 1 is the exact accept condition for ANY u
   in the octave, so the threshold compares are shortcuts, not
   approximations — and when even the smallest x exceeds the round's
   upper boundary every hit lane rejects, so the whole per-lane pass is
   skipped (the common case once the system is cold). *)
let settle_geometric t ~d ~rem_lo ~rem_hi ~acc_lo ~acc_hi =
  let min_x = t.min_x.(0) in
  let rem_lo = ref rem_lo and rem_hi = ref rem_hi in
  let acc_lo = ref acc_lo and acc_hi = ref acc_hi in
  let g = ref 0 in
  while !rem_lo lor !rem_hi <> 0 do
    if !g >= 62 then begin
      (* The remaining lanes' uniforms are conditionally below 2^-62;
         finish each with one exact conditional draw. *)
      let c = decompose_half !rem_hi 32 t.lane_buf (decompose_half !rem_lo 0 t.lane_buf 0) in
      for idx = 0 to c - 1 do
        let l = t.lane_buf.(idx) in
        if float53 d < Float.exp ((float_of_int !g *. ln2) -. t.x_buf.(l)) then
          if l < 32 then acc_lo := !acc_lo lor (1 lsl l)
          else acc_hi := !acc_hi lor (1 lsl (l - 32))
      done;
      rem_lo := 0;
      rem_hi := 0
    end
    else begin
      let wlo = next32 d in
      let whi = if !rem_hi <> 0 then next32 d else 0 in
      let hi_step = Array.unsafe_get ln2_steps (!g + 1) in
      if min_x < hi_step then begin
        let lo_step = Array.unsafe_get ln2_steps !g in
        let m = ref (!rem_lo land wlo) in
        while !m <> 0 do
          let l = ntz32 !m in
          m := !m land (!m - 1);
          let x = Array.unsafe_get t.x_buf l in
          if x <= lo_step then acc_lo := !acc_lo lor (1 lsl l)
          else if x < hi_step then begin
            (* u = 2^-(g+1) (1 + v) with v uniform: accept iff
               v < p * 2^(g+1) - 1 *)
            if float53 d < (Float.exp (-.x) *. Float.ldexp 1. (!g + 1)) -. 1. then
              acc_lo := !acc_lo lor (1 lsl l)
          end
        done;
        let m = ref (!rem_hi land whi) in
        while !m <> 0 do
          let b = ntz32 !m in
          m := !m land (!m - 1);
          let x = Array.unsafe_get t.x_buf (b + 32) in
          if x <= lo_step then acc_hi := !acc_hi lor (1 lsl b)
          else if x < hi_step then begin
            if float53 d < (Float.exp (-.x) *. Float.ldexp 1. (!g + 1)) -. 1. then
              acc_hi := !acc_hi lor (1 lsl b)
          end
        done
      end;
      (* whether or not any lane could accept, every hit lane's fate is
         sealed this round (x >= hi_step for all of them when the pass
         was skipped -> reject) *)
      rem_lo := !rem_lo land lnot wlo;
      rem_hi := !rem_hi land lnot whi;
      incr g
    end
  done;
  t.acc_lo <- !acc_lo;
  t.acc_hi <- !acc_hi

let accept_mask t ~draws:d ?only ~betas deltas =
  let lanes = t.lanes in
  let only_lo, only_hi =
    match only with
    | None -> (t.lane_lo, t.lane_hi)
    | Some m ->
      let lo, hi = split64 m in
      (lo land t.lane_lo, hi land t.lane_hi)
  in
  let acc_lo = ref 0 and acc_hi = ref 0 in
  let rem_lo = ref 0 and rem_hi = ref 0 in
  let min_x = ref infinity in
  (* Phase 1: settle downhill lanes, stash the scaled uphill deltas. *)
  let top = if lanes < 32 then lanes - 1 else 31 in
  for l = 0 to top do
    if (only_lo lsr l) land 1 = 1 then begin
      let x = Array.unsafe_get betas l *. Array.unsafe_get deltas l in
      if x <= 0. then acc_lo := !acc_lo lor (1 lsl l)
      else begin
        Array.unsafe_set t.x_buf l x;
        min_x := Float.min !min_x x;
        rem_lo := !rem_lo lor (1 lsl l)
      end
    end
  done;
  for l = 32 to lanes - 1 do
    if (only_hi lsr (l - 32)) land 1 = 1 then begin
      let x = Array.unsafe_get betas l *. Array.unsafe_get deltas l in
      if x <= 0. then acc_hi := !acc_hi lor (1 lsl (l - 32))
      else begin
        Array.unsafe_set t.x_buf l x;
        min_x := Float.min !min_x x;
        rem_hi := !rem_hi lor (1 lsl (l - 32))
      end
    end
  done;
  t.min_x.(0) <- !min_x;
  settle_geometric t ~d ~rem_lo:!rem_lo ~rem_hi:!rem_hi ~acc_lo:!acc_lo ~acc_hi:!acc_hi;
  join64 t.acc_lo t.acc_hi

(* Branchless per-lane sign select: indexing a 2-entry float array by
   the spin bit avoids a data-dependent branch the predictor cannot
   learn (the pattern is the spin configuration itself). *)
let neg2_of_bit = [| 2.; -2. |]

(* Whole-sweep fused path: deltas, bucketed acceptance and the flip are
   one pass per site with no packing/unpacking at the API boundary and
   no intermediate delta buffer — what [Sa.run_packed]'s fast path runs.
   Uniform beta across lanes, [betas.(sweep)] (a β schedule step, read
   in place like Fields.metropolis_sweep's). Returns accepted
   lane-flips. *)
let metropolis_sweep t ~draws:d ~betas ~sweep =
  let beta = betas.(sweep) in
  let lanes = t.lanes in
  let accepted = ref 0 in
  let top = if lanes < 32 then lanes - 1 else 31 in
  for i = 0 to t.n - 1 do
    let base = i * lanes in
    let ilo = Array.unsafe_get t.words (2 * i) and ihi = Array.unsafe_get t.words ((2 * i) + 1) in
    let acc_lo = ref 0 and acc_hi = ref 0 in
    let rem_lo = ref 0 and rem_hi = ref 0 in
    let min_x = ref infinity in
    for l = 0 to top do
      (* -2s, branchlessly: bit 1 -> -2., bit 0 -> +2. *)
      let ns = Array.unsafe_get neg2_of_bit ((ilo lsr l) land 1) in
      let x = beta *. (ns *. Array.unsafe_get t.field (base + l)) in
      if x <= 0. then acc_lo := !acc_lo lor (1 lsl l)
      else begin
        Array.unsafe_set t.x_buf l x;
        min_x := Float.min !min_x x;
        rem_lo := !rem_lo lor (1 lsl l)
      end
    done;
    for l = 32 to lanes - 1 do
      let ns = Array.unsafe_get neg2_of_bit ((ihi lsr (l - 32)) land 1) in
      let x = beta *. (ns *. Array.unsafe_get t.field (base + l)) in
      if x <= 0. then acc_hi := !acc_hi lor (1 lsl (l - 32))
      else begin
        Array.unsafe_set t.x_buf l x;
        min_x := Float.min !min_x x;
        rem_hi := !rem_hi lor (1 lsl (l - 32))
      end
    done;
    t.min_x.(0) <- !min_x;
    settle_geometric t ~d ~rem_lo:!rem_lo ~rem_hi:!rem_hi ~acc_lo:!acc_lo ~acc_hi:!acc_hi;
    accepted := !accepted + flip_halves t i t.acc_lo t.acc_hi
  done;
  !accepted

(* Lockstep acceptance: lane L consumes draws from rngs.(L) with exactly
   the scalar sweep's conditional-draw discipline and float expressions,
   so a lane's trajectory is bit-identical to a scalar read running on
   Fields with the same stream. *)
let accept_mask_lockstep t ~rngs ~betas deltas =
  let lanes = t.lanes in
  let acc_lo = ref 0 and acc_hi = ref 0 in
  let top = if lanes < 32 then lanes - 1 else 31 in
  for l = 0 to top do
    let d = deltas.(l) in
    if d <= 0. || Prng.float rngs.(l) < Float.exp (-.betas.(l) *. d) then
      acc_lo := !acc_lo lor (1 lsl l)
  done;
  for l = 32 to lanes - 1 do
    let d = deltas.(l) in
    if d <= 0. || Prng.float rngs.(l) < Float.exp (-.betas.(l) *. d) then
      acc_hi := !acc_hi lor (1 lsl (l - 32))
  done;
  join64 !acc_lo !acc_hi
