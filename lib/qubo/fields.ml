module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng

type t = {
  ising : Ising.t;
  row_ptr : int array;
  col : int array;
  value : float array;
  active : int array; (* Ising.active: the spins a sweep prices *)
  idle : int array; (* Ising.idle: flipped by every sweep, unpriced *)
  mutable spins : Ising.spins;
  sign : float array;
      (* [sign.(i)] is spin [i] as [1.] or [-1.], mirroring [spins]: a
         local array read, where [Bitvec.get] is a call into another
         module on every [delta] *)
  field : float array;
  energy : float array;
      (* one cell: a float array stores it unboxed, where a mutable float
         field of this mixed record would box a new float per flip *)
}

let check_length ising spins =
  let n = Ising.num_spins ising in
  if Bitvec.length spins <> n then
    invalid_arg
      (Printf.sprintf "Fields: assignment has %d spins, problem has %d" (Bitvec.length spins) n)

let recompute t =
  let n = Ising.num_spins t.ising in
  for i = 0 to n - 1 do
    t.sign.(i) <- (if Bitvec.get t.spins i then 1. else -1.);
    t.field.(i) <- Ising.local_field t.ising t.spins i
  done;
  t.energy.(0) <- Ising.energy t.ising t.spins

let create ising spins =
  check_length ising spins;
  let row_ptr, col, value = Ising.csr ising in
  let t =
    {
      ising;
      row_ptr;
      col;
      value;
      active = Ising.active ising;
      idle = Ising.idle ising;
      spins;
      sign = Array.make (Ising.num_spins ising) 0.;
      field = Array.make (Ising.num_spins ising) 0.;
      energy = [| 0. |];
    }
  in
  recompute t;
  t

let problem t = t.ising
let num_spins t = Ising.num_spins t.ising
let spins t = t.spins
let energy t = t.energy.(0)
let field t i = t.field.(i)

(* Same expression shape as Ising.flip_delta so the two agree exactly
   whenever the tracked field does. *)
let[@inline] delta t i = -2. *. t.sign.(i) *. t.field.(i)

let refresh t = recompute t

(* Toggles bit [i] in the assignment's bytes in place: [Bitvec.flip] is
   a call into another module. [i] is in bounds wherever [sign.(i)] is. *)
let[@inline] toggle_bit data i =
  let b = i lsr 3 in
  Bytes.set data b (Char.unsafe_chr (Char.code (Bytes.get data b) lxor (1 lsl (i land 7))))

(* Inlined into [metropolis_sweep]. *)
let[@inline] flip t i =
  t.energy.(0) <- t.energy.(0) +. delta t i;
  toggle_bit t.spins.Bitvec.data i;
  let s = -.t.sign.(i) in
  t.sign.(i) <- s;
  (* s_i changed by (new - old) = 2 * new, so f_j += 2 * J_ij * new_s_i;
     f_i itself does not depend on s_i and is untouched. *)
  let two_s = 2. *. s in
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    let j = t.col.(k) in
    t.field.(j) <- t.field.(j) +. (t.value.(k) *. two_s)
  done

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* The scalar SA inner loop, fused: nothing in it is a call into another
   module, and nothing is boxed. The rng's xoshiro256** words s0..s3 live
   in local int64 refs (unboxed) for the sweep; each uphill draw is the
   [Prng.bits64] step inline, taken as [Prng.bits53]'s uniform, and the
   words are written back once at the end. The uniform is drawn only for
   uphill moves, so the stream and every decision match a loop over
   [delta], [Prng.float] and [flip]. [beta] is fixed for the sweep, so an
   uphill delta equal to the previous one has the same acceptance
   probability: the string encodings' fields take few distinct values,
   and a run of equal deltas pays for one [exp].

   Only the active spins are priced. An idle spin's delta is +-0. in
   every state: that loop accepts it without a draw, and the flip
   changes no field, no other delta and (see Ising) no energy. So
   flipping every idle spin after the active pass, without touching the
   energy, ends the sweep in the state that loop reaches. *)
let metropolis_sweep t ~rng ~betas ~sweep =
  let beta = betas.(sweep) in
  let rng = (rng : Prng.t :> Bytes.t) in
  let s0 = ref (Bytes.get_int64_ne rng 0) and s1 = ref (Bytes.get_int64_ne rng 8) in
  let s2 = ref (Bytes.get_int64_ne rng 16) and s3 = ref (Bytes.get_int64_ne rng 24) in
  let active = t.active and sign = t.sign and field = t.field in
  let accepted = ref 0 in
  let last_d = ref Float.nan and last_p = ref 0. in
  for k = 0 to Array.length active - 1 do
    let i = active.(k) in
    let d = -2. *. sign.(i) *. field.(i) in
    let accept =
      d <= 0.
      ||
      (if d <> !last_d then begin
         last_d := d;
         last_p := Float.exp (-.beta *. d)
       end;
       let open Int64 in
       let x0 = !s0 and x1 = !s1 in
       let result = mul (rotl (mul x1 5L) 7) 9L in
       let x2 = logxor !s2 x0 and x3 = logxor !s3 x1 in
       s0 := logxor x0 x3;
       s1 := logxor x1 x2;
       s2 := logxor x2 (shift_left x1 17);
       s3 := rotl x3 45;
       float_of_int (to_int (shift_right_logical result 11)) *. 0x1.0p-53 < !last_p)
    in
    if accept then begin
      flip t i;
      incr accepted
    end
  done;
  Bytes.set_int64_ne rng 0 !s0;
  Bytes.set_int64_ne rng 8 !s1;
  Bytes.set_int64_ne rng 16 !s2;
  Bytes.set_int64_ne rng 24 !s3;
  let idle = t.idle and data = t.spins.Bitvec.data in
  for k = 0 to Array.length idle - 1 do
    let i = idle.(k) in
    sign.(i) <- -.sign.(i);
    toggle_bit data i
  done;
  !accepted + Array.length idle

let drift t = Float.abs (t.energy.(0) -. Ising.energy t.ising t.spins)

let reset t spins =
  check_length t.ising spins;
  t.spins <- spins;
  recompute t
