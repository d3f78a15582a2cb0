module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng

type t = {
  ising : Ising.t;
  row_ptr : int array;
  col : int array;
  value : float array;
  mutable spins : Ising.spins;
  sign : float array;
      (* [sign.(i)] is spin [i] as [1.] or [-1.], mirroring [spins]: a
         local array read, where [Bitvec.get] is a call into another
         module on every [delta] *)
  field : float array;
  energy : float array;
      (* one cell: a float array stores it unboxed, where a mutable float
         field of this mixed record would box a new float per flip *)
  refresh_every : int; (* accepted flips between from-scratch refreshes; 0 = never *)
  mutable flips : int; (* accepted flips since the last refresh *)
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
  t.energy.(0) <- Ising.energy t.ising t.spins;
  t.flips <- 0

let check_refresh_every refresh_every =
  if refresh_every < 0 then
    invalid_arg
      (Printf.sprintf "Fields: refresh_every %d is negative (0 means never refresh)" refresh_every)

let create ?(refresh_every = 0) ising spins =
  check_refresh_every refresh_every;
  check_length ising spins;
  let row_ptr, col, value = Ising.csr ising in
  let t =
    {
      ising;
      row_ptr;
      col;
      value;
      spins;
      sign = Array.make (Ising.num_spins ising) 0.;
      field = Array.make (Ising.num_spins ising) 0.;
      energy = [| 0. |];
      refresh_every;
      flips = 0;
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

let flip t i =
  t.energy.(0) <- t.energy.(0) +. delta t i;
  Bitvec.flip t.spins i;
  let s = -.t.sign.(i) in
  t.sign.(i) <- s;
  (* s_i changed by (new - old) = 2 * new, so f_j += 2 * J_ij * new_s_i;
     f_i itself does not depend on s_i and is untouched. *)
  let two_s = 2. *. s in
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    let j = t.col.(k) in
    t.field.(j) <- t.field.(j) +. (t.value.(k) *. two_s)
  done;
  t.flips <- t.flips + 1;
  if t.refresh_every > 0 && t.flips >= t.refresh_every then recompute t

(* The scalar SA inner loop. It lives here, next to the sign and field
   arrays, so [delta] inlines and the uniform is drawn as an immediate
   int: nothing in the loop is boxed. The uniform is drawn only for
   uphill moves, and [float_of_int (Prng.bits53 rng) *. 0x1.0p-53] is
   [Prng.float rng], so the stream and every decision match a loop over
   [delta], [Prng.float] and [flip]. [beta] is fixed for the sweep, so an
   uphill delta equal to the previous one has the same acceptance
   probability: the string encodings' fields take few distinct values,
   and a run of equal deltas pays for one [exp]. *)
let metropolis_sweep t ~rng ~betas ~sweep =
  let beta = betas.(sweep) in
  let accepted = ref 0 in
  let last_d = ref Float.nan and last_p = ref 0. in
  for i = 0 to Array.length t.sign - 1 do
    let d = delta t i in
    let accept =
      d <= 0.
      ||
      (if d <> !last_d then begin
         last_d := d;
         last_p := Float.exp (-.beta *. d)
       end;
       float_of_int (Prng.bits53 rng) *. 0x1.0p-53 < !last_p)
    in
    if accept then begin
      flip t i;
      incr accepted
    end
  done;
  !accepted

let drift t = Float.abs (t.energy.(0) -. Ising.energy t.ising t.spins)

let reset t spins =
  check_length t.ising spins;
  t.spins <- spins;
  recompute t
