(* The xoshiro256** state s0..s3, as four native-endian int64s in one
   32-byte buffer. A record of mutable int64 fields would box a fresh
   Int64 on every store; reading the words into local lets and writing
   them back with [Bytes.set_int64_ne] keeps them unboxed, so advancing
   the state allocates nothing. *)
type t = Bytes.t

(* SplitMix64: used only to expand a seed into the four xoshiro words, and
   to implement [split]. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_splitmix state =
  let s0 = splitmix_next state in
  let s1 = splitmix_next state in
  let s2 = splitmix_next state in
  let s3 = splitmix_next state in
  (* xoshiro requires a nonzero state; splitmix output is zero for at most
     one of the four draws, so forcing one word nonzero is enough. *)
  let s3 = if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then 1L else s3 in
  let t = Bytes.create 32 in
  Bytes.set_int64_ne t 0 s0;
  Bytes.set_int64_ne t 8 s1;
  Bytes.set_int64_ne t 16 s2;
  Bytes.set_int64_ne t 24 s3;
  t

let create seed = of_splitmix (ref (Int64.of_int seed))

(* Weyl-sequence stream derivation: the full 64-bit golden-ratio constant
   (2^64/phi). The multiply must happen in Int64 — the constant does not
   fit in OCaml's 63-bit native int, and truncating it (as earlier code
   did) measurably correlates adjacent streams. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let stream ~seed k =
  if k < 0 then invalid_arg "Prng.stream: negative stream index";
  let mixed =
    Int64.logxor (Int64.of_int seed) (Int64.mul (Int64.of_int (k + 1)) golden_gamma)
  in
  of_splitmix (ref mixed)

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step. Inlined into every draw below, so the int64
   result stays unboxed until a caller outside this module receives it. *)
let[@inline] bits64 t =
  let open Int64 in
  let s0 = Bytes.get_int64_ne t 0 and s1 = Bytes.get_int64_ne t 8 in
  let s2 = Bytes.get_int64_ne t 16 and s3 = Bytes.get_int64_ne t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  Bytes.set_int64_ne t 0 s0;
  Bytes.set_int64_ne t 8 s1;
  Bytes.set_int64_ne t 16 (logxor s2 tmp);
  Bytes.set_int64_ne t 24 (rotl s3 45);
  result

let bits53 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 11)

let split t =
  let seed = bits64 t in
  of_splitmix (ref seed)

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling over the 62-bit draw domain keeps the result
     unbiased: draws at or above the largest multiple of [bound] that fits
     in 2^62 are rejected. (The threshold must be computed against 2^62,
     not [Int64.max_int]: [r] only has 62 bits, so a 63-bit threshold can
     never fire and the modulo bias sneaks back in.) Since OCaml ints are
     63-bit, [bound <= 2^62 - 1 < domain] always holds and [limit] is
     positive. *)
  let bound = Int64.of_int n in
  let domain = Int64.shift_left 1L 62 in
  let limit = Int64.sub domain (Int64.rem domain bound) in
  let r = ref (Int64.shift_right_logical (bits64 t) 2) in
  while !r >= limit do
    r := Int64.shift_right_logical (bits64 t) 2
  done;
  Int64.to_int (Int64.rem !r bound)

(* 53 high bits scaled to [0,1). *)
let float t = float_of_int (bits53 t) *. 0x1.0p-53
let bool t = Int64.logand (bits64 t) 1L = 1L
let uniform t lo hi = lo +. ((hi -. lo) *. float t)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t (Array.length a))

let char_printable t = Char.chr (32 + int t 95)
let string_printable t n = String.init n (fun _ -> char_printable t)
let string_lowercase t n = String.init n (fun _ -> Char.chr (Char.code 'a' + int t 26))
