(* Two 64-bit words cover codes 0..127. word 0 holds codes 0-63. *)
type t = { lo : int64; hi : int64 }

let empty = { lo = 0L; hi = 0L }
let full = { lo = -1L; hi = -1L }

let check c =
  let code = Char.code c in
  if code > 127 then invalid_arg (Printf.sprintf "Charset: %C is not 7-bit ASCII" c);
  code

let singleton c =
  let code = check c in
  if code < 64 then { lo = Int64.shift_left 1L code; hi = 0L }
  else { lo = 0L; hi = Int64.shift_left 1L (code - 64) }

let mem c t =
  let code = check c in
  if code < 64 then Int64.logand t.lo (Int64.shift_left 1L code) <> 0L
  else Int64.logand t.hi (Int64.shift_left 1L (code - 64)) <> 0L

let union a b = { lo = Int64.logor a.lo b.lo; hi = Int64.logor a.hi b.hi }
let inter a b = { lo = Int64.logand a.lo b.lo; hi = Int64.logand a.hi b.hi }

let diff a b =
  { lo = Int64.logand a.lo (Int64.lognot b.lo); hi = Int64.logand a.hi (Int64.lognot b.hi) }

let complement t = diff full t
let add c t = union (singleton c) t
let remove c t = diff t (singleton c)
let is_empty t = t.lo = 0L && t.hi = 0L
let disjoint a b = Int64.logand a.lo b.lo = 0L && Int64.logand a.hi b.hi = 0L

let subset a b =
  Int64.logand a.lo (Int64.lognot b.lo) = 0L && Int64.logand a.hi (Int64.lognot b.hi) = 0L

let popcount64 x =
  let rec loop x acc = if x = 0L then acc else loop (Int64.logand x (Int64.sub x 1L)) (acc + 1) in
  loop x 0

let cardinal t = popcount64 t.lo + popcount64 t.hi
let equal a b = a.lo = b.lo && a.hi = b.hi
let compare a b = Stdlib.compare (a.lo, a.hi) (b.lo, b.hi)

let of_list chars = List.fold_left (fun acc c -> add c acc) empty chars

(* Codes [lo..hi] of the word whose first code is [base], as a mask. *)
let range_word base lo hi =
  let lo = max lo base and hi = min hi (base + 63) in
  if lo > hi then 0L
  else
    let upto = if hi - base = 63 then -1L else Int64.pred (Int64.shift_left 1L (hi - base + 1)) in
    Int64.logand upto (Int64.lognot (Int64.pred (Int64.shift_left 1L (lo - base))))

let of_range lo hi =
  if lo > hi then invalid_arg "Charset.of_range: lo > hi";
  (* reject the first code past 127, as adding code by code would *)
  if Char.code hi > 127 then ignore (check (Char.chr (max (Char.code lo) 128)));
  let lo = Char.code lo and hi = Char.code hi in
  { lo = range_word 0 lo hi; hi = range_word 64 lo hi }

let of_string s = String.fold_left (fun acc c -> add c acc) empty s
let printable = of_range ' ' '~'

(* The set bits of a word, lowest first: [w land (-w)] isolates the
   lowest one, and multiplying that power of two by a de Bruijn
   constant puts a distinct 6-bit pattern in the top bits, which
   [bit_index] maps back to the bit's position. *)
let debruijn = 0x03f79d71b4ca8b09L
let bit_slot low = Int64.to_int (Int64.shift_right_logical (Int64.mul low debruijn) 58)

let bit_index =
  let table = Array.make 64 0 in
  for i = 0 to 63 do
    table.(bit_slot (Int64.shift_left 1L i)) <- i
  done;
  table

let lowest w = bit_index.(bit_slot (Int64.logand w (Int64.neg w)))

let fold_word f base w acc =
  let w = ref w and acc = ref acc in
  while !w <> 0L do
    let low = Int64.logand !w (Int64.neg !w) in
    acc := f (Char.unsafe_chr (base + bit_index.(bit_slot low))) !acc;
    w := Int64.logxor !w low
  done;
  !acc

let fold f t acc = fold_word f 64 t.hi (fold_word f 0 t.lo acc)

let iter f t = fold (fun c () -> f c) t ()
let to_list t = List.rev (fold (fun c acc -> c :: acc) t [])

let choose t =
  if t.lo <> 0L then Some (Char.unsafe_chr (lowest t.lo))
  else if t.hi <> 0L then Some (Char.unsafe_chr (64 + lowest t.hi))
  else None

(* Stops at the first member [p] rejects, so [p] sees the same members
   a left-to-right scan would. *)
let for_all_word p base w =
  let w = ref w and ok = ref true in
  while !ok && !w <> 0L do
    let low = Int64.logand !w (Int64.neg !w) in
    ok := p (Char.unsafe_chr (base + bit_index.(bit_slot low)));
    w := Int64.logxor !w low
  done;
  !ok

let for_all p t = for_all_word p 0 t.lo && for_all_word p 64 t.hi

let pp ppf t =
  (* Render as ranges: [a-c x 0-9]. *)
  let chars = to_list t in
  let rec ranges = function
    | [] -> []
    | c :: rest ->
      let rec extend last = function
        | d :: more when Char.code d = Char.code last + 1 -> extend d more
        | remaining -> (last, remaining)
      in
      let last, remaining = extend c rest in
      (c, last) :: ranges remaining
  in
  let render (a, b) =
    if a = b then Printf.sprintf "%c" a
    else if Char.code b = Char.code a + 1 then Printf.sprintf "%c%c" a b
    else Printf.sprintf "%c-%c" a b
  in
  Format.fprintf ppf "[%s]" (String.concat " " (List.map render (ranges chars)))
