type t = { len : int; data : Bytes.t }

let bytes_needed n = (n + 7) / 8
let create n = { len = n; data = Bytes.make (bytes_needed n) '\000' }

let check t i name =
  if i < 0 || i >= t.len then invalid_arg (Printf.sprintf "Bitvec.%s: index %d out of [0,%d)" name i t.len)

let unsafe_get t i =
  let byte = Char.code (Bytes.unsafe_get t.data (i lsr 3)) in
  byte land (1 lsl (i land 7)) <> 0

let get t i =
  check t i "get";
  unsafe_get t i

let unsafe_set t i b =
  let idx = i lsr 3 in
  let byte = Char.code (Bytes.unsafe_get t.data idx) in
  let mask = 1 lsl (i land 7) in
  let byte' = if b then byte lor mask else byte land lnot mask in
  Bytes.unsafe_set t.data idx (Char.unsafe_chr byte')

let set t i b =
  check t i "set";
  unsafe_set t i b

let flip t i =
  check t i "flip";
  unsafe_set t i (not (unsafe_get t i))

let init n f =
  let t = create n in
  for i = 0 to n - 1 do
    unsafe_set t i (f i)
  done;
  t

let length t = t.len
let copy t = { len = t.len; data = Bytes.copy t.data }

let fill t b =
  Bytes.fill t.data 0 (Bytes.length t.data) (if b then '\xff' else '\000');
  (* Clear the unused tail bits so equality/popcount stay canonical. *)
  if b && t.len land 7 <> 0 then begin
    let last = Bytes.length t.data - 1 in
    let keep = (1 lsl (t.len land 7)) - 1 in
    Bytes.set t.data last (Char.chr (Char.code (Bytes.get t.data last) land keep))
  end

let equal a b = a.len = b.len && Bytes.equal a.data b.data

let compare a b =
  let c = Stdlib.compare a.len b.len in
  if c <> 0 then c else Bytes.compare a.data b.data

let hash t = Hashtbl.hash (t.len, t.data)

let popcount_byte =
  let tbl = Array.make 256 0 in
  for i = 1 to 255 do
    tbl.(i) <- tbl.(i lsr 1) + (i land 1)
  done;
  fun c -> tbl.(Char.code c)

let popcount t =
  let n = ref 0 in
  Bytes.iter (fun c -> n := !n + popcount_byte c) t.data;
  !n

let hamming a b =
  if a.len <> b.len then invalid_arg "Bitvec.hamming: length mismatch";
  let n = ref 0 in
  for i = 0 to Bytes.length a.data - 1 do
    let x = Char.code (Bytes.get a.data i) lxor Char.code (Bytes.get b.data i) in
    n := !n + popcount_byte (Char.chr x)
  done;
  !n

let to_bool_array t = Array.init t.len (unsafe_get t)

let of_bool_array a =
  let t = create (Array.length a) in
  Array.iteri (fun i b -> unsafe_set t i b) a;
  t

let to_string t = String.init t.len (fun i -> if unsafe_get t i then '1' else '0')

let of_string s =
  init (String.length s) (fun i ->
      match s.[i] with
      | '1' -> true
      | '0' -> false
      | c -> invalid_arg (Printf.sprintf "Bitvec.of_string: bad char %C" c))

let random rng n = init n (fun _ -> Prng.bool rng)
let pp ppf t = Format.pp_print_string ppf (to_string t)
