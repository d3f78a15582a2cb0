let bits_per_char = 7

let char_to_bits c =
  let code = Char.code c in
  if code > 127 then invalid_arg (Printf.sprintf "Ascii7.char_to_bits: %C is not 7-bit ASCII" c);
  Array.init 7 (fun i -> code land (1 lsl (6 - i)) <> 0)

let bits_to_char bits =
  if Array.length bits <> 7 then invalid_arg "Ascii7.bits_to_char: expected 7 bits";
  let code = ref 0 in
  Array.iteri (fun i b -> if b then code := !code lor (1 lsl (6 - i))) bits;
  Char.chr !code

let encode s =
  let n = String.length s in
  Bitvec.init (7 * n) (fun idx ->
      let j = idx / 7 and i = idx mod 7 in
      let code = Char.code s.[j] in
      if code > 127 then invalid_arg (Printf.sprintf "Ascii7.encode: %C is not 7-bit ASCII" s.[j]);
      code land (1 lsl (6 - i)) <> 0)

let decode_sub bits ~pos =
  let code = ref 0 in
  for i = 0 to 6 do
    if Bitvec.get bits (pos + i) then code := !code lor (1 lsl (6 - i))
  done;
  String.make 1 (Char.chr !code)

let decode bits =
  let len = Bitvec.length bits in
  if len mod 7 <> 0 then invalid_arg (Printf.sprintf "Ascii7.decode: length %d not a multiple of 7" len);
  String.init (len / 7) (fun j ->
      let code = ref 0 in
      for i = 0 to 6 do
        if Bitvec.get bits ((7 * j) + i) then code := !code lor (1 lsl (6 - i))
      done;
      Char.chr !code)

let var_of ~char_index ~bit =
  if bit < 0 || bit >= 7 then invalid_arg "Ascii7.var_of: bit out of [0,7)";
  (7 * char_index) + bit

let rec fits_from s i =
  i = String.length s || (Char.code (String.unsafe_get s i) <= 127 && fits_from s (i + 1))

let fits s = fits_from s 0

let is_printable c =
  let code = Char.code c in
  code >= 32 && code <= 126

let clamp_printable c = if is_printable c then c else '?'
