module Bitvec = Qsmt_util.Bitvec
module Ascii7 = Qsmt_util.Ascii7
module Constr = Qsmt_strtheory.Constr
module Semantics = Qsmt_strtheory.Semantics
module Dfa = Qsmt_regex.Dfa

let validate_exn c =
  match Constr.validate c with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Bitblast.encode: " ^ msg)

(* Clause fragment: bit [i] of character [j] must equal bit [i] of [c]. *)
let char_bit_literal ~char_index ~bit c =
  let v = Ascii7.var_of ~char_index ~bit in
  if (Ascii7.char_to_bits c).(bit) then Cnf.pos v else Cnf.neg v

(* Literals asserting "character at char_index differs from c" (the
   negation of a 7-bit equality), for use inside implication clauses. *)
let char_differs_literals ~char_index c =
  List.init 7 (fun bit -> Cnf.negate (char_bit_literal ~char_index ~bit c))

let fixed_string_clauses target = Cnf.unit_bits (Ascii7.encode target)

let encode_contains ~length ~substring =
  let n = length and m = String.length substring in
  let bits = 7 * n in
  let positions = n - m + 1 in
  let selector p = bits + p in
  let selectors = List.init positions selector in
  let clauses = ref (Cnf.exactly_one selectors) in
  for p = 0 to positions - 1 do
    String.iteri
      (fun j c ->
        for bit = 0 to 6 do
          clauses :=
            [ Cnf.neg (selector p); char_bit_literal ~char_index:(p + j) ~bit c ] :: !clauses
        done)
      substring
  done;
  Cnf.create ~num_vars:(bits + positions) !clauses

let encode_includes ~haystack ~needle =
  let n = String.length haystack and m = String.length needle in
  let positions = n - m + 1 in
  let clauses = ref (Cnf.exactly_one (List.init positions (fun p -> p))) in
  for p = 0 to positions - 1 do
    if not (Semantics.occurs_at haystack ~sub:needle p) then clauses := [ Cnf.neg p ] :: !clauses
  done;
  Cnf.create ~num_vars:positions !clauses

let encode_indexof ~length ~substring ~index =
  let clauses = ref [] in
  String.iteri
    (fun j c ->
      for bit = 0 to 6 do
        clauses := [ char_bit_literal ~char_index:(index + j) ~bit c ] :: !clauses
      done)
    substring;
  Cnf.create ~num_vars:(7 * length) !clauses

let encode_palindrome ~length =
  let clauses = ref [] in
  for j = 0 to (length / 2) - 1 do
    for bit = 0 to 6 do
      let front = Ascii7.var_of ~char_index:j ~bit in
      let back = Ascii7.var_of ~char_index:(length - 1 - j) ~bit in
      clauses := Cnf.iff front back @ !clauses
    done
  done;
  (* a trivial tautology keeps the formula non-empty for length <= 1 *)
  let clauses = if !clauses = [] && length > 0 then [ [ Cnf.pos 0; Cnf.neg 0 ] ] else !clauses in
  Cnf.create ~num_vars:(max 1 (7 * length)) clauses

let encode_has_length ~num_chars ~target_length =
  let bits =
    Bitvec.init (7 * num_chars) (fun i -> i < 7 * target_length)
  in
  Cnf.create ~num_vars:(max 1 (7 * num_chars)) (Cnf.unit_bits bits)

let encode_regex ~pattern ~length =
  let dfa = Dfa.of_syntax pattern in
  let num_states = Dfa.num_states dfa in
  let char_bits = 7 * length in
  (* state variable: step k (0..length), DFA state s *)
  let state_var k s = char_bits + (k * num_states) + s in
  let clauses = ref [] in
  clauses := [ Cnf.pos (state_var 0 (Dfa.start_state dfa)) ] :: !clauses;
  for k = 0 to length do
    let vars = List.init num_states (state_var k) in
    clauses := Cnf.exactly_one vars @ !clauses
  done;
  for k = 0 to length - 1 do
    for s = 0 to num_states - 1 do
      for code = 0 to 127 do
        let c = Char.chr code in
        let differs = char_differs_literals ~char_index:k c in
        match Dfa.transition dfa s c with
        | Some target ->
          clauses :=
            ((Cnf.neg (state_var k s) :: differs) @ [ Cnf.pos (state_var (k + 1) target) ])
            :: !clauses
        | None ->
          (* dead transition: state s cannot read c *)
          clauses := (Cnf.neg (state_var k s) :: differs) :: !clauses
      done
    done
  done;
  (* acceptance at step [length] *)
  let accepting =
    List.filter_map
      (fun s -> if Dfa.is_accepting dfa s then Some (Cnf.pos (state_var length s)) else None)
      (List.init num_states Fun.id)
  in
  clauses := (if accepting = [] then [ [ Cnf.pos 0 ]; [ Cnf.neg 0 ] ] else [ accepting ]) @ !clauses;
  Cnf.create ~num_vars:(max 1 (char_bits + ((length + 1) * num_states))) !clauses

let encode c =
  (* Regex skips Constr.validate: that check enforces the QUBO encoder's
     product-form restriction, but the unrolled-DFA encoding here is
     complete for every regex and every (non-negative) length. *)
  (match c with
  | Constr.Regex { length; _ } ->
    if length < 0 then invalid_arg "Bitblast.encode: negative regex length"
  | _ -> validate_exn c);
  match c with
  | Constr.Equals s -> Cnf.create ~num_vars:(max 1 (7 * String.length s)) (fixed_string_clauses s)
  | Constr.Concat parts ->
    let s = Semantics.concat parts in
    Cnf.create ~num_vars:(max 1 (7 * String.length s)) (fixed_string_clauses s)
  | Constr.Replace_all { source; find; replace } ->
    let s = Semantics.replace_all source ~find ~replace in
    Cnf.create ~num_vars:(max 1 (7 * String.length s)) (fixed_string_clauses s)
  | Constr.Replace_first { source; find; replace } ->
    let s = Semantics.replace_first source ~find ~replace in
    Cnf.create ~num_vars:(max 1 (7 * String.length s)) (fixed_string_clauses s)
  | Constr.Reverse source ->
    let s = Semantics.reverse source in
    Cnf.create ~num_vars:(max 1 (7 * String.length s)) (fixed_string_clauses s)
  | Constr.Contains { length; substring } -> encode_contains ~length ~substring
  | Constr.Includes { haystack; needle } -> encode_includes ~haystack ~needle
  | Constr.Index_of { length; substring; index; _ } -> encode_indexof ~length ~substring ~index
  | Constr.Has_length { num_chars; target_length } -> encode_has_length ~num_chars ~target_length
  | Constr.Palindrome { length } -> encode_palindrome ~length
  | Constr.Regex { pattern; length } -> encode_regex ~pattern ~length

let decode c model =
  match c with
  | Constr.Includes { haystack; needle } ->
    let positions = String.length haystack - String.length needle + 1 in
    let rec first p =
      if p >= positions then None else if Bitvec.get model p then Some p else first (p + 1)
    in
    Constr.Pos (first 0)
  | Constr.Regex { length; _ } ->
    (* avoid Constr.num_vars: it re-validates product-form, which this
       complete encoding does not require *)
    Constr.Str (Ascii7.decode (Bitvec.init (7 * length) (Bitvec.get model)))
  | Constr.Equals _ | Constr.Concat _ | Constr.Contains _ | Constr.Index_of _
  | Constr.Has_length _ | Constr.Replace_all _ | Constr.Replace_first _ | Constr.Reverse _
  | Constr.Palindrome _ ->
    let n = Constr.num_vars c in
    Constr.Str (Ascii7.decode (Bitvec.init n (Bitvec.get model)))
