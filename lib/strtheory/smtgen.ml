module Syntax = Qsmt_regex.Syntax
module Charset = Qsmt_regex.Charset

let ( let* ) = Result.bind

let plain c = c >= ' ' && c <= '~' && c <> '"' && c <> '\\'
let rec all_plain s i =
  i = String.length s || (plain (String.unsafe_get s i) && all_plain s (i + 1))

let escape_string s =
  if all_plain s 0 then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if plain c then Buffer.add_char buf c
        else if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_string buf (Printf.sprintf "\\u{%02x}" (Char.code c)))
      s;
    Buffer.contents buf
  end

let str_lit s = "\"" ^ escape_string s ^ "\""

let rec regex_term r =
  match r with
  | Syntax.Epsilon -> "(str.to_re \"\")"
  | Syntax.Chars set -> charset_term set
  | Syntax.Concat [] -> "(str.to_re \"\")"
  | Syntax.Concat [ r ] -> regex_term r
  | Syntax.Concat parts ->
    Printf.sprintf "(re.++ %s)" (String.concat " " (List.map regex_term parts))
  | Syntax.Alt [] -> "(str.to_re \"\")"
  | Syntax.Alt [ r ] -> regex_term r
  | Syntax.Alt parts ->
    Printf.sprintf "(re.union %s)" (String.concat " " (List.map regex_term parts))
  | Syntax.Star r -> Printf.sprintf "(re.* %s)" (regex_term r)
  | Syntax.Plus r -> Printf.sprintf "(re.+ %s)" (regex_term r)
  | Syntax.Opt r -> Printf.sprintf "(re.opt %s)" (regex_term r)
  | Syntax.Rep (r, lo, Some hi) -> Printf.sprintf "((_ re.loop %d %d) %s)" lo hi (regex_term r)
  | Syntax.Rep (r, lo, None) ->
    Printf.sprintf "(re.++ ((_ re.loop %d %d) %s) (re.* %s))" lo lo (regex_term r) (regex_term r)

and charset_term set =
  if Charset.equal set Charset.full then "re.allchar"
  else begin
    match Charset.to_list set with
    | [] -> "(re.union)" (* unreachable for valid constraints *)
    | [ c ] -> Printf.sprintf "(str.to_re %s)" (str_lit (String.make 1 c))
    | chars ->
      (* contiguous runs become re.range, the rest a union *)
      let rec runs = function
        | [] -> []
        | c :: rest ->
          let rec extend last = function
            | d :: more when Char.code d = Char.code last + 1 -> extend d more
            | remaining -> (last, remaining)
          in
          let last, remaining = extend c rest in
          (c, last) :: runs remaining
      in
      let render (a, b) =
        if a = b then Printf.sprintf "(str.to_re %s)" (str_lit (String.make 1 a))
        else
          Printf.sprintf "(re.range %s %s)" (str_lit (String.make 1 a)) (str_lit (String.make 1 b))
      in
      match runs chars with
      | [ single ] -> render single
      | many -> Printf.sprintf "(re.union %s)" (String.concat " " (List.map render many))
  end

let assertions ~var c =
  let* () = Constr.validate c in
  let assert_ fmt = Printf.ksprintf (fun s -> Printf.sprintf "(assert %s)" s) fmt in
  let len n = assert_ "(= (str.len %s) %d)" var n in
  match c with
  | Constr.Equals s -> Ok [ assert_ "(= %s %s)" var (str_lit s) ]
  | Constr.Concat parts ->
    Ok [ assert_ "(= %s (str.++ %s))" var (String.concat " " (List.map str_lit parts)) ]
  | Constr.Contains { length; substring } ->
    Ok [ assert_ "(str.contains %s %s)" var (str_lit substring); len length ]
  | Constr.Includes { haystack; needle; _ } ->
    Ok [ assert_ "(= %s (str.indexof %s %s 0))" var (str_lit haystack) (str_lit needle) ]
  | Constr.Index_of { length; substring; index; _ } ->
    Ok [ assert_ "(= (str.indexof %s %s 0) %d)" var (str_lit substring) index; len length ]
  | Constr.Has_length _ ->
    Error "Has_length uses the paper's unary-bit semantics and has no SMT-LIB counterpart"
  | Constr.Replace_all { source; find; replace } ->
    Ok
      [
        assert_ "(= %s (str.replace_all %s %s %s))" var (str_lit source)
          (str_lit (String.make 1 find))
          (str_lit (String.make 1 replace));
      ]
  | Constr.Replace_first { source; find; replace } ->
    Ok
      [
        assert_ "(= %s (str.replace %s %s %s))" var (str_lit source)
          (str_lit (String.make 1 find))
          (str_lit (String.make 1 replace));
      ]
  | Constr.Reverse source -> Ok [ assert_ "(= %s (str.rev %s))" var (str_lit source) ]
  | Constr.Palindrome { length } -> Ok [ assert_ "(str.palindrome %s)" var; len length ]
  | Constr.Regex { pattern; length } ->
    Ok [ assert_ "(str.in_re %s %s)" var (regex_term pattern); len length ]

let script ?var c =
  let is_includes = match c with Constr.Includes _ -> true | _ -> false in
  let var = match var with Some v -> v | None -> if is_includes then "i" else "x" in
  let sort = if is_includes then "Int" else "String" in
  let* asserts = assertions ~var c in
  Ok
    (String.concat "\n"
       ((Printf.sprintf "(set-logic %s)" (if is_includes then "QF_SLIA" else "QF_S")
        :: Printf.sprintf "(declare-const %s %s)" var sort
        :: asserts)
       @ [ "(check-sat)"; Printf.sprintf "(get-value (%s))" var; "" ]))
