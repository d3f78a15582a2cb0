module Syntax = Qsmt_regex.Syntax
module Charset = Qsmt_regex.Charset
module Ascii7 = Qsmt_util.Ascii7

let ( let* ) = Result.bind

type value = V_str of string | V_int of int | V_bool of bool

(* SMT-LIB str.replace: first occurrence of the whole substring. The
   empty pattern matches at position 0 (prepends the replacement). *)
let replace_substring ~all s pattern replacement =
  if pattern = "" then if all then replacement ^ s else replacement ^ s
  else begin
    let plen = String.length pattern in
    let buf = Buffer.create (String.length s) in
    let rec go i replaced =
      if i > String.length s - plen then Buffer.add_string buf (String.sub s i (String.length s - i))
      else if (all || not replaced) && String.sub s i plen = pattern then begin
        Buffer.add_string buf replacement;
        go (i + plen) true
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1) replaced
      end
    in
    go 0 false;
    Buffer.contents buf
  end

let index_of_from s sub start =
  if start < 0 || start > String.length s then -1
  else begin
    let n = String.length s and m = String.length sub in
    let rec go i = if i + m > n then -1 else if String.sub s i m = sub then i else go (i + 1) in
    go start
  end

(* The 7-bit codec has no code for a character above 0x7f, so a literal
   holding one (a raw byte, or a decoded [\u{…}] escape) is unsupported:
   every front end reads literals through here, and the final model
   check evaluates every assertion here, so no verdict names one. *)
let wide_literal = Error "string literal holds a character above 0x7f (unsupported)"

let rec term ?(model = []) t =
  let eval t = term ~model t in
  let str t =
    let* v = eval t in
    match v with V_str s -> Ok s | V_int _ | V_bool _ -> Error "expected a string value"
  in
  let int t =
    let* v = eval t in
    match v with V_int n -> Ok n | V_str _ | V_bool _ -> Error "expected an integer value"
  in
  let boolean t =
    let* v = eval t in
    match v with V_bool b -> Ok b | V_str _ | V_int _ -> Error "expected a boolean value"
  in
  match t with
  | Ast.Str s -> if Ascii7.fits s then Ok (V_str s) else wide_literal
  | Ast.Int n -> Ok (V_int n)
  | Ast.Bool b -> Ok (V_bool b)
  | Ast.Var v -> begin
    match List.assoc_opt v model with
    | Some value -> Ok value
    | None -> Error (Printf.sprintf "cannot evaluate free variable %s" v)
  end
  | Ast.App ("str.++", args) ->
    let* parts =
      List.fold_left
        (fun acc a ->
          let* acc = acc in
          let* s = str a in
          Ok (s :: acc))
        (Ok []) args
    in
    Ok (V_str (String.concat "" (List.rev parts)))
  | Ast.App ("str.len", [ s ]) ->
    let* s = str s in
    Ok (V_int (String.length s))
  | Ast.App ("str.replace", [ s; pat; rep ]) ->
    let* s = str s in
    let* pat = str pat in
    let* rep = str rep in
    Ok (V_str (replace_substring ~all:false s pat rep))
  | Ast.App ("str.replace_all", [ s; pat; rep ]) ->
    let* s = str s in
    let* pat = str pat in
    let* rep = str rep in
    if pat = "" then Ok (V_str s) (* SMT-LIB: replace_all with "" is identity *)
    else Ok (V_str (replace_substring ~all:true s pat rep))
  | Ast.App ("str.contains", [ s; sub ]) ->
    let* s = str s in
    let* sub = str sub in
    Ok (V_bool (index_of_from s sub 0 >= 0))
  | Ast.App ("str.prefixof", [ pre; s ]) ->
    let* pre = str pre in
    let* s = str s in
    Ok
      (V_bool
         (String.length pre <= String.length s && String.sub s 0 (String.length pre) = pre))
  | Ast.App ("str.suffixof", [ suf; s ]) ->
    let* suf = str suf in
    let* s = str s in
    let ls = String.length s and lf = String.length suf in
    Ok (V_bool (lf <= ls && String.sub s (ls - lf) lf = suf))
  | Ast.App ("str.indexof", [ s; sub; start ]) ->
    let* s = str s in
    let* sub = str sub in
    let* start = int start in
    Ok (V_int (index_of_from s sub start))
  | Ast.App ("str.at", [ s; i ]) ->
    let* s = str s in
    let* i = int i in
    if i >= 0 && i < String.length s then Ok (V_str (String.make 1 s.[i])) else Ok (V_str "")
  | Ast.App ("str.substr", [ s; i; len ]) ->
    let* s = str s in
    let* i = int i in
    let* len = int len in
    if i < 0 || len < 0 || i >= String.length s then Ok (V_str "")
    else Ok (V_str (String.sub s i (min len (String.length s - i))))
  | Ast.App ("str.rev", [ s ]) ->
    let* s = str s in
    Ok (V_str (Qsmt_strtheory.Semantics.reverse s))
  | Ast.App ("str.palindrome", [ s ]) ->
    let* s = str s in
    Ok (V_bool (Qsmt_strtheory.Semantics.is_palindrome s))
  | Ast.App ("str.in_re", [ s; re ]) ->
    let* s = str s in
    let* syntax = regex re in
    Ok (V_bool (Qsmt_regex.Dfa.matches (Qsmt_regex.Dfa.of_syntax syntax) s))
  | Ast.App ("=", [ a; b ]) ->
    let* va = eval a in
    let* vb = eval b in
    Ok (V_bool (va = vb))
  | Ast.App ("and", args) ->
    let* bools =
      List.fold_left
        (fun acc a ->
          let* acc = acc in
          let* b = boolean a in
          Ok (b :: acc))
        (Ok []) args
    in
    Ok (V_bool (List.for_all Fun.id bools))
  | Ast.App ("or", args) ->
    let* bools =
      List.fold_left
        (fun acc a ->
          let* acc = acc in
          let* b = boolean a in
          Ok (b :: acc))
        (Ok []) args
    in
    Ok (V_bool (List.exists Fun.id bools))
  | Ast.App ("not", [ a ]) ->
    let* b = boolean a in
    Ok (V_bool (not b))
  | Ast.App (op, _) -> Error (Printf.sprintf "cannot evaluate operator %s" op)

and regex t =
  let all kids =
    List.fold_left
      (fun acc k ->
        let* acc = acc in
        let* r = regex k in
        Ok (r :: acc))
      (Ok []) kids
    |> Result.map List.rev
  in
  match t with
  | Ast.App ("str.to_re", [ Ast.Str s ]) ->
    if Ascii7.fits s then Ok (Syntax.string s) else wide_literal
  | Ast.App ("re.++", kids) ->
    let* rs = all kids in
    Ok (Syntax.Concat rs)
  | Ast.App ("re.union", kids) ->
    let* rs = all kids in
    Ok (Syntax.Alt rs)
  | Ast.App ("re.*", [ k ]) ->
    let* r = regex k in
    Ok (Syntax.Star r)
  | Ast.App ("re.+", [ k ]) ->
    let* r = regex k in
    Ok (Syntax.Plus r)
  | Ast.App ("re.opt", [ k ]) ->
    let* r = regex k in
    Ok (Syntax.Opt r)
  | Ast.App ("re.range", [ Ast.Str lo; Ast.Str hi ]) ->
    if not (Ascii7.fits lo && Ascii7.fits hi) then wide_literal
    else if String.length lo = 1 && String.length hi = 1 && lo.[0] <= hi.[0] then
      Ok (Syntax.Chars (Charset.of_range lo.[0] hi.[0]))
    else Error "re.range expects single-character bounds with lo <= hi"
  | Ast.App ("re.loop", [ Ast.Int lo; Ast.Int hi; k ]) ->
    if lo < 0 || hi < lo then Error "re.loop expects 0 <= lo <= hi"
    else
      let* r = regex k in
      Ok (Syntax.Rep (r, lo, Some hi))
  | Ast.App ("re.allchar", []) -> Ok Syntax.any
  | _ -> Error (Printf.sprintf "unsupported RegLan term %s" (Ast.term_to_string t))

let pp_value ppf = function
  | V_str s -> Sexp.pp_string ppf s
  | V_int n -> if n < 0 then Format.fprintf ppf "(- %d)" (-n) else Format.pp_print_int ppf n
  | V_bool b -> Format.pp_print_bool ppf b
