type t = Atom of string | String of string | List of t list

exception Error of int * string (* line, message *)

type state = { input : string; mutable pos : int; mutable line : int }

let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

let advance st =
  (match peek st with Some '\n' -> st.line <- st.line + 1 | Some _ | None -> ());
  st.pos <- st.pos + 1

let fail st msg = raise (Error (st.line, msg))

let rec skip_trivia st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_trivia st
  | Some ';' ->
    let rec to_eol () =
      match peek st with
      | Some '\n' | None -> ()
      | Some _ ->
        advance st;
        to_eol ()
    in
    to_eol ();
    skip_trivia st
  | Some _ | None -> ()

let is_symbol_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
  | '~' | '!' | '@' | '$' | '%' | '^' | '&' | '*' | '_' | '-' | '+' | '=' | '<' | '>' | '.' | '?'
  | '/' | ':' ->
    true
  | _ -> false

let hex_digit c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

(* The SMT-LIB 2.6 escape starting at [pos], just past a backslash:
   [ud₃d₂d₁d₀], or [u{d…}] with one to five hex digits, the fifth at
   most 2. Returns the code point and the escape's length (backslash
   excluded), or [None] when the text there is no escape. *)
let unicode_escape input pos =
  let len = String.length input in
  (* the value of the [n] characters at [from], if all are hex digits *)
  let hex from n =
    let rec go k acc =
      if k = n then Some acc
      else
        match hex_digit input.[from + k] with
        | Some d -> go (k + 1) ((16 * acc) + d)
        | None -> None
    in
    if from + n > len then None else go 0 0
  in
  (* how many hex digits (at most 5) follow "u{" *)
  let rec braced n =
    if n < 5 && pos + 2 + n < len && hex_digit input.[pos + 2 + n] <> None then braced (n + 1)
    else n
  in
  if pos >= len || input.[pos] <> 'u' then None
  else if pos + 1 < len && input.[pos + 1] = '{' then begin
    let n = braced 0 in
    let closed = pos + 2 + n < len && input.[pos + 2 + n] = '}' in
    if n = 0 || (not closed) || (n = 5 && input.[pos + 2] > '2') then None
    else Option.map (fun cp -> (cp, n + 3)) (hex (pos + 2) n)
  end
  else Option.map (fun cp -> (cp, 5)) (hex (pos + 1) 4)

let parse_string_lit st =
  advance st (* opening quote *);
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string literal"
    | Some '"' ->
      advance st;
      (* doubled quote is an escaped quote *)
      if peek st = Some '"' then begin
        Buffer.add_char buf '"';
        advance st;
        go ()
      end
    | Some '\\' -> (
      match unicode_escape st.input (st.pos + 1) with
      | Some (cp, length) ->
        (* A code point the 7-bit codec cannot hold is kept as UTF-8,
           bytes above 0x7f that the front end refuses. *)
        if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
        else
          Buffer.add_utf_8_uchar buf (if Uchar.is_valid cp then Uchar.of_int cp else Uchar.rep);
        st.pos <- st.pos + 1 + length;
        go ()
      | None ->
        (* a malformed escape is a literal backslash *)
        Buffer.add_char buf '\\';
        advance st;
        go ())
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  String (Buffer.contents buf)

let parse_quoted_symbol st =
  advance st (* opening pipe *);
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated |symbol|"
    | Some '|' -> advance st
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Atom (Buffer.contents buf)

let rec parse_expr st =
  skip_trivia st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '(' ->
    advance st;
    let rec items acc =
      skip_trivia st;
      match peek st with
      | None -> fail st "unclosed ("
      | Some ')' ->
        advance st;
        List (List.rev acc)
      | Some _ -> items (parse_expr st :: acc)
    in
    items []
  | Some ')' -> fail st "unmatched )"
  | Some '"' -> parse_string_lit st
  | Some '|' -> parse_quoted_symbol st
  | Some c when is_symbol_char c ->
    let buf = Buffer.create 8 in
    let rec go () =
      match peek st with
      | Some c when is_symbol_char c ->
        Buffer.add_char buf c;
        advance st;
        go ()
      | Some _ | None -> ()
    in
    go ();
    Atom (Buffer.contents buf)
  | Some c -> fail st (Printf.sprintf "unexpected character %C" c)

let parse_all input =
  let st = { input; pos = 0; line = 1 } in
  let rec go acc =
    skip_trivia st;
    if st.pos >= String.length input then Ok (List.rev acc)
    else begin
      match parse_expr st with
      | expr -> go (expr :: acc)
      | exception Error (line, msg) -> Error (Printf.sprintf "line %d: %s" line msg)
    end
  in
  go []

let parse_one input =
  match parse_all input with
  | Error _ as e -> e
  | Ok [ e ] -> Ok e
  | Ok [] -> Error "empty input"
  | Ok _ -> Error "expected exactly one expression"

(* one Format piece, as cheap as [%S]: every (get-model) prints its
   string values through it *)
let pp_string ppf s = Format.pp_print_string ppf (Qsmt_strtheory.Smtgen.str_lit s)

let rec pp ppf = function
  | Atom a -> Format.pp_print_string ppf a
  | String s -> pp_string ppf s
  | List items ->
    Format.pp_print_char ppf '(';
    List.iteri
      (fun i item ->
        if i > 0 then Format.pp_print_char ppf ' ';
        pp ppf item)
      items;
    Format.pp_print_char ppf ')'

let to_string e = Format.asprintf "%a" pp e
