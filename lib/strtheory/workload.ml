module Prng = Qsmt_util.Prng
module Syntax = Qsmt_regex.Syntax

type kind =
  | K_equals
  | K_concat
  | K_contains
  | K_includes
  | K_index_of
  | K_replace_all
  | K_replace_first
  | K_reverse
  | K_palindrome
  | K_regex

let all_kinds =
  [
    K_equals; K_concat; K_contains; K_includes; K_index_of; K_replace_all; K_replace_first;
    K_reverse; K_palindrome; K_regex;
  ]

let word rng n = Prng.string_lowercase rng n
let length rng max_length = 1 + Prng.int rng max_length

(* Random product-form regex: sequence of literal / class / repeated
   items with total minimum length <= budget. *)
let random_regex rng ~budget =
  let item () =
    let set =
      if Prng.bool rng then Syntax.literal (Char.chr (97 + Prng.int rng 26))
      else begin
        let k = 2 + Prng.int rng 3 in
        Syntax.char_class (List.init k (fun _ -> Char.chr (97 + Prng.int rng 26)))
      end
    in
    match Prng.int rng 4 with
    | 0 -> Syntax.Plus set
    | 1 -> Syntax.Star set
    | 2 -> Syntax.Opt set
    | _ -> set
  in
  let n_items = 1 + Prng.int rng (max 1 (budget / 2)) in
  Syntax.Concat (List.init n_items (fun _ -> item ()))

let rec gen_kind rng kind ~max_length ~plant =
  let n = length rng max_length in
  match kind with
  | K_equals -> Constr.Equals (word rng n)
  | K_concat ->
    let pieces = 1 + Prng.int rng 3 in
    Constr.Concat (List.init pieces (fun _ -> word rng (1 + Prng.int rng (max 1 (n / 2)))))
  | K_contains ->
    let sub_len = 1 + Prng.int rng n in
    Constr.Contains { length = n; substring = word rng sub_len }
  | K_includes ->
    let hay = word rng (max 2 n) in
    let m = 1 + Prng.int rng (String.length hay) in
    let needle =
      if plant then begin
        let at = Prng.int rng (String.length hay - m + 1) in
        String.sub hay at m
      end
      else word rng m
    in
    Constr.Includes { haystack = hay; needle; first = false }
  | K_index_of ->
    let m = 1 + Prng.int rng n in
    let index = Prng.int rng (n - m + 1) in
    Constr.Index_of { length = n; substring = word rng m; index; first = false }
  | K_replace_all ->
    let src = word rng n in
    Constr.Replace_all
      { source = src; find = src.[Prng.int rng n]; replace = Char.chr (97 + Prng.int rng 26) }
  | K_replace_first ->
    let src = word rng n in
    Constr.Replace_first
      { source = src; find = src.[Prng.int rng n]; replace = Char.chr (97 + Prng.int rng 26) }
  | K_reverse -> Constr.Reverse (word rng n)
  | K_palindrome -> Constr.Palindrome { length = n }
  | K_regex -> begin
    let pattern = random_regex rng ~budget:n in
    (* pick a feasible length for the pattern, else retry *)
    let min_len = Syntax.min_length pattern in
    let max_len = Syntax.max_length pattern in
    let feasible_max =
      match max_len with Some m -> min m max_length | None -> max_length
    in
    if min_len > feasible_max || min_len < 1 then
      gen_kind rng kind ~max_length ~plant (* degenerate draw; redraw *)
    else begin
      let len = min_len + Prng.int rng (feasible_max - min_len + 1) in
      let c = Constr.Regex { pattern; length = len } in
      match Constr.validate c with
      | Ok () -> c
      | Error _ -> gen_kind rng kind ~max_length ~plant
    end
  end

let pick_kind rng kinds =
  match kinds with
  | [] -> invalid_arg "Workload: empty kinds"
  | _ -> Prng.choose rng (Array.of_list kinds)

let generate ~rng ?(kinds = all_kinds) ~max_length () =
  if max_length < 1 then invalid_arg "Workload.generate: max_length < 1";
  gen_kind rng (pick_kind rng kinds) ~max_length ~plant:false

let generate_satisfiable ~rng ?(kinds = all_kinds) ~max_length () =
  if max_length < 1 then invalid_arg "Workload.generate_satisfiable: max_length < 1";
  gen_kind rng (pick_kind rng kinds) ~max_length ~plant:true

let suite ~seed ?kinds ~max_length ~count () =
  let rng = Prng.create seed in
  List.init count (fun _ -> generate_satisfiable ~rng ?kinds ~max_length ())
