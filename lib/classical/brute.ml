module Constr = Qsmt_strtheory.Constr

let string_length_of = function
  | Constr.Equals s | Constr.Reverse s -> String.length s
  | Constr.Concat parts -> List.fold_left (fun acc s -> acc + String.length s) 0 parts
  | Constr.Contains { length; _ }
  | Constr.Index_of { length; _ }
  | Constr.Palindrome { length }
  | Constr.Regex { length; _ } ->
    length
  | Constr.Has_length { num_chars; _ } -> num_chars
  | Constr.Replace_all { source; _ } | Constr.Replace_first { source; _ } -> String.length source
  | Constr.Includes _ -> 0

let solve ~alphabet ?(limit = 1_000_000) constr =
  match constr with
  | Constr.Includes { haystack; needle; _ } ->
    let positions = String.length haystack - String.length needle + 1 in
    let rec go p =
      if p >= positions then None
      else if Constr.verify constr (Constr.Pos (Some p)) then Some (Constr.Pos (Some p))
      else go (p + 1)
    in
    go 0
  | _ ->
    if alphabet = [] then invalid_arg "Brute.solve: empty alphabet";
    let alpha = Array.of_list alphabet in
    let k = Array.length alpha in
    let n = string_length_of constr in
    let counters = Array.make n 0 in
    let render () = String.init n (fun i -> alpha.(counters.(i))) in
    let rec bump i = (* little-endian increment; false on wraparound *)
      if i >= n then false
      else if counters.(i) + 1 < k then begin
        counters.(i) <- counters.(i) + 1;
        true
      end
      else begin
        counters.(i) <- 0;
        bump (i + 1)
      end
    in
    let rec go tried =
      if tried >= limit then None
      else begin
        let candidate = Constr.Str (render ()) in
        if Constr.verify constr candidate then Some candidate
        else if bump 0 then go (tried + 1)
        else None
      end
    in
    go 0

let candidates_tried ~alphabet constr i =
  match constr with
  | Constr.Includes _ -> i
  | _ ->
    let k = List.length alphabet in
    let n = string_length_of constr in
    let space = float_of_int k ** float_of_int n in
    min i (if space > 1e15 then max_int else int_of_float space)
