module Syntax = Qsmt_regex.Syntax
module Unroll = Qsmt_regex.Unroll
module Dfa = Qsmt_regex.Dfa
module Ascii7 = Qsmt_util.Ascii7

type t =
  | Equals of string
  | Concat of string list
  | Contains of { length : int; substring : string }
  | Includes of { haystack : string; needle : string; first : bool }
  | Index_of of { length : int; substring : string; index : int; first : bool }
  | Has_length of { num_chars : int; target_length : int }
  | Replace_all of { source : string; find : char; replace : char }
  | Replace_first of { source : string; find : char; replace : char }
  | Reverse of string
  | Palindrome of { length : int }
  | Regex of { pattern : Syntax.t; length : int }

type value = Str of string | Pos of int option

let validate = function
  | Equals s | Reverse s ->
    if Ascii7.fits s then Ok () else Error "string contains non-7-bit characters"
  | Concat parts ->
    if List.for_all Ascii7.fits parts then Ok () else Error "string contains non-7-bit characters"
  | Contains { length; substring } ->
    if not (Ascii7.fits substring) then Error "substring contains non-7-bit characters"
    else if length < 0 then Error "negative length"
    else if String.length substring > length then Error "substring longer than the string"
    else if String.length substring = 0 then Error "empty substring"
    else Ok ()
  | Includes { haystack; needle; _ } ->
    if not (Ascii7.fits haystack && Ascii7.fits needle) then Error "non-7-bit characters"
    else if String.length needle = 0 then Error "empty needle"
    else if String.length needle > String.length haystack then
      Error "needle longer than haystack"
    else Ok ()
  | Index_of { length; substring; index; _ } ->
    if not (Ascii7.fits substring) then Error "substring contains non-7-bit characters"
    else if length < 0 then Error "negative length"
    else if String.length substring = 0 then Error "empty substring"
    else if index < 0 || index + String.length substring > length then
      Error "substring does not fit at the requested index"
    else Ok ()
  | Has_length { num_chars; target_length } ->
    if num_chars < 0 then Error "negative num_chars"
    else if target_length < 0 || target_length > num_chars then
      Error "target_length outside [0, num_chars]"
    else Ok ()
  | Replace_all { source; find; replace } | Replace_first { source; find; replace } ->
    if not (Ascii7.fits source) then Error "source contains non-7-bit characters"
    else if Char.code find > 127 || Char.code replace > 127 then
      Error "replacement characters must be 7-bit"
    else Ok ()
  | Palindrome { length } -> if length < 0 then Error "negative length" else Ok ()
  | Regex { pattern; length } ->
    if length < 0 then Error "negative length"
    else begin
      match Unroll.to_position_sets pattern ~len:length with
      | Ok _ -> Ok ()
      | Error msg -> Error msg
    end

let validate_exn c =
  match validate c with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Constr: invalid constraint: " ^ msg)

let num_vars c =
  validate_exn c;
  match c with
  | Equals s | Reverse s -> 7 * String.length s
  | Concat parts -> 7 * List.fold_left (fun acc s -> acc + String.length s) 0 parts
  | Contains { length; _ } | Index_of { length; _ } | Palindrome { length } | Regex { length; _ }
    ->
    7 * length
  | Includes { haystack; needle; _ } -> String.length haystack - String.length needle + 1
  | Has_length { num_chars; _ } -> 7 * num_chars
  | Replace_all { source; _ } | Replace_first { source; _ } -> 7 * String.length source

let verifier c =
  (* the one costly piece of a check, fetched once per verifier so the
     per-read checks (on several domains at once) take no lock: the
     automaton comes from [Dfa.of_syntax]'s memo *)
  let matches =
    match c with Regex { pattern; _ } -> Dfa.matches (Dfa.of_syntax pattern) | _ -> fun _ -> false
  in
  fun value ->
  match (c, value) with
  | Equals target, Str out -> out = target
  | Concat parts, Str out -> out = Semantics.concat parts
  | Contains { length; substring }, Str out ->
    String.length out = length && Semantics.contains out ~sub:substring
  | Includes { haystack; needle; first }, Pos (Some i) ->
    if first then Semantics.index_of haystack ~sub:needle = Some i
    else Semantics.occurs_at haystack ~sub:needle i
  | Includes _, Pos None -> false
  | Index_of { length; substring; index; first }, Str out ->
    String.length out = length
    &&
    if first then Semantics.index_of out ~sub:substring = Some index
    else Semantics.occurs_at out ~sub:substring index
  | Has_length { num_chars; target_length }, Str out ->
    (* Paper bit semantics: first 7·L bits set, remainder clear — i.e.
       target_length DEL characters followed by NULs. *)
    String.length out = num_chars
    && String.for_all (fun c -> c = '\127') (String.sub out 0 target_length)
    && String.for_all (fun c -> c = '\000')
         (String.sub out target_length (num_chars - target_length))
  | Replace_all { source; find; replace }, Str out ->
    out = Semantics.replace_all source ~find ~replace
  | Replace_first { source; find; replace }, Str out ->
    out = Semantics.replace_first source ~find ~replace
  | Reverse source, Str out -> out = Semantics.reverse source
  | Palindrome { length }, Str out -> String.length out = length && Semantics.is_palindrome out
  | Regex { length; _ }, Str out -> String.length out = length && matches out
  | ( ( Equals _ | Concat _ | Contains _ | Index_of _ | Has_length _ | Replace_all _
      | Replace_first _ | Reverse _ | Palindrome _ | Regex _ ),
      Pos _ ) ->
    false
  | Includes _, Str _ -> false

let verify c value = verifier c value

let describe = function
  | Equals s -> Printf.sprintf "generate the string %S" s
  | Concat parts -> Printf.sprintf "concatenate %s" (String.concat " + " (List.map (Printf.sprintf "%S") parts))
  | Contains { length; substring } ->
    Printf.sprintf "generate a length-%d string containing %S" length substring
  | Includes { haystack; needle; first } ->
    Printf.sprintf "find %s%S within %S" (if first then "the first " else "") needle haystack
  | Index_of { length; substring; index; first } ->
    Printf.sprintf "generate a length-%d string with %s%S at index %d" length
      (if first then "its first " else "")
      substring index
  | Has_length { num_chars; target_length } ->
    Printf.sprintf "check a %d-char string has length %d (unary bits)" num_chars target_length
  | Replace_all { source; find; replace } ->
    Printf.sprintf "replace all %C with %C in %S" find replace source
  | Replace_first { source; find; replace } ->
    Printf.sprintf "replace first %C with %C in %S" find replace source
  | Reverse s -> Printf.sprintf "reverse %S" s
  | Palindrome { length } -> Printf.sprintf "generate a palindrome of length %d" length
  | Regex { pattern; length } ->
    Printf.sprintf "generate a length-%d match of /%s/" length (Syntax.to_string pattern)

let pp_value ppf = function
  | Str s ->
    let shown = String.map Ascii7.clamp_printable s in
    Format.fprintf ppf "%S" shown
  | Pos (Some i) -> Format.fprintf ppf "position %d" i
  | Pos None -> Format.fprintf ppf "no position"
