module Bitvec = Qsmt_util.Bitvec
module Ascii7 = Qsmt_util.Ascii7
module Telemetry = Qsmt_util.Telemetry
module Qubo = Qsmt_qubo.Qubo

let op_name = function
  | Constr.Equals _ -> "equals"
  | Constr.Concat _ -> "concat"
  | Constr.Contains _ -> "contains"
  | Constr.Includes _ -> "includes"
  | Constr.Index_of _ -> "indexof"
  | Constr.Has_length _ -> "length"
  | Constr.Replace_all _ -> "replace_all"
  | Constr.Replace_first _ -> "replace_first"
  | Constr.Reverse _ -> "reverse"
  | Constr.Palindrome _ -> "palindrome"
  | Constr.Regex _ -> "regex"

let to_qubo ?params ?(telemetry = Telemetry.null) c =
  (match Constr.validate c with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Compile.to_qubo: " ^ msg));
  let q =
    match c with
    | Constr.Equals s -> Op_equality.encode ?params s
    | Constr.Concat parts -> Op_concat.encode ?params parts
    | Constr.Contains { length; substring } -> Op_substring.encode ?params ~length ~substring ()
    | Constr.Includes { haystack; needle } -> Op_includes.encode ?params ~haystack ~needle ()
    | Constr.Index_of { length; substring; index; _ } ->
      Op_indexof.encode ?params ~length ~substring ~index ()
    | Constr.Has_length { num_chars; target_length } ->
      Op_length.encode ?params ~num_chars ~target_length ()
    | Constr.Replace_all { source; find; replace } ->
      Op_replace.encode_all ?params ~source ~find ~replace ()
    | Constr.Replace_first { source; find; replace } ->
      Op_replace.encode_first ?params ~source ~find ~replace ()
    | Constr.Reverse source -> Op_reverse.encode ?params source
    | Constr.Palindrome { length } -> Op_palindrome.encode ?params ~length ()
    | Constr.Regex { pattern; length } -> Op_regex.encode_exn ?params ~pattern ~length ()
  in
  if Telemetry.enabled telemetry then begin
    let op = op_name c in
    let vars = Qubo.num_vars q and terms = Qubo.num_interactions q in
    (* Per-operator totals: [encode.<op>.vars] counts binary variables
       (ASCII bits + aux), [encode.<op>.penalty_terms] the quadratic
       penalty interactions the encoding introduced. *)
    Telemetry.count telemetry ("encode." ^ op ^ ".vars") vars;
    Telemetry.count telemetry ("encode." ^ op ^ ".penalty_terms") terms;
    Telemetry.emit telemetry "encode.done"
      [
        ("op", Telemetry.Str op);
        ("vars", Telemetry.Int vars);
        ("penalty_terms", Telemetry.Int terms);
        ("offset", Telemetry.Float (Qubo.offset q));
      ]
  end;
  q

let decode c bits =
  let expected = Constr.num_vars c in
  if Bitvec.length bits <> expected then
    invalid_arg
      (Printf.sprintf "Compile.decode: sample has %d bits, constraint uses %d" (Bitvec.length bits)
         expected);
  match c with
  | Constr.Includes _ -> Constr.Pos (Op_includes.decode bits)
  | Constr.Equals _ | Constr.Concat _ | Constr.Contains _ | Constr.Index_of _
  | Constr.Has_length _ | Constr.Replace_all _ | Constr.Replace_first _ | Constr.Reverse _
  | Constr.Palindrome _ | Constr.Regex _ ->
    Constr.Str (Ascii7.decode bits)
