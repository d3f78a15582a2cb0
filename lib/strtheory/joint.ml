let ( let* ) = Result.bind

let compatible c =
  match c with
  | Constr.Includes _ -> None
  | Constr.Equals _ | Constr.Concat _ | Constr.Contains _ | Constr.Index_of _
  | Constr.Has_length _ | Constr.Replace_all _ | Constr.Replace_first _ | Constr.Reverse _
  | Constr.Palindrome _ | Constr.Regex _ -> begin
    match Constr.validate c with Ok () -> Some (Constr.num_vars c / 7) | Error _ -> None
  end

let common_length cs =
  match cs with
  | [] -> Error "Joint.encode: empty conjunction"
  | first :: rest -> begin
    match compatible first with
    | None -> Error ("not joint-encodable: " ^ Constr.describe first)
    | Some len ->
      List.fold_left
        (fun acc c ->
          let* len = acc in
          match compatible c with
          | Some l when l = len -> Ok len
          | Some l ->
            Error
              (Printf.sprintf "length mismatch: %s has length %d, expected %d"
                 (Constr.describe c) l len)
          | None -> Error ("not joint-encodable: " ^ Constr.describe c))
        (Ok len) rest
  end

let encode cs =
  let* length = common_length cs in
  let parts = List.map (fun c -> Compile.to_qubo c) cs in
  Ok (Stage.merge_frozen ~num_vars:(7 * length) parts, length)

let solve ?sampler ?(absint = `On) ?(telemetry = Qsmt_util.Telemetry.null) cs =
  let sampler =
    match sampler with Some s -> s | None -> Solver.default_sampler ~seed:0
  in
  let* _length = common_length cs in
  let config = { Stage.params = None; sampler; lint = `Off; absint; telemetry } in
  Stage.run ~probe:true config cs
