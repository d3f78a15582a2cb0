let ( let* ) = Result.bind

type literal = { positive : bool; atom : Ast.term }
type cube = literal list

(* Cross product of cube lists: cubes(a AND b) = {x @ y}. *)
let product a b = List.concat_map (fun x -> List.map (fun y -> x @ y) b) a

let rec dnf ~budget polarity term =
  (* [budget] is a shared countdown of how many cubes we may produce *)
  match (term, polarity) with
  | Ast.App ("not", [ inner ]), _ -> dnf ~budget (not polarity) inner
  | Ast.App ("and", parts), true | Ast.App ("or", parts), false ->
    (* conjunction under this polarity *)
    List.fold_left
      (fun acc part ->
        let* acc = acc in
        let* cubes = dnf ~budget polarity part in
        let combined = product acc cubes in
        if List.length combined > !budget then Error "DNF expansion exceeds the cube budget"
        else Ok combined)
      (Ok [ [] ]) parts
  | Ast.App ("or", parts), true | Ast.App ("and", parts), false ->
    (* disjunction under this polarity *)
    List.fold_left
      (fun acc part ->
        let* acc = acc in
        let* cubes = dnf ~budget polarity part in
        let combined = acc @ cubes in
        if List.length combined > !budget then Error "DNF expansion exceeds the cube budget"
        else Ok combined)
      (Ok []) parts
  | Ast.Bool b, _ -> if b = polarity then Ok [ [] ] else Ok []
  | atom, _ -> Ok [ [ { positive = polarity; atom } ] ]

let expand ?(max_cubes = 64) assertions =
  let budget = ref max_cubes in
  let* cubes =
    List.fold_left
      (fun acc a ->
        let* acc = acc in
        let* cubes = dnf ~budget true a in
        let combined = product acc cubes in
        if List.length combined > max_cubes then Error "DNF expansion exceeds the cube budget"
        else Ok combined)
      (Ok [ [] ]) assertions
  in
  (* syntactic dedup keeps repeated disjuncts from multiplying work; the
     keys are terms, not their printed form, so no query formats an atom *)
  let seen = Hashtbl.create 16 in
  let deduped =
    List.filter
      (fun cube ->
        let key = List.sort compare (List.map (fun l -> (l.positive, l.atom)) cube) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      cubes
  in
  Ok deduped

let cube_terms cube =
  Ok
    (List.map
       (fun lit -> if lit.positive then lit.atom else Ast.App ("not", [ lit.atom ]))
       cube)
