module Constr = Qsmt_strtheory.Constr
module Semantics = Qsmt_strtheory.Semantics
module Syntax = Qsmt_regex.Syntax
module Dfa = Qsmt_regex.Dfa
module Unroll = Qsmt_regex.Unroll

let ( let* ) = Result.bind

type problem =
  | Trivial of bool
  | Solved of { var : string; value : Eval.value }
  | Generate of { var : string; constr : Constr.t }
  | Generate_joint of { var : string; conjuncts : Constr.t list }
  | Locate of { var : string; constr : Constr.t }

type spec = {
  mutable eq_target : string option;
  mutable length : int option;
  mutable contains : string list;
  mutable indexofs : (string * int) list; (* (= (str.indexof x sub 0) i) facts *)
  mutable locate : string option; (* the needle an Int unknown is the indexof of *)
  mutable indices : (string * int) list; (* str.at / str.substr facts *)
  mutable regexes : Syntax.t list;
  mutable palindrome : bool;
  mutable prefixes : string list;
  mutable suffixes : string list;
  mutable neq : string list; (* verify-later disequalities *)
}

let fresh_spec () =
  {
    eq_target = None;
    length = None;
    contains = [];
    indexofs = [];
    locate = None;
    indices = [];
    regexes = [];
    palindrome = false;
    prefixes = [];
    suffixes = [];
    neq = [];
  }

let rec is_ground = function
  | Ast.Var _ -> false
  | Ast.Str _ | Ast.Int _ | Ast.Bool _ -> true
  | Ast.App (_, args) -> List.for_all is_ground args

let eval_ground_string t =
  match Eval.term t with
  | Ok (Eval.V_str s) -> Ok s
  | Ok _ -> Error "expected a string"
  | Error e -> Error e

(* One assertion → facts in the spec table (one spec per variable), or
   an accumulated ground truth, or an error. *)
let rec digest env specs ground_truth term =
  let spec_for v =
    match Hashtbl.find_opt specs v with
    | Some s -> s
    | None ->
      let s = fresh_spec () in
      Hashtbl.add specs v s;
      s
  in
  let set_eq v target =
    let s = spec_for v in
    match s.eq_target with
    | Some prior when prior <> target -> Ok (ground_truth := false)
    | Some _ | None -> Ok (s.eq_target <- Some target)
  in
  let set_length v n =
    let s = spec_for v in
    match s.length with
    | _ when n < 0 -> Ok (ground_truth := false)
    | Some prior when prior <> n -> Ok (ground_truth := false)
    | Some _ | None -> Ok (s.length <- Some n)
  in
  (* "" is a substring, prefix and suffix of every string: no fact *)
  let add_affix v lit add = if lit = "" then Ok () else Ok (add (spec_for v)) in
  match term with
  | t when is_ground t -> begin
    match Eval.term t with
    | Ok (Eval.V_bool b) -> Ok (if not b then ground_truth := false)
    | Ok _ -> Error "ground assertion is not boolean"
    | Error e -> Error e
  end
  | Ast.App ("and", parts) ->
    List.fold_left
      (fun acc part ->
        let* () = acc in
        digest env specs ground_truth part)
      (Ok ()) parts
  (* x = <ground string term>, either side *)
  | Ast.App ("=", [ Ast.Var v; rhs ]) when is_ground rhs && Typecheck.lookup env v = Some Ast.S_string
    ->
    let* target = eval_ground_string rhs in
    set_eq v target
  | Ast.App ("=", [ lhs; Ast.Var v ]) when is_ground lhs && Typecheck.lookup env v = Some Ast.S_string
    ->
    let* target = eval_ground_string lhs in
    set_eq v target
  (* (str.len x) = n, either side *)
  | Ast.App ("=", [ Ast.App ("str.len", [ Ast.Var v ]); Ast.Int n ])
  | Ast.App ("=", [ Ast.Int n; Ast.App ("str.len", [ Ast.Var v ]) ]) ->
    set_length v n
  (* str.contains x "lit" *)
  | Ast.App ("str.contains", [ Ast.Var v; sub ]) when is_ground sub ->
    let* sub = eval_ground_string sub in
    add_affix v sub (fun s -> s.contains <- sub :: s.contains)
  (* (str.indexof x sub 0) = i *)
  | Ast.App ("=", [ Ast.App ("str.indexof", [ Ast.Var v; sub; Ast.Int 0 ]); Ast.Int i ])
  | Ast.App ("=", [ Ast.Int i; Ast.App ("str.indexof", [ Ast.Var v; sub; Ast.Int 0 ]) ])
    when is_ground sub ->
    let* sub = eval_ground_string sub in
    (* "" is found at 0 in every string; a needle's first occurrence
       has one index, but different needles may each have one *)
    if sub = "" then Ok (if i <> 0 then ground_truth := false)
    else begin
      let s = spec_for v in
      match List.assoc_opt sub s.indexofs with
      | Some prior when prior <> i -> Ok (ground_truth := false)
      | Some _ -> Ok ()
      | None -> Ok (s.indexofs <- (sub, i) :: s.indexofs)
    end
  (* i = (str.indexof "hay" "needle" 0) with Int unknown i *)
  | Ast.App ("=", [ Ast.Var v; (Ast.App ("str.indexof", [ hay; sub; Ast.Int 0 ]) as rhs) ])
  | Ast.App ("=", [ (Ast.App ("str.indexof", [ hay; sub; Ast.Int 0 ]) as rhs); Ast.Var v ])
    when is_ground rhs && Typecheck.lookup env v = Some Ast.S_int ->
    let* hay = eval_ground_string hay in
    let* sub = eval_ground_string sub in
    let s = spec_for v in
    (* the haystack rides in eq_target: see locate handling below *)
    s.eq_target <- Some hay;
    s.locate <- Some sub;
    Ok ()
  (* (= (str.at x i) "c") : one forced character; (= (str.substr x i n)
     "lit") with |lit| = n : a forced substring. Both orders. *)
  | Ast.App ("=", [ a; b ])
    when (match (a, b) with
         | Ast.App (("str.at" | "str.substr"), Ast.Var _ :: _), rhs
         | rhs, Ast.App (("str.at" | "str.substr"), Ast.Var _ :: _) ->
           is_ground rhs
         | _ -> false) -> begin
    let app, rhs =
      match (a, b) with
      | (Ast.App (("str.at" | "str.substr"), Ast.Var _ :: _) as app), rhs -> (app, rhs)
      | rhs, app -> (app, rhs)
    in
    let* lit = eval_ground_string rhs in
    match app with
    | Ast.App ("str.at", [ Ast.Var v; Ast.Int i ])
      when Typecheck.lookup env v = Some Ast.S_string ->
      if String.length lit <> 1 then
        Error "str.at constraints with non-single-character values are unsupported"
      else begin
        let s = spec_for v in
        Ok (s.indices <- (lit, i) :: s.indices)
      end
    | Ast.App ("str.substr", [ Ast.Var v; Ast.Int i; Ast.Int n ])
      when Typecheck.lookup env v = Some Ast.S_string ->
      (* every length-0 substring is "" *)
      if lit = "" && n = 0 then Ok ()
      else if String.length lit <> n then
        Error
          "str.substr constraints are only supported when the literal has the requested length"
      else begin
        let s = spec_for v in
        Ok (s.indices <- (lit, i) :: s.indices)
      end
    | _ -> Error (Printf.sprintf "unsupported assertion %s" (Ast.term_to_string term))
  end
  (* (not (= x ground)): a disequality — recorded and enforced by the
     classical verifier rather than the QUBO (which cannot encode it) *)
  | Ast.App ("not", [ Ast.App ("=", [ Ast.Var v; rhs ]) ])
    when is_ground rhs && Typecheck.lookup env v = Some Ast.S_string ->
    let* t = eval_ground_string rhs in
    let s = spec_for v in
    Ok (s.neq <- t :: s.neq)
  | Ast.App ("not", [ Ast.App ("=", [ lhs; Ast.Var v ]) ])
    when is_ground lhs && Typecheck.lookup env v = Some Ast.S_string ->
    let* t = eval_ground_string lhs in
    let s = spec_for v in
    Ok (s.neq <- t :: s.neq)
  (* str.prefixof "lit" x / str.suffixof "lit" x *)
  | Ast.App ("str.prefixof", [ pre; Ast.Var v ]) when is_ground pre ->
    let* pre = eval_ground_string pre in
    add_affix v pre (fun s -> s.prefixes <- pre :: s.prefixes)
  | Ast.App ("str.suffixof", [ suf; Ast.Var v ]) when is_ground suf ->
    let* suf = eval_ground_string suf in
    add_affix v suf (fun s -> s.suffixes <- suf :: s.suffixes)
  | Ast.App ("str.in_re", [ Ast.Var v; re ]) ->
    let* syntax = Eval.regex re in
    let s = spec_for v in
    Ok (s.regexes <- syntax :: s.regexes)
  | Ast.App ("str.palindrome", [ Ast.Var v ]) ->
    let s = spec_for v in
    Ok (s.palindrome <- true)
  | t -> Error (Printf.sprintf "unsupported assertion %s" (Ast.term_to_string t))

(* Check the remaining facts classically against a fixed target. *)
let target_consistent spec target =
  (match spec.length with Some n -> String.length target = n | None -> true)
  && List.for_all (fun sub -> Semantics.contains target ~sub) spec.contains
  && List.for_all
       (fun (sub, i) -> Option.value ~default:(-1) (Semantics.index_of target ~sub) = i)
       spec.indexofs
  && List.for_all (fun (sub, i) -> Semantics.occurs_at target ~sub i) spec.indices
  && (not spec.palindrome || Semantics.is_palindrome target)
  && List.for_all
       (fun pre ->
         String.length pre <= String.length target
         && String.sub target 0 (String.length pre) = pre)
       spec.prefixes
  && List.for_all
       (fun suf ->
         let lt = String.length target and ls = String.length suf in
         ls <= lt && String.sub target (lt - ls) ls = suf)
       spec.suffixes
  && List.for_all (fun r -> Dfa.matches (Dfa.of_syntax r) target) spec.regexes
  && List.for_all (fun t -> target <> t) spec.neq

(* Turn the gathered facts into conjunct constraints over one length. *)
let conjuncts_of_spec spec ~length =
  let ( let* ) = Result.bind in
  let* regexes =
    List.fold_left
      (fun acc pattern ->
        let* acc = acc in
        let dfa = Dfa.of_syntax pattern in
        if Dfa.count_matching dfa ~len:length = 0 then Error `Unsat
        else begin
          match Unroll.to_position_sets pattern ~len:length with
          | Ok _ -> Ok (Constr.Regex { pattern; length } :: acc)
          | Error msg -> Error (`Unsupported ("regex not supported by the QUBO encoder: " ^ msg))
        end)
      (Ok []) spec.regexes
  in
  let* index =
    List.fold_left
      (fun acc (sub, i) ->
        let* acc = acc in
        if i >= 0 && i + String.length sub <= length then
          Ok (Constr.Index_of { length; substring = sub; index = i; first = true } :: acc)
        else if i = -1 then
          Error (`Unsupported "str.indexof = -1 (an absent substring) is not encodable")
        else Error `Unsat)
      (Ok []) spec.indexofs
  in
  let* at_indices =
    List.fold_left
      (fun acc (sub, i) ->
        let* acc = acc in
        if i >= 0 && i + String.length sub <= length then
          Ok (Constr.Index_of { length; substring = sub; index = i; first = false } :: acc)
        else Error `Unsat)
      (Ok []) spec.indices
  in
  let* contains =
    List.fold_left
      (fun acc sub ->
        let* acc = acc in
        if String.length sub <= length then Ok (Constr.Contains { length; substring = sub } :: acc)
        else Error `Unsat)
      (Ok []) spec.contains
  in
  let* prefixes =
    List.fold_left
      (fun acc pre ->
        let* acc = acc in
        if String.length pre <= length then
          Ok (Constr.Index_of { length; substring = pre; index = 0; first = false } :: acc)
        else Error `Unsat)
      (Ok []) spec.prefixes
  in
  let* suffixes =
    List.fold_left
      (fun acc suf ->
        let* acc = acc in
        if String.length suf <= length then
          Ok (Constr.Index_of
               { length; substring = suf; index = length - String.length suf; first = false }
             :: acc)
        else Error `Unsat)
      (Ok []) spec.suffixes
  in
  let palindrome = if spec.palindrome then [ Constr.Palindrome { length } ] else [] in
  Ok (regexes @ index @ at_indices @ prefixes @ suffixes @ contains @ palindrome)

let constr_of_spec v spec =
  match spec.eq_target with
  | Some target ->
    if target_consistent spec target then Ok (Generate { var = v; constr = Constr.Equals target })
    else Ok (Trivial false)
  | None -> begin
    match spec.length with
    | None -> begin
      (* without a length nothing is encodable; name the missing piece *)
      match
        ( spec.regexes,
          spec.indexofs,
          spec.contains @ spec.prefixes @ spec.suffixes @ List.map fst spec.indices,
          spec.palindrome )
      with
      | _ :: _, _, _, _ -> Error "str.in_re needs an explicit (str.len x) assertion"
      | [], _ :: _, _, _ -> Error "str.indexof constraint needs a length"
      | [], [], _ :: _, _ -> Error "str.contains/str.prefixof/str.suffixof need a length"
      | [], [], [], true -> Error "str.palindrome needs a length"
      | [], [], [], false -> Error (Printf.sprintf "variable %s is unconstrained" v)
    end
    | Some length -> begin
      match conjuncts_of_spec spec ~length with
      | Error `Unsat -> Ok (Trivial false)
      | Error (`Unsupported msg) -> Error msg
      | Ok [] ->
        (* any string of that length *)
        Ok
          (Generate
             { var = v; constr = Constr.Regex { pattern = Syntax.Star Syntax.any; length } })
      | Ok [ constr ] -> Ok (Generate { var = v; constr })
      | Ok conjuncts -> Ok (Generate_joint { var = v; conjuncts })
    end
  end

let locate_of_spec v spec =
  match (spec.eq_target, spec.locate) with
  | Some haystack, Some needle -> begin
    match Semantics.index_of haystack ~sub:needle with
    | None ->
      (* No occurrence: SMT-LIB says indexof = -1, which the one-hot
         QUBO cannot express — answer classically. *)
      Ok (Solved { var = v; value = Eval.V_int (-1) })
    | Some _ when String.length needle = 0 -> Ok (Solved { var = v; value = Eval.V_int 0 })
    | Some _ -> Ok (Locate { var = v; constr = Constr.Includes { haystack; needle; first = true } })
  end
  | _ -> Error (Printf.sprintf "unsupported constraints on Int variable %s" v)

let compile env assertions =
  let specs = Hashtbl.create 4 in
  let ground_truth = ref true in
  let* () =
    List.fold_left
      (fun acc a ->
        let* () = acc in
        digest env specs ground_truth a)
      (Ok ()) assertions
  in
  if not !ground_truth then Ok (Trivial false)
  else begin
    let entries = Hashtbl.fold (fun v s acc -> (v, s) :: acc) specs [] in
    match entries with
    | [] -> Ok (Trivial true)
    | [ (v, spec) ] -> begin
      match Typecheck.lookup env v with
      | Some Ast.S_string -> constr_of_spec v spec
      | Some Ast.S_int -> locate_of_spec v spec
      | Some (Ast.S_bool | Ast.S_reglan) | None ->
        Error (Printf.sprintf "unsupported unknown %s" v)
    end
    | _ :: _ :: _ -> Error "more than one unknown variable (sequential pipelines only)"
  end
