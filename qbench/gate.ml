(* Known-answer gate: every answer is graded against the verdict its
   generator planted, and every [sat] model printed by (get-model) is
   re-checked against the assertions in force with [Eval]. *)

module Sexp = Qsmt_smtlib.Sexp
module Parser = Qsmt_smtlib.Parser
module Eval = Qsmt_smtlib.Eval

type grade =
  | Decided  (** the planted verdict, with a model that checks when sat *)
  | Failed  (** [unknown] or an error: a failed operation *)
  | Wrong of string  (** a wrong verdict or a rejected model *)

let term text =
  match Sexp.parse_one text with
  | Error e -> failwith ("unparsable generated assertion " ^ text ^ ": " ^ e)
  | Ok sexp -> (
    match Parser.term_of_sexp sexp with
    | Ok t -> t
    | Error e -> failwith ("unparsable generated assertion " ^ text ^ ": " ^ e))

let value = function
  | Sexp.String s -> Ok (Eval.V_str s)
  | Sexp.Atom "true" -> Ok (Eval.V_bool true)
  | Sexp.Atom "false" -> Ok (Eval.V_bool false)
  | Sexp.Atom n when int_of_string_opt n <> None -> Ok (Eval.V_int (int_of_string n))
  | Sexp.List [ Sexp.Atom "-"; Sexp.Atom n ] when int_of_string_opt n <> None ->
    Ok (Eval.V_int (-int_of_string n))
  | v -> Error ("unexpected model value " ^ Sexp.to_string v)

(* The (get-model) output: ( (define-fun name () Sort value) ... ) *)
let model_of_lines lines =
  match Sexp.parse_one (String.concat "\n" lines) with
  | Error e -> Error ("unparsable model: " ^ e)
  | Ok (Sexp.List defs) ->
    List.fold_left
      (fun acc def ->
        match (acc, def) with
        | Error _, _ -> acc
        | Ok m, Sexp.List [ Sexp.Atom "define-fun"; Sexp.Atom name; Sexp.List []; Sexp.Atom _; v ]
          ->
          Result.map (fun v -> (name, v) :: m) (value v)
        | Ok _, d -> Error ("unexpected model entry " ^ Sexp.to_string d))
      (Ok []) defs
  | Ok s -> Error ("unexpected model " ^ Sexp.to_string s)

(* [terms] are the check's active assertions, parsed. *)
let grade ~terms (check : Corpus.check) ~verdict ~model =
  match (verdict, check.Corpus.expect) with
  | "unsat", Corpus.Unsat -> Decided
  | "unsat", Corpus.Sat -> Wrong "unsat, but a witness was planted"
  | "sat", Corpus.Unsat -> Wrong "sat, but a contradiction was planted"
  | "sat", Corpus.Sat -> (
    match Option.map model_of_lines model with
    | None -> Wrong "sat without a model"
    | Some (Error e) -> Wrong e
    | Some (Ok m) ->
      let holds t = Eval.term ~model:m t = Ok (Eval.V_bool true) in
      if List.for_all holds terms then Decided
      else
        Wrong
          (Printf.sprintf "model %s violates the assertions"
             (String.concat " " (List.map String.trim (Option.value ~default:[] model)))))
  | _ -> Failed
