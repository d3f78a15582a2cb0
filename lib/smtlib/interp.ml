module Constr = Qsmt_strtheory.Constr
module Solver = Qsmt_strtheory.Solver
module Absint = Qsmt_strtheory.Absint
module Strsolver = Qsmt_classical.Strsolver
module Telemetry = Qsmt_util.Telemetry

let ( let* ) = Result.bind

type solve_result = [ `Value of Eval.value | `Unsat | `Unknown ]

type backend = {
  backend_name : string;
  solve_generate : Constr.t -> solve_result;
  solve_joint : Constr.t list -> solve_result;
}

type state = {
  backend : backend;
  telemetry : Telemetry.t;
  mutable env : Typecheck.env;
  mutable assertions : Ast.term list; (* newest first *)
  mutable last_model : (string * Eval.value) list option;
  mutable stack : (Typecheck.env * Ast.term list) list; (* push/pop frames *)
  mutable exited : bool;
}

let value_of_constr_value = function
  | Constr.Str s -> Some (Eval.V_str s)
  | Constr.Pos (Some i) -> Some (Eval.V_int i)
  | Constr.Pos None -> None

let annealing_backend ?sampler ?absint ?(telemetry = Telemetry.null) () =
  (* One incremental session per backend: every query runs the staged
     pipeline ([Stage.run]) that [Solver.solve] / [Joint.solve] run, so
     a cold first query behaves exactly like them and traces the same
     [solve] span tree. Repeated queries over a push/pop session reuse
     cached encodings and a still-valid model, and warm-start the
     anneal from the previous best sample. The session re-runs the
     abstract interpreter on every query, so push/pop deltas get fresh
     static verdicts. The check-sat sites below take the one GC probe
     per answered query. *)
  let session = Qsmt_strtheory.Incremental.create ?sampler ?absint ~telemetry () in
  (* A sampler is incomplete: it can certify sat (the decode verifies)
     but never unsat, so sampling failure is `Unknown. Only a static
     refutation is a proof (the abstract interpreter's transfer
     functions only remove characters no satisfying string can use),
     so only it upgrades to `Unsat. *)
  let verdict (o : Solver.outcome) =
    match (o.satisfied, value_of_constr_value o.value, o.decided) with
    | true, Some v, _ -> `Value v
    | _, _, Some { Absint.verdict = Absint.V_unsat _; _ } -> `Unsat
    | _ -> `Unknown
  in
  {
    backend_name = "annealing";
    solve_generate =
      (fun constr -> verdict (Qsmt_strtheory.Incremental.solve_generate session constr));
    solve_joint =
      (fun conjuncts ->
        match Qsmt_strtheory.Incremental.solve_joint session conjuncts with
        | Ok outcome -> verdict outcome
        | Error _ -> `Unknown);
  }

(* CDCL bit-blasting: complete on the supported fragment, so unlike the
   samplers it may answer `Unsat. One incremental session per backend:
   repeated queries across a push/pop script hit the outcome cache, and
   conjunctions share a single assumption-based CDCL instance that keeps
   its learned clauses. *)
let classical_backend () =
  let session = Strsolver.Session.create () in
  let solve_one constr =
    let o = Strsolver.Session.solve session constr in
    match o.Strsolver.result with
    | `Unsat -> `Unsat
    | `Sat when o.Strsolver.satisfied -> begin
      match Option.bind o.Strsolver.value value_of_constr_value with
      | Some v -> `Value v
      | None -> `Unknown
    end
    | `Sat | `Unknown -> `Unknown
  in
  {
    backend_name = "classical";
    solve_generate = solve_one;
    solve_joint =
      (fun conjuncts ->
        match Strsolver.Session.solve_joint session conjuncts with
        | Ok (`Sat s, _) -> `Value (Eval.V_str s)
        | Ok (`Unsat, _) -> `Unsat (* exact: a real refutation *)
        | Ok (`Unknown, _) -> `Unknown
        | Error _ ->
          (* not joint-encodable (an Includes conjunct, length mismatch):
             solve each conjunct independently; any refuted conjunct
             refutes the conjunction, and any conjunct's model that
             verifies against all conjuncts is a model of the
             conjunction. Anything else stays unknown. *)
          let outcomes = List.map (Strsolver.Session.solve session) conjuncts in
          if List.exists (fun o -> o.Strsolver.result = `Unsat) outcomes then `Unsat
          else begin
            let candidate_ok v = List.for_all (fun c -> Constr.verify c v) conjuncts in
            let witness =
              List.find_map
                (fun o ->
                  match (o.Strsolver.result, o.Strsolver.value) with
                  | `Sat, Some (Constr.Str _ as v) when o.Strsolver.satisfied && candidate_ok v
                    ->
                    Some v
                  | _ -> None)
                outcomes
            in
            match Option.bind witness value_of_constr_value with
            | Some v -> `Value v
            | None -> `Unknown
          end);
  }

let create ?sampler ?backend ?absint ?(telemetry = Telemetry.null) () =
  let backend =
    match backend with
    | Some b -> b
    | None -> annealing_backend ?sampler ?absint ~telemetry ()
  in
  {
    backend;
    telemetry;
    env = Typecheck.empty_env;
    assertions = [];
    last_model = None;
    stack = [];
    exited = false;
  }

let model st = st.last_model

(* Default values for declared-but-unconstrained variables, so a model
   always covers every declaration. *)
let default_value = function
  | Ast.S_string -> Some (Eval.V_str "")
  | Ast.S_int -> Some (Eval.V_int 0)
  | Ast.S_bool -> Some (Eval.V_bool true)
  | Ast.S_reglan -> None

let complete_model st partial =
  List.filter_map
    (fun (name, sort) ->
      match List.assoc_opt name partial with
      | Some v -> Some (name, v)
      | None -> Option.map (fun v -> (name, v)) (default_value sort))
    (Typecheck.declared st.env)

(* Classical double-check of a candidate model against every assertion. *)
let model_satisfies st model =
  List.for_all
    (fun a -> match Eval.term ~model a with Ok (Eval.V_bool true) -> true | _ -> false)
    (List.rev st.assertions)

(* Attempt one conjunction of atoms (a DNF cube). `Unsat is only
   reported when it is a proof — trivially false, or a complete backend
   (CDCL bit-blasting) refuting the cube; heuristic failure is
   `Unknown. *)
let attempt_cube st terms =
  match Compile.compile st.env terms with
  | Error _ -> `Unknown
  | Ok (Compile.Trivial false) -> `Unsat
  | Ok (Compile.Trivial true) -> `Sat (complete_model st [])
  | Ok (Compile.Solved { var; value }) ->
    let candidate = complete_model st [ (var, value) ] in
    (* verify against the cube, not the full boolean assertion set: the
       cube is what this branch claims *)
    if List.for_all (fun t -> Eval.term ~model:candidate t = Ok (Eval.V_bool true)) terms then
      `Sat candidate
    else `Unknown
  | Ok (Compile.Generate_joint { var; conjuncts }) -> begin
    match st.backend.solve_joint conjuncts with
    | `Value v -> `Sat (complete_model st [ (var, v) ])
    | `Unsat -> `Unsat
    | `Unknown -> `Unknown
  end
  | Ok (Compile.Generate { var; constr } | Compile.Locate { var; constr }) -> begin
    match st.backend.solve_generate constr with
    | `Value v -> `Sat (complete_model st [ (var, v) ])
    | `Unsat -> `Unsat
    | `Unknown -> `Unknown
  end

let check_sat st =
  st.last_model <- None;
  (* DPLL(T)-style split: expand the boolean structure into cubes, then
     decide each conjunction with the theory (annealing) backend. *)
  match Dnf.expand (List.rev st.assertions) with
  | Error _ -> [ "unknown" ]
  | Ok [] -> [ "unsat" ]
  | Ok cubes ->
    let rec try_cubes saw_unknown = function
      | [] -> if saw_unknown then [ "unknown" ] else [ "unsat" ]
      | cube :: rest -> begin
        match Dnf.cube_terms cube with
        | Error _ -> try_cubes true rest
        | Ok terms -> begin
          match attempt_cube st terms with
          | `Sat candidate ->
            (* final word: the model must satisfy the *original*
               assertions (Eval handles and/or/not) *)
            if model_satisfies st candidate then begin
              st.last_model <- Some candidate;
              [ "sat" ]
            end
            else try_cubes true rest
          | `Unsat -> try_cubes saw_unknown rest
          | `Unknown -> try_cubes true rest
        end
      end
    in
    try_cubes false cubes

let sort_of_value = function
  | Eval.V_str _ -> Ast.S_string
  | Eval.V_int _ -> Ast.S_int
  | Eval.V_bool _ -> Ast.S_bool

(* Both check-sat forms answer under their own span with one GC probe
   and one [smtlib.verdict] event. A backend that raises (a sampler
   rejecting the query's size, say) answers the command with an error,
   so a session survives it. *)
let traced_check_sat st span_name =
  Telemetry.with_span st.telemetry span_name (fun span ->
      match Telemetry.with_gc_probe st.telemetry ~span (fun () -> check_sat st) with
      | exception (Invalid_argument msg | Failure msg) -> Error msg
      | exception e -> Error (Printexc.to_string e)
      | lines ->
        (match lines with
        | [ verdict ] ->
          Telemetry.emit st.telemetry ~span "smtlib.verdict" [ ("result", Telemetry.Str verdict) ]
        | _ -> ());
        Ok lines)

let exec st command =
  if st.exited then Error "solver has exited"
  else begin
    match command with
    | Ast.Set_logic _ | Ast.Set_info | Ast.Set_option -> Ok []
    | Ast.Declare_const (name, sort) ->
      let* env = Typecheck.declare st.env name sort in
      st.env <- env;
      Ok []
    | Ast.Assert term ->
      let* () = Typecheck.check_assertion st.env term in
      st.assertions <- term :: st.assertions;
      Telemetry.count st.telemetry "smtlib.assertions" 1;
      Ok []
    | Ast.Push n ->
      for _ = 1 to n do
        st.stack <- (st.env, st.assertions) :: st.stack
      done;
      Ok []
    | Ast.Pop n ->
      let rec pop k =
        if k = 0 then Ok []
        else begin
          match st.stack with
          | [] -> Error "pop without matching push"
          | (env, assertions) :: rest ->
            st.env <- env;
            st.assertions <- assertions;
            st.stack <- rest;
            pop (k - 1)
        end
      in
      pop n
    | Ast.Check_sat -> traced_check_sat st "smtlib.check_sat"
    | Ast.Check_sat_assuming assumptions ->
      let* () =
        List.fold_left
          (fun acc a ->
            let* () = acc in
            Typecheck.check_assertion st.env a)
          (Ok ()) assumptions
      in
      (* Assumptions join the assertions for this one query only; the
         stack, environment and assertion list are untouched afterwards.
         A model found under assumptions stays available to (get-model),
         matching how (check-sat) leaves its model behind. *)
      let saved = st.assertions in
      st.assertions <- List.rev_append (List.rev assumptions) st.assertions;
      Telemetry.count st.telemetry "smtlib.assumptions" (List.length assumptions);
      Fun.protect
        ~finally:(fun () -> st.assertions <- saved)
        (fun () -> traced_check_sat st "smtlib.check_sat_assuming")
    | Ast.Get_model -> begin
      match st.last_model with
      | None -> Error "no model available (run (check-sat) first, it must answer sat)"
      | Some model ->
        let lines =
          List.map
            (fun (name, v) ->
              Format.asprintf "(define-fun %s () %s %a)" name
                (Ast.string_of_sort (sort_of_value v))
                Eval.pp_value v)
            model
        in
        Ok (("(" :: List.map (fun l -> "  " ^ l) lines) @ [ ")" ])
    end
    | Ast.Get_value targets -> begin
      match st.last_model with
      | None -> Error "no model available (run (check-sat) first, it must answer sat)"
      | Some model ->
        let* pairs =
          List.fold_left
            (fun acc t ->
              let* acc = acc in
              let* v = Eval.term ~model t in
              Ok ((t, v) :: acc))
            (Ok []) targets
        in
        let rendered =
          List.rev_map
            (fun (t, v) -> Format.asprintf "(%s %a)" (Ast.term_to_string t) Eval.pp_value v)
            pairs
        in
        Ok [ "(" ^ String.concat " " rendered ^ ")" ]
    end
    | Ast.Echo s -> Ok [ s ]
    | Ast.Exit ->
      st.exited <- true;
      Ok []
  end

(* The output of every command run before the end, the first [Exit] or
   the first error, and that error. *)
let exec_all st commands =
  let rec go acc = function
    | cmd :: rest when not st.exited -> (
      match exec st cmd with
      | Ok lines -> go (lines :: acc) rest
      | Error msg -> (List.concat (List.rev acc), Some msg))
    | [] | _ :: _ -> (List.concat (List.rev acc), None)
  in
  go [] commands

let to_result = function lines, None -> Ok lines | _, Some msg -> Error msg
let run_script st commands = to_result (exec_all st commands)

let run_string_partial ?sampler ?backend ?absint ?(telemetry = Telemetry.null) source =
  match Telemetry.with_span telemetry "smtlib.parse" (fun _ -> Parser.parse_script source) with
  | Error msg -> ([], Some msg)
  | Ok commands -> exec_all (create ?sampler ?backend ?absint ~telemetry ()) commands

let run_string ?sampler ?backend ?absint ?telemetry source =
  to_result (run_string_partial ?sampler ?backend ?absint ?telemetry source)
