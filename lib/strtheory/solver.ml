module Sampler = Qsmt_anneal.Sampler
module Sa = Qsmt_anneal.Sa
module Parallel = Qsmt_util.Parallel

type outcome = Stage.answer = {
  qubo : Qsmt_qubo.Qubo.t;
  samples : Qsmt_anneal.Sampleset.t;
  value : Constr.value;
  satisfied : bool;
  energy : float;
  hardware : Qsmt_anneal.Hardware.stats option;
  decided : Absint.analysis option;
}

let default_sampler ~seed =
  Sampler.simulated_annealing ~params:{ Sa.default with Sa.seed } ()

let lift_samples = Stage.lift_samples

let solve ?params ?sampler ?(lint = `Off) ?(absint = `On)
    ?(telemetry = Qsmt_util.Telemetry.null) constr =
  let sampler = match sampler with Some s -> s | None -> default_sampler ~seed:0 in
  match
    Stage.run ~probe:true { Stage.params; sampler; lint; absint; telemetry } [ constr ]
  with
  | Ok a -> a
  | Error msg -> invalid_arg ("Solver: " ^ msg)

let solve_batch ?sampler ?(jobs = 0) constrs =
  let jobs = if jobs > 0 then jobs else Parallel.recommended_domains () in
  let constrs = Array.of_list constrs in
  Array.to_list
    (Parallel.init_array ~domains:jobs (Array.length constrs) (fun i ->
         solve ?sampler constrs.(i)))

type pipeline_error = {
  stage_index : int;
  blocking_value : Constr.value;
  completed : outcome list;
}

let solve_pipeline ?sampler pipeline =
  let first = solve ?sampler pipeline.Pipeline.initial in
  (* Stages transform a string; a positional decode (only the initial
     constraint can produce one, via Includes) has no string to feed
     forward, so the run stops with a typed error instead of silently
     degrading the input to "". *)
  let rec go index input acc = function
    | [] -> Ok (List.rev acc)
    | stage :: rest ->
      let constr = Pipeline.constraint_for stage ~input in
      let outcome = solve ?sampler constr in
      let acc = outcome :: acc in
      (match outcome.value with
      | Constr.Str s -> go (index + 1) s acc rest
      | Constr.Pos _ when rest = [] -> Ok (List.rev acc)
      | Constr.Pos _ ->
        Error { stage_index = index; blocking_value = outcome.value; completed = List.rev acc })
  in
  match first.value with
  | Constr.Str s -> go 1 s [ first ] pipeline.Pipeline.stages
  | Constr.Pos _ when pipeline.Pipeline.stages = [] -> Ok [ first ]
  | Constr.Pos _ ->
    Error { stage_index = 0; blocking_value = first.value; completed = [ first ] }

let pipeline_output outcomes =
  match List.rev outcomes with
  | [] -> None
  | last :: _ -> ( match last.value with Constr.Str s -> Some s | Constr.Pos _ -> None)
