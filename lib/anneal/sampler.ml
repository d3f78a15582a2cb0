type recipe =
  | R_sa of Sa.params
  | R_sa_packed of Sa.params
  | R_sqa of Sqa.params
  | R_tabu of Tabu.params
  | R_pt of Pt.params
  | R_greedy of Greedy.params
  | R_exact of int option
  | R_hardware of Hardware.params
  | R_hardware_auto of (Qsmt_qubo.Qubo.t -> Hardware.params)
  | R_portfolio of Portfolio.params
  | R_custom of (Qsmt_qubo.Qubo.t -> Sampleset.t)

type t = { name : string; recipe : recipe }

let name t = t.name

let with_seed t seed =
  let recipe =
    match t.recipe with
    | R_sa p -> R_sa { p with Sa.seed }
    | R_sa_packed p -> R_sa_packed { p with Sa.seed }
    | R_sqa p -> R_sqa { p with Sqa.seed }
    | R_tabu p -> R_tabu { p with Tabu.seed }
    | R_pt p -> R_pt { p with Pt.seed }
    | R_greedy p -> R_greedy { p with Greedy.seed }
    | R_hardware p -> R_hardware { p with Hardware.anneal = { p.Hardware.anneal with Sa.seed } }
    | R_hardware_auto f ->
      R_hardware_auto
        (fun q ->
          let p = f q in
          { p with Hardware.anneal = { p.Hardware.anneal with Sa.seed } })
    | R_portfolio p -> R_portfolio (Portfolio.reseed p seed)
    | (R_exact _ | R_custom _) as r -> r
  in
  { t with recipe }

let run_detailed ?verify ?init ?(early_exit = false) ?(telemetry = Qsmt_util.Telemetry.null) t q =
  (* Early exit is opt-in (and needs a verifier): the stop/on_read hooks
     truncate the heuristic samplers' read loops on the first verified
     read, which changes the sample set — cold solves keep the exhaustive
     deterministic behavior, incremental warm re-solves turn this on. *)
  let hooks () =
    match verify with
    | Some ok when early_exit ->
      let found = Atomic.make false in
      let stop () = Atomic.get found in
      let on_read bits = if (not (Atomic.get found)) && ok bits then Atomic.set found true in
      (Some stop, Some on_read)
    | _ -> (None, None)
  in
  match t.recipe with
  | R_sa params ->
    let stop, on_read = hooks () in
    (Sa.sample ~params ?init ?stop ?on_read ~telemetry q, None)
  | R_sa_packed params ->
    let stop, on_read = hooks () in
    (Sa.run_packed ~params ?init ?stop ?on_read ~telemetry q, None)
  | R_sqa params ->
    let stop, on_read = hooks () in
    (Sqa.sample ~params ?init ?stop ?on_read ~telemetry q, None)
  | R_tabu params ->
    let stop, on_read = hooks () in
    (Tabu.sample ~params ?init ?stop ?on_read ~telemetry q, None)
  | R_pt params ->
    let stop, on_read = hooks () in
    (Pt.sample ~params ?init ?stop ?on_read ~telemetry q, None)
  | R_greedy params ->
    let stop, on_read = hooks () in
    (Greedy.sample ~params ?init ?stop ?on_read ~telemetry q, None)
  | R_exact keep -> (Exact.solve ?keep q, None)
  | R_hardware params ->
    let r = Hardware.sample ~params ~telemetry q in
    (r.Hardware.samples, Some r.Hardware.stats)
  | R_hardware_auto f ->
    let r = Hardware.sample ~params:(f q) ~telemetry q in
    (r.Hardware.samples, Some r.Hardware.stats)
  | R_portfolio params ->
    let r = Portfolio.run ~params ?init ?verify ~telemetry q in
    ( r.Portfolio.merged,
      List.find_map (fun rep -> rep.Portfolio.hardware) r.Portfolio.reports )
  | R_custom f -> (f q, None)

let run ?verify ?init ?early_exit ?telemetry t q =
  fst (run_detailed ?verify ?init ?early_exit ?telemetry t q)

let make ~name f = { name; recipe = R_custom f }
let simulated_annealing ?(params = Sa.default) () = { name = "sa"; recipe = R_sa params }

let simulated_annealing_packed ?(params = Sa.default) () =
  { name = "sa_packed"; recipe = R_sa_packed params }

let simulated_quantum_annealing ?(params = Sqa.default) () = { name = "sqa"; recipe = R_sqa params }

let tabu ?(params = Tabu.default) () = { name = "tabu"; recipe = R_tabu params }
let parallel_tempering ?(params = Pt.default) () = { name = "pt"; recipe = R_pt params }
let greedy ?(params = Greedy.default) () = { name = "greedy"; recipe = R_greedy params }
let exact ?keep () = { name = "exact"; recipe = R_exact keep }
let hardware ~params = { name = "hardware"; recipe = R_hardware params }
let hardware_auto f = { name = "hardware"; recipe = R_hardware_auto f }
let portfolio ?(params = Portfolio.default) () = { name = "portfolio"; recipe = R_portfolio params }

let default_suite ~seed =
  [
    simulated_annealing ~params:{ Sa.default with Sa.seed } ();
    simulated_quantum_annealing ~params:{ Sqa.default with Sqa.seed } ();
    parallel_tempering ~params:{ Pt.default with Pt.seed } ();
    tabu ~params:{ Tabu.default with Tabu.seed } ();
    greedy ~params:{ Greedy.default with Greedy.seed } ();
  ]
