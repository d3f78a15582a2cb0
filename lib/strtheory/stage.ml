module Qubo = Qsmt_qubo.Qubo
module Preprocess = Qsmt_qubo.Preprocess
module Bitvec = Qsmt_util.Bitvec
module Telemetry = Qsmt_util.Telemetry
module Sampleset = Qsmt_anneal.Sampleset

type config = {
  params : Params.t option;
  sampler : Qsmt_anneal.Sampler.t;
  lint : Lint.gate;
  absint : Absint.gate;
  telemetry : Telemetry.t;
}

type answer = {
  qubo : Qubo.t;
  samples : Sampleset.t;
  value : Constr.value;
  satisfied : bool;
  energy : float;
  hardware : Qsmt_anneal.Hardware.stats option;
  decided : Absint.analysis option;
}

(* Float additions happen in list order, per coefficient slot, so
   merging cached parts is bit-exact equal to a full recompile. *)
let merge_frozen ~num_vars parts =
  let merged = Qubo.builder () in
  List.iter
    (fun q ->
      Qubo.iter_linear q (fun i v -> Qubo.add merged i i v);
      Qubo.iter_quadratic q (fun i j v -> Qubo.add merged i j v);
      Qubo.add_offset merged (Qubo.offset q))
    parts;
  Qubo.freeze ~num_vars merged

(* Recomputing each energy against the full QUBO keeps shrunk and
   unshrunk solves identical for identical assignments (the residual's
   folded offset is equal only up to float association). *)
let lift_samples ~qubo red samples =
  Sampleset.of_entries
    (List.map
       (fun e ->
         let bits = Preprocess.expand red e.Sampleset.bits in
         {
           Sampleset.bits;
           energy = Qubo.energy qubo bits;
           occurrences = e.Sampleset.occurrences;
         })
       (Sampleset.entries samples))

(* Closes the [solve] span with its [solve.done] event. *)
let finish cfg span cs a =
  let tel = cfg.telemetry in
  if Telemetry.enabled tel then begin
    Telemetry.count tel "solve.constraints" (List.length cs);
    Telemetry.emit tel ~span "solve.done"
      [
        ("op", Telemetry.Str (String.concat "+" (List.map Compile.op_name cs)));
        ("satisfied", Telemetry.Bool a.satisfied);
        ("energy", Telemetry.Float a.energy);
        ("reads", Telemetry.Int (Sampleset.total_reads a.samples));
      ]
  end;
  Telemetry.finish tel span;
  a

(* A static verdict answers before any QUBO exists: no encoding, no
   domain pool, no sampler reads. *)
let static cfg span cs analysis =
  let c0 = List.hd cs in
  let value, satisfied =
    match analysis.Absint.verdict with
    | Absint.V_sat value -> (value, true)
    | Absint.V_unsat _ | Absint.V_undecided ->
      ((match c0 with Constr.Includes _ -> Constr.Pos None | _ -> Constr.Str ""), false)
  in
  finish cfg span cs
    {
      qubo = Qubo.freeze ~num_vars:(Constr.num_vars c0) (Qubo.builder ());
      samples = Sampleset.empty;
      value;
      satisfied;
      energy = 0.;
      hardware = None;
      decided = Some analysis;
    }

(* One sampler run with the forced bits clamped: the anneal sees only
   the residual, a warm [init] (always full size) is projected onto it,
   and the samples are lifted back to full assignments. A warm run may
   stop at its first verified read. *)
let sample cfg ?init ~verify ~forced qubo =
  let tel = cfg.telemetry in
  let anneal ?init ~verify q =
    let warm = Option.is_some init in
    if warm then Telemetry.count tel "incr.warm_start" 1;
    Qsmt_anneal.Sampler.run_detailed ~verify ?init ~early_exit:warm ~telemetry:tel cfg.sampler q
  in
  match forced with
  | [] -> anneal ?init ~verify qubo
  | forced ->
    Telemetry.count tel "absint.shrunk" 1;
    let red = Preprocess.clamp qubo forced in
    if Preprocess.num_free red = 0 then
      (Sampleset.of_bits qubo [ Preprocess.expand red (Bitvec.create 0) ], None)
    else begin
      let free = Preprocess.free_indices red in
      let init =
        Option.map
          (fun bits -> Bitvec.init (Array.length free) (fun r -> Bitvec.get bits free.(r)))
          init
      in
      let samples, hardware =
        anneal ?init
          ~verify:(fun bits -> verify (Preprocess.expand red bits))
          (Preprocess.residual red)
      in
      (lift_samples ~qubo red samples, hardware)
    end

(* The decode scan: the first (= lowest-energy) entry whose decode
   satisfies, else the lowest-energy decode. Lazy, so a best read that
   verifies costs one decode. *)
let pick ~decode ~verify samples =
  let rec scan first = function
    | [] -> Option.map (fun (value, energy) -> (value, false, energy)) first
    | e :: rest ->
      let value = decode e.Sampleset.bits in
      if verify value then Some (value, true, e.Sampleset.energy)
      else scan (if Option.is_none first then Some (value, e.Sampleset.energy) else first) rest
  in
  scan None (Sampleset.entries samples)

(* Encode (and lint), then answer by the session's reusable model or by
   sampling the residual absint left undecided. *)
let anneal_stages ?cache ?reuse ?warm cfg span cs ~verify_value analysis =
  let tel = cfg.telemetry and c0 = List.hd cs in
  let verify bits = verify_value (Compile.decode c0 bits) in
  let fresh = ref [] in
  let part c =
    match Option.bind cache (fun h -> Hashtbl.find_opt h c) with
    | Some q ->
      Telemetry.count tel "incr.encode_hit" 1;
      q
    | None ->
      let q = Compile.to_qubo ?params:cfg.params ~telemetry:tel c in
      Option.iter (fun h -> Hashtbl.replace h c q) cache;
      fresh := (c, q) :: !fresh;
      q
  in
  let qubo =
    Telemetry.with_span tel ~parent:span "encode" (fun _ ->
        match cs with
        | [ c ] -> part c
        | cs -> merge_frozen ~num_vars:(Constr.num_vars c0) (List.map part cs))
  in
  (* Each part is gated once, when compiled: a merge is a sum of
     individually vetted encodings. On a rejection nothing this query
     compiled stays cached unvetted. *)
  (match cfg.lint with
  | `Off -> ()
  | (`Error | `Warning) as gate ->
    Telemetry.with_span tel ~parent:span "lint" (fun _ ->
        try
          List.iter
            (fun (c, q) -> Lint.gate_check ~telemetry:tel ~gate c q)
            (List.rev !fresh)
        with Lint.Rejected _ as e ->
          Option.iter (fun h -> List.iter (fun (c, _) -> Hashtbl.remove h c) !fresh) cache;
          raise e));
  let attempt ~forced init =
    let samples, hardware =
      Telemetry.with_span tel ~parent:span "sample" (fun _ ->
          sample cfg ?init ~verify ~forced qubo)
    in
    let picked =
      Telemetry.with_span tel ~parent:span "decode" (fun _ ->
          pick ~decode:(Compile.decode c0) ~verify:verify_value samples)
    in
    Option.map (fun (value, satisfied, energy) -> (samples, hardware, value, satisfied, energy)) picked
  in
  let picked =
    match reuse with
    | Some s ->
      (* the previous answer still satisfies (the pop case): no sampling *)
      Telemetry.count tel "incr.model_reuse" 1;
      let samples = Sampleset.of_bits qubo [ Qsmt_util.Ascii7.encode s ] in
      Some (samples, None, Constr.Str s, true, (Sampleset.best samples).Sampleset.energy)
    | None -> (
      let forced = match analysis with Some a -> Absint.forced_bits a | None -> [] in
      let init =
        match warm with
        | Some bits when Bitvec.length bits = Qubo.num_vars qubo -> Some (Bitvec.copy bits)
        | _ -> None
      in
      match attempt ~forced init with
      | Some (_, _, _, false, _) when Option.is_some init ->
        (* A failed warm run retries the exact cold configuration, so a
           session's verdict is never worse than a from-scratch one. *)
        Telemetry.count tel "incr.cold_retry" 1;
        attempt ~forced None
      | first -> first)
  in
  match picked with
  | None -> Error "sampler returned an empty sample set"
  | Some (samples, hardware, value, satisfied, energy) ->
    Ok (finish cfg span cs { qubo; samples; value; satisfied; energy; hardware; decided = None })

let stages ?cache ?model ?warm cfg span cs =
  let tel = cfg.telemetry in
  let verifiers = List.map Constr.verifier cs in
  let verify_value value = List.for_all (fun check -> check value) verifiers in
  (* A session's last model that satisfies every conjunct (every string
     check pins the length, so it has the query's length) answers ahead
     of the absint gate: the most absint could answer then is [V_sat]
     of that same string. *)
  let reuse =
    match model with Some s when verify_value (Constr.Str s) -> Some s | _ -> None
  in
  let analysis =
    match (cfg.absint, reuse) with
    | `Off, _ | `On, Some _ -> None
    | `On, None ->
      Telemetry.with_span tel ~parent:span "absint" (fun _ ->
          match Absint.analyze cs with
          | Ok a ->
            Absint.emit tel a;
            Some a
          | Error _ -> None)
  in
  match analysis with
  | Some ({ Absint.verdict = Absint.V_sat _ | Absint.V_unsat _; _ } as a) ->
    Ok (static cfg span cs a)
  | None | Some { Absint.verdict = Absint.V_undecided; _ } -> (
    (* An answer closes [solve] in [finish]; an error or a raise (the
       lint gate, a sampler rejecting its input) closes it here. *)
    match anneal_stages ?cache ?reuse ?warm cfg span cs ~verify_value analysis with
    | Ok _ as answer -> answer
    | Error _ as answer ->
      Telemetry.finish tel span;
      answer
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Telemetry.finish tel span;
      Printexc.raise_with_backtrace e bt)

let run ?cache ?model ?warm ~probe cfg cs =
  let span = Telemetry.span cfg.telemetry "solve" in
  if probe then
    Telemetry.with_gc_probe cfg.telemetry ~span (fun () ->
        stages ?cache ?model ?warm cfg span cs)
  else stages ?cache ?model ?warm cfg span cs
