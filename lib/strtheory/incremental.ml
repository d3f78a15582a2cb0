module Qubo = Qsmt_qubo.Qubo
module Bitvec = Qsmt_util.Bitvec
module Telemetry = Qsmt_util.Telemetry
module Sampleset = Qsmt_anneal.Sampleset

let ( let* ) = Result.bind

type t = {
  config : Stage.config;
  (* Per-conjunct frozen encodings, gated once at insertion. [Constr.t]
     is a plain structural value, so it keys the table directly. *)
  encode_cache : (Constr.t, Qubo.t) Hashtbl.t;
  (* Best assignment of the last sampled or reused answer — the
     reverse-anneal seed for the next query of the same size. *)
  mutable warm : Bitvec.t option;
  (* The last satisfying string: if it still verifies against the new
     conjuncts (the pop case — constraints only got weaker), neither
     absint nor sampling runs. *)
  mutable last_sat : string option;
}

let create ?sampler ?(lint = `Off) ?(absint = `On) ?(telemetry = Telemetry.null) () =
  let sampler = match sampler with Some s -> s | None -> Solver.default_sampler ~seed:0 in
  {
    config = { Stage.params = None; sampler; lint; absint; telemetry };
    encode_cache = Hashtbl.create 16;
    warm = None;
    last_sat = None;
  }

let reset t =
  Hashtbl.reset t.encode_cache;
  t.warm <- None;
  t.last_sat <- None

(* One query through the pipeline with the session's state. A static
   answer leaves the warm bits alone (no assignment was sampled); any
   satisfying string becomes the next candidate model. The SMT-LIB
   front end probes each check-sat, so the session takes no GC probe. *)
let query t cs =
  let* a =
    Stage.run ~cache:t.encode_cache ?model:t.last_sat ?warm:t.warm ~probe:false t.config cs
  in
  if Option.is_none a.Stage.decided then
    Option.iter
      (fun e -> t.warm <- Some (Bitvec.copy e.Sampleset.bits))
      (Sampleset.best_opt a.Stage.samples);
  (match (a.Stage.satisfied, a.Stage.value) with
  | true, Constr.Str s -> t.last_sat <- Some s
  | _ -> ());
  Ok a

let solve_generate t constr =
  match query t [ constr ] with
  | Ok a -> a
  | Error msg -> invalid_arg ("Incremental: " ^ msg)

let solve_joint t cs =
  let* _length = Joint.common_length cs in
  query t cs
