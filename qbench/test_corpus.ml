(* The corpus is a pure function of (workload, seed): the same seed
   renders byte-identical corpora, another seed a different one. Every
   script parses, and holds as many check commands as it plans
   verdicts for. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let () =
  List.iter
    (fun w ->
      let name = Corpus.workload_name w in
      let gen seed = Corpus.generate w ~seed ~decks:3 in
      let a = Corpus.render (gen 1) and b = Corpus.render (gen 1) in
      if a <> b then fail "%s: seed 1 rendered two different corpora" name;
      if Corpus.render (gen 2) = a then fail "%s: seeds 1 and 2 rendered the same corpus" name;
      let corpus = gen 1 in
      if Array.length corpus <> 3 * Corpus.deck_size w then
        fail "%s: %d scripts for 3 decks of %d" name (Array.length corpus) (Corpus.deck_size w);
      Array.iter
        (fun (s : Corpus.script) ->
          match Qsmt_smtlib.Parser.parse_script s.Corpus.text with
          | Error e -> fail "%s %s: %s" name s.Corpus.label e
          | Ok cmds ->
            let checks =
              List.length
                (List.filter
                   (function
                     | Qsmt_smtlib.Ast.Check_sat | Qsmt_smtlib.Ast.Check_sat_assuming _ -> true
                     | _ -> false)
                   cmds)
            in
            if checks <> List.length s.Corpus.checks then
              fail "%s %s: %d checks, %d planted verdicts" name s.Corpus.label checks
                (List.length s.Corpus.checks))
        corpus;
      Printf.printf "%s: %d scripts per deck, deterministic\n" name (Corpus.deck_size w))
    Corpus.workloads
