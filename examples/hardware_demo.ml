(* Hardware model: the full QPU workflow in simulation.

   Run with:  dune exec examples/hardware_demo.exe

   Takes the paper's string-equality constraint onto a Chimera-topology
   annealer: minor-embed, add chain penalties, anneal the physical
   problem (with a little control noise), majority-vote chains back, and
   report what embedding cost us. This is the "run it on a real quantum
   annealer" future work of the paper, reproduced end to end. *)

module Constr = Qsmt_strtheory.Constr
module Compile = Qsmt_strtheory.Compile
module Hardware = Qsmt_anneal.Hardware
module Topology = Qsmt_anneal.Topology
module Embedding = Qsmt_anneal.Embedding
module Sampleset = Qsmt_anneal.Sampleset
module Sa = Qsmt_anneal.Sa
module Qubo = Qsmt_qubo.Qubo

let () =
  (* Includes carries a pairwise one-hot penalty, so its interaction
     graph is a complete graph over the candidate positions — the worst
     case for a sparse topology and the constraint that actually forces
     multi-qubit chains. *)
  let constr = Constr.Includes { haystack = "abcabcabc"; needle = "abc"; first = false } in
  let qubo = Compile.to_qubo constr in
  Format.printf "logical problem : %s -> %a@." (Constr.describe constr) Qubo.pp qubo;

  let topology = Topology.chimera ~m:3 () in
  Format.printf "hardware        : %s (%d qubits)@.@." (Topology.name topology)
    (Topology.num_qubits topology);

  List.iter
    (fun noise_sigma ->
      let params =
        { (Hardware.default_params topology) with
          Hardware.noise_sigma;
          Hardware.embed_tries = 64;
          Hardware.anneal = { Sa.default with Sa.reads = 32; sweeps = 600; seed = 5 } }
      in
      let r = Hardware.sample ~params qubo in
      let best = Sampleset.best r.Hardware.samples in
      let decoded = Compile.decode constr best.Sampleset.bits in
      Format.printf
        "noise %.2f: chains<=%d, breaks %.1f%%, best %a (E=%g, %s), ground prob %.0f%%@."
        noise_sigma r.Hardware.stats.Hardware.max_chain_length
        (100. *. r.Hardware.stats.Hardware.mean_chain_break_fraction)
        Constr.pp_value decoded best.Sampleset.energy
        (if Constr.verify constr decoded then "verified" else "wrong")
        (100. *. Sampleset.ground_probability r.Hardware.samples ~tol:1e-9))
    [ 0.0; 0.02; 0.05; 0.10 ];

  (* Show the embedding itself for the curious. *)
  let problem = Qsmt_qubo.Qgraph.of_qubo qubo in
  match Embedding.find ~problem ~hardware:(Topology.graph topology) () with
  | None -> Format.printf "@.no embedding found?!@."
  | Some e ->
    Format.printf "@.%a@." Embedding.pp e;
    for v = 0 to min 4 (Embedding.num_problem_vars e - 1) do
      Format.printf "  var %d -> qubits %s@." v
        (String.concat "," (List.map string_of_int (Embedding.chain e v)))
    done
