module Bitvec = Qsmt_util.Bitvec
module Qubo = Qsmt_qubo.Qubo

type entry = { bits : Bitvec.t; energy : float; occurrences : int }

(* Invariant: ascending energy, no two entries share an assignment. *)
type t = entry list

module Bits_tbl = Hashtbl.Make (struct
  type t = Bitvec.t

  let equal = Bitvec.equal
  let hash = Bitvec.hash
end)

let aggregate entries =
  let tbl = Bits_tbl.create 64 in
  List.iter
    (fun e ->
      match Bits_tbl.find_opt tbl e.bits with
      | Some prior ->
        (* Duplicate assignments can arrive with disagreeing energies
           (e.g. a noisy hardware-model read merged with an exact one);
           keeping the first seen made the merged energy depend on entry
           order. The minimum is order-independent and never ranks an
           assignment worse than any sampler priced it. *)
        Bits_tbl.replace tbl e.bits
          { prior with
            energy = Float.min prior.energy e.energy;
            occurrences = prior.occurrences + e.occurrences }
      | None -> Bits_tbl.add tbl e.bits e)
    entries;
  let all = Bits_tbl.fold (fun _ e acc -> e :: acc) tbl [] in
  List.sort
    (fun a b ->
      let c = compare a.energy b.energy in
      if c <> 0 then c else Bitvec.compare a.bits b.bits)
    all

let of_entries entries = aggregate entries

let of_bits q samples =
  aggregate (List.map (fun bits -> { bits; energy = Qubo.energy q bits; occurrences = 1 }) samples)

let of_tracked q samples =
  let n = Qubo.num_vars q in
  aggregate
    (List.map
       (fun (bits, energy) ->
         if Bitvec.length bits <> n then
           invalid_arg
             (Printf.sprintf "Sampleset.of_tracked: assignment has %d bits, problem has %d vars"
                (Bitvec.length bits) n);
         { bits; energy; occurrences = 1 })
       samples)

let empty = []
let is_empty t = t = []
let size = List.length
let total_reads t = List.fold_left (fun acc e -> acc + e.occurrences) 0 t

let best = function
  | [] -> invalid_arg "Sampleset.best: empty sample set"
  | e :: _ -> e

let best_opt = function [] -> None | e :: _ -> Some e
let entries t = t

let lowest_energy t = (best t).energy

let energies t =
  let out = Array.make (total_reads t) 0. in
  let k = ref 0 in
  List.iter
    (fun e ->
      for _ = 1 to e.occurrences do
        out.(!k) <- e.energy;
        incr k
      done)
    t;
  out

let filter p t = List.filter p t
let merge a b = aggregate (a @ b)

let truncate k t =
  (* Accumulator + reverse instead of the naive [e :: take (k-1) rest]:
     the recursive form blows the stack when a huge sample set is
     truncated to a still-huge prefix. *)
  let rec take acc k = function
    | [] -> List.rev acc
    | _ when k <= 0 -> List.rev acc
    | e :: rest -> take (e :: acc) (k - 1) rest
  in
  take [] k t

let ground_probability t ~tol =
  match t with
  | [] -> 0.
  | best :: _ ->
    let ground =
      List.fold_left
        (fun acc e -> if e.energy <= best.energy +. tol then acc + e.occurrences else acc)
        0 t
    in
    float_of_int ground /. float_of_int (total_reads t)

let pp ppf t =
  match t with
  | [] -> Format.fprintf ppf "(empty sample set)"
  | _ ->
    Format.fprintf ppf "%d distinct / %d reads@\n" (size t) (total_reads t);
    let shown = truncate 10 t in
    List.iteri
      (fun k e ->
        if k > 0 then Format.pp_print_newline ppf ();
        Format.fprintf ppf "  E=%-12g x%-4d %a" e.energy e.occurrences Bitvec.pp e.bits)
      shown;
    if size t > 10 then Format.fprintf ppf "@\n  ... (%d more)" (size t - 10)
