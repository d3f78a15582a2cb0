module Charset = Qsmt_regex.Charset
module Dfa = Qsmt_regex.Dfa
module Analyze = Qsmt_qubo.Analyze
module Telemetry = Qsmt_util.Telemetry

type gate = [ `On | `Off ]

type verdict = V_sat of Constr.value | V_unsat of string | V_undecided

type analysis = {
  length : int;
  doms : Charset.t array;
  iterations : int;
  facts : int;
  widened : bool;
  verdict : verdict;
}

let default_max_iters = 64

(* ------------------------------------------------------------------ *)
(* Abstract state: per-position domains + equality congruence          *)

type st = {
  st_doms : Charset.t array;
  (* union-find over positions; palindrome mirrors are the only merge
     source today, but the closure is generic *)
  parent : int array;
  mutable merged : bool; (* some [union] joined two classes *)
  mutable st_facts : int;
  mutable changed : bool;
  mutable contradiction : string option;
}

let rec find st i = if st.parent.(i) = i then i else find st st.parent.(i)

let union st i j =
  let ri = find st i and rj = find st j in
  if ri <> rj then begin
    st.parent.(max ri rj) <- min ri rj;
    st.merged <- true;
    st.st_facts <- st.st_facts + 1
  end

(* Meet [set] into position [i]'s domain, recording narrowing facts and
   the first contradiction. Every transfer function funnels through
   here, which is what makes the fixpoint loop's change detection and
   the soundness argument local: a character is only ever removed when
   the caller proved no satisfying string can place it at [i]. *)
let meet st i set =
  let cur = st.st_doms.(i) in
  let next = Charset.inter cur set in
  if not (Charset.equal next cur) then begin
    st.st_doms.(i) <- next;
    st.st_facts <- st.st_facts + 1;
    st.changed <- true;
    if Charset.is_empty next && st.contradiction = None then
      st.contradiction <-
        Some (Printf.sprintf "position %d has an empty character domain" i)
  end

let meet_literal st s = String.iteri (fun i c -> meet st i (Charset.singleton c)) s

(* Propagate domain meets across congruence classes: congruent
   positions hold the same character in any satisfying string, so each
   class shares the meet of its members' domains. Without a merge every
   class is one position, and the pass would change nothing. *)
let congruence st =
  if st.merged then begin
    let l = Array.length st.st_doms in
    (* indexed by class root; a root is its class's smallest position *)
    let class_meet = Array.make l Charset.full in
    for i = 0 to l - 1 do
      let r = find st i in
      class_meet.(r) <- Charset.inter class_meet.(r) st.st_doms.(i)
    done;
    for i = 0 to l - 1 do
      meet st i class_meet.(find st i)
    done
  end

(* ------------------------------------------------------------------ *)
(* Transfer functions (one closure per conjunct, re-run to fixpoint)   *)

(* §4.3 placement feasibility: a satisfying string has [sub] at some
   start position, and that occurrence's characters are members of the
   current domains — so placements contradicting the domains can never
   be the occurrence. A position covered by *every* surviving placement
   must hold one of the characters the placements put there; no
   surviving placement at all is a contradiction. *)
let step_contains ~length ~sub st =
  let m = String.length sub in
  if m > 0 then begin
    let feasible p =
      let ok = ref true in
      for j = 0 to m - 1 do
        if not (Charset.mem sub.[j] st.st_doms.(p + j)) then ok := false
      done;
      !ok
    in
    let ps = ref [] in
    for p = length - m downto 0 do
      if feasible p then ps := p :: !ps
    done;
    match !ps with
    | [] ->
      if st.contradiction = None then
        st.contradiction <-
          Some
            (Printf.sprintf "no feasible placement left for substring %S in %d characters"
               sub length)
    | ps ->
      for i = 0 to length - 1 do
        if List.for_all (fun p -> p <= i && i < p + m) ps then
          meet st i
            (List.fold_left (fun acc p -> Charset.add sub.[i - p] acc) Charset.empty ps)
      done
  end

(* §4.11 per-position reachability over the DFA, restricted to the
   current domains: forward sets from the start state, backward sets
   from the accepting states, and a character survives at position [i]
   only if some transition on it connects the two. Sound because any
   satisfying string's run visits exactly such state pairs; iterative
   because narrowing one position's domain prunes transitions
   everywhere else on the next pass. Each state's transitions come as
   (target, codes) classes ({!Dfa.out_classes}), so an edge is live at
   [i] iff its class meets the domain, and the kept set is the union of
   the classes that join a forward state to a backward one. *)
let step_regex ~length ~dfa st =
  let n = Dfa.num_states dfa in
  let out = Array.init n (Dfa.out_classes dfa) in
  let fwd = Array.init (length + 1) (fun _ -> Array.make n false) in
  fwd.(0).(Dfa.start_state dfa) <- true;
  for i = 0 to length - 1 do
    let dom = st.st_doms.(i) and next = fwd.(i + 1) in
    for s = 0 to n - 1 do
      if fwd.(i).(s) then
        List.iter
          (fun (t, codes) -> if not (Charset.disjoint codes dom) then next.(t) <- true)
          out.(s)
    done
  done;
  let bwd = Array.init (length + 1) (fun _ -> Array.make n false) in
  for s = 0 to n - 1 do
    bwd.(length).(s) <- Dfa.is_accepting dfa s
  done;
  for i = length - 1 downto 0 do
    let dom = st.st_doms.(i) and later = bwd.(i + 1) in
    for s = 0 to n - 1 do
      bwd.(i).(s) <-
        List.exists (fun (t, codes) -> later.(t) && not (Charset.disjoint codes dom)) out.(s)
    done
  done;
  for i = 0 to length - 1 do
    let later = bwd.(i + 1) in
    let keep = ref Charset.empty in
    for s = 0 to n - 1 do
      if fwd.(i).(s) then
        List.iter (fun (t, codes) -> if later.(t) then keep := Charset.union codes !keep) out.(s)
    done;
    meet st i !keep
  done

(* The fully-determined operations pin every position to a literal. *)
let literal_of = function
  | Constr.Equals s -> Some s
  | Constr.Concat parts -> Some (Semantics.concat parts)
  | Constr.Reverse s -> Some (Semantics.reverse s)
  | Constr.Replace_all { source; find; replace } ->
    Some (Semantics.replace_all source ~find ~replace)
  | Constr.Replace_first { source; find; replace } ->
    Some (Semantics.replace_first source ~find ~replace)
  | Constr.Has_length { num_chars; target_length } ->
    (* paper bit semantics: the first [target_length] characters decode
       as all-ones ('\127'), the rest as all-zeroes ('\000') *)
    Some (String.init num_chars (fun i -> if i < target_length then '\127' else '\000'))
  | _ -> None

let step_of ~length c =
  match literal_of c with
  | Some s -> fun st -> meet_literal st s
  | None -> (
    match c with
    | Constr.Index_of { substring; index; _ } ->
      fun st ->
        String.iteri (fun j ch -> meet st (index + j) (Charset.singleton ch)) substring
    | Constr.Contains { substring; _ } -> step_contains ~length ~sub:substring
    | Constr.Palindrome _ ->
      (* the merges are made once, before the loop; the per-iteration
         work is the shared [congruence] propagation *)
      fun _ -> ()
    | Constr.Regex { pattern; _ } ->
      let dfa = Dfa.of_syntax pattern in
      step_regex ~length ~dfa
    | Constr.Equals _ | Constr.Concat _ | Constr.Reverse _ | Constr.Replace_all _
    | Constr.Replace_first _ | Constr.Has_length _ | Constr.Includes _ ->
      fun _ -> ())

(* ------------------------------------------------------------------ *)
(* The analysis                                                        *)

let ( let* ) = Result.bind

let gen_length c =
  let* () = Constr.validate c in
  match c with
  | Constr.Includes _ -> Error ("not analyzable in a conjunction: " ^ Constr.describe c)
  | _ -> Ok (Constr.num_vars c / 7)

let decide_includes ~haystack ~needle =
  match Semantics.index_of haystack ~sub:needle with
  | Some i -> V_sat (Constr.Pos (Some i))
  | None ->
    V_unsat (Printf.sprintf "needle %S never occurs in haystack %S" needle haystack)

let verdict_of st cs =
  match st.contradiction with
  | Some reason -> V_unsat reason
  | None ->
    if Array.for_all (fun d -> Charset.cardinal d = 1) st.st_doms then begin
      let candidate =
        String.init (Array.length st.st_doms) (fun i ->
            match Charset.choose st.st_doms.(i) with Some c -> c | None -> assert false)
      in
      match
        List.find_opt (fun c -> not (Constr.verify c (Constr.Str candidate))) cs
      with
      | None -> V_sat (Constr.Str candidate)
      | Some c ->
        V_unsat
          (Format.asprintf "unique candidate %a fails %s" Constr.pp_value
             (Constr.Str candidate) (Constr.describe c))
    end
    else V_undecided

let analyze ?(max_iters = default_max_iters) cs =
  match cs with
  | [] -> Error "Absint.analyze: empty conjunction"
  | [ Constr.Includes { haystack; needle } ] ->
    let* () = Constr.validate (Constr.Includes { haystack; needle }) in
    Ok
      {
        length = String.length haystack;
        doms = [||];
        iterations = 1;
        facts = 1;
        widened = false;
        verdict = decide_includes ~haystack ~needle;
      }
  | first :: rest ->
    let* length = gen_length first in
    let* mismatch =
      List.fold_left
        (fun acc c ->
          let* acc = acc in
          let* l = gen_length c in
          if acc <> None || l = length then Ok acc
          else
            Ok
              (Some
                 (Printf.sprintf "length mismatch: %s has length %d, expected %d"
                    (Constr.describe c) l length)))
        (Ok None) rest
    in
    (match mismatch with
    | Some reason ->
      (* disjoint lengths on one string variable: statically unsat *)
      Ok
        {
          length;
          doms = [||];
          iterations = 1;
          facts = 1;
          widened = false;
          verdict = V_unsat reason;
        }
    | None ->
      let st =
        {
          st_doms = Array.make length Charset.full;
          parent = Array.init length (fun i -> i);
          merged = false;
          st_facts = 0;
          changed = true;
          contradiction = None;
        }
      in
      List.iter
        (function
          | Constr.Palindrome { length = l } ->
            for i = 0 to (l / 2) - 1 do
              union st i (l - 1 - i)
            done
          | _ -> ())
        cs;
      let steps = List.map (step_of ~length) cs in
      let iters = ref 0 in
      while st.changed && st.contradiction = None && !iters < max_iters do
        st.changed <- false;
        incr iters;
        List.iter (fun step -> step st) steps;
        if st.contradiction = None && length > 0 then congruence st
      done;
      let widened = st.changed && st.contradiction = None in
      Ok
        {
          length;
          doms = st.st_doms;
          iterations = !iters;
          facts = st.st_facts;
          widened;
          verdict = verdict_of st cs;
        })

(* ------------------------------------------------------------------ *)
(* Consumers: forced bits, findings, telemetry, rendering              *)

(* planes.(k) holds the codes whose codec bit [k] (MSB first, so bit
   [6 - k] of the code) is 1: a domain agrees on that bit iff it lies
   inside the plane (forced 1) or misses it (forced 0). *)
let planes =
  Array.init 7 (fun k ->
      Charset.of_list
        (List.filter (fun c -> (Char.code c lsr (6 - k)) land 1 = 1) (List.init 128 Char.chr)))

let forced_bits a =
  let acc = ref [] in
  for i = Array.length a.doms - 1 downto 0 do
    let dom = a.doms.(i) in
    if not (Charset.is_empty dom) then
      for k = 6 downto 0 do
        if Charset.subset dom planes.(k) then acc := ((7 * i) + k, true) :: !acc
        else if Charset.disjoint dom planes.(k) then acc := ((7 * i) + k, false) :: !acc
      done
  done;
  !acc

let num_fixed_positions a =
  Array.fold_left (fun n d -> if Charset.cardinal d = 1 then n + 1 else n) 0 a.doms

let candidate a =
  if Array.length a.doms > 0 && Array.for_all (fun d -> Charset.cardinal d = 1) a.doms
  then
    Some
      (String.init (Array.length a.doms) (fun i ->
           match Charset.choose a.doms.(i) with Some c -> c | None -> assert false))
  else None

let findings a =
  match a.verdict with
  | V_unsat reason ->
    [
      {
        Analyze.severity = Analyze.Error;
        check = "absint-unsat";
        location = Analyze.Global;
        message = "statically unsatisfiable: " ^ reason;
      };
    ]
  | V_sat value ->
    [
      {
        Analyze.severity = Analyze.Info;
        check = "absint-sat";
        location = Analyze.Global;
        message =
          Format.asprintf "statically determined and verified: %a" Constr.pp_value value;
      };
    ]
  | V_undecided ->
    let forced = List.length (forced_bits a) in
    let shrink =
      if forced > 0 then
        [
          {
            Analyze.severity = Analyze.Info;
            check = "absint-shrink";
            location = Analyze.Global;
            message =
              Printf.sprintf "%d of %d codec bits statically forced (%d positions fixed)"
                forced
                (7 * Array.length a.doms)
                (num_fixed_positions a);
          };
        ]
      else []
    in
    let widened =
      if a.widened then
        [
          {
            Analyze.severity = Analyze.Info;
            check = "absint-widened";
            location = Analyze.Global;
            message =
              Printf.sprintf "fixpoint stopped by the %d-iteration widening cap" a.iterations;
          };
        ]
      else []
    in
    shrink @ widened

let emit telemetry a =
  if Telemetry.enabled telemetry then begin
    Telemetry.count telemetry "absint.runs" 1;
    Telemetry.count telemetry "absint.fixpoint_iters" a.iterations;
    Telemetry.count telemetry "absint.facts" a.facts;
    Telemetry.count telemetry "absint.positions_fixed" (num_fixed_positions a);
    let verdict_name =
      match a.verdict with
      | V_sat _ ->
        Telemetry.count telemetry "absint.static_sat" 1;
        "sat"
      | V_unsat _ ->
        Telemetry.count telemetry "absint.static_unsat" 1;
        "unsat"
      | V_undecided ->
        Telemetry.count telemetry "absint.bits_forced" (List.length (forced_bits a));
        "undecided"
    in
    Telemetry.emit telemetry "absint.done"
      [
        ("verdict", Telemetry.Str verdict_name);
        ("iterations", Telemetry.Int a.iterations);
        ("facts", Telemetry.Int a.facts);
        ("length", Telemetry.Int a.length);
      ]
  end

let pp ppf a =
  let verdict_s =
    match a.verdict with
    | V_sat v -> Format.asprintf "sat (%a)" Constr.pp_value v
    | V_unsat reason -> "unsat (" ^ reason ^ ")"
    | V_undecided -> "undecided"
  in
  let lines = ref [] in
  let add fmt = Format.kasprintf (fun s -> lines := s :: !lines) fmt in
  add "verdict   : %s" verdict_s;
  add "length    : %d chars" a.length;
  add "fixpoint  : %d iterations, %d facts%s" a.iterations a.facts
    (if a.widened then " (widened)" else "");
  if Array.length a.doms > 0 then begin
    add "positions : %d of %d fixed, %d of %d bits forced" (num_fixed_positions a)
      (Array.length a.doms)
      (List.length (forced_bits a))
      (7 * Array.length a.doms);
    Array.iteri
      (fun i dom ->
        (* full domains carry no information; keep the dump readable *)
        if not (Charset.equal dom Charset.full) then add "  pos %d: %a" i Charset.pp dom)
      a.doms
  end;
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Format.pp_print_string)
    (List.rev !lines)
