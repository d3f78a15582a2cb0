module Bitvec = Qsmt_util.Bitvec

type result = Sat of Bitvec.t | Unsat | Unknown

type stats = {
  decisions : int;
  conflicts : int;
  propagations : int;
  learned : int;
  restarts : int;
  time_s : float;
}

let pp_stats ppf s =
  Format.fprintf ppf "decisions=%d conflicts=%d props=%d learned=%d restarts=%d time=%.3fs"
    s.decisions s.conflicts s.propagations s.learned s.restarts s.time_s

(* Literal encoding follows Cnf: 2v positive, 2v+1 negative. *)
let var_of = Cnf.var_of
let negate = Cnf.negate

(* Per-variable arrays are capacity-sized (>= nvars) so the incremental
   interface can grow the variable set without rebuilding the solver;
   every loop bounds itself by [nvars], never by array length. *)
type solver = {
  mutable nvars : int;
  mutable clauses : int array array; (* grows; learned clauses appended *)
  mutable nclauses : int;
  mutable watches : int list array; (* per literal: clause indices watching it *)
  mutable assign : int array; (* -1 unassigned / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : int array; (* clause index or -1 *)
  mutable trail : int array;
  mutable trail_size : int;
  mutable qhead : int;
  mutable lim : int array; (* trail size at each decision level; lim.(0) unused *)
  mutable decision_level : int;
  mutable activity : float array;
  mutable var_inc : float;
  mutable phase : bool array;
  mutable seen : bool array;
  mutable dead : bool; (* level-0 contradiction derived: permanently unsat *)
  mutable s_decisions : int;
  mutable s_conflicts : int;
  mutable s_propagations : int;
  mutable s_learned : int;
  mutable s_restarts : int;
}

let lit_value s lit =
  let a = s.assign.(var_of lit) in
  if a < 0 then -1 else if (a = 1) = Cnf.is_pos lit then 1 else 0

let make_solver n =
  {
    nvars = n;
    clauses = Array.make 16 [||];
    nclauses = 0;
    watches = Array.make (max 1 (2 * n)) [];
    assign = Array.make (max 1 n) (-1);
    level = Array.make (max 1 n) 0;
    reason = Array.make (max 1 n) (-1);
    trail = Array.make (max 1 n) 0;
    trail_size = 0;
    qhead = 0;
    lim = Array.make (max 1 (n + 1)) 0;
    decision_level = 0;
    activity = Array.make (max 1 n) 0.;
    var_inc = 1.;
    phase = Array.make (max 1 n) false;
    seen = Array.make (max 1 n) false;
    dead = false;
    s_decisions = 0;
    s_conflicts = 0;
    s_propagations = 0;
    s_learned = 0;
    s_restarts = 0;
  }

let grow_vars s n =
  if n > Array.length s.assign then begin
    let cap = max n (2 * Array.length s.assign) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    s.assign <- grow s.assign (-1);
    s.level <- grow s.level 0;
    s.reason <- grow s.reason (-1);
    s.trail <- grow s.trail 0;
    s.activity <- grow s.activity 0.;
    s.phase <- grow s.phase false;
    s.seen <- grow s.seen false;
    let w = Array.make (2 * cap) [] in
    Array.blit s.watches 0 w 0 (Array.length s.watches);
    s.watches <- w
  end;
  if n > s.nvars then s.nvars <- n

(* [lim] needs one slot per possible decision level; with assumptions
   there can be more levels than variables (already-true assumptions
   still open an empty level each). *)
let ensure_levels s levels =
  if Array.length s.lim < levels + 1 then begin
    let l = Array.make (max (levels + 1) (2 * Array.length s.lim)) 0 in
    Array.blit s.lim 0 l 0 (Array.length s.lim);
    s.lim <- l
  end

let enqueue s lit reason =
  let v = var_of lit in
  s.assign.(v) <- (if Cnf.is_pos lit then 1 else 0);
  s.level.(v) <- s.decision_level;
  s.reason.(v) <- reason;
  s.phase.(v) <- Cnf.is_pos lit;
  s.trail.(s.trail_size) <- lit;
  s.trail_size <- s.trail_size + 1

let grow_clauses s =
  if s.nclauses = Array.length s.clauses then begin
    let bigger = Array.make (2 * max 1 (Array.length s.clauses)) [||] in
    Array.blit s.clauses 0 bigger 0 s.nclauses;
    s.clauses <- bigger
  end

(* Add a clause with >= 2 literals; the first two become the watches. *)
let attach_clause s lits =
  grow_clauses s;
  let idx = s.nclauses in
  s.clauses.(idx) <- lits;
  s.nclauses <- s.nclauses + 1;
  s.watches.(lits.(0)) <- idx :: s.watches.(lits.(0));
  s.watches.(lits.(1)) <- idx :: s.watches.(lits.(1));
  idx

(* Add an input clause at decision level 0, simplifying against the root
   assignment: satisfied clauses are dropped, root-false literals removed.
   The simplification is what makes late additions sound — a clause whose
   literals are all already false would otherwise be attached with stale
   watches and its conflict silently missed (watches only fire on new
   assignments). *)
let add_root_clause s clause =
  if not s.dead then begin
    List.iter
      (fun lit ->
        if var_of lit >= s.nvars then
          invalid_arg "Cdcl: clause literal out of variable range")
      clause;
    if not (List.exists (fun lit -> lit_value s lit = 1) clause) then begin
      match List.filter (fun lit -> lit_value s lit <> 0) clause with
      | [] -> s.dead <- true
      | [ lit ] -> enqueue s lit (-1)
      | lits -> ignore (attach_clause s (Array.of_list lits))
    end
  end

exception Conflict of int (* clause index *)

(* Propagate all queued assignments; raises Conflict. *)
let propagate s =
  while s.qhead < s.trail_size do
    let lit = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.s_propagations <- s.s_propagations + 1;
    let false_lit = negate lit in
    let watching = s.watches.(false_lit) in
    s.watches.(false_lit) <- [];
    let rec process = function
      | [] -> ()
      | ci :: rest ->
        let lits = s.clauses.(ci) in
        (* normalize: false_lit at position 1 *)
        if lits.(0) = false_lit then begin
          lits.(0) <- lits.(1);
          lits.(1) <- false_lit
        end;
        if lit_value s lits.(0) = 1 then begin
          (* clause already satisfied; keep watching *)
          s.watches.(false_lit) <- ci :: s.watches.(false_lit);
          process rest
        end
        else begin
          (* look for a new watch *)
          let found = ref false in
          let k = ref 2 in
          while (not !found) && !k < Array.length lits do
            if lit_value s lits.(!k) <> 0 then begin
              let w = lits.(!k) in
              lits.(!k) <- lits.(1);
              lits.(1) <- w;
              s.watches.(w) <- ci :: s.watches.(w);
              found := true
            end;
            incr k
          done;
          if !found then process rest
          else begin
            (* unit or conflict *)
            s.watches.(false_lit) <- ci :: s.watches.(false_lit);
            if lit_value s lits.(0) = 0 then begin
              (* restore remaining watches before raising *)
              List.iter (fun cj -> s.watches.(false_lit) <- cj :: s.watches.(false_lit)) rest;
              raise (Conflict ci)
            end
            else begin
              enqueue s lits.(0) ci;
              process rest
            end
          end
        end
    in
    process watching
  done

let bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end

let decay s = s.var_inc <- s.var_inc /. 0.95

(* First-UIP analysis. Returns (learnt clause with asserting literal
   first, backjump level). *)
let analyze s confl =
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let index = ref (s.trail_size - 1) in
  let confl = ref confl in
  let continue = ref true in
  while !continue do
    let lits = s.clauses.(!confl) in
    Array.iter
      (fun q ->
        if q <> !p then begin
          let v = var_of q in
          if (not s.seen.(v)) && s.level.(v) > 0 then begin
            s.seen.(v) <- true;
            bump s v;
            if s.level.(v) = s.decision_level then incr counter
            else learnt := q :: !learnt
          end
        end)
      lits;
    (* next literal to resolve on: most recent seen trail entry *)
    while not s.seen.(var_of s.trail.(!index)) do
      decr index
    done;
    p := s.trail.(!index);
    s.seen.(var_of !p) <- false;
    decr counter;
    if !counter = 0 then continue := false
    else begin
      confl := s.reason.(var_of !p);
      decr index
    end
  done;
  let clause = negate !p :: !learnt in
  List.iter (fun q -> s.seen.(var_of q) <- false) !learnt;
  let backjump =
    List.fold_left (fun acc q -> max acc (s.level.(var_of q))) 0 !learnt
  in
  (clause, backjump)

let cancel_until s target =
  if s.decision_level > target then begin
    let keep = s.lim.(target + 1) in
    for i = s.trail_size - 1 downto keep do
      let v = var_of s.trail.(i) in
      s.assign.(v) <- -1;
      s.reason.(v) <- -1
    done;
    s.trail_size <- keep;
    s.qhead <- keep;
    s.decision_level <- target
  end

let decide s =
  let best = ref (-1) and best_act = ref neg_infinity in
  for v = 0 to s.nvars - 1 do
    if s.assign.(v) < 0 && s.activity.(v) > !best_act then begin
      best := v;
      best_act := s.activity.(v)
    end
  done;
  if !best < 0 then None
  else begin
    s.s_decisions <- s.s_decisions + 1;
    s.decision_level <- s.decision_level + 1;
    s.lim.(s.decision_level) <- s.trail_size;
    let v = !best in
    Some (if s.phase.(v) then Cnf.pos v else Cnf.neg v)
  end

let add_learnt s clause =
  s.s_learned <- s.s_learned + 1;
  match clause with
  | [] -> `Unsat
  | [ lit ] ->
    cancel_until s 0;
    if lit_value s lit = 0 then `Unsat
    else begin
      if lit_value s lit < 0 then enqueue s lit (-1);
      `Ok
    end
  | first :: _ ->
    (* put a literal of the backjump level second so watches are sane *)
    let arr = Array.of_list clause in
    (* after cancel_until the asserting literal (first) is unassigned;
       pick as second watch the literal with the highest level *)
    let best = ref 1 in
    for k = 2 to Array.length arr - 1 do
      if s.level.(var_of arr.(k)) > s.level.(var_of arr.(!best)) then best := k
    done;
    let tmp = arr.(1) in
    arr.(1) <- arr.(!best);
    arr.(!best) <- tmp;
    let ci = attach_clause s arr in
    enqueue s first ci;
    `Ok

let extract_model s =
  Bitvec.init s.nvars (fun v -> s.assign.(v) = 1)

(* MiniSat-style search loop shared by one-shot and incremental solving.
   Assumptions are established as their own decision levels, one per
   assumption in list order — opened even when the assumption already
   holds, so the level count always matches the assumption index. A
   conflict at level 0 is a permanent contradiction ([dead]); an
   assumption found false under the root assignment plus the earlier
   assumptions is unsat only under these assumptions. Restarts cancel to
   level 0 and the loop re-establishes the assumption levels on the way
   back down. *)
let search s ~assumptions ~conflict_budget =
  let num_assumptions = Array.length assumptions in
  ensure_levels s (s.nvars + num_assumptions);
  let budget_left = ref conflict_budget in
  let restart_limit = ref 100 in
  let conflicts_since_restart = ref 0 in
  let rec loop () =
    match propagate s with
    | () ->
      if s.decision_level < num_assumptions then begin
        let a = assumptions.(s.decision_level) in
        match lit_value s a with
        | 0 -> `Unsat_assumptions
        | v ->
          s.decision_level <- s.decision_level + 1;
          s.lim.(s.decision_level) <- s.trail_size;
          if v < 0 then enqueue s a (-1);
          loop ()
      end
      else begin
        match decide s with
        | None -> `Sat
        | Some lit ->
          enqueue s lit (-1);
          loop ()
      end
    | exception Conflict ci ->
      s.s_conflicts <- s.s_conflicts + 1;
      incr conflicts_since_restart;
      decr budget_left;
      if s.decision_level = 0 then begin
        s.dead <- true;
        `Unsat
      end
      else if !budget_left <= 0 then `Unknown
      else begin
        let clause, backjump = analyze s ci in
        cancel_until s backjump;
        match add_learnt s clause with
        | `Unsat ->
          s.dead <- true;
          `Unsat
        | `Ok ->
          decay s;
          if !conflicts_since_restart >= !restart_limit then begin
            s.s_restarts <- s.s_restarts + 1;
            conflicts_since_restart := 0;
            restart_limit := !restart_limit * 3 / 2;
            cancel_until s 0
          end;
          loop ()
      end
  in
  if s.dead then `Unsat else loop ()

let solve ?(conflict_budget = max_int) (cnf : Cnf.t) =
  let start = Qsmt_util.Mclock.now () in
  let s = make_solver cnf.Cnf.num_vars in
  List.iter (add_root_clause s) cnf.Cnf.clauses;
  let result =
    match search s ~assumptions:[||] ~conflict_budget with
    | `Sat -> Sat (extract_model s)
    | `Unsat | `Unsat_assumptions -> Unsat
    | `Unknown -> Unknown
  in
  ( result,
    {
      decisions = s.s_decisions;
      conflicts = s.s_conflicts;
      propagations = s.s_propagations;
      learned = s.s_learned;
      restarts = s.s_restarts;
      time_s = Qsmt_util.Mclock.now () -. start;
    } )

module Incremental = struct
  type t = { s : solver; conflict_budget : int }

  let create ?(conflict_budget = max_int) ~num_vars () =
    if num_vars < 0 then invalid_arg "Cdcl.Incremental.create: num_vars < 0";
    { s = make_solver num_vars; conflict_budget }

  let num_vars t = t.s.nvars
  let ensure_vars t n = if n > t.s.nvars then grow_vars t.s n

  let add_clauses t clauses =
    cancel_until t.s 0;
    List.iter (add_root_clause t.s) clauses

  let solve ?(assumptions = []) t =
    let start = Qsmt_util.Mclock.now () in
    let s = t.s in
    cancel_until s 0;
    List.iter
      (fun a ->
        if var_of a >= s.nvars then
          invalid_arg "Cdcl.Incremental.solve: assumption out of variable range")
      assumptions;
    let d0 = s.s_decisions
    and c0 = s.s_conflicts
    and p0 = s.s_propagations
    and l0 = s.s_learned
    and r0 = s.s_restarts in
    let result =
      match
        search s ~assumptions:(Array.of_list assumptions)
          ~conflict_budget:t.conflict_budget
      with
      | `Sat -> Sat (extract_model s)
      | `Unsat | `Unsat_assumptions -> Unsat
      | `Unknown -> Unknown
    in
    ( result,
      {
        decisions = s.s_decisions - d0;
        conflicts = s.s_conflicts - c0;
        propagations = s.s_propagations - p0;
        learned = s.s_learned - l0;
        restarts = s.s_restarts - r0;
        time_s = Qsmt_util.Mclock.now () -. start;
      } )
end
