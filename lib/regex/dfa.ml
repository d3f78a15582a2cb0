module Prng = Qsmt_util.Prng

(* trans.(state).(code) = next state, or -1 for the (implicit) dead
   state. 128 columns per state: the alphabet is small and fixed, dense
   rows beat transition maps. out.(state) is the same row grouped by
   target, one (target, codes) class per live successor, for the
   consumers that work on whole character sets at once. *)
type t = {
  trans : int array array;
  out : (int * Charset.t) list array;
  accepting : bool array;
  dfa_start : int;
}

(* Merges (target, codes) pairs with equal targets, keeping the order in
   which targets first appear. *)
let group_by_target pairs =
  let groups = ref [] in
  List.iter
    (fun (target, codes) ->
      match List.assoc_opt target !groups with
      | Some set -> set := Charset.union !set codes
      | None -> groups := (target, ref codes) :: !groups)
    pairs;
  List.rev_map (fun (target, set) -> (target, !set)) !groups

let classes_of_row row =
  let pairs = ref [] in
  for code = 127 downto 0 do
    if row.(code) >= 0 then pairs := (row.(code), Charset.singleton (Char.chr code)) :: !pairs
  done;
  group_by_target !pairs

(* Codes 0..127 split into the byte classes the NFA's labels induce:
   every label holds all of a class or none of it, so one member steps
   any subset of NFA states to the same successor as every other
   member. Each class comes with its smallest code, and the list is
   ascending in it. *)
let byte_classes nfa =
  let split classes label =
    List.concat_map
      (fun cls ->
        List.filter
          (fun part -> not (Charset.is_empty part))
          [ Charset.inter cls label; Charset.diff cls label ])
      classes
  in
  List.fold_left split [ Charset.full ] (List.sort_uniq Charset.compare (Nfa.labels nfa))
  |> List.map (fun cls -> (Option.get (Charset.choose cls), cls))
  |> List.sort (fun (a, _) (b, _) -> Char.compare a b)

(* Subsets of NFA states (sorted lists) as table keys. *)
module Subsets = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash = List.fold_left (fun h s -> (h * 31) + s) 0
end)

(* Subset construction, depth first: a new subset takes the next id,
   then its successors are interned class by class. Visiting classes in
   order of their smallest code meets successors in the order a
   code-by-code scan of 0..127 would, so the numbering is that scan's. *)
let of_nfa nfa =
  let classes = byte_classes nfa in
  let ids = Subsets.create 64 in
  let states = ref [] (* (id, transitions row, out classes, accepting), newest first *) in
  let counter = ref 0 in
  let rec intern subset =
    match Subsets.find_opt ids subset with
    | Some id -> id
    | None ->
      let id = !counter in
      incr counter;
      Subsets.add ids subset id;
      let row = Array.make 128 (-1) in
      let out =
        List.filter_map
          (fun (rep, cls) ->
            match Nfa.epsilon_closure nfa (Nfa.step nfa subset rep) with
            | [] -> None
            | next ->
              let target = intern next in
              Charset.iter (fun c -> row.(Char.code c) <- target) cls;
              Some (target, cls))
          classes
      in
      states := (id, row, group_by_target out, List.mem (Nfa.accept nfa) subset) :: !states;
      id
  in
  let dfa_start = intern (Nfa.epsilon_closure nfa [ Nfa.start nfa ]) in
  let n = !counter in
  let trans = Array.make n [||] and out = Array.make n [] and accepting = Array.make n false in
  List.iter
    (fun (id, row, classes, acc) ->
      trans.(id) <- row;
      out.(id) <- classes;
      accepting.(id) <- acc)
    !states;
  { trans; out; accepting; dfa_start }

(* The SMT-LIB compile, Absint, Stage's verifiers and Eval's model
   check each determinize a query's patterns, so [of_syntax] shares its
   automata through one process-wide table keyed on the syntax tree.
   Sharing is safe because no [t] is mutated after construction. A full
   table is emptied, so a workload cycling through more patterns than it
   holds only rebuilds. *)
module Memo = Hashtbl.Make (struct
  type t = Syntax.t

  let equal = Syntax.equal
  let hash = Hashtbl.hash
end)

let memo_capacity = 256
let memo : t Memo.t = Memo.create memo_capacity
let memo_lock = Mutex.create ()

let of_syntax syntax =
  Mutex.protect memo_lock (fun () ->
      match Memo.find_opt memo syntax with
      | Some dfa -> dfa
      | None ->
        let dfa = of_nfa (Nfa.of_syntax syntax) in
        if Memo.length memo >= memo_capacity then Memo.clear memo;
        Memo.add memo syntax dfa;
        dfa)

let num_states t = Array.length t.trans
let start_state t = t.dfa_start
let is_accepting t s = t.accepting.(s)

let transition t s c =
  let next = t.trans.(s).(Char.code c) in
  if next < 0 then None else Some next

let out_classes t s = t.out.(s)

let of_raw ~trans ~accepting ~start =
  let n = Array.length trans in
  if Array.length accepting <> n then invalid_arg "Dfa.of_raw: accepting length mismatch";
  if n = 0 then invalid_arg "Dfa.of_raw: no states";
  if start < 0 || start >= n then invalid_arg "Dfa.of_raw: start out of range";
  Array.iter
    (fun row ->
      if Array.length row <> 128 then invalid_arg "Dfa.of_raw: row must have 128 entries";
      Array.iter
        (fun target ->
          if target < -1 || target >= n then invalid_arg "Dfa.of_raw: target out of range")
        row)
    trans;
  {
    trans = Array.map Array.copy trans;
    out = Array.map classes_of_row trans;
    accepting = Array.copy accepting;
    dfa_start = start;
  }

let matches t s =
  let state = ref t.dfa_start in
  (try
     String.iter
       (fun c ->
         state := t.trans.(!state).(Char.code c);
         if !state < 0 then raise Exit)
       s
   with Exit -> ());
  !state >= 0 && t.accepting.(!state)

(* counts.(k).(s) = number of accepted suffixes of length k from state s,
   saturating at max_int: per out class, the successor's count times the
   class's size. Every term is non-negative, so saturating each product
   and sum gives min (exact total, max_int), as a per-code sum would. *)
let suffix_counts t len =
  let n = num_states t in
  let counts = Array.make_matrix (len + 1) n 0 in
  let sized = Array.map (List.map (fun (next, codes) -> (next, Charset.cardinal codes))) t.out in
  for s = 0 to n - 1 do
    counts.(0).(s) <- (if t.accepting.(s) then 1 else 0)
  done;
  for k = 1 to len do
    let prev = counts.(k - 1) in
    for s = 0 to n - 1 do
      counts.(k).(s) <-
        List.fold_left
          (fun total (next, size) ->
            let c = prev.(next) in
            let c = if c > max_int / size then max_int else c * size in
            if total > max_int - c then max_int else total + c)
          0 sized.(s)
    done
  done;
  counts

let count_matching t ~len =
  if len < 0 then invalid_arg "Dfa.count_matching: negative length";
  (suffix_counts t len).(len).(t.dfa_start)

let enumerate ?(limit = 100) t ~len =
  if len < 0 then invalid_arg "Dfa.enumerate: negative length";
  let counts = suffix_counts t len in
  let results = ref [] and found = ref 0 in
  let buf = Bytes.create len in
  let rec go state k =
    if !found < limit then begin
      if k = len then begin
        if t.accepting.(state) then begin
          results := Bytes.to_string buf :: !results;
          incr found
        end
      end
      else
        for code = 0 to 127 do
          let next = t.trans.(state).(code) in
          if next >= 0 && counts.(len - k - 1).(next) > 0 && !found < limit then begin
            Bytes.set buf k (Char.chr code);
            go next (k + 1)
          end
        done
    end
  in
  go t.dfa_start 0;
  List.rev !results

let sample t ~len ~rng =
  if len < 0 then invalid_arg "Dfa.sample: negative length";
  let counts = suffix_counts t len in
  if counts.(len).(t.dfa_start) = 0 then None
  else begin
    let buf = Bytes.create len in
    let state = ref t.dfa_start in
    for k = 0 to len - 1 do
      let remaining = len - k in
      (* weighted choice over next characters by suffix count *)
      let total = counts.(remaining).(!state) in
      let target = if total = max_int then Prng.int rng max_int else Prng.int rng total in
      let acc = ref 0 and chosen = ref (-1) in
      let code = ref 0 in
      while !chosen < 0 && !code < 128 do
        let next = t.trans.(!state).(!code) in
        if next >= 0 then begin
          let c = counts.(remaining - 1).(next) in
          if c > 0 then begin
            acc := if !acc > max_int - c then max_int else !acc + c;
            if target < !acc then chosen := !code
          end
        end;
        incr code
      done;
      (* counts said there is at least one suffix, so a char was found *)
      assert (!chosen >= 0);
      Bytes.set buf k (Char.chr !chosen);
      state := t.trans.(!state).(!chosen)
    done;
    Some (Bytes.to_string buf)
  end

let restrict t allowed =
  let n = num_states t in
  let trans =
    Array.init n (fun s ->
        Array.init 128 (fun code ->
            if Charset.mem (Char.chr code) allowed then t.trans.(s).(code) else -1))
  in
  let out =
    Array.map
      (List.filter_map (fun (next, codes) ->
           let codes = Charset.inter codes allowed in
           if Charset.is_empty codes then None else Some (next, codes)))
      t.out
  in
  { trans; out; accepting = Array.copy t.accepting; dfa_start = t.dfa_start }

let accepts_nothing t =
  (* reachable accepting state? *)
  let n = num_states t in
  let seen = Array.make n false in
  let queue = Queue.create () in
  Queue.add t.dfa_start queue;
  seen.(t.dfa_start) <- true;
  let found = ref false in
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    if t.accepting.(s) then found := true;
    Array.iter
      (fun next ->
        if next >= 0 && not seen.(next) then begin
          seen.(next) <- true;
          Queue.add next queue
        end)
      t.trans.(s)
  done;
  not !found
