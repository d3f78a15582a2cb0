module Prng = Qsmt_util.Prng

(* trans.(state).(code) = next state, or -1 for the (implicit) dead
   state. 128 columns per state: the alphabet is small and fixed, dense
   rows beat transition maps. *)
type t = { trans : int array array; accepting : bool array; dfa_start : int }

let of_nfa nfa =
  let key states = String.concat "," (List.map string_of_int states) in
  let ids = Hashtbl.create 64 in
  let rows = ref [] (* (id, transitions row, accepting) in reverse id order *) in
  let counter = ref 0 in
  let rec intern states =
    let k = key states in
    match Hashtbl.find_opt ids k with
    | Some id -> id
    | None ->
      let id = !counter in
      incr counter;
      Hashtbl.add ids k id;
      let row = Array.make 128 (-1) in
      (* reserve the slot before recursing; rows are patched in place *)
      rows := (id, row, List.mem (Nfa.accept nfa) states) :: !rows;
      for code = 0 to 127 do
        let next = Nfa.epsilon_closure nfa (Nfa.step nfa states (Char.chr code)) in
        if next <> [] then row.(code) <- intern next
      done;
      id
  in
  let start_states = Nfa.epsilon_closure nfa [ Nfa.start nfa ] in
  let dfa_start = intern start_states in
  let n = !counter in
  let trans = Array.make n [||] in
  let accepting = Array.make n false in
  List.iter
    (fun (id, row, acc) ->
      trans.(id) <- row;
      accepting.(id) <- acc)
    !rows;
  { trans; accepting; dfa_start }

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
  { trans = Array.map Array.copy trans; accepting = Array.copy accepting; dfa_start = start }

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
   saturating at max_int. *)
let suffix_counts t len =
  let n = num_states t in
  let counts = Array.make_matrix (len + 1) n 0 in
  for s = 0 to n - 1 do
    counts.(0).(s) <- (if t.accepting.(s) then 1 else 0)
  done;
  for k = 1 to len do
    for s = 0 to n - 1 do
      let total = ref 0 in
      for code = 0 to 127 do
        let next = t.trans.(s).(code) in
        if next >= 0 then begin
          let c = counts.(k - 1).(next) in
          total := if !total > max_int - c then max_int else !total + c
        end
      done;
      counts.(k).(s) <- !total
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
  { trans; accepting = Array.copy t.accepting; dfa_start = t.dfa_start }

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
