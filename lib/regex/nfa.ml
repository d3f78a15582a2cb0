type transition = Eps of int | On of Charset.t * int

type t = { num_states : int; start : int; accept : int; out : transition list array }

(* Thompson construction: every sub-automaton has exactly one start and
   one accept state, freshly allocated. *)
let of_syntax syntax =
  let transitions = ref [] in
  let counter = ref 0 in
  let fresh () =
    let s = !counter in
    incr counter;
    s
  in
  let edge src t = transitions := (src, t) :: !transitions in
  let rec build = function
    | Syntax.Epsilon ->
      let s = fresh () and a = fresh () in
      edge s (Eps a);
      (s, a)
    | Syntax.Chars set ->
      let s = fresh () and a = fresh () in
      edge s (On (set, a));
      (s, a)
    | Syntax.Concat parts ->
      let s = fresh () and a = fresh () in
      let last =
        List.fold_left
          (fun prev part ->
            let ps, pa = build part in
            edge prev (Eps ps);
            pa)
          s parts
      in
      edge last (Eps a);
      (s, a)
    | Syntax.Alt parts ->
      let s = fresh () and a = fresh () in
      List.iter
        (fun part ->
          let ps, pa = build part in
          edge s (Eps ps);
          edge pa (Eps a))
        parts;
      (s, a)
    | Syntax.Star r ->
      let s = fresh () and a = fresh () in
      let rs, ra = build r in
      edge s (Eps rs);
      edge s (Eps a);
      edge ra (Eps rs);
      edge ra (Eps a);
      (s, a)
    | Syntax.Plus r ->
      let s = fresh () and a = fresh () in
      let rs, ra = build r in
      edge s (Eps rs);
      edge ra (Eps rs);
      edge ra (Eps a);
      (s, a)
    | Syntax.Opt r ->
      let s = fresh () and a = fresh () in
      let rs, ra = build r in
      edge s (Eps rs);
      edge s (Eps a);
      edge ra (Eps a);
      (s, a)
    | Syntax.Rep (r, lo, hi) ->
      (* unroll: lo mandatory copies, then (hi - lo) optional copies or a
         trailing star when unbounded *)
      let mandatory = List.init lo (fun _ -> r) in
      let tail =
        match hi with
        | None -> [ Syntax.Star r ]
        | Some hi ->
          if hi < lo then invalid_arg "Nfa: Rep upper bound below lower bound";
          List.init (hi - lo) (fun _ -> Syntax.Opt r)
      in
      build (Syntax.Concat (mandatory @ tail))
  in
  let start, accept = build syntax in
  let out = Array.make !counter [] in
  List.iter (fun (src, t) -> out.(src) <- t :: out.(src)) !transitions;
  { num_states = !counter; start; accept; out }

let num_states t = t.num_states
let start t = t.start
let accept t = t.accept

let labels t =
  Array.fold_left
    (List.fold_left (fun acc -> function On (set, _) -> set :: acc | Eps _ -> acc))
    [] t.out

let epsilon_closure t states =
  let seen = Array.make t.num_states false in
  let stack = ref states in
  List.iter (fun s -> seen.(s) <- true) states;
  let result = ref [] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | s :: rest ->
      stack := rest;
      result := s :: !result;
      List.iter
        (function
          | Eps target when not seen.(target) ->
            seen.(target) <- true;
            stack := target :: !stack
          | Eps _ | On _ -> ())
        t.out.(s)
  done;
  List.sort_uniq compare !result

let step t states c =
  let targets = ref [] in
  List.iter
    (fun s ->
      List.iter
        (function
          | On (set, target) when Charset.mem c set -> targets := target :: !targets
          | On _ | Eps _ -> ())
        t.out.(s))
    states;
  List.sort_uniq compare !targets

let matches t s =
  let current = ref (epsilon_closure t [ t.start ]) in
  (try
     String.iter
       (fun c ->
         current := epsilon_closure t (step t !current c);
         if !current = [] then raise Exit)
       s
   with Exit -> ());
  List.mem t.accept !current
