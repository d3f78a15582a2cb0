type workload = Anneal | Static | Session

let workloads = [ Anneal; Static; Session ]

let workload_name = function Anneal -> "anneal" | Static -> "static" | Session -> "session"

let workload_of_string s = List.find_opt (fun w -> workload_name w = s) workloads

type verdict = Sat | Unsat

type check = { active : string list; expect : verdict }
type script = { label : string; text : string; checks : check list }

(* ------------------------------------------------------------------ *)
(* Random contents: lowercase letters only, so every literal renders
   without escapes and every model prints back verbatim.              *)

let letter rng = Char.chr (Char.code 'a' + Random.State.int rng 26)
let word rng n = String.init n (fun _ -> letter rng)

let palindrome_word rng n =
  let half = word rng ((n + 1) / 2) in
  String.init n (fun i -> half.[min i (n - 1 - i)])

let is_palindrome s =
  let n = String.length s in
  let rec go i = i >= n / 2 || (s.[i] = s.[n - 1 - i] && go (i + 1)) in
  go 0

(* A letter different from [c]. *)
let other_letter rng c =
  let d = Char.chr (Char.code 'a' + Random.State.int rng 25) in
  if d >= c then Char.chr (Char.code d + 1) else d

(* [k] distinct positions of [0, n) outside [avoid], in draw order. *)
let positions rng ?(avoid = []) n k =
  let rec go acc =
    if List.length acc = k then List.rev acc
    else
      let i = Random.State.int rng n in
      go (if List.mem i acc || List.mem i avoid then acc else i :: acc)
  in
  go []

let between rng lo hi = lo + Random.State.int rng (hi - lo + 1)

(* ------------------------------------------------------------------ *)
(* SMT-LIB rendering. The unknown is always [x] (String) or [i] (Int). *)

let lit s = "\"" ^ s ^ "\""
let chr c = lit (String.make 1 c)
let len n = Printf.sprintf "(= (str.len x) %d)" n
let eq s = Printf.sprintf "(= x %s)" s
let at i c = Printf.sprintf "(= (str.at x %d) %s)" i (chr c)
let contains s = Printf.sprintf "(str.contains x %s)" (lit s)
let indexof s i = Printf.sprintf "(= (str.indexof x %s 0) %d)" (lit s) i
let palindrome = "(str.palindrome x)"
let in_re re = Printf.sprintf "(str.in_re x %s)" re
let re_str s = Printf.sprintf "(str.to_re %s)" (lit s)

let re_class = function
  | [ c ] -> re_str (String.make 1 c)
  | c :: _ as cs -> Printf.sprintf "(re.range %s %s)" (chr c) (chr (List.nth cs (List.length cs - 1)))
  | [] -> invalid_arg "Corpus.re_class: empty class"

(* [prefix] then one or more characters of [cls]. *)
let re_prefix_plus prefix cls = Printf.sprintf "(re.++ %s (re.+ %s))" (re_str prefix) (re_class cls)

(* A class of [k] = 1, 2 or 4 letters whose 7-bit codes agree on all
   but the low log2(k) bits — [b-c], [d-g], ... The regex encoding
   (paper §4.11) superposes a class bit by bit, so only such aligned
   blocks make its ground states exactly the class; a class like
   {a, z} also admits non-letters there, and the sampler then misses
   ([unknown]). *)
let letter_block rng k =
  let first = (Char.code 'a' + k - 1) / k * k and last = ((Char.code 'z' + 1) / k * k) - k in
  let start = first + (k * Random.State.int rng (((last - first) / k) + 1)) in
  List.init k (fun i -> Char.chr (start + i))

let header = "(set-logic QF_S)\n(declare-const x String)\n"

(* A script of plain assertions and one [check-sat]. *)
let single ?(decl = header) label expect assertions =
  let buf = Buffer.create 256 in
  Buffer.add_string buf decl;
  List.iter (fun a -> Buffer.add_string buf ("(assert " ^ a ^ ")\n")) assertions;
  Buffer.add_string buf "(check-sat)\n";
  if expect = Sat then Buffer.add_string buf "(get-model)\n";
  { label; text = Buffer.contents buf; checks = [ { active = assertions; expect } ] }

(* ------------------------------------------------------------------ *)
(* anneal: planted-witness constraints the front end and Absint leave
   to the sampler (plus the shapes Absint pins down completely, about a
   fifth of a deck), at lengths 4-16, and Table 1's undecided rows.    *)

let anneal_lengths = [ 4; 6; 8; 10; 12; 14; 16 ]

let anneal_slot rng kind li n =
  let label = Printf.sprintf "%s/%d" kind n in
  let sat = single label Sat in
  match kind with
  | "palindrome" -> sat [ len n; palindrome ]
  | "regex" ->
    (* a one-letter class pins every position: Absint decides it *)
    let prefix = word rng (1 + (li mod 2)) in
    let cls = letter_block rng (match li mod 3 with 0 -> 1 | 1 -> 2 | _ -> 4) in
    sat [ len n; in_re (re_prefix_plus prefix cls) ]
  | "contains" ->
    (* a substring as long as the string has one placement: decided *)
    let k = if li mod 3 = 1 then n else 2 + (li mod 2) in
    let w = word rng n in
    let o = Random.State.int rng (n - k + 1) in
    sat [ len n; contains (String.sub w o k) ]
  | "indexof" ->
    (* three letters keep a stray earlier occurrence (which str.indexof
       semantics would reject) improbable in the free positions *)
    let sub = word rng 3 in
    sat [ len n; indexof sub (Random.State.int rng (n - 2)) ]
  | "at" ->
    let facts = List.map (fun i -> at i (letter rng)) (positions rng n (1 + (li mod 2))) in
    sat (len n :: facts)
  | "palindrome+at" ->
    (* pinning one position per mirror pair determines the string *)
    let w = palindrome_word rng n in
    let pinned = if li mod 2 = 0 then List.init ((n + 1) / 2) Fun.id else positions rng n 1 in
    sat (len n :: palindrome :: List.map (fun i -> at i w.[i]) pinned)
  | _ -> invalid_arg ("Corpus.anneal_slot: " ^ kind)

let anneal_kinds = [ "palindrome"; "regex"; "contains"; "indexof"; "at"; "palindrome+at" ]

(* Table 1's three rows the sampler answers. *)
let table1_anneal =
  [
    single "table1/palindrome/6" Sat [ len 6; palindrome ];
    single "table1/regex/5" Sat [ len 5; in_re (re_prefix_plus "a" [ 'b'; 'c' ]) ];
    single "table1/indexof/6" Sat [ len 6; indexof "hi" 2 ];
  ]

let anneal_deck rng =
  List.concat_map
    (fun kind -> List.mapi (fun li n -> anneal_slot rng kind li n) anneal_lengths)
    anneal_kinds
  @ table1_anneal

(* ------------------------------------------------------------------ *)
(* static: queries the front end or Absint decides without sampling —
   ground-folded equalities, fully pinned facts, and planted
   contradictions.                                                     *)

let int_header = "(set-logic QF_SLIA)\n(declare-const i Int)\n"

let includes label hay needle =
  single ~decl:int_header label Sat
    [ Printf.sprintf "(= i (str.indexof %s %s 0))" (lit hay) (lit needle) ]

let static_deck rng =
  let sat label assertions = single label Sat assertions in
  let unsat label assertions = single label Unsat assertions in
  let equals =
    let w = word rng (between rng 3 12) in
    sat "equals" [ eq (lit w) ]
  in
  let concat =
    let parts = List.init (between rng 2 3) (fun _ -> lit (word rng (between rng 1 4))) in
    sat "concat" [ eq ("(str.++ " ^ String.concat " " parts ^ ")") ]
  in
  let replace =
    let src = word rng (between rng 6 10) in
    let k = between rng 1 2 in
    let find = String.sub src (Random.State.int rng (String.length src - k + 1)) k in
    sat "replace"
      [ eq (Printf.sprintf "(str.replace %s %s %s)" (lit src) (lit find) (lit (word rng k))) ]
  in
  let replace_all =
    let src = word rng (between rng 6 10) in
    let find = src.[Random.State.int rng (String.length src)] in
    sat "replace_all"
      [ eq (Printf.sprintf "(str.replace_all %s %s %s)" (lit src) (chr find) (chr (letter rng))) ]
  in
  let reverse = sat "reverse" [ eq (Printf.sprintf "(str.rev %s)" (lit (word rng (between rng 3 10)))) ] in
  let includes_q =
    let hay = word rng (between rng 6 12) in
    let k = between rng 2 4 in
    includes "includes" hay (String.sub hay (Random.State.int rng (String.length hay - k + 1)) k)
  in
  let affixes =
    (* prefix and suffix overlap, so together they pin every position *)
    let n = between rng 4 10 in
    let w = word rng n in
    let a = between rng ((n / 2) + 1) n in
    let b = between rng (n - a + 1) n in
    sat "affixes"
      [
        len n;
        Printf.sprintf "(str.prefixof %s x)" (lit (String.sub w 0 a));
        Printf.sprintf "(str.suffixof %s x)" (lit (String.sub w (n - b) b));
      ]
  in
  let palindrome_half =
    let n = between rng 4 10 in
    let w = palindrome_word rng n in
    let h = (n + 1) / 2 in
    sat "palindrome+substr"
      [ len n; palindrome; Printf.sprintf "(= (str.substr x 0 %d) %s)" h (lit (String.sub w 0 h)) ]
  in
  let at_all =
    let n = between rng 3 6 in
    let w = word rng n in
    sat "at-all" (len n :: List.init n (fun i -> at i w.[i]))
  in
  let conflict =
    let w1 = word rng (between rng 3 8) in
    let w2 = String.mapi (fun i c -> if i = 0 then other_letter rng c else c) w1 in
    unsat "conflicting-equals" [ eq (lit w1); eq (lit w2) ]
  in
  let palindrome_contains =
    (* a non-palindromic substring as long as the palindrome *)
    let n = between rng 2 6 in
    let rec draw () =
      let s = word rng n in
      if is_palindrome s then draw () else s
    in
    unsat "palindrome-contains" [ len n; palindrome; contains (draw ()) ]
  in
  let regex_excludes =
    (* every position draws from [a-m]; one is pinned to [n-z] *)
    let n = between rng 3 8 in
    let hi = Char.chr (Char.code 'c' + Random.State.int rng 11) in
    let outside = Char.chr (Char.code 'n' + Random.State.int rng 13) in
    unsat "regex-excludes"
      [
        len n;
        in_re (Printf.sprintf "(re.+ (re.range \"a\" %s))" (chr hi));
        at (Random.State.int rng n) outside;
      ]
  in
  let contains_pair =
    let n = between rng 2 5 in
    let s1 = word rng n in
    let s2 = String.mapi (fun i c -> if i = n - 1 then other_letter rng c else c) s1 in
    unsat "contains-pair" [ len n; contains s1; contains s2 ]
  in
  [
    equals;
    concat;
    replace;
    replace_all;
    reverse;
    includes_q;
    affixes;
    palindrome_half;
    at_all;
    conflict;
    palindrome_contains;
    regex_excludes;
    contains_pair;
    (* Table 1's rows the front end and Absint answer *)
    sat "table1/reverse+replace" [ eq "(str.replace_all (str.rev \"hello\") \"e\" \"a\")" ];
    sat "table1/concat+replace_all"
      [ eq "(str.replace_all (str.++ \"hello\" \" \" \"world\") \"l\" \"x\")" ];
    includes "table1/includes" "hello world" "world";
  ]

(* ------------------------------------------------------------------ *)
(* session: one interpreter per script — a cold joint check, a push
   that adds a conjunct (implied by the first two, planted for the
   witness only, or contradicting them), a pop, a check under an
   assumption, and a re-check of the original conjunction.            *)

let session_lengths = [ 4; 6; 8; 10; 12 ]
let session_kinds = [ "substr+at"; "palindrome+at"; "regex+at" ]

type push = Implied | Witness | Contradiction

let session_slot rng kind slot n =
  (* The witness-only assumption rides on the contradiction slots: a
     deck then answers about 60% of its checks without sampling (model
     reuse or Absint) and a quarter with cold anneals, so the median
     check sits in the reuse tier and the p90 among the cold anneals. *)
  let push = match slot mod 3 with 0 -> Implied | 1 -> Witness | _ -> Contradiction in
  let assume_witness = push = Contradiction in
  (* [a1], [a2]: the cold conjunction; [implied]: a fact every model of
     it satisfies; [witness]: a fact only the planted witness is known
     to satisfy; [contra]: a fact no model of it satisfies. *)
  let a1, a2, implied, witness, contra =
    match kind with
    | "substr+at" ->
      (* str.substr, not str.indexof: both compile to the same Index_of
         constraint, but str.indexof also asks for no earlier occurrence,
         which that constraint does not encode *)
      let l = if n <= 6 then 2 else 3 in
      let w = word rng n in
      let k = Random.State.int rng (n - l + 1) in
      let sub = String.sub w k l in
      let sub_positions = List.init l (fun d -> k + d) in
      let i = List.hd (positions rng ~avoid:sub_positions n 1) in
      let j = List.hd (positions rng ~avoid:(i :: sub_positions) n 1) in
      ( Printf.sprintf "(= (str.substr x %d %d) %s)" k l (lit sub),
        at i w.[i],
        contains sub,
        at j w.[j],
        at k (other_letter rng sub.[0]) )
    | "palindrome+at" ->
      let w = palindrome_word rng n in
      let i = Random.State.int rng n in
      let mirror = n - 1 - i in
      let j = List.hd (positions rng ~avoid:[ i; mirror ] n 1) in
      (palindrome, at i w.[i], at mirror w.[i], at j w.[j], at mirror (other_letter rng w.[i]))
    | "regex+at" ->
      let p = letter rng in
      let cls = letter_block rng 4 in
      let w =
        String.init n (fun k ->
            if k = 0 then p else List.nth cls (Random.State.int rng (List.length cls)))
      in
      let i = between rng 1 (n - 1) in
      let j = List.hd (positions rng ~avoid:[ 0; i ] n 1) in
      let rec outside () =
        let c = letter rng in
        if List.mem c cls then outside () else c
      in
      ( in_re (re_prefix_plus (String.make 1 p) cls),
        at i w.[i],
        contains (String.make 1 p),
        at j w.[j],
        at j (outside ()) )
    | _ -> invalid_arg ("Corpus.session_slot: " ^ kind)
  in
  let base = [ len n; a1; a2 ] in
  let pushed, push_expect =
    match push with
    | Implied -> (implied, Sat)
    | Witness -> (witness, Sat)
    | Contradiction -> (contra, Unsat)
  in
  let assumption = if assume_witness then witness else implied in
  let buf = Buffer.create 512 in
  let line s = Buffer.add_string buf (s ^ "\n") in
  Buffer.add_string buf header;
  List.iter (fun a -> line ("(assert " ^ a ^ ")")) base;
  line "(check-sat)";
  line "(get-model)";
  line "(push 1)";
  line ("(assert " ^ pushed ^ ")");
  line "(check-sat)";
  if push_expect = Sat then line "(get-model)";
  line "(pop 1)";
  line ("(check-sat-assuming (" ^ assumption ^ "))");
  line "(get-model)";
  line "(check-sat)";
  line "(get-model)";
  {
    label = Printf.sprintf "%s/%d" kind n;
    text = Buffer.contents buf;
    checks =
      [
        { active = base; expect = Sat };
        { active = base @ [ pushed ]; expect = push_expect };
        { active = base @ [ assumption ]; expect = Sat };
        { active = base; expect = Sat };
      ];
  }

let session_deck rng =
  List.concat
    (List.mapi
       (fun ki kind ->
         List.mapi
           (fun li n -> session_slot rng kind ((ki * List.length session_lengths) + li) n)
           session_lengths)
       session_kinds)

(* ------------------------------------------------------------------ *)

let deck = function Anneal -> anneal_deck | Static -> static_deck | Session -> session_deck

let deck_size w = List.length (deck w (Random.State.make [| 0 |]))

let generate workload ~seed ~decks =
  let tag = match workload with Anneal -> 1 | Static -> 2 | Session -> 3 in
  let rng = Random.State.make [| seed; tag |] in
  Array.of_list (List.concat (List.init decks (fun _ -> deck workload rng)))

let render corpus =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun s ->
      Buffer.add_string buf (";; " ^ s.label ^ "\n");
      Buffer.add_string buf s.text;
      List.iter
        (fun c ->
          Buffer.add_string buf
            ((match c.expect with Sat -> ";; expect sat: " | Unsat -> ";; expect unsat: ")
            ^ String.concat " " c.active ^ "\n"))
        s.checks)
    corpus;
  Buffer.contents buf
