module Bitvec = Qsmt_util.Bitvec

type key = int * int (* (i, j) with i <= j *)

type builder = {
  entries : (key, float) Hashtbl.t;
  mutable b_offset : float;
  mutable max_index : int; (* -1 when empty *)
}

type t = {
  n : int;
  t_offset : float;
  lin : float array; (* diagonal, length n *)
  (* CSR adjacency over couplers only; every coupler (i, j, q) appears in
     row i as (j, q) and in row j as (i, q). *)
  row_ptr : int array; (* length n + 1 *)
  col : int array;
  value : float array;
}

let normalize i j = if i <= j then (i, j) else (j, i)

let check_indices i j =
  if i < 0 || j < 0 then invalid_arg "Qubo: negative variable index"

let builder () = { entries = Hashtbl.create 64; b_offset = 0.; max_index = -1 }

let touch b i j = if max i j > b.max_index then b.max_index <- max i j

type overwrite = { ov_i : int; ov_j : int; old_value : float; new_value : float }

(* Innermost [with_overwrite_log] scope; [None] outside any scope, so a
   plain [set] pays one reference read. Not domain-safe by design — the
   linter's compile step is single-threaded. *)
let overwrite_log : overwrite list ref option ref = ref None

let with_overwrite_log f =
  let saved = !overwrite_log in
  let log = ref [] in
  overwrite_log := Some log;
  Fun.protect
    ~finally:(fun () -> overwrite_log := saved)
    (fun () ->
      let result = f () in
      (result, List.rev !log))

let set b i j q =
  check_indices i j;
  touch b i j;
  let key = normalize i j in
  (match !overwrite_log with
  | Some log -> begin
    match Hashtbl.find_opt b.entries key with
    | Some old when old <> q ->
      let ov_i, ov_j = key in
      log := { ov_i; ov_j; old_value = old; new_value = q } :: !log
    | _ -> ()
  end
  | None -> ());
  Hashtbl.replace b.entries key q

let get b i j =
  check_indices i j;
  match Hashtbl.find_opt b.entries (normalize i j) with
  | Some q -> q
  | None -> 0.

let add b i j q =
  check_indices i j;
  touch b i j;
  let key = normalize i j in
  let cur = match Hashtbl.find_opt b.entries key with Some v -> v | None -> 0. in
  Hashtbl.replace b.entries key (cur +. q)

let add_offset b x = b.b_offset <- b.b_offset +. x
let set_offset b x = b.b_offset <- x

let merge ~into src =
  Hashtbl.iter (fun (i, j) q -> add into i j q) src.entries;
  add_offset into src.b_offset

let freeze ?num_vars b =
  let n =
    match num_vars with
    | None -> b.max_index + 1
    | Some n ->
      if n < b.max_index + 1 then
        invalid_arg
          (Printf.sprintf "Qubo.freeze: num_vars %d < highest index + 1 (%d)" n (b.max_index + 1));
      n
  in
  let lin = Array.make n 0. in
  let degree = Array.make n 0 in
  let couplers = ref [] in
  Hashtbl.iter
    (fun (i, j) q ->
      if q <> 0. then
        if i = j then lin.(i) <- q
        else begin
          couplers := (i, j, q) :: !couplers;
          degree.(i) <- degree.(i) + 1;
          degree.(j) <- degree.(j) + 1
        end)
    b.entries;
  let row_ptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + degree.(i)
  done;
  let nnz = row_ptr.(n) in
  let col = Array.make nnz 0 in
  let value = Array.make nnz 0. in
  let cursor = Array.copy row_ptr in
  List.iter
    (fun (i, j, q) ->
      col.(cursor.(i)) <- j;
      value.(cursor.(i)) <- q;
      cursor.(i) <- cursor.(i) + 1;
      col.(cursor.(j)) <- i;
      value.(cursor.(j)) <- q;
      cursor.(j) <- cursor.(j) + 1)
    !couplers;
  (* Sort each row by column for deterministic iteration order. *)
  for i = 0 to n - 1 do
    let lo = row_ptr.(i) and hi = row_ptr.(i + 1) in
    let pairs = Array.init (hi - lo) (fun k -> (col.(lo + k), value.(lo + k))) in
    Array.sort (fun (a, _) (b, _) -> compare a b) pairs;
    Array.iteri
      (fun k (c, v) ->
        col.(lo + k) <- c;
        value.(lo + k) <- v)
      pairs
  done;
  { n; t_offset = b.b_offset; lin; row_ptr; col; value }

let num_vars t = t.n
let offset t = t.t_offset
let linear t i = t.lin.(i)

let iter_quadratic t f =
  for i = 0 to t.n - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = t.col.(k) in
      if i < j then f i j t.value.(k)
    done
  done

let iter_linear t f =
  for i = 0 to t.n - 1 do
    if t.lin.(i) <> 0. then f i t.lin.(i)
  done

let quadratic t =
  let acc = ref [] in
  iter_quadratic t (fun i j q -> acc := (i, j, q) :: !acc);
  List.rev !acc

let num_interactions t = Array.length t.col / 2
let degree t i = t.row_ptr.(i + 1) - t.row_ptr.(i)

let neighbors t i =
  List.init (degree t i) (fun k ->
      let idx = t.row_ptr.(i) + k in
      (t.col.(idx), t.value.(idx)))

let energy t x =
  if Bitvec.length x <> t.n then
    invalid_arg
      (Printf.sprintf "Qubo.energy: assignment has %d bits, problem has %d vars" (Bitvec.length x)
         t.n);
  let e = ref t.t_offset in
  for i = 0 to t.n - 1 do
    if Bitvec.get x i then begin
      e := !e +. t.lin.(i);
      (* Count each coupler once by only taking j > i. *)
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        let j = t.col.(k) in
        if j > i && Bitvec.get x j then e := !e +. t.value.(k)
      done
    end
  done;
  !e

let flip_delta t x i =
  (* Local field: lin_i + sum over set neighbors of the coupler value. *)
  let field = ref t.lin.(i) in
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    if Bitvec.get x t.col.(k) then field := !field +. t.value.(k)
  done;
  if Bitvec.get x i then -. !field else !field

let scale t c =
  {
    t with
    t_offset = t.t_offset *. c;
    lin = Array.map (fun v -> v *. c) t.lin;
    value = Array.map (fun v -> v *. c) t.value;
  }

let relabel t f ~num_vars:n =
  let b = builder () in
  let seen = Hashtbl.create t.n in
  let rename i =
    let j = f i in
    if j < 0 || j >= n then
      invalid_arg (Printf.sprintf "Qubo.relabel: variable %d mapped outside [0,%d)" i n);
    (match Hashtbl.find_opt seen j with
    | Some i0 when i0 <> i -> invalid_arg "Qubo.relabel: mapping not injective"
    | _ -> Hashtbl.replace seen j i);
    j
  in
  Array.iteri (fun i v -> if v <> 0. then set b (rename i) (rename i) v) t.lin;
  iter_quadratic t (fun i j q -> set b (rename i) (rename j) q);
  set_offset b t.t_offset;
  freeze ~num_vars:n b

let to_dense t =
  let m = Array.make_matrix t.n t.n 0. in
  Array.iteri (fun i v -> m.(i).(i) <- v) t.lin;
  iter_quadratic t (fun i j q -> m.(i).(j) <- q);
  m

let of_dense m =
  let n = Array.length m in
  Array.iter (fun row -> if Array.length row <> n then invalid_arg "Qubo.of_dense: not square") m;
  let b = builder () in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if m.(i).(j) <> 0. then add b i j m.(i).(j)
    done
  done;
  freeze ~num_vars:n b

let max_abs_coefficient t =
  let m = ref 0. in
  Array.iter (fun v -> m := Float.max !m (Float.abs v)) t.lin;
  Array.iter (fun v -> m := Float.max !m (Float.abs v)) t.value;
  !m

let equal a b =
  a.n = b.n && a.t_offset = b.t_offset
  && Array.for_all2 ( = ) a.lin b.lin
  && quadratic a = quadratic b

let pp ppf t =
  Format.fprintf ppf "qubo(vars=%d, interactions=%d, offset=%g)" t.n (num_interactions t) t.t_offset
