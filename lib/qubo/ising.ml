module Bitvec = Qsmt_util.Bitvec

type t = {
  n : int;
  i_offset : float;
  h : float array;
  row_ptr : int array;
  col : int array;
  value : float array; (* J, both directions like Qubo's CSR *)
  active : int array; (* spins with a coupler or a nonzero field, ascending *)
  idle : int array; (* the rest, ascending *)
}

type spins = Bitvec.t

let in_term degree h i = degree.(i) > 0 || h.(i) <> 0.

let of_qubo q =
  let n = Qubo.num_vars q in
  (* x_i = (1 + s_i)/2:
       Q_ii x_i           -> Q_ii/2 s_i + Q_ii/2
       Q_ij x_i x_j       -> Q_ij/4 (s_i s_j + s_i + s_j + 1) *)
  let h = Array.make n 0. in
  for i = 0 to n - 1 do
    h.(i) <- Qubo.linear q i /. 2.
  done;
  (* One float array cell, not a float ref: the ref would be captured by
     the closure below, and every store to it would box. *)
  let offset = [| Qubo.offset q |] in
  for i = 0 to n - 1 do
    offset.(0) <- offset.(0) +. h.(i)
  done;
  let couplers = ref [] in
  Qubo.iter_quadratic q (fun i j v ->
      let quarter = v /. 4. in
      couplers := (i, j, quarter) :: !couplers;
      h.(i) <- h.(i) +. quarter;
      h.(j) <- h.(j) +. quarter;
      offset.(0) <- offset.(0) +. quarter);
  let degree = Array.make n 0 in
  List.iter
    (fun (i, j, _) ->
      degree.(i) <- degree.(i) + 1;
      degree.(j) <- degree.(j) + 1)
    !couplers;
  let row_ptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + degree.(i)
  done;
  let nnz = row_ptr.(n) in
  let col = Array.make nnz 0 in
  let value = Array.make nnz 0. in
  let cursor = Array.copy row_ptr in
  List.iter
    (fun (i, j, v) ->
      col.(cursor.(i)) <- j;
      value.(cursor.(i)) <- v;
      cursor.(i) <- cursor.(i) + 1;
      col.(cursor.(j)) <- i;
      value.(cursor.(j)) <- v;
      cursor.(j) <- cursor.(j) + 1)
    !couplers;
  (* An idle spin's field is +0. exactly (Qubo.freeze drops zero
     coefficients) and the offset adds it, so where an idle spin exists
     neither the offset nor any energy summed from it is -0.: adding
     the idle spin's flip delta, +-0., leaves an energy's bits as they
     are. *)
  let n_active = ref 0 in
  for i = 0 to n - 1 do
    if in_term degree h i then incr n_active
  done;
  let active = Array.make !n_active 0 and idle = Array.make (n - !n_active) 0 in
  let a = ref 0 and d = ref 0 in
  for i = 0 to n - 1 do
    if in_term degree h i then begin
      active.(!a) <- i;
      incr a
    end
    else begin
      idle.(!d) <- i;
      incr d
    end
  done;
  { n; i_offset = offset.(0); h; row_ptr; col; value; active; idle }

let num_spins t = t.n
let offset t = t.i_offset
let field t i = t.h.(i)

let iter_couplings t f =
  for i = 0 to t.n - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = t.col.(k) in
      if i < j then f i j t.value.(k)
    done
  done

let couplings t =
  let acc = ref [] in
  iter_couplings t (fun i j v -> acc := (i, j, v) :: !acc);
  List.sort compare !acc

let degree t i = t.row_ptr.(i + 1) - t.row_ptr.(i)

let neighbors t i =
  List.init (degree t i) (fun k ->
      let idx = t.row_ptr.(i) + k in
      (t.col.(idx), t.value.(idx)))

let iter_neighbors t i f =
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    f t.col.(k) t.value.(k)
  done

let csr t = (t.row_ptr, t.col, t.value)
let active t = t.active
let idle t = t.idle

let to_qubo t =
  (* s_i = 2 x_i - 1:
       h_i s_i       -> 2 h_i x_i - h_i
       J s_i s_j     -> 4J x_i x_j - 2J x_i - 2J x_j + J *)
  let b = Qubo.builder () in
  let offset = ref t.i_offset in
  Array.iteri
    (fun i hi ->
      if hi <> 0. then Qubo.add b i i (2. *. hi);
      offset := !offset -. hi)
    t.h;
  iter_couplings t (fun i j v ->
      Qubo.add b i j (4. *. v);
      Qubo.add b i i (-2. *. v);
      Qubo.add b j j (-2. *. v);
      offset := !offset +. v);
  Qubo.set_offset b !offset;
  Qubo.freeze ~num_vars:t.n b

let spin_sign s i = if Bitvec.get s i then 1. else -1.

let energy t s =
  if Bitvec.length s <> t.n then
    invalid_arg
      (Printf.sprintf "Ising.energy: assignment has %d spins, problem has %d" (Bitvec.length s) t.n);
  let e = ref t.i_offset in
  for i = 0 to t.n - 1 do
    let si = spin_sign s i in
    e := !e +. (t.h.(i) *. si);
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = t.col.(k) in
      if j > i then e := !e +. (t.value.(k) *. si *. spin_sign s j)
    done
  done;
  !e

let local_field t s i =
  let f = ref t.h.(i) in
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    f := !f +. (t.value.(k) *. spin_sign s t.col.(k))
  done;
  !f

let flip_delta t s i = -2. *. spin_sign s i *. local_field t s i
let spins_of_bits x = x
let bits_of_spins s = s

let max_abs_field t =
  let m = ref 0. in
  Array.iter (fun v -> m := Float.max !m (Float.abs v)) t.h;
  Array.iter (fun v -> m := Float.max !m (Float.abs v)) t.value;
  !m

let min_abs_nonzero t =
  let m = ref infinity in
  let consider v = if v <> 0. then m := Float.min !m (Float.abs v) in
  Array.iter consider t.h;
  Array.iter consider t.value;
  if !m = infinity then 1. else !m

let pp ppf t =
  Format.fprintf ppf "ising(spins=%d, couplings=%d, offset=%g)" t.n
    (Array.length t.col / 2) t.i_offset
