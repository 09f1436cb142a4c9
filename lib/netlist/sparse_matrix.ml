(* Each row is a hashtable keyed by column, so [get]/[set] are O(1)
   while a matrix is being built.  Sorted iteration is not cheap: every
   [iter]/[fold] call conses each row's bindings into a list and sorts
   it.  It serves one-off walks only — [Constraints] building its
   partner CSR from the budgets stored here, and tests.  No solver path
   iterates this store: the netlist adjacency and the timing partners
   are flat CSR arrays, and [Constraints.iter] walks its CSR. *)

type t = {
  rows : int;
  cols : int;
  default : float;
  data : (int, float) Hashtbl.t array;
}

let create ?(default = 0.0) ~rows ~cols () =
  if rows < 0 || cols < 0 then invalid_arg "Sparse_matrix.create: negative dimension";
  { rows; cols; default; data = Array.init rows (fun _ -> Hashtbl.create 8) }

let rows t = t.rows
let cols t = t.cols
let default t = t.default

let check t r c =
  if r < 0 || r >= t.rows || c < 0 || c >= t.cols then
    invalid_arg
      (Printf.sprintf "Sparse_matrix: index (%d,%d) out of range %dx%d" r c t.rows t.cols)

let get t r c =
  check t r c;
  match Hashtbl.find_opt t.data.(r) c with Some x -> x | None -> t.default

let set t r c x =
  check t r c;
  if x = t.default then Hashtbl.remove t.data.(r) c else Hashtbl.replace t.data.(r) c x

let add t r c x = set t r c (get t r c +. x)
let mem t r c =
  check t r c;
  Hashtbl.mem t.data.(r) c

let nnz t = Array.fold_left (fun acc h -> acc + Hashtbl.length h) 0 t.data

let row_entries t r =
  check t r 0;
  Hashtbl.fold (fun c x acc -> (c, x) :: acc) t.data.(r) []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let iter_row t r f = List.iter (fun (c, x) -> f c x) (row_entries t r)

let iter t f =
  for r = 0 to t.rows - 1 do
    iter_row t r (fun c x -> f r c x)
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun r c x -> acc := f !acc r c x);
  !acc

let copy t = { t with data = Array.map Hashtbl.copy t.data }

let to_dense t =
  let m = Array.make_matrix t.rows t.cols t.default in
  iter t (fun r c x -> m.(r).(c) <- x);
  m

let of_dense ?(default = 0.0) dense =
  let rows = Array.length dense in
  let cols = if rows = 0 then 0 else Array.length dense.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> cols then invalid_arg "Sparse_matrix.of_dense: ragged input")
    dense;
  let t = create ~default ~rows ~cols () in
  Array.iteri (fun r row -> Array.iteri (fun c x -> if x <> default then set t r c x) row) dense;
  t

let equal a b =
  a.rows = b.rows && a.cols = b.cols && a.default = b.default
  &&
  let sub x y =
    try
      iter x (fun r c v -> if get y r c <> v then raise Exit);
      true
    with Exit -> false
  in
  sub a b && sub b a
