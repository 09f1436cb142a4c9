module Netlist = Qbpart_netlist.Netlist
module Topology = Qbpart_topology.Topology
module Wire = Qbpart_netlist.Wire

(* Cell c = j*m + i is "move component j to partition i"; it lives in
   row a.(j)*m + i (source, destination partition pair).  Buckets are
   coarse filters over quantized gains: selection always recompares
   exact deltas, so quantization only costs extra scanning, never
   correctness. *)
type t = {
  nl : Netlist.t;
  topo : Topology.t;
  gains : Gains.t;
  sizes : float array;     (* n: component sizes, for the swap capacity test *)
  m : int;
  n : int;
  nbuckets : int;
  heads : int array;       (* m*m*nbuckets: first cell per bucket, -1 = empty *)
  next : int array;        (* n*m *)
  prev : int array;        (* n*m *)
  cell_bucket : int array; (* n*m: global bucket index, -1 = unlinked *)
  min_key : int array;     (* m*m: no linked cell of the row keys below this *)
  row_count : int array;   (* m*m: linked cells per row *)
  locked : bool array;     (* n *)
  mutable g0 : float;      (* gain of key 1's lower bound, fitted at reset *)
  mutable q : float;       (* bucket width, > 0 *)
  corr_lb : float;         (* lower bound on the direct-wire swap correction *)
}

let gains t = t.gains
let is_locked t j = t.locked.(j)

(* Key 0 is the underflow clamp (lower bound -inf, for gains that
   drift below the fitted range mid-pass); keys 1..nbuckets-1 cover
   [g0, g0 + (nbuckets-2)q), the top key open above.  Inlined: the
   selection loops call it per bucket, and a call boxes its float. *)
let[@inline] lb t k = if k = 0 then neg_infinity else t.g0 +. (float_of_int (k - 1) *. t.q)

let key_of t g =
  if g < t.g0 then 0
  else begin
    let k = int_of_float (Float.floor ((g -. t.g0) /. t.q)) in
    (* float rounding can push floor one interval too high; the bucket
       invariant g >= lb(key) is what selection's pruning relies on *)
    let k = if t.g0 +. (float_of_int k *. t.q) > g then k - 1 else k in
    let k = k + 1 in
    if k < 1 then 1 else if k > t.nbuckets - 1 then t.nbuckets - 1 else k
  end

let unlink t c =
  let gb = t.cell_bucket.(c) in
  if gb >= 0 then begin
    let nx = t.next.(c) and pv = t.prev.(c) in
    if pv >= 0 then t.next.(pv) <- nx else t.heads.(gb) <- nx;
    if nx >= 0 then t.prev.(nx) <- pv;
    t.cell_bucket.(c) <- -1;
    let row = gb / t.nbuckets in
    t.row_count.(row) <- t.row_count.(row) - 1
  end

let link t c ~row ~key =
  let gb = (row * t.nbuckets) + key in
  let head = t.heads.(gb) in
  t.prev.(c) <- -1;
  t.next.(c) <- head;
  if head >= 0 then t.prev.(head) <- c;
  t.heads.(gb) <- c;
  t.cell_bucket.(c) <- gb;
  t.row_count.(row) <- t.row_count.(row) + 1;
  if key < t.min_key.(row) then t.min_key.(row) <- key

(* Unlink all of j's cells, relink the m-1 live ones against the
   current assignment and gains (no-op relink for locked components:
   their cells stay out until reset). *)
let relink_component t j =
  let base = j * t.m in
  for i = 0 to t.m - 1 do
    unlink t (base + i)
  done;
  if not t.locked.(j) then begin
    let from = (Gains.assignment t.gains).(j) in
    let row_base = from * t.m in
    for i = 0 to t.m - 1 do
      if i <> from then
        link t (base + i) ~row:(row_base + i)
          ~key:(key_of t (Gains.move_delta t.gains ~j ~target:i))
    done
  end

let lock t j =
  if not t.locked.(j) then begin
    t.locked.(j) <- true;
    let base = j * t.m in
    for i = 0 to t.m - 1 do
      unlink t (base + i)
    done
  end

let reset t =
  Array.fill t.locked 0 t.n false;
  Array.fill t.heads 0 (Array.length t.heads) (-1);
  Array.fill t.cell_bucket 0 (Array.length t.cell_bucket) (-1);
  Array.fill t.row_count 0 (Array.length t.row_count) 0;
  Array.fill t.min_key 0 (Array.length t.min_key) t.nbuckets;
  let a = Gains.assignment t.gains in
  let gmin = ref infinity and gmax = ref neg_infinity in
  for j = 0 to t.n - 1 do
    let from = a.(j) in
    for i = 0 to t.m - 1 do
      if i <> from then begin
        let g = Gains.move_delta t.gains ~j ~target:i in
        if g < !gmin then gmin := g;
        if g > !gmax then gmax := g
      end
    done
  done;
  if !gmin > !gmax then begin
    (* no movable cell (m = 1 or n = 0) *)
    t.g0 <- 0.0;
    t.q <- 1.0
  end
  else begin
    t.g0 <- !gmin;
    let span = !gmax -. !gmin in
    t.q <- (if span > 0.0 then span /. float_of_int (t.nbuckets - 2) else 1.0)
  end;
  for j = 0 to t.n - 1 do
    let from = a.(j) in
    let base = j * t.m and row_base = from * t.m in
    for i = 0 to t.m - 1 do
      if i <> from then
        link t (base + i) ~row:(row_base + i)
          ~key:(key_of t (Gains.move_delta t.gains ~j ~target:i))
    done
  done

(* The GKL swap delta is gA(j1) + gB(j2) + corr, where corr re-adds
   the direct wire between the endpoints.  For pruning we need a
   constant lower bound on corr: it is beta * w * (b(x,y) + b(y,x))
   for some wire weight w and partition pair (x,y), or 0 for unwired
   pairs, so the minimum over the four products of the weight and
   b-sum range endpoints (and 0) bounds every pair. *)
let corr_lower_bound nl topo gains =
  let m = Topology.m topo in
  if m < 2 || Netlist.wire_count nl = 0 then 0.0
  else begin
    let wmin = ref infinity and wmax = ref neg_infinity in
    Netlist.iter_wires nl (fun w ->
        let x = Wire.weight w in
        if x < !wmin then wmin := x;
        if x > !wmax then wmax := x);
    let smin = ref infinity and smax = ref neg_infinity in
    for x = 0 to m - 1 do
      for y = 0 to m - 1 do
        if x <> y then begin
          let s = Topology.b topo x y +. Topology.b topo y x in
          if s < !smin then smin := s;
          if s > !smax then smax := s
        end
      done
    done;
    let beta = Gains.beta gains in
    Float.min 0.0
      (Float.min
         (Float.min (beta *. !wmin *. !smin) (beta *. !wmin *. !smax))
         (Float.min (beta *. !wmax *. !smin) (beta *. !wmax *. !smax)))
  end

let create ?(nbuckets = 128) nl topo gains =
  let nbuckets = max 8 nbuckets in
  let m = Gains.m gains in
  let n = Netlist.n nl in
  let t =
    {
      nl;
      topo;
      gains;
      sizes = Netlist.sizes nl;
      m;
      n;
      nbuckets;
      heads = Array.make (m * m * nbuckets) (-1);
      next = Array.make (max 1 (n * m)) (-1);
      prev = Array.make (max 1 (n * m)) (-1);
      cell_bucket = Array.make (max 1 (n * m)) (-1);
      min_key = Array.make (m * m) nbuckets;
      row_count = Array.make (m * m) 0;
      locked = Array.make (max 1 n) false;
      g0 = 0.0;
      q = 1.0;
      corr_lb = corr_lower_bound nl topo gains;
    }
  in
  reset t;
  t

let apply_move t ~j ~target =
  Gains.apply_move t.gains ~j ~target;
  relink_component t j;
  let xadj = Netlist.adj_offsets t.nl in
  let anbr = Netlist.adj_targets t.nl in
  for k = xadj.(j) to xadj.(j + 1) - 1 do
    relink_component t anbr.(k)
  done

let apply_swap t ~j1 ~j2 =
  let a = Gains.assignment t.gains in
  let p1 = a.(j1) and p2 = a.(j2) in
  if p1 <> p2 then begin
    apply_move t ~j:j1 ~target:p2;
    apply_move t ~j:j2 ~target:p1
  end

(* Advance a row's min-key pointer past emptied buckets (lazy: unlink
   never lowers it back, link does). *)
let advance t row =
  let base = row * t.nbuckets in
  let k = ref t.min_key.(row) in
  while !k < t.nbuckets && t.heads.(base + !k) < 0 do
    incr k
  done;
  t.min_key.(row) <- !k;
  !k

let best_move t ~legal =
  let m = t.m and nb = t.nbuckets in
  let best_d = ref infinity and best_j = ref (-1) and best_i = ref (-1) in
  for row = 0 to (m * m) - 1 do
    let count = t.row_count.(row) in
    if count > 0 then begin
      let dst = row mod m in
      let base = row * nb in
      let seen = ref 0 in
      let k = ref (advance t row) in
      let continue = ref true in
      while !continue && !k < nb && !seen < count do
        if lb t !k <= !best_d then begin
          let c = ref t.heads.(base + !k) in
          while !c >= 0 do
            incr seen;
            let j = !c / m in
            let d = Gains.move_delta t.gains ~j ~target:dst in
            if
              (d < !best_d
              || (d = !best_d && (j < !best_j || (j = !best_j && dst < !best_i))))
              && legal ~j ~target:dst
            then begin
              best_d := d;
              best_j := j;
              best_i := dst
            end;
            c := t.next.(!c)
          done;
          incr k
        end
        else continue := false
      done
    end
  done;
  if !best_j < 0 then None else Some (!best_j, !best_i, !best_d)

(* Capacity is tested first, on every pair, with exactly
   [Gains.swap_fits]'s float expressions: most pairs the bucket bounds
   admit fail it, and it costs a few loads where the delta costs a
   direct-wire lookup. *)
let best_swap t ~legal =
  let m = t.m and nb = t.nbuckets in
  let loads = Gains.loads t.gains and sizes = t.sizes in
  let best_d = ref infinity and bj1 = ref (-1) and bj2 = ref (-1) in
  for p1 = 0 to m - 2 do
    for p2 = p1 + 1 to m - 1 do
      let ra = (p1 * m) + p2 and rb = (p2 * m) + p1 in
      let ca = t.row_count.(ra) and cb = t.row_count.(rb) in
      if ca > 0 && cb > 0 then begin
        let load1 = loads.(p1) and cap1 = Topology.capacity t.topo p1 in
        let load2 = loads.(p2) and cap2 = Topology.capacity t.topo p2 in
        let base_a = ra * nb and base_b = rb * nb in
        let kb0 = advance t rb in
        let lb_b0 = lb t kb0 in
        let ka = ref (advance t ra) in
        let seen_a = ref 0 in
        let cont_a = ref true in
        while !cont_a && !ka < nb && !seen_a < ca do
          if t.heads.(base_a + !ka) < 0 then incr ka
          else if lb t !ka +. lb_b0 +. t.corr_lb <= !best_d then begin
            let lb_a = lb t !ka in
            let head_a = t.heads.(base_a + !ka) in
            let na_k = ref 0 in
            let c = ref head_a in
            while !c >= 0 do
              incr na_k;
              c := t.next.(!c)
            done;
            let kb = ref kb0 in
            let seen_b = ref 0 in
            let cont_b = ref true in
            while !cont_b && !kb < nb && !seen_b < cb do
              if t.heads.(base_b + !kb) < 0 then incr kb
              else if lb_a +. lb t !kb +. t.corr_lb <= !best_d then begin
                let c1 = ref head_a in
                while !c1 >= 0 do
                  let ja = !c1 / m in
                  let sa = sizes.(ja) in
                  let rest1 = load1 -. sa in
                  let first = !c1 = head_a in
                  let c2 = ref t.heads.(base_b + !kb) in
                  while !c2 >= 0 do
                    if first then incr seen_b;
                    let jb = !c2 / m in
                    let sb = sizes.(jb) in
                    if rest1 +. sb <= cap1 && load2 -. sb +. sa <= cap2 then begin
                      let j1 = if ja < jb then ja else jb
                      and j2 = if ja < jb then jb else ja in
                      let d = Gains.swap_delta t.gains ~j1 ~j2 in
                      if
                        (d < !best_d
                        || (d = !best_d && (j1 < !bj1 || (j1 = !bj1 && j2 < !bj2))))
                        && legal ~j1 ~j2
                      then begin
                        best_d := d;
                        bj1 := j1;
                        bj2 := j2
                      end
                    end;
                    c2 := t.next.(!c2)
                  done;
                  c1 := t.next.(!c1)
                done;
                incr kb
              end
              else cont_b := false
            done;
            seen_a := !seen_a + !na_k;
            incr ka
          end
          else cont_a := false
        done
      end
    done
  done;
  if !bj1 < 0 then None else Some (!bj1, !bj2, !best_d)
