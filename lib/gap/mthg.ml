type criterion = Cost | Cost_times_weight | Weight | Weight_per_capacity

let all_criteria = [ Cost; Cost_times_weight; Weight; Weight_per_capacity ]

(* Scratch buffers for one (m, n) shape, reused across every STEP-4/6
   call of a portfolio start so the steady-state inner loop allocates
   nothing.  [out] doubles as the result buffer: a solve given a
   workspace returns [out] itself, valid until the next solve with the
   same workspace (the Burkard loop blits it into its own iterate
   straight away). *)
type workspace = {
  ws_m : int;
  ws_n : int;
  residual : float array;   (* m: residual capacities during construction *)
  f1 : float array;         (* n: best feasible desirability per item *)
  f2 : float array;         (* n: second best *)
  i1 : int array;           (* n: argbest *)
  i2 : int array;           (* n: arg second best *)
  trial : int array;        (* n: construction in progress *)
  out : int array;          (* n: champion across criteria / result *)
  order : int array;        (* n: relaxed_fill placement order *)
  key : float array;        (* n: relaxed_fill sort keys *)
  cursor : int array;       (* m: cascade pointer into knapsack i's heavy-first order *)
  mutable heavy : int array;      (* items by weight, descending: n entries shared by
                                     every knapsack for uniform weights, else m*n *)
  mutable heavy_for : float array; (* the weight array [heavy] was sorted for *)
  mutable uniform : bool;          (* that weight array has w_ij = w_0j for all i *)
  mutable heap_r : float array;  (* lazy max-heap of (regret, item) entries *)
  mutable heap_j : int array;
  mutable heap_len : int;
}

let workspace ~m ~n =
  if m < 1 || n < 0 then invalid_arg "Mthg.workspace: need m >= 1 and n >= 0";
  {
    ws_m = m;
    ws_n = n;
    residual = Array.make m 0.0;
    f1 = Array.make n infinity;
    f2 = Array.make n infinity;
    i1 = Array.make n (-1);
    i2 = Array.make n (-1);
    trial = Array.make n (-1);
    out = Array.make n (-1);
    order = Array.make n 0;
    key = Array.make n 0.0;
    cursor = Array.make m 0;
    heavy = [||];
    heavy_for = [||];
    uniform = false;
    heap_r = Array.make (max 1 n) 0.0;
    heap_j = Array.make (max 1 n) 0;
    heap_len = 0;
  }

let ensure_ws ws (g : Gap.t) =
  match ws with
  | None -> workspace ~m:g.Gap.m ~n:g.Gap.n
  | Some ws ->
    if ws.ws_m <> g.Gap.m || ws.ws_n <> g.Gap.n then
      invalid_arg
        (Printf.sprintf "Mthg: workspace is %dx%d but instance is %dx%d" ws.ws_m ws.ws_n
           g.Gap.m g.Gap.n);
    ws

(* Sort the items heavy-first once per weight array the workspace
   serves (weights are fixed data: a Burkard workspace sorts once for
   its whole life).  Uniform weights (Burkard's w_ij = s_j) need one
   order for all knapsacks; otherwise knapsack i's order is the slice
   [i*n, (i+1)*n). *)
let sort_heavy ws (g : Gap.t) =
  let weight = g.Gap.weight in
  if ws.heavy_for != weight then begin
    let { Gap.m; n; _ } = g in
    let uniform = ref true in
    for j = 0 to n - 1 do
      let base = j * m in
      for i = 1 to m - 1 do
        if weight.(base + i) <> weight.(base) then uniform := false
      done
    done;
    let orders = if !uniform then 1 else m in
    if Array.length ws.heavy <> orders * n then ws.heavy <- Array.make (orders * n) 0;
    for i = 0 to orders - 1 do
      let idx = Array.init n Fun.id in
      Array.sort (fun a b -> Float.compare weight.((b * m) + i) weight.((a * m) + i)) idx;
      Array.blit idx 0 ws.heavy (i * n) n
    done;
    ws.uniform <- !uniform;
    ws.heavy_for <- weight
  end

(* Greedy regret construction.  For each unassigned item we track its
   best and second-best feasible desirability; the item with the
   largest regret is committed first, so items that are about to lose
   their good options are placed early.

   Each item's (best, second-best) pair is cached and only recomputed
   when the knapsack just filled was one of the two AND that knapsack
   no longer fits the item: desirabilities depend only on the fixed
   (cost, weight, capacity) data, so while the top-2 knapsacks still
   have room the cached pair is exact.  (A knapsack outside the top
   two that becomes infeasible cannot affect the top two either.)

   Three devices keep the loop near O(n·m):

   - Selection is a lazy max-heap of (regret, item) entries ordered by
     (regret desc, item asc) — exactly the order a linear scan with a
     strict-improvement sweep realizes.  Regret changes only on
     refresh, and every refresh pushes a fresh entry, so the top valid
     entry is always the true maximum; stale entries (item already
     placed, or regret no longer current) are dropped on pop.  Pop
     order depends only on the entry multiset, so the order in which
     one cascade refreshes its items is immaterial.
   - The cascade is a monotone cursor.  Residuals only shrink, so the
     items too heavy for knapsack [i] form a growing prefix of [i]'s
     heavy-first order; a placement into [i] advances [i]'s cursor
     over the items that just stopped fitting and refreshes those
     that are unassigned and hold [i] in their top two.  An item
     behind the cursor never holds [i] again (refreshes pick fitting
     knapsacks only), so this is exactly the set of top-2 holders
     that no longer fit, and each item is passed once per knapsack
     per construction.
   - Under [Weight] with uniform weights every fitting knapsack ties
     at w_ij = s_j, so the strict-improvement scan makes the top two
     the first two fitting knapsacks: the scan stops at the second,
     and a cascade refresh resumes at the old best, since no knapsack
     below it fitted then and none can fit again. *)
let construct_into ?(criterion = Cost) (g : Gap.t) ws assignment =
  let { Gap.m; n; _ } = g in
  let cost = g.Gap.cost and weight = g.Gap.weight and capacity = g.Gap.capacity in
  let residual = ws.residual and f1 = ws.f1 and f2 = ws.f2 and i1 = ws.i1 and i2 = ws.i2 in
  sort_heavy ws g;
  let heavy = ws.heavy and cursor = ws.cursor in
  let stride = if ws.uniform then 0 else n in
  let first_two = criterion = Weight && ws.uniform in
  Array.blit capacity 0 residual 0 m;
  Array.fill assignment 0 n (-1);
  Array.fill cursor 0 m 0;
  ws.heap_len <- 0;
  (* unassigned items with no fitting knapsack: any such item aborts
     the construction, exactly like the old full-scan stuck check *)
  let no_fit = ref 0 in
  let[@inline] regret_of j = if f2.(j) = infinity then infinity else f2.(j) -. f1.(j) in
  (* The heap is 4-ary with hole-based sifting: the element under
     placement rides in registers while parents/children shift into
     the hole, so each level costs loads plus one store instead of a
     full swap, and the tree is half as deep as a binary heap's.  Pop
     order depends only on the entry multiset and the (regret desc,
     item asc) total order, never on the heap's internal shape. *)
  let push r j =
    let len = ws.heap_len in
    if len = Array.length ws.heap_j then begin
      let cap = max 8 (2 * len) in
      let nr = Array.make cap 0.0 and nj = Array.make cap 0 in
      Array.blit ws.heap_r 0 nr 0 len;
      Array.blit ws.heap_j 0 nj 0 len;
      ws.heap_r <- nr;
      ws.heap_j <- nj
    end;
    let hr = ws.heap_r and hj = ws.heap_j in
    ws.heap_len <- len + 1;
    let k = ref len in
    let continue = ref true in
    while !continue && !k > 0 do
      let p = (!k - 1) / 4 in
      if r > hr.(p) || (r = hr.(p) && j < hj.(p)) then begin
        hr.(!k) <- hr.(p);
        hj.(!k) <- hj.(p);
        k := p
      end
      else continue := false
    done;
    hr.(!k) <- r;
    hj.(!k) <- j
  in
  let pop_r = ref 0.0 and pop_j = ref 0 in
  let pop () =
    let hr = ws.heap_r and hj = ws.heap_j in
    pop_r := hr.(0);
    pop_j := hj.(0);
    let len = ws.heap_len - 1 in
    ws.heap_len <- len;
    if len > 0 then begin
      let r = hr.(len) and j = hj.(len) in
      let k = ref 0 in
      let continue = ref true in
      while !continue do
        let c0 = (4 * !k) + 1 in
        if c0 >= len then continue := false
        else begin
          let last = min (c0 + 3) (len - 1) in
          let b = ref c0 in
          for c = c0 + 1 to last do
            if hr.(c) > hr.(!b) || (hr.(c) = hr.(!b) && hj.(c) < hj.(!b)) then b := c
          done;
          if hr.(!b) > r || (hr.(!b) = r && hj.(!b) < j) then begin
            hr.(!k) <- hr.(!b);
            hj.(!k) <- hj.(!b);
            k := !b
          end
          else continue := false
        end
      done;
      hr.(!k) <- r;
      hj.(!k) <- j
    end
  in
  (* [cascade]: a refresh because a top-2 knapsack stopped fitting
     (false for the initial build) *)
  let refresh ~cascade j =
    (* a cascaded item had i1 >= 0, so its pre-refresh regret is defined *)
    let old_r = if cascade then regret_of j else nan in
    let from = if cascade && first_two then i1.(j) else 0 in
    let base = j * m in
    (* the scan keeps the running top two in locals (registers), not
       in the per-item arrays, and computes each desirability inline:
       a call per cell would also box its float *)
    let b1 = ref infinity and b2 = ref infinity and a1 = ref (-1) and a2 = ref (-1) in
    let i = ref from in
    while !i < m && not (first_two && !a2 >= 0) do
      let i' = !i in
      let w = weight.(base + i') in
      if w <= residual.(i') then begin
        let f =
          match criterion with
          | Cost -> cost.(base + i')
          | Cost_times_weight -> cost.(base + i') *. w
          | Weight -> w
          | Weight_per_capacity ->
            let cap = capacity.(i') in
            if cap > 0.0 then w /. cap else infinity
        in
        if f < !b1 then begin
          b2 := !b1;
          a2 := !a1;
          b1 := f;
          a1 := i'
        end
        else if f < !b2 then begin
          b2 := f;
          a2 := i'
        end
      end;
      incr i
    done;
    f1.(j) <- !b1;
    f2.(j) <- !b2;
    i1.(j) <- !a1;
    i2.(j) <- !a2;
    if i1.(j) = -1 then incr no_fit
    else begin
      (* an unchanged regret keeps the item's existing heap entry
         valid (validity is checked against the current regret on
         pop), so refreshes that only reshuffle the argknapsacks —
         the common case under tie-heavy criteria — push nothing *)
      let r = regret_of j in
      if not (cascade && r = old_r) then push r j
    end
  in
  for j = 0 to n - 1 do
    refresh ~cascade:false j
  done;
  let unassigned = ref n in
  let stuck = ref false in
  while !unassigned > 0 && not !stuck do
    if !no_fit > 0 then stuck := true
    else begin
      let j = ref (-1) in
      while !j < 0 && ws.heap_len > 0 do
        pop ();
        let cand = !pop_j in
        if assignment.(cand) = -1 && i1.(cand) >= 0 && !pop_r = regret_of cand then
          j := cand
      done;
      if !j < 0 then stuck := true
      else begin
        let j = !j in
        let i = i1.(j) in
        assignment.(j) <- i;
        residual.(i) <- residual.(i) -. weight.((j * m) + i);
        decr unassigned;
        let room = residual.(i) in
        let o = i * stride in
        let p = ref cursor.(i) in
        while !p < n && weight.((heavy.(o + !p) * m) + i) > room do
          let j' = heavy.(o + !p) in
          if assignment.(j') = -1 && (i1.(j') = i || i2.(j') = i) then refresh ~cascade:true j';
          incr p
        done;
        cursor.(i) <- !p
      end
    end
  done;
  not !stuck

let construct ?criterion (g : Gap.t) =
  let ws = workspace ~m:g.Gap.m ~n:g.Gap.n in
  if construct_into ?criterion g ws ws.trial then Some ws.trial else None

type improver = [ `None | `Shift | `Shift_and_swap ]

(* In-place improver for the pooled path: [residual] must already be
   consistent with [a] (construction leaves it that way). *)
let improve_in_place improve g a ~residual =
  match improve with
  | `None -> ()
  | `Shift -> Improve.shift_in_place g a ~residual
  | `Shift_and_swap -> Improve.shift_and_swap_in_place g a ~residual

let solve ?ws ?(criteria = all_criteria) ?(improve = `Shift_and_swap) g =
  Gap.verify_domain g;
  let ws = ensure_ws ws g in
  let n = g.Gap.n in
  let found = ref false in
  let best_cost = ref infinity in
  List.iter
    (fun criterion ->
      if construct_into ~criterion g ws ws.trial then begin
        (* construction leaves ws.residual = capacity - loads(trial),
           so improvement runs in place with no setup *)
        improve_in_place improve g ws.trial ~residual:ws.residual;
        let c = Gap.cost_of g ws.trial in
        if (not !found) || c < !best_cost then begin
          found := true;
          best_cost := c;
          Array.blit ws.trial 0 ws.out 0 n
        end
      end)
    criteria;
  if !found then Some ws.out else None

let relaxed_fill_into (g : Gap.t) ws assignment =
  (* Place every item greedily by cost among fitting knapsacks; if none
     fits, take the knapsack with maximum residual capacity. *)
  let { Gap.m; n; _ } = g in
  let cost = g.Gap.cost and weight = g.Gap.weight in
  let residual = ws.residual and order = ws.order and key = ws.key in
  Array.blit g.Gap.capacity 0 residual 0 m;
  (* Big items first: standard first-fit-decreasing flavor.  Keys are
     precomputed so the sort does not rescan m weights per
     comparison. *)
  for j = 0 to n - 1 do
    order.(j) <- j;
    let base = j * m in
    let w = ref 0.0 in
    for i = 0 to m - 1 do
      w := Float.max !w weight.(base + i)
    done;
    key.(j) <- !w
  done;
  Array.sort (fun a b -> Float.compare key.(b) key.(a)) order;
  Array.iter
    (fun j ->
      let base = j * m in
      let best = ref (-1) in
      for i = 0 to m - 1 do
        if weight.(base + i) <= residual.(i)
           && (!best = -1 || cost.(base + i) < cost.(base + !best))
        then best := i
      done;
      let i =
        if !best >= 0 then !best
        else begin
          (* nothing fits: overflow the roomiest knapsack *)
          let roomiest = ref 0 in
          for i = 1 to m - 1 do
            if residual.(i) > residual.(!roomiest) then roomiest := i
          done;
          !roomiest
        end
      in
      assignment.(j) <- i;
      residual.(i) <- residual.(i) -. weight.(base + i))
    order

let solve_relaxed ?ws ?criteria ?(improve = `Shift_and_swap) g =
  Gap.verify_domain g;
  let ws = ensure_ws ws g in
  match solve ~ws ?criteria ~improve g with
  | Some a -> a
  | None ->
    relaxed_fill_into g ws ws.out;
    if Gap.feasible g ws.out then begin
      Improve.residual_into g ws.out ws.residual;
      improve_in_place improve g ws.out ~residual:ws.residual
    end;
    ws.out
