module Netlist = Qbpart_netlist.Netlist
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Assignment = Qbpart_partition.Assignment

(* Optional move accounting: when [delta]/[dviol] refs are supplied,
   every applied move adds its exact penalized-cost change and
   violation-count change, so callers can maintain a running penalized
   objective without any full recompute.  The cost change is free —
   the candidate row already prices both endpoints of the move — and
   the violation change is O(partners(j)) via
   [Qmatrix.violations_delta]. *)
let track_cost delta d = match delta with Some r -> r := !r +. d | None -> ()
let track_viol dviol d = match dviol with Some r -> r := !r + d | None -> ()

(* Candidate-row cache (DESIGN.md D16).  Invariant: a row not marked
   stale was computed by [Qmatrix.candidate_costs_at] under [bound] with
   every neighbour and partner of its component where [seen] has it. *)
type cache = {
  c_m : int;
  c_n : int;
  rows : float array;  (* row j at j*m *)
  seen : int array;
  stale : Bytes.t;  (* '\001': recompute row j before reading it *)
  mutable bound : Qmatrix.t option;  (* the matrix the rows price *)
}

let cache ~m ~n =
  if m < 0 || n < 0 then invalid_arg "Repair.cache: negative dimension";
  {
    c_m = m;
    c_n = n;
    rows = Array.make (m * n) 0.0;
    seen = Array.make n 0;
    stale = Bytes.make n '\001';
    bound = None;
  }

let mark_moved c q j =
  let problem = Qmatrix.problem q in
  let nl = problem.Problem.netlist in
  let cons = problem.Problem.constraints in
  let stale = c.stale in
  Bytes.set stale j '\001';
  let xadj = Netlist.adj_offsets nl and anbr = Netlist.adj_targets nl in
  for k = xadj.(j) to xadj.(j + 1) - 1 do
    Bytes.set stale anbr.(k) '\001'
  done;
  let poff = Constraints.partner_offsets cons and pids = Constraints.partner_ids cons in
  for k = poff.(j) to poff.(j + 1) - 1 do
    Bytes.set stale pids.(k) '\001'
  done

(* Bring [c] up to date with [u] under [q]: an O(n) diff against the
   assignment the rows reflect, or all rows stale for a matrix the
   cache has not priced (every Burkard solve builds fresh ones). *)
let sync c q u =
  let problem = Qmatrix.problem q in
  let m = Problem.m problem and n = Problem.n problem in
  if m <> c.c_m || n <> c.c_n then
    invalid_arg
      (Printf.sprintf "Repair: cache is %dx%d but problem is %dx%d" c.c_m c.c_n m n);
  match c.bound with
  | Some q' when q' == q ->
    let seen = c.seen in
    for j = 0 to n - 1 do
      let i = u.(j) in
      if i <> seen.(j) then begin
        seen.(j) <- i;
        mark_moved c q j
      end
    done
  | _ ->
    c.bound <- Some q;
    Bytes.fill c.stale 0 n '\001';
    Array.blit u 0 c.seen 0 n

let coordinate_pass ?delta ?dviol ~cache q u ~loads =
  sync cache q u;
  let problem = Qmatrix.problem q in
  let nl = problem.Problem.netlist in
  let topo = problem.Problem.topology in
  let m = Problem.m problem and n = Problem.n problem in
  let rows = cache.rows and stale = cache.stale in
  let moved = ref false in
  for j = 0 to n - 1 do
    let off = j * m in
    if Bytes.get stale j <> '\000' then begin
      Qmatrix.candidate_costs_at q u ~j ~off rows;
      Bytes.set stale j '\000'
    end;
    let from = u.(j) in
    let s = Netlist.size nl j in
    let overfull = loads.(from) > Topology.capacity topo from in
    let best = ref from in
    let best_cost = ref rows.(off + from) in
    for i = 0 to m - 1 do
      if i <> from && loads.(i) +. s <= Topology.capacity topo i then
        if
          rows.(off + i) < !best_cost
          || (overfull && !best = from && rows.(off + i) <= !best_cost +. 1e-9)
        then begin
          best := i;
          best_cost := rows.(off + i)
        end
    done;
    if !best <> from then begin
      track_cost delta (!best_cost -. rows.(off + from));
      track_viol dviol (Qmatrix.violations_delta q u ~j ~i:!best);
      loads.(from) <- loads.(from) -. s;
      loads.(!best) <- loads.(!best) +. s;
      u.(j) <- !best;
      cache.seen.(j) <- !best;
      mark_moved cache q j;
      moved := true
    end
  done;
  !moved

let fresh_cache q =
  let problem = Qmatrix.problem q in
  cache ~m:(Problem.m problem) ~n:(Problem.n problem)

let polish_tracked ?cache q u ~passes =
  let delta = ref 0.0 and dviol = ref 0 in
  if passes > 0 then begin
    let cache = match cache with Some c -> c | None -> fresh_cache q in
    let problem = Qmatrix.problem q in
    let loads = Assignment.loads problem.Problem.netlist ~m:(Problem.m problem) u in
    let k = ref passes in
    while !k > 0 && coordinate_pass ~delta ~dviol ~cache q u ~loads do
      decr k
    done
  end;
  (!delta, !dviol)

let polish ?cache q u ~passes = ignore (polish_tracked ?cache q u ~passes : float * int)

(* Exact local cost of component [j] at its current position: the
   candidate-cost row evaluated at u.(j). *)
let local_cost q u scratch j =
  Qmatrix.candidate_costs_into q u ~j scratch;
  scratch.(u.(j))

(* Cost terms shared by the two endpoints of a pair (they both count
   the direct wire and the mutual timing penalties in their local
   costs, so the joint cost must subtract one copy). *)
let shared_cost q j1 j2 i1 i2 =
  let problem = Qmatrix.problem q in
  let topo = problem.Problem.topology in
  let cons = problem.Problem.constraints in
  let w = Netlist.connection problem.Problem.netlist j1 j2 in
  let wire =
    if w = 0.0 then 0.0
    else if j1 < j2 then w *. Topology.b topo i1 i2
    else w *. Topology.b topo i2 i1
  in
  let pen = Qmatrix.penalty q in
  let timing =
    (if Topology.d topo i1 i2 > Constraints.budget cons j1 j2 then pen else 0.0)
    +. if Topology.d topo i2 i1 > Constraints.budget cons j2 j1 then pen else 0.0
  in
  wire +. timing

let pair_pass ?delta ?dviol q u ~loads ~max_pairs =
  let problem = Qmatrix.problem q in
  let nl = problem.Problem.netlist in
  let topo = problem.Problem.topology in
  let cons = problem.Problem.constraints in
  let m = Problem.m problem in
  let scratch = Array.make m 0.0 in
  let row1 = Array.make m 0.0 and row2 = Array.make m 0.0 in
  (* violated unordered pairs under the current assignment *)
  let seen = Hashtbl.create 64 in
  Constraints.iter cons (fun j1 j2 budget ->
      if Topology.d topo u.(j1) u.(j2) > budget then begin
        let key = if j1 < j2 then (j1, j2) else (j2, j1) in
        if not (Hashtbl.mem seen key) then Hashtbl.replace seen key ()
      end);
  let pairs = Hashtbl.fold (fun k () acc -> k :: acc) seen [] in
  let pairs = List.filteri (fun i _ -> i < max_pairs) pairs in
  let moved = ref false in
  List.iter
    (fun (j1, j2) ->
      let p1 = u.(j1) and p2 = u.(j2) in
      let s1 = Netlist.size nl j1 and s2 = Netlist.size nl j2 in
      let current =
        local_cost q u scratch j1 +. local_cost q u scratch j2 -. shared_cost q j1 j2 p1 p2
      in
      (* free the pair's own space while testing placements *)
      loads.(p1) <- loads.(p1) -. s1;
      loads.(p2) <- loads.(p2) -. s2;
      (* joint(i1,i2) = row1(i1 | j2@i2) + base2(i2), where base2 is
         j2's cost with the j1 contribution removed: row1 already
         contains the shared wire/timing term exactly once. *)
      Qmatrix.candidate_costs_into q u ~j:j2 row2;
      let base2 = Array.init m (fun i2 -> row2.(i2) -. shared_cost q j1 j2 p1 i2) in
      let best = ref (p1, p2) and best_cost = ref current in
      for i2 = 0 to m - 1 do
        u.(j2) <- i2;
        Qmatrix.candidate_costs_into q u ~j:j1 row1;
        for i1 = 0 to m - 1 do
          let fits =
            if i1 = i2 then loads.(i1) +. s1 +. s2 <= Topology.capacity topo i1
            else
              loads.(i1) +. s1 <= Topology.capacity topo i1
              && loads.(i2) +. s2 <= Topology.capacity topo i2
          in
          if fits then begin
            let joint = row1.(i1) +. base2.(i2) in
            if joint < !best_cost -. 1e-9 then begin
              best_cost := joint;
              best := (i1, i2)
            end
          end
        done
      done;
      u.(j2) <- p2;
      let b1, b2 = !best in
      if b1 <> p1 || b2 <> p2 then begin
        track_cost delta (!best_cost -. current);
        (* the pair move decomposes exactly into two sequential single
           moves; each violation delta is evaluated on the intermediate
           state it applies to *)
        track_viol dviol (Qmatrix.violations_delta q u ~j:j1 ~i:b1);
        u.(j1) <- b1;
        track_viol dviol (Qmatrix.violations_delta q u ~j:j2 ~i:b2);
        u.(j2) <- b2;
        moved := true
      end;
      loads.(b1) <- loads.(b1) +. s1;
      loads.(b2) <- loads.(b2) +. s2)
    pairs;
  !moved

let to_feasible ?cache q u ~rounds =
  let cache = match cache with Some c -> c | None -> fresh_cache q in
  let problem = Qmatrix.problem q in
  let nl = problem.Problem.netlist in
  let m = Problem.m problem in
  let loads = Assignment.loads nl ~m u in
  (* one full count up front, then maintained incrementally by the
     passes — the per-round O(constraints) feasibility rescan was a
     hot-loop cost on constraint-heavy circuits *)
  let viol =
    ref
      (Qbpart_timing.Check.count problem.Problem.constraints problem.Problem.topology
         ~assignment:u)
  in
  let round = ref 0 in
  let continue = ref true in
  while !continue && !round < rounds && !viol > 0 do
    incr round;
    let c1 = ref false in
    let k = ref 5 in
    while !k > 0 && coordinate_pass ~dviol:viol ~cache q u ~loads do
      c1 := true;
      decr k
    done;
    let c2 = pair_pass ~dviol:viol q u ~loads ~max_pairs:400 in
    continue := !c1 || c2
  done;
  !viol = 0
