module Netlist = Qbpart_netlist.Netlist
module Rng = Qbpart_netlist.Rng
module Topology = Qbpart_topology.Topology
module Assignment = Qbpart_partition.Assignment
module Problem = Qbpart_core.Problem
module Qmatrix = Qbpart_core.Qmatrix
module Repair = Qbpart_core.Repair

let crossover rng ~m p1 p2 =
  let n = Array.length p1 in
  if Array.length p2 <> n then invalid_arg "Operators.crossover: length mismatch";
  let p2 = Diversity.align ~m ~reference:p1 p2 in
  Array.init n (fun j -> if Rng.bool rng then p1.(j) else p2.(j))

let path_relink problem ~source ~target =
  let problem = Problem.normalize problem in
  let m = Problem.m problem in
  let n = Problem.n problem in
  if Array.length source <> n || Array.length target <> n then
    invalid_arg "Operators.path_relink: length mismatch";
  let target = Diversity.align ~m ~reference:source target in
  let a = Array.copy source in
  let diff = ref [] in
  for j = n - 1 downto 0 do
    if a.(j) <> target.(j) then diff := j :: !diff
  done;
  let best = ref None in
  let consider () =
    if Problem.feasible problem a then begin
      let c = Problem.objective problem a in
      match !best with
      | Some (_, c') when c' <= c -> ()
      | _ -> best := Some (Array.copy a, c)
    end
  in
  (* the walk visits |diff| - 1 strict intermediates; the endpoints are
     the parents themselves and stay the pool's business *)
  let steps = List.length !diff - 1 in
  for _ = 1 to steps do
    let pick =
      List.fold_left
        (fun acc j ->
          let d = Problem.delta_objective problem a ~j ~i:target.(j) in
          match acc with
          | Some (d', _) when d' <= d -> acc
          | _ -> Some (d, j))
        None !diff
    in
    match pick with
    | None -> ()
    | Some (_, j) ->
      a.(j) <- target.(j);
      diff := List.filter (fun j' -> j' <> j) !diff;
      consider ()
  done;
  !best

(* Greedy capacity unloading: while some partition is overloaded, move
   the (component, destination) pair with the smallest exact objective
   delta out of the most-overloaded partition into one with room.
   Deterministic: ties break toward the lower delta, then lower
   component id, then lower destination — and the "most overloaded"
   anchor breaks toward the lower partition index. *)
let unload_capacity problem a =
  let nl = problem.Problem.netlist in
  let m = Problem.m problem and n = Problem.n problem in
  let sizes = Netlist.sizes nl in
  let caps = Topology.capacities problem.Problem.topology in
  let loads = Array.make m 0.0 in
  for j = 0 to n - 1 do
    loads.(a.(j)) <- loads.(a.(j)) +. sizes.(j)
  done;
  let overloaded () =
    let worst = ref (-1) and excess = ref 0.0 in
    for i = 0 to m - 1 do
      let e = loads.(i) -. caps.(i) in
      if e > !excess +. 1e-9 then begin
        excess := e;
        worst := i
      end
    done;
    !worst
  in
  let budget = ref (4 * n) in
  let stuck = ref false in
  let rec go () =
    let from = overloaded () in
    if from >= 0 && !budget > 0 && not !stuck then begin
      decr budget;
      let pick = ref None in
      for j = 0 to n - 1 do
        if a.(j) = from then
          for i = 0 to m - 1 do
            if i <> from && loads.(i) +. sizes.(j) <= caps.(i) +. 1e-9 then begin
              let d = Problem.delta_objective problem a ~j ~i in
              match !pick with
              | Some (d', _, _) when d' <= d -> ()
              | _ -> pick := Some (d, j, i)
            end
          done
      done;
      match !pick with
      | None -> stuck := true
      | Some (_, j, i) ->
        loads.(from) <- loads.(from) -. sizes.(j);
        loads.(i) <- loads.(i) +. sizes.(j);
        a.(j) <- i;
        go ()
    end
  in
  go ();
  Problem.capacity_feasible problem a

let repair problem a =
  let problem = Problem.normalize problem in
  let strict = Qmatrix.make ~penalty:1e12 problem in
  let timing_trivial = Qbpart_timing.Constraints.empty problem.Problem.constraints in
  (* one row cache across the attempts: each re-prices only what the
     capacity unload and the previous descent moved *)
  let rows =
    if timing_trivial then None
    else Some (Repair.cache ~m:(Problem.m problem) ~n:(Problem.n problem))
  in
  let feasible () = Problem.feasible problem a in
  let rec attempt k =
    if feasible () then true
    else if k = 0 then false
    else begin
      ignore (unload_capacity problem a);
      if not timing_trivial then ignore (Repair.to_feasible ?cache:rows strict a ~rounds:6);
      (* the timing descent ignores capacity, so the two passes
         alternate until a fixed point or the budget runs dry *)
      attempt (k - 1)
    end
  in
  attempt 4
