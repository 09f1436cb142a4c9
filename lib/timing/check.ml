module Topology = Qbpart_topology.Topology

type violation = { j1 : int; j2 : int; delay : float; budget : float }

let violations c topo ~assignment =
  Constraints.fold c ~init:[] ~f:(fun acc j1 j2 budget ->
      let delay = Topology.d topo assignment.(j1) assignment.(j2) in
      if delay > budget then { j1; j2; delay; budget } :: acc else acc)
  |> List.rev

let count c topo ~assignment =
  Constraints.fold c ~init:0 ~f:(fun acc j1 j2 budget ->
      if Topology.d topo assignment.(j1) assignment.(j2) > budget then acc + 1 else acc)

let feasible c topo ~assignment = count c topo ~assignment = 0

let worst_slack c topo ~assignment =
  Constraints.fold c ~init:infinity ~f:(fun acc j1 j2 budget ->
      Float.min acc (budget -. Topology.d topo assignment.(j1) assignment.(j2)))

let placement_ok c topo ~j ~at ~where =
  let poff = Constraints.partner_offsets c in
  let pids = Constraints.partner_ids c in
  let pbout = Constraints.partner_budget_out c in
  let pbin = Constraints.partner_budget_in c in
  let ok = ref true in
  let k = ref poff.(j) in
  let hi = poff.(j + 1) in
  while !ok && !k < hi do
    (match where pids.(!k) with
    | None -> ()
    | Some at' ->
      if Topology.d topo at at' > pbout.(!k) then ok := false
      else if Topology.d topo at' at > pbin.(!k) then ok := false);
    incr k
  done;
  !ok

let swap_checker c topo ~assignment =
  let n = Constraints.n c in
  let poff = Constraints.partner_offsets c in
  let pids = Constraints.partner_ids c in
  let pbout = Constraints.partner_budget_out c in
  let pbin = Constraints.partner_budget_in c in
  (* a private copy: reading it is an unboxed load, where a
     [Topology.d] call returns a boxed float *)
  let delay = Topology.d_matrix topo in
  (* one end of the exchange: [j] at [at], its exchange partner
     [other] at [other_at], every other partner where [assignment]
     has it *)
  let end_ok j at other other_at =
    let ok = ref true in
    let k = ref poff.(j) in
    let hi = poff.(j + 1) in
    while !ok && !k < hi do
      let j' = pids.(!k) in
      let at' = if j' = other then other_at else assignment.(j') in
      if delay.(at).(at') > pbout.(!k) || delay.(at').(at) > pbin.(!k) then ok := false;
      incr k
    done;
    !ok
  in
  fun ~j1 ~j2 ->
    let p1 = assignment.(j1) and p2 = assignment.(j2) in
    (j1 >= n || end_ok j1 p2 j2 p1) && (j2 >= n || end_ok j2 p1 j1 p2)
