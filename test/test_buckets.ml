(* Property tests pinning the gain-bucket kernels to the row-scan
   implementations: same selections, same tie-breaking, bit-identical
   solve results across M = 2, 4, 16. *)

open Qbpart_baselines
module Netlist = Qbpart_netlist.Netlist
module Rng = Qbpart_netlist.Rng
module Generator = Qbpart_netlist.Generator
module Grid = Qbpart_topology.Grid
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Assignment = Qbpart_partition.Assignment
module Initial = Qbpart_partition.Initial
module Check = Qbpart_timing.Check

let check = Alcotest.check

(* rows × cols grids for M = 2, 4, 16 *)
let shape_of_seed seed =
  match seed mod 3 with 0 -> (1, 2) | 1 -> (2, 2) | _ -> (4, 4)

let random_setup seed ~n ~wires ~slack =
  let rng = Rng.create seed in
  let nl = Generator.generate rng (Generator.default_params ~n ~wires) in
  let rows, cols = shape_of_seed seed in
  let m = rows * cols in
  let topo =
    Grid.make ~rows ~cols ~capacity:(Netlist.total_size nl /. float_of_int m *. slack) ()
  in
  (rng, nl, topo)

let feasible_start rng nl topo =
  match Initial.greedy_feasible ~attempts:200 rng nl topo () with
  | Some a -> Some a
  | None -> None

let planted_constraints nl topo reference ~slack =
  let cons = Constraints.create ~n:(Array.length reference) in
  Array.iter
    (fun w ->
      let u = Qbpart_netlist.Wire.u w and v = Qbpart_netlist.Wire.v w in
      Constraints.add_sym cons u v
        (Topology.d topo reference.(u) reference.(v) +. slack))
    (Netlist.wires nl);
  cons

(* ------------------------------------------------------------------ *)
(* Full-solve bit-identity: every observable field must match, not
   just the cost — identical move sequences imply identical pass
   counts, move counts and assignments. *)

let prop_gfm_bit_identical =
  QCheck.Test.make ~name:"GFM buckets == scan (assignment, cost, passes, moves)" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng, nl, topo = random_setup seed ~n:30 ~wires:90 ~slack:1.4 in
      match feasible_start rng nl topo with
      | None -> true
      | Some initial ->
        let m = Topology.m topo in
        let p = Array.init m (fun _ -> Array.init 30 (fun _ -> Rng.float rng 3.0)) in
        let constraints =
          if seed mod 2 = 0 then Some (planted_constraints nl topo initial ~slack:1.0)
          else None
        in
        let solve selection =
          Gfm.solve
            ~config:{ Gfm.default_config with Gfm.selection }
            ~p ?constraints nl topo ~initial
        in
        let scan = solve Gfm.Scan and buckets = solve Gfm.Buckets in
        scan.Gfm.assignment = buckets.Gfm.assignment
        && scan.Gfm.cost = buckets.Gfm.cost
        && scan.Gfm.passes = buckets.Gfm.passes
        && scan.Gfm.moves = buckets.Gfm.moves)

let prop_gkl_bit_identical =
  QCheck.Test.make ~name:"GKL buckets == scan (assignment, cost, loops, swaps)" ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng, nl, topo = random_setup seed ~n:18 ~wires:50 ~slack:1.4 in
      match feasible_start rng nl topo with
      | None -> true
      | Some initial ->
        let constraints =
          if seed mod 2 = 0 then Some (planted_constraints nl topo initial ~slack:1.0)
          else None
        in
        let solve selection =
          Gkl.solve
            ~config:{ Gkl.default_config with Gkl.selection }
            ?constraints nl topo ~initial
        in
        let scan = solve Gkl.Scan and buckets = solve Gkl.Buckets in
        scan.Gkl.assignment = buckets.Gkl.assignment
        && scan.Gkl.cost = buckets.Gkl.cost
        && scan.Gkl.outer_loops = buckets.Gkl.outer_loops
        && scan.Gkl.swaps = buckets.Gkl.swaps)

(* ------------------------------------------------------------------ *)
(* Selection-level identity after arbitrary move/lock interleavings,
   including the exact (delta, j, i) tie-breaking order. *)

let oracle_best_move gains topo buckets =
  let a = Gains.assignment gains in
  let n = Array.length a and m = Gains.m gains in
  let best = ref None in
  for j = 0 to n - 1 do
    if not (Buckets.is_locked buckets j) then
      for i = 0 to m - 1 do
        if i <> a.(j) then begin
          let d = Gains.move_delta gains ~j ~target:i in
          let beats =
            match !best with
            | None -> true
            | Some (bd, bj, bi) -> d < bd || (d = bd && (j < bj || (j = bj && i < bi)))
          in
          if beats && Gains.move_fits gains topo ~j ~target:i then best := Some (d, j, i)
        end
      done
  done;
  Option.map (fun (d, j, i) -> (j, i, d)) !best

let oracle_best_swap ?(legal = fun ~j1:_ ~j2:_ -> true) gains topo buckets =
  let a = Gains.assignment gains in
  let n = Array.length a in
  let best = ref None in
  for j1 = 0 to n - 1 do
    if not (Buckets.is_locked buckets j1) then
      for j2 = j1 + 1 to n - 1 do
        if (not (Buckets.is_locked buckets j2)) && a.(j1) <> a.(j2) then begin
          let d = Gains.swap_delta gains ~j1 ~j2 in
          let beats =
            match !best with
            | None -> true
            | Some (bd, b1, b2) ->
              d < bd || (d = bd && (j1 < b1 || (j1 = b1 && j2 < b2)))
          in
          if beats && Gains.swap_fits gains topo ~j1 ~j2 && legal ~j1 ~j2 then
            best := Some (d, j1, j2)
        end
      done
  done;
  Option.map (fun (d, j1, j2) -> (j1, j2, d)) !best

let selection_testable =
  Alcotest.option (Alcotest.triple Alcotest.int Alcotest.int (Alcotest.float 0.0))

let prop_best_move_matches_oracle =
  QCheck.Test.make ~name:"best_move == lexicographic oracle under moves and locks" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng, nl, topo = random_setup seed ~n:16 ~wires:40 ~slack:2.0 in
      let m = Topology.m topo in
      let a0 = Assignment.random rng ~n:16 ~m in
      let gains = Gains.create nl topo a0 in
      let buckets = Buckets.create ~nbuckets:16 nl topo gains in
      let legal ~j ~target = Gains.move_fits gains topo ~j ~target in
      let ok = ref true in
      for _ = 1 to 12 do
        (match (Buckets.best_move buckets ~legal, oracle_best_move gains topo buckets) with
        | Some (j, i, d), Some (j', i', d') ->
          if not (j = j' && i = i' && d = d') then ok := false
        | None, None -> ()
        | _ -> ok := false);
        (* random mutation: a move, sometimes a lock *)
        let j = Rng.int rng 16 in
        if Rng.int rng 4 = 0 then Buckets.lock buckets j
        else Buckets.apply_move buckets ~j ~target:(Rng.int rng m)
      done;
      !ok)

let prop_best_swap_matches_oracle =
  QCheck.Test.make ~name:"best_swap == lexicographic oracle under swaps and locks" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng, nl, topo = random_setup seed ~n:14 ~wires:35 ~slack:2.0 in
      let m = Topology.m topo in
      let a0 = Assignment.random rng ~n:14 ~m in
      let gains = Gains.create nl topo a0 in
      let buckets = Buckets.create ~nbuckets:16 nl topo gains in
      let legal ~j1 ~j2 = Gains.swap_fits gains topo ~j1 ~j2 in
      let ok = ref true in
      for _ = 1 to 10 do
        (match (Buckets.best_swap buckets ~legal, oracle_best_swap gains topo buckets) with
        | Some (j1, j2, d), Some (j1', j2', d') ->
          if not (j1 = j1' && j2 = j2' && d = d') then ok := false
        | None, None -> ()
        | _ -> ok := false);
        let j1 = Rng.int rng 14 and j2 = Rng.int rng 14 in
        if Rng.int rng 4 = 0 then Buckets.lock buckets j1
        else if (Gains.assignment gains).(j1) <> (Gains.assignment gains).(j2) then
          Buckets.apply_swap buckets ~j1 ~j2
      done;
      !ok)

(* The exchange timing test GKL used before [Check.swap_checker]: two
   [placement_ok] calls, each end at the other's partition with the
   other end already relocated; components at or past [real_n] (GKL's
   dummies) are unconstrained. *)
let placement_swap_ok c topo a ~real_n ~j1 ~j2 =
  let p1 = a.(j1) and p2 = a.(j2) in
  let where_for jm other_at j' =
    if j' = jm then None else if j' = (if jm = j1 then j2 else j1) then Some other_at
    else Some a.(j')
  in
  (j1 >= real_n || Check.placement_ok c topo ~j:j1 ~at:p2 ~where:(where_for j1 p1))
  && (j2 >= real_n || Check.placement_ok c topo ~j:j2 ~at:p1 ~where:(where_for j2 p2))

(* Budgets planted on every wire at the current distance plus a slack
   of 0 or 1 grid step, plus a few on unwired pairs: many exchanges
   break a budget, and the ones between timing partners (wired or not)
   are legal only because both ends move. *)
let tight_constraints rng nl topo a =
  let n = Array.length a in
  let cons = planted_constraints nl topo a ~slack:0.0 in
  Array.iter
    (fun w ->
      let u = Qbpart_netlist.Wire.u w and v = Qbpart_netlist.Wire.v w in
      if Rng.int rng 2 = 0 then
        Constraints.add_sym cons u v (Topology.d topo a.(u) a.(v) +. 1.0))
    (Netlist.wires nl);
  for _ = 1 to n / 2 do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then
      Constraints.add cons u v (Topology.d topo a.(u) a.(v) +. float_of_int (Rng.int rng 2))
  done;
  cons

let prop_swap_checker_matches_placement_ok =
  QCheck.Test.make ~name:"swap_checker == two placement_ok calls, partners and dummies included"
    ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng, nl, topo = random_setup seed ~n:14 ~wires:40 ~slack:2.0 in
      let m = Topology.m topo in
      let a0 = Assignment.random rng ~n:14 ~m in
      let cons = tight_constraints rng nl topo a0 in
      (* two padding ids past the constrained range, as GKL's dummies *)
      let a = Array.append (Assignment.random rng ~n:14 ~m) [| Rng.int rng m; Rng.int rng m |] in
      let legal = Check.swap_checker cons topo ~assignment:a in
      let ok = ref true in
      for j1 = 0 to 15 do
        for j2 = 0 to 15 do
          if j1 <> j2
             && legal ~j1 ~j2 <> placement_swap_ok cons topo a ~real_n:14 ~j1 ~j2
          then ok := false
        done
      done;
      (* the checker reads the live assignment: mutate it and re-check *)
      a.(3) <- (a.(3) + 1) mod m;
      for j2 = 0 to 15 do
        if j2 <> 3 && legal ~j1:3 ~j2 <> placement_swap_ok cons topo a ~real_n:14 ~j1:3 ~j2 then
          ok := false
      done;
      !ok)

let test_swap_checker_allocates_nothing () =
  let rng, nl, topo = random_setup 7 ~n:14 ~wires:40 ~slack:2.0 in
  let m = Topology.m topo in
  let a = Assignment.random rng ~n:14 ~m in
  let cons = tight_constraints rng nl topo a in
  let legal = Check.swap_checker cons topo ~assignment:a in
  let legal_count () =
    let c = ref 0 in
    for j1 = 0 to 13 do
      for j2 = 0 to 13 do
        if j1 <> j2 && legal ~j1 ~j2 then incr c
      done
    done;
    !c
  in
  ignore (legal_count ());
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (legal_count ()));
  let words = Gc.minor_words () -. before in
  (* the two [Gc.minor_words] readings box a float or two themselves *)
  check Alcotest.bool (Printf.sprintf "182 checks allocated %.0f words" words) true (words < 16.0)

let prop_best_swap_matches_oracle_with_timing =
  QCheck.Test.make
    ~name:"best_swap == lexicographic oracle under a timing legal, swaps and locks" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng, nl, topo = random_setup seed ~n:14 ~wires:35 ~slack:1.3 in
      let m = Topology.m topo in
      let a0 = Assignment.random rng ~n:14 ~m in
      let gains = Gains.create nl topo a0 in
      let buckets = Buckets.create ~nbuckets:16 nl topo gains in
      let a = Gains.assignment gains in
      let cons = tight_constraints rng nl topo a in
      let legal = Check.swap_checker cons topo ~assignment:a in
      let oracle_legal ~j1 ~j2 = placement_swap_ok cons topo a ~real_n:14 ~j1 ~j2 in
      let ok = ref true in
      for _ = 1 to 10 do
        (match
           ( Buckets.best_swap buckets ~legal,
             oracle_best_swap ~legal:oracle_legal gains topo buckets )
         with
        | Some (j1, j2, d), Some (j1', j2', d') ->
          if not (j1 = j1' && j2 = j2' && d = d') then ok := false
        | None, None -> ()
        | _ -> ok := false);
        let j1 = Rng.int rng 14 and j2 = Rng.int rng 14 in
        if Rng.int rng 4 = 0 then Buckets.lock buckets j1
        else if a.(j1) <> a.(j2) then Buckets.apply_swap buckets ~j1 ~j2
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Tie-breaking pinned on an all-ties instance: no wires, uniform
   sizes — every move delta is exactly 0.0, so selection order is
   decided purely by the (j, i) tie-break. *)

let test_tie_breaking_all_zero () =
  let b = Netlist.Builder.create () in
  for _ = 1 to 6 do
    ignore (Netlist.Builder.add_component b ~size:1.0 ())
  done;
  let nl = Netlist.Builder.build b in
  let topo = Grid.make ~rows:2 ~cols:2 ~capacity:4.0 () in
  let a0 = [| 0; 1; 2; 3; 0; 1 |] in
  let gains = Gains.create nl topo a0 in
  let buckets = Buckets.create nl topo gains in
  let legal ~j ~target = Gains.move_fits gains topo ~j ~target in
  check selection_testable "first cell in scan order wins all-zero ties"
    (Some (0, 1, 0.0))
    (Buckets.best_move buckets ~legal);
  Buckets.lock buckets 0;
  check selection_testable "next component after lock"
    (Some (1, 0, 0.0))
    (Buckets.best_move buckets ~legal);
  let legal_swap ~j1 ~j2 = Gains.swap_fits gains topo ~j1 ~j2 in
  check selection_testable "lowest pair wins all-zero swap ties"
    (Some (1, 2, 0.0))
    (Buckets.best_swap buckets ~legal:legal_swap)

(* Gains drifting outside the reset-time range must clamp into the end
   buckets without losing candidates: force it by resetting on a
   uniform instance, then distorting the gains with moves. *)
let prop_overflow_clamp_safe =
  QCheck.Test.make ~name:"selections stay exact after gains drift past the fitted range"
    ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng, nl, topo = random_setup seed ~n:12 ~wires:60 ~slack:3.0 in
      let m = Topology.m topo in
      let a0 = Assignment.random rng ~n:12 ~m in
      let gains = Gains.create nl topo a0 in
      (* deliberately tiny bucket count: heavy quantization, heavy
         clamping — correctness must not depend on resolution *)
      let buckets = Buckets.create ~nbuckets:8 nl topo gains in
      let legal ~j ~target = Gains.move_fits gains topo ~j ~target in
      let ok = ref true in
      for _ = 1 to 20 do
        Buckets.apply_move buckets ~j:(Rng.int rng 12) ~target:(Rng.int rng m);
        match (Buckets.best_move buckets ~legal, oracle_best_move gains topo buckets) with
        | Some (j, i, d), Some (j', i', d') ->
          if not (j = j' && i = i' && d = d') then ok := false
        | None, None -> ()
        | _ -> ok := false
      done;
      !ok)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "buckets"
    [
      ( "bit-identity",
        [ q prop_gfm_bit_identical; q prop_gkl_bit_identical ] );
      ( "selection",
        [
          q prop_best_move_matches_oracle;
          q prop_best_swap_matches_oracle;
          q prop_best_swap_matches_oracle_with_timing;
          q prop_swap_checker_matches_placement_ok;
          Alcotest.test_case "swap_checker allocates nothing" `Quick
            test_swap_checker_allocates_nothing;
          q prop_overflow_clamp_safe;
          Alcotest.test_case "tie-breaking, all-zero gains" `Quick test_tie_breaking_all_zero;
        ] );
    ]
