(* Time-to-certified benchmark for qbpart.

   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--setups K]

   Sets the workload up K times (the median is setup_s), then runs a
   fixed number of whole passes, S / the workload's nominal pass time,
   so that every run of a workload has the same samples and the same
   tail percentile.  Every answer is
   audited independently.  Untraced (--trace 0), the last line of
   standard output is a JSON object with the end-to-end metrics;
   traced (--trace 1), untraced and traced passes alternate, spans are
   written to .perfbench/trace-NAME-SEED.jsonl and the JSON carries the
   per-layer metrics.  The exit code is 1 when any answer was wrong. *)

open Common

let workloads = [ "table1"; "synth10k"; "eco_stream"; "daemon_jobs" ]

let make name ~dir ~seed =
  match name with
  | "table1" -> Batch.table1 ~dir ~seed
  | "synth10k" -> Batch.synth10k ~dir ~seed
  | "eco_stream" -> Eco.workload ~dir ~seed
  | "daemon_jobs" -> Daemon.workload ~dir ~seed
  | _ -> invalid_arg name

type measured = { index : int; traced : bool; p : pass }

let run ~name ~seed ~seconds ~traced ~setups =
  if not (Sys.file_exists ".perfbench") then Unix.mkdir ".perfbench" 0o700;
  let dir = fresh_dir (Printf.sprintf ".perfbench/work-%d" (Unix.getpid ())) in
  let w = make name ~dir ~seed in
  Speed.width := w.threads;
  Trace.set_enabled traced;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      w.teardown ();
      remove_tree dir)
  @@ fun () ->
  let setup_runs =
    List.init setups (fun r ->
        if r > 0 then w.teardown ();
        Speed.slice ();
        Trace.set_group (-(r + 1));
        let t0 = now () in
        let p = w.setup () in
        (now () -. t0, p))
  in
  (* Once a pass has failed the run is incorrect, and on a host so slow
     that the passes take 2.5 times their nominal time the run is cut
     short: either way it stops as soon as it has the fewest passes a
     report needs. *)
  let least = max w.obj_passes (if traced then 2 else 1) in
  let passes = max least (int_of_float (Float.ceil (seconds /. w.pass_s))) in
  let deadline = now () +. (2.5 *. seconds) in
  let rec loop index failed acc =
    let traced_pass = traced && index mod 2 = 1 in
    Trace.set_enabled traced_pass;
    Trace.set_group index;
    Speed.tick ();
    let p = w.pass ~traced:traced_pass in
    let acc = { index; traced = traced_pass; p } :: acc in
    let failed = failed || p.failed > 0 in
    if (index + 1 >= passes || failed || now () > deadline) && index + 1 >= least then List.rev acc
    else loop (index + 1) failed acc
  in
  let passes = loop 0 false [] in
  Speed.slice ();
  (setup_runs, passes, w)

let () =
  let name = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 and setups = ref 3 in
  Arg.parse
    [
      ("--workload", Arg.Set_string name, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1 for the traced per-layer run");
      ("--setups", Arg.Set_int setups, " set-up repetitions (median reported)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !name workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !name);
    exit 2
  end;
  let traced = !trace = 1 in
  let setup_runs, passes, w =
    run ~name:!name ~seed:!seed ~seconds:!seconds ~traced ~setups:(max 1 !setups)
  in
  let all = List.map snd setup_runs @ List.map (fun m -> m.p) passes in
  let attempted = List.fold_left (fun a p -> a + p.attempted) 0 all in
  let failed = List.fold_left (fun a p -> a + p.failed) 0 all in
  let notes = List.concat_map (fun p -> p.notes) all in
  (* identical inputs must give identical answers *)
  let first = (List.hd passes).p in
  let drifted =
    if not w.repeatable then []
    else
      List.filter_map
        (fun m ->
          if Float.abs (m.p.obj -. first.obj) > 1e-9 *. Float.abs first.obj then
            Some (Printf.sprintf "pass %d objective %.17g differs from pass 0's %.17g" m.index m.p.obj first.obj)
          else None)
        passes
  in
  let failed = failed + List.length drifted and notes = notes @ drifted in
  let plain = List.filter (fun m -> not m.traced) passes in
  let walls = List.map (fun m -> m.p.wall) plain in
  let lat = List.concat_map (fun m -> m.p.latencies) plain in
  let answered = List.fold_left (fun a m -> a + m.p.answered) 0 plain in
  let busy = Stats.sum (List.map (fun m -> m.p.busy) plain) in
  let tail_p, tail = Stats.tail lat in
  let obj = Stats.sum (List.filteri (fun i _ -> i < w.obj_passes) (List.map (fun m -> m.p.obj) passes)) in
  (* as measured, then times at reference host speed (see Speed) *)
  let raw =
    [
      ("setup_s", "s", Stats.median (List.map fst setup_runs));
      ("solve_s", "s", Stats.median walls);
      ("latency_p50_s", "s", Stats.median lat);
      ("latency_tail_s", "s", tail);
      ("throughput_per_s", "1/s", float_of_int answered /. busy);
      ("certified_obj", "wirelength", obj);
      ("peak_rss_mb", "MiB", peak_rss_mb ());
    ]
  in
  let speed = Speed.factor () in
  let e2e =
    List.map
      (fun (n, u, v) ->
        match u with "s" -> (n, u, v *. speed) | "1/s" -> (n, u, v /. speed) | _ -> (n, u, v))
      raw
  in
  let failed_ratio = float_of_int failed /. float_of_int (max 1 attempted) in
  Printf.printf "workload %s  seed %d  %d set-ups  %d passes (%d untraced)\n" !name !seed
    (List.length setup_runs) (List.length passes) (List.length plain);
  Printf.printf "pass walls:%s\n"
    (String.concat "" (List.map (fun m -> Printf.sprintf " %.3f%s" m.p.wall (if m.traced then "t" else "")) passes));
  Printf.printf "host kernel: median %.4f s of %d, reference %.4f s, speed factor %.4f\n" (Speed.kernel_s ())
    (List.length !Speed.samples) (Speed.reference_s ()) speed;
  Printf.printf "\nend to end (untraced passes)   %14s %-10s %14s\n" "at ref. speed" "" "as measured";
  List.iter2
    (fun (n, u, v) (_, _, r) ->
      let extra =
        if n = "latency_tail_s" then
          Printf.sprintf "   p%.1f of %d samples" tail_p (List.length lat)
        else ""
      in
      Printf.printf "  %-18s %14.6f %-10s %14.6f%s\n" n v u r extra)
    e2e raw;
  Printf.printf "  %-18s %14.6f %-10s  %d failed of %d attempted\n" "failed_ratio" failed_ratio "ratio"
    failed attempted;
  List.iter (fun n -> Printf.printf "  FAILED: %s\n" n) notes;
  let metrics =
    if not traced then e2e
    else begin
      let traced_walls = List.filter_map (fun m -> if m.traced then Some (m.index, m.p.wall) else None) passes in
      let first_traced = fst (List.hd traced_walls) in
      let rows = Layers.rows ~first:first_traced ~traced_walls ~untraced_walls:walls in
      let out = Printf.sprintf ".perfbench/trace-%s-%d.jsonl" !name !seed in
      Trace.write_jsonl out;
      Printf.printf "\nper layer (traced passes; %d spans written to %s)\n" (Trace.span_count ()) out;
      Printf.printf "  %-24s %14s %-6s  %s\n" "metric" "value" "unit" "should move";
      List.iter
        (fun (r : Layers.row) ->
          Printf.printf "  %-24s %14.6f %-6s  %s\n" r.Layers.name r.Layers.value r.Layers.unit r.Layers.moves)
        rows;
      Printf.printf "COUNTS {%s}\n"
        (String.concat ", "
           (List.map
              (fun n -> Printf.sprintf "%S: %.17g" n (List.find (fun (r : Layers.row) -> r.Layers.name = n) rows).Layers.value)
              Layers.repeatable
           @ [ Printf.sprintf "\"certified_obj\": %.17g" obj ]));
      List.map (fun (r : Layers.row) -> (r.Layers.name, r.Layers.unit, r.Layers.value)) rows
    end
  in
  let bad = List.filter (fun (_, _, v) -> not (Float.is_finite v)) metrics in
  List.iter (fun (n, _, _) -> Printf.eprintf "perfbench: metric %s is not finite\n" n) bad;
  let correct = failed = 0 && bad = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    (max 1 attempted) failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" n (if Float.is_finite v then v else 0.0) u)
          metrics));
  exit (if correct then 0 else 1)
