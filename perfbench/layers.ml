(* Per-layer metrics of a traced run, computed from the spans, samples
   and counters in {!Trace}.  Times are medians across groups (a
   set-up repetition or a traced pass) of the per-group total, or
   medians per call where the name says p50; counts and ratios come
   from the first traced pass, whose inputs are fixed by the seed. *)

type row = { name : string; unit : string; value : float; moves : string }

let median_or_zero = function [] -> 0.0 | l -> Stats.median l
let ratio a b = if b = 0.0 then 0.0 else a /. b

let rows ~first ~traced_walls ~untraced_walls =
  let p50 name = median_or_zero (Trace.values name) in
  let sums name = Trace.sums_by_group name in
  let per_group name = median_or_zero (List.map snd (sums name)) in
  let count name = Trace.count_in ~group:first name in
  let traced = List.map fst traced_walls in
  (* median over traced passes of [f g] *)
  let over_passes f = median_or_zero (List.map f traced) in
  let in_group name g = Option.value ~default:0.0 (List.assoc_opt g (sums name)) in
  let gap g = in_group "gap.step4" g +. in_group "gap.step6" g in
  let stage_names = [ "engine.initial"; "engine.qbp"; "baselines.gkl"; "baselines.gfm" ] in
  let row name unit moves value = { name; unit; value; moves } in
  [
    row "experiments.build_s" "s" "setup_s (all)" (per_group "experiments.build");
    row "netlist.parse_s" "s" "setup_s (all); latency_p50_s (daemon_jobs)" (per_group "netlist.parse");
    row "netlist.delta_apply_s" "s" "latency_p50_s (eco_stream)" (p50 "netlist.delta_apply");
    row "qbp.iterations" "count" "solve_s (table1, synth10k)" (count "qbp.iterations");
    row "qbp.iter_p50_s" "s" "solve_s (table1, synth10k)" (p50 "qbp.iteration");
    row "qbp.self_s" "s" "solve_s (table1, synth10k)"
      (over_passes (fun g -> in_group "qbp.iteration" g -. gap g));
    row "qbp.improving_ratio" "ratio" "solve_s, certified_obj (table1, synth10k)"
      (ratio (count "qbp.improving") (count "qbp.iterations"));
    row "qbp.certify_s" "s" "solve_s (synth10k); latency_p50_s (eco_stream)" (p50 "qbp.certify");
    row "gap.calls" "count" "solve_s (synth10k)" (count "gap.calls");
    row "gap.step4_s" "s" "solve_s (synth10k)" (per_group "gap.step4");
    row "gap.step6_s" "s" "solve_s (synth10k)" (per_group "gap.step6");
    row "gap.share" "ratio" "solve_s (synth10k)"
      (over_passes (fun g -> ratio (gap g) (in_group "qbp.solve" g)));
    row "gap.overflow_ratio" "ratio" "solve_s (synth10k)" (ratio (count "gap.overflow") (count "gap.calls"));
    row "engine.initial_s" "s" "solve_s (table1)" (per_group "engine.initial");
    row "engine.qbp_s" "s" "solve_s, certified_obj (table1)" (per_group "engine.qbp");
    row "baselines.gkl_s" "s" "solve_s, certified_obj (table1)" (per_group "baselines.gkl");
    row "baselines.gfm_s" "s" "solve_s, certified_obj (table1)" (per_group "baselines.gfm");
    row "engine.qbp_win_ratio" "ratio" "certified_obj (table1)"
      (ratio (count "engine.qbp_wins") (count "engine.solves"));
    row "engine.stage_sum_ratio" "ratio" "checks stage walls add up to solve_s"
      (over_passes (fun g ->
           ratio
             (List.fold_left (fun acc n -> acc +. in_group n g) 0.0 stage_names)
             (List.assoc g traced_walls)));
    row "checkpoint.write_s" "s" "latency_p50_s (daemon_jobs); setup_s, solve_s (synth10k)"
      (p50 "checkpoint.write");
    row "checkpoint.load_s" "s" "latency_p50_s (daemon_jobs); setup_s, solve_s (synth10k)"
      (p50 "checkpoint.load");
    row "checkpoint.bytes" "bytes" "latency_p50_s (daemon_jobs)" (count "checkpoint.bytes");
    row "server.queue_wait_p50_s" "s" "latency_p50_s, latency_tail_s (daemon_jobs)" (p50 "server.queue_wait");
    row "server.job_wall_p50_s" "s" "latency_p50_s, throughput_per_s (daemon_jobs)" (p50 "server.job_wall");
    row "server.overhead_p50_s" "s" "latency_p50_s, latency_tail_s (daemon_jobs)" (p50 "server.overhead");
    row "server.frame_bytes" "bytes" "latency_p50_s, throughput_per_s (daemon_jobs)" (count "server.frame_bytes");
    row "session.patch_p50_s" "s" "latency_p50_s, latency_tail_s (eco_stream)" (p50 "session.patch");
    row "session.rebuild_p50_s" "s" "latency_p50_s, latency_tail_s (eco_stream)" (p50 "session.rebuild");
    row "session.warm_ratio" "ratio" "latency_p50_s, latency_tail_s (eco_stream)"
      (ratio (count "session.warm") (count "session.deltas"));
    row "session.cold_fallbacks" "count" "latency_tail_s (eco_stream)" (count "session.cold_fallbacks");
    row "trace.overhead_ratio" "ratio" "traced / untraced solve_s - 1"
      (ratio (median_or_zero (List.map snd traced_walls)) (median_or_zero untraced_walls) -. 1.0);
  ]

(* the counts that must repeat exactly for a given seed *)
let repeatable = [ "qbp.iterations"; "gap.calls"; "checkpoint.bytes"; "session.warm_ratio" ]
