(* Layer probes for traced passes: direct calls into a layer's public
   functions on the workload's own instance, timed from outside. *)

module Burkard = Qbpart_core.Burkard
module Engine = Qbpart_engine.Engine
module Gap = Qbpart_gap.Gap

let now = Common.now

(* The QBP layer as the engine's first round runs it: [Burkard.solve]
   with the engine's QBP configuration, the same warm start and the
   engine's stall rule.  The [observe] hook marks iteration
   boundaries; the [gap_solver] hook wraps the configured
   Martello-Toth solve of STEP 4 and STEP 6. *)
let qbp ~(config : Engine.Config.t) ~initial problem =
  let patience = config.Engine.Config.stall_patience in
  let epsilon = config.Engine.Config.stall_epsilon in
  let best = ref infinity and idle = ref 0 in
  let mark = ref (now ()) in
  let observe (it : Burkard.iteration) =
    let t = now () in
    Trace.record "qbp.iteration" !mark t;
    mark := t;
    Trace.count "qbp.iterations" 1.0;
    if it.Burkard.penalized < !best -. epsilon then begin
      best := it.Burkard.penalized;
      idle := 0;
      Trace.count "qbp.improving" 1.0
    end
    else incr idle
  in
  let should_stop () = patience > 0 && !idle >= patience in
  let gap_solver ~step ~k:_ ~default gap =
    let name = match step with Burkard.Step4 -> "gap.step4" | Burkard.Step6 -> "gap.step6" in
    let a = Trace.span name (fun () -> default gap) in
    Trace.count "gap.calls" 1.0;
    if not (Gap.feasible gap a) then Trace.count "gap.overflow" 1.0;
    a
  in
  Trace.span "qbp.solve" (fun () ->
      mark := now ();
      ignore
        (Burkard.solve ~config:config.Engine.Config.qbp ~initial ~observe ~should_stop ~gap_solver
           problem))

(* Engine report stages as samples, under the layer that ran them. *)
let stage_layer = function
  | "initial" -> "engine.initial"
  | "qbp" | "portfolio" | "evolve" -> "engine.qbp"
  | "gkl" -> "baselines.gkl"
  | "gfm" -> "baselines.gfm"
  | other -> "engine." ^ other

(* [winner], when known, counts the solve towards the QBP win ratio *)
let stages ?winner (stages : (string * float) list) =
  List.iter (fun (name, wall) -> Trace.sample (stage_layer name) wall) stages;
  Option.iter
    (fun w ->
      Trace.count "engine.solves" 1.0;
      if stage_layer w = "engine.qbp" then Trace.count "engine.qbp_wins" 1.0)
    winner

let report (r : Engine.Report.t) =
  stages ~winner:r.Engine.Report.winner
    (List.map (fun (s : Engine.Report.stage) -> (s.Engine.Report.name, s.Engine.Report.wall_seconds))
       r.Engine.Report.stages)
