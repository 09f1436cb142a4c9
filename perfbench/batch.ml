(* The batch workloads: the Table I suite and synth10k, each instance
   through [Engine.solve] warm-started from its planted reference. *)

open Common
module Circuits = Qbpart_experiments.Circuits
module Synth = Qbpart_experiments.Synth
module Engine = Qbpart_engine.Engine
module Burkard = Qbpart_core.Burkard
module Printer = Qbpart_netlist.Printer
module Parser = Qbpart_netlist.Parser
module Constraints = Qbpart_timing.Constraints

type item = {
  name : string;
  problem : Problem.t;  (** what the engine solves: built from the parsed netlist *)
  audit : Problem.t;  (** what answers are checked against: the generator's own instance *)
  reference : int array;
}

(* Instance generation, then the CLI's path to a problem: the netlist
   is printed and parsed back, and the parsed copy is what gets solved. *)
let load build =
  let inst = Trace.span "experiments.build" build in
  let text = Printer.to_string inst.Circuits.netlist in
  match Trace.span "netlist.parse" (fun () -> Parser.parse_string text) with
  | Error e -> failwith (inst.Circuits.spec.Circuits.name ^ ": " ^ Parser.error_to_string e)
  | Ok nl ->
    {
      name = inst.Circuits.spec.Circuits.name;
      problem =
        Problem.make ~constraints:(Constraints.copy inst.Circuits.constraints) nl
          inst.Circuits.topology;
      audit = Circuits.problem inst;
      reference = inst.Circuits.reference;
    }

let workload ~dir ~seed ~config ~pass_s instances =
  let items = ref [||] in
  let pass ~traced =
    let order = permutation ~seed (Array.length !items) in
    let t = tally () in
    let answers = ref [] in
    let t0 = now () and ticked = !Speed.spent and gc = ref 0.0 in
    Array.iter
      (fun k ->
        Speed.tick ();
        (* every solve starts from a collected heap, as a CLI solve
           starts from a fresh process: the garbage of the solve before
           it, which the seed's order picks, would change its time *)
        let g0 = now () in
        Gc.full_major ();
        gc := !gc +. (now () -. g0);
        let it = !items.(k) in
        let s = now () in
        let r =
          Trace.span "engine.solve" (fun () ->
              Engine.solve ~config ~initial:it.reference it.problem)
        in
        let latency = now () -. s in
        match r with
        | Ok o ->
          Probes.report o.Engine.report;
          answers := (it, latency, o) :: !answers
        | Error e -> fail t ~latency (it.name ^ ": " ^ Engine.Error.to_string e))
      order;
    let wall = now () -. t0 -. (!Speed.spent -. ticked) -. !gc in
    List.iter
      (fun (it, latency, (o : Engine.outcome)) ->
        answer t ~problem:it.audit ~latency ~claimed:o.Engine.cost o.Engine.assignment;
        if traced then begin
          Probes.qbp ~config ~initial:it.reference it.problem;
          probe t (checkpoint_probe ~dir ~tag:it.name ~problem:it.audit o.Engine.assignment o.Engine.cost)
        end)
      (List.rev !answers);
    to_pass t ~wall
  in
  {
    setup = (fun () -> items := Array.of_list (List.map load (instances ())); to_pass (tally ()) ~wall:0.0);
    teardown = (fun () -> ());
    pass;
    repeatable = true;
    obj_passes = 1;
    pass_s;
    threads = 1;
  }

(* The paper's suite with the engine's default configuration.  The
   seven instances are fixed by Table I; [seed] orders them. *)
let table1 ~dir ~seed =
  workload ~dir ~seed ~config:Engine.Config.default ~pass_s:4.7 (fun () ->
      List.map (fun spec () -> Circuits.build spec) Circuits.table1)

let synth10k_iterations = 2

(* One 10 000-component frontier instance, a small fixed Burkard
   iteration budget, one inner job. *)
let synth10k ~dir ~seed =
  let params = Option.get (Synth.find "synth10k") in
  let config =
    {
      Engine.Config.default with
      qbp = { Engine.Config.default.Engine.Config.qbp with Burkard.Config.iterations = synth10k_iterations };
      inner_jobs = 1;
    }
  in
  workload ~dir ~seed ~config ~pass_s:5.3 (fun () -> [ (fun () -> Synth.build params) ])
