(* daemon_jobs: an in-process qbpartd with two worker domains, a
   checkpoint directory and a replicated checkpoint store.  Two client
   connections, in a closed loop, submit inline Table I netlists and
   wait for the certified answer, with the population search on. *)

open Common
module Circuits = Qbpart_experiments.Circuits
module Printer = Qbpart_netlist.Printer
module Parser = Qbpart_netlist.Parser
module Netlist = Qbpart_netlist.Netlist
module Grid = Qbpart_topology.Grid
module Protocol = Serve.Protocol

let rows = 4
let cols = 4
let slack = 1.08
let clients = 2
let jobs_per_circuit = 2
let poll = 0.01

(* The paper's 4x4 grid and capacity slack, capacity only (the Table II
   setting): a cold submit carries no warm start, and the planted
   Table I budgets admit no cold feasible start on this grid. *)
let submit ~text ~seed =
  {
    (Protocol.default_submit ~netlist:(Protocol.Inline text)) with
    Protocol.rows;
    cols;
    slack;
    iterations = 10;
    seed;
    starts = 4;
    evolve = true;
    generations = 2;
  }

(* the benchmark's own problem for a netlist, built as the daemon
   documents it builds one *)
let problem_of nl =
  let capacity = Netlist.total_size nl /. float_of_int (rows * cols) *. slack in
  Problem.make nl (Grid.make ~rows ~cols ~capacity ())

type circuit = { name : string; text : string; audit : Problem.t }

type state = {
  circuits : circuit array;
  daemon : Serve.daemon;
  conns : Serve.Client.t array;
  store : string;
}

let workload ~dir ~seed =
  let st = ref None and reps = ref 0 in
  let setup () =
    incr reps;
    let circuits =
      Array.of_list
        (List.map
           (fun spec ->
             let inst = Trace.span "experiments.build" (fun () -> Circuits.build spec) in
             let nl = inst.Circuits.netlist in
             { name = spec.Circuits.name; text = Printer.to_string nl; audit = problem_of nl })
           Circuits.table1)
    in
    let base = fresh_dir (Filename.concat dir (Printf.sprintf "setup-%d" !reps)) in
    let store = fresh_dir (Filename.concat base "store") in
    let config =
      {
        (Serve.Server.default_config ~socket_path:(Filename.concat base "d.sock")) with
        Serve.Server.workers = 2;
        max_queue = 64;
        checkpoint_dir = fresh_dir (Filename.concat base "ckpt");
        replicate_dir = Some store;
      }
    in
    let daemon = Serve.start config in
    st := Some { circuits; daemon; conns = Array.init clients (fun _ -> Serve.connect daemon); store };
    to_pass (tally ()) ~wall:0.0
  in
  let teardown () =
    Option.iter
      (fun s ->
        Array.iter Serve.Client.close s.conns;
        Serve.stop s.daemon)
      !st;
    st := None
  in
  let order = permutation ~seed (List.length Circuits.table1) in
  (* the fixed job list of one pass: every circuit [jobs_per_circuit]
     times, in seeded order, each with its own engine seed *)
  let jobs =
    Array.init (jobs_per_circuit * Array.length order) (fun k ->
        (order.(k mod Array.length order), (seed * 1000) + k))
  in
  let pass ~traced =
    let s = Option.get !st in
    (* a fresh store, so no job resumes from an earlier pass's
       checkpoints *)
    Array.iter (fun f -> Sys.remove (Filename.concat s.store f)) (Sys.readdir s.store);
    let t = tally () in
    let next = Atomic.make 0 in
    let views = Array.make (Array.length jobs) None in
    let run_client c =
      let rec loop () =
        let k = Atomic.fetch_and_add next 1 in
        if k < Array.length jobs then begin
          let ci, jseed = jobs.(k) in
          let spec = submit ~text:s.circuits.(ci).text ~seed:jseed in
          let t0 = now () in
          let rec wait job =
            match Serve.call c (Protocol.Status job) with
            | Ok (Protocol.Job v)
              when v.Protocol.state = Protocol.Queued || v.Protocol.state = Protocol.Running ->
              Thread.delay poll;
              wait job
            | Ok (Protocol.Job v) -> Ok v
            | r -> Error (Serve.describe r)
          in
          let r =
            match Serve.call c (Protocol.Submit spec) with
            | Ok (Protocol.Submitted { job; _ }) -> wait job
            | r -> Error (Serve.describe r)
          in
          views.(k) <- Some (now () -. t0, r);
          loop ()
        end
      in
      loop ()
    in
    let t0 = now () in
    let threads = Array.map (fun c -> Thread.create run_client c) s.conns in
    Array.iter Thread.join threads;
    let wall = now () -. t0 in
    Array.iteri
      (fun k v ->
        let ci, jseed = jobs.(k) in
        let c = s.circuits.(ci) in
        let tag = Printf.sprintf "%s seed %d" c.name jseed in
        match v with
        | None -> fail t ~latency:wall (tag ^ ": no answer")
        | Some (latency, Error e) -> fail t ~latency (tag ^ ": " ^ e)
        | Some (latency, Ok (v : Protocol.job_view)) -> (
          match (v.Protocol.state, v.Protocol.certified, v.Protocol.cost, v.Protocol.assignment) with
          | Protocol.Done, Some true, Some cost, Some a ->
            answer t ~problem:c.audit ~latency ~claimed:cost a;
            if traced then begin
              Trace.sample "server.queue_wait" v.Protocol.queued_seconds;
              Trace.sample "server.job_wall" v.Protocol.wall_seconds;
              Trace.sample "server.overhead"
                (latency -. v.Protocol.queued_seconds -. v.Protocol.wall_seconds);
              let stages = List.filter_map Serve.parse_stage v.Protocol.stages in
              Probes.stages ?winner:v.Protocol.winner stages;
              ignore (Trace.span "netlist.parse" (fun () -> Parser.parse_string c.text));
              probe t (checkpoint_probe ~dir ~tag:(Printf.sprintf "job-%d" k) ~problem:c.audit a cost)
            end
          | _ ->
            fail t ~latency
              (Printf.sprintf "%s: job %s ended %s%s" tag v.Protocol.id
                 (Protocol.job_state_to_string v.Protocol.state)
                 (match v.Protocol.error with Some e -> " (" ^ e ^ ")" | None -> " uncertified"))))
      views;
    to_pass t ~wall
  in
  { setup; teardown; pass; repeatable = true; obj_passes = 1; pass_s = 3.3; threads = 2 }
