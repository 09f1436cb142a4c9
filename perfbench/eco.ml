(* eco_stream: one client of an in-process qbpartd, in a closed loop,
   opens an ECO session on a Table I circuit, streams seeded single
   deltas into it and closes it, once per pass.  The benchmark keeps
   its own model of the edited instance (netlist through [Delta.apply],
   budgets by component name) and audits every answer against a
   problem built from that model. *)

open Common
module Circuits = Qbpart_experiments.Circuits
module Printer = Qbpart_netlist.Printer
module Parser = Qbpart_netlist.Parser
module Netlist = Qbpart_netlist.Netlist
module Delta = Qbpart_netlist.Delta
module Wire = Qbpart_netlist.Wire
module Component = Qbpart_netlist.Component
module Grid = Qbpart_topology.Grid
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Protocol = Serve.Protocol
module Budgets = Map.Make (struct
  type t = string * string

  let compare = compare
end)

let circuit = "ckta"
let rows = 4
let cols = 4
let slack = 1.15

let submit ~text =
  { (Protocol.default_submit ~netlist:(Protocol.Inline text)) with Protocol.rows; cols; slack }

(* The edited instance as the benchmark sees it. *)
type model = {
  nl : Netlist.t;
  budgets : float Budgets.t;  (** directed (src, dst) budgets by name *)
  asg : int array;  (** the last served incumbent *)
}

let topology nl =
  let capacity = Netlist.total_size nl /. float_of_int (rows * cols) *. slack in
  Grid.make ~rows ~cols ~capacity ()

let problem_of (m : model) =
  let nl = m.nl in
  let cons = Constraints.create ~n:(Netlist.n nl) in
  let id name = Option.get (Netlist.find_by_name nl name) in
  Budgets.iter (fun (s, d) b -> Constraints.add cons (id s) (id d) b) m.budgets;
  Problem.make ~constraints:cons nl (topology nl)

let name nl j = Component.name (Netlist.component nl j)

type kind = Retime | Wire | Unwire | Add | Remove

(* The kinds of one pass's deltas, before the seeded shuffle: most keep
   the dimensions (retime, wire, unwire: the patch path), a minority
   add or remove a component (the Q rebuild path).  Fixed counts per
   pass, so every pass exercises both paths. *)
let pass_kinds =
  List.concat_map
    (fun (k, n) -> List.init n (fun _ -> k))
    [ (Retime, 9); (Wire, 4); (Unwire, 3); (Add, 1); (Remove, 3) ]

(* One seeded delta of [kind] against the model.  A retime tightens
   the budget of a wired pair to its current delay plus 1 or 2, so the
   served incumbent still meets it; a remove takes [victim ()]. *)
let next_delta rng ~fresh ~victim (m : model) kind =
  let nl = m.nl in
  let n = Netlist.n nl in
  let wires = Netlist.wires nl in
  let any () = Random.State.int rng n in
  let other j =
    let k = Random.State.int rng (n - 1) in
    if k >= j then k + 1 else k
  in
  let wire () = wires.(Random.State.int rng (Array.length wires)) in
  match kind with
  | Retime ->
    let w = wire () in
    let s, d = if Random.State.bool rng then (Wire.u w, Wire.v w) else (Wire.v w, Wire.u w) in
    let delay = Topology.d (topology nl) m.asg.(s) m.asg.(d) in
    let budget = delay +. float_of_int (1 + Random.State.int rng 2) in
    [ Delta.Retime { src = name nl s; dst = name nl d; budget } ]
  | Wire ->
    let u = any () in
    let v = other u in
    [ Delta.Add_wire { u = name nl u; v = name nl v; weight = float_of_int (1 + Random.State.int rng 2) } ]
  | Unwire ->
    let w = wire () in
    [ Delta.Remove_wire { u = name nl (Wire.u w); v = name nl (Wire.v w) } ]
  | Add ->
    let c = fresh () in
    let size = Netlist.size nl (any ()) in
    let a = any () in
    let b = other a in
    [
      Delta.Add_component { name = c; size };
      Delta.Add_wire { u = c; v = name nl a; weight = 1.0 };
      Delta.Add_wire { u = c; v = name nl b; weight = 1.0 };
    ]
  | Remove -> [ Delta.Remove_component { name = victim () } ]

(* The model after a delta the daemon accepted. *)
let advance (m : model) ops (applied : Delta.applied) asg =
  let nl = applied.Delta.netlist in
  let alive s = Netlist.find_by_name nl s <> None in
  let budgets = Budgets.filter (fun (s, d) _ -> alive s && alive d) m.budgets in
  let budgets =
    List.fold_left
      (fun acc -> function
        | Delta.Retime { src; dst; budget } ->
          Budgets.update (src, dst)
            (function Some b -> Some (Float.min b budget) | None -> Some budget)
            acc
        | _ -> acc)
      budgets ops
  in
  { nl; budgets; asg }

type state = {
  daemon : Serve.daemon;
  conn : Serve.Client.t;
  store : string;
  spec : Protocol.submit;
  base : Netlist.t;
  by_size : string array;  (** the base components, smallest first *)
  mutable passes : int;
  mutable removes : int;
}

(* Open a session on the base instance from an empty store, so the open
   is a cold solve every time: the served incumbent and the model. *)
let open_session s =
  Array.iter (fun f -> Sys.remove (Filename.concat s.store f)) (Sys.readdir s.store);
  let model = { nl = s.base; budgets = Budgets.empty; asg = [||] } in
  let s0 = now () in
  let r = Serve.call s.conn (Protocol.Session_open s.spec) in
  let latency = now () -. s0 in
  match r with
  | Ok (Protocol.Eco_result v) when v.Protocol.eco_certified && v.Protocol.eco_assignment <> None ->
    let a = Option.get v.Protocol.eco_assignment in
    Probes.stages (List.filter_map Serve.parse_stage v.Protocol.eco_stages);
    Ok (v.Protocol.eco_session, { model with asg = a }, latency, v.Protocol.eco_cost)
  | r -> Error (latency, "session open: " ^ Serve.describe r)

let golden = (sqrt 5.0 -. 1.0) /. 2.0

let workload ~dir ~seed =
  let st = ref None and reps = ref 0 in
  let offset = Random.State.float (Random.State.make [| seed |]) 1.0 in
  let setup () =
    incr reps;
    let t = tally () in
    let spec = List.find (fun s -> s.Circuits.name = circuit) Circuits.table1 in
    let inst = Trace.span "experiments.build" (fun () -> Circuits.build spec) in
    let text = Printer.to_string inst.Circuits.netlist in
    let base =
      match Trace.span "netlist.parse" (fun () -> Parser.parse_string text) with
      | Ok nl -> nl
      | Error e -> failwith (circuit ^ ": " ^ Parser.error_to_string e)
    in
    let dirs = fresh_dir (Filename.concat dir (Printf.sprintf "setup-%d" !reps)) in
    let store = fresh_dir (Filename.concat dirs "store") in
    let daemon =
      Serve.start
        {
          (Serve.Server.default_config ~socket_path:(Filename.concat dirs "d.sock")) with
          Serve.Server.workers = 1;
          checkpoint_dir = store;
          (* one live session at a time: the cache need not keep the
             incumbents of the sessions earlier passes closed *)
          eco_cache = 4;
        }
    in
    let by_size =
      Array.init (Netlist.n base) Fun.id
      |> Array.to_list
      |> List.stable_sort (fun i j -> compare (Netlist.size base i) (Netlist.size base j))
      |> List.map (name base)
      |> Array.of_list
    in
    let s =
      { daemon; conn = Serve.connect daemon; store; spec = submit ~text; base; by_size; passes = 0; removes = 0 }
    in
    st := Some s;
    (* the set-up's own open: the daemon and the session warm up *)
    (match open_session s with
    | Ok (sid, m, _, cost) ->
      untimed t ~problem:(problem_of m) ~claimed:cost m.asg;
      ignore (Serve.call s.conn (Protocol.Session_close sid))
    | Error (_, e) -> failwith e);
    to_pass t ~wall:0.0
  in
  let teardown () =
    Option.iter
      (fun s ->
        Serve.Client.close s.conn;
        Serve.stop s.daemon)
      !st;
    st := None
  in
  (* One pass: a fresh session, then a seeded stream of deltas.  The
     open, a cold solve through the daemon, is the pass's solve_s
     sample.  The open and every delta are answers the client waits
     for: each is a latency sample, and the open and the stream
     together are the base of throughput. *)
  let pass ~traced =
    let s = Option.get !st in
    s.passes <- s.passes + 1;
    let t = tally () in
    (* every open is the same cold solve (one fixed engine seed), so
       every stream starts from the same incumbent; the workload seed
       draws the deltas.  A failed open is the pass's answering time;
       the run stops after it. *)
    match open_session s with
    | Error (opened, e) ->
      fail t ~latency:opened e;
      to_pass t ~wall:opened
    | Ok (sid, m0, opened, cost) ->
      answer t ~problem:(problem_of m0) ~latency:opened ~claimed:cost m0.asg;
      let rng = Random.State.make [| seed; s.passes |] in
      let model = ref m0 and served = ref [] in
      let added = ref 0 in
      let fresh () =
        incr added;
        Printf.sprintf "eco%d" !added
      in
      (* Which component a remove takes decides, more than anything
         else, whether it falls back cold (large ones do), so removes
         walk the base components by size along a Weyl sequence from a
         seeded offset: every run removes the same spread of sizes,
         and the seed picks the components.  A component this pass
         already removed is skipped for the next larger one. *)
      let victim () =
        let n = Array.length s.by_size in
        let at = Float.rem (offset +. (float_of_int s.removes *. golden)) 1.0 in
        s.removes <- s.removes + 1;
        let rec live i =
          let c = s.by_size.(i mod n) in
          if Netlist.find_by_name !model.nl c <> None then c else live (i + 1)
        in
        live (int_of_float (at *. float_of_int n))
      in
      let kinds = Array.of_list pass_kinds in
      let order = permutation ~seed:(Random.State.bits rng) (Array.length kinds) in

      let t0 = now () in
      (try
         for seq = 1 to Array.length kinds do
           let kind = kinds.(order.(seq - 1)) in
           let rebuild = kind = Add || kind = Remove in
           let ops = next_delta rng ~fresh ~victim !model kind in
           let req = Protocol.Eco_submit { session = sid; seq; delta = Delta.to_string ops; force_cold = false } in
           let q0 = now () in
           let r = Serve.call s.conn req in
           let latency = now () -. q0 in
           match (r, Trace.span "netlist.delta_apply" (fun () -> Delta.apply !model.nl ops)) with
           | _, Error e -> failwith ("generated delta rejected locally: " ^ Delta.error_to_string e)
           | Ok (Protocol.Eco_result v), Ok applied
             when v.Protocol.eco_seq = seq && v.Protocol.eco_certified && v.Protocol.eco_assignment <> None
             ->
             model := advance !model ops applied (Option.get v.Protocol.eco_assignment);
             served := (!model, latency, rebuild, v) :: !served
           | r, Ok _ -> failwith (Printf.sprintf "delta %d: %s" seq (Serve.describe r))
         done
       with Failure why -> fail t ~latency:(now () -. t0) why);
      let busy = now () -. t0 in
      ignore (Serve.call s.conn (Protocol.Session_close sid));
      List.iter
        (fun (m, latency, rebuild, (v : Protocol.eco_view)) ->
          answer t ~problem:(problem_of m) ~latency ~claimed:v.Protocol.eco_cost (Option.get v.Protocol.eco_assignment);
          Trace.count "session.deltas" 1.0;
          Trace.sample "server.job_wall" v.Protocol.eco_wall;
          Trace.sample "server.overhead" (latency -. v.Protocol.eco_wall);
          if v.Protocol.served = "warm" then begin
            Trace.count "session.warm" 1.0;
            Trace.sample (if rebuild then "session.rebuild" else "session.patch") v.Protocol.eco_wall
          end
          else Trace.count "session.cold_fallbacks" 1.0)
        (List.rev !served);
      if traced then begin
        let m = !model in
        let problem = problem_of m in
        probe t (checkpoint_probe ~dir ~tag:"session" ~problem m.asg (Problem.objective problem m.asg))
      end;
      to_pass t ~wall:opened ~busy:(opened +. busy)
  in
  { setup; teardown; pass; repeatable = false; obj_passes = 5; pass_s = 0.9; threads = 2 }
