(* What every workload shares: the outcome of one measured pass, the
   independent answer audit, the checkpoint probe, the workload
   interface and the work directory. *)

module Problem = Qbpart_core.Problem
module Certify = Qbpart_core.Certify
module Validate = Qbpart_partition.Validate
module Checkpoint = Qbpart_engine.Checkpoint

let now = Unix.gettimeofday

(* One pass is a fixed, seeded unit of work.  [wall] is its solve_s
   sample; [busy] is the time its timed answers took, the base of
   throughput (the same as [wall] except on eco_stream, where the solve
   is the session open and the answers are the open and the deltas).
   Neither counts the host-speed kernel (see {!Speed}).  Traced passes
   run their layer probes afterwards, outside both. *)
type pass = {
  wall : float;
  busy : float;
  answered : int;  (* timed answers that passed the audit *)
  latencies : float list;  (* one per timed answer attempted *)
  attempted : int;
  failed : int;
  obj : float;  (* sum of the certified objectives *)
  notes : string list;  (* one line per failure *)
}

(* Mutable accumulator a pass fills in as answers come back. *)
type tally = {
  mutable lat : float list;
  mutable ok : int;
  mutable att : int;
  mutable bad : int;
  mutable sum : float;
  mutable why : string list;
}

let tally () = { lat = []; ok = 0; att = 0; bad = 0; sum = 0.0; why = [] }
let tally_mu = Mutex.create ()

let locked f =
  Mutex.lock tally_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock tally_mu) f

let fail t ~latency why =
  locked (fun () ->
      t.att <- t.att + 1;
      t.bad <- t.bad + 1;
      t.lat <- latency :: t.lat;
      t.why <- why :: t.why)

let succeed t ~latency obj =
  locked (fun () ->
      t.att <- t.att + 1;
      t.ok <- t.ok + 1;
      t.lat <- latency :: t.lat;
      t.sum <- t.sum +. obj)

let to_pass ?busy t ~wall =
  {
    wall;
    busy = Option.value ~default:wall busy;
    answered = t.ok;
    latencies = List.rev t.lat;
    attempted = t.att;
    failed = t.bad;
    obj = t.sum;
    notes = List.rev t.why;
  }

(* Re-check a returned answer from scratch against a problem the
   benchmark built itself: the certifier's full recompute (C1, C2, C3,
   Theorem 2, drift against the claimed cost) and then the validator.
   [Ok objective] only when both agree the answer is feasible. *)
let audit ~problem ~claimed (a : int array) =
  if Array.length a <> Problem.n problem then
    Error (Printf.sprintf "assignment has %d entries, instance has %d" (Array.length a) (Problem.n problem))
  else
    let cert = Trace.span "qbp.certify" (fun () -> Certify.check ~claimed problem a) in
    if not (Certify.ok cert) then Error (Format.asprintf "%a" Certify.pp cert)
    else
      match
        Validate.check ~constraints:problem.Problem.constraints problem.Problem.netlist
          problem.Problem.topology a
      with
      | [] -> Ok cert.Certify.objective
      | issue :: _ -> Error (Format.asprintf "validator: %a" Validate.pp_issue issue)

(* Record an answer on the tally: audited, latency kept either way. *)
let answer t ~problem ~latency ~claimed a =
  match audit ~problem ~claimed a with
  | Ok obj -> succeed t ~latency obj
  | Error e -> fail t ~latency e

(* A probe's own check (a checkpoint round trip): attempted, and failed
   when it went wrong, but not an answer with a latency. *)
let probe t = function
  | Ok () -> locked (fun () -> t.att <- t.att + 1)
  | Error why ->
    locked (fun () ->
        t.att <- t.att + 1;
        t.bad <- t.bad + 1;
        t.why <- why :: t.why)

(* an answer that is checked but not timed (an ECO session open) *)
let untimed t ~problem ~claimed a = probe t (Result.map ignore (audit ~problem ~claimed a))

(* --- checkpoint probe ---------------------------------------------- *)

(* Write the final answer as a checkpoint and read it back, timing
   both; the round trip must return the incumbent unchanged. *)
let checkpoint_probe ~dir ~tag ~problem a cost =
  let path = Filename.concat dir (tag ^ ".ckpt") in
  let cp =
    Checkpoint.make ~problem ~base_seed:0 ~elapsed:0.0 ~incumbent:a ~incumbent_cost:cost
      ~starts:[] ()
  in
  match Trace.span "checkpoint.write" (fun () -> Checkpoint.save ~path cp) with
  | Error e -> Error ("checkpoint write: " ^ Checkpoint.error_to_string e)
  | Ok () -> (
    Trace.count "checkpoint.bytes" (float_of_int (Unix.stat path).Unix.st_size);
    match Trace.span "checkpoint.load" (fun () -> Checkpoint.load ~path) with
    | Error e -> Error ("checkpoint load: " ^ Checkpoint.error_to_string e)
    | Ok back ->
      Sys.remove path;
      if back.Checkpoint.incumbent = a && back.Checkpoint.incumbent_cost = cost then Ok ()
      else Error "checkpoint round trip changed the incumbent")

(* --- work directory and process facts ------------------------------ *)

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir path =
  remove_tree path;
  Unix.mkdir path 0o700;
  path

(* VmHWM of this process, in MiB *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f kB" (fun kb -> kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

(* --- workloads ----------------------------------------------------- *)

type workload = {
  setup : unit -> pass;
      (** build everything the measured passes need; answers produced
          here (a session open) are audited and tallied like any other *)
  teardown : unit -> unit;  (** release what [setup] started *)
  pass : traced:bool -> pass;
  repeatable : bool;  (** every pass has the same inputs, hence the same objective *)
  obj_passes : int;
      (** certified_obj sums the first [obj_passes] passes; a run has
          at least that many *)
  pass_s : float;
      (** the nominal answering time of one pass; a run of S seconds
          has S / [pass_s] passes *)
  threads : int;  (** threads its answers are computed on; see {!Speed.width} *)
}

(* A seeded permutation of [0, n). *)
let permutation ~seed n =
  let rng = Random.State.make [| seed |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
