(* In-memory spans and counters recorded by the benchmark around its
   calls into each layer's public functions.  Nothing is written until
   the run ends ({!write_jsonl}).  Disabled (the untraced mode), [span]
   is a direct call and [count] a no-op.

   A span carries the group it belongs to: a set-up repetition
   (negative) or a measured pass (0, 1, ...).  Per-layer metrics are
   aggregated per group and then summarised across groups. *)

type span = {
  id : int;
  parent : int;  (* -1 at top level *)
  name : string;
  group : int;
  t0 : float;
  t1 : float;
}

let on = ref false
let group = ref 0
let mu = Mutex.create ()
let spans : span list ref = ref []
let counts : (string * int, float) Hashtbl.t = Hashtbl.create 64

(* values measured elsewhere (server-reported times, report stage
   walls), kept beside the spans: (name, group, value) *)
let samples : (string * int * float) list ref = ref []
let next_id = ref 0

(* the innermost open span of each thread, for parent links *)
let open_spans : (int, int) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let enabled () = !on
let set_enabled b = on := b
let set_group g = group := g

(* a span measured by the caller, under the thread's open span *)
let record name t0 t1 =
  if !on then
    locked (fun () ->
        incr next_id;
        let parent =
          Option.value ~default:(-1) (Hashtbl.find_opt open_spans (Thread.id (Thread.self ())))
        in
        spans := { id = !next_id; parent; name; group = !group; t0; t1 } :: !spans)

let sample name v = if !on then locked (fun () -> samples := (name, !group, v) :: !samples)

let span name f =
  if not !on then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, parent =
      locked (fun () ->
          incr next_id;
          let parent = Option.value ~default:(-1) (Hashtbl.find_opt open_spans tid) in
          Hashtbl.replace open_spans tid !next_id;
          (!next_id, parent))
    in
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      locked (fun () ->
          spans := { id; parent; name; group = !group; t0; t1 } :: !spans;
          if parent < 0 then Hashtbl.remove open_spans tid
          else Hashtbl.replace open_spans tid parent)
    in
    Fun.protect ~finally:close f
  end

let count name v =
  if !on then
    locked (fun () ->
        let k = (name, !group) in
        Hashtbl.replace counts k (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts k)))

let all () = locked (fun () -> List.rev !spans)

(* (group, value) of every span duration and sample under [name] *)
let entries name =
  let from_spans =
    List.filter_map (fun s -> if s.name = name then Some (s.group, s.t1 -. s.t0) else None) (all ())
  in
  let from_samples =
    locked (fun () -> List.rev !samples)
    |> List.filter_map (fun (n, g, v) -> if n = name then Some (g, v) else None)
  in
  from_spans @ from_samples

let values name = List.map snd (entries name)

(* per group holding at least one entry under [name]: their sum *)
let sums_by_group name =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (g, v) -> Hashtbl.replace tbl g (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl g)))
    (entries name);
  Hashtbl.fold (fun g v acc -> (g, v) :: acc) tbl [] |> List.sort compare

let count_in ~group:g name = Option.value ~default:0.0 (Hashtbl.find_opt counts (name, g))
let span_count () = List.length (all ())

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* one JSON object per line: spans first, then counters *)
let write_jsonl path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"span\":%s,\"id\":%d,\"parent\":%d,\"group\":%d,\"start\":%.6f,\"end\":%.6f}\n"
            (json_string s.name) s.id s.parent s.group s.t0 s.t1)
        (all ());
      List.iter
        (fun (name, g, v) ->
          Printf.fprintf oc "{\"sample\":%s,\"group\":%d,\"value\":%.17g}\n" (json_string name) g v)
        (List.rev !samples);
      Hashtbl.iter
        (fun (name, g) v ->
          Printf.fprintf oc "{\"counter\":%s,\"group\":%d,\"value\":%.17g}\n" (json_string name) g v)
        counts)
