(* An in-process qbpartd for the serving workloads, and the client
   calls into it. *)

module Server = Qbpart_server.Server
module Client = Qbpart_server.Client
module Protocol = Qbpart_server.Protocol
module Frame = Qbpart_server.Frame

type daemon = { server : Server.t; thread : Thread.t; socket : string }

let start (config : Server.config) =
  match Server.create config with
  | Error e -> failwith ("daemon: " ^ e)
  | Ok server -> { server; thread = Thread.create Server.serve server; socket = config.Server.socket_path }

let stop d =
  Server.request_drain d.server;
  Thread.join d.thread

let connect d =
  match Client.connect ~read_timeout:120.0 (Client.Unix_socket d.socket) with
  | Ok c -> c
  | Error e -> failwith ("client: " ^ e)

let frame_bytes payload = float_of_int (String.length (Frame.encode payload))

(* One request, one response; traced, the encoded frame sizes of both
   directions are counted. *)
let call c req =
  let r = Trace.span "server.call" (fun () -> Client.call c req) in
  if Trace.enabled () then begin
    Trace.count "server.frame_bytes" (frame_bytes (Protocol.encode_request req));
    match r with
    | Ok resp -> Trace.count "server.frame_bytes" (frame_bytes (Protocol.encode_response resp))
    | Error _ -> ()
  end;
  r

let describe = function
  | Ok resp -> Format.asprintf "unexpected response %a" Protocol.pp_response resp
  | Error e -> "transport: " ^ e

(* A rendered engine stage, "name: outcome (1.234s, cost 5.0)", as
   (name, wall seconds); other stage lines (the ECO ladder's) give None. *)
let parse_stage line =
  match (String.index_opt line ':', String.rindex_opt line '(') with
  | Some colon, Some paren -> (
    let tail = String.sub line paren (String.length line - paren) in
    match Scanf.sscanf tail "(%fs, cost %f)" (fun wall _ -> wall) with
    | wall -> Some (String.sub line 0 colon, wall)
    | exception _ -> None)
  | _ -> None
