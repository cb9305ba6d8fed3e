(* Private serve daemons for the tests and the serve campaigns, each run
   in its own domain on its own socket, and readers for parsed responses
   of the daemon. *)

module Server = Srfa_server.Server
module Client = Server.Client
module Json = Srfa_util.Json

(* {!with_daemon} could not stop its daemon; a join would block forever. *)
exception Daemon_unreachable

(* Shut down a daemon that may already be gone: a [shutdown] request or
   a drain stopped it (and removed its socket file), or it raised
   ([finished] is set). A request without an answer is retried, since an
   armed fault plan may cut it; a daemon still running 10 s after its
   answer, or after three unanswered requests, is wedged. *)
let stop ~finished socket =
  let over () = Atomic.get finished || not (Sys.file_exists socket) in
  let rec wait n = over () || (n > 0 && (Unix.sleepf 0.01; wait (n - 1))) in
  let answered () =
    match Client.connect ~retries:5 socket with
    | exception Unix.Unix_error _ -> false
    | c ->
      Unix.setsockopt_float c.Client.fd Unix.SO_RCVTIMEO 10.0;
      Client.send c {|{"op": "shutdown"}|};
      let reply =
        try Client.recv_opt c <> None with Sys_error _ | Sys_blocked_io -> false
      in
      Client.close c;
      reply
  in
  let rec attempt n =
    if not (over ()) then
      if answered () then (if not (wait 1000) then raise Daemon_unreachable)
      else if n > 1 then attempt (n - 1)
      else if not (wait 100) then raise Daemon_unreachable
  in
  attempt 3

(* [with_daemon tag k] runs [k socket] against a fresh daemon with two
   worker domains and returns its result once the daemon is stopped and
   joined. A daemon that died re-raises its exception from here; one that
   cannot be stopped raises [Daemon_unreachable] and is left unjoined. *)
let with_daemon ?faults ?max_inflight ?max_buffer ?read_timeout_ms ?signals
    ?log tag k =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "srfa-%s-%d.sock" tag (Unix.getpid ()))
  in
  let finished = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set finished true)
          (Server.run ~jobs:2 ?faults ?max_inflight ?max_buffer
             ?read_timeout_ms ?signals ?log ~socket))
  in
  let result = match k socket with v -> Ok v | exception exn -> Error exn in
  stop ~finished socket;
  Domain.join daemon;
  match result with Ok v -> v | Error exn -> raise exn

(* Write [s] with no newline appended, ignoring a failed write. *)
let send_raw (c : Client.t) s =
  try ignore (Unix.write_substring c.Client.fd s 0 (String.length s))
  with Unix.Unix_error _ -> ()

(* ---- response readers -------------------------------------------------- *)

let str_member key json =
  match Json.member key json with Some (Json.Str s) -> Some s | _ -> None

(* The codes of a response's "diagnostics" or "warnings" array. *)
let codes field json =
  match Json.member field json with
  | Some (Json.Arr ds) -> List.filter_map (str_member "code") ds
  | _ -> []

let has_code code json = List.mem code (codes "diagnostics" json)
