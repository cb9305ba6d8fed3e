(* The serve daemon as its own process: spawned from the built
   srfa_serve.exe on a socket in the working directory, driven by one
   blocking client, and always stopped and reaped before the benchmark
   exits. A separate process keeps the daemon's GC pauses out of the
   client's timings. *)

module Client = Srfa_server.Server.Client

type t = { pid : int; socket : string; client : Client.t }

let live : t list ref = ref []

let stop d =
  if List.memq d !live then begin
    live := List.filter (fun x -> x != d) !live;
    (try ignore (Client.rpc d.client {|{"op": "shutdown"}|})
     with _ -> ( try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
    Client.close d.client;
    ignore (Unix.waitpid [] d.pid);
    try Sys.remove d.socket with Sys_error _ -> ()
  end

let () = at_exit (fun () -> List.iter stop !live)

let counter = ref 0

(* The socket path is relative, so it stays short and inside the
   working directory wherever that is. *)
let start ~exe ~jobs =
  incr counter;
  let socket = Printf.sprintf ".perfbench-%d-%d.sock" (Unix.getpid ()) !counter in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "--socket"; socket; "--jobs"; string_of_int jobs |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  let client =
    try Client.connect ~retries:500 socket
    with e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      raise e
  in
  let d = { pid; socket; client } in
  live := d :: !live;
  d

let rpc d line = Client.rpc d.client line

let peak_rss_kb d = Measure.vmhwm_kb (string_of_int d.pid)
