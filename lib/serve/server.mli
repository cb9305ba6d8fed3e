(** The allocation daemon: a Unix-domain-socket accept loop speaking the
    JSONL {!Protocol}, backed by a two-tier {!Cache}.

    Concurrency model — single-threaded IO, pooled compute. The accept
    loop owns every file descriptor and every cache mutation. Each
    [select] round drains all complete request lines into one batch:
    tier-2 hits (and rebudget events, stats, shutdown and protocol
    errors) are answered immediately from the loop — rebudget sessions
    are mutable and share their tier-1 entry's scratch, so running
    their steps on the accept thread is what keeps them single-owner
    (DESIGN.md §16); the remaining cold requests are grouped
    by tier-1 key and the groups fanned out through {!Srfa_util.Pool},
    one group per worker call, so concurrent requests for the same
    kernel share one analysis build and one simulator scratch — the
    scratch is not thread-safe, and grouping is what makes each tier-1
    entry single-owner for the duration of a batch. Workers only
    compute; the loop inserts the built entries and reports afterwards
    and writes responses in arrival order.

    Resilience model (DESIGN.md §15) — the loop assumes clients lie and
    workers fail: per-connection buffer caps and read timeouts
    ([E-PROTO-003], connection dropped), cold-compute bound with
    overload shedding ([E-OVERLOAD] + [retry_after_ms]), per-request
    deadlines ([E-DEADLINE], never cached), worker-exception isolation
    ([E-INTERNAL-*] for the one affected request), SIGPIPE ignored
    process-wide, and graceful drain on SIGTERM/SIGINT. All of it is
    drivable deterministically through {!Srfa_util.Fault}. *)

val run :
  ?jobs:int ->
  ?tier1_bytes:int ->
  ?tier2_bytes:int ->
  ?trace:Srfa_util.Trace.sink ->
  ?backlog:int ->
  ?faults:Srfa_util.Fault.t ->
  ?deadline_ms:int ->
  ?max_inflight:int ->
  ?max_buffer:int ->
  ?read_timeout_ms:int ->
  ?signals:bool ->
  ?log:(string -> unit) ->
  socket:string ->
  unit ->
  unit
(** Bind [socket] (unlinking any stale file), serve until a [shutdown]
    request arrives or — with [signals] on — SIGTERM/SIGINT triggers a
    drain (stop accepting, finish the in-flight round, flush stats via
    [log], return), then close every client and remove the socket.
    [jobs] sizes the worker pool (default 1). [faults] arms the
    io.read / io.write / pool.job / cache.insert injection sites
    (default off). [deadline_ms] is the server-wide default deadline
    applied when a request carries none (default: no deadline).
    [max_inflight] bounds cold compute per batch; excess requests are
    shed with [E-OVERLOAD] (default 256). [max_buffer] caps one
    connection's unterminated input (default 1 MiB) and
    [read_timeout_ms] bounds how long a partial line may sit (default
    10 s); either trips [E-PROTO-003] and drops the connection.
    SIGPIPE is ignored process-wide on entry regardless of [signals]. *)

(** A small blocking client for programs that drive a daemon: the
    benchmark harness and the serve test campaigns. *)
module Client : sig
  type t = { fd : Unix.file_descr; ic : in_channel }

  val connect : ?retries:int -> string -> t
  (** Retry while the socket does not exist / refuses connections
      (10 ms apart, default 200 attempts) so callers can connect
      immediately after spawning the daemon.
      @raise Unix.Unix_error once the retries are spent, or at once on
      any other connect failure (the socket is closed either way). *)

  val send : t -> string -> unit
  val recv : t -> string
  val recv_opt : t -> string option
  (** [None] on EOF (the daemon dropped the connection). *)

  val rpc : t -> string -> string
  val close : t -> unit
end
