(** The [nadroid serve] daemon: a long-lived analysis service.

    One process keeps the expensive state warm — the framework model
    (the builtins program), the interned symbol tables, the on-disk
    analysis cache — and serves analyze requests over a Unix or TCP
    socket using the newline-JSON protocol of {!Protocol}. It runs on
    exactly [jobs] domains (the caller plus [jobs - 1] spawned ones)
    that take turns: a domain with a queued request analyses it, one
    domain at a time polls the sockets, and the rest wait. A domain
    that finishes a request writes the reply itself. So while a domain
    is free, it polls; but while every domain is analysing, nobody reads
    the sockets: a ping, a new connection or a [SIGTERM] then waits for
    the first analysis to finish. [jobs = 1] is one domain that
    alternates between polling and analysing.

    Robustness contract: [SIGPIPE] is ignored and every read/write
    handles [EINTR], [EAGAIN] and partial transfers, so a client that
    disconnects mid-request (or mid-response) costs at most its own
    connection — never a domain, never the daemon. Per-request
    deadlines ride the pipeline's in-flight cancellation: an expired
    request degrades soundly or returns a budget fault, and the domain
    that ran it picks up the next request untouched. *)

type listen = [ `Unix of string | `Tcp of string * int ]
(** Where to listen: a Unix socket path (unlinked when stale on bind and
    again on exit) or a TCP host/port. *)

type config = {
  jobs : int option;
      (** domains that poll and analyse, counting the caller (default:
          all cores) *)
  cache_dir : string;  (** analysis-cache directory for [cache] requests *)
  cache_max_bytes : int option;  (** LRU ceiling applied after stores *)
  default_deadline : float option;
      (** deadline for requests that set none; [None] = unbounded *)
  quiet : bool;  (** suppress the per-request stderr log *)
  install_signals : bool;
      (** install [SIGTERM]/[SIGINT] handlers that trigger the graceful
          drain; disable when embedding the server in a test process.
          With them installed the polling domain leaves select(2) every
          0.1 s, so that a signal which landed on a waiting domain is
          handled. *)
  supervise : bool;
      (** run each analysis in a supervised child process
          ({!Nadroid_core.Supervise}): a request that segfaults, is
          OOM-killed or wedges costs only its own response — the worker
          is respawned and the daemon keeps serving *)
  heartbeat : float option;
      (** with [supervise]: max seconds one request may stay unanswered
          before its worker is declared wedged and replaced *)
}

val default_config : config

val run : ?config:config -> listen -> unit
(** Serve until a [shutdown] request (or [SIGTERM]/[SIGINT] when
    installed) starts the graceful drain: stop accepting, let in-flight
    and queued analyses finish and their responses flush, then join the
    spawned domains and return. Raises [Unix.Unix_error] if the socket cannot be bound. *)
