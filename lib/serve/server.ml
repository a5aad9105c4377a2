(* The serve daemon's event loop.

   Shape: leader/followers. Exactly [jobs] domains run one loop: the
   caller, plus [jobs - 1] spawned domains. A domain with a queued
   request runs it. Otherwise one domain at a time is the poller and
   sits in select(2) on every descriptor, while the rest wait on a
   condition variable. All connection state sits under one mutex, and
   select runs without holding it. A domain that takes a request while
   nobody else polls signals one waiting domain to become the poller.

   A domain that finishes a request writes the reply itself
   (non-blocking, under the mutex) and pumps that connection's
   pipelined lines. The poller cannot see what that changed from its
   select sets, so the finishing domain wakes it through a self-pipe
   when bytes remain unsent, a connection must close, or the drain is
   over. No domain closes a descriptor that the poller may be selecting
   on: it hands the descriptor to the poller, which closes it once
   select has returned.

   While every domain is analysing, nobody reads the sockets: a ping, a
   new connection or a signal waits for the first analysis to finish.

   Each connection carries at most one in-flight request; further
   pipelined request lines wait buffered until the response is flushed.
   That keeps responses in request order without per-request ids in the
   protocol, and makes backpressure automatic: a client that floods
   requests only fills its own kernel buffers. *)

module Clock = Nadroid_clock.Clock
module Pipeline = Nadroid_core.Pipeline
module Filters = Nadroid_core.Filters
module Fault = Nadroid_core.Fault
module Cache = Nadroid_core.Cache
module Parallel = Nadroid_core.Parallel
module Supervise = Nadroid_core.Supervise
module Faultinject = Nadroid_core.Faultinject

type listen = [ `Unix of string | `Tcp of string * int ]

type config = {
  jobs : int option;
  cache_dir : string;
  cache_max_bytes : int option;
  default_deadline : float option;
  quiet : bool;
  install_signals : bool;
  supervise : bool;
  heartbeat : float option;
}

let default_config =
  {
    jobs = None;
    cache_dir = Cache.default_dir;
    cache_max_bytes = None;
    default_deadline = None;
    quiet = false;
    install_signals = true;
    supervise = false;
    heartbeat = None;
  }

(* stderr log, timestamped with the wall clock — the one place wall time
   belongs: display. Deadlines inside the analyses use Clock.now. *)
let log cfg fmt =
  if cfg.quiet then Printf.ifprintf stderr fmt
  else begin
    let tm = Unix.localtime (Clock.wall ()) in
    Printf.eprintf "[serve %02d:%02d:%02d] " tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec;
    Printf.kfprintf
      (fun oc ->
        output_char oc '\n';
        flush oc)
      stderr fmt
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* -- request execution (lock released) ----------------------------------- *)

let analyze_config cfg (a : Protocol.analyze) =
  let deadline =
    match a.Protocol.a_deadline with
    | Some _ as d -> d
    | None -> cfg.default_deadline
  in
  {
    Pipeline.default_config with
    Pipeline.k = Option.value ~default:Pipeline.default_config.Pipeline.k a.Protocol.a_k;
    unsound = (if a.Protocol.a_sound_only then [] else Filters.unsound);
    budgets =
      {
        Pipeline.pta_steps = a.Protocol.a_budget_pta;
        pta_tuples = a.Protocol.a_budget_tuples;
        deadline;
      };
  }

(* Runs without the lock, on the domain that took the request.
   Everything that can go wrong folds into the response: a fault
   document for analysis failures, a protocol error for an unreadable
   path. The domain itself never dies — its next request finds it
   clean. With [spool] (the [supervise] config), the actual analysis
   runs in a supervised child process instead of this domain, so even
   a SIGSEGV/OOM of one request costs only its own response while the
   daemon keeps serving. *)
let run_analyze cfg spool (a : Protocol.analyze) =
  let name, src =
    match (a.Protocol.a_path, a.Protocol.a_source) with
    | Some p, _ -> (p, `Read p)
    | None, Some s ->
        (Option.value ~default:"<inline>" a.Protocol.a_file, `Inline s)
    | None, None -> assert false (* Protocol.parse_request rejects this *)
  in
  match
    match src with
    | `Inline s -> Ok s
    | `Read p -> ( try Ok (read_file p) with Sys_error e -> Error e)
  with
  | Error e -> Protocol.error_response (Printf.sprintf "cannot read input: %s" e)
  | Ok src ->
      let config = analyze_config cfg a in
      let dir = if a.Protocol.a_cache = Some true then Some cfg.cache_dir else None in
      let result =
        match spool with
        | Some sp ->
            Supervise.analyze sp ~config
              ?cache:(Option.map (fun dir -> (dir, cfg.cache_max_bytes)) dir)
              ~file:name src
        | None ->
            Fault.wrap (fun () ->
                fst (Cache.analyze ~config ?max_bytes:cfg.cache_max_bytes ?dir ~file:name src))
      in
      Protocol.analyze_response ~name result

(* -- shared state ---------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  id : int;
  rbuf : Bytes.t;  (** the connection's read buffer, reused by every read *)
  inbuf : Buffer.t;  (** raw bytes read, possibly mid-line *)
  mutable in_lines : int;  (** complete ('\n'-terminated) lines in [inbuf] *)
  mutable first_nl : int;  (** offset of the first '\n' in [inbuf]; -1 if none *)
  mutable outbuf : Bytes.t;  (** response bytes not yet written *)
  mutable outpos : int;
  mutable busy : bool;  (** a request of this connection is queued or running *)
  mutable closing : bool;  (** close once [outbuf] drains *)
}

type t = {
  cfg : config;
  spool : Supervise.t option;  (** supervised worker processes *)
  listen_fd : Unix.file_descr;
  sock_path : string option;  (** unix-socket file to unlink on exit *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  m : Mutex.t;  (** guards every mutable field here and every [conn] *)
  idle : Condition.t;  (** domains with nothing to do wait here *)
  conns : (int, conn) Hashtbl.t;
  requests : (conn * Protocol.analyze) Queue.t;  (** dispatched, not yet taken *)
  mutable doomed : Unix.file_descr list;  (** dropped while polled: the poller closes them *)
  mutable polling : bool;  (** a domain is in select, or on its way in *)
  mutable listening : bool;
  mutable next_id : int;
  mutable inflight : int;  (** dispatched requests not yet answered *)
  mutable draining : bool;
  mutable stopped : bool;  (** the drain is over: every domain leaves the loop *)
  stop_requested : bool Atomic.t;  (** set from signal handlers *)
}

(* Wake the poller out of select. The write may find the pipe full
   (EAGAIN): fine — a wake-up is already pending. EINTR retries; any
   other error on the self-pipe is a bug worth crashing on. *)
let rec wake t =
  match Unix.write t.wake_w (Bytes.make 1 '!') 0 1 with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wake t
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* the peer may already be gone; nothing to salvage either way *)
let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let live t (c : conn) = Hashtbl.mem t.conns c.id

(* Forget [c]. Its descriptor is closed at once, unless the poller may
   be selecting on it: closing it there would leave select waiting on a
   socket that the kernel keeps open for it, or fail with EBADF. The
   poller closes it instead, woken here, once select has returned. *)
let drop t (c : conn) =
  Hashtbl.remove t.conns c.id;
  if t.polling then begin
    t.doomed <- c.fd :: t.doomed;
    wake t
  end
  else close_fd c.fd

(* -- IO, robust against disconnects -------------------------------------- *)

let handle_read t (c : conn) =
  let buf = c.rbuf in
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 ->
      (* EOF: the client is gone. If an analysis is still running its
         response is dropped on arrival; the domain is unaffected. *)
      drop t c
  | n ->
      (* count lines, and note where the first one ends, as bytes arrive:
         the no-request-pending check in [advance] is then O(1) per loop
         round, and [pop_line] need not search for the line's end *)
      let base = Buffer.length c.inbuf in
      for i = 0 to n - 1 do
        if Bytes.unsafe_get buf i = '\n' then begin
          if c.in_lines = 0 then c.first_nl <- base + i;
          c.in_lines <- c.in_lines + 1
        end
      done;
      Buffer.add_subbytes c.inbuf buf 0 n
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()
  | exception Unix.Unix_error _ -> drop t c

let handle_write t (c : conn) =
  let len = Bytes.length c.outbuf - c.outpos in
  if len > 0 then begin
    match
      Faultinject.trip Faultinject.Server_send;
      Unix.write c.fd c.outbuf c.outpos len
    with
    | n -> c.outpos <- c.outpos + n (* partial writes resume next round *)
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error _ ->
        (* EPIPE/ECONNRESET and friends: with SIGPIPE ignored a dead
           client surfaces here as an error on its own fd, nowhere else *)
        drop t c
  end;
  if c.outpos >= Bytes.length c.outbuf && live t c then begin
    c.outbuf <- Bytes.empty;
    c.outpos <- 0;
    if c.closing then drop t c
  end

let send_line (c : conn) line =
  c.outbuf <- Bytes.of_string (line ^ "\n");
  c.outpos <- 0

(* -- request dispatch ----------------------------------------------------- *)

let pop_line (c : conn) =
  if c.in_lines = 0 then None
  else begin
    let i = c.first_nl in
    let line = Buffer.sub c.inbuf 0 i in
    let rest = Buffer.sub c.inbuf (i + 1) (Buffer.length c.inbuf - i - 1) in
    (* [reset] when drained so a one-off multi-megabyte inline request
       does not pin its capacity for the connection's lifetime *)
    if String.length rest = 0 then Buffer.reset c.inbuf
    else begin
      Buffer.clear c.inbuf;
      Buffer.add_string c.inbuf rest
    end;
    c.in_lines <- c.in_lines - 1;
    (c.first_nl <- if c.in_lines = 0 then -1 else String.index rest '\n');
    Some line
  end

let dispatch t (c : conn) line =
  match Protocol.parse_request line with
  | Error e ->
      log t.cfg "conn %d: bad request: %s" c.id e;
      send_line c (Protocol.error_response e)
  | Ok Protocol.Ping ->
      log t.cfg "conn %d: ping" c.id;
      send_line c (Protocol.ok_response ~draining:t.draining)
  | Ok Protocol.Shutdown ->
      log t.cfg "conn %d: shutdown requested, draining" c.id;
      t.draining <- true;
      c.closing <- true;
      send_line c (Protocol.ok_response ~draining:true)
  | Ok (Protocol.Analyze a) ->
      log t.cfg "conn %d: analyze %s" c.id
        (match a.Protocol.a_path with
        | Some p -> p
        | None -> Option.value ~default:"<inline>" a.Protocol.a_file);
      c.busy <- true;
      t.inflight <- t.inflight + 1;
      Queue.push (c, a) t.requests

(* A connection is ready for its next buffered request once nothing is
   in flight and nothing is waiting to be written. *)
let advance t (c : conn) =
  if
    (not c.busy)
    && (not c.closing)
    && Bytes.length c.outbuf = 0
    && not t.draining
  then match pop_line c with None -> () | Some line -> dispatch t c line

(* Advance, then opportunistically flush (short responses usually fit
   the socket buffer, saving a select round-trip) — and if that flush
   drained the response with more pipelined lines buffered, go again: no
   fd event will ever fire for bytes already in [inbuf], so stopping
   here would stall the connection forever. Terminates because each
   iteration past the first consumes a buffered line. *)
let rec pump t (c : conn) =
  if live t c then begin
    advance t c;
    if Bytes.length c.outbuf > c.outpos then begin
      handle_write t c;
      if live t c && Bytes.length c.outbuf = 0 && c.in_lines > 0 then pump t c
    end
  end

(* A request must never take its domain down. *)
let run_request t (a : Protocol.analyze) =
  try run_analyze t.cfg t.spool a
  with e ->
    Protocol.analyze_response
      ~name:
        (Option.value ~default:"<inline>"
           (match a.Protocol.a_path with Some _ as p -> p | None -> a.Protocol.a_file))
      (Error (Fault.of_exn e))

(* Back under the lock with [c]'s response: write it now and pump the
   connection's pipelined lines. The poller learns from a wake-up what
   its select sets miss: bytes left unsent here, or (in [drop]) a
   connection to close. *)
let complete t (c : conn) response =
  t.inflight <- t.inflight - 1;
  c.busy <- false;
  (* a client that hung up mid-request is gone: drop the response *)
  if live t c then begin
    log t.cfg "conn %d: response ready (%d bytes)" c.id (String.length response);
    send_line c response;
    pump t c;
    if live t c && not c.busy then
      if Bytes.length c.outbuf > c.outpos then (if t.polling then wake t)
      else if t.draining then drop t c
  end

let drain_wake_pipe t =
  let buf = Bytes.create 64 in
  let rec loop () =
    match Unix.read t.wake_r buf 0 (Bytes.length buf) with
    | n when n = Bytes.length buf -> loop ()
    | _ -> ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
  in
  loop ()

let accept_all t =
  let rec loop () =
    match
      Faultinject.trip Faultinject.Server_accept;
      Unix.accept ~cloexec:true t.listen_fd
    with
    | fd, _ ->
        Unix.set_nonblock fd;
        let id = t.next_id in
        t.next_id <- id + 1;
        Hashtbl.replace t.conns id
          {
            fd;
            id;
            rbuf = Bytes.create 8192;
            inbuf = Buffer.create 256;
            in_lines = 0;
            first_nl = -1;
            outbuf = Bytes.empty;
            outpos = 0;
            busy = false;
            closing = false;
          };
        loop ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> loop ()
    | exception Unix.Unix_error (e, _, _) ->
        (* transient accept failure (EMFILE, injected EIO, ...): the
           listener survives it; pending connections stay in the kernel
           backlog and the next loop round retries *)
        log t.cfg "accept failed: %s" (Unix.error_message e)
  in
  loop ()

let conn_list t = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []

(* -- the loop ------------------------------------------------------------- *)

let finished t = t.draining && Hashtbl.length t.conns = 0 && t.inflight = 0

let stop t =
  t.stopped <- true;
  Condition.broadcast t.idle;
  if t.polling then wake t

(* A signal lands on one thread, usually the main domain's. If that
   domain is waiting on [idle], the runtime only records the signal: its
   handler runs once some domain returns from a blocking call, and a
   select that the signal did not interrupt may never return. So with
   handlers installed the poller leaves select at least this often
   (seconds). *)
let signal_tick = 0.1

(* One round as the poller: entered with the lock held and nobody else
   polling; select runs with the lock released. *)
let poll t =
  if Atomic.get t.stop_requested && not t.draining then begin
    log t.cfg "signal received, draining";
    t.draining <- true
  end;
  if t.draining && t.listening then begin
    t.listening <- false;
    close_fd t.listen_fd
  end;
  (* when draining, idle connections go away now; busy or unflushed
     ones finish first — that is the graceful part *)
  if t.draining then
    List.iter
      (fun (c : conn) -> if (not c.busy) && Bytes.length c.outbuf = 0 then drop t c)
      (conn_list t);
  if not (finished t) then begin
    let conns = conn_list t in
    let reads =
      (t.wake_r :: (if t.listening then [ t.listen_fd ] else []))
      @ List.map (fun (c : conn) -> c.fd) conns
    in
    let writes =
      List.filter_map
        (fun (c : conn) -> if Bytes.length c.outbuf > c.outpos then Some c.fd else None)
        conns
    in
    t.polling <- true;
    Mutex.unlock t.m;
    let timeout = if t.cfg.install_signals then signal_tick else -1.0 in
    let ready = try Ok (Unix.select reads writes [] timeout) with e -> Error e in
    Mutex.lock t.m;
    t.polling <- false;
    List.iter close_fd t.doomed;
    t.doomed <- [];
    match ready with
    | Error (Unix.Unix_error (Unix.EINTR, _, _)) -> ()
    | Error e -> raise e
    | Ok (readable, writable, _) ->
        if List.mem t.wake_r readable then drain_wake_pipe t;
        if t.listening && List.mem t.listen_fd readable then accept_all t;
        List.iter
          (fun (c : conn) -> if List.mem c.fd readable && live t c then handle_read t c)
          conns;
        List.iter
          (fun (c : conn) -> if List.mem c.fd writable && live t c then handle_write t c)
          conns;
        List.iter (pump t) conns
  end

(* What every domain runs, with the lock held. *)
let rec serve t =
  if t.stopped then ()
  else if finished t then stop t
  else begin
    (match Queue.take_opt t.requests with
    | Some (c, a) ->
        (* hand the poller's role to a waiting domain *)
        if not t.polling then Condition.signal t.idle;
        Mutex.unlock t.m;
        let response = run_request t a in
        Mutex.lock t.m;
        complete t c response
    | None -> if t.polling then Condition.wait t.idle t.m else poll t);
    serve t
  end

let bind_listen = function
  | `Unix path ->
      (* a stale socket file from a crashed daemon would make bind fail;
         a live one is somebody else's — connect distinguishes them *)
      (match Unix.stat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> (
          let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          match Unix.connect probe (Unix.ADDR_UNIX path) with
          | () ->
              Unix.close probe;
              raise
                (Unix.Unix_error (Unix.EADDRINUSE, "bind", path))
          | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
              Unix.close probe;
              Unix.unlink path
          | exception e ->
              Unix.close probe;
              raise e)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      (fd, Some path)
  | `Tcp (host, port) ->
      let addr =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_of_string host
      in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      (fd, None)

let run ?(config = default_config) listen =
  (* a client closing mid-write must surface as EPIPE, not kill us *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  (* force shared lazies before any domain exists (fork-before-spawn
     discipline; also first-request latency) *)
  ignore (Lazy.force Nadroid_lang.Builtins.program);
  let listen_fd, sock_path = bind_listen listen in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let jobs = match config.jobs with Some j -> max 1 j | None -> Parallel.default_jobs () in
  (* supervised worker processes spawn before the other domains exist:
     fewer inherited threads, and the exec discipline keeps later
     respawns safe from any domain *)
  let spool =
    if config.supervise then Some (Supervise.create ~jobs ?heartbeat:config.heartbeat ())
    else None
  in
  let t =
    {
      cfg = config;
      spool;
      listen_fd;
      sock_path;
      wake_r;
      wake_w;
      m = Mutex.create ();
      idle = Condition.create ();
      conns = Hashtbl.create 16;
      requests = Queue.create ();
      doomed = [];
      polling = false;
      listening = true;
      next_id = 0;
      inflight = 0;
      draining = false;
      stopped = false;
      stop_requested = Atomic.make false;
    }
  in
  if config.install_signals then begin
    let handler _ =
      Atomic.set t.stop_requested true;
      try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
      with Unix.Unix_error _ -> ()
    in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
    Sys.set_signal Sys.sigint (Sys.Signal_handle handler)
  end;
  log config "listening (%d domain%s)" jobs (if jobs = 1 then "" else "s");
  (* a domain that dies of a bug stops the others rather than leave
     them waiting; its exception resurfaces at its join *)
  let loop () =
    Mutex.lock t.m;
    Fun.protect
      ~finally:(fun () ->
        stop t;
        Mutex.unlock t.m)
      (fun () -> serve t)
  in
  let others = List.init (jobs - 1) (fun _ -> Domain.spawn loop) in
  loop ();
  List.iter Domain.join others;
  log config "drained, shutting down";
  Option.iter Supervise.shutdown t.spool;
  if t.listening then close_fd t.listen_fd;
  close_fd t.wake_r;
  close_fd t.wake_w;
  (match sock_path with
  | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | None -> ());
  log config "bye"
