(* The serve daemon's event loop.

   Shape: one select(2) loop in the calling domain owns every file
   descriptor; analyses run on a persistent Parallel.Pool. A worker
   never touches a socket — it hands the finished response to a
   completion queue and wakes the loop through a self-pipe — so all
   socket error handling lives in exactly one place.

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

(* -- request execution (worker side) ------------------------------------- *)

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

(* Runs on a pool worker. Everything that can go wrong folds into the
   response: a fault document for analysis failures, a protocol error
   for an unreadable path. The worker itself never dies — the next
   request finds it clean. With [spool] (the [supervise] config), the
   actual analysis runs in a supervised child process instead of this
   domain, so even a SIGSEGV/OOM of one request costs only its own
   response while the daemon keeps serving. *)
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

(* -- connection state (loop side) ---------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  id : int;
  inbuf : Buffer.t;  (** raw bytes read, possibly mid-line *)
  mutable in_lines : int;  (** complete ('\n'-terminated) lines in [inbuf] *)
  mutable outbuf : Bytes.t;  (** response bytes not yet written *)
  mutable outpos : int;
  mutable busy : bool;  (** a request of this connection is on the pool *)
  mutable closing : bool;  (** close once [outbuf] drains *)
}

type t = {
  cfg : config;
  pool : Parallel.Pool.t;
  spool : Supervise.t option;  (** supervised worker processes *)
  listen_fd : Unix.file_descr;
  sock_path : string option;  (** unix-socket file to unlink on exit *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  conns : (int, conn) Hashtbl.t;
  completions : (int * string) Queue.t;  (** (conn id, response line) *)
  cm : Mutex.t;
  mutable next_id : int;
  mutable inflight : int;
  mutable draining : bool;
  stop_requested : bool Atomic.t;  (** set from signal handlers *)
}

(* Worker -> loop hand-off. The write may find the pipe full (EAGAIN):
   fine — a wake-up is already pending. EINTR retries; any other error
   on the self-pipe is a bug worth crashing on. *)
let post t id response =
  Mutex.lock t.cm;
  Queue.push (id, response) t.completions;
  Mutex.unlock t.cm;
  let rec wake () =
    match Unix.write t.wake_w (Bytes.make 1 '!') 0 1 with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wake ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  wake ()

let close_conn t (c : conn) =
  Hashtbl.remove t.conns c.id;
  (* the peer may already be gone; nothing to salvage either way *)
  try Unix.close c.fd with Unix.Unix_error _ -> ()

(* -- IO, robust against disconnects -------------------------------------- *)

let handle_read t (c : conn) =
  let buf = Bytes.create 8192 in
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 ->
      (* EOF: the client is gone. If an analysis is still running its
         completion is dropped on arrival; the worker is unaffected. *)
      close_conn t c
  | n ->
      (* count lines as bytes arrive so the no-request-pending check in
         [advance] is O(1) per loop round, not a rescan of the buffer *)
      for i = 0 to n - 1 do
        if Bytes.unsafe_get buf i = '\n' then c.in_lines <- c.in_lines + 1
      done;
      Buffer.add_subbytes c.inbuf buf 0 n
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()
  | exception Unix.Unix_error _ -> close_conn t c

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
        close_conn t c
  end;
  if c.outpos >= Bytes.length c.outbuf && Hashtbl.mem t.conns c.id then begin
    c.outbuf <- Bytes.empty;
    c.outpos <- 0;
    if c.closing then close_conn t c
  end

let send_line (c : conn) line =
  c.outbuf <- Bytes.of_string (line ^ "\n");
  c.outpos <- 0

(* -- request dispatch ----------------------------------------------------- *)

let pop_line (c : conn) =
  if c.in_lines = 0 then None
  else begin
    let i = ref 0 in
    while Buffer.nth c.inbuf !i <> '\n' do incr i done;
    let line = Buffer.sub c.inbuf 0 !i in
    let rest = Buffer.sub c.inbuf (!i + 1) (Buffer.length c.inbuf - !i - 1) in
    (* [reset] when drained so a one-off multi-megabyte inline request
       does not pin its capacity for the connection's lifetime *)
    if String.length rest = 0 then Buffer.reset c.inbuf
    else begin
      Buffer.clear c.inbuf;
      Buffer.add_string c.inbuf rest
    end;
    c.in_lines <- c.in_lines - 1;
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
      let id = c.id in
      ignore
        (Parallel.Pool.submit t.pool (fun () ->
             let response =
               (* a worker must survive anything a request throws at it *)
               try run_analyze t.cfg t.spool a
               with e ->
                 Protocol.analyze_response
                   ~name:(Option.value ~default:"<inline>"
                            (match a.Protocol.a_path with
                            | Some _ as p -> p
                            | None -> a.Protocol.a_file))
                   (Error (Fault.of_exn e))
             in
             post t id response))

(* A connection is ready for its next buffered request once nothing is
   in flight and nothing is waiting to be written. *)
let advance t (c : conn) =
  if
    (not c.busy)
    && (not c.closing)
    && Bytes.length c.outbuf = 0
    && not t.draining
  then match pop_line c with None -> () | Some line -> dispatch t c line

let drain_completions t =
  let pending = Queue.create () in
  Mutex.lock t.cm;
  Queue.transfer t.completions pending;
  Mutex.unlock t.cm;
  Queue.iter
    (fun (id, response) ->
      t.inflight <- t.inflight - 1;
      match Hashtbl.find_opt t.conns id with
      | None -> () (* client hung up mid-request: drop the response *)
      | Some c ->
          log t.cfg "conn %d: response ready (%d bytes)" c.id
            (String.length response);
          c.busy <- false;
          send_line c response)
    pending

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
            inbuf = Buffer.create 256;
            in_lines = 0;
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
  (* supervised worker processes spawn before the domain pool exists:
     fewer inherited threads, and the exec discipline keeps later
     respawns safe from any domain *)
  let spool =
    if config.supervise then
      Some (Supervise.create ?jobs:config.jobs ?heartbeat:config.heartbeat ())
    else None
  in
  let t =
    {
      cfg = config;
      pool = Parallel.Pool.create ?jobs:config.jobs ();
      spool;
      listen_fd;
      sock_path;
      wake_r;
      wake_w;
      conns = Hashtbl.create 16;
      completions = Queue.create ();
      cm = Mutex.create ();
      next_id = 0;
      inflight = 0;
      draining = false;
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
  log config "listening (%d worker domain%s)"
    (Parallel.Pool.jobs t.pool)
    (if Parallel.Pool.jobs t.pool = 1 then "" else "s");
  let listening = ref true in
  let finished () =
    t.draining && Hashtbl.length t.conns = 0 && t.inflight = 0
  in
  while not (finished ()) do
    if Atomic.get t.stop_requested && not t.draining then begin
      log config "signal received, draining";
      t.draining <- true
    end;
    if t.draining && !listening then begin
      listening := false;
      try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
    end;
    (* when draining, idle connections go away now; busy or unflushed
       ones finish first — that is the graceful part *)
    if t.draining then
      List.iter
        (fun (c : conn) ->
          if (not c.busy) && Bytes.length c.outbuf = 0 then close_conn t c)
        (conn_list t);
    if not (finished ()) then begin
      let conns = conn_list t in
      let reads =
        (t.wake_r :: (if !listening then [ t.listen_fd ] else []))
        @ List.map (fun (c : conn) -> c.fd) conns
      in
      let writes =
        List.filter_map
          (fun (c : conn) ->
            if Bytes.length c.outbuf > c.outpos then Some c.fd else None)
          conns
      in
      match Unix.select reads writes [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, writable, _ ->
          if List.mem t.wake_r readable then drain_wake_pipe t;
          drain_completions t;
          if !listening && List.mem t.listen_fd readable then accept_all t;
          List.iter
            (fun (c : conn) ->
              if List.mem c.fd readable && Hashtbl.mem t.conns c.id then
                handle_read t c)
            conns;
          List.iter
            (fun (c : conn) ->
              if List.mem c.fd writable && Hashtbl.mem t.conns c.id then
                handle_write t c)
            conns;
          List.iter
            (fun (c : conn) ->
              (* advance, then opportunistically flush (short responses
                 usually fit the socket buffer, saving a select
                 round-trip) — and if that flush drained the response
                 with more pipelined lines buffered, go again: no fd
                 event will ever fire for bytes already in [inbuf], so
                 stopping here would stall the connection forever.
                 Terminates because each iteration past the first
                 consumes a buffered line. *)
              let rec pump () =
                if Hashtbl.mem t.conns c.id then begin
                  advance t c;
                  if Bytes.length c.outbuf > c.outpos then begin
                    handle_write t c;
                    if
                      Hashtbl.mem t.conns c.id
                      && Bytes.length c.outbuf = 0
                      && c.in_lines > 0
                    then pump ()
                  end
                end
              in
              pump ())
            conns
    end
  done;
  log config "drained, shutting down workers";
  Parallel.Pool.shutdown t.pool;
  Option.iter Supervise.shutdown t.spool;
  if !listening then (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  (match sock_path with
  | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | None -> ());
  log config "bye"
