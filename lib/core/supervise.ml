(* Supervised worker processes: per-app analysis in expendable children.

   PR 2's crash isolation catches exceptions; it cannot catch a SIGSEGV
   in the runtime, an OOM-kill, or a wedged analysis that ignores its
   deadline. This module moves each app's analysis into a child
   *process*, so any of those costs exactly one structured fault while
   the batch — or the serve daemon — keeps going.

   Mechanics:

   - Workers are spawned by fork+exec of [Sys.executable_name] with the
     [NADROID_SUPERVISED_WORKER] environment marker set. Re-executing
     (rather than bare fork) keeps respawn safe from any domain of a
     multi-domain parent — fork without exec may inherit another
     domain's held runtime locks; exec replaces the image. Host binaries
     call {!worker_check} as their first statement: in a marked process
     it runs the worker loop on stdin/stdout and never returns.

   - Requests and replies are {!Cache} codec frames over the two pipes,
     of kinds [worker-request] and [worker-reply]. Requests carry (file,
     source, config, cache settings); replies carry
     [(Cache.entry, Fault.t) result] — entries and faults are plain
     data, safe to Marshal, unlike a full [Pipeline.t].

   - The supervisor (any calling domain) checks a worker out, writes the
     request, and reads the reply with an optional heartbeat deadline.
     A worker that exits, dies on a signal, garbles a frame, answers
     under another version or misses the heartbeat is SIGKILLed, reaped
     and replaced; the request is retried on a fresh worker once. An
     app that takes down two consecutive workers is quarantined — its
     entry becomes a [Fault.Internal] naming the crash — because
     retrying a deterministic crasher forever would stall the fleet. *)

let env_var = "NADROID_SUPERVISED_WORKER"

type request = {
  q_file : string;
  q_source : string;
  q_config : Pipeline.config;
  q_cache : (string * int option) option;  (** cache dir, max bytes *)
}

(* The entry, with whether the worker's cache served it. *)
type reply = (Cache.entry * Cache.outcome, Fault.t) result

let request_kind : request Cache.kind = Cache.kind "worker-request"

let reply_kind : reply Cache.kind = Cache.kind "worker-reply"

(* -- frames over raw fds --------------------------------------------------- *)

exception Timeout

(* Write all of [s] to [fd], honouring [deadline] (absolute monotonic
   time). With a deadline the fd must be non-blocking: every chunk is
   gated by a deadline-bounded select, so a worker that wedges and stops
   draining its request pipe mid-frame — requests embed the full source,
   easily past pipe capacity — surfaces as [Timeout] instead of blocking
   the supervisor domain forever. *)
let write_all ?deadline fd s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec wait () =
    let left =
      match deadline with
      | None -> -1.0
      | Some d ->
          let left = d -. Nadroid_clock.Clock.now () in
          if left <= 0.0 then raise Timeout;
          left
    in
    match Unix.select [] [ fd ] [] left with
    | _, [], _ -> raise Timeout
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          wait ();
          go off
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* A buffered reader over one pipe end, kept for the fd's lifetime:
   bytes read past one frame belong to the next. A reply then costs
   about two read(2)s (its header with the start of the payload, then
   the rest) rather than one per header byte, plus, under a heartbeat,
   one select(2) per read. *)
type reader = { fd : Unix.file_descr; chunk : Bytes.t; mutable pos : int; mutable lim : int }

let reader fd = { fd; chunk = Bytes.create 65536; pos = 0; lim = 0 }

(* Refill an exhausted reader with one read, honouring [deadline]
   (absolute monotonic time) via select. Returns false on EOF. *)
let refill ?deadline r =
  (match deadline with
  | None -> ()
  | Some d ->
      let rec wait () =
        let left = d -. Nadroid_clock.Clock.now () in
        if left <= 0.0 then raise Timeout;
        match Unix.select [ r.fd ] [] [] left with
        | [], _, _ -> raise Timeout
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      wait ());
  let n = Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) in
  r.pos <- 0;
  r.lim <- n;
  n > 0

(* Append the next line and its newline to [buf]; return the line. [None]
   on EOF before any byte of it. *)
let read_line ?deadline r buf =
  let start = Buffer.length buf in
  let rec go () =
    if r.pos = r.lim && not (refill ?deadline r) then
      if Buffer.length buf = start then None else failwith "truncated frame header"
    else
      let rec scan i = if i < r.lim && Bytes.get r.chunk i <> '\n' then scan (i + 1) else i in
      let nl = scan r.pos in
      if nl < r.lim then begin
        Buffer.add_subbytes buf r.chunk r.pos (nl + 1 - r.pos);
        r.pos <- nl + 1;
        Some (Buffer.sub buf start (Buffer.length buf - start - 1))
      end
      else begin
        Buffer.add_subbytes buf r.chunk r.pos (r.lim - r.pos);
        r.pos <- r.lim;
        go ()
      end
  in
  go ()

(* Append exactly [n] more bytes to [buf]. Returns false on EOF. *)
let rec read_exactly ?deadline r buf n =
  if n = 0 then true
  else if r.pos = r.lim && not (refill ?deadline r) then false
  else begin
    let k = min n (r.lim - r.pos) in
    Buffer.add_subbytes buf r.chunk r.pos k;
    r.pos <- r.pos + k;
    read_exactly ?deadline r buf (n - k)
  end

(* The value of one [kind] frame from [r]. [None] on clean EOF at a
   frame boundary; raises [Failure] on a garbled frame, [Timeout] past
   the deadline. Lines that are not frame headers are skipped (up to a
   cap): a host binary's module initializers — test harnesses
   especially — may print to stdout before the worker loop claims the
   reply pipe, and that noise must not read as worker death. A frame
   header of another kind or version fails at once: the other end runs
   another build, whose payload must not be unmarshalled, and skipping
   it as noise would wait for a frame that never comes. *)
let read_frame (kind : 'a Cache.kind) ?deadline r : 'a option =
  let rec frames skipped =
    if skipped > 1_000_000 then failwith "no frame in 1MB of pipe output";
    let buf = Buffer.create 256 in
    match read_line ?deadline r buf with
    | None -> None
    | Some line -> (
        match Cache.header kind line with
        | Error Cache.Noise -> frames (skipped + String.length line + 1)
        | Error (Cache.Bad why) -> failwith why
        | Ok rest -> (
            if not (read_exactly ?deadline r buf rest) then failwith "truncated frame payload";
            match Cache.decode kind (Buffer.contents buf) 0 with
            | Ok (v, _) -> Some v
            | Error why -> failwith why))
  in
  frames 0

(* -- worker (child) side --------------------------------------------------- *)

let is_worker () = Sys.getenv_opt env_var <> None

let analyze_request (q : request) : reply =
  Fault.wrap (fun () ->
      (* the injection seam inside the worker: [Raise] here becomes a
         structured fault in this app's entry; [Kill]/[Abort]/[Wedge]
         manufacture the crashes the supervisor exists to survive *)
      Faultinject.trip ~key:(Filename.basename q.q_file) Faultinject.Worker_task;
      let dir = Option.map fst q.q_cache and max_bytes = Option.bind q.q_cache snd in
      Cache.analyze ~config:q.q_config ?max_bytes ?dir ~file:q.q_file q.q_source)

let worker_main () =
  (* claim the reply pipe: move it to a private fd and point fd 1 at
     stderr, so stray prints from the analysis (or any library) can
     never land inside a reply frame *)
  let reply_fd = Unix.dup Unix.stdout in
  Unix.dup2 Unix.stderr Unix.stdout;
  (* anything a module initializer buffered now drains to stderr *)
  flush stdout;
  (match Faultinject.init_from_env () with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "nadroid worker: bad %s: %s\n%!" Faultinject.env_var e;
      exit 2);
  ignore (Lazy.force Nadroid_lang.Builtins.program);
  let requests = reader Unix.stdin in
  let rec loop () =
    match read_frame request_kind requests with
    | None -> exit 0
    | Some q ->
        write_all reply_fd (Cache.encode reply_kind (analyze_request q));
        loop ()
  in
  try loop ()
  with
  | Failure _ | End_of_file ->
    (* garbled request stream: the supervisor is gone or confused
       either way this worker is done *)
    exit 1
  | Unix.Unix_error (Unix.EPIPE, _, _) -> exit 1

let worker_check () =
  if is_worker () then begin
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    worker_main ()
  end

(* -- supervisor (parent) side ---------------------------------------------- *)

type worker = {
  pid : int;
  w_in : Unix.file_descr;  (** write requests here *)
  w_out : reader;  (** read replies here *)
}

type t = {
  m : Mutex.t;
  avail : Condition.t;
  idle : worker Queue.t;
  mutable live : int;  (** workers alive, idle or checked out *)
  mutable down : bool;
  pool_jobs : int;
  heartbeat : float option;
}

let signal_name n =
  if n = Sys.sigkill then "SIGKILL"
  else if n = Sys.sigsegv then "SIGSEGV"
  else if n = Sys.sigabrt then "SIGABRT"
  else if n = Sys.sigterm then "SIGTERM"
  else if n = Sys.sigint then "SIGINT"
  else Printf.sprintf "signal %d" n

let status_string = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED n -> "killed by " ^ signal_name n
  | Unix.WSTOPPED n -> "stopped by " ^ signal_name n

(* Environment of a worker child: ours, minus any stale marker, plus the
   marker. NADROID_FAULTS (if set) passes through untouched — that is
   how injection specs reach seams inside workers. *)
let worker_env () =
  let keep e = not (String.length e > 0 && String.starts_with ~prefix:(env_var ^ "=") e) in
  let base = Array.to_list (Unix.environment ()) in
  Array.of_list (List.filter keep base @ [ env_var ^ "=1" ])

let spawn_one () : worker =
  Faultinject.trip Faultinject.Worker_spawn;
  (* all four ends close-on-exec: create_process dup2s req_r/resp_w onto
     the child's stdin/stdout (dup2 clears the flag on the copies), so
     the child keeps exactly those two — in particular it must NOT
     inherit req_w, or its own stdin would never see EOF at shutdown *)
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  match
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      (worker_env ()) req_r resp_w Unix.stderr
  with
  | pid ->
      Unix.close req_r;
      Unix.close resp_w;
      (* non-blocking on our write end only (the child's stdin copy is
         unaffected), so [write_all] can bound it with the heartbeat *)
      Unix.set_nonblock req_w;
      { pid; w_in = req_w; w_out = reader resp_r }
  | exception e ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ req_r; req_w; resp_r; resp_w ];
      raise e

(* Spawning can fail transiently (EAGAIN under fork pressure, injected
   faults); retry a few times before giving the worker up. *)
let try_spawn () : worker option =
  let rec go attempts =
    match spawn_one () with
    | w -> Some w
    | exception (Unix.Unix_error _ | Sys_error _) when attempts > 1 ->
        Unix.sleepf 0.01;
        go (attempts - 1)
    | exception (Unix.Unix_error _ | Sys_error _) -> None
  in
  go 3

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let reap w =
  (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
  close_quiet w.w_in;
  close_quiet w.w_out.fd;
  match Unix.waitpid [] w.pid with
  | _, status -> status_string status
  | exception Unix.Unix_error _ -> "unreaped"

let create ?jobs ?heartbeat () : t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let pool_jobs = max 1 (Option.value jobs ~default:(Parallel.default_jobs ())) in
  let t =
    {
      m = Mutex.create ();
      avail = Condition.create ();
      idle = Queue.create ();
      live = 0;
      down = false;
      pool_jobs;
      heartbeat;
    }
  in
  for _ = 1 to pool_jobs do
    match try_spawn () with
    | Some w ->
        Queue.push w t.idle;
        t.live <- t.live + 1
    | None -> ()
  done;
  t

let jobs t = t.pool_jobs

let checkout t : worker option =
  Mutex.lock t.m;
  let rec wait () =
    if t.down || t.live = 0 then None
    else if Queue.is_empty t.idle then begin
      Condition.wait t.avail t.m;
      wait ()
    end
    else Some (Queue.pop t.idle)
  in
  let w = wait () in
  Mutex.unlock t.m;
  w

let checkin t w =
  Mutex.lock t.m;
  Queue.push w t.idle;
  Condition.broadcast t.avail;
  Mutex.unlock t.m

(* The checked-out worker died: drop it from the live count and try to
   put a replacement into the pool. *)
let replace t w : string =
  let status = reap w in
  Mutex.lock t.m;
  t.live <- t.live - 1;
  Mutex.unlock t.m;
  (match try_spawn () with
  | Some w' ->
      Mutex.lock t.m;
      t.live <- t.live + 1;
      Queue.push w' t.idle;
      Condition.broadcast t.avail;
      Mutex.unlock t.m
  | None ->
      (* no replacement: wake waiters so they can observe live = 0 *)
      Mutex.lock t.m;
      Condition.broadcast t.avail;
      Mutex.unlock t.m);
  status

(* One attempt on one checked-out worker. [Ok reply] is a decoded reply;
   [Error reason] means the worker is unusable (dead, wedged, garbled,
   another build) and must be replaced. One heartbeat deadline bounds the
   whole exchange — writing the request as much as reading the reply,
   since a wedged worker can stop consuming either pipe. *)
let attempt t w request : (reply, string) result =
  let deadline =
    Option.map (fun h -> Nadroid_clock.Clock.now () +. h) t.heartbeat
  in
  match
    write_all ?deadline w.w_in request;
    Faultinject.trip Faultinject.Worker_pipe_read;
    read_frame reply_kind ?deadline w.w_out
  with
  | Some reply -> Ok reply
  | None -> Error "worker closed the pipe"
  | exception Timeout ->
      Error
        (Printf.sprintf "heartbeat timeout after %gs"
           (Option.value t.heartbeat ~default:0.0))
  | exception Failure what -> Error what
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "worker pipe: %s" (Unix.error_message e))

let analyze_outcome t ~(config : Pipeline.config) ?cache ~file (source : string) : reply =
  let request =
    Cache.encode request_kind
      { q_file = file; q_source = source; q_config = config; q_cache = cache }
  in
  let rec go crashes =
    match checkout t with
    | None ->
        Error
          (Fault.Internal
             (if t.down then "supervisor is shut down"
              else "supervisor has no live workers"))
    | Some w -> (
        match attempt t w request with
        | Ok reply ->
            checkin t w;
            reply
        | Error reason ->
            let status = replace t w in
            let crashes = crashes + 1 in
            if crashes >= 2 then
              Error
                (Fault.Internal
                   (Printf.sprintf
                      "%s quarantined: crashed %d consecutive workers (last: %s; worker %s)"
                      file crashes reason status))
            else go crashes)
  in
  go 0

let analyze t ~config ?cache ~file source =
  Result.map fst (analyze_outcome t ~config ?cache ~file source)

let shutdown t =
  Mutex.lock t.m;
  if t.down then Mutex.unlock t.m
  else begin
    t.down <- true;
    Condition.broadcast t.avail;
    (* wait for checked-out workers to come home before closing pipes *)
    while Queue.length t.idle < t.live do
      Condition.wait t.avail t.m
    done;
    let ws = List.of_seq (Queue.to_seq t.idle) in
    Queue.clear t.idle;
    t.live <- 0;
    Mutex.unlock t.m;
    (* closing the request pipe is the shutdown signal: the worker sees
       EOF and exits 0; reap in a second pass so they exit in parallel *)
    List.iter (fun w -> close_quiet w.w_in) ws;
    List.iter
      (fun w ->
        (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
        close_quiet w.w_out.fd)
      ws
  end
