(** Supervised worker processes: per-app analysis in expendable
    children.

    In-process crash isolation ({!Parallel.map_result}) catches
    exceptions; it cannot catch a SIGSEGV, an OOM-kill, or a wedged
    analysis. A supervised pool runs each app in a child process
    (fork+exec of [Sys.executable_name] with an environment marker) and
    talks to it over pipes in {!Cache} codec frames. A child that
    exits, dies on a signal, garbles a frame, answers under another
    {!Cache.version} or misses the heartbeat is killed, reaped and replaced, and the request retries
    once on a fresh worker; an app that crashes two consecutive workers
    is quarantined as a [Fault.Internal] entry. One app's death can
    therefore never cost more than its own entry.

    Every binary that hosts supervised workers must call
    {!worker_check} as its very first statement: in a marked child it
    runs the worker loop and never returns. *)

val env_var : string
(** The environment marker ([NADROID_SUPERVISED_WORKER]) distinguishing
    worker children from normal invocations. *)

val worker_check : unit -> unit
(** In a worker child (marker set): serve framed analysis requests on
    stdin/stdout until EOF, then exit — never returns. In a normal
    process: no-op. Must run before any CLI parsing. *)

val is_worker : unit -> bool

type t
(** A supervisor owning a fixed set of worker processes. Checkout,
    request and replacement are safe from any domain. *)

val create : ?jobs:int -> ?heartbeat:float -> unit -> t
(** Spawn [jobs] workers (default {!Parallel.default_jobs}, min 1).
    [heartbeat] bounds how long one request may stay unanswered before
    the worker is declared wedged and killed; omitted = unbounded. *)

val jobs : t -> int

val analyze :
  t ->
  config:Pipeline.config ->
  ?cache:string * int option ->
  file:string ->
  string ->
  (Cache.entry, Fault.t) result
(** [analyze t ~config ?cache ~file source] runs one app in a worker
    (blocking the calling domain, not the pool). [cache] is the worker's
    cache directory and optional byte cap. Structured faults raised by
    the analysis come back as [Error]; a worker crash retries once on a
    fresh worker and then quarantines the app. *)

val analyze_outcome :
  t ->
  config:Pipeline.config ->
  ?cache:string * int option ->
  file:string ->
  string ->
  (Cache.entry * Cache.outcome, Fault.t) result
(** {!analyze}, with the worker's cache outcome: [Hit] when its cache
    served the entry, [Miss] when it analysed the app ([Miss] always
    without [cache]). *)

val shutdown : t -> unit
(** Wait for checked-out workers to come home, then close their request
    pipes (EOF = clean worker exit) and reap them. Idempotent; later
    {!analyze} calls return a shutdown fault. *)

(**/**)

val reply_kind : (Cache.entry * Cache.outcome, Fault.t) result Cache.kind
(** The frame kind of a worker's reply (tests). *)

type reader
(** A buffered reader over one pipe end (tests). *)

val reader : Unix.file_descr -> reader

val read_frame : 'a Cache.kind -> ?deadline:float -> reader -> 'a option
(** The next [kind] frame's value, skipping noise lines; [None] on EOF
    at a frame boundary. Raises [Failure] on a garbled or foreign frame
    (tests). *)

val signal_name : int -> string

val status_string : Unix.process_status -> string
