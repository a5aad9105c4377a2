(** Deterministic fault injection at the runtime's I/O and process
    seams.

    Production seams (cache reads/writes/renames, journal appends,
    worker spawns and pipes, server accept/send) call {!trip} with
    their {!site}. Unarmed, a trip is one atomic load. Armed, the plan
    decides deterministically whether and how the trip fires —
    raising the [Unix_error (EIO, "faultinject", _)] a failing kernel
    would produce, or delivering SIGKILL/SIGABRT/SIGTERM to self, or
    wedging — so crash-survival machinery can be driven from tests and
    CI with reproducible, scheduling-independent fault patterns.

    Plans are armed programmatically ({!arm_spec}, {!arm_seeded}) or
    from the {!env_var} environment variable ({!init_from_env}), which
    supervised worker processes inherit. *)

type site =
  | Cache_read
  | Cache_write
  | Cache_rename
  | Journal_append
  | Worker_spawn
  | Worker_pipe_read
  | Worker_task
  | Server_accept
  | Server_send
  | Filter
      (** once per warning in {!Filters.apply_counted_deadline}, keyed by
          the filter's name; only deadlined analyses reach it *)

val all_sites : site list

val site_to_string : site -> string

val site_of_string : string -> site option

(** How a firing trip manifests: [Raise] a [Unix_error (EIO, _, _)];
    [Kill]/[Abort]/[Term] the calling process with the corresponding
    signal (Kill and Abort do not return); [Wedge] blocks for an hour
    (heartbeat-timeout coverage); [Stall] sleeps about a millisecond and
    returns (a slow filter, for deadline coverage). *)
type action = Raise | Kill | Abort | Term | Wedge | Stall

val action_to_string : action -> string

(** [arm_spec spec] arms the plan described by [spec]:
    [entry (';' entry)*] where an entry is
    ["site:N\[:action\]"] (fire on the Nth occurrence of the site in
    this process), ["site=KEY\[:action\]"] (fire on every occurrence
    whose caller-provided key matches), or seeded-mode configuration
    ["seed=N"], ["rate=F"], ["sites=a+b"] (every occurrence of the
    listed sites fires with probability [rate], decided by a hash of
    seed, site and occurrence index; without [sites=], every site but
    [filter]). The default action is [raise].
    An empty spec disarms. Arming resets occurrence and fire
    counters. *)
val arm_spec : string -> (unit, string) result

(** [arm_seeded ~seed ~rate ~sites ()] arms only the seeded mode. *)
val arm_seeded : seed:int -> rate:float -> sites:site list -> unit -> unit

val disarm : unit -> unit

val armed : unit -> bool

(** Number of trips that fired since the last arming. *)
val fires : unit -> int

(** [trip ?key site] — called by the instrumented seams. Raises or
    signals per the armed plan; a no-op when unarmed. [key] names the
    work item at sites where a per-item match is meaningful (e.g. the
    basename of the file a worker is about to analyze). *)
val trip : ?key:string -> site -> unit

(** Name of the environment variable ([NADROID_FAULTS]) holding a spec
    for {!init_from_env}. *)
val env_var : string

(** Arm from {!env_var} if set; [Ok ()] when unset. *)
val init_from_env : unit -> (unit, string) result
