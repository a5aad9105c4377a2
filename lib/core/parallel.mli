(** Domain parallelism (OCaml 5 [Domain]/[Mutex]): one batch scheduler
    and one persistent pool.

    - {!stream}: the batch engine — a work-stealing scheduler that emits
      results in input order with bounded memory; {!map_result} collects
      its emissions into a list. Tasks must not share mutable state.
    - {!Pool}: a persistent pool for long-lived processes (the serve
      daemon) — create once, submit tasks as requests arrive, await
      their futures, shut down gracefully (queued work drains first). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val clamp_jobs : int -> int
(** A requested [--jobs], lowered to {!default_jobs} when above it, with
    one line on stderr saying so: more domains than cores only
    oversubscribes them, and every extra domain joins each minor
    collection. {!stream} and {!Pool.create} take their [jobs] as
    given; the commands that read [--jobs] from a user clamp it here
    first. *)

module Pool : sig
  type t
  (** A fixed set of worker domains sharing one task queue. *)

  type 'a future
  (** The pending result of a submitted task. *)

  val create : ?jobs:int -> unit -> t
  (** Spawn [jobs] workers (default {!default_jobs}, min 1). *)

  val jobs : t -> int
  (** Worker-domain count of the pool. *)

  val submit : t -> (unit -> 'a) -> 'a future
  (** Enqueue a task. Tasks start in submission order (completion order
      depends on scheduling). @raise Invalid_argument after
      {!shutdown}. *)

  val await : 'a future -> ('a, exn) result
  (** Block until the task finishes; its exception, if any, is captured
      in the result, never re-raised into the awaiting domain. *)

  val shutdown : t -> unit
  (** Graceful: stop accepting work, let the workers drain the queue,
      then join them. Idempotent. *)
end

val window : int
(** Admission window of {!stream}: at most this many indices (256,
    floored at [2*jobs]) are past the emission watermark at once. *)

val stream : ?jobs:int -> n:int -> (int -> 'b) -> (int -> ('b, exn) result -> unit) -> unit
(** [stream ~n f emit] computes [f 0 .. f (n-1)] on up to [jobs] domains
    (default {!default_jobs}, counting the caller) and calls
    [emit i result] for every index in strict input order. A task's
    exception is captured as [Error] in its own slot while the remaining
    items still run — one poisoned input cannot lose the batch. An idle
    worker steals the back half of the longest peer deque, so one
    straggler never strands the work queued behind it. At most {!window}
    indices are in flight, so memory stays bounded independent of [n].
    [emit] is serialized on one domain at a time and must not re-enter
    this module. If [emit] raises, no further results are emitted and
    the exception is re-raised in the caller after in-flight tasks
    finish. [jobs = 1] runs everything sequentially in the calling
    domain with no spawns. *)

val map_result : ?jobs:int -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** [f] applied to every element through {!stream}: results in input
    order at any [jobs], each task's exception captured in its own
    slot. *)
