(** A whole program: the resolved class table plus one CFG body per
    method (builtins included).

    Bodies are lowered on demand: {!of_sema} lowers nothing, and a
    method is lowered the first time {!body}, {!body_exn} or
    {!dispatch_body} asks for it, then memoized. {!iter_bodies},
    {!fold_bodies}, {!user_bodies} and {!n_instrs} lower every method
    they visit. A body does not depend on which bodies were lowered
    before it.

    A [t] is used by one domain at a time: asking for a body may write
    the memo. Build one per task. *)

type t

val of_sema : Nadroid_lang.Sema.t -> t

val of_source : file:string -> string -> t

val sema : t -> Nadroid_lang.Sema.t

val body : t -> Instr.mref -> Cfg.body option
(** The body of a method declared by [mr_class]; [None] when that class
    declares no such method. *)

val body_exn : t -> Instr.mref -> Cfg.body

val dispatch_body : t -> cls:string -> meth:string -> Cfg.body option
(** The most-derived implementation reached when calling [meth] on a
    dynamic instance of [cls]. *)

val iter_bodies : (Cfg.body -> unit) -> t -> unit
(** Every method's body, in declaration order. *)

val fold_bodies : ('a -> Cfg.body -> 'a) -> 'a -> t -> 'a

val user_bodies : t -> Cfg.body list
(** Bodies of user-declared (non-builtin) methods, in declaration
    order. *)

val n_instrs : t -> int

val lower_time : t -> float
(** Seconds spent lowering the bodies lowered so far. *)

val n_lowered : t -> int
(** Bodies lowered so far. *)
