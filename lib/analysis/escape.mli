(** Thread-escape analysis (paper §5).

    An abstract object escapes when it is reachable by more than one
    abstract thread (entry-callback root or framework-dispatched
    callback / spawned thread) or through a static field; races are only
    reported on escaping objects. *)

module IntSet = Pta.IntSet

type t = {
  escaping : IntSet.t;  (** object ids accessible to >= 2 threads or statics *)
}

val thread_entries : Pta.t -> int list
(** Root instances plus targets of API edges: the nodes threadification
    turns into threads. *)

val run : Pta.t -> t
(** One pass over the points-to cells, linear in their size: the work
    does not grow with the number of thread entries. *)

val escapes : t -> int -> bool

val n_escaping : t -> int
