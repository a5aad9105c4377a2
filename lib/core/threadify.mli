(** Threadification (paper §4): model event callbacks as threads.

    The transformed program is a forest: a dummy main thread (the
    initial looper) spawns one modeled thread per Entry Callback;
    Posted Callbacks become children of the callback/thread that posted
    them, preserving the poster-to-postee lineage used both by the PHB
    filter and by the §7 triage report. Recursion through self-reposting
    callbacks is cut when a thread's entry instance already occurs in
    its ancestor chain. *)

open Nadroid_analysis
module IntSet = Pta.IntSet

type kind =
  | Dummy_main
  | Entry_cb of Nadroid_android.Callback.kind  (** EC: child of the dummy main *)
  | Posted_cb of Nadroid_android.Callback.kind  (** PC: child of its poster *)
  | Native_thread  (** Thread.start / Executor.execute target *)
  | Async_background  (** AsyncTask.doInBackground *)

val pp_kind : kind Fmt.t

type origin = O_main | O_root of Pta.root | O_edge of Pta.call_edge

type thread = {
  th_id : int;
  th_kind : kind;
  th_entry : int;  (** entry instance id; -1 for the dummy main *)
  th_parent : int option;
  th_origin : origin;
  th_class : string;
  th_method : string;
  th_component : string option;  (** component of the EC ancestor *)
}

type t = {
  threads : thread array;
  pta : Pta.t;
}

val on_looper : thread -> bool
(** Does this modeled thread execute on the (single) main looper? *)

val is_callback : thread -> bool

val kind_of_edge : Nadroid_lang.Sema.t -> Pta.call_edge -> callee:Pta.instance -> kind
(** The kind of thread an API edge creates, from the API kind and the
    callee's method name.
    @raise Invalid_argument on an edge that creates no thread. *)

val run : ?deadline:float -> Pta.t -> t
(** Build the thread forest. A thread's children come from the API edges
    leaving its own intra-thread instances, found through an index by
    caller and created in edge-list order, so the work grows with the
    forest, not with threads x API edges. [deadline] (absolute monotonic
    {!Nadroid_clock.Clock.now} instant) is checked once per thread expansion; a partial forest would
    silently drop warnings, so expiry raises
    [Fault (Budget P_modeling)] rather than degrading. *)

val threads : t -> thread list

val thread : t -> int -> thread

val n_threads : t -> int

val instances_of : t -> thread -> IntSet.t
(** Instances executed by the thread (entry closed under ordinary calls). *)

val parent : t -> thread -> thread option

val ancestors : t -> thread -> thread list

val is_ancestor : t -> anc:thread -> desc:thread -> bool

val lineage : t -> thread -> string
(** The poster-to-postee chain shown to programmers (§7). *)

val table1_thread_count : t -> int
(** Thread count in Table 1's sense: dummy main + doInBackground +
    native threads. *)

val pp_thread : thread Fmt.t

val to_dot : t -> string
(** Graphviz rendering of the forest, for report triage. *)

val pp_forest : t Fmt.t
