(** k-object-sensitive points-to analysis with Android framework rules —
    the Chord substitute (paper §5).

    Field-sensitive, flow-insensitive, k-object-sensitive (k
    configurable; the paper's default is 2) points-to analysis whose
    on-the-fly call graph includes the framework's callback dispatch:
    posting a Runnable adds an edge to its [run], binding a service
    connection adds edges to the connection callbacks, starting a Thread
    dispatches its stored target, and so on. Roots are the entry
    callbacks of discovered components, whose instances the modelled
    framework ("dummy main") allocates. *)

open Nadroid_ir

module IntSet : Set.S with type elt = int

type ctx = Instr.alloc_site list
(** Method context: the receiver's allocation string, length <= k. *)

type obj = { o_site : Instr.alloc_site; o_hctx : ctx  (** length <= k-1 *) }

val pp_ctx : ctx Fmt.t

val pp_obj : obj Fmt.t

val obj_class : obj -> string

type instance = { i_id : int; i_mref : Instr.mref; i_ctx : ctx }
(** A context-qualified method: the unit of analysis. *)

val pp_instance : instance Fmt.t

type edge_kind = E_ordinary | E_api of Nadroid_android.Api.kind

type call_edge = {
  ce_from : int;  (** caller instance id *)
  ce_instr : Instr.t;
  ce_kind : edge_kind;
  ce_to : int;  (** callee instance id *)
}

type root = {
  r_instance : int;
  r_component : Nadroid_android.Component.t;
  r_method : string;
  r_cb_kind : Nadroid_android.Callback.kind;
  r_recv : int;  (** object id of the component instance *)
}

(** Pointer nodes; exposed so that client analyses (escape) can traverse
    the final points-to table. Field names are interned to dense ids at
    solver creation (in program order, so ids are a pure function of the
    program) — all-int nodes keep the hot pts/deps probes off string
    hashing. *)
type node =
  | Nvar of int * int  (** (instance id, var slot) *)
  | Nfld of int * int  (** (object id, interned field id) *)
  | Nstatic of int  (** interned field id *)
  | Nret of int

type cell = { mutable c_pts : IntSet.t; mutable c_readers : IntSet.t }
(** A points-to set and the instances that have read it (worklist
    dependency tracking), stored together: the solver probes both on
    nearly every transfer. [c_readers] is empty under the reference
    solver. An empty [c_pts] (a cell only ever read) is equivalent to
    the node being absent. *)

module NodeTbl : Hashtbl.S with type key = node

type t = {
  prog : Prog.t;
  k : int;
  obj_ids : (Instr.alloc_site * ctx, int) Hashtbl.t;
  mutable objs : obj array;
  mutable n_objs : int;
  inst_ids : (Instr.mref * int, int) Hashtbl.t;
      (** (method, receiver object) -> instance id; the receiver is -1
          under k = 0, where every context is [[]] *)
  mutable insts : instance array;
  mutable inst_bodies : Cfg.body option array;  (** instance id -> its body *)
  mutable n_insts : int;
  field_ids : (string, int) Hashtbl.t;  (** qualified field name -> id *)
  fref_ids : (Instr.fref, int) Hashtbl.t;  (** per-fref interning memo *)
  thread_target_id : int;  (** the synthetic "Thread.target" field *)
  pts : cell NodeTbl.t;  (** the final points-to table *)
  edge_seen : (int * int * int, unit) Hashtbl.t;
  mutable edges : call_edge list;
  mutable roots : root list;
  synth_sites : (string, Instr.alloc_site) Hashtbl.t;
  synth_args : (int * int * string, IntSet.t) Hashtbl.t;
      (** (caller instance, call instr id, class) -> synthetic argument *)
  mutable changed : bool;
  mutable passes : int;
  mutable steps : int;  (** instruction transfers executed so far *)
  budget : int option;  (** step budget; [None] = unbounded *)
  mutable tuples : int;
      (** live points-to tuples stored so far; counted only when
          [tuple_budget] is set *)
  tuple_budget : int option;  (** tuple ceiling; [None] = unbounded *)
  deadline : float option;
      (** absolute wall-clock bound, sampled every 1024 steps *)
  mutable sched_cur : Bytes.t;
  mutable sched_next : Bytes.t;
  mutable pending_next : int;
  mutable cursor : int;
  mutable round_limit : int;
  mutable tracking : bool;
  mutable visits : int;  (** method-instance bodies executed so far *)
  mutable succ_idx : (int, int list) Hashtbl.t option;
      (** lazily built ordinary-edge adjacency ({!ordinary_succs}) *)
  intra_cache : (int, IntSet.t) Hashtbl.t;
      (** entry instance -> intra-thread closure ({!intra_instances}) *)
}
(** Solver state, exposed read-only by convention after {!run}. *)

(** [Worklist] (default) re-visits only instances whose read cells
    changed; [Reference] re-executes every reachable instance each pass.
    Both reach bit-identical states — the worklist emulates the
    reference's interning order; see the implementation header. *)
type solver = Worklist | Reference

val run : ?solver:solver -> ?k:int -> Prog.t -> t
(** Solve to fixpoint. [k] defaults to 2, [solver] to [Worklist]. *)

val run_reference : ?k:int -> Prog.t -> t
(** {!run} with the snapshot-iterate-all reference solver — the oracle
    for the worklist equivalence property. *)

val run_budgeted :
  ?steps:int ->
  ?tuples:int ->
  ?deadline:float ->
  ?solver:solver ->
  ?k:int ->
  Prog.t ->
  t option
(** Like {!run} but bounded. [steps] caps instruction transfers (one step
    per transfer, so the bound is deterministic for a given program, [k]
    and [solver]; the worklist executes fewer transfers than the
    reference). [tuples] caps the live points-to table cardinality — a
    memory ceiling. [deadline] is an absolute monotonic ({!Nadroid_clock.Clock.now}) instant
    sampled every 1024 steps, so an in-flight solve overruns it by at
    most ~1024 transfers. Returns [None] when any bound is hit before the
    fixpoint is reached. *)

val equal_results : t -> t -> bool
(** Structural equality of two solved states: objects, instances,
    points-to sets, call edges and roots. *)

val obj : t -> int -> obj

val instance : t -> int -> instance

val inst_body : t -> int -> Cfg.body option
(** The body of an instance's method, looked up once when the instance
    was interned. *)

val is_synthetic_site : Instr.alloc_site -> bool

val field_key : Instr.fref -> string

val pts_var : t -> inst:int -> v:Instr.var -> IntSet.t

val pts_field : t -> obj_id:int -> fr:Instr.fref -> IntSet.t

val pts_static : t -> Instr.fref -> IntSet.t

val instances : t -> instance list

val n_instances : t -> int

val n_objects : t -> int

val edges : t -> call_edge list

val roots : t -> root list

val passes : t -> int

val visits : t -> int
(** Method-instance bodies executed during the solve — the measure of
    work the worklist saves over the reference solver. *)

val steps : t -> int
(** Instruction transfers executed during the solve. *)

val tuples : t -> int
(** Live points-to tuples stored during the solve; 0 unless a tuple
    ceiling was set (unbudgeted runs skip the accounting). *)

val ordinary_succs : t -> int -> int list
(** Ordinary-call successors of an instance (intra-thread closure);
    amortized O(out-degree) off a lazily built adjacency index. *)

val intra_instances : t -> int -> IntSet.t
(** Instances reachable from [entry] through ordinary (non-thread) call
    edges — the intra-thread closure. Memoized per entry; escape,
    threadify and the filters all share the one computation. *)
