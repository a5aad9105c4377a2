(* k-object-sensitive points-to analysis with Android framework rules.

   This is the Chord substitute (§5): a field-sensitive, flow-insensitive,
   k-object-sensitive (k configurable, default 2) points-to analysis whose
   on-the-fly call graph includes the framework's callback dispatch:
   posting a Runnable creates an edge to its [run], binding a service
   connection creates edges to [onServiceConnected]/[onServiceDisconnected],
   and so on (see {!Nadroid_android.Api}).

   Roots are the entry callbacks of discovered components; the framework
   is modelled as allocating one object per component ("dummy main").

   Two solvers share the transfer functions:

   - [Reference]: iterate every reachable method instance to a fixpoint.
     Each pass re-executes all transfers, so the cost per pass is the
     whole reachable program even when one cell changed.
   - [Worklist] (default): dependency-tracked. Each visit records which
     points-to cells the instance reads; updating a cell re-enqueues
     only its readers. The worklist deliberately emulates the reference
     pass structure — dirty instances are drained in ascending id order,
     an update lands in the current round when its reader sits ahead of
     the cursor and in the next round otherwise, and instances interned
     mid-round wait for the next round — so both solvers intern objects,
     instances and call edges in the same order and reach bit-identical
     states. Clean instances' transfers are no-ops (transfers are
     monotone functions of the cells they read), so skipping them never
     loses facts; the equivalence is gated by a qcheck property and the
     golden corpus reports. *)

module Clock = Nadroid_clock.Clock
open Nadroid_lang
open Nadroid_ir
open Nadroid_android

(* -- abstract objects and contexts -------------------------------------- *)

type ctx = Instr.alloc_site list
(** method context: receiver's allocation string, length <= k *)

type obj = { o_site : Instr.alloc_site; o_hctx : ctx  (** length <= k-1 *) }

let pp_ctx ppf ctx =
  Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ",") Instr.pp_alloc_site) ctx

let pp_obj ppf o = Fmt.pf ppf "%a%a" Instr.pp_alloc_site o.o_site pp_ctx o.o_hctx

let obj_class o = o.o_site.Instr.as_class

let rec take n = function [] -> [] | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

type instance = { i_id : int; i_mref : Instr.mref; i_ctx : ctx }
(** a context-qualified method: the unit of analysis *)

let pp_instance ppf i = Fmt.pf ppf "%a%a" Instr.pp_mref i.i_mref pp_ctx i.i_ctx

type edge_kind = E_ordinary | E_api of Api.kind

type call_edge = {
  ce_from : int;  (** caller instance id *)
  ce_instr : Instr.t;  (** the call instruction *)
  ce_kind : edge_kind;
  ce_to : int;  (** callee instance id *)
}

type root = {
  r_instance : int;
  r_component : Component.t;
  r_method : string;
  r_cb_kind : Callback.kind;
  r_recv : int;  (** object id of the component instance *)
}

(* -- pointer nodes ------------------------------------------------------- *)

(* Field names are interned to dense ints, so every pointer node is
   all-int: the pts/deps tables are probed a few times per transfer step,
   and hashing a node must not walk a "Class.field" string each time.
   A field is interned at the first transfer that names it. Both solvers
   visit each instance for the first time in the same round and rounds
   in ascending instance order, so they meet fields in the same order,
   assign identical ids, and [equal_results] stays plain structural
   equality; scanning every body of the program up front (builtins and
   unreachable methods included) cost a tenth of the solve. *)
type node =
  | Nvar of int * int  (** (instance id, var slot) *)
  | Nfld of int * int  (** (object id, interned field id) *)
  | Nstatic of int  (** interned field id *)
  | Nret of int  (** return value of an instance *)

module IntSet = Set.Make (Int)

(* A points-to cell and the instances that have read it, stored together:
   the solver's hot path pairs almost every read with a reader
   registration and every write with a wake-up, so splitting the two
   across tables doubled the node hashing. *)
type cell = { mutable c_pts : IntSet.t; mutable c_readers : IntSet.t }

module NodeTbl = Hashtbl.Make (struct
  type t = node

  let equal (a : node) (b : node) =
    match (a, b) with
    | Nvar (i1, v1), Nvar (i2, v2) -> i1 = i2 && v1 = v2
    | Nfld (o1, f1), Nfld (o2, f2) -> o1 = o2 && f1 = f2
    | Nstatic f1, Nstatic f2 -> f1 = f2
    | Nret i1, Nret i2 -> i1 = i2
    | (Nvar _ | Nfld _ | Nstatic _ | Nret _), _ -> false

  (* all-int mixing; the generic [Hashtbl.hash] block walk is measurable
     at the solver's probe rate *)
  let hash = function
    | Nvar (i, v) -> (i * 0x9E3779B1) lxor (v * 0x85EBCA77) lxor 1
    | Nfld (o, f) -> (o * 0x9E3779B1) lxor (f * 0x85EBCA77) lxor 2
    | Nstatic f -> (f * 0x9E3779B1) lxor 3
    | Nret i -> (i * 0x9E3779B1) lxor 4
end)

let field_key (fr : Instr.fref) = fr.Sema.fr_class ^ "." ^ fr.Sema.fr_name

(* -- solver state -------------------------------------------------------- *)

type t = {
  prog : Prog.t;
  k : int;
  (* object interning *)
  obj_ids : (Instr.alloc_site * ctx, int) Hashtbl.t;
  mutable objs : obj array;
  mutable n_objs : int;
  (* instance interning, keyed by (method, receiver object): under k >= 1
     a receiver's allocation string is its context and no other object
     has it, so the key names the context without hashing it; under
     k = 0 every context is [] and the receiver slot is [shared_recv] *)
  inst_ids : (Instr.mref * int, int) Hashtbl.t;
  mutable insts : instance array;
  mutable inst_bodies : Cfg.body option array;  (* looked up once, at interning *)
  mutable n_insts : int;
  (* field-name interning: qualified name -> id, plus a per-fref memo so
     transfers skip the name concatenation *)
  field_ids : (string, int) Hashtbl.t;
  fref_ids : (Instr.fref, int) Hashtbl.t;
  thread_target_id : int;  (* the synthetic "Thread.target" field *)
  (* points-to sets, with per-cell reader tracking *)
  pts : cell NodeTbl.t;
  (* discovered call edges, deduped *)
  edge_seen : (int * int * int, unit) Hashtbl.t;  (* from, instr id, to *)
  mutable edges : call_edge list;
  mutable roots : root list;
  (* synthetic allocation sites, by tag *)
  synth_sites : (string, Instr.alloc_site) Hashtbl.t;
  (* synthetic argument objects, by (caller instance, call instr id, class) *)
  synth_args : (int * int * string, IntSet.t) Hashtbl.t;
  mutable changed : bool;
  mutable passes : int;
  (* resource budget: instruction transfers executed / allowed *)
  mutable steps : int;
  budget : int option;
  (* memory budget: live points-to tuples (cell, object) stored / allowed.
     Counted only when a ceiling is set, so unbudgeted runs pay nothing. *)
  mutable tuples : int;
  tuple_budget : int option;
  (* absolute wall-clock bound, checked every 1024 steps *)
  deadline : float option;
  (* worklist machinery — inert under the reference solver *)
  mutable sched_cur : Bytes.t;  (* dirty instances, current round *)
  mutable sched_next : Bytes.t;  (* dirty instances, next round *)
  mutable pending_next : int;  (* bits set in sched_next *)
  mutable cursor : int;  (* instance being visited; -1 outside a visit *)
  mutable round_limit : int;  (* n_insts snapshot at round start *)
  mutable tracking : bool;  (* worklist solve in progress *)
  mutable visits : int;  (* method-instance bodies executed *)
  (* lazily built adjacency over ordinary edges, for client traversals *)
  mutable succ_idx : (int, int list) Hashtbl.t option;
  (* memoized ordinary-call closures ({!intra_instances}): escape,
     threadification and detection all query the same entries *)
  intra_cache : (int, IntSet.t) Hashtbl.t;
}

type solver = Worklist | Reference

exception Out_of_budget

(* Fillers for the unused tail of the object and instance tables. They
   are allocated once: growing a table past the minor heap's size limit
   with a young fill value (say, the table's first element) forces a
   minor collection, which stops every domain. *)
let no_obj =
  {
    o_site =
      {
        Instr.as_method = { Instr.mr_class = ""; mr_name = "" };
        as_idx = 0;
        as_class = "";
        as_loc = Loc.dummy;
      };
    o_hctx = [];
  }

let no_instance = { i_id = 0; i_mref = { Instr.mr_class = ""; mr_name = "" }; i_ctx = [] }

let create ?(k = 2) ?budget ?tuple_budget ?deadline (prog : Prog.t) : t =
  (* Tables start at the size the solve is likely to need, so it does
     not spend itself growing them and rehashing string-bearing keys.
     The size follows the allocation sites, which track what the solve
     reaches: per site, a solve ends with about 1.2 instances, 2 objects
     and 7 cells on the corpus and on generated fleets alike. The
     declared method count would over-size a generated fleet app about
     7x, since the solve reaches one of its methods in eight. *)
  let sites = Sema.n_alloc_sites (Prog.sema prog) in
  let field_ids = Hashtbl.create sites in
  let thread_target_id = 0 in
  Hashtbl.add field_ids "Thread.target" thread_target_id;
  {
    prog;
    k;
    field_ids;
    fref_ids = Hashtbl.create sites;
    thread_target_id;
    obj_ids = Hashtbl.create (2 * sites);
    objs = Array.make (max 256 (2 * sites)) no_obj;
    n_objs = 0;
    inst_ids = Hashtbl.create sites;
    insts = Array.make (max 256 sites) no_instance;
    inst_bodies = Array.make (max 256 sites) None;
    n_insts = 0;
    pts = NodeTbl.create (8 * sites);
    edge_seen = Hashtbl.create sites;
    edges = [];
    roots = [];
    synth_sites = Hashtbl.create sites;
    synth_args = Hashtbl.create sites;
    changed = false;
    passes = 0;
    steps = 0;
    budget;
    tuples = 0;
    tuple_budget;
    deadline;
    sched_cur = Bytes.make (max 256 sites) '\000';
    sched_next = Bytes.make (max 256 sites) '\000';
    pending_next = 0;
    cursor = -1;
    round_limit = 0;
    tracking = false;
    visits = 0;
    succ_idx = None;
    intra_cache = Hashtbl.create sites;
  }

let obj t id = t.objs.(id)

let instance t id = t.insts.(id)

let inst_body t id = t.inst_bodies.(id)

(* Interned id of a field reference, interning it on first sight. *)
let fld t (fr : Instr.fref) =
  match Hashtbl.find_opt t.fref_ids fr with
  | Some id -> id
  | None ->
      let key = field_key fr in
      let id =
        match Hashtbl.find_opt t.field_ids key with
        | Some id -> id
        | None ->
            let id = Hashtbl.length t.field_ids in
            Hashtbl.add t.field_ids key id;
            id
      in
      Hashtbl.add t.fref_ids fr id;
      id

(* Mark instance [j] dirty. Updates land in the current round only when
   the ascending scan has not yet reached [j] and [j] was already part of
   the round's snapshot — exactly the instances whose reference-solver
   visit this pass would observe the update. Everything else (scanned
   already, the visiting instance itself, instances interned mid-round)
   waits for the next round, matching the reference's next pass. *)
let schedule t j =
  if j > t.cursor && j < t.round_limit then Bytes.set t.sched_cur j '\001'
  else if Bytes.get t.sched_next j <> '\001' then begin
    Bytes.set t.sched_next j '\001';
    t.pending_next <- t.pending_next + 1
  end

let intern_obj t site hctx : int =
  let key = (site, hctx) in
  match Hashtbl.find_opt t.obj_ids key with
  | Some id -> id
  | None ->
      let id = t.n_objs in
      t.n_objs <- id + 1;
      if id >= Array.length t.objs then begin
        let bigger = Array.make (2 * Array.length t.objs) no_obj in
        Array.blit t.objs 0 bigger 0 (Array.length t.objs);
        t.objs <- bigger
      end;
      t.objs.(id) <- { o_site = site; o_hctx = hctx };
      Hashtbl.add t.obj_ids key id;
      t.changed <- true;
      id

(* Method context for an invocation whose receiver is [o]. *)
let ctx_of_recv t (o : obj) : ctx = take t.k (o.o_site :: o.o_hctx)

(* Heap context for an allocation inside method context [ctx]. *)
let heap_ctx t (ctx : ctx) : ctx = take (max 0 (t.k - 1)) ctx

let shared_recv = -1

(* The instance of [mref] invoked on receiver object [recv]. Its context
   is built only when the instance is new. *)
let intern_instance t mref ~recv : int =
  let key = (mref, if t.k = 0 then shared_recv else recv) in
  match Hashtbl.find_opt t.inst_ids key with
  | Some id -> id
  | None ->
      let id = t.n_insts in
      t.n_insts <- id + 1;
      if id >= Array.length t.insts then begin
        let grow a fill =
          let bigger = Array.make (2 * Array.length a) fill in
          Array.blit a 0 bigger 0 (Array.length a);
          bigger
        in
        t.insts <- grow t.insts no_instance;
        t.inst_bodies <- grow t.inst_bodies None
      end;
      t.insts.(id) <- { i_id = id; i_mref = mref; i_ctx = ctx_of_recv t t.objs.(recv) };
      t.inst_bodies.(id) <- Prog.body t.prog mref;
      Hashtbl.add t.inst_ids key id;
      t.changed <- true;
      if id >= Bytes.length t.sched_cur then begin
        let grow b =
          let bigger = Bytes.make (2 * Bytes.length b) '\000' in
          Bytes.blit b 0 bigger 0 (Bytes.length b);
          bigger
        in
        t.sched_cur <- grow t.sched_cur;
        t.sched_next <- grow t.sched_next
      end;
      if t.tracking then schedule t id;
      id

let synth_site t ~tag ~cls : Instr.alloc_site =
  match Hashtbl.find_opt t.synth_sites tag with
  | Some s -> s
  | None ->
      let s =
        {
          Instr.as_method = { Instr.mr_class = "@framework"; mr_name = tag };
          as_idx = 0;
          as_class = cls;
          as_loc = Loc.dummy;
        }
      in
      Hashtbl.add t.synth_sites tag s;
      s

let is_synthetic_site (s : Instr.alloc_site) = String.equal s.Instr.as_method.Instr.mr_class "@framework"

(* -- points-to set operations ------------------------------------------- *)

(* Reads register the visiting instance as a reader of the cell. Reader
   sets only grow — sound because points-to sets only grow, so a stale
   reader's re-visit is at worst a no-op. Reading an absent cell under
   tracking materializes an empty cell to hold the reader; empty cells
   cost no tuples and are invisible to every client (unions and
   equality checks against the empty set). *)
let get_pts t node =
  match NodeTbl.find_opt t.pts node with
  | Some c ->
      if t.tracking && t.cursor >= 0 && not (IntSet.mem t.cursor c.c_readers) then
        c.c_readers <- IntSet.add t.cursor c.c_readers;
      c.c_pts
  | None ->
      if t.tracking && t.cursor >= 0 then
        NodeTbl.add t.pts node
          { c_pts = IntSet.empty; c_readers = IntSet.singleton t.cursor };
      IntSet.empty

(* Tuple accounting costs a [cardinal] per grown cell, so it is skipped
   entirely when no ceiling is set. A raise here discards the whole
   solver state, so the counter/table ordering is immaterial. *)
let bump_tuples t b delta =
  t.tuples <- t.tuples + delta;
  if t.tuples > b then raise Out_of_budget

let add_pts t node objs =
  if not (IntSet.is_empty objs) then
    match NodeTbl.find_opt t.pts node with
    | Some c ->
        (* most transfers re-add what a cell already holds: a subset test
           settles those without building the union and comparing it *)
        if not (IntSet.subset objs c.c_pts) then begin
          let u = IntSet.union c.c_pts objs in
          (match t.tuple_budget with
          | None -> ()
          | Some b -> bump_tuples t b (IntSet.cardinal u - IntSet.cardinal c.c_pts));
          c.c_pts <- u;
          t.changed <- true;
          if t.tracking then IntSet.iter (schedule t) c.c_readers
        end
    | None ->
        (match t.tuple_budget with
        | None -> ()
        | Some b -> bump_tuples t b (IntSet.cardinal objs));
        (* a cell nobody has read yet: no readers to wake *)
        NodeTbl.add t.pts node { c_pts = objs; c_readers = IntSet.empty };
        t.changed <- true

let add_obj t node oid = add_pts t node (IntSet.singleton oid)

(* -- call handling -------------------------------------------------------- *)

let record_edge t ~from ~(instr : Instr.t) ~kind ~target =
  let key = (from, instr.Instr.id, target) in
  if not (Hashtbl.mem t.edge_seen key) then begin
    Hashtbl.add t.edge_seen key ();
    t.edges <- { ce_from = from; ce_instr = instr; ce_kind = kind; ce_to = target } :: t.edges;
    t.succ_idx <- None;
    Hashtbl.reset t.intra_cache;
    t.changed <- true
  end

(* Bind a call: receiver object, argument nodes, optional return dst. *)
let bind_call t ~caller ~(instr : Instr.t) ~kind ~recv_obj ~(target : Sema.rmeth)
    ~(arg_pts : IntSet.t list) ~(dst : Instr.var option) =
  let mref = { Instr.mr_class = target.Sema.rm_class; mr_name = target.Sema.rm_name } in
  let callee = intern_instance t mref ~recv:recv_obj in
  record_edge t ~from:caller ~instr ~kind ~target:callee;
  match t.inst_bodies.(callee) with
  | None -> ()
  | Some body ->
      (* params.(0) is [this] *)
      let params = body.Cfg.params in
      (match params with
      | this :: rest ->
          add_obj t (Nvar (callee, this.Instr.v_id)) recv_obj;
          List.iteri
            (fun i p ->
              match List.nth_opt arg_pts i with
              | Some s -> add_pts t (Nvar (callee, p.Instr.v_id)) s
              | None -> ())
            rest
      | [] -> ());
      (match dst with
      | Some d -> add_pts t (Nvar (caller, d.Instr.v_id)) (get_pts t (Nret callee))
      | None -> ())

(* Dispatch [meth] on every object of [objs]; builtin (empty) bodies are
   skipped unless they are one of the real-bodied helpers. *)
let dispatch_objs t ~caller ~instr ~kind ~objs ~meth ~arg_pts ~dst =
  IntSet.iter
    (fun oid ->
      let cls = obj_class (obj t oid) in
      match Sema.dispatch (Prog.sema t.prog) cls meth with
      | None -> ()
      | Some m ->
          let decl = Sema.get_class (Prog.sema t.prog) m.Sema.rm_class in
          let real_builtin_body =
            match (m.Sema.rm_class, m.Sema.rm_name) with
            | "Thread", "init" | "Message", "init" -> true
            | _, _ -> false
          in
          if (not decl.Sema.rc_builtin) || real_builtin_body then
            bind_call t ~caller ~instr ~kind ~recv_obj:oid ~target:m ~arg_pts ~dst)
    objs

(* A synthetic framework-created argument object (Intent delivered to
   onReceive, View passed to onClick, ...). One per (callsite, class),
   memoized per caller instance: transfers re-run on every visit, and
   the tag and its site lookup are string work. *)
let synth_arg t ~caller ~(instr : Instr.t) ~cls : IntSet.t =
  let key = (caller, instr.Instr.id, cls) in
  match Hashtbl.find_opt t.synth_args key with
  | Some s -> s
  | None ->
      let m = (instance t caller).i_mref in
      let tag =
        String.concat ""
          [ "@arg:"; m.Instr.mr_class; "."; m.Instr.mr_name; "#"; string_of_int instr.Instr.id; ":"; cls ]
      in
      let s = IntSet.singleton (intern_obj t (synth_site t ~tag ~cls) []) in
      Hashtbl.add t.synth_args key s;
      s

(* -- instruction transfer -------------------------------------------------- *)

let transfer_call t ~caller (instr : Instr.t) dst recv ms args =
  let var v = Nvar (caller, v.Instr.v_id) in
  let recv_pts = get_pts t (var recv) in
  let arg_pts = List.map (fun a -> get_pts t (var a)) args in
  let kind = Api.classify ms in
  match kind with
  | Api.Other ->
      dispatch_objs t ~caller ~instr ~kind:E_ordinary ~objs:recv_pts ~meth:ms.Sema.ms_name
        ~arg_pts ~dst;
      (* opaque framework factory methods return synthetic objects *)
      if Api.opaque_builtin (Prog.sema t.prog) ms then begin
        match (dst, ms.Sema.ms_ret) with
        | Some d, Ast.Tclass cls ->
            add_pts t (var d) (synth_arg t ~caller ~instr ~cls)
        | (Some _ | None), (Ast.Tint | Ast.Tbool | Ast.Tstring | Ast.Tvoid | Ast.Tclass _) -> ()
      end
  | Api.Spawn Api.Spawn_thread ->
      (* run() of the target runnable stored in the Thread object *)
      IntSet.iter
        (fun tid ->
          let targets = get_pts t (Nfld (tid, t.thread_target_id)) in
          dispatch_objs t ~caller ~instr ~kind:(E_api kind) ~objs:targets ~meth:"run"
            ~arg_pts:[] ~dst:None)
        recv_pts
  | Api.Spawn Api.Spawn_executor | Api.Post Api.Post_runnable ->
      let runnables = match arg_pts with r :: _ -> r | [] -> IntSet.empty in
      dispatch_objs t ~caller ~instr ~kind:(E_api kind) ~objs:runnables ~meth:"run" ~arg_pts:[]
        ~dst:None
  | Api.Spawn Api.Spawn_async_task ->
      List.iter
        (fun cb ->
          let cb_args =
            match cb with
            | "onProgressUpdate" -> [ IntSet.empty ]  (* int arg *)
            | _ -> []
          in
          dispatch_objs t ~caller ~instr ~kind:(E_api kind) ~objs:recv_pts ~meth:cb
            ~arg_pts:cb_args ~dst:None)
        (Api.triggered_callbacks kind)
  | Api.Post Api.Post_message ->
      let msg_pts =
        match (ms.Sema.ms_name, arg_pts) with
        | "sendMessage", m :: _ -> m
        | _, _ -> synth_arg t ~caller ~instr ~cls:"Message"
      in
      dispatch_objs t ~caller ~instr ~kind:(E_api kind) ~objs:recv_pts ~meth:"handleMessage"
        ~arg_pts:[ msg_pts ] ~dst:None
  | Api.Register reg ->
      let listeners = match arg_pts with l :: _ -> l | [] -> IntSet.empty in
      List.iter
        (fun cb ->
          let cb_args =
            match (reg, cb) with
            | Api.Reg_service, "onServiceConnected" ->
                [ synth_arg t ~caller ~instr ~cls:"Binder" ]
            | Api.Reg_service, _ -> []
            | Api.Reg_receiver, _ -> [ synth_arg t ~caller ~instr ~cls:"Intent" ]
            | (Api.Reg_click | Api.Reg_long_click), _ ->
                [ synth_arg t ~caller ~instr ~cls:"View" ]
            | Api.Reg_location, _ -> [ synth_arg t ~caller ~instr ~cls:"Location" ]
            | Api.Reg_sensor, _ -> [ IntSet.empty ]
          in
          dispatch_objs t ~caller ~instr ~kind:(E_api kind) ~objs:listeners ~meth:cb
            ~arg_pts:cb_args ~dst:None)
        (Api.triggered_callbacks kind)
  | Api.Cancel _ -> ()

let transfer_instr t ~caller (ins : Instr.t) =
  let var v = Nvar (caller, v.Instr.v_id) in
  match ins.Instr.i with
  | Instr.Move (d, s) -> add_pts t (var d) (get_pts t (var s))
  | Instr.Const _ -> ()
  | Instr.New (d, site, init, args) -> (
      let i = instance t caller in
      let oid = intern_obj t site (heap_ctx t i.i_ctx) in
      add_obj t (var d) oid;
      match init with
      | None -> ()
      | Some ms ->
          let arg_pts = List.map (fun a -> get_pts t (var a)) args in
          dispatch_objs t ~caller ~instr:ins ~kind:E_ordinary ~objs:(IntSet.singleton oid)
            ~meth:ms.Sema.ms_name ~arg_pts ~dst:None)
  | Instr.Getfield (d, o, fr) ->
      let f = fld t fr in
      IntSet.iter
        (fun oid -> add_pts t (var d) (get_pts t (Nfld (oid, f))))
        (get_pts t (var o))
  | Instr.Putfield (o, fr, s, Instr.Src_var) ->
      let f = fld t fr in
      let src = get_pts t (var s) in
      IntSet.iter (fun oid -> add_pts t (Nfld (oid, f)) src) (get_pts t (var o))
  | Instr.Putfield (_, _, _, Instr.Src_null) -> ()
  | Instr.Getstatic (d, fr) -> add_pts t (var d) (get_pts t (Nstatic (fld t fr)))
  | Instr.Putstatic (fr, s, Instr.Src_var) ->
      add_pts t (Nstatic (fld t fr)) (get_pts t (var s))
  | Instr.Putstatic (_, _, Instr.Src_null) -> ()
  | Instr.Call (dst, recv, ms, args) -> transfer_call t ~caller ins dst recv ms args
  | Instr.Intrinsic _ -> ()
  | Instr.Unop _ | Instr.Binop _ -> ()
  | Instr.Monitor_enter _ | Instr.Monitor_exit _ -> ()

(* Return statements feed the instance's return node. *)
let transfer_returns t ~caller (body : Cfg.body) =
  Array.iter
    (fun blk ->
      match blk.Cfg.b_term with
      | Cfg.Ret (Some v) -> add_pts t (Nret caller) (get_pts t (Nvar (caller, v.Instr.v_id)))
      | Cfg.Ret None | Cfg.Goto _ | Cfg.If _ -> ())
    body.Cfg.blocks

(* -- roots ---------------------------------------------------------------- *)

let seed_roots t =
  let sema = Prog.sema t.prog in
  let components = Component.discover sema in
  List.iter
    (fun (comp : Component.t) ->
      let site = synth_site t ~tag:("@component:" ^ comp.Component.cls) ~cls:comp.Component.cls in
      let recv = intern_obj t site [] in
      List.iter
        (fun (meth, cb_kind) ->
          match Sema.dispatch sema comp.Component.cls meth with
          | None -> ()
          | Some m ->
              let mref = { Instr.mr_class = m.Sema.rm_class; mr_name = m.Sema.rm_name } in
              let inst = intern_instance t mref ~recv in
              (match t.inst_bodies.(inst) with
              | None -> ()
              | Some body -> (
                  match body.Cfg.params with
                  | this :: rest ->
                      add_obj t (Nvar (inst, this.Instr.v_id)) recv;
                      (* framework-supplied arguments *)
                      List.iter
                        (fun (p : Instr.var) ->
                          let pty =
                            List.find_map
                              (fun (ty, name) ->
                                if String.equal name p.Instr.v_name then Some ty else None)
                              (match Sema.dispatch sema comp.Component.cls meth with
                              | Some m -> m.Sema.rm_params
                              | None -> [])
                          in
                          match pty with
                          | Some (Ast.Tclass cls) ->
                              let tag =
                                Fmt.str "@entryarg:%s.%s.%s" comp.Component.cls meth
                                  p.Instr.v_name
                              in
                              add_obj t
                                (Nvar (inst, p.Instr.v_id))
                                (intern_obj t (synth_site t ~tag ~cls) [])
                          | Some (Ast.Tint | Ast.Tbool | Ast.Tstring | Ast.Tvoid) | None -> ())
                        rest
                  | [] -> ()));
              t.roots <-
                {
                  r_instance = inst;
                  r_component = comp;
                  r_method = meth;
                  r_cb_kind = cb_kind;
                  r_recv = recv;
                }
                :: t.roots)
        comp.Component.entry_callbacks)
    components;
  t.roots <- List.rev t.roots

(* -- fixpoint -------------------------------------------------------------- *)

(* One budget tick per instruction transfer. The count is deterministic
   for a given program and k, which keeps budget-exhaustion behaviour
   reproducible in tests (unlike a wall-clock deadline). The deadline,
   when set, is sampled every 1024 ticks so an in-flight solve overruns
   by at most ~1024 transfers, at negligible per-tick cost. *)
let tick t =
  t.steps <- t.steps + 1;
  (match t.budget with
  | Some b when t.steps > b -> raise Out_of_budget
  | Some _ | None -> ());
  match t.deadline with
  | Some d when t.steps land 1023 = 0 && Clock.now () > d ->
      raise Out_of_budget
  | Some _ | None -> ()

let visit t i =
  match t.inst_bodies.(i) with
  | None -> ()
  | Some body ->
      t.visits <- t.visits + 1;
      Cfg.iter_instrs
        (fun ins ->
          tick t;
          transfer_instr t ~caller:i ins)
        body;
      transfer_returns t ~caller:i body

let solve_reference t =
  seed_roots t;
  t.changed <- true;
  while t.changed do
    t.changed <- false;
    t.passes <- t.passes + 1;
    (* iterate over a snapshot: new instances found this pass are
       processed in the next one *)
    let n = t.n_insts in
    for i = 0 to n - 1 do
      visit t i
    done
  done

(* Dependency-tracked fixpoint. Rounds mirror the reference passes: each
   round drains the dirty instances of a snapshot in ascending id order,
   so interning order — and with it every downstream id, edge order and
   report byte — matches {!solve_reference} exactly (see the header
   comment for the argument). *)
let solve_worklist t =
  t.tracking <- true;
  seed_roots t;
  while t.pending_next > 0 do
    let drained = t.sched_cur in
    t.sched_cur <- t.sched_next;
    t.sched_next <- drained;
    Bytes.fill t.sched_next 0 (Bytes.length t.sched_next) '\000';
    t.pending_next <- 0;
    t.passes <- t.passes + 1;
    t.round_limit <- t.n_insts;
    let i = ref 0 in
    while !i < t.round_limit do
      if Bytes.get t.sched_cur !i = '\001' then begin
        Bytes.set t.sched_cur !i '\000';
        t.cursor <- !i;
        visit t !i;
        t.cursor <- -1
      end;
      incr i
    done;
    t.round_limit <- 0
  done;
  t.tracking <- false

let solve ?(solver = Worklist) t =
  match solver with Worklist -> solve_worklist t | Reference -> solve_reference t

(* -- result API ------------------------------------------------------------ *)

let run ?solver ?k prog =
  let t = create ?k prog in
  solve ?solver t;
  t

let run_reference ?k prog = run ~solver:Reference ?k prog

let run_budgeted ?steps ?tuples ?deadline ?solver ?k prog =
  let t = create ?k ?budget:steps ?tuple_budget:tuples ?deadline prog in
  match solve ?solver t with () -> Some t | exception Out_of_budget -> None

let pts_var t ~inst ~(v : Instr.var) : IntSet.t = get_pts t (Nvar (inst, v.Instr.v_id))

let pts_field t ~obj_id ~(fr : Instr.fref) : IntSet.t = get_pts t (Nfld (obj_id, fld t fr))

let pts_static t (fr : Instr.fref) : IntSet.t = get_pts t (Nstatic (fld t fr))

let instances t = Array.to_list (Array.sub t.insts 0 t.n_insts)

let n_instances t = t.n_insts

let n_objects t = t.n_objs

let edges t = t.edges

let roots t = t.roots

let passes t = t.passes

let visits t = t.visits

let steps t = t.steps

let tuples t = t.tuples

(* Structural equality of two solved states — interning tables, points-to
   sets, call edges and roots. Used by the worklist/reference equivalence
   gate; because the worklist emulates the reference interning order this
   is plain equality, not equality-modulo-renaming. *)
let equal_results a b =
  let pts_subset p q =
    NodeTbl.fold
      (fun node c acc ->
        acc
        && IntSet.equal c.c_pts
             (match NodeTbl.find_opt q node with
             | Some c' -> c'.c_pts
             | None -> IntSet.empty))
      p true
  in
  a.n_objs = b.n_objs
  && a.n_insts = b.n_insts
  && Array.sub a.objs 0 a.n_objs = Array.sub b.objs 0 b.n_objs
  && Array.sub a.insts 0 a.n_insts = Array.sub b.insts 0 b.n_insts
  && pts_subset a.pts b.pts && pts_subset b.pts a.pts
  && a.edges = b.edges && a.roots = b.roots

(* Ordinary-call successors of an instance (intra-thread closure), off a
   lazily built adjacency index: client traversals (escape, lockset)
   query successors for every reachable instance, so the former full
   [edges] scan per query was quadratic in practice. Bucket order matches
   the order the full scan produced. *)
let ordinary_succs t inst =
  let idx =
    match t.succ_idx with
    | Some idx -> idx
    | None ->
        let idx = Hashtbl.create (max 64 t.n_insts) in
        List.iter
          (fun e ->
            if e.ce_kind = E_ordinary then
              Hashtbl.replace idx e.ce_from
                (e.ce_to :: Option.value ~default:[] (Hashtbl.find_opt idx e.ce_from)))
          t.edges;
        Hashtbl.filter_map_inplace (fun _ succs -> Some (List.rev succs)) idx;
        t.succ_idx <- Some idx;
        idx
  in
  Option.value ~default:[] (Hashtbl.find_opt idx inst)

(* Instances reachable from [entry] through ordinary calls, memoized:
   every downstream client (escape, forest expansion, access collection,
   filters) closes over the same thread entries. The closure is its own
   visited set: closures hold a handful of instances, so a per-entry
   program-sized mark array cost entries x instances. *)
let intra_instances t entry : IntSet.t =
  match Hashtbl.find_opt t.intra_cache entry with
  | Some s -> s
  | None ->
      let rec go i acc =
        if IntSet.mem i acc then acc
        else List.fold_left (fun acc j -> go j acc) (IntSet.add i acc) (ordinary_succs t i)
      in
      let s = go entry IntSet.empty in
      Hashtbl.replace t.intra_cache entry s;
      s
