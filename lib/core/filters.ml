(* False-positive filters (§6).

   Sound filters: Must-Happens-Before (MHB: Service, AsyncTask,
   Lifecycle), If-Guard (IG), Intra-Allocation (IA). Unsound filters:
   Resume-HB (RHB), Cancel-HB (CHB), Post-HB (PHB), Maybe-Allocation
   (MA), Used-for-Return (UR), Thread-Thread (TT).

   A filter is a predicate on a (warning, thread-pair); a warning is
   pruned once all of its thread pairs are pruned. The IG/IA/MA filters
   are atomicity-aware (§6.1.2): between looper callbacks they apply
   directly, across true threads only under a common lock — the unsound
   shortcut DEvA takes (applying them without atomicity) is available
   separately for the baseline comparison. *)

open Nadroid_lang
open Nadroid_ir
open Nadroid_android
open Nadroid_analysis
module IntSet = Pta.IntSet
module Clock = Nadroid_clock.Clock

type name = MHB | IG | IA | RHB | CHB | PHB | MA | UR | TT

let all_names = [ MHB; IG; IA; RHB; CHB; PHB; MA; UR; TT ]

let sound = [ MHB; IG; IA ]

let unsound = [ RHB; CHB; PHB; MA; UR; TT ]

let may_hb = [ RHB; CHB; PHB ]

let name_to_string = function
  | MHB -> "MHB"
  | IG -> "IG"
  | IA -> "IA"
  | RHB -> "RHB"
  | CHB -> "CHB"
  | PHB -> "PHB"
  | MA -> "MA"
  | UR -> "UR"
  | TT -> "TT"

let pp_name ppf n = Fmt.string ppf (name_to_string n)

type ctx = {
  tf : Threadify.t;
  esc : Escape.t;
  locks : Lockset.t;
  guards_cache : (string, Guards.t) Hashtbl.t;
  resume_cache : (string, Guards.t option) Hashtbl.t;
      (* component class -> guards of its onResume, [None] without one;
         RHB asks the same component once per surviving pair *)
  component_obj : (string, int) Hashtbl.t;  (* component class -> abstract object id *)
  cancel_cache : (int, (Api.cancel * IntSet.t * IntSet.t) list) Hashtbl.t;
      (* thread id -> its cancellation calls; CHB queries the same
         canceller once per surviving pair, and the scan walks every
         body the thread reaches *)
  atomic_ig : bool;
      (** true: IG/IA/MA require atomicity (nAdroid). false: DEvA-style
          unsound application regardless of concurrency. *)
}

let create_ctx ?(atomic_ig = true) ?deadline (tf : Threadify.t) (esc : Escape.t)
    (locks : Lockset.t) : ctx =
  let component_obj = Hashtbl.create 16 in
  (* Construction is cheap (one pass over the roots), so an expired
     deadline does not fault here: it just leaves the component map
     empty, which only disables CHB pruning — sound over-reporting — and
     the filter phase that follows will record itself as skipped. *)
  let expired = match deadline with Some d -> Clock.now () > d | None -> false in
  if not expired then
    List.iter
      (fun (r : Pta.root) ->
        Hashtbl.replace component_obj r.Pta.r_component.Component.cls r.Pta.r_recv)
      (Pta.roots tf.Threadify.pta);
  {
    tf;
    esc;
    locks;
    guards_cache = Hashtbl.create 64;
    resume_cache = Hashtbl.create 16;
    component_obj;
    cancel_cache = Hashtbl.create 16;
    atomic_ig;
  }

let guards_of ctx (mref : Instr.mref) : Guards.t =
  let key = mref.Instr.mr_class ^ "." ^ mref.Instr.mr_name in
  match Hashtbl.find_opt ctx.guards_cache key with
  | Some g -> g
  | None ->
      let body = Prog.body_exn ctx.tf.Threadify.pta.Pta.prog mref in
      let g = Guards.analyze body in
      Hashtbl.replace ctx.guards_cache key g;
      g

let thread ctx id = Threadify.thread ctx.tf id

(* -- MHB (sound, §6.1.1) ------------------------------------------------- *)

let same_origin_edge (a : Threadify.thread) (b : Threadify.thread) =
  match (a.Threadify.th_origin, b.Threadify.th_origin) with
  | Threadify.O_edge e1, Threadify.O_edge e2 ->
      e1.Pta.ce_from = e2.Pta.ce_from && e1.Pta.ce_instr.Instr.id = e2.Pta.ce_instr.Instr.id
  | (Threadify.O_main | Threadify.O_root _ | Threadify.O_edge _), _ -> false

let async_rank = function
  | Callback.Async `Pre -> Some 0
  | Callback.Async (`Progress | `Background) -> Some 1
  | Callback.Async `Post -> Some 2
  | Callback.Lifecycle _ | Callback.Service_lifecycle _ | Callback.Ui _ | Callback.System _
  | Callback.Service_conn _ | Callback.Receive | Callback.Handle_message
  | Callback.Runnable_run ->
      None

let thread_async_rank (th : Threadify.thread) =
  match th.Threadify.th_kind with
  | Threadify.Async_background -> Some 1
  | Threadify.Posted_cb k -> async_rank k
  | Threadify.Dummy_main | Threadify.Entry_cb _ | Threadify.Native_thread -> None

let service_mhb ~first ~second =
  let mid = [ "onStartCommand"; "onBind"; "onUnbind" ] in
  (String.equal first "onCreate"
   && (List.mem second mid || String.equal second "onDestroy"))
  || (String.equal second "onDestroy" && (List.mem first mid || String.equal first "onCreate"))

(* Prune when the use must happen before the free. *)
let mhb ctx w (tu_id, tf_id) =
  ignore w;
  let tu = thread ctx tu_id and tfr = thread ctx tf_id in
  (* MHB-Service: connected before disconnected, same binding *)
  let service =
    match (tu.Threadify.th_kind, tfr.Threadify.th_kind) with
    | ( Threadify.Posted_cb (Callback.Service_conn `Connected),
        Threadify.Posted_cb (Callback.Service_conn `Disconnected) ) ->
        same_origin_edge tu tfr
    | (Threadify.Dummy_main | Threadify.Entry_cb _ | Threadify.Posted_cb _
      | Threadify.Native_thread | Threadify.Async_background), _ ->
        false
  in
  (* MHB-AsyncTask: pre < {background, progress} < post, same execute *)
  let async =
    match (thread_async_rank tu, thread_async_rank tfr) with
    | Some r1, Some r2 -> r1 < r2 && same_origin_edge tu tfr
    | (Some _ | None), _ -> false
  in
  (* MHB-Lifecycle: onCreate first, onDestroy last, same component *)
  let lifecycle =
    match (tu.Threadify.th_kind, tfr.Threadify.th_kind) with
    | Threadify.Entry_cb ku, Threadify.Entry_cb kf -> (
        match (tu.Threadify.th_component, tfr.Threadify.th_component) with
        | Some c1, Some c2 when String.equal c1 c2 -> (
            match (ku, kf) with
            | (Callback.Lifecycle _ | Callback.Ui _), (Callback.Lifecycle _ | Callback.Ui _)
              ->
                Lifecycle.must_happen_before ~first:tu.Threadify.th_method
                  ~second:tfr.Threadify.th_method
            | Callback.Service_lifecycle _, Callback.Service_lifecycle _ ->
                service_mhb ~first:tu.Threadify.th_method ~second:tfr.Threadify.th_method
            | ( ( Callback.Lifecycle _ | Callback.Service_lifecycle _ | Callback.Ui _
                | Callback.System _ | Callback.Service_conn _ | Callback.Receive
                | Callback.Handle_message | Callback.Runnable_run | Callback.Async _ ),
                _ ) ->
                false)
        | (Some _ | None), _ -> false)
    | (Threadify.Dummy_main | Threadify.Entry_cb _ | Threadify.Posted_cb _
      | Threadify.Native_thread | Threadify.Async_background), _ ->
        false
  in
  service || async || lifecycle

(* -- IG / IA / MA (atomicity-aware) --------------------------------------- *)

(* Does the atomicity required by a check-then-use pattern hold for this
   thread pair? Same looper => callbacks are atomic w.r.t. each other;
   otherwise a common lock must protect both end points (§6.1.2). *)
let atomic ctx (w : Detect.warning) (tu : Threadify.thread) (tfr : Threadify.thread) =
  if not ctx.atomic_ig then true
  else if Threadify.on_looper tu && Threadify.on_looper tfr then true
  else
    Lockset.common_lock ctx.locks ~inst1:w.Detect.w_use.Detect.s_inst
      ~instr1:w.Detect.w_use.Detect.s_instr.Instr.id ~inst2:w.Detect.w_free.Detect.s_inst
      ~instr2:w.Detect.w_free.Detect.s_instr.Instr.id

let ig ctx (w : Detect.warning) (tu_id, tf_id) =
  Guards.is_guarded_use (guards_of ctx w.Detect.w_use.Detect.s_mref)
    ~instr:w.Detect.w_use.Detect.s_instr
  && atomic ctx w (thread ctx tu_id) (thread ctx tf_id)

let ia ctx (w : Detect.warning) (tu_id, tf_id) =
  Guards.is_must_alloc_use (guards_of ctx w.Detect.w_use.Detect.s_mref)
    ~instr:w.Detect.w_use.Detect.s_instr
  && atomic ctx w (thread ctx tu_id) (thread ctx tf_id)

let ma ctx (w : Detect.warning) (tu_id, tf_id) =
  Guards.is_maybe_alloc_use (guards_of ctx w.Detect.w_use.Detect.s_mref)
    ~instr:w.Detect.w_use.Detect.s_instr
  && atomic ctx w (thread ctx tu_id) (thread ctx tf_id)

(* -- RHB (unsound, §6.2.1) ------------------------------------------------ *)

let resume_guards ctx cls =
  match Hashtbl.find_opt ctx.resume_cache cls with
  | Some g -> g
  | None ->
      let prog = ctx.tf.Threadify.pta.Pta.prog in
      let g = Option.map Guards.analyze (Prog.dispatch_body prog ~cls ~meth:"onResume") in
      Hashtbl.replace ctx.resume_cache cls g;
      g

let rhb ctx (w : Detect.warning) (tu_id, tf_id) =
  let tu = thread ctx tu_id and tfr = thread ctx tf_id in
  match (tu.Threadify.th_kind, tfr.Threadify.th_kind) with
  | Threadify.Entry_cb _, Threadify.Entry_cb (Callback.Lifecycle _)
    when String.equal tfr.Threadify.th_method "onPause"
         && not (String.equal tu.Threadify.th_method "onPause") -> (
      match (tu.Threadify.th_component, tfr.Threadify.th_component) with
      | Some c1, Some c2 when String.equal c1 c2 -> (
          (* an allocation of the field in onResume restores the invariant *)
          match resume_guards ctx c1 with
          | None -> false
          | Some g -> Guards.may_allocates g w.Detect.w_field)
      | (Some _ | None), _ -> false)
  | (Threadify.Dummy_main | Threadify.Entry_cb _ | Threadify.Posted_cb _
    | Threadify.Native_thread | Threadify.Async_background), _ ->
      false

(* -- CHB (unsound, §6.2.1) ------------------------------------------------ *)

(* Points-to of the argument/receiver of a thread-creating edge's call,
   evaluated in the poster's instance. *)
let edge_carrier_objs ctx (e : Pta.call_edge) ~(carrier : [ `Receiver | `Arg of int ]) =
  let pta = ctx.tf.Threadify.pta in
  match e.Pta.ce_instr.Instr.i with
  | Instr.Call (_, recv, _, args) -> (
      match carrier with
      | `Receiver -> Pta.pts_var pta ~inst:e.Pta.ce_from ~v:recv
      | `Arg i -> (
          match List.nth_opt args i with
          | Some a -> Pta.pts_var pta ~inst:e.Pta.ce_from ~v:a
          | None -> IntSet.empty))
  | Instr.Move _ | Instr.Const _ | Instr.New _ | Instr.Getfield _ | Instr.Putfield _
  | Instr.Getstatic _ | Instr.Putstatic _ | Instr.Intrinsic _ | Instr.Unop _ | Instr.Binop _
  | Instr.Monitor_enter _ | Instr.Monitor_exit _ ->
      IntSet.empty

(* The registration object a posted/registered victim thread hangs off. *)
let victim_listener_objs ctx (victim : Threadify.thread) =
  match victim.Threadify.th_origin with
  | Threadify.O_edge e -> (
      match e.Pta.ce_kind with
      | Pta.E_api k -> (
          match Api.carrier k with
          | Some c -> edge_carrier_objs ctx e ~carrier:c
          | None -> (
              (* Post_message: the handler is the receiver *)
              match e.Pta.ce_instr.Instr.i with
              | Instr.Call (_, recv, _, _) ->
                  Pta.pts_var ctx.tf.Threadify.pta ~inst:e.Pta.ce_from ~v:recv
              | Instr.Move _ | Instr.Const _ | Instr.New _ | Instr.Getfield _
              | Instr.Putfield _ | Instr.Getstatic _ | Instr.Putstatic _ | Instr.Intrinsic _
              | Instr.Unop _ | Instr.Binop _ | Instr.Monitor_enter _ | Instr.Monitor_exit _ ->
                  IntSet.empty))
      | Pta.E_ordinary -> IntSet.empty)
  | Threadify.O_main | Threadify.O_root _ -> IntSet.empty

(* All cancellation calls in a thread's reachable code, with their
   receiver/argument points-to. Memoized per thread. *)
let rec cancel_calls ctx (th : Threadify.thread) : (Api.cancel * IntSet.t * IntSet.t) list =
  match Hashtbl.find_opt ctx.cancel_cache th.Threadify.th_id with
  | Some calls -> calls
  | None ->
      let calls = cancel_calls_uncached ctx th in
      Hashtbl.replace ctx.cancel_cache th.Threadify.th_id calls;
      calls

and cancel_calls_uncached ctx (th : Threadify.thread) : (Api.cancel * IntSet.t * IntSet.t) list =
  let pta = ctx.tf.Threadify.pta in
  let prog = pta.Pta.prog in
  let out = ref [] in
  IntSet.iter
    (fun inst_id ->
      let inst = Pta.instance pta inst_id in
      match Prog.body prog inst.Pta.i_mref with
      | None -> ()
      | Some body ->
          Cfg.iter_instrs
            (fun ins ->
              match ins.Instr.i with
              | Instr.Call (_, recv, ms, args) -> (
                  match Api.classify ms with
                  | Api.Cancel c ->
                      let recv_pts = Pta.pts_var pta ~inst:inst_id ~v:recv in
                      let arg_pts =
                        match args with
                        | a :: _ -> Pta.pts_var pta ~inst:inst_id ~v:a
                        | [] -> IntSet.empty
                      in
                      out := (c, recv_pts, arg_pts) :: !out
                  | Api.Spawn _ | Api.Post _ | Api.Register _ | Api.Other -> ())
              | Instr.Move _ | Instr.Const _ | Instr.New _ | Instr.Getfield _
              | Instr.Putfield _ | Instr.Getstatic _ | Instr.Putstatic _ | Instr.Intrinsic _
              | Instr.Unop _ | Instr.Binop _ | Instr.Monitor_enter _ | Instr.Monitor_exit _ ->
                  ())
            body)
    (Threadify.instances_of ctx.tf th);
  !out

let overlaps a b = not (IntSet.is_empty (IntSet.inter a b))

(* Does a cancellation in [canceller] prevent [victim] from running
   afterwards? *)
let cancels ctx ~(canceller : Threadify.thread) ~(victim : Threadify.thread) =
  let victim_component_obj =
    match victim.Threadify.th_component with
    | Some c -> (
        match Hashtbl.find_opt ctx.component_obj c with
        | Some oid -> IntSet.singleton oid
        | None -> IntSet.empty)
    | None -> IntSet.empty
  in
  let listener = lazy (victim_listener_objs ctx victim) in
  List.exists
    (fun (c, recv_pts, arg_pts) ->
      match (c, victim.Threadify.th_kind) with
      | Api.Cancel_finish, Threadify.Entry_cb (Callback.Lifecycle _ | Callback.Ui _) ->
          overlaps recv_pts victim_component_obj
      | Api.Cancel_unbind, Threadify.Posted_cb (Callback.Service_conn _) ->
          overlaps arg_pts (Lazy.force listener)
      | Api.Cancel_unregister_receiver, Threadify.Posted_cb Callback.Receive ->
          overlaps arg_pts (Lazy.force listener)
      | ( Api.Cancel_remove_callbacks,
          Threadify.Posted_cb (Callback.Runnable_run | Callback.Handle_message) ) -> (
          (* same handler: compare the post's receiver with the cancel's *)
          match victim.Threadify.th_origin with
          | Threadify.O_edge e -> (
              match e.Pta.ce_instr.Instr.i with
              | Instr.Call (_, recv, ms, _)
                when String.equal ms.Sema.ms_class "Handler" ->
                  overlaps recv_pts
                    (Pta.pts_var ctx.tf.Threadify.pta ~inst:e.Pta.ce_from ~v:recv)
              | Instr.Call _ | Instr.Move _ | Instr.Const _ | Instr.New _ | Instr.Getfield _
              | Instr.Putfield _ | Instr.Getstatic _ | Instr.Putstatic _ | Instr.Intrinsic _
              | Instr.Unop _ | Instr.Binop _ | Instr.Monitor_enter _ | Instr.Monitor_exit _ ->
                  false)
          | Threadify.O_main | Threadify.O_root _ -> false)
      | ( Api.Cancel_async_task,
          (Threadify.Posted_cb (Callback.Async _) | Threadify.Async_background) ) ->
          overlaps recv_pts (Lazy.force listener)
      | Api.Cancel_remove_location, Threadify.Entry_cb (Callback.System _) ->
          overlaps arg_pts (Lazy.force listener)
      | Api.Cancel_unregister_sensor, Threadify.Entry_cb (Callback.System _) ->
          overlaps arg_pts (Lazy.force listener)
      | ( ( Api.Cancel_finish | Api.Cancel_unbind | Api.Cancel_unregister_receiver
          | Api.Cancel_remove_callbacks | Api.Cancel_async_task | Api.Cancel_remove_location
          | Api.Cancel_unregister_sensor ),
          _ ) ->
          false)
    (cancel_calls ctx canceller)

let chb ctx (w : Detect.warning) (tu_id, tf_id) =
  ignore w;
  let tu = thread ctx tu_id and tfr = thread ctx tf_id in
  Threadify.is_callback tfr && cancels ctx ~canceller:tfr ~victim:tu

(* -- PHB (unsound, §6.2.1) ------------------------------------------------ *)

(* Use-thread posts (transitively) the free-thread, all hops being looper
   callbacks: the poster's instructions happen before the postee's. *)
let phb ctx (w : Detect.warning) (tu_id, tf_id) =
  ignore w;
  let tu = thread ctx tu_id in
  let rec ascend (th : Threadify.thread) =
    if th.Threadify.th_id = tu_id then true
    else
      match th.Threadify.th_kind with
      | Threadify.Posted_cb k when Callback.on_looper k -> (
          match Threadify.parent ctx.tf th with
          | Some p -> ascend p
          | None -> false)
      | Threadify.Dummy_main | Threadify.Entry_cb _ | Threadify.Posted_cb _
      | Threadify.Native_thread | Threadify.Async_background ->
          false
  in
  let tfr = thread ctx tf_id in
  tf_id <> tu_id && Threadify.on_looper tu && ascend tfr

(* -- UR / TT --------------------------------------------------------------- *)

let ur ctx (w : Detect.warning) _pair =
  Guards.is_used_for_return (guards_of ctx w.Detect.w_use.Detect.s_mref)
    ~instr:w.Detect.w_use.Detect.s_instr

let tt ctx (w : Detect.warning) (tu_id, tf_id) =
  ignore w;
  (not (Threadify.on_looper (thread ctx tu_id)))
  && not (Threadify.on_looper (thread ctx tf_id))

(* -- driver ----------------------------------------------------------------- *)

let prunes ctx name (w : Detect.warning) pair =
  match name with
  | MHB -> mhb ctx w pair
  | IG -> ig ctx w pair
  | IA -> ia ctx w pair
  | RHB -> rhb ctx w pair
  | CHB -> chb ctx w pair
  | PHB -> phb ctx w pair
  | MA -> ma ctx w pair
  | UR -> ur ctx w pair
  | TT -> tt ctx w pair

(* Apply a set of filters: a pair survives when no filter prunes it; a
   warning survives when at least one pair survives. *)
let apply ctx names (ws : Detect.warning list) : Detect.warning list =
  List.filter_map
    (fun (w : Detect.warning) ->
      let pairs =
        List.filter (fun p -> not (List.exists (fun n -> prunes ctx n w p) names)) w.Detect.w_pairs
      in
      match pairs with [] -> None | _ :: _ -> Some { w with Detect.w_pairs = pairs })
    ws

(* Same pruning as {!apply}, but every filter is evaluated on every pair
   and each pruning filter is credited, so overlapping filters both
   count (the per-filter columns of the metrics record). *)
let apply_counted ctx names (ws : Detect.warning list) :
    Detect.warning list * (name * int) list =
  let counts = List.map (fun n -> (n, ref 0)) names in
  let survivors =
    List.filter_map
      (fun (w : Detect.warning) ->
        let pairs =
          List.filter
            (fun p ->
              let pruned = ref false in
              List.iter2
                (fun n (_, c) ->
                  if prunes ctx n w p then begin
                    incr c;
                    pruned := true
                  end)
                names counts;
              not !pruned)
            w.Detect.w_pairs
        in
        match pairs with [] -> None | _ :: _ -> Some { w with Detect.w_pairs = pairs })
      ws
  in
  (survivors, List.map (fun (n, c) -> (n, !c)) counts)

(* Deadline-aware variant: filters run one name at a time against the
   survivors of the previous ones, with the clock sampled both at each
   filter start and every few warnings inside the per-warning loop — a
   single filter over a huge warning list used to run arbitrarily past
   the deadline. Once the absolute [deadline] passes, the in-flight
   filter stops where it is (its already-filtered prefix is kept — every
   individual prune is sound — and the untouched tail passes through)
   and all remaining names are skipped. Skipping is sound in the
   more-warnings direction, so a starved filter phase degrades instead
   of hanging. Counts credit each filter only with the pairs it pruned
   itself (earlier filters already removed theirs), unlike
   {!apply_counted}'s overlapping credit; a partially-run filter keeps
   its partial count and also appears in the skipped list. *)
let apply_counted_deadline ctx ~deadline names (ws : Detect.warning list) :
    Detect.warning list * (name * int) list * name list =
  let counts = ref [] and skipped = ref [] in
  let expired = ref false in
  let checked = ref 0 in
  (* sampled every 8 warnings, so one filter overruns an expired
     deadline by at most 8 warnings' worth of pruning *)
  let now_expired () =
    !expired
    ||
    (incr checked;
     if !checked land 7 = 0 && Clock.now () > deadline then expired := true;
     !expired)
  in
  let survivors =
    List.fold_left
      (fun ws n ->
        if !expired || Clock.now () > deadline then begin
          expired := true;
          skipped := n :: !skipped;
          ws
        end
        else begin
          let c = ref 0 in
          let key = name_to_string n in
          let rec go acc = function
            | [] -> List.rev acc
            | (w : Detect.warning) :: rest ->
                if now_expired () then begin
                  skipped := n :: !skipped;
                  List.rev_append acc (w :: rest)
                end
                else begin
                  (* a [filter=NAME:stall] plan slows this filter down,
                     so tests can land a deadline inside it *)
                  Faultinject.trip ~key Faultinject.Filter;
                  let pairs =
                    List.filter
                      (fun p ->
                        let pruned = prunes ctx n w p in
                        if pruned then incr c;
                        not pruned)
                      w.Detect.w_pairs
                  in
                  match pairs with
                  | [] -> go acc rest
                  | _ :: _ -> go ({ w with Detect.w_pairs = pairs } :: acc) rest
                end
          in
          let ws = go [] ws in
          counts := (n, !c) :: !counts;
          ws
        end)
      ws names
  in
  (survivors, List.rev !counts, List.rev !skipped)

(* Number of warnings fully pruned when only [names] are enabled. *)
let pruned_count ctx names ws = List.length ws - List.length (apply ctx names ws)
