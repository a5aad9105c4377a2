(* The simulated Android runtime: a main looper processing one callback
   at a time, preemptible native threads (implemented with OCaml effects:
   threads yield at shared-memory accesses), component lifecycles driven
   by the {!Nadroid_android.Lifecycle} automaton, and the registration /
   cancellation API surface.

   The scheduler is externally driven: {!enabled_actions} lists what may
   happen next (an external event, the looper processing its queue, a
   native thread advancing to its next yield point) and {!perform}
   executes one choice. Schedule exploration lives in {!Explorer}. *)

open Nadroid_lang
open Nadroid_ir
open Nadroid_android

type task = {
  tk_recv : Value.t;
  tk_meth : string;
  tk_args : Value.t list;
  tk_source : Value.t option;  (* posting Handler, for removeCallbacksAndMessages *)
  tk_label : string;
}

type _ Effect.t += Yield : unit Effect.t

type thread_state =
  | Ready of (unit -> unit)
  | Suspended of (unit, unit) Effect.Deep.continuation
  | Finished

type native = { nt_id : int; nt_label : string; mutable nt_state : thread_state }

type activity = {
  act_cls : string;
  act_obj : int;
  act_ui : string list;  (* overridden non-lifecycle entry callbacks *)
  mutable act_state : Lifecycle.state;
  mutable act_finished : bool;
}

type service_state = Sv_init | Sv_created | Sv_destroyed

type service = { sv_cls : string; sv_obj : int; mutable sv_state : service_state }

type t = {
  prog : Prog.t;
  heap : Heap.t;
  mutable queue : task list;  (* FIFO: append at back *)
  mutable natives : native list;
  mutable next_nt : int;
  mutable clicks : (Value.t * Value.t) list;  (* view, listener *)
  mutable long_clicks : (Value.t * Value.t) list;
  mutable receivers : Value.t list;
  mutable connections : (Value.t * bool ref) list;  (* connection, currently-connected *)
  mutable locations : Value.t list;
  mutable sensors : Value.t list;
  activities : activity list;
  services : service list;
  manifest_receivers : (string * int) list;
  views : (int * int, Value.t) Hashtbl.t;  (* (activity obj, view id) -> view *)
  singletons : (string, Value.t) Hashtbl.t;
  mutable npes : Interp.npe list;
  mutable stucks : Interp.stuck list;
  mutable logs : string list;  (* reversed *)
  mutable fuel : int;
  mutable crashed : bool;
  resume_on_npe : bool;
      (* validation mode: record the NPE and abort only the faulting
         callback/thread instead of crashing the whole app *)
  mutable wakelocks : int list;  (* every WakeLock object ever created *)
  mutable looper_fiber : thread_state option;  (* the callback currently on the looper *)
  mutable current_fiber : int;  (* -1 = looper, >= 0 = native id, -2 = idle *)
  locks : (int, int * int) Hashtbl.t;  (* object id -> (owner fiber, depth) *)
}

(* -- interpreter embedding ------------------------------------------------ *)

let has_live_native w =
  List.exists (fun nt -> match nt.nt_state with Finished -> false | Ready _ | Suspended _ -> true) w.natives

let rec interp (w : t) : Interp.t =
  {
    Interp.prog = w.prog;
    heap = w.heap;
    hooks =
      {
        Interp.h_api = (fun ~recv ~ms ~args kind -> handle_api w ~recv ~ms ~args kind);
        h_log = (fun s -> w.logs <- s :: w.logs);
        (* preemption is only observable when a native thread can run:
           with no live thread, callbacks execute atomically and the
           schedule space collapses accordingly *)
        h_yield = (fun _ -> if has_live_native w then Effect.perform Yield);
        h_fuel =
          (fun () ->
            w.fuel <- w.fuel - 1;
            if w.fuel <= 0 then raise Interp.Out_of_fuel);
        h_monitor =
          (fun op lock ->
            match (op, lock) with
            | `Enter, Value.Vobj o ->
                let rec acquire () =
                  match Hashtbl.find_opt w.locks o with
                  | None -> Hashtbl.replace w.locks o (w.current_fiber, 1)
                  | Some (owner, depth) when owner = w.current_fiber ->
                      Hashtbl.replace w.locks o (owner, depth + 1)
                  | Some _ ->
                      Effect.perform Yield;
                      acquire ()
                in
                acquire ()
            | `Exit, Value.Vobj o -> (
                match Hashtbl.find_opt w.locks o with
                | Some (owner, 1) when owner = w.current_fiber -> Hashtbl.remove w.locks o
                | Some (owner, depth) when owner = w.current_fiber ->
                    Hashtbl.replace w.locks o (owner, depth - 1)
                | Some _ | None -> ())
            | (`Enter | `Exit), (Value.Vnull | Value.Vint _ | Value.Vbool _ | Value.Vstr _) ->
                ());
      };
  }

and enqueue w task = w.queue <- w.queue @ [ task ]

and spawn_native w ~label (body : unit -> unit) =
  let nt = { nt_id = w.next_nt; nt_label = label; nt_state = Ready body } in
  w.next_nt <- w.next_nt + 1;
  w.natives <- w.natives @ [ nt ]

and call_inline w ~recv ~meth ~args = ignore (Interp.call (interp w) ~recv ~meth ~args)

and handle_api (w : t) ~(recv : Value.t) ~(ms : Sema.method_sig) ~(args : Value.t list)
    (kind : Api.kind) : Value.t =
  let arg0 () = match args with a :: _ -> a | [] -> Value.Vnull in
  match kind with
  | Api.Spawn Api.Spawn_thread -> (
      match recv with
      | Value.Vobj id -> (
          match Heap.get_field w.heap id ~key:"Thread.target" with
          | Value.Vobj _ as r ->
              spawn_native w ~label:"thread" (fun () -> call_inline w ~recv:r ~meth:"run" ~args:[]);
              Value.Vnull
          | Value.Vnull | Value.Vint _ | Value.Vbool _ | Value.Vstr _ -> Value.Vnull)
      | Value.Vnull | Value.Vint _ | Value.Vbool _ | Value.Vstr _ -> Value.Vnull)
  | Api.Spawn Api.Spawn_executor ->
      (match arg0 () with
      | Value.Vobj _ as r ->
          spawn_native w ~label:"executor" (fun () -> call_inline w ~recv:r ~meth:"run" ~args:[])
      | Value.Vnull | Value.Vint _ | Value.Vbool _ | Value.Vstr _ -> ());
      Value.Vnull
  | Api.Spawn Api.Spawn_async_task ->
      (* onPreExecute runs synchronously on the caller; doInBackground on
         a fresh thread; onPostExecute is posted back to the looper *)
      call_inline w ~recv ~meth:"onPreExecute" ~args:[];
      spawn_native w ~label:"asynctask" (fun () ->
          call_inline w ~recv ~meth:"doInBackground" ~args:[];
          enqueue w
            {
              tk_recv = recv;
              tk_meth = "onPostExecute";
              tk_args = [];
              tk_source = None;
              tk_label = "onPostExecute";
            });
      Value.Vnull
  | Api.Post Api.Post_runnable ->
      (match arg0 () with
      | Value.Vobj _ as r ->
          enqueue w
            { tk_recv = r; tk_meth = "run"; tk_args = []; tk_source = Some recv; tk_label = "run" }
      | Value.Vnull | Value.Vint _ | Value.Vbool _ | Value.Vstr _ -> ());
      Value.Vnull
  | Api.Post Api.Post_message ->
      let msg =
        match (ms.Sema.ms_name, args) with
        | "sendMessage", m :: _ -> m
        | "sendEmptyMessage", what :: _ ->
            let id = Heap.alloc w.heap ~cls:"Message" in
            Heap.set_field w.heap id ~key:"Message.what" what;
            Value.Vobj id
        | _, _ -> Value.Vnull
      in
      enqueue w
        {
          tk_recv = recv;
          tk_meth = "handleMessage";
          tk_args = [ msg ];
          tk_source = Some recv;
          tk_label = "handleMessage";
        };
      Value.Vnull
  | Api.Register Api.Reg_service ->
      w.connections <- w.connections @ [ (arg0 (), ref false) ];
      Value.Vnull
  | Api.Register Api.Reg_receiver ->
      w.receivers <- w.receivers @ [ arg0 () ];
      Value.Vnull
  | Api.Register Api.Reg_click ->
      w.clicks <- w.clicks @ [ (recv, arg0 ()) ];
      Value.Vnull
  | Api.Register Api.Reg_long_click ->
      w.long_clicks <- w.long_clicks @ [ (recv, arg0 ()) ];
      Value.Vnull
  | Api.Register Api.Reg_location ->
      w.locations <- w.locations @ [ arg0 () ];
      Value.Vnull
  | Api.Register Api.Reg_sensor ->
      w.sensors <- w.sensors @ [ arg0 () ];
      Value.Vnull
  | Api.Cancel Api.Cancel_finish ->
      List.iter
        (fun a -> if Value.equal (Value.Vobj a.act_obj) recv then a.act_finished <- true)
        w.activities;
      Value.Vnull
  | Api.Cancel Api.Cancel_unbind ->
      w.connections <- List.filter (fun (c, _) -> not (Value.equal c (arg0 ()))) w.connections;
      Value.Vnull
  | Api.Cancel Api.Cancel_unregister_receiver ->
      w.receivers <- List.filter (fun r -> not (Value.equal r (arg0 ()))) w.receivers;
      Value.Vnull
  | Api.Cancel Api.Cancel_remove_callbacks ->
      w.queue <-
        List.filter
          (fun tk -> match tk.tk_source with Some s -> not (Value.equal s recv) | None -> true)
          w.queue;
      Value.Vnull
  | Api.Cancel Api.Cancel_async_task ->
      (* cancellation only prevents onPostExecute in the real framework if
         it has not run; approximate by dropping queued completions *)
      w.queue <-
        List.filter
          (fun tk ->
            not (Value.equal tk.tk_recv recv && String.equal tk.tk_meth "onPostExecute"))
          w.queue;
      Value.Vnull
  | Api.Cancel Api.Cancel_remove_location ->
      w.locations <- List.filter (fun l -> not (Value.equal l (arg0 ()))) w.locations;
      Value.Vnull
  | Api.Cancel Api.Cancel_unregister_sensor ->
      w.sensors <- List.filter (fun l -> not (Value.equal l (arg0 ()))) w.sensors;
      Value.Vnull
  | Api.Other -> (
      match (ms.Sema.ms_class, ms.Sema.ms_name) with
      | "Activity", "findViewById" -> (
          match (recv, args) with
          | Value.Vobj a, [ Value.Vint id ] -> (
              match Hashtbl.find_opt w.views (a, id) with
              | Some v -> v
              | None ->
                  let vid = Heap.alloc w.heap ~cls:"View" in
                  (* remember the owning activity: its views die with it *)
                  Heap.set_field w.heap vid ~key:"View.owner" (Value.Vint a);
                  let v = Value.Vobj vid in
                  Hashtbl.replace w.views (a, id) v;
                  v)
          | _, _ -> Value.Vnull)
      | "Context", ("getLocationManager" | "getSensorManager" | "getPowerManager") -> (
          let cls =
            match ms.Sema.ms_name with
            | "getLocationManager" -> "LocationManager"
            | "getSensorManager" -> "SensorManager"
            | _ -> "PowerManager"
          in
          match Hashtbl.find_opt w.singletons cls with
          | Some v -> v
          | None ->
              let v = Value.Vobj (Heap.alloc w.heap ~cls) in
              Hashtbl.replace w.singletons cls v;
              v)
      | "View", "setEnabled" -> (
          match (recv, args) with
          | Value.Vobj id, [ (Value.Vbool _ as b) ] ->
              Heap.set_field w.heap id ~key:"View.enabled" b;
              Value.Vnull
          | _, _ -> Value.Vnull)
      | "PowerManager", "newWakeLock" ->
          let id = Heap.alloc w.heap ~cls:"WakeLock" in
          w.wakelocks <- id :: w.wakelocks;
          Value.Vobj id
      | "WakeLock", "acquire" -> (
          match recv with
          | Value.Vobj id ->
              Heap.set_field w.heap id ~key:"WakeLock.held" (Value.Vbool true);
              Value.Vnull
          | Value.Vnull | Value.Vint _ | Value.Vbool _ | Value.Vstr _ -> Value.Vnull)
      | "WakeLock", "release" -> (
          match recv with
          | Value.Vobj id ->
              Heap.set_field w.heap id ~key:"WakeLock.held" (Value.Vbool false);
              Value.Vnull
          | Value.Vnull | Value.Vint _ | Value.Vbool _ | Value.Vstr _ -> Value.Vnull)
      | "AsyncTask", "publishProgress" ->
          enqueue w
            {
              tk_recv = recv;
              tk_meth = "onProgressUpdate";
              tk_args = args;
              tk_source = None;
              tk_label = "onProgressUpdate";
            };
          Value.Vnull
      | _, _ -> Value.Vnull)

(* -- world construction ----------------------------------------------------- *)

let create ?(resume_on_npe = false) (prog : Prog.t) : t =
  let heap = Heap.create () in
  let components = Component.discover (Prog.sema prog) in
  let activities =
    List.filter_map
      (fun (c : Component.t) ->
        match c.Component.kind with
        | Component.Activity ->
            let ui =
              List.filter_map
                (fun (m, k) ->
                  match k with
                  | Callback.Ui _ -> Some m
                  | Callback.Lifecycle _ | Callback.Service_lifecycle _ | Callback.System _
                  | Callback.Service_conn _ | Callback.Receive | Callback.Handle_message
                  | Callback.Runnable_run | Callback.Async _ ->
                      None)
                c.Component.entry_callbacks
            in
            Some
              {
                act_cls = c.Component.cls;
                act_obj = Heap.alloc heap ~cls:c.Component.cls;
                act_ui = ui;
                act_state = Lifecycle.initial;
                act_finished = false;
              }
        | Component.Service | Component.Receiver -> None)
      components
  in
  let services =
    List.filter_map
      (fun (c : Component.t) ->
        match c.Component.kind with
        | Component.Service ->
            Some { sv_cls = c.Component.cls; sv_obj = Heap.alloc heap ~cls:c.Component.cls; sv_state = Sv_init }
        | Component.Activity | Component.Receiver -> None)
      components
  in
  let manifest_receivers =
    List.filter_map
      (fun (c : Component.t) ->
        match c.Component.kind with
        | Component.Receiver -> Some (c.Component.cls, Heap.alloc heap ~cls:c.Component.cls)
        | Component.Activity | Component.Service -> None)
      components
  in
  {
    prog;
    heap;
    queue = [];
    natives = [];
    next_nt = 0;
    clicks = [];
    long_clicks = [];
    receivers = [];
    connections = [];
    locations = [];
    sensors = [];
    activities;
    services;
    manifest_receivers;
    views = Hashtbl.create 16;
    singletons = Hashtbl.create 4;
    npes = [];
    stucks = [];
    logs = [];
    fuel = 200_000;
    crashed = false;
    resume_on_npe;
    wakelocks = [];
    looper_fiber = None;
    current_fiber = -2;
    locks = Hashtbl.create 8;
  }

(* -- actions ------------------------------------------------------------------ *)

type action =
  | A_lifecycle of string * string  (** activity class, callback *)
  | A_activity_ui of string * string  (** activity class, UI/system entry callback *)
  | A_service of string * string  (** service class, callback *)
  | A_click of int
  | A_long_click of int
  | A_broadcast_dynamic of int
  | A_broadcast_manifest of int
  | A_connect of int
  | A_disconnect of int
  | A_location of int
  | A_sensor of int
  | A_looper
  | A_looper_step  (** advance the callback currently running on the looper *)
  | A_thread_step of int

let pp_action ppf = function
  | A_lifecycle (c, cb) -> Fmt.pf ppf "lifecycle:%s.%s" c cb
  | A_activity_ui (c, cb) -> Fmt.pf ppf "ui:%s.%s" c cb
  | A_service (c, cb) -> Fmt.pf ppf "service:%s.%s" c cb
  | A_click i -> Fmt.pf ppf "click:%d" i
  | A_long_click i -> Fmt.pf ppf "longclick:%d" i
  | A_broadcast_dynamic i -> Fmt.pf ppf "broadcast:%d" i
  | A_broadcast_manifest i -> Fmt.pf ppf "broadcast-manifest:%d" i
  | A_connect i -> Fmt.pf ppf "connect:%d" i
  | A_disconnect i -> Fmt.pf ppf "disconnect:%d" i
  | A_location i -> Fmt.pf ppf "location:%d" i
  | A_sensor i -> Fmt.pf ppf "sensor:%d" i
  | A_looper -> Fmt.string ppf "looper"
  | A_looper_step -> Fmt.string ppf "looper-step"
  | A_thread_step i -> Fmt.pf ppf "thread:%d" i

let ui_possible w =
  List.exists (fun a -> Lifecycle.ui_enabled a.act_state && not a.act_finished) w.activities

let view_enabled w view =
  match view with
  | Value.Vobj id -> not (Value.equal (Heap.get_field w.heap id ~key:"View.enabled") (Value.Vbool false))
  | Value.Vnull | Value.Vint _ | Value.Vbool _ | Value.Vstr _ -> true

(* UI events are deliverable only while the view's *owning* activity has
   its UI enabled — a destroyed or finished activity's view hierarchy is
   gone, exactly the fact MHB-Lifecycle's onDestroy-last rule rests on.
   Views without a recorded owner fall back to the global check. *)
let view_owner_ui w view =
  match view with
  | Value.Vobj vid -> (
      match Heap.get_field w.heap vid ~key:"View.owner" with
      | Value.Vint a -> (
          match List.find_opt (fun ac -> ac.act_obj = a) w.activities with
          | Some ac -> Lifecycle.ui_enabled ac.act_state && not ac.act_finished
          | None -> ui_possible w)
      | _ -> ui_possible w)
  | Value.Vnull | Value.Vint _ | Value.Vbool _ | Value.Vstr _ -> ui_possible w

let enabled_actions (w : t) : action list =
  if w.crashed then []
  else if w.looper_fiber <> None then
    (* a callback is mid-flight on the looper: only it and true threads
       can make progress — callbacks stay atomic w.r.t. each other *)
    A_looper_step
    :: List.filter_map
         (fun nt ->
           match nt.nt_state with
           | Finished -> None
           | Ready _ | Suspended _ -> Some (A_thread_step nt.nt_id))
         w.natives
  else
    let lifecycle =
      List.concat_map
        (fun a ->
          let allowed (cb, _) =
            if a.act_finished then List.mem cb [ "onPause"; "onStop"; "onDestroy" ] else true
          in
          List.filter_map
            (fun tr -> if allowed tr then Some (A_lifecycle (a.act_cls, fst tr)) else None)
            (Lifecycle.enabled a.act_state))
        w.activities
    in
    let service =
      List.concat_map
        (fun s ->
          match s.sv_state with
          | Sv_init -> [ A_service (s.sv_cls, "onCreate") ]
          | Sv_created ->
              [
                A_service (s.sv_cls, "onStartCommand");
                A_service (s.sv_cls, "onDestroy");
              ]
          | Sv_destroyed -> [])
        w.services
    in
    let activity_ui =
      List.concat_map
        (fun a ->
          if Lifecycle.ui_enabled a.act_state && not a.act_finished then
            List.map (fun m -> A_activity_ui (a.act_cls, m)) a.act_ui
          else [])
        w.activities
    in
    let idx l f = List.mapi (fun i _ -> f i) l in
    let clicks =
      List.concat
        (List.mapi
           (fun i (view, _) ->
             if view_owner_ui w view && view_enabled w view then [ A_click i ] else [])
           w.clicks)
    in
    let long_clicks =
      List.concat
        (List.mapi
           (fun i (view, _) -> if view_owner_ui w view then [ A_long_click i ] else [])
           w.long_clicks)
    in
    let broadcasts = idx w.receivers (fun i -> A_broadcast_dynamic i) in
    let manifest = idx w.manifest_receivers (fun i -> A_broadcast_manifest i) in
    let conns =
      List.concat
        (List.mapi
           (fun i (_, connected) -> if !connected then [ A_disconnect i ] else [ A_connect i ])
           w.connections)
    in
    let locs = idx w.locations (fun i -> A_location i) in
    let sensors = idx w.sensors (fun i -> A_sensor i) in
    let looper = match w.queue with [] -> [] | _ :: _ -> [ A_looper ] in
    let threads =
      List.filter_map
        (fun nt -> match nt.nt_state with Finished -> None | Ready _ | Suspended _ -> Some (A_thread_step nt.nt_id))
        w.natives
    in
    lifecycle @ activity_ui @ service @ clicks @ long_clicks @ broadcasts @ manifest @ conns
    @ locs @ sensors @ looper @ threads

(* Advance a fiber (the looper's current callback or a native thread) to
   its next yield point; [set_state] persists the continuation. *)
let step_fiber w ~fiber_id ~(state : thread_state) ~(set_state : thread_state -> unit) =
  w.current_fiber <- fiber_id;
  let record_exn e =
    set_state Finished;
    match e with
    | Interp.Npe npe ->
        w.npes <- npe :: w.npes;
        if not w.resume_on_npe then w.crashed <- true
    | Interp.Stuck s ->
        (* user-reachable runtime fault: survives like an NPE — the
           faulting fiber dies, the world keeps (or stops) scheduling
           under the same policy *)
        w.stucks <- s :: w.stucks;
        if not w.resume_on_npe then w.crashed <- true
    | Interp.Out_of_fuel -> w.crashed <- true
    | Nadroid_core.Fault.Fault _ as e -> raise e
    | e ->
        (* anything else escaping a fiber is a simulator bug: surface it
           as a structured internal fault, not a bare exception *)
        raise
          (Nadroid_core.Fault.Fault
             (Nadroid_core.Fault.Internal ("simulator: " ^ Printexc.to_string e)))
  in
  (match state with
  | Ready f ->
      Effect.Deep.match_with f ()
        {
          Effect.Deep.retc = (fun () -> set_state Finished);
          exnc = record_exn;
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Yield ->
                  Some
                    (fun (k : (a, unit) Effect.Deep.continuation) -> set_state (Suspended k))
              | _ -> None);
        }
  | Suspended k ->
      (* resuming re-enters the original deep handler: retc / exnc / effc
         above fire again on return, crash, or the next yield *)
      Effect.Deep.continue k ()
  | Finished -> ());
  w.current_fiber <- -2

(* Start a callback on the looper and advance it to its first yield. The
   looper is expected to be idle. *)
let run_callback w ~recv ~meth ~args =
  let body () = call_inline w ~recv ~meth ~args in
  w.looper_fiber <- Some (Ready body);
  let rec drain () =
    match w.looper_fiber with
    | Some ((Ready _ | Suspended _) as st) ->
        step_fiber w ~fiber_id:(-1) ~state:st
          ~set_state:(fun s -> w.looper_fiber <- (match s with Finished -> None | s -> Some s));
        ignore drain
    | Some Finished | None -> ()
  in
  drain ()

let step_looper w =
  match w.looper_fiber with
  | Some ((Ready _ | Suspended _) as st) ->
      step_fiber w ~fiber_id:(-1) ~state:st
        ~set_state:(fun s -> w.looper_fiber <- (match s with Finished -> None | s -> Some s))
  | Some Finished -> w.looper_fiber <- None
  | None -> ()

let step_native w nt =
  step_fiber w ~fiber_id:nt.nt_id ~state:nt.nt_state ~set_state:(fun s -> nt.nt_state <- s)

let perform (w : t) (action : action) : unit =
  match action with
  | A_lifecycle (cls, cb) ->
      List.iter
        (fun a ->
          if String.equal a.act_cls cls then begin
            match Lifecycle.step a.act_state cb with
            | Some s' ->
                a.act_state <- s';
                run_callback w ~recv:(Value.Vobj a.act_obj) ~meth:cb ~args:[]
            | None -> ()
          end)
        w.activities
  | A_activity_ui (cls, cb) ->
      List.iter
        (fun a ->
          if String.equal a.act_cls cls then begin
            let args =
              match Sema.dispatch (Prog.sema w.prog) cls cb with
              | Some m ->
                  List.map
                    (fun (ty, _) ->
                      match ty with
                      | Ast.Tint -> Value.Vint 0
                      | Ast.Tbool -> Value.Vbool false
                      | Ast.Tstring -> Value.Vstr ""
                      | Ast.Tvoid -> Value.Vnull
                      | Ast.Tclass c -> Value.Vobj (Heap.alloc w.heap ~cls:c))
                    m.Sema.rm_params
              | None -> []
            in
            run_callback w ~recv:(Value.Vobj a.act_obj) ~meth:cb ~args
          end)
        w.activities
  | A_service (cls, cb) ->
      List.iter
        (fun s ->
          if String.equal s.sv_cls cls then begin
            (match cb with
            | "onCreate" -> s.sv_state <- Sv_created
            | "onDestroy" -> s.sv_state <- Sv_destroyed
            | _ -> ());
            let args =
              match cb with "onStartCommand" -> [ Value.Vnull ] | _ -> []
            in
            run_callback w ~recv:(Value.Vobj s.sv_obj) ~meth:cb ~args
          end)
        w.services
  | A_click i -> (
      match List.nth_opt w.clicks i with
      | Some (view, l) -> run_callback w ~recv:l ~meth:"onClick" ~args:[ view ]
      | None -> ())
  | A_long_click i -> (
      match List.nth_opt w.long_clicks i with
      | Some (view, l) -> run_callback w ~recv:l ~meth:"onLongClick" ~args:[ view ]
      | None -> ())
  | A_broadcast_dynamic i -> (
      match List.nth_opt w.receivers i with
      | Some r ->
          let intent = Value.Vobj (Heap.alloc w.heap ~cls:"Intent") in
          run_callback w ~recv:r ~meth:"onReceive" ~args:[ intent ]
      | None -> ())
  | A_broadcast_manifest i -> (
      match List.nth_opt w.manifest_receivers i with
      | Some (_, obj) ->
          let intent = Value.Vobj (Heap.alloc w.heap ~cls:"Intent") in
          run_callback w ~recv:(Value.Vobj obj) ~meth:"onReceive" ~args:[ intent ]
      | None -> ())
  | A_connect i -> (
      match List.nth_opt w.connections i with
      | Some (c, connected) ->
          connected := true;
          let binder = Value.Vobj (Heap.alloc w.heap ~cls:"Binder") in
          run_callback w ~recv:c ~meth:"onServiceConnected" ~args:[ binder ]
      | None -> ())
  | A_disconnect i -> (
      match List.nth_opt w.connections i with
      | Some (c, connected) ->
          connected := false;
          run_callback w ~recv:c ~meth:"onServiceDisconnected" ~args:[]
      | None -> ())
  | A_location i -> (
      match List.nth_opt w.locations i with
      | Some l ->
          let loc = Value.Vobj (Heap.alloc w.heap ~cls:"Location") in
          run_callback w ~recv:l ~meth:"onLocationChanged" ~args:[ loc ]
      | None -> ())
  | A_sensor i -> (
      match List.nth_opt w.sensors i with
      | Some l -> run_callback w ~recv:l ~meth:"onSensorChanged" ~args:[ Value.Vint 1 ]
      | None -> ())
  | A_looper -> (
      match w.queue with
      | [] -> ()
      | tk :: rest ->
          w.queue <- rest;
          run_callback w ~recv:tk.tk_recv ~meth:tk.tk_meth ~args:tk.tk_args)
  | A_looper_step -> step_looper w
  | A_thread_step id -> (
      match List.find_opt (fun nt -> nt.nt_id = id) w.natives with
      | Some nt -> step_native w nt
      | None -> ())

(* The user-code class a given external action targets, used by the
   guided validator to bias schedules toward a warning's participants;
   [None] means the action is structural (looper / thread progress) and
   always relevant. *)
let action_class (w : t) (a : action) : string option =
  let class_of_value = function
    | Value.Vobj id -> Some (Heap.class_of w.heap id)
    | Value.Vnull | Value.Vint _ | Value.Vbool _ | Value.Vstr _ -> None
  in
  match a with
  | A_lifecycle (cls, _) | A_activity_ui (cls, _) | A_service (cls, _) -> Some cls
  | A_click i -> Option.bind (List.nth_opt w.clicks i) (fun (_, l) -> class_of_value l)
  | A_long_click i -> Option.bind (List.nth_opt w.long_clicks i) (fun (_, l) -> class_of_value l)
  | A_broadcast_dynamic i -> Option.bind (List.nth_opt w.receivers i) class_of_value
  | A_broadcast_manifest i -> Option.map fst (List.nth_opt w.manifest_receivers i)
  | A_connect i | A_disconnect i ->
      Option.bind (List.nth_opt w.connections i) (fun (c, _) -> class_of_value c)
  | A_location i -> Option.bind (List.nth_opt w.locations i) class_of_value
  | A_sensor i -> Option.bind (List.nth_opt w.sensors i) class_of_value
  | A_looper | A_looper_step | A_thread_step _ -> None

(* Parse the textual form produced by [pp_action] back into an action,
   resolving indices against the current world — the inverse needed to
   replay a recorded witness schedule. *)
let action_of_string (w : t) (s : string) : action option =
  let with_prefix p k =
    if String.length s > String.length p && String.equal (String.sub s 0 (String.length p)) p
    then k (String.sub s (String.length p) (String.length s - String.length p))
    else None
  in
  let cls_meth k rest =
    match String.rindex_opt rest '.' with
    | Some i -> Some (k (String.sub rest 0 i) (String.sub rest (i + 1) (String.length rest - i - 1)))
    | None -> None
  in
  let indexed k rest = Option.map k (int_of_string_opt rest) in
  let candidates =
    [
      (fun () -> if String.equal s "looper" then Some A_looper else None);
      (fun () -> if String.equal s "looper-step" then Some A_looper_step else None);
      (fun () -> with_prefix "lifecycle:" (cls_meth (fun c m -> A_lifecycle (c, m))));
      (fun () -> with_prefix "ui:" (cls_meth (fun c m -> A_activity_ui (c, m))));
      (fun () -> with_prefix "service:" (cls_meth (fun c m -> A_service (c, m))));
      (fun () -> with_prefix "click:" (indexed (fun i -> A_click i)));
      (fun () -> with_prefix "longclick:" (indexed (fun i -> A_long_click i)));
      (fun () -> with_prefix "broadcast-manifest:" (indexed (fun i -> A_broadcast_manifest i)));
      (fun () -> with_prefix "broadcast:" (indexed (fun i -> A_broadcast_dynamic i)));
      (fun () -> with_prefix "connect:" (indexed (fun i -> A_connect i)));
      (fun () -> with_prefix "disconnect:" (indexed (fun i -> A_disconnect i)));
      (fun () -> with_prefix "location:" (indexed (fun i -> A_location i)));
      (fun () -> with_prefix "sensor:" (indexed (fun i -> A_sensor i)));
      (fun () -> with_prefix "thread:" (indexed (fun i -> A_thread_step i)));
    ]
  in
  match List.find_map (fun f -> f ()) candidates with
  (* only accept actions that are actually enabled right now *)
  | Some a when List.mem a (enabled_actions w) -> Some a
  | Some _ | None -> None

(* No-sleep-bug oracle (§9 extension): wake locks still held although
   every activity has left the foreground — the device cannot sleep. *)
let held_wakelocks w =
  List.filter
    (fun id -> Value.equal (Heap.get_field w.heap id ~key:"WakeLock.held") (Value.Vbool true))
    w.wakelocks

let all_backgrounded w =
  List.for_all
    (fun a ->
      match a.act_state with
      | Lifecycle.S_paused | Lifecycle.S_stopped | Lifecycle.S_destroyed | Lifecycle.S_init ->
          true
      | Lifecycle.S_created | Lifecycle.S_started | Lifecycle.S_resumed -> false)
    w.activities

let no_sleep_state w = all_backgrounded w && held_wakelocks w <> []

let npes w = List.rev w.npes

let stucks w = List.rev w.stucks

let logs w = List.rev w.logs
