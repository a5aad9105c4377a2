(* Threadification (§4): model event callbacks as threads.

   The transformed program is a forest: a dummy main thread (the initial
   looper) spawns one modeled thread per Entry Callback (lifecycle, UI,
   system events — §4.1); Posted Callbacks (Handler messages/runnables,
   service connections, receiver registrations, AsyncTask callbacks —
   §4.2) become children of the callback/thread that posted them,
   preserving the poster→postee lineage used both to reduce false
   positives (PHB) and to explain warnings to programmers (§7).

   The forest is derived from the points-to result: roots are the entry
   callbacks of components; every API edge (post/register/spawn) found in
   a thread's intra-thread code creates a child thread. Recursion is cut
   when a thread's entry instance already occurs in its ancestor chain
   (self-reposting runnables). *)

open Nadroid_lang
open Nadroid_ir
open Nadroid_android
open Nadroid_analysis
module IntSet = Pta.IntSet
module Clock = Nadroid_clock.Clock

type kind =
  | Dummy_main
  | Entry_cb of Callback.kind  (** EC: child of the dummy main *)
  | Posted_cb of Callback.kind  (** PC: child of its poster *)
  | Native_thread  (** Thread.start / Executor.execute target *)
  | Async_background  (** AsyncTask.doInBackground *)

let pp_kind ppf = function
  | Dummy_main -> Fmt.string ppf "dummy-main"
  | Entry_cb k -> Fmt.pf ppf "EC(%a)" Callback.pp_kind k
  | Posted_cb k -> Fmt.pf ppf "PC(%a)" Callback.pp_kind k
  | Native_thread -> Fmt.string ppf "native-thread"
  | Async_background -> Fmt.string ppf "async-bg"

type origin =
  | O_main
  | O_root of Pta.root
  | O_edge of Pta.call_edge

type thread = {
  th_id : int;
  th_kind : kind;
  th_entry : int;  (** entry instance id; -1 for the dummy main *)
  th_parent : int option;  (** parent thread id *)
  th_origin : origin;
  th_class : string;  (** class declaring the entry method *)
  th_method : string;
  th_component : string option;  (** component of the EC ancestor, when any *)
}

type t = {
  threads : thread array;
  pta : Pta.t;
}

(* Does this modeled thread execute on the (single) main looper? *)
let on_looper th =
  match th.th_kind with
  | Dummy_main -> true
  | Entry_cb k | Posted_cb k -> Callback.on_looper k
  | Native_thread | Async_background -> false

let is_callback th =
  match th.th_kind with
  | Entry_cb _ | Posted_cb _ -> true
  | Dummy_main | Native_thread | Async_background -> false

(* Classify the thread created by an API edge, from the API kind and the
   callee's method name. *)
let kind_of_edge (sema : Sema.t) (e : Pta.call_edge) ~(callee : Pta.instance) : kind =
  let meth = callee.Pta.i_mref.Instr.mr_name in
  let cls = callee.Pta.i_mref.Instr.mr_class in
  let cb () =
    match Callback.of_method sema ~cls ~meth with
    | Some k -> k
    | None -> Callback.Runnable_run
  in
  match e.Pta.ce_kind with
  | Pta.E_ordinary -> invalid_arg "Threadify.kind_of_edge: ordinary edge"
  | Pta.E_api (Api.Spawn (Api.Spawn_thread | Api.Spawn_executor)) -> Native_thread
  | Pta.E_api (Api.Spawn Api.Spawn_async_task) ->
      if String.equal meth "doInBackground" then Async_background else Posted_cb (cb ())
  | Pta.E_api (Api.Post _) -> Posted_cb (cb ())
  | Pta.E_api (Api.Register (Api.Reg_service | Api.Reg_receiver)) -> Posted_cb (cb ())
  | Pta.E_api
      (Api.Register (Api.Reg_click | Api.Reg_long_click | Api.Reg_location | Api.Reg_sensor)) ->
      (* imperatively-registered UI/system callbacks are still *entry*
         callbacks, invoked by the runtime (§4.1) *)
      Entry_cb (cb ())
  | Pta.E_api (Api.Cancel _) | Pta.E_api Api.Other ->
      invalid_arg "Threadify.kind_of_edge: non-thread-creating API edge"

let run ?deadline (pta : Pta.t) : t =
  let sema = Prog.sema pta.Pta.prog in
  (* One wall-clock check per thread expansion, and an expansion only
     walks the API edges leaving its own instances, so the overrun past
     an expired deadline is bounded by one expansion. A partial forest
     would silently lose coverage (missing threads = missed warnings), so
     expiry here is a hard fault, not a degradation. *)
  let checkpoint =
    match deadline with
    | None -> fun () -> ()
    | Some d ->
        fun () ->
          if Clock.now () > d then
            raise (Fault.Fault (Fault.Budget Fault.P_modeling))
  in
  let threads = ref [] in
  let n = ref 0 in
  let add th =
    threads := th :: !threads;
    incr n;
    th
  in
  let main =
    add
      {
        th_id = 0;
        th_kind = Dummy_main;
        th_entry = -1;
        th_parent = None;
        th_origin = O_main;
        th_class = "@framework";
        th_method = "main";
        th_component = None;
      }
  in
  (* API edges by caller instance, each tagged with its position in the
     edge list. A thread gathers the edges leaving its own instances and
     sorts them by position, so children are created in edge-list order
     without rescanning every API edge of the program per thread. *)
  let api_out = Array.make (max 1 (Pta.n_instances pta)) [] in
  List.iteri
    (fun pos (e : Pta.call_edge) ->
      match e.Pta.ce_kind with
      | Pta.E_api _ -> api_out.(e.Pta.ce_from) <- (pos, e) :: api_out.(e.Pta.ce_from)
      | Pta.E_ordinary -> ())
    (Pta.edges pta);
  let edges_leaving insts =
    List.map snd
      (List.sort
         (fun (p, _) (q, _) -> Int.compare p q)
         (IntSet.fold (fun i acc -> List.rev_append api_out.(i) acc) insts []))
  in
  (* expand a thread: find API edges inside it and create children *)
  let rec expand (th : thread) (ancestors : int list) =
    checkpoint ();
    if th.th_entry >= 0 && not (List.mem th.th_entry ancestors) then
      List.iter
        (fun (e : Pta.call_edge) ->
          let callee = Pta.instance pta e.Pta.ce_to in
          let kind = kind_of_edge sema e ~callee in
          let parent =
            match kind with
            | Entry_cb _ -> main  (* UI listeners hang off the dummy main *)
            | Posted_cb _ | Native_thread | Async_background | Dummy_main -> th
          in
          let child =
            add
              {
                th_id = !n;
                th_kind = kind;
                th_entry = e.Pta.ce_to;
                th_parent = Some parent.th_id;
                th_origin = O_edge e;
                th_class = callee.Pta.i_mref.Instr.mr_class;
                th_method = callee.Pta.i_mref.Instr.mr_name;
                th_component = th.th_component;
              }
          in
          expand child (th.th_entry :: ancestors))
        (edges_leaving (Pta.intra_instances pta th.th_entry))
  in
  List.iter
    (fun (r : Pta.root) ->
      let root_th =
        add
          {
            th_id = !n;
            th_kind = Entry_cb r.Pta.r_cb_kind;
            th_entry = r.Pta.r_instance;
            th_parent = Some main.th_id;
            th_origin = O_root r;
            th_class = r.Pta.r_component.Component.cls;
            th_method = r.Pta.r_method;
            th_component = Some r.Pta.r_component.Component.cls;
          }
      in
      expand root_th [])
    (Pta.roots pta);
  let arr = Array.of_list (List.rev !threads) in
  Array.iteri (fun i th -> assert (th.th_id = i)) arr;
  { threads = arr; pta }

let threads t = Array.to_list t.threads

let thread t id = t.threads.(id)

let n_threads t = Array.length t.threads

(* Instances executed by a thread (its entry closed under ordinary calls).
   The PTA memoizes the closure per entry, so threads sharing an entry —
   and the expansions done during [run] — share one computation. *)
let instances_of t th =
  if th.th_entry < 0 then IntSet.empty
  else Pta.intra_instances t.pta th.th_entry

let parent t th = Option.map (thread t) th.th_parent

let rec ancestors t th =
  match parent t th with None -> [] | Some p -> p :: ancestors t p

let is_ancestor t ~anc ~desc = List.exists (fun a -> a.th_id = anc.th_id) (ancestors t desc)

(* The poster→postee chain shown to programmers (§7). *)
let lineage t th : string =
  let name th =
    match th.th_kind with
    | Dummy_main -> "main"
    | Entry_cb _ | Posted_cb _ | Native_thread | Async_background ->
        Fmt.str "%s.%s" th.th_class th.th_method
  in
  String.concat " -> " (List.rev_map name (th :: ancestors t th))

(* Static thread count in the paper's Table 1 sense: the dummy UI main
   thread + AsyncTask doInBackground threads + native Java threads. *)
let table1_thread_count t =
  1
  + List.length
      (List.filter
         (fun th ->
           match th.th_kind with
           | Native_thread | Async_background -> true
           | Dummy_main | Entry_cb _ | Posted_cb _ -> false)
         (threads t))

let pp_thread ppf th =
  Fmt.pf ppf "T%d %a %s.%s" th.th_id pp_kind th.th_kind th.th_class th.th_method

(* Graphviz export of the forest: modeled threads as nodes (shape by
   kind), parent edges solid; handy when triaging a large report. *)
let to_dot t : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph threadification {\n  rankdir=TB;\n  node [fontname=\"monospace\"];\n";
  Array.iter
    (fun th ->
      let shape, color =
        match th.th_kind with
        | Dummy_main -> ("doubleoctagon", "black")
        | Entry_cb _ -> ("box", "blue")
        | Posted_cb _ -> ("ellipse", "darkgreen")
        | Native_thread -> ("diamond", "red")
        | Async_background -> ("diamond", "orange")
      in
      Buffer.add_string buf
        (Printf.sprintf "  t%d [label=\"%s\\n%s.%s\", shape=%s, color=%s];\n" th.th_id
           (Fmt.str "%a" pp_kind th.th_kind) th.th_class th.th_method shape color);
      match th.th_parent with
      | Some p -> Buffer.add_string buf (Printf.sprintf "  t%d -> t%d;\n" p th.th_id)
      | None -> ())
    t.threads;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp_forest ppf t =
  Array.iter
    (fun th ->
      let depth = List.length (ancestors t th) in
      Fmt.pf ppf "%s%a@\n" (String.make (2 * depth) ' ') pp_thread th)
    t.threads
