(* Grammar-aware random MiniAndroid app generator for the differential
   soundness harness.

   Unlike {!Gen}, which expands fixed per-pattern fragments, this module
   composes random lifecycle bodies, click listeners, Handler posts,
   native threads, AsyncTasks and service connections over a shared
   per-activity field pool. Every generated app is well-typed by
   construction, and — critically — every dynamically reachable NPE in
   it is guaranteed to be statically reported by a *correct*
   sound-filters-only pipeline, so any unmatched NPE the dynamic oracle
   witnesses is a genuine soundness counterexample, never generator
   noise. The invariants that buy this guarantee:

   - every pool field is allocated at the top of [onCreate], before any
     other generated statement, and [onCreate] runs exactly once per
     component (the lifecycle automaton never restarts a destroyed
     activity) — so use-before-init NPEs, which have no free site and
     are out of the detector's scope, cannot occur;
   - within one callback body a field is either dereferenced or nulled,
     never both (two dynamic instances of the same callback share a
     modeled thread, and the detector only pairs sites from two
     different threads); merged lifecycle methods share one partition
     per (activity, method) so the rule survives fragment merging;
   - [onServiceConnected] bodies never dereference a field without
     either a preceding same-statement allocation or a null guard:
     connections can re-connect, so MHB-Service's same-edge pruning is
     only dynamically sound for allocation-protected or guarded uses;
   - AsyncTasks are executed from [onCreate] only, so each execute edge
     runs exactly once and MHB-Async's same-edge pre/post pruning is
     dynamically sound;
   - the Handler helper field lives outside the pool and is never
     nulled.

   On top of the free-form fragments, an app optionally embeds a random
   multiset of {!Spec} patterns (through {!Gen.generate}) whose
   {!Spec.seeded} ground truth feeds the dropped-seed soundness check
   and the unsound-filter precision measurement. [P_mhb_async] is
   excluded: its click-driven execute edge genuinely violates the
   MHB-Async assumption under re-execution, which the simulator can
   reach (that is a known modeling gap of the paper's filter, not a
   pipeline bug this harness should fail on). [P_chb] (whose [finish()]
   interferes with other instances) and [P_inj_unmodeled] (invisible to
   both sides) are also left out.

   Determinism: an app is a pure function of its seed; rendering is a
   pure function of the structure, so shrinking (structure-level
   deletions) re-renders reproducibly. *)

type op =
  | Alloc  (** [f = new Data();] *)
  | Alloc_use  (** [f = new Data(); f.use();] — IA-shaped *)
  | Use  (** [f.use();] *)
  | Guarded_use  (** [if (f != null) { f.use(); }] — IG-shaped *)
  | Null  (** [f = null;] — a free site *)

type stmt = { st_field : int; st_op : op }

type frag =
  | F_lifecycle of string * stmt list  (** body appended to a lifecycle method *)
  | F_click of stmt list  (** its own listener, registered in [onStart] *)
  | F_post of string * stmt list  (** runnable posted from the host method *)
  | F_thread of string * stmt list  (** native thread spawned from the host *)
  | F_async of stmt list * stmt list * stmt list
      (** pre / background / post bodies; executed from [onCreate] *)
  | F_conn of stmt list * stmt list  (** connected / disconnected bodies *)

type sact = { sa_name : string; sa_pool : int; sa_frags : frag list }

type t = { sy_seed : int; sy_acts : sact list; sy_patterns : Spec.pattern list }

let name t = Printf.sprintf "synth%d" t.sy_seed

let lifecycle_methods = [ "onCreate"; "onStart"; "onResume"; "onPause"; "onDestroy" ]

let embeddable : Spec.pattern list =
  [
    Spec.P_ec_pc_uaf;
    Spec.P_pc_pc_uaf;
    Spec.P_c_nt_uaf;
    Spec.P_c_rt_uaf;
    Spec.P_ec_ec_uaf;
    Spec.P_guarded;
    Spec.P_guarded_locked;
    Spec.P_intra_alloc;
    Spec.P_mhb_service;
    Spec.P_mhb_lifecycle;
    Spec.P_rhb;
    Spec.P_phb;
    Spec.P_ma;
    Spec.P_ur;
    Spec.P_tt;
    Spec.P_fp_path;
    Spec.P_fp_missing_hb;
    Spec.P_safe;
  ]

(* -- generation ---------------------------------------------------------- *)

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

let all_ops = [ Alloc; Alloc_use; Use; Guarded_use; Null ]

(* onServiceConnected: no bare [Use] (see the module comment). *)
let connected_ops = [ Alloc; Alloc_use; Guarded_use; Null ]

(* One body under a null/deref partition of the pool: [nullable.(i)]
   fields may only be nulled or allocated here, the rest may only be
   dereferenced or allocated. An op whose side of the partition is empty
   degrades to a plain allocation. *)
let gen_body rng ~(nullable : bool array) ~allow ~len : stmt list =
  let pool = Array.length nullable in
  let every = List.init pool Fun.id in
  let nulls = List.filter (fun i -> nullable.(i)) every in
  let derefs = List.filter (fun i -> not nullable.(i)) every in
  List.init len (fun _ ->
      let op, candidates =
        match pick rng allow with
        | Null -> if nulls = [] then (Alloc, every) else (Null, nulls)
        | Alloc -> (Alloc, every)
        | (Alloc_use | Use | Guarded_use) as o ->
            if derefs = [] then (Alloc, every) else (o, derefs)
      in
      { st_op = op; st_field = pick rng candidates })

let fresh_split rng pool = Array.init pool (fun _ -> Random.State.bool rng)

let gen_act rng ai : sact =
  let pool = 2 + Random.State.int rng 3 in
  let n_frags = 3 + Random.State.int rng 5 in
  (* all fragments of the same lifecycle method merge into one callback
     body, so they must share one partition per (activity, method) *)
  let lifecycle_split = Hashtbl.create 7 in
  let split_of m =
    match Hashtbl.find_opt lifecycle_split m with
    | Some a -> a
    | None ->
        let a = fresh_split rng pool in
        Hashtbl.add lifecycle_split m a;
        a
  in
  let len () = 1 + Random.State.int rng 3 in
  let gen_frag () =
    match Random.State.int rng 10 with
    | 0 | 1 ->
        let m = pick rng lifecycle_methods in
        F_lifecycle (m, gen_body rng ~nullable:(split_of m) ~allow:all_ops ~len:(len ()))
    | 2 | 3 | 4 -> F_click (gen_body rng ~nullable:(fresh_split rng pool) ~allow:all_ops ~len:(len ()))
    | 5 ->
        F_post
          ( pick rng lifecycle_methods,
            gen_body rng ~nullable:(fresh_split rng pool) ~allow:all_ops ~len:(len ()) )
    | 6 | 7 ->
        F_thread
          ( pick rng lifecycle_methods,
            gen_body rng ~nullable:(fresh_split rng pool) ~allow:all_ops ~len:(len ()) )
    | 8 ->
        F_async
          ( gen_body rng ~nullable:(fresh_split rng pool) ~allow:all_ops ~len:(len ()),
            gen_body rng ~nullable:(fresh_split rng pool) ~allow:all_ops ~len:(len ()),
            gen_body rng ~nullable:(fresh_split rng pool) ~allow:all_ops ~len:(len ()) )
    | _ ->
        F_conn
          ( gen_body rng ~nullable:(fresh_split rng pool) ~allow:connected_ops ~len:(len ()),
            gen_body rng ~nullable:(fresh_split rng pool) ~allow:all_ops ~len:(len ()) )
  in
  {
    sa_name = Printf.sprintf "SynAct%d" ai;
    sa_pool = pool;
    sa_frags = List.init n_frags (fun _ -> gen_frag ());
  }

let generate ~seed : t =
  let rng = Random.State.make [| 0x53_59; seed |] in
  let n_acts = 1 + Random.State.int rng 2 in
  let acts = List.init n_acts (gen_act rng) in
  let n_patterns = Random.State.int rng 4 in
  let patterns = List.init n_patterns (fun _ -> pick rng embeddable) in
  { sy_seed = seed; sy_acts = acts; sy_patterns = patterns }

(* -- rendering ----------------------------------------------------------- *)

let stmt_str s =
  let f = Printf.sprintf "f%d" s.st_field in
  match s.st_op with
  | Alloc -> Printf.sprintf "%s = new Data();" f
  | Alloc_use -> Printf.sprintf "%s = new Data(); %s.use();" f f
  | Use -> Printf.sprintf "%s.use();" f
  | Guarded_use -> Printf.sprintf "if (%s != null) { %s.use(); }" f f
  | Null -> Printf.sprintf "%s = null;" f

let body_str = function
  | [] -> "log(\"nop\");"  (* shrinking can empty a body *)
  | stmts -> String.concat " " (List.map stmt_str stmts)

let render_act (a : sact) : string =
  let has_post = List.exists (function F_post _ -> true | _ -> false) a.sa_frags in
  let buckets : (string, string list ref) Hashtbl.t = Hashtbl.create 7 in
  let add m s =
    let r =
      match Hashtbl.find_opt buckets m with
      | Some r -> r
      | None ->
          let r = ref [] in
          Hashtbl.add buckets m r;
          r
    in
    r := s :: !r
  in
  let n_clicks = ref 0 in
  List.iter
    (fun frag ->
      match frag with
      | F_lifecycle (m, body) -> add m (body_str body)
      | F_click body ->
          let view = !n_clicks in
          incr n_clicks;
          add "onStart" (Gen.click_listener ~view ~body:(body_str body))
      | F_post (host, body) ->
          add host
            (Printf.sprintf "h.post(new Runnable() { method void run() { %s } });"
               (body_str body))
      | F_thread (host, body) ->
          add host
            (Printf.sprintf "new Thread(new Runnable() { method void run() { %s } }).start();"
               (body_str body))
      | F_async (pre, bg, post) ->
          add "onCreate"
            (Printf.sprintf
               "new AsyncTask() { method void onPreExecute() { %s } method void \
                doInBackground() { %s } method void onPostExecute() { %s } }.execute();"
               (body_str pre) (body_str bg) (body_str post))
      | F_conn (connected, disconnected) ->
          add "onCreate"
            (Gen.service_conn ~connected:(body_str connected)
               ~disconnected:(body_str disconnected)))
    a.sa_frags;
  let bucket m = match Hashtbl.find_opt buckets m with Some r -> List.rev !r | None -> [] in
  let pool_inits = List.init a.sa_pool (fun i -> Printf.sprintf "f%d = new Data();" i) in
  let handler_init =
    if has_post then
      [ "h = new Handler() { method void handleMessage(Message m) { log(\"h\"); } };" ]
    else []
  in
  let on_create = pool_inits @ handler_init @ bucket "onCreate" in
  let fields =
    List.init a.sa_pool (fun i -> Printf.sprintf "field Data f%d;" i)
    @ (if has_post then [ "field Handler h;" ] else [])
  in
  let indent s =
    String.split_on_char '\n' s
    |> List.map (fun l -> if l = "" then l else "  " ^ l)
    |> String.concat "\n"
  in
  let method_of m stmts =
    match stmts with
    | [] -> None
    | _ ->
        Some
          (Printf.sprintf "method void %s() {\n%s\n}" m
             (String.concat "\n" (List.map indent stmts)))
  in
  let members =
    fields
    @ List.filter_map
        (fun m -> method_of m (if m = "onCreate" then on_create else bucket m))
        lifecycle_methods
  in
  Printf.sprintf "class %s extends Activity {\n%s\n}" a.sa_name
    (String.concat "\n" (List.map indent members))

let render (t : t) : string * Spec.seeded list =
  let seeded_classes, seeded =
    match t.sy_patterns with
    | [] -> ([ Gen.data_class ], [])
    | patterns ->
        let spec =
          {
            Spec.app_name = name t;
            activities = [ { Spec.act_name = "Seeded"; patterns } ];
            services = 0;
            padding = 0;
          }
        in
        let src, sd = Gen.generate spec in
        ([ String.trim src ], sd)
  in
  let classes = seeded_classes @ List.map render_act t.sy_acts in
  (String.concat "\n\n" classes ^ "\n", seeded)

(* -- adversarial pathology ------------------------------------------------ *)

(* A worst-case app for the deadline machinery: the analysis is
   *correct* on it, and its warning count, hence its filter phase, grows
   with the square of its size; the filter phase is exactly where
   in-flight cancellation must land.

   Shape, for a size parameter [s]: [s] pool fields, each nulled in
   [onPause] (one free site per field); [s] click listeners, each
   dereferencing every pool field ([s*s] use sites, so [s*s] potential
   warnings all pairing a click thread against the [onPause] thread);
   and an [onResume] body of [10*s] allocations of a dummy non-pool
   field. Every warning reaches RHB (same component, free thread is
   [onPause], use thread is not), which analyzes the [onResume] body
   once per component, so the filter phase is quadratic in [s] (its
   [s^2] warnings each visit every filter) while points-to and
   detection stay near-linear. A size-40 app analyzes in tens of
   milliseconds, so tests and CI that need a deadline to expire inside
   the filter phase slow it down with the [filter=MHB:stall]
   fault-injection plan. The dummy field keeps [may_allocates] false
   for every pool field: RHB never prunes, every warning flows on to
   the remaining unsound filters, and the surviving report stays a
   sound over-approximation.

   The seed only permutes each listener's field-use order, so distinct
   seeds give distinct sources with identical cost structure. *)
let adversarial ~seed ~size : string =
  let size = max 1 size in
  let rng = Random.State.make [| 0x41_44; seed |] in
  let shuffled () =
    let a = Array.init size Fun.id in
    for i = size - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let fields =
    List.init size (fun i -> Printf.sprintf "  field Data f%d;" i) @ [ "  field Data g;" ]
  in
  let on_create =
    List.init size (fun i -> Printf.sprintf "    f%d = new Data();" i)
    @ [ "    g = new Data();" ]
  in
  let on_start =
    List.init size (fun view ->
        let body =
          String.concat " " (List.map (fun i -> Printf.sprintf "f%d.use();" i) (shuffled ()))
        in
        "    " ^ Gen.click_listener ~view ~body)
  in
  let on_resume = List.init (10 * size) (fun _ -> "    g = new Data();") in
  let on_pause = List.init size (fun i -> Printf.sprintf "    f%d = null;" i) in
  let meth name body = (Printf.sprintf "  method void %s() {" name :: body) @ [ "  }" ] in
  String.concat "\n"
    ([ Gen.data_class; Printf.sprintf "class Adv%d extends Activity {" seed ]
    @ fields
    @ meth "onCreate" on_create
    @ meth "onStart" on_start
    @ meth "onResume" on_resume
    @ meth "onPause" on_pause
    @ [ "}"; "" ])

(* -- shrinking ----------------------------------------------------------- *)

let remove_nth n xs = List.filteri (fun i _ -> i <> n) xs

(* Structure-level one-step deletions, coarsest first, in a fixed order:
   greedy shrinking takes the first variant that still exhibits the
   discrepancy, so the result is deterministic. *)
let shrink_steps (t : t) : t list =
  let drop_patterns =
    List.mapi (fun i _ -> { t with sy_patterns = remove_nth i t.sy_patterns }) t.sy_patterns
  in
  let drop_acts =
    if List.length t.sy_acts <= 1 then []
    else List.mapi (fun i _ -> { t with sy_acts = remove_nth i t.sy_acts }) t.sy_acts
  in
  let with_act ai a' = { t with sy_acts = List.mapi (fun i a -> if i = ai then a' else a) t.sy_acts } in
  let drop_frags =
    List.concat
      (List.mapi
         (fun ai a ->
           List.mapi
             (fun fi _ -> with_act ai { a with sa_frags = remove_nth fi a.sa_frags })
             a.sa_frags)
         t.sy_acts)
  in
  let shrink_frag frag =
    let bodies body rebuild = List.mapi (fun si _ -> rebuild (remove_nth si body)) body in
    match frag with
    | F_lifecycle (m, b) -> bodies b (fun b' -> F_lifecycle (m, b'))
    | F_click b -> bodies b (fun b' -> F_click b')
    | F_post (m, b) -> bodies b (fun b' -> F_post (m, b'))
    | F_thread (m, b) -> bodies b (fun b' -> F_thread (m, b'))
    | F_async (pre, bg, post) ->
        bodies pre (fun b -> F_async (b, bg, post))
        @ bodies bg (fun b -> F_async (pre, b, post))
        @ bodies post (fun b -> F_async (pre, bg, b))
    | F_conn (c, d) ->
        bodies c (fun b -> F_conn (b, d)) @ bodies d (fun b -> F_conn (c, b))
  in
  let drop_stmts =
    List.concat
      (List.mapi
         (fun ai a ->
           List.concat
             (List.mapi
                (fun fi frag ->
                  List.map
                    (fun frag' ->
                      with_act ai
                        { a with sa_frags = List.mapi (fun i f -> if i = fi then frag' else f) a.sa_frags })
                    (shrink_frag frag))
                a.sa_frags))
         t.sy_acts)
  in
  drop_patterns @ drop_acts @ drop_frags @ drop_stmts

let size (t : t) : int =
  let frag_size = function
    | F_lifecycle (_, b) | F_click b | F_post (_, b) | F_thread (_, b) -> 1 + List.length b
    | F_async (a, b, c) -> 1 + List.length a + List.length b + List.length c
    | F_conn (a, b) -> 1 + List.length a + List.length b
  in
  List.length t.sy_patterns
  + List.fold_left
      (fun acc a -> acc + 1 + List.fold_left (fun n f -> n + frag_size f) 0 a.sa_frags)
      0 t.sy_acts
