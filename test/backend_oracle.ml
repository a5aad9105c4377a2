(* Oracles for the backend-equivalence group: the back-end algorithms
   that the linear ones in lib/ replaced, kept as they were.

   - [intra]: the intra-thread closure with a program-sized mark array
     per entry.
   - [escaping]: one field-reachability closure per thread entry; an
     object seen by two entries, or reachable from a static, escapes.
   - [threads]: threadification scanning every API edge of the program
     once per modeled thread.
   - [string_join]: the detection join with "u%d"/"f%d" row labels
     interned as symbols, field keys concatenated and interned per
     access, and rows read back by name and decoded.
   - [naive_join]: the cross-product join, with a field-key comparison
     per (use, free) pair. *)

open Nadroid_ir
open Nadroid_analysis
module Threadify = Nadroid_core.Threadify
module Detect = Nadroid_core.Detect
module Engine = Nadroid_datalog.Engine
module IntSet = Pta.IntSet

let intra (pta : Pta.t) entry : IntSet.t =
  let mark = Bytes.make (max (entry + 1) (Pta.n_instances pta)) '\000' in
  let acc = ref [] in
  let rec go i =
    if Bytes.get mark i = '\000' then begin
      Bytes.set mark i '\001';
      acc := i :: !acc;
      List.iter go (Pta.ordinary_succs pta i)
    end
  in
  go entry;
  IntSet.of_list !acc

let escaping (pta : Pta.t) : IntSet.t =
  let by_inst = Hashtbl.create 256 and by_field = Hashtbl.create 256 in
  let statics = ref IntSet.empty in
  let add tbl key s =
    Hashtbl.replace tbl key
      (IntSet.union s (Option.value ~default:IntSet.empty (Hashtbl.find_opt tbl key)))
  in
  Pta.NodeTbl.iter
    (fun node c ->
      match node with
      | Pta.Nvar (i, _) | Pta.Nret i -> add by_inst i c.Pta.c_pts
      | Pta.Nfld (o, _) -> add by_field o c.Pta.c_pts
      | Pta.Nstatic _ -> statics := IntSet.union !statics c.Pta.c_pts)
    pta.Pta.pts;
  let lookup tbl key = Option.value ~default:IntSet.empty (Hashtbl.find_opt tbl key) in
  let n_objs = max 1 (Pta.n_objects pta) in
  let mark = Bytes.make n_objs '\000' in
  let closure seed_iter visit =
    Bytes.fill mark 0 n_objs '\000';
    let rec go oid =
      if Bytes.get mark oid = '\000' then begin
        Bytes.set mark oid '\001';
        visit oid;
        IntSet.iter go (lookup by_field oid)
      end
    in
    seed_iter go
  in
  let counts = Array.make n_objs 0 in
  List.iter
    (fun entry ->
      closure
        (fun go -> IntSet.iter (fun i -> IntSet.iter go (lookup by_inst i)) (intra pta entry))
        (fun oid -> counts.(oid) <- counts.(oid) + 1))
    (Escape.thread_entries pta);
  let escaping = ref IntSet.empty in
  closure (fun go -> IntSet.iter go !statics) (fun oid -> escaping := IntSet.add oid !escaping);
  Array.iteri (fun oid n -> if n >= 2 then escaping := IntSet.add oid !escaping) counts;
  !escaping

let threads (pta : Pta.t) : Threadify.thread array =
  let sema = Prog.sema pta.Pta.prog in
  let acc = ref [] and n = ref 0 in
  let add th =
    acc := th :: !acc;
    incr n;
    th
  in
  let main =
    add
      {
        Threadify.th_id = 0;
        th_kind = Threadify.Dummy_main;
        th_entry = -1;
        th_parent = None;
        th_origin = Threadify.O_main;
        th_class = "@framework";
        th_method = "main";
        th_component = None;
      }
  in
  let rec expand (th : Threadify.thread) ancestors =
    if th.Threadify.th_entry >= 0 && not (List.mem th.Threadify.th_entry ancestors) then begin
      let insts = intra pta th.Threadify.th_entry in
      List.iter
        (fun (e : Pta.call_edge) ->
          match e.Pta.ce_kind with
          | Pta.E_api _ when IntSet.mem e.Pta.ce_from insts ->
              let callee = Pta.instance pta e.Pta.ce_to in
              let kind = Threadify.kind_of_edge sema e ~callee in
              let parent =
                match kind with
                | Threadify.Entry_cb _ -> main
                | Threadify.Posted_cb _ | Threadify.Native_thread | Threadify.Async_background
                | Threadify.Dummy_main ->
                    th
              in
              let child =
                add
                  {
                    Threadify.th_id = !n;
                    th_kind = kind;
                    th_entry = e.Pta.ce_to;
                    th_parent = Some parent.Threadify.th_id;
                    th_origin = Threadify.O_edge e;
                    th_class = callee.Pta.i_mref.Instr.mr_class;
                    th_method = callee.Pta.i_mref.Instr.mr_name;
                    th_component = th.Threadify.th_component;
                  }
              in
              expand child (th.Threadify.th_entry :: ancestors)
          | Pta.E_api _ | Pta.E_ordinary -> ())
        (Pta.edges pta)
    end
  in
  List.iter
    (fun (r : Pta.root) ->
      let cls = r.Pta.r_component.Nadroid_android.Component.cls in
      expand
        (add
           {
             Threadify.th_id = !n;
             th_kind = Threadify.Entry_cb r.Pta.r_cb_kind;
             th_entry = r.Pta.r_instance;
             th_parent = Some main.Threadify.th_id;
             th_origin = Threadify.O_root r;
             th_class = cls;
             th_method = r.Pta.r_method;
             th_component = Some cls;
           })
        [])
    (Pta.roots pta);
  Array.of_list (List.rev !acc)

let race_rule db =
  let v x = Engine.Var x in
  Engine.add_rule db
    (Engine.atom "race" [ v "u"; v "f" ])
    [
      Engine.Pos (Engine.atom "alias" [ v "u"; v "f" ]);
      Engine.Pos (Engine.atom "use_at" [ v "u"; v "k" ]);
      Engine.Pos (Engine.atom "free_at" [ v "f"; v "k" ]);
    ]

let uid i = "u" ^ string_of_int i

let fid i = "f" ^ string_of_int i

(* rows read back by name, their labels decoded *)
let decoded_races db =
  race_rule db;
  List.map
    (fun row ->
      let num s = int_of_string (String.sub s 1 (String.length s - 1)) in
      (num row.(0), num row.(1)))
    (Engine.query db "race")

let string_join (esc : Escape.t) (uses : Detect.access array) (frees : Detect.access array) =
  let db = Engine.create () in
  let sym = Engine.symbols db in
  let intern = Nadroid_datalog.Symbol.intern sym in
  let ukeys = Array.map (fun a -> intern (Detect.field_key a.Detect.a_field)) uses in
  let fkeys = Array.map (fun a -> intern (Detect.field_key a.Detect.a_field)) frees in
  let uids = Array.init (Array.length uses) (fun i -> intern (uid i)) in
  let fids = Array.init (Array.length frees) (fun j -> intern (fid j)) in
  Engine.facts_ids db "use_at" (List.init (Array.length uses) (fun i -> [| uids.(i); ukeys.(i) |]));
  Engine.facts_ids db "free_at"
    (List.init (Array.length frees) (fun j -> [| fids.(j); fkeys.(j) |]));
  let buckets = Hashtbl.create 64 in
  Array.iteri
    (fun j k ->
      Hashtbl.replace buckets k (j :: Option.value ~default:[] (Hashtbl.find_opt buckets k)))
    fkeys;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) buckets;
  let alias = ref [] in
  Array.iteri
    (fun i a ->
      List.iter
        (fun j ->
          let b = frees.(j) in
          if a.Detect.a_thread <> b.Detect.a_thread && Detect.may_alias esc a b then
            alias := [| uids.(i); fids.(j) |] :: !alias)
        (Option.value ~default:[] (Hashtbl.find_opt buckets ukeys.(i))))
    uses;
  Engine.facts_ids db "alias" (List.rev !alias);
  decoded_races db

let naive_join (esc : Escape.t) (uses : Detect.access array) (frees : Detect.access array) =
  let db = Engine.create () in
  Array.iteri (fun i a -> Engine.fact db "use_at" [ uid i; Detect.field_key a.Detect.a_field ]) uses;
  Array.iteri (fun j b -> Engine.fact db "free_at" [ fid j; Detect.field_key b.Detect.a_field ]) frees;
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if a.Detect.a_thread <> b.Detect.a_thread && Detect.may_alias esc a b then
            Engine.fact db "alias" [ uid i; fid j ])
        frees)
    uses;
  decoded_races db

(* [Detect.run] with [join] in place of its id-level join. *)
let detect ~join (tf : Threadify.t) (esc : Escape.t) : Detect.warning list =
  let uses, frees = Detect.collect_accesses tf in
  let uses = Array.of_list uses and frees = Array.of_list frees in
  Detect.of_pairs uses frees (join esc uses frees)
