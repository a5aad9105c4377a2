(* Must-held lockset analysis.

   nAdroid ignores locksets for race *detection* (locks do not prevent
   ordering violations, §5) but uses them *selectively* in the If-Guard
   and Intra-Allocation filters: between true threads, a guard only helps
   when check and use are protected by the same lock (§6.1.2).

   A lock object enters the set only when the monitor variable's points-to
   set is a singleton (must-alias); the interprocedural component
   intersects locks held at every ordinary call site of an instance. *)

open Nadroid_ir
module IntSet = Pta.IntSet

type t = {
  entry_locks : (int, IntSet.t) Hashtbl.t;  (** instance -> locks held at entry *)
  at_instr : (int * int, IntSet.t) Hashtbl.t;  (** (instance, instr id) -> locks held *)
}

(* Intra-procedural must-held analysis: a set of object ids. *)
let intra pta ~inst (body : Cfg.body) ~entry_fact : (int * IntSet.t) list =
  let module D = Dataflow in
  let universe = ref IntSet.empty in
  (* collect candidate lock objects to build a finite top *)
  Cfg.iter_instrs
    (fun ins ->
      match ins.Instr.i with
      | Instr.Monitor_enter v -> universe := IntSet.union !universe (Pta.pts_var pta ~inst ~v)
      | Instr.Monitor_exit _ | Instr.Move _ | Instr.Const _ | Instr.New _ | Instr.Getfield _
      | Instr.Putfield _ | Instr.Getstatic _ | Instr.Putstatic _ | Instr.Call _
      | Instr.Intrinsic _ | Instr.Unop _ | Instr.Binop _ ->
          ())
    body;
  let top = IntSet.union !universe entry_fact in
  let lock_token v =
    let p = Pta.pts_var pta ~inst ~v in
    if IntSet.cardinal p = 1 then p else IntSet.empty
  in
  let spec =
    {
      D.init_entry = entry_fact;
      init_other = top;
      join = IntSet.inter;
      equal = IntSet.equal;
      transfer_instr =
        (fun ins fact ->
          match ins.Instr.i with
          | Instr.Monitor_enter v -> IntSet.union fact (lock_token v)
          | Instr.Monitor_exit v -> IntSet.diff fact (Pta.pts_var pta ~inst ~v)
          | Instr.Move _ | Instr.Const _ | Instr.New _ | Instr.Getfield _ | Instr.Putfield _
          | Instr.Getstatic _ | Instr.Putstatic _ | Instr.Call _ | Instr.Intrinsic _
          | Instr.Unop _ | Instr.Binop _ ->
              fact);
      transfer_edge = (fun _ _ fact -> fact);
    }
  in
  let res = D.run body spec in
  let out = ref [] in
  D.iter_facts res (fun ins fact -> out := (ins.Instr.id, fact) :: !out);
  !out

let run (pta : Pta.t) : t =
  let entry_locks = Hashtbl.create 64 in
  let n = Pta.n_instances pta in
  (* Monitor presence per body, memoized by method reference: a body
     with no Monitor_enter/exit has the closed-form solution "every
     fact equals the entry fact" (the transfer is the identity, top
     and the entry meet at the entry fact under intersection), so the
     per-instance dataflow fixpoint is skipped for it. Most bodies
     never lock, which made the fixpoint below the aux phase's hottest
     loop. *)
  let monitors_tbl = Hashtbl.create 64 in
  let has_monitors mref body =
    match Hashtbl.find_opt monitors_tbl mref with
    | Some b -> b
    | None ->
        let b = ref false in
        Cfg.iter_instrs
          (fun ins ->
            match ins.Instr.i with
            | Instr.Monitor_enter _ | Instr.Monitor_exit _ -> b := true
            | _ -> ())
          body;
        Hashtbl.replace monitors_tbl mref !b;
        !b
  in
  (* interprocedural fixpoint: entry lockset = intersection over callers
     of (locks held at the call site); roots and posted callbacks start
     with the empty set. *)
  let get i = Option.value ~default:IntSet.empty (Hashtbl.find_opt entry_locks i) in
  (* initially: every instance that is a thread entry has empty lockset;
     others start at "unknown", represented by absence *)
  let entries = Escape.thread_entries pta in
  List.iter (fun e -> Hashtbl.replace entry_locks e IntSet.empty) entries;
  (* ordinary out-edges by caller, in edge-list order: the fixpoint reads
     an instance's out-edges every round, so scanning the full edge list
     each time was quadratic *)
  let out_edges = Hashtbl.create 64 in
  List.iter
    (fun (e : Pta.call_edge) ->
      if e.Pta.ce_kind = Pta.E_ordinary then
        Hashtbl.replace out_edges e.Pta.ce_from
          (e :: Option.value ~default:[] (Hashtbl.find_opt out_edges e.Pta.ce_from)))
    (Pta.edges pta);
  Hashtbl.filter_map_inplace (fun _ es -> Some (List.rev es)) out_edges;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let inst = Pta.instance pta i in
      match Pta.inst_body pta i with
      | None -> ()
      | Some body ->
          if Hashtbl.mem entry_locks i then begin
            let monitored = has_monitors inst.Pta.i_mref body in
            let facts =
              if monitored then intra pta ~inst:i body ~entry_fact:(get i) else []
            in
            (* push held locks into ordinary callees *)
            List.iter
              (fun (e : Pta.call_edge) ->
                  let held_at_site =
                    if monitored then
                      Option.value ~default:IntSet.empty
                        (List.assoc_opt e.Pta.ce_instr.Instr.id facts)
                    else (* closed form: the entry fact holds everywhere *)
                      get i
                  in
                  let updated =
                    match Hashtbl.find_opt entry_locks e.Pta.ce_to with
                    | None -> held_at_site
                    | Some cur -> IntSet.inter cur held_at_site
                  in
                  let cur = Hashtbl.find_opt entry_locks e.Pta.ce_to in
                  if cur <> Some updated then begin
                    Hashtbl.replace entry_locks e.Pta.ce_to updated;
                    changed := true
                  end)
              (Option.value ~default:[] (Hashtbl.find_opt out_edges i))
          end
    done
  done;
  (* final per-instruction locksets *)
  let at_instr = Hashtbl.create 256 in
  for i = 0 to n - 1 do
    let inst = Pta.instance pta i in
    match Pta.inst_body pta i with
    | None -> ()
    | Some body ->
        if has_monitors inst.Pta.i_mref body then
          List.iter
            (fun (id, fact) -> Hashtbl.replace at_instr (i, id) fact)
            (intra pta ~inst:i body ~entry_fact:(get i))
        else begin
          (* closed form: every instruction holds exactly the entry
             fact; an empty one needs no entries at all, since
             {!locks_at} already defaults to the empty set *)
          let fact = get i in
          if not (IntSet.is_empty fact) then
            Cfg.iter_instrs
              (fun ins -> Hashtbl.replace at_instr (i, ins.Instr.id) fact)
              body
        end
  done;
  { entry_locks; at_instr }

let locks_at t ~inst ~instr_id =
  Option.value ~default:IntSet.empty (Hashtbl.find_opt t.at_instr (inst, instr_id))

(* Are two program points protected by a common lock object? *)
let common_lock t ~inst1 ~instr1 ~inst2 ~instr2 =
  not (IntSet.is_empty (IntSet.inter (locks_at t ~inst:inst1 ~instr_id:instr1) (locks_at t ~inst:inst2 ~instr_id:instr2)))
