(* Thread-escape analysis.

   An abstract object escapes when it can be reached by more than one
   abstract thread (entry-callback root or framework-dispatched callback /
   spawned thread) or through a static field. Races are only reported on
   escaping objects — the standard Chord pipeline step (§5).

   Thread entries are the points-to roots plus the targets of API edges
   (posted callbacks, spawned runnables): exactly the nodes that
   threadification turns into threads. *)

module IntSet = Pta.IntSet

type t = {
  escaping : IntSet.t;  (** object ids accessible to >= 2 threads or statics *)
}

let thread_entries pta : int list =
  let n = Pta.n_instances pta in
  let entry = Bytes.make n '\000' in
  List.iter (fun r -> Bytes.set entry r.Pta.r_instance '\001') (Pta.roots pta);
  List.iter
    (fun e ->
      match e.Pta.ce_kind with
      | Pta.E_api _ -> Bytes.set entry e.Pta.ce_to '\001'
      | Pta.E_ordinary -> ())
    (Pta.edges pta);
  let acc = ref [] in
  for i = n - 1 downto 0 do
    if Bytes.get entry i = '\001' then acc := i :: !acc
  done;
  !acc

(* Which thread entries reach an instance or object: none, exactly one,
   or at least two (statics count as two). *)
type reach = Nobody | One of int | Many

(* [cur] joined with [r], or [None] when the join is [cur] itself. *)
let grow cur r =
  match (cur, r) with
  | _, Nobody | Many, _ -> None
  | One a, One b when a = b -> None
  | Nobody, (One _ | Many) -> Some r
  | One _, (One _ | Many) -> Some Many

(* One fixpoint over the points-to cells instead of a heap closure per
   thread entry. An instance's reach is the join of the entries whose
   intra-thread closure holds it; its var and return cells pass that
   reach to their objects, and an object's field cells pass its reach on.
   A reach only grows, at most twice, so each object's field cells are
   walked at most twice. [Many] is exactly "seen by >= 2 entries or by a
   static". *)
let run (pta : Pta.t) : t =
  let inst_reach = Array.make (max 1 (Pta.n_instances pta)) Nobody in
  List.iter
    (fun entry ->
      let e = One entry in
      IntSet.iter
        (fun i -> Option.iter (fun r -> inst_reach.(i) <- r) (grow inst_reach.(i) e))
        (Pta.intra_instances pta entry))
    (thread_entries pta);
  let n_objs = max 1 (Pta.n_objects pta) in
  let reach = Array.make n_objs Nobody in
  (* each object's field cells as stored: unioning them would build a
     set per object for a walk that happens at most twice *)
  let fields = Array.make n_objs [] in
  let grown = Stack.create () in
  let lift r oid =
    match grow reach.(oid) r with
    | None -> ()
    | Some r' ->
        reach.(oid) <- r';
        Stack.push oid grown
  in
  (* the reach being passed on, read by one closure shared by every cell
     instead of a closure allocated per cell *)
  let passing = ref Nobody in
  let lift_passing oid = lift !passing oid in
  let pass r pts =
    passing := r;
    IntSet.iter lift_passing pts
  in
  Pta.NodeTbl.iter
    (fun node c ->
      match node with
      | Pta.Nvar (i, _) | Pta.Nret i -> (
          match inst_reach.(i) with Nobody -> () | r -> pass r c.Pta.c_pts)
      | Pta.Nfld (o, _) ->
          if not (IntSet.is_empty c.Pta.c_pts) then fields.(o) <- c.Pta.c_pts :: fields.(o)
      | Pta.Nstatic _ -> pass Many c.Pta.c_pts)
    pta.Pta.pts;
  while not (Stack.is_empty grown) do
    let oid = Stack.pop grown in
    let r = reach.(oid) in
    List.iter (pass r) fields.(oid)
  done;
  let escaping = ref [] in
  for oid = n_objs - 1 downto 0 do
    match reach.(oid) with Many -> escaping := oid :: !escaping | Nobody | One _ -> ()
  done;
  { escaping = IntSet.of_list !escaping }

let escapes t oid = IntSet.mem oid t.escaping

let n_escaping t = IntSet.cardinal t.escaping
