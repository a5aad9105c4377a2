(* UAF ordering-violation detection (§5).

   After threadification, collect every {e use} ([getfield]) and {e free}
   ([putfield] of the null literal) executed by each modeled thread, and
   report a potential UAF for every use/free pair on the same abstract
   field — base points-to sets overlap on an escaping object — coming
   from two different modeled threads.

   Per the paper: lockset analysis is ignored at this stage (locks do not
   prevent ordering violations) and no MHP analysis is used; the
   happens-before filters (§6) replace it. The final candidate join runs
   on the Datalog engine, mirroring Chord's bddbddb-based pipeline. *)

open Nadroid_lang
open Nadroid_ir
open Nadroid_analysis
module IntSet = Pta.IntSet
module Clock = Nadroid_clock.Clock

type site = { s_inst : int; s_mref : Instr.mref; s_instr : Instr.t }

let pp_site ppf s =
  Fmt.pf ppf "%a#%d" Instr.pp_mref s.s_mref s.s_instr.Instr.id

let site_key s = Fmt.str "%s.%s#%d" s.s_mref.Instr.mr_class s.s_mref.Instr.mr_name s.s_instr.Instr.id

type access = {
  a_thread : int;  (** thread id *)
  a_site : site;
  a_field : Instr.fref;
  a_objs : IntSet.t;  (** abstract base objects; empty for statics *)
  a_static : bool;
}

type warning = {
  w_field : Instr.fref;
  w_use : site;
  w_free : site;
  w_pairs : (int * int) list;  (** (use-thread, free-thread) pairs, pruned by filters *)
}

let warning_key w = (site_key w.w_use, site_key w.w_free)

let field_key (fr : Instr.fref) = fr.Sema.fr_class ^ "." ^ fr.Sema.fr_name

(* Periodic wall-clock checkpoint for in-flight cancellation. A partial
   warning list would silently lose coverage (detection must be complete
   for the report to be sound), so expiry here is a hard fault. The
   clock is sampled every 256 calls to keep the common path cheap. *)
let deadline_checkpoint = function
  | None -> fun () -> ()
  | Some d ->
      let n = ref 0 in
      fun () ->
        incr n;
        if !n land 255 = 0 && Clock.now () > d then
          raise (Fault.Fault (Fault.Budget Fault.P_detect))

(* Collect uses and frees per thread.

   Threads overlap heavily on the instances they execute, and an
   access's (site, field, points-to) payload depends only on the
   instance — just the thread id differs. So each instance's body is
   scanned once into a template list, and the per-thread pass merely
   stamps templates with the thread id, instead of rescanning every
   shared body (and re-querying the points-to sets) per thread. *)
type templ = { t_use : bool; t_site : site; t_field : Instr.fref; t_objs : IntSet.t; t_static : bool }

let collect_accesses ?deadline (tf : Threadify.t) : access list * access list =
  let checkpoint = deadline_checkpoint deadline in
  let pta = tf.Threadify.pta in
  (* instance id -> its field accesses, in instruction order *)
  let templs : (int, templ list) Hashtbl.t = Hashtbl.create 256 in
  let templates_of inst_id =
    match Hashtbl.find_opt templs inst_id with
    | Some ts -> ts
    | None ->
        let inst = Pta.instance pta inst_id in
        let acc = ref [] in
        (match Pta.inst_body pta inst_id with
        | None -> ()
        | Some body ->
            Cfg.iter_instrs
              (fun ins ->
                checkpoint ();
                let site () = { s_inst = inst_id; s_mref = inst.Pta.i_mref; s_instr = ins } in
                match ins.Instr.i with
                | Instr.Getfield (_, o, fr) ->
                    acc :=
                      { t_use = true; t_site = site (); t_field = fr;
                        t_objs = Pta.pts_var pta ~inst:inst_id ~v:o; t_static = false }
                      :: !acc
                | Instr.Getstatic (_, fr) ->
                    acc :=
                      { t_use = true; t_site = site (); t_field = fr;
                        t_objs = IntSet.empty; t_static = true }
                      :: !acc
                | Instr.Putfield (o, fr, _, Instr.Src_null) ->
                    acc :=
                      { t_use = false; t_site = site (); t_field = fr;
                        t_objs = Pta.pts_var pta ~inst:inst_id ~v:o; t_static = false }
                      :: !acc
                | Instr.Putstatic (fr, _, Instr.Src_null) ->
                    acc :=
                      { t_use = false; t_site = site (); t_field = fr;
                        t_objs = IntSet.empty; t_static = true }
                      :: !acc
                | Instr.Putfield (_, _, _, Instr.Src_var)
                | Instr.Putstatic (_, _, Instr.Src_var)
                | Instr.Move _ | Instr.Const _ | Instr.New _ | Instr.Call _
                | Instr.Intrinsic _ | Instr.Unop _ | Instr.Binop _
                | Instr.Monitor_enter _ | Instr.Monitor_exit _ ->
                    ())
              body);
        let ts = List.rev !acc in
        Hashtbl.replace templs inst_id ts;
        ts
  in
  let uses = ref [] and frees = ref [] in
  List.iter
    (fun th ->
      if th.Threadify.th_entry >= 0 then
        IntSet.iter
          (fun inst_id ->
            List.iter
              (fun t ->
                let a =
                  {
                    a_thread = th.Threadify.th_id;
                    a_site = t.t_site;
                    a_field = t.t_field;
                    a_objs = t.t_objs;
                    a_static = t.t_static;
                  }
                in
                if t.t_use then uses := a :: !uses else frees := a :: !frees)
              (templates_of inst_id))
          (Threadify.instances_of tf th))
    (Threadify.threads tf);
  (!uses, !frees)

(* Do two accesses touch the same abstract memory, assuming they are on
   the same abstract field? Two static accesses of one field name the
   same cell; two instance accesses need a common, escaping base object.
   A static and an instance access never alias — they live in different
   storage even when the field keys collide. *)
let alias_memory (esc : Escape.t) (a : access) (b : access) =
  match (a.a_static, b.a_static) with
  | true, true -> true
  | false, false ->
      let common = IntSet.inter a.a_objs b.a_objs in
      IntSet.exists (fun oid -> Escape.escapes esc oid) common
  | true, false | false, true -> false

let may_alias (esc : Escape.t) (a : access) (b : access) =
  String.equal (field_key a.a_field) (field_key b.a_field) && alias_memory esc a b

(* The race rule:
     race(U, F) :- alias(U, F), use_at(U, K), free_at(F, K).
   [alias] is loaded as an EDB relation computed from points-to overlap.
   The body leads with [alias]: it is the sparsest relation (only
   genuinely aliasing pairs), so the join enumerates |alias| bindings and
   closes each with two indexed probes — leading with [use_at] made the
   engine walk every same-field use x free pair just to filter almost all
   of them against [alias]. [alias] is inserted in (use index asc, free
   index asc) order; the derivation order, and with it the warning
   order, follows from it. U and F are row indices into the use and free
   arrays, never read back by name, so they are loaded and read at the
   id level (see {!Nadroid_datalog.Engine.facts_ids}). *)
let solve_race db : (int * int) list =
  let v x = Nadroid_datalog.Engine.Var x in
  Nadroid_datalog.Engine.add_rule db
    (Nadroid_datalog.Engine.atom "race" [ v "u"; v "f" ])
    [
      Nadroid_datalog.Engine.Pos (Nadroid_datalog.Engine.atom "alias" [ v "u"; v "f" ]);
      Nadroid_datalog.Engine.Pos (Nadroid_datalog.Engine.atom "use_at" [ v "u"; v "k" ]);
      Nadroid_datalog.Engine.Pos (Nadroid_datalog.Engine.atom "free_at" [ v "f"; v "k" ]);
    ];
  List.map
    (fun row -> (row.(0), row.(1)))
    (Nadroid_datalog.Engine.query_ids db "race")

(* Alias facts are generated per field bucket: accesses are grouped by
   interned field key first, so the pair enumeration is O(sum over
   fields of uses_f * frees_f) instead of the |uses| * |frees| global
   cross-product with a string comparison per pair. Field keys are
   interned once per distinct field reference, not once per access. *)
let candidate_join ?deadline ?max_tuples ?symbols (esc : Escape.t) (uses : access array)
    (frees : access array) : (int * int) list =
  let checkpoint = deadline_checkpoint deadline in
  let db = Nadroid_datalog.Engine.create ?symbols ?max_tuples () in
  let sym = Nadroid_datalog.Engine.symbols db in
  let key_ids : (Instr.fref, int) Hashtbl.t = Hashtbl.create 64 in
  let key_id (a : access) =
    match Hashtbl.find_opt key_ids a.a_field with
    | Some id -> id
    | None ->
        let id = Nadroid_datalog.Symbol.intern sym (field_key a.a_field) in
        Hashtbl.add key_ids a.a_field id;
        id
  in
  let ukey_ids = Array.map key_id uses and fkey_ids = Array.map key_id frees in
  Nadroid_datalog.Engine.facts_ids db "use_at"
    (List.init (Array.length uses) (fun i -> [| i; ukey_ids.(i) |]));
  Nadroid_datalog.Engine.facts_ids db "free_at"
    (List.init (Array.length frees) (fun j -> [| j; fkey_ids.(j) |]));
  (* bucket frees by interned key, then enumerate per-bucket pairs *)
  let buckets : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun j k ->
      match Hashtbl.find_opt buckets k with
      | Some l -> l := j :: !l
      | None -> Hashtbl.add buckets k (ref [ j ]))
    fkey_ids;
  (* cons-building leaves buckets free-index-descending; flip them so the
     alias facts land in the (use asc, free asc) order [solve_race]'s
     derivation order contract requires *)
  Hashtbl.iter (fun _ l -> l := List.rev !l) buckets;
  let alias = ref [] in
  Array.iteri
    (fun i a ->
      match Hashtbl.find_opt buckets ukey_ids.(i) with
      | None -> ()
      | Some frees_of_key ->
          List.iter
            (fun j ->
              checkpoint ();
              let b = frees.(j) in
              if a.a_thread <> b.a_thread && alias_memory esc a b then
                alias := [| i; j |] :: !alias)
            !frees_of_key)
    uses;
  Nadroid_datalog.Engine.facts_ids db "alias" (List.rev !alias);
  solve_race db

(* Race pairs to warnings, deduplicated to (use site, free site) pairs as
   in the paper ("each warning is a pair of free-use operations", §8.3). *)
let of_pairs (uses : access array) (frees : access array) (pairs : (int * int) list) :
    warning list =
  (* pair membership is tracked per warning in a hash set (the pair list
     used to be scanned with [List.mem], quadratic in pairs); the
     accumulated [w_pairs] order is unchanged. Warnings dedup on the
     structural site identity (method reference + instruction id, the
     same components [site_key] formats) rather than formatted key
     strings — rendering two keys per race pair dominated the dedup. *)
  let skey s = (s.s_mref.Instr.mr_class, s.s_mref.Instr.mr_name, s.s_instr.Instr.id) in
  let table
      : ( (string * string * int) * (string * string * int),
          warning ref * (int * int, unit) Hashtbl.t )
        Hashtbl.t =
    Hashtbl.create 64
  in
  let order = ref [] in
  List.iter
    (fun (ui, fi) ->
      let u = uses.(ui) and f = frees.(fi) in
      let key = (skey u.a_site, skey f.a_site) in
      let p = (u.a_thread, f.a_thread) in
      match Hashtbl.find_opt table key with
      | Some (w, seen) ->
          if not (Hashtbl.mem seen p) then begin
            Hashtbl.add seen p ();
            w := { !w with w_pairs = p :: !w.w_pairs }
          end
      | None ->
          let w =
            ref { w_field = u.a_field; w_use = u.a_site; w_free = f.a_site; w_pairs = [ p ] }
          in
          let seen = Hashtbl.create 8 in
          Hashtbl.add seen p ();
          Hashtbl.add table key (w, seen);
          order := key :: !order)
    pairs;
  List.rev_map (fun key -> !(fst (Hashtbl.find table key))) !order

let run ?deadline ?max_tuples ?symbols tf esc =
  let uses_l, frees_l = collect_accesses ?deadline tf in
  let uses = Array.of_list uses_l and frees = Array.of_list frees_l in
  match candidate_join ?deadline ?max_tuples ?symbols esc uses frees with
  | pairs -> of_pairs uses frees pairs
  | exception Nadroid_datalog.Relation.Out_of_budget ->
      (* the candidate join blew the relation cardinality ceiling; unlike
         the PTA there is no coarser precision to fall back to, so this is
         a hard budget fault *)
      raise (Fault.Fault (Fault.Budget Fault.P_detect))

let n_warnings = List.length
