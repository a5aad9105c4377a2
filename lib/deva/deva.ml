(* A faithful reimplementation of the DEvA baseline (Safi et al.,
   ESEC/FSE'15) as characterised by the paper (§2.3, §8.7):

   - {b intra-class scope}: read/write sets are computed per class group
     (a class plus its anonymous inner classes); accesses to another
     class's fields through object references are invisible, so
     inter-class anomalies are missed;
   - {b no happens-before analysis}: every pair of event callbacks is
     considered racy, which floods the report with MHB-orderable pairs
     (e.g. uses in onX vs frees in onDestroy);
   - {b no multi-threading}: bodies reached only through native threads
     are not part of any event callback's read/write set;
   - {b unsound IG/IA}: the if-guard and intra-allocation filters are
     applied assuming all methods are atomic, pruning true races between
     callbacks and threads.

   Used by the Table 3 comparison. *)

open Nadroid_lang
open Nadroid_ir
open Nadroid_android
open Nadroid_analysis

type warning = {
  dw_field : string;  (** qualified racy field *)
  dw_class : string;  (** class group owning the callbacks *)
  dw_use_cb : string;  (** callback containing the use *)
  dw_free_cb : string;  (** callback containing the free *)
}

let pp ppf w =
  Fmt.pf ppf "%s in %s: use in %s, free in %s" w.dw_field w.dw_class w.dw_use_cb w.dw_free_cb

(* The root of a class's outer chain: anonymous classes belong to the
   group of the class they were written in. *)
let rec group_root (sema : Sema.t) cls =
  match (Sema.get_class sema cls).Sema.rc_outer with
  | Some o -> group_root sema o
  | None -> cls

(* Event callbacks of a group: methods (of the root or its anonymous
   members) that override a framework callback. DEvA has no thread model,
   so [run] bodies only count when they are posted as events — without a
   points-to analysis DEvA cannot tell, and it includes them all; we
   follow that. *)
(* DEvA recognises event handlers by name against a broad handler list
   covering Fragments and custom components — approximated here as any
   [onXxx] method. This is how DEvA sees the Fragment callbacks nAdroid's
   component model misses (Table 3, Browser row). *)
let name_looks_like_callback name =
  String.length name > 2
  && String.sub name 0 2 = "on"
  && name.[2] >= 'A'
  && name.[2] <= 'Z'

let group_callbacks (sema : Sema.t) root : (string * Sema.rmeth) list =
  List.concat_map
    (fun (c : Sema.rcls) ->
      if String.equal (group_root sema c.Sema.rc_name) root then
        List.filter_map
          (fun (m : Sema.rmeth) ->
            match Callback.of_method sema ~cls:c.Sema.rc_name ~meth:m.Sema.rm_name with
            | Some _ -> Some (c.Sema.rc_name ^ "." ^ m.Sema.rm_name, m)
            | None ->
                if name_looks_like_callback m.Sema.rm_name then
                  Some (c.Sema.rc_name ^ "." ^ m.Sema.rm_name, m)
                else None)
          c.Sema.rc_methods
      else [])
    (Sema.user_classes sema)

let field_key (fr : Instr.fref) = fr.Sema.fr_class ^ "." ^ fr.Sema.fr_name

(* Accesses of a callback body to fields of classes inside the group:
   DEvA's read/write sets are intra-class, so only fields declared by the
   group's classes count. *)
type accesses = { reads : (string * Instr.t) list; writes_null : (string * Instr.t) list }

let body_accesses (sema : Sema.t) (prog : Prog.t) root (m : Sema.rmeth) : accesses =
  let in_group (fr : Instr.fref) = String.equal (group_root sema fr.Sema.fr_class) root in
  match Prog.body prog { Instr.mr_class = m.Sema.rm_class; mr_name = m.Sema.rm_name } with
  | None -> { reads = []; writes_null = [] }
  | Some body ->
      let reads = ref [] and writes = ref [] in
      Cfg.iter_instrs
        (fun ins ->
          match ins.Instr.i with
          | Instr.Getfield (_, _, fr) when in_group fr ->
              if not (String.equal fr.Sema.fr_name "outer") then
                reads := (field_key fr, ins) :: !reads
          | Instr.Getstatic (_, fr) when in_group fr -> reads := (field_key fr, ins) :: !reads
          | Instr.Putfield (_, fr, _, Instr.Src_null) when in_group fr ->
              writes := (field_key fr, ins) :: !writes
          | Instr.Putstatic (fr, _, Instr.Src_null) when in_group fr ->
              writes := (field_key fr, ins) :: !writes
          | Instr.Getfield _ | Instr.Getstatic _ | Instr.Putfield _ | Instr.Putstatic _
          | Instr.Move _ | Instr.Const _ | Instr.New _ | Instr.Call _ | Instr.Intrinsic _
          | Instr.Unop _ | Instr.Binop _ | Instr.Monitor_enter _ | Instr.Monitor_exit _ ->
              ())
        body;
      { reads = !reads; writes_null = !writes }

(* Unsound IG/IA: prune a use that is guarded or preceded by an
   allocation, with no atomicity requirement (§2.3). *)
let unsoundly_protected (prog : Prog.t) (m : Sema.rmeth) (ins : Instr.t) =
  match Prog.body prog { Instr.mr_class = m.Sema.rm_class; mr_name = m.Sema.rm_name } with
  | None -> false
  | Some body ->
      let g = Guards.analyze body in
      Guards.is_guarded_use g ~instr:ins || Guards.is_must_alloc_use g ~instr:ins

let run (prog : Prog.t) : warning list =
  let sema = Prog.sema prog in
  let roots =
    List.sort_uniq String.compare
      (List.filter_map
         (fun (c : Sema.rcls) ->
           if c.Sema.rc_anon then None else Some c.Sema.rc_name)
         (Sema.user_classes sema))
  in
  let out = ref [] in
  List.iter
    (fun root ->
      let cbs = group_callbacks sema root in
      List.iter
        (fun (use_name, use_m) ->
          let ua = body_accesses sema prog root use_m in
          List.iter
            (fun (free_name, free_m) ->
              if not (String.equal use_name free_name) then
                let fa = body_accesses sema prog root free_m in
                List.iter
                  (fun (ukey, uins) ->
                    if
                      List.exists (fun (fkey, _) -> String.equal ukey fkey) fa.writes_null
                      && not (unsoundly_protected prog use_m uins)
                    then
                      let w =
                        {
                          dw_field = ukey;
                          dw_class = root;
                          dw_use_cb = use_name;
                          dw_free_cb = free_name;
                        }
                      in
                      if not (List.mem w !out) then out := w :: !out)
                  ua.reads)
            cbs)
        cbs)
    roots;
  List.rev !out
