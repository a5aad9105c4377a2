(* Programmer-facing warning reports (§7): each potential UAF is rendered
   with its racy field, use/free sites, origin categories, and the
   callback/thread lineage chains that explain how each side comes to
   run. *)

open Nadroid_lang
open Nadroid_ir

type t = {
  field : string;
  use_site : string;
  use_loc : Loc.t;
  free_site : string;
  free_loc : Loc.t;
  category : Classify.category;
  use_lineages : string list;
  free_lineages : string list;
}

let field_name (fr : Instr.fref) = fr.Sema.fr_class ^ "." ^ fr.Sema.fr_name

let of_warning (tf : Threadify.t) (w : Detect.warning) : t =
  let lineages side =
    List.sort_uniq String.compare
      (List.map
         (fun (u, f) -> Threadify.lineage tf (Threadify.thread tf (side (u, f))))
         w.Detect.w_pairs)
  in
  {
    field = field_name w.Detect.w_field;
    use_site = Fmt.str "%a" Detect.pp_site w.Detect.w_use;
    use_loc = w.Detect.w_use.Detect.s_instr.Instr.loc;
    free_site = Fmt.str "%a" Detect.pp_site w.Detect.w_free;
    free_loc = w.Detect.w_free.Detect.s_instr.Instr.loc;
    category = Classify.of_warning tf w;
    use_lineages = lineages fst;
    free_lineages = lineages snd;
  }

let pp ppf r =
  Fmt.pf ppf "potential UAF on %s [%a]@\n" r.field Classify.pp r.category;
  Fmt.pf ppf "  use : %s (%a)@\n" r.use_site Loc.pp r.use_loc;
  List.iter (fun l -> Fmt.pf ppf "        via %s@\n" l) r.use_lineages;
  Fmt.pf ppf "  free: %s (%a)@\n" r.free_site Loc.pp r.free_loc;
  List.iter (fun l -> Fmt.pf ppf "        via %s@\n" l) r.free_lineages

(* -- per-phase metrics (§8.8) ------------------------------------------- *)

(* The degraded-mode marker. Shown wherever a budget-starved result is
   printed, so a report produced under degradation can never be mistaken
   for a full-precision one: the warning set is a sound superset. *)
let pp_degraded ppf = function
  | [] -> ()
  | ds ->
      Fmt.pf ppf "DEGRADED (sound, may over-report):%a@\n"
        (Fmt.list ~sep:Fmt.nop (fun ppf d ->
             Fmt.pf ppf " %s" (Pipeline.degradation_to_string d)))
        ds

let pp_metrics ppf (m : Pipeline.metrics) =
  let line name v =
    Fmt.pf ppf "  %-12s %8.3f ms  (%5.1f%%)@\n" name (1000.0 *. v)
      (if m.Pipeline.m_wall > 0.0 then 100.0 *. v /. m.Pipeline.m_wall else 0.0)
  in
  Fmt.pf ppf "analysis phases:@\n";
  line "lex+parse" m.Pipeline.m_frontend_parse;
  line "sema" m.Pipeline.m_frontend_sema;
  line "lower" m.Pipeline.m_frontend_lower;
  line "points-to" m.Pipeline.m_pta;
  line "escape+locks" m.Pipeline.m_aux;
  line "threadify" m.Pipeline.m_threadify;
  line "detect" m.Pipeline.m_detect;
  line "filter-ctx" m.Pipeline.m_ctx;
  line "filters" m.Pipeline.m_filter;
  Fmt.pf ppf "  %-12s %8.3f ms@\n" "wall" (1000.0 *. m.Pipeline.m_wall);
  Fmt.pf ppf "  %-12s %8d visits %8d steps %8d tuples@\n" "pta-work" m.Pipeline.m_pta_visits
    m.Pipeline.m_pta_steps m.Pipeline.m_pta_tuples;
  (match m.Pipeline.m_pruned with
  | [] -> ()
  | pruned ->
      Fmt.pf ppf "pairs pruned per filter:";
      List.iter
        (fun (n, c) -> Fmt.pf ppf " %a=%d" Filters.pp_name n c)
        pruned;
      Fmt.pf ppf "@\n");
  pp_degraded ppf m.Pipeline.m_degraded

(* Machine-readable metrics: one flat JSON object (no external JSON
   dependency; every value is a number except the name). *)
let metrics_to_json ?name (m : Pipeline.metrics) : string =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '{';
  (match name with
  | Some n -> Buffer.add_string buf (Printf.sprintf "\"name\":%S," n)
  | None -> ());
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "\"%s\":%.6f," k v))
    [
      ("frontend_parse", m.Pipeline.m_frontend_parse);
      ("frontend_sema", m.Pipeline.m_frontend_sema);
      ("frontend_lower", m.Pipeline.m_frontend_lower);
      ("pta", m.Pipeline.m_pta);
      ("aux", m.Pipeline.m_aux);
      ("threadify", m.Pipeline.m_threadify);
      ("detect", m.Pipeline.m_detect);
      ("create_ctx", m.Pipeline.m_ctx);
      ("filter", m.Pipeline.m_filter);
      ("phase_sum", Pipeline.phase_sum m);
      ("wall", m.Pipeline.m_wall);
    ];
  Buffer.add_string buf
    (Printf.sprintf "\"pta_visits\":%d,\"pta_steps\":%d,\"pta_tuples\":%d,"
       m.Pipeline.m_pta_visits m.Pipeline.m_pta_steps m.Pipeline.m_pta_tuples);
  Buffer.add_string buf "\"pruned\":{";
  List.iteri
    (fun i (n, c) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":%d" (Filters.name_to_string n) c))
    m.Pipeline.m_pruned;
  Buffer.add_string buf "},\"degraded\":[";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%S" (Pipeline.degradation_to_string d)))
    m.Pipeline.m_degraded;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* A structured fault as JSON, for failure summaries in batch output. *)
let fault_to_json ?name (f : Fault.t) : string =
  let buf = Buffer.create 128 in
  Buffer.add_char buf '{';
  (match name with
  | Some n -> Buffer.add_string buf (Printf.sprintf "\"name\":%S," n)
  | None -> ());
  Buffer.add_string buf
    (Printf.sprintf "\"fault\":%S,\"exit\":%d,\"detail\":%S}" (Fault.class_to_string f)
       (Fault.exit_code f) (Fault.detail f));
  Buffer.contents buf

let pp_all ppf (tf : Threadify.t) (ws : Detect.warning list) =
  (* highest-risk categories first, per the §7 triage hypothesis *)
  let reports = List.map (of_warning tf) ws in
  let sorted =
    List.sort (fun a b -> compare (Classify.rank b.category) (Classify.rank a.category)) reports
  in
  List.iteri (fun i r -> Fmt.pf ppf "[%d] %a@\n" (i + 1) pp r) sorted

let to_string tf ws = Fmt.str "%a" (fun ppf () -> pp_all ppf tf ws) ()
