(* Spans recorded from the benchmark's own code around each layer's
   public functions, and the pipeline composed layer by layer from those
   functions in the order [Pipeline.analyze] composes them.

   A span carries its name, id, parent, verdict, start and end, and the
   words allocated on the calling domain meanwhile. Spans stay in
   per-domain buffers until [drain]; a layer's self time is its span's
   duration minus the part of it that its children cover. *)

open Nadroid_lang
open Nadroid_ir
open Nadroid_analysis
module Pipeline = Nadroid_core.Pipeline
module Cache = Nadroid_core.Cache
module Fault = Nadroid_core.Fault
module Filters = Nadroid_core.Filters
module Threadify = Nadroid_core.Threadify
module Detect = Nadroid_core.Detect
module Report = Nadroid_core.Report
module Clock = Nadroid_clock.Clock

type span = {
  name : string;
  id : int;
  parent : int;  (** -1 for a root *)
  verdict : int;
  t0 : float;
  t1 : float;
  alloc_w : float;  (** words allocated on the calling domain *)
  promoted_w : float;  (** words the calling domain's minor GCs promoted *)
}

let registry_m = Mutex.create ()

let registry : span list ref list ref = ref []

let buffer =
  Domain.DLS.new_key (fun () ->
      let b = ref [] in
      Mutex.lock registry_m;
      registry := b :: !registry;
      Mutex.unlock registry_m;
      b)

let next_id = Atomic.make 0

let counters () =
  let minor, promoted, major = Gc.counters () in
  (minor +. major -. promoted, promoted)

(* [span ~verdict name f] runs [f id] inside a span; [id] is the parent
   to give the spans [f] opens. *)
let span ~verdict ?(parent = -1) name f =
  let id = Atomic.fetch_and_add next_id 1 in
  let a0, p0 = counters () in
  let t0 = Clock.now () in
  let r = f id in
  let t1 = Clock.now () in
  let a1, p1 = counters () in
  let b = Domain.DLS.get buffer in
  b :=
    { name; id; parent; verdict; t0; t1; alloc_w = a1 -. a0; promoted_w = p1 -. p0 } :: !b;
  r

(* Every span recorded so far, on any domain; the buffers are emptied.
   Call only while no other domain is recording. *)
let drain () =
  Mutex.lock registry_m;
  let all = List.concat_map (fun b -> let s = !b in b := []; s) !registry in
  Mutex.unlock registry_m;
  all

(* (name, self seconds, self words allocated) of every span. *)
let self_costs spans =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let kids =
        List.sort (fun a b -> compare a.t0 b.t0) (Hashtbl.find_all children s.id)
      in
      (* union of the children's intervals, clipped to the parent *)
      let covered, _ =
        List.fold_left
          (fun (acc, reach) k ->
            let lo = Float.max (Float.max k.t0 reach) s.t0 and hi = Float.min k.t1 s.t1 in
            if hi > lo then (acc +. (hi -. lo), hi) else (acc, Float.max reach hi))
          (0.0, s.t0) kids
      in
      let kid_alloc = List.fold_left (fun acc k -> acc +. k.alloc_w) 0.0 kids in
      (s.name, s.t1 -. s.t0 -. covered, s.alloc_w -. kid_alloc))
    spans

(* Per-verdict counts the composition reports beside its spans. *)
type counts = {
  pta_visits : int;
  pta_steps : int;
  candidates : int;
  kept_sound : int;
  kept_unsound : int;
  report_bytes : int;
}

let zero_counts =
  { pta_visits = 0; pta_steps = 0; candidates = 0; kept_sound = 0; kept_unsound = 0; report_bytes = 0 }

let add_counts a b =
  {
    pta_visits = a.pta_visits + b.pta_visits;
    pta_steps = a.pta_steps + b.pta_steps;
    candidates = a.candidates + b.candidates;
    kept_sound = a.kept_sound + b.kept_sound;
    kept_unsound = a.kept_unsound + b.kept_unsound;
    report_bytes = a.report_bytes + b.report_bytes;
  }

(* The span names [compose] records, in pipeline order. *)
let layers =
  [ "lexer"; "parser"; "sema"; "lower"; "pta"; "escape"; "lockset"; "threadify"; "detect"; "filters"; "report" ]

(* [Pipeline.analyze ~config:Pipeline.default_config ?interner ~file src]
   one public layer function at a time, each in its own span under
   [parent]: the size-derived step and tuple budgets, the points-to k
   ladder, escape and lockset, threadification, the detection join, the
   filter context and both filter passes, and the report. The entry is
   [base] (an entry of any analysis) with the counts, degradations and
   report that [Protocol.entry_json] renders replaced; its timings are
   [base]'s. *)
let compose ?interner ~base ~verdict ~parent ~file src : Cache.entry * counts =
  let config = Pipeline.default_config in
  let sp name f = span ~verdict ~parent name (fun _ -> f ()) in
  let loc = Pipeline.count_loc src in
  let steps = Pipeline.auto_pta_steps ~loc and tuples = Pipeline.auto_pta_tuples ~loc in
  let toks = sp "lexer" (fun () -> Lexer.tokens ~file src) in
  let ast = sp "parser" (fun () -> Parser.parse_program_tokens ~file toks) in
  let sema = sp "sema" (fun () -> Sema.analyze ast) in
  let prog = sp "lower" (fun () -> Prog.of_sema sema) in
  let pta, degraded =
    sp "pta" (fun () ->
        let rec ladder k =
          match Pta.run_budgeted ~steps ~tuples ~solver:config.Pipeline.solver ~k prog with
          | Some pta -> (pta, if k = config.Pipeline.k then [] else [ Pipeline.D_pta_k k ])
          | None ->
              if k > 0 then ladder (k - 1) else raise (Fault.Fault (Fault.Budget Fault.P_pta))
        in
        ladder config.Pipeline.k)
  in
  let esc = sp "escape" (fun () -> Escape.run pta) in
  let locks = sp "lockset" (fun () -> Lockset.run pta) in
  let threads = sp "threadify" (fun () -> Threadify.run pta) in
  let potential = sp "detect" (fun () -> Detect.run ?symbols:interner threads esc) in
  let after_sound, after_unsound =
    sp "filters" (fun () ->
        let ctx = Filters.create_ctx ~atomic_ig:config.Pipeline.atomic_ig threads esc locks in
        let s, _ = Filters.apply_counted ctx config.Pipeline.sound potential in
        let u, _ = Filters.apply_counted ctx config.Pipeline.unsound s in
        (s, u))
  in
  let report = sp "report" (fun () -> Report.to_string threads after_unsound) in
  let base =
    { base with Cache.e_metrics = { base.Cache.e_metrics with Pipeline.m_degraded = degraded } }
  in
  ( {
      base with
      Cache.e_potential = List.length potential;
      e_after_sound = List.length after_sound;
      e_after_unsound = List.length after_unsound;
      e_report = report;
    },
    {
      pta_visits = Pta.visits pta;
      pta_steps = Pta.steps pta;
      candidates = List.length potential;
      kept_sound = List.length after_sound;
      kept_unsound = List.length after_unsound;
      report_bytes = String.length report;
    } )
