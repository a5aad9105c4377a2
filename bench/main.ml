(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§8).

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe table1     -- Table 1 (main results)
     dune exec bench/main.exe fig5       -- Figure 5(a)/(b) (filter power)
     dune exec bench/main.exe table2     -- Table 2 (false-negative study)
     dune exec bench/main.exe table3     -- Table 3 (DEvA comparison)
     dune exec bench/main.exe timing     -- §8.8 phase split + Bechamel
     dune exec bench/main.exe ablation   -- design-choice ablations
     dune exec bench/main.exe extension  -- §9 no-sleep / energy bugs

   Expected shapes (not absolute numbers — see DESIGN.md §2) are quoted
   from the paper next to each output. *)

open Nadroid_corpus
module Pipeline = Nadroid_core.Pipeline
module Detect = Nadroid_core.Detect
module Filters = Nadroid_core.Filters
module Classify = Nadroid_core.Classify
module Threadify = Nadroid_core.Threadify
module Fault = Nadroid_core.Fault
module Cache = Nadroid_core.Cache
module Clock = Nadroid_clock.Clock

(* Corpus batch through the analysis cache (crash-isolated, like
   {!Corpus.analyze_all}); results are cache entries. The misses share
   one batch interning table. [max_bytes] caps the cache directory
   across the batch (LRU eviction after stores). *)
let analyze_all_cached ?max_bytes ~jobs ~dir (apps : Corpus.app list) :
    (Corpus.app * (Cache.entry * Cache.outcome, Fault.t) result) list =
  ignore (Lazy.force Nadroid_lang.Builtins.program);
  let interner = Pipeline.create_interner () in
  List.combine apps
    (List.map (Result.map_error Fault.of_exn)
       (Nadroid_core.Parallel.map_result ~jobs
          (fun (a : Corpus.app) ->
            Cache.analyze ?max_bytes ~interner ~dir ~file:a.Corpus.name a.Corpus.source)
          apps))

(* ---------------------------------------------------------------- *)
(* Table 1                                                            *)
(* ---------------------------------------------------------------- *)

let table1 ~jobs () =
  Eval.section "Table 1: nAdroid's UAF analysis over the 27-app corpus";
  let rows = ref [] in
  let tot = ref (0, 0, 0) in
  let harmful_total = ref 0 in
  List.iter
    (fun (e : Eval.evaluated) ->
      let app = e.Eval.app in
      let r = e.Eval.row in
      let harmful = Eval.harmful_count e in
      harmful_total := !harmful_total + harmful;
      let p, s, u = !tot in
      tot :=
        ( p + r.Pipeline.potential_count,
          s + r.Pipeline.after_sound_count,
          u + r.Pipeline.after_unsound_count );
      let cat c = List.assoc c r.Pipeline.by_category in
      (* false-positive attribution for surviving non-harmful warnings *)
      let fp_counts = Hashtbl.create 4 in
      List.iter
        (fun (w, h) ->
          if not h then begin
            let c = Eval.fp_cause app w in
            Hashtbl.replace fp_counts c
              (1 + Option.value ~default:0 (Hashtbl.find_opt fp_counts c))
          end)
        e.Eval.verdicts;
      let fp c = string_of_int (Option.value ~default:0 (Hashtbl.find_opt fp_counts c)) in
      rows :=
        [
          app.Corpus.name;
          (match app.Corpus.group with Corpus.Train -> "train" | Corpus.Test -> "test");
          string_of_int r.Pipeline.loc;
          string_of_int r.Pipeline.ec;
          string_of_int r.Pipeline.pc;
          string_of_int r.Pipeline.threads_count;
          string_of_int r.Pipeline.potential_count;
          string_of_int r.Pipeline.after_sound_count;
          string_of_int r.Pipeline.after_unsound_count;
          string_of_int (cat Classify.EC_EC);
          string_of_int (cat Classify.EC_PC);
          string_of_int (cat Classify.PC_PC);
          string_of_int (cat Classify.C_RT);
          string_of_int (cat Classify.C_NT);
          string_of_int harmful;
          fp "path-insens";
          fp "missing-hb";
          fp "unattributed";
        ]
        :: !rows)
    (List.map snd
       (Eval.keep_ok ~what:"table1" ~name:Eval.app_name
          (Eval.evaluate_all ~jobs (Lazy.force Corpus.all))));
  Eval.print_table
    ~header:
      [
        "app"; "grp"; "loc"; "EC"; "PC"; "T"; "potential"; "sound"; "unsound"; "EC-EC"; "EC-PC";
        "PC-PC"; "C-RT"; "C-NT"; "harmful"; "fp:path"; "fp:hb"; "fp:other";
      ]
    (List.rev !rows);
  let p, s, u = !tot in
  Printf.printf
    "\nTotals: potential=%d, after sound=%d (%.0f%% pruned; paper: 88%%), after unsound=%d \
     (%.0f%% of remainder pruned; paper: 70%%), combined %.0f%% (paper: 96%%).\n"
    p s (Eval.pct (p - s) p) u
    (Eval.pct (s - u) s)
    (Eval.pct (p - u) p);
  Printf.printf "True harmful UAFs (validated by schedule exploration): %d (paper: 88).\n"
    !harmful_total

(* ---------------------------------------------------------------- *)
(* Figure 5                                                           *)
(* ---------------------------------------------------------------- *)

(* Effectiveness of each filter applied individually, over the 20 test
   apps (the paper excludes the train group from Figure 5). *)
let fig5 ~jobs () =
  Eval.section "Figure 5(a): sound filters applied individually (20 test apps)";
  let evaluated =
    Eval.keep_ok ~what:"fig5" ~name:Eval.app_name
      (Corpus.analyze_all ~jobs (Lazy.force Corpus.test))
  in
  let count_pruned names stage =
    List.fold_left
      (fun (pruned, total) ((_app : Corpus.app), (t : Pipeline.t)) ->
        let base =
          match stage with
          | `Potential -> t.Pipeline.potential
          | `Sound -> t.Pipeline.after_sound
        in
        (pruned + Filters.pruned_count t.Pipeline.ctx names base, total + List.length base))
      (0, 0) evaluated
  in
  let line name names stage paper =
    let pruned, total = count_pruned names stage in
    Printf.printf "  %-8s prunes %4d / %4d  (%5.1f%%; paper: ~%s%%)\n" name pruned total
      (Eval.pct pruned total) paper
  in
  line "MHB" [ Filters.MHB ] `Potential "21";
  line "IG" [ Filters.IG ] `Potential "66";
  line "IA" [ Filters.IA ] `Potential "13";
  line "all" Filters.sound `Potential "88";
  Eval.section "Figure 5(b): unsound filters applied individually (after sound filters)";
  line "mayHB" Filters.may_hb `Sound "13";
  line "PHB" [ Filters.PHB ] `Sound "10";
  line "MA" [ Filters.MA ] `Sound "26";
  line "UR" [ Filters.UR ] `Sound "29";
  line "TT" [ Filters.TT ] `Sound "15";
  line "all" Filters.unsound `Sound "70"

(* ---------------------------------------------------------------- *)
(* Table 2                                                            *)
(* ---------------------------------------------------------------- *)

let table2 ~jobs () =
  Eval.section
    "Table 2: false-negative study — 28 artificial UAFs injected into 8 apps (paper: 2 missed \
     by detection, 3 pruned by the unsound CHB filter)";
  let header =
    [ "app"; "EC-EC"; "EC-PC"; "PC-PC"; "C-RT"; "C-NT"; "all"; "missed"; "pruned-unsound" ]
  in
  let rows = ref [] in
  let totals = Array.make 8 0 in
  let injected = Lazy.force Corpus.injected in
  let inj_name (inj : Corpus.injected_app) = inj.Corpus.inj_base.Corpus.name ^ "+inj" in
  let analyzed =
    Eval.keep_ok ~what:"table2" ~name:inj_name
      (List.map2
         (fun inj r -> (inj, Result.map_error Fault.of_exn r))
         injected
         (Nadroid_core.Parallel.map_result ~jobs
            (fun (inj : Corpus.injected_app) ->
              Pipeline.analyze ~file:(inj_name inj) inj.Corpus.inj_source)
            injected))
  in
  List.iter
    (fun ((inj : Corpus.injected_app), (t : Pipeline.t)) ->
      let field_has warnings (sd : Spec.seeded) =
        List.exists
          (fun (w : Detect.warning) ->
            String.equal w.Detect.w_field.Nadroid_lang.Sema.fr_name sd.Spec.sd_field
            && String.equal w.Detect.w_field.Nadroid_lang.Sema.fr_class sd.Spec.sd_activity)
          warnings
      in
      let cat_count = Hashtbl.create 4 in
      let missed = ref 0 and pruned = ref 0 in
      List.iter
        (fun (sd : Spec.seeded) ->
          let c = Corpus.injected_category sd.Spec.sd_pattern in
          Hashtbl.replace cat_count c
            (1 + Option.value ~default:0 (Hashtbl.find_opt cat_count c));
          if not (field_has t.Pipeline.potential sd) then incr missed
          else if not (field_has t.Pipeline.after_unsound sd) then incr pruned)
        inj.Corpus.inj_seeded;
      let n c = Option.value ~default:0 (Hashtbl.find_opt cat_count c) in
      let all = List.length inj.Corpus.inj_seeded in
      let vals =
        [
          n Classify.EC_EC; n Classify.EC_PC; n Classify.PC_PC; n Classify.C_RT; n Classify.C_NT;
          all; !missed; !pruned;
        ]
      in
      List.iteri (fun i v -> totals.(i) <- totals.(i) + v) vals;
      rows := (inj.Corpus.inj_base.Corpus.name :: List.map string_of_int vals) :: !rows)
    analyzed;
  let total_row = "TOTAL" :: Array.to_list (Array.map string_of_int totals) in
  Eval.print_table ~header (List.rev !rows @ [ total_row ]);
  Printf.printf
    "\nPaper totals: EC-EC 4, EC-PC 11, PC-PC 5, C-RT 1, C-NT 7, all 28; 2 missed (unanalysed \
     framework-mediated path), 3 pruned by unsound CHB.\n"

(* ---------------------------------------------------------------- *)
(* Table 3                                                            *)
(* ---------------------------------------------------------------- *)

(* Restrict the listing to hand-written fields (the named Table 3 rows);
   generated pattern fields ("f<n>") behave identically and would flood
   the table. *)
let generated_field dw_field =
  match String.rindex_opt dw_field '.' with
  | Some i ->
      let fname = String.sub dw_field (i + 1) (String.length dw_field - i - 1) in
      String.length fname > 1
      && fname.[0] = 'f'
      && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub fname 1 (String.length fname - 1))
  | None -> false

let table3 () =
  Eval.section
    "Table 3: comparison to DEvA on the train apps (DEvA-harmful warnings vs nAdroid)";
  let header = [ "app"; "field"; "class"; "use cb"; "free cb"; "nAdroid" ] in
  let rows = ref [] in
  List.iter
    (fun (app : Corpus.app) ->
      let prog =
        Nadroid_ir.Prog.of_sema
          (Nadroid_lang.Sema.of_source ~file:app.Corpus.name app.Corpus.source)
      in
      let deva = Nadroid_deva.Deva.run prog in
      (* nAdroid with the paper's comparison protocol: IG+IA only for
         "detected", all filters for "filtered" (§8.7) *)
      let detect_cfg =
        { Pipeline.default_config with Pipeline.sound = [ Filters.IG; Filters.IA ]; unsound = [] }
      in
      let t_detect = Pipeline.analyze_prog ~config:detect_cfg prog in
      let t_full = Pipeline.analyze_prog prog in
      let matches (dw : Nadroid_deva.Deva.warning) (w : Detect.warning) =
        let site_cb (s : Detect.site) =
          s.Detect.s_mref.Nadroid_ir.Instr.mr_class ^ "."
          ^ s.Detect.s_mref.Nadroid_ir.Instr.mr_name
        in
        String.equal
          (w.Detect.w_field.Nadroid_lang.Sema.fr_class ^ "."
          ^ w.Detect.w_field.Nadroid_lang.Sema.fr_name)
          dw.Nadroid_deva.Deva.dw_field
        && String.equal (site_cb w.Detect.w_use) dw.Nadroid_deva.Deva.dw_use_cb
        && String.equal (site_cb w.Detect.w_free) dw.Nadroid_deva.Deva.dw_free_cb
      in
      List.iter
        (fun (dw : Nadroid_deva.Deva.warning) ->
          if not (generated_field dw.Nadroid_deva.Deva.dw_field) then begin
            let detected = List.exists (matches dw) t_detect.Pipeline.after_sound in
            let filtered = not (List.exists (matches dw) t_full.Pipeline.after_unsound) in
            let verdict =
              if not detected then "Not detected"
              else if filtered then "Detected & Filtered"
              else "Detected & Reported"
            in
            let field_only =
              match String.rindex_opt dw.Nadroid_deva.Deva.dw_field '.' with
              | Some i ->
                  String.sub dw.Nadroid_deva.Deva.dw_field (i + 1)
                    (String.length dw.Nadroid_deva.Deva.dw_field - i - 1)
              | None -> dw.Nadroid_deva.Deva.dw_field
            in
            rows :=
              [
                app.Corpus.name;
                field_only;
                dw.Nadroid_deva.Deva.dw_class;
                dw.Nadroid_deva.Deva.dw_use_cb;
                dw.Nadroid_deva.Deva.dw_free_cb;
                verdict;
              ]
              :: !rows
          end)
        deva)
    (Lazy.force Corpus.train);
  Eval.print_table ~header (List.rev !rows);
  Printf.printf
    "\nPaper: of 13 DEvA-harmful warnings, nAdroid detects 12 (1 missed: the Fragment case), \
     filters 11 of them, and agrees on 1 as harmful. DEvA misses all of nAdroid's inter-class \
     and thread-involving bugs.\n"

(* ---------------------------------------------------------------- *)
(* §8.8 timing                                                        *)
(* ---------------------------------------------------------------- *)

(* Machine-readable bench point: per-app phase metrics plus aggregate
   totals, one JSON document on stdout. The per-phase times sum to the
   measured per-app wall time (create_ctx included under filtering).
   Works on cache entries so the cached and uncached paths share it;
   served-from-cache entries report the producing (cold) run's
   metrics. *)
let timing_json ~jobs ~elapsed entries =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (Printf.sprintf "{\"jobs\":%d,\"apps\":[" jobs);
  List.iteri
    (fun i ((app : Corpus.app), (e : Cache.entry)) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Nadroid_core.Report.metrics_to_json ~name:app.Corpus.name e.Cache.e_metrics))
    entries;
  let m, d, f, sum, wall =
    List.fold_left
      (fun (m, d, f, sum, wall) ((_ : Corpus.app), (e : Cache.entry)) ->
        let tm = Pipeline.timings_of_metrics e.Cache.e_metrics in
        ( m +. tm.Pipeline.t_modeling,
          d +. tm.Pipeline.t_detection,
          f +. tm.Pipeline.t_filtering,
          sum +. Pipeline.phase_sum e.Cache.e_metrics,
          wall +. e.Cache.e_metrics.Pipeline.m_wall ))
      (0.0, 0.0, 0.0, 0.0, 0.0) entries
  in
  Buffer.add_string buf
    (Printf.sprintf
       "],\"totals\":{\"modeling\":%.6f,\"detection\":%.6f,\"filtering\":%.6f,\"phase_sum\":%.6f,\"wall\":%.6f,\"elapsed\":%.6f}}"
       m d f sum wall elapsed);
  print_endline (Buffer.contents buf)

let timing ~jobs ~json ~cache ~cache_max_bytes () =
  (* [elapsed] is the batch wall clock; under [jobs] > 1 the per-app wall
     times overlap, so their sum exceeds it. *)
  let t0 = Clock.now () in
  let analyzed =
    match cache with
    | Some dir ->
        List.map
          (fun (app, (e, _outcome)) -> (app, e))
          (Eval.keep_ok ~what:"timing" ~name:Eval.app_name
             (analyze_all_cached ?max_bytes:cache_max_bytes ~jobs ~dir (Lazy.force Corpus.all)))
    | None ->
        List.map
          (fun (app, t) -> (app, Cache.entry_of_result t))
          (Eval.keep_ok ~what:"timing" ~name:Eval.app_name
             (Corpus.analyze_all ~jobs (Lazy.force Corpus.all)))
  in
  let elapsed = Clock.now () -. t0 in
  if json then timing_json ~jobs ~elapsed analyzed
  else begin
  Eval.section
    "Analysis execution time (§8.8: modeling ~1.2%, detection ~95.7%, filtering ~3.1%)";
  let m = ref 0.0 and d = ref 0.0 and f = ref 0.0 in
  List.iter
    (fun ((_ : Corpus.app), (e : Cache.entry)) ->
      let tm = Pipeline.timings_of_metrics e.Cache.e_metrics in
      m := !m +. tm.Pipeline.t_modeling;
      d := !d +. tm.Pipeline.t_detection;
      f := !f +. tm.Pipeline.t_filtering)
    analyzed;
  let total = !m +. !d +. !f in
  Printf.printf "  modeling  : %8.3f s  (%5.2f%%)\n" !m (100.0 *. !m /. total);
  Printf.printf "  detection : %8.3f s  (%5.2f%%)\n" !d (100.0 *. !d /. total);
  Printf.printf "  filtering : %8.3f s  (%5.2f%%)\n" !f (100.0 *. !f /. total);
  Printf.printf "  batch wall: %8.3f s  (%d job%s)\n" elapsed jobs (if jobs = 1 then "" else "s");
  (* Bechamel micro-benchmarks of the three phases on a mid-size app *)
  print_newline ();
  let open Bechamel in
  let app =
    List.find (fun (a : Corpus.app) -> String.equal a.Corpus.name "Mms") (Lazy.force Corpus.all)
  in
  let prog =
    Nadroid_ir.Prog.of_sema (Nadroid_lang.Sema.of_source ~file:"Mms" app.Corpus.source)
  in
  let pta = Nadroid_analysis.Pta.run ~k:2 prog in
  let esc = Nadroid_analysis.Escape.run pta in
  let locks = Nadroid_analysis.Lockset.run pta in
  let tf = Threadify.run pta in
  let pot = Detect.run tf esc in
  let ctx = Filters.create_ctx tf esc locks in
  let tests =
    Test.make_grouped ~name:"phases" ~fmt:"%s/%s"
      [
        Test.make ~name:"modeling:threadify" (Staged.stage (fun () -> Threadify.run pta));
        Test.make ~name:"detection:points-to-k2"
          (Staged.stage (fun () -> Nadroid_analysis.Pta.run ~k:2 prog));
        Test.make ~name:"detection:race-join" (Staged.stage (fun () -> Detect.run tf esc));
        Test.make ~name:"filtering:all"
          (Staged.stage (fun () ->
               Filters.apply ctx Filters.unsound (Filters.apply ctx Filters.sound pot)));
      ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Printf.printf "Bechamel (monotonic clock) on app 'Mms':\n";
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some (t :: _) -> Printf.printf "  %-32s %12.0f ns/run\n" name t
      | Some [] | None -> Printf.printf "  %-32s (no estimate)\n" name)
    results
  end

(* ---------------------------------------------------------------- *)
(* Ablations                                                          *)
(* ---------------------------------------------------------------- *)

(* A micro-program whose precision depends on the heap context depth:
   both activities allocate their [Data] at the same site (the inherited
   factory), so k<2 merges the two objects and reports a spurious
   cross-activity UAF, while k=2 separates them. *)
let k_sensitivity_demo =
  {|
class Buf { field int n; method void use() { n = n + 1; } }
class Data { field Buf buf; }
class BaseActivity extends Activity {
  method Data mk() { return new Data(); }
}
class AlphaActivity extends BaseActivity {
  field Data cache;
  method void onCreate() { cache = this.mk(); cache.buf = new Buf(); }
  method void onStart() {
    this.findViewById(1).setOnClickListener(new OnClickListener() {
      method void onClick(View v) { cache.buf = null; }
    });
  }
}
class BetaActivity extends BaseActivity {
  field Data cache;
  method void onCreate() { cache = this.mk(); cache.buf = new Buf(); }
  method void onStart() {
    this.findViewById(2).setOnClickListener(new OnClickListener() {
      method void onClick(View v) { cache.buf.use(); }
    });
  }
}
|}

let ablation () =
  Eval.section "Ablation: k-object-sensitivity depth (paper uses k=2, §8.8)";
  Printf.printf "  corpus-wide cost/precision:\n";
  List.iter
    (fun k ->
      let t0 = Clock.now () in
      let p, u =
        List.fold_left
          (fun (p, u) (app : Corpus.app) ->
            let cfg = { Pipeline.default_config with Pipeline.k } in
            let t = Eval.analyze ~config:cfg app in
            (p + List.length t.Pipeline.potential, u + List.length t.Pipeline.after_unsound))
          (0, 0) (Lazy.force Corpus.all)
      in
      Printf.printf "    k=%d: potential=%4d remaining=%3d  (%.2f s)\n" k p u
        (Clock.now () -. t0))
    [ 0; 1; 2 ];
  Printf.printf
    "  shared-factory micro-program (distinct activities allocating at one site):\n";
  List.iter
    (fun k ->
      let cfg = { Pipeline.default_config with Pipeline.k } in
      let t = Pipeline.analyze ~config:cfg ~file:"k-demo" k_sensitivity_demo in
      Printf.printf "    k=%d: %d warning(s)%s\n" k
        (List.length t.Pipeline.after_unsound)
        (if List.length t.Pipeline.after_unsound > 0 then
           "  <- spurious cross-activity alias from merged heap contexts"
         else "  <- contexts keep the two caches apart"))
    [ 0; 1; 2 ];
  Eval.section
    "Ablation: atomicity-aware IG/IA (nAdroid) vs DEvA-style unconditional application \
     (§6.1.2)";
  List.iter
    (fun atomic ->
      let harmful = ref 0 and remaining = ref 0 in
      List.iter
        (fun (app : Corpus.app) ->
          let cfg = { Pipeline.default_config with Pipeline.atomic_ig = atomic } in
          let e = Eval.evaluate ~config:cfg app in
          harmful := !harmful + Eval.harmful_count e;
          remaining := !remaining + List.length e.Eval.result.Pipeline.after_unsound)
        ((* thread-heavy subjects, including the C-NT-rich injected
            variants where guarded cross-thread uses abound *)
         Option.get (Corpus.find "FireFox")
         :: Option.get (Corpus.find "MyTracks_1")
         :: Option.get (Corpus.find "Aard")
         :: List.filter_map
              (fun (inj : Corpus.injected_app) ->
                if List.mem inj.Corpus.inj_base.Corpus.name [ "SGTPuzzles"; "Music"; "K9Mail" ]
                then
                  Some
                    {
                      inj.Corpus.inj_base with
                      Corpus.source = inj.Corpus.inj_source;
                      seeded = inj.Corpus.inj_base.Corpus.seeded @ inj.Corpus.inj_seeded;
                    }
                else None)
              (Lazy.force Corpus.injected));
      Printf.printf "  atomic_ig=%b: remaining=%d validated-harmful=%d\n" atomic !remaining
        !harmful)
    [ true; false ];
  Printf.printf
    "  (unconditional IG/IA prunes guarded-but-unsynchronised uses, losing true C-NT/C-RT \
     bugs — DEvA's false-negative source, §2.3)\n";
  Eval.section
    "Ablation: Chord's join-based MHP analysis (dropped by the paper, §5)";
  let pruned_by_mhp, total_cnt =
    List.fold_left
      (fun (p, n) (app : Corpus.app) ->
        let t = Eval.analyze app in
        let after = Nadroid_core.Mhp.prune t.Pipeline.threads t.Pipeline.potential in
        (p + (List.length t.Pipeline.potential - List.length after), n + List.length t.Pipeline.potential))
      (0, 0) (Lazy.force Corpus.all)
  in
  Printf.printf
    "  MHP would prune %d / %d potential warnings (%.2f%%) — blocking synchronisation is rare      on Android, which is why the paper drops MHP in favour of the HB filters.\n" pruned_by_mhp
    total_cnt
    (Eval.pct pruned_by_mhp total_cnt);
  Eval.section "Ablation: unsound filters off (sound-only operation, §6.2)";
  let s, u =
    List.fold_left
      (fun (s, u) (app : Corpus.app) ->
        let t = Eval.analyze app in
        (s + List.length t.Pipeline.after_sound, u + List.length t.Pipeline.after_unsound))
      (0, 0) (Lazy.force Corpus.all)
  in
  Printf.printf
    "  sound-only report: %d warnings; with unsound filters (as ranking): %d — the paper's \
     argument for shipping unsound filters as a ranking layer.\n" s u

(* ---------------------------------------------------------------- *)
(* §9 extension: no-sleep / energy bugs                               *)
(* ---------------------------------------------------------------- *)

let extension () =
  Eval.section
    "Extension (§9): no-sleep / energy bugs as acquire/release ordering violations";
  let scenarios =
    [
      ( "teardown-release (safe)",
        {|class A extends Activity { field WakeLock wl;
            method void onCreate() { wl = this.getPowerManager().newWakeLock("t"); }
            method void onResume() { wl.acquire(); }
            method void onPause() { wl.release(); } }|} );
      ( "release-in-click (unordered)",
        {|class A extends Activity { field WakeLock wl;
            method void onCreate() {
              wl = this.getPowerManager().newWakeLock("t");
              this.findViewById(1).setOnClickListener(new OnClickListener() {
                method void onClick(View v) { wl.release(); } });
            }
            method void onResume() { wl.acquire(); } }|} );
      ( "error-path leak",
        {|class A extends Activity { field WakeLock wl; field bool bad;
            method void onResume() {
              wl = this.getPowerManager().newWakeLock("t");
              wl.acquire();
              if (bad) { log("skip"); } else { wl.release(); }
            } }|} );
      ( "no release at all",
        {|class S extends Service { field WakeLock wl;
            method void onCreate() { wl = this.getPowerManager().newWakeLock("t"); }
            method void onStartCommand(Intent i) { wl.acquire(); } }|} );
    ]
  in
  List.iter
    (fun (name, src) ->
      let t = Pipeline.analyze ~file:(name ^ ".mand") src in
      let ws = Nadroid_core.Energy.detect t.Pipeline.threads in
      Printf.printf "  %-30s %d warning(s)%s\n" name (List.length ws)
        (match ws with
        | [] -> ""
        | w :: _ -> Fmt.str "  [%a]" Nadroid_core.Energy.pp_kind w.Nadroid_core.Energy.nw_kind))
    scenarios;
  Printf.printf
    "  (same threadification + points-to machinery; the teardown filter is the MHB analogue)\n"

(* ---------------------------------------------------------------- *)

let () =
  (* usage: main.exe [EXPERIMENT] [--jobs N] [--json]
                     [--cache] [--no-cache] [--cache-dir DIR]
                     [--cache-max-bytes BYTES]
     --jobs parallelizes the corpus drivers over N domains (default: all
     cores); --json makes `timing` emit a machine-readable point and
     switches every batch failure inventory to JSON lines on stderr;
     --cache routes `timing` through the analysis cache under
     --cache-dir; --cache-max-bytes LRU-evicts the cache to that size
     after each store. *)
  let which = ref "all" and jobs = ref (Nadroid_core.Parallel.default_jobs ()) and json = ref false in
  let use_cache = ref false
  and no_cache = ref false
  and cache_dir = ref Nadroid_core.Cache.default_dir
  and cache_max_bytes = ref None in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--cache" :: rest ->
        use_cache := true;
        parse rest
    | "--no-cache" :: rest ->
        no_cache := true;
        parse rest
    | "--cache-dir" :: dir :: rest ->
        cache_dir := dir;
        parse rest
    | "--cache-max-bytes" :: n :: rest ->
        (match int_of_string_opt n with
        | Some b when b >= 0 -> cache_max_bytes := Some b
        | Some _ | None ->
            Printf.eprintf "--cache-max-bytes expects a non-negative integer, got %s\n" n;
            exit 2);
        parse rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j >= 1 -> jobs := j
        | Some _ | None ->
            Printf.eprintf "--jobs expects a positive integer, got %s\n" n;
            exit 2);
        parse rest
    | arg :: rest ->
        which := arg;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let jobs = !jobs and json = !json in
  let cache_max_bytes = !cache_max_bytes in
  let cache = if !use_cache && not !no_cache then Some !cache_dir else None in
  (* under --json, batch failure inventories also go out as JSON lines *)
  Eval.json_faults := json;
  (* force the shared builtin-program lazy before any domain spawns *)
  ignore (Lazy.force Nadroid_lang.Builtins.program);
  let all =
    [
      ("table1", table1 ~jobs);
      ("fig5", fig5 ~jobs);
      ("table2", table2 ~jobs);
      ("table3", table3);
      ("timing", timing ~jobs ~json ~cache ~cache_max_bytes);
      ("ablation", ablation);
      ("extension", extension);
    ]
  in
  (match List.assoc_opt !which all with
  | Some f -> f ()
  | None ->
      if String.equal !which "all" then List.iter (fun (_, f) -> f ()) all
      else begin
        Printf.eprintf "unknown experiment %s (expected: all %s)\n" !which
          (String.concat " " (List.map fst all));
        exit 2
      end);
  (* partial-failure batches printed their tables; still exit with the
     worst fault class so CI notices *)
  if !Eval.worst_exit > 0 then exit !Eval.worst_exit
