(* Compositional properties.

   The corpus generator instantiates every pattern on its own field, so
   pattern instances must be analysis-independent: the pipeline counts of
   an app seeded with a random multiset of patterns must equal the sums
   of the counts each pattern produces alone. This is a strong
   end-to-end property — it fails if points-to ever confuses two
   instances' objects, if a filter prunes across instances, or if
   threadification miscounts — and it is exactly the assumption the
   Table 1 calibration rests on.

   Also: random-walk robustness of the simulator (no uncaught exceptions
   on arbitrary corpus apps and seeds). *)

module Spec = Nadroid_corpus.Spec
module Gen = Nadroid_corpus.Gen
module Pipeline = Nadroid_core.Pipeline

(* patterns that are pairwise independent by construction (each owns its
   field and views); P_chb is excluded because its finish() cancels the
   whole activity and thus interferes with other instances' UI events *)
let composable : Spec.pattern list =
  [
    Spec.P_ec_pc_uaf;
    Spec.P_pc_pc_uaf;
    Spec.P_c_rt_uaf;
    Spec.P_ec_ec_uaf;
    Spec.P_guarded;
    Spec.P_intra_alloc;
    Spec.P_mhb_service;
    Spec.P_mhb_lifecycle;
    Spec.P_ma;
    Spec.P_ur;
    Spec.P_tt;
    Spec.P_fp_path;
    Spec.P_safe;
  ]

let counts_of patterns =
  let spec =
    {
      Spec.app_name = "prop";
      activities = [ { Spec.act_name = "MainActivity"; patterns } ];
      services = 0;
      padding = 0;
    }
  in
  let src, _ = Gen.generate spec in
  let t = Pipeline.analyze ~file:"prop" src in
  ( List.length t.Pipeline.potential,
    List.length t.Pipeline.after_sound,
    List.length t.Pipeline.after_unsound )

(* per-pattern counts, computed once *)
let singleton_counts : (Spec.pattern * (int * int * int)) list Lazy.t =
  lazy (List.map (fun p -> (p, counts_of [ p ])) composable)

let composition =
  QCheck2.Test.make ~name:"pipeline counts compose over independent patterns" ~count:25
    QCheck2.Gen.(list_size (int_range 2 6) (oneofl composable))
    (fun patterns ->
      let p, s, u = counts_of patterns in
      let ep, es, eu =
        List.fold_left
          (fun (p, s, u) pat ->
            let p', s', u' = List.assoc pat (Lazy.force singleton_counts) in
            (p + p', s + s', u + u'))
          (0, 0, 0) patterns
      in
      p = ep && s = es && u = eu)

let random_walks_do_not_raise =
  QCheck2.Test.make ~name:"random simulator walks never raise" ~count:40
    QCheck2.Gen.(
      pair (oneofl (Lazy.force Nadroid_corpus.Corpus.all)) (int_bound 1000))
    (fun ((app : Nadroid_corpus.Corpus.app), seed) ->
      let prog = Nadroid_ir.Prog.of_source ~file:app.Nadroid_corpus.Corpus.name app.Nadroid_corpus.Corpus.source in
      let o = Nadroid_dynamic.Explorer.random_run prog ~seed ~max_steps:50 in
      o.Nadroid_dynamic.Explorer.o_steps <= 50)

let generated_sources_reanalyze_deterministically =
  QCheck2.Test.make ~name:"analysis is deterministic" ~count:8
    (QCheck2.Gen.oneofl (Lazy.force Nadroid_corpus.Corpus.test))
    (fun (app : Nadroid_corpus.Corpus.app) ->
      let run () =
        let t = Pipeline.analyze ~file:app.Nadroid_corpus.Corpus.name app.Nadroid_corpus.Corpus.source in
        List.map Nadroid_core.Detect.warning_key t.Pipeline.after_unsound
      in
      run () = run ())

module Detect = Nadroid_core.Detect
module Corpus = Nadroid_corpus.Corpus

(* The field-indexed join must be a pure optimization: same warnings,
   same pairs, as the naive cross-product join it replaced. Compared as
   sorted sets because the Datalog fact-insertion order (and hence query
   order) differs between the two joins. *)
let indexed_join_equals_naive =
  QCheck2.Test.make ~name:"field-indexed join equals naive cross-product join" ~count:20
    QCheck2.Gen.(list_size (int_range 1 6) (oneofl composable))
    (fun patterns ->
      let spec =
        {
          Spec.app_name = "join";
          activities = [ { Spec.act_name = "MainActivity"; patterns } ];
          services = 0;
          padding = 0;
        }
      in
      let src, _ = Gen.generate spec in
      let t = Pipeline.analyze ~file:"join" src in
      let norm ws =
        List.sort compare
          (List.map
             (fun (w : Detect.warning) ->
               (Detect.warning_key w, List.sort compare w.Detect.w_pairs))
             ws)
      in
      norm (Detect.run t.Pipeline.threads t.Pipeline.esc)
      = norm (Backend_oracle.detect ~join:Backend_oracle.naive_join t.Pipeline.threads t.Pipeline.esc))

(* Parallel corpus analysis must be invisible: app-for-app, the rendered
   report at jobs=4 is byte-identical to jobs=1 (each app's analysis is
   internally sequential; the pool only changes which domain runs it). *)
let analyze_all_is_jobs_invariant =
  QCheck2.Test.make ~name:"analyze_all at jobs=4 equals jobs=1 app-for-app" ~count:5
    QCheck2.Gen.(
      list_size (int_range 2 4) (list_size (int_range 1 3) (oneofl composable)))
    (fun patternss ->
      let apps =
        List.mapi
          (fun i patterns ->
            let spec =
              {
                Spec.app_name = "papp" ^ string_of_int i;
                activities = [ { Spec.act_name = "MainActivity"; patterns } ];
                services = 0;
                padding = 0;
              }
            in
            let src, seeded = Gen.generate spec in
            { Corpus.name = spec.Spec.app_name; group = Corpus.Test; source = src; seeded })
          patternss
      in
      let norm results =
        List.map
          (fun ((a : Corpus.app), r) ->
            match r with
            | Ok (t : Pipeline.t) ->
                ( a.Corpus.name,
                  List.map Detect.warning_key t.Pipeline.after_unsound,
                  Nadroid_core.Report.to_string t.Pipeline.threads t.Pipeline.after_unsound )
            | Error f -> (a.Corpus.name, [], Nadroid_core.Fault.to_string f))
          results
      in
      norm (Corpus.analyze_all ~jobs:1 apps) = norm (Corpus.analyze_all ~jobs:4 apps))

module Synth = Nadroid_corpus.Synth
module Differential = Nadroid_corpus.Differential

(* §6.1 soundness on arbitrary generated apps: the sound-config warning
   set never misses a dynamically witnessed NPE, and never drops a
   seeded ground-truth pair that only an unsound filter may remove. *)
let sound_filters_never_drop_witnessed =
  QCheck2.Test.make ~name:"sound filters never drop a witnessed pair on generated apps"
    ~count:15
    QCheck2.Gen.(int_bound 5000)
    (fun seed ->
      let oracle = { Differential.dr_runs = 10; dr_guided = 2; dr_steps = 40 } in
      let v = Differential.examine ~oracle (Synth.generate ~seed) in
      v.Differential.vd_discrepancies = [])

(* Sound degradation extends to synthesized inputs: starving the PTA
   budget down to a k=0 fixpoint may only add warnings, never lose one
   the full-precision run reports. *)
let degraded_superset_on_synth =
  QCheck2.Test.make ~name:"budget degradation keeps a warning superset on generated apps"
    ~count:10
    QCheck2.Gen.(int_bound 5000)
    (fun seed ->
      let src, _ = Synth.render (Synth.generate ~seed) in
      let full = Pipeline.analyze ~file:"synth" src in
      let prog = full.Pipeline.prog in
      let k0_steps = (Nadroid_analysis.Pta.run ~k:0 prog).Nadroid_analysis.Pta.steps in
      let config =
        {
          Pipeline.default_config with
          Pipeline.budgets = { Pipeline.no_budgets with Pipeline.pta_steps = Some k0_steps };
        }
      in
      let degraded = Pipeline.analyze_prog ~config prog in
      let keys t = List.map Detect.warning_key t.Pipeline.after_unsound in
      List.for_all (fun k -> List.mem k (keys degraded)) (keys full))

module Pta = Nadroid_analysis.Pta

let lower ~file src =
  Nadroid_ir.Prog.of_sema (Nadroid_lang.Sema.of_source ~file src)

(* The worklist solver is gated on bit-identical equivalence with the
   snapshot-iterate-all reference solver: same objects, instances,
   points-to sets, call edges and roots — which is what keeps the golden
   reports byte-stable across the solver switch. *)
let worklist_equals_reference_on_synth =
  QCheck2.Test.make ~name:"worklist PTA equals the reference solver on generated apps"
    ~count:200
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let src, _ = Synth.render (Synth.generate ~seed) in
      let prog = lower ~file:"synth" src in
      Pta.equal_results (Pta.run prog) (Pta.run_reference prog))

let worklist_equals_reference_on_corpus () =
  List.iter
    (fun (app : Nadroid_corpus.Corpus.app) ->
      let prog = lower ~file:app.Nadroid_corpus.Corpus.name app.Nadroid_corpus.Corpus.source in
      let w = Pta.run prog and r = Pta.run_reference prog in
      Alcotest.(check bool)
        (app.Nadroid_corpus.Corpus.name ^ ": worklist = reference") true
        (Pta.equal_results w r);
      Alcotest.(check bool)
        (app.Nadroid_corpus.Corpus.name ^ ": worklist does not visit more") true
        (Pta.visits w <= Pta.visits r && Pta.steps w <= Pta.steps r))
    (Lazy.force Nadroid_corpus.Corpus.all)

let suite =
  [
    ( "composition",
      List.map QCheck_alcotest.to_alcotest
        [ composition; random_walks_do_not_raise; generated_sources_reanalyze_deterministically ]
    );
    ( "pta-equivalence",
      QCheck_alcotest.to_alcotest worklist_equals_reference_on_synth
      :: [
           Alcotest.test_case "worklist equals reference on all corpus apps" `Quick
             worklist_equals_reference_on_corpus;
         ] );
    ( "join-and-parallel",
      List.map QCheck_alcotest.to_alcotest
        [ indexed_join_equals_naive; analyze_all_is_jobs_invariant ] );
    ( "differential-props",
      List.map QCheck_alcotest.to_alcotest
        [ sound_filters_never_drop_witnessed; degraded_superset_on_synth ] );
  ]
