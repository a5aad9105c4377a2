(* Robustness of the analysis runtime: the fault taxonomy's guarantees
   hold under hostile inputs and starved budgets.

   - arbitrary truncation of a real source is either analyzed cleanly or
     rejected with a frontend diagnostic — never any other exception;
   - one poisoned input in a parallel corpus run costs exactly its own
     slot, never the batch;
   - a starved PTA budget degrades to a coarser k whose warning set is a
     superset of the full-precision run (sound degradation);
   - the chaos harness itself finds nothing on the shipped corpus;
   - user-reachable runtime faults in the simulator surface as located
     [Interp.Stuck] records, not as crashes of the harness. *)

module Pipeline = Nadroid_core.Pipeline
module Fault = Nadroid_core.Fault
module Detect = Nadroid_core.Detect
module Corpus = Nadroid_corpus.Corpus
module Chaos = Nadroid_corpus.Chaos
module Clock = Nadroid_clock.Clock
module Faultinject = Nadroid_core.Faultinject

let analyze_src src =
  Fault.wrap (fun () -> Pipeline.analyze ~file:"fuzz" src)

(* Truncating a well-formed source at any byte must hit the structured
   frontend path (or still parse, for cuts in trailing whitespace or at
   a top-level boundary) — never an assertion, Not_found, or other
   internal failure. *)
let truncation_prop =
  QCheck2.Test.make ~name:"truncated corpus sources fail only with frontend diagnostics"
    ~count:120
    QCheck2.Gen.(
      pair (oneofl (Lazy.force Corpus.all)) (float_bound_inclusive 1.0))
    (fun (app, frac) ->
      let src = app.Corpus.source in
      let cut = int_of_float (frac *. float_of_int (String.length src)) in
      match analyze_src (String.sub src 0 cut) with
      | Ok _ | Error (Fault.Frontend _) -> true
      | Error (Fault.Budget _ | Fault.Internal _) -> false)

let poisoned_corpus () =
  let good = Lazy.force Corpus.all in
  let poisoned =
    { (List.hd good) with Corpus.name = "poisoned"; source = "class Broken extends {{{" }
  in
  let results = Corpus.analyze_all ~jobs:2 (good @ [ poisoned ]) in
  Alcotest.(check int) "all slots present" (List.length good + 1) (List.length results);
  let oks, errs = List.partition (fun (_, r) -> Result.is_ok r) results in
  Alcotest.(check int) "good apps all analyzed" (List.length good) (List.length oks);
  match errs with
  | [ (app, Error (Fault.Frontend _)) ] ->
      Alcotest.(check string) "failure is the poisoned app" "poisoned" app.Corpus.name
  | _ -> Alcotest.fail "expected exactly one frontend fault"

(* Budget = the exact step count of an unbudgeted k=0 fixpoint: k=2 and
   k=1 exhaust it, the k=0 retry just fits, and the run must come back
   degraded with every full-precision warning still present. *)
let degraded_superset () =
  let app =
    match Corpus.find "Zxing" with Some a -> a | None -> Alcotest.fail "no Zxing"
  in
  let full = Pipeline.analyze ~file:app.Corpus.name app.Corpus.source in
  let prog = full.Pipeline.prog in
  let k0_steps = (Nadroid_analysis.Pta.run ~k:0 prog).Nadroid_analysis.Pta.steps in
  Alcotest.(check bool)
    "k=0 is strictly cheaper than k=2" true
    (k0_steps < full.Pipeline.pta.Nadroid_analysis.Pta.steps);
  let config =
    {
      Pipeline.default_config with
      Pipeline.budgets = { Pipeline.no_budgets with Pipeline.pta_steps = Some k0_steps };
    }
  in
  let degraded = Pipeline.analyze_prog ~config prog in
  Alcotest.(check bool)
    "run is marked degraded" true
    (degraded.Pipeline.metrics.Pipeline.m_degraded <> []);
  let keys t = List.map Detect.warning_key t.Pipeline.after_unsound in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Fmt.str "full-precision warning %s survives degradation" (fst k))
        true
        (List.mem k (keys degraded)))
    (keys full)

(* Budget auto-calibration headroom: the LOC-derived default budget must
   leave every corpus app fully precise — a degradation under the default
   config would mean the calibration constant regressed. *)
let auto_budget_headroom () =
  Alcotest.(check int) "derived floor" 5_500 (Pipeline.auto_pta_steps ~loc:1);
  List.iter
    (fun (app : Corpus.app) ->
      let t = Pipeline.analyze ~file:app.Corpus.name app.Corpus.source in
      (match t.Pipeline.config.Pipeline.budgets.Pipeline.pta_steps with
      | Some s ->
          Alcotest.(check bool)
            (app.Corpus.name ^ ": budget derived from loc") true
            (s = Pipeline.auto_pta_steps ~loc:(Pipeline.count_loc app.Corpus.source))
      | None -> Alcotest.fail (app.Corpus.name ^ ": no derived budget"));
      Alcotest.(check (list string))
        (app.Corpus.name ^ ": undegraded under the derived budget")
        []
        (List.map Pipeline.degradation_to_string t.Pipeline.metrics.Pipeline.m_degraded))
    (Lazy.force Corpus.all)

(* The degrade ladder engages at the derived budget too: squashing a
   source onto one line drives the LOC-derived budget to its 5,500-step
   floor, which InstaMaterial's k=2 and k=1 solves exhaust while k=0
   still fits — so [Pipeline.analyze] with no explicit budget must come
   back degraded-to-k=0 with a warning superset of the full-precision
   run. *)
let degrade_ladder_at_derived_budget () =
  let app =
    match Corpus.find "InstaMaterial" with
    | Some a -> a
    | None -> Alcotest.fail "no InstaMaterial"
  in
  let squashed =
    String.concat " "
      (List.filter
         (fun l ->
           let l = String.trim l in
           (not (String.equal l ""))
           && not (String.length l >= 2 && l.[0] = '/' && l.[1] = '/'))
         (String.split_on_char '\n' app.Corpus.source))
  in
  Alcotest.(check int) "squashed to one line" 1 (Pipeline.count_loc squashed);
  let t = Pipeline.analyze ~file:"one-line" squashed in
  Alcotest.(check (option int))
    "budget derived at the floor" (Some (Pipeline.auto_pta_steps ~loc:1))
    t.Pipeline.config.Pipeline.budgets.Pipeline.pta_steps;
  Alcotest.(check (list string))
    "degraded to k=0" [ "pta-k=0" ]
    (List.map Pipeline.degradation_to_string t.Pipeline.metrics.Pipeline.m_degraded);
  let full = Pipeline.analyze_prog t.Pipeline.prog in
  let keys r = List.map Detect.warning_key r.Pipeline.after_unsound in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Fmt.str "full-precision warning %s survives the derived-budget ladder" (fst k))
        true
        (List.mem k (keys t)))
    (keys full)

(* With the fault plan [spec] armed in this process. *)
let with_faults spec f =
  match Faultinject.arm_spec spec with
  | Ok () -> Fun.protect ~finally:Faultinject.disarm f
  | Error e -> Alcotest.failf "arming %s: %s" spec e

(* A deadlined analysis under this plan sleeps about 1 ms per warning in
   its MHB filter, so the adversarial Synth app (s^2 = 1,600 warnings at
   size 40) spends seconds in its filter phase on any host, and a
   deadline of a fraction of a second expires inside it. *)
let with_stalled_filters f = with_faults "filter=MHB:stall" f

(* In-flight deadline cancellation: with its filters stalled, the
   adversarial Synth app spends almost all its time inside the filter
   phase, so a deadline that expires mid-filters must cancel the running
   loop at a checkpoint — not wait for the phase to finish. The run must
   come back well inside 2x the deadline, be marked degraded (filters
   skipped), and its warning set must be a superset of the
   full-precision run's (skipping filters only over-reports). *)
let deadline_is_honoured_in_flight () =
  let src = Nadroid_corpus.Synth.adversarial ~seed:0 ~size:40 in
  let d = 0.4 in
  let config =
    {
      Pipeline.default_config with
      Pipeline.budgets = { Pipeline.no_budgets with Pipeline.deadline = Some d };
    }
  in
  let t0 = Clock.now () in
  let t = with_stalled_filters (fun () -> Pipeline.analyze ~config ~file:"adversarial" src) in
  let wall = Clock.now () -. t0 in
  Alcotest.(check bool)
    (Fmt.str "terminates within 2x the deadline (took %.2fs)" wall)
    true (wall <= 2.0 *. d);
  (match t.Pipeline.metrics.Pipeline.m_degraded with
  | [] -> Alcotest.fail "expected a degraded run under the pathological app"
  | ds ->
      Alcotest.(check bool)
        "degradation is filter-skipping" true
        (List.exists
           (function Pipeline.D_filters_skipped _ -> true | Pipeline.D_pta_k _ -> false)
           ds));
  let full = Pipeline.analyze ~file:"adversarial" src in
  Alcotest.(check (list string)) "full-precision run is undegraded" []
    (List.map Pipeline.degradation_to_string full.Pipeline.metrics.Pipeline.m_degraded);
  let keys r = List.map Detect.warning_key r.Pipeline.after_unsound in
  let degraded_keys = keys t in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Fmt.str "full-precision warning %s survives the deadline cut" (fst k))
        true (List.mem k degraded_keys))
    (keys full)

(* RHB asks, per warning, whether the component's onResume allocates
   the field; the adversarial app's onResume is 10s statements long and
   all s^2 of its warnings ask about the same component. Analyzing that
   body once per component keeps the filter phase quadratic in s: the
   whole size-40 run takes tens of milliseconds, where re-analyzing the
   body per warning took seconds. *)
let resume_guards_are_analyzed_once () =
  let src = Nadroid_corpus.Synth.adversarial ~seed:0 ~size:40 in
  let t0 = Clock.now () in
  let t = Pipeline.analyze ~file:"adversarial" src in
  let wall = Clock.now () -. t0 in
  Alcotest.(check (list string)) "undegraded" []
    (List.map Pipeline.degradation_to_string t.Pipeline.metrics.Pipeline.m_degraded);
  Alcotest.(check bool) (Fmt.str "finishes within 1 s (took %.2fs)" wall) true (wall < 1.0)

(* Deadlines live on the monotonic clock, so a wall-clock step (NTP
   correction, DST, an operator fixing the date) between deriving a
   deadline and hitting a checkpoint must change nothing: a forward jump
   must not fire it early, a backward jump must not starve it — it still
   expires exactly once, at its real instant. [Clock.step_wall] skews
   only the wall clock ({!Clock.wall}, display); if any deadline check
   consulted wall time, one of the two runs below would break. *)
let deadline_survives_wall_clock_step () =
  let with_budget d =
    {
      Pipeline.default_config with
      Pipeline.budgets = { Pipeline.no_budgets with Pipeline.deadline = Some d };
    }
  in
  let app =
    match Corpus.find "Zxing" with Some a -> a | None -> Alcotest.fail "no Zxing"
  in
  (* wall jumps a day ahead mid-run: a wall-derived deadline would have
     expired before the first checkpoint *)
  Fun.protect
    ~finally:(fun () -> Clock.step_wall (-86_400.0))
    (fun () ->
      Clock.step_wall 86_400.0;
      let t =
        Pipeline.analyze ~config:(with_budget 30.0) ~file:app.Corpus.name app.Corpus.source
      in
      Alcotest.(check (list string))
        "forward wall step does not fire a live deadline" []
        (List.map Pipeline.degradation_to_string t.Pipeline.metrics.Pipeline.m_degraded));
  (* wall jumps a day back: a wall-derived deadline would never expire,
     letting the pathological app run the filter phase to completion *)
  Fun.protect
    ~finally:(fun () -> Clock.step_wall 86_400.0)
    (fun () ->
      Clock.step_wall (-86_400.0);
      let d = 0.4 in
      let src = Nadroid_corpus.Synth.adversarial ~seed:0 ~size:40 in
      let t0 = Clock.now () in
      let t =
        with_stalled_filters (fun () ->
            Pipeline.analyze ~config:(with_budget d) ~file:"adversarial" src)
      in
      let wall = Clock.now () -. t0 in
      Alcotest.(check bool)
        (Fmt.str "backward wall step does not starve the deadline (took %.2fs)" wall)
        true (wall <= 2.0 *. d);
      Alcotest.(check bool)
        "the deadline still expired (run degraded) exactly once" true
        (t.Pipeline.metrics.Pipeline.m_degraded <> []))

let chaos_smoke () =
  let s = Chaos.run ~jobs:2 ~seed:7 ~mutants:48 (Lazy.force Corpus.all) in
  Alcotest.(check int) "all mutants ran" 48 s.Chaos.s_mutants;
  if Chaos.failed s then Alcotest.failf "chaos found failures:@.%a" Chaos.pp_summary s

let mutate_deterministic () =
  let src = (List.hd (Lazy.force Corpus.all)).Corpus.source in
  let m i = Chaos.mutate (Random.State.make [| 3; i |]) src in
  List.iter (fun i -> Alcotest.(check (pair string string)) "same rng, same mutant" (m i) (m i))
    [ 0; 1; 2; 17 ]

(* A division by zero inside a callback is a user fault: the simulator
   must record a located stuck and keep the harness alive. *)
let stuck_is_located () =
  let prog =
    Nadroid_ir.Prog.of_source ~file:"t"
      {|class A extends Activity { field int d;
          method void onCreate() { var int x = 7 / d; log(i2s(x)); } }|}
  in
  let o = Nadroid_dynamic.Explorer.random_run ~resume_on_npe:true prog ~seed:0 ~max_steps:40 in
  match o.Nadroid_dynamic.Explorer.o_stucks with
  | [] -> Alcotest.fail "expected a stuck record"
  | s :: _ ->
      Alcotest.(check string)
        "reason" "division by zero" s.Nadroid_dynamic.Interp.st_reason;
      Alcotest.(check string)
        "faulting method" "onCreate" s.Nadroid_dynamic.Interp.st_mref.Nadroid_ir.Instr.mr_name

let suite =
  [
    ( "robustness",
      [
        QCheck_alcotest.to_alcotest truncation_prop;
        Alcotest.test_case "poisoned corpus app fails alone" `Quick poisoned_corpus;
        Alcotest.test_case "starved PTA degrades to a warning superset" `Quick degraded_superset;
        Alcotest.test_case "auto budget leaves the corpus undegraded" `Quick auto_budget_headroom;
        Alcotest.test_case "degrade ladder engages at the derived budget" `Quick
          degrade_ladder_at_derived_budget;
        Alcotest.test_case "deadline is honoured in flight" `Quick
          deadline_is_honoured_in_flight;
        Alcotest.test_case "deadline survives a wall-clock step" `Quick
          deadline_survives_wall_clock_step;
        Alcotest.test_case "RHB analyzes each onResume once" `Quick
          resume_guards_are_analyzed_once;
        Alcotest.test_case "chaos smoke finds nothing on the corpus" `Slow chaos_smoke;
        Alcotest.test_case "mutator is deterministic per (seed, index)" `Quick
          mutate_deterministic;
        Alcotest.test_case "runtime faults surface as located stucks" `Quick stuck_is_located;
      ] );
  ]
