(* Differential soundness harness: generator cleanliness over many
   seeds, sabotage detection with deterministic shrinking, an
   end-to-end difftest smoke, and the golden-report regression over the
   shipped corpus. *)

module Fault = Nadroid_core.Fault
module Synth = Nadroid_corpus.Synth
module Differential = Nadroid_corpus.Differential
module Golden = Nadroid_corpus.Golden

(* Generated apps are well-typed by construction: parse, sema and
   lowering succeed for 200 consecutive seeds. *)
let synth_sources_are_clean () =
  for seed = 0 to 199 do
    let src, _ = Synth.render (Synth.generate ~seed) in
    match
      Fault.wrap (fun () ->
          Nadroid_ir.Prog.of_source ~file:(Printf.sprintf "synth%d" seed) src)
    with
    | Ok _ -> ()
    | Error f -> Alcotest.failf "seed %d does not lower: %s" seed (Fault.to_string f)
  done

(* A cheaper oracle than the CLI default keeps the suite fast; the
   properties under test are oracle-independent. *)
let small_oracle = { Differential.dr_runs = 12; dr_guided = 2; dr_steps = 40 }

(* The guard-inverted IG sabotage must be caught on generated apps, the
   shrunk reproducer must be no larger than the original, and shrinking
   must be a pure function of the app. *)
let weakened_ig_is_caught () =
  let weaken = Differential.W_invert_ig in
  let cxs =
    List.filter_map
      (fun seed ->
        let t = Synth.generate ~seed in
        match Differential.check ~oracle:small_oracle ~weaken t with
        | _, Some cx -> Some (t, cx)
        | _, None -> None)
      (List.init 20 Fun.id)
  in
  Alcotest.(check bool) "sabotage caught on at least one app" true (cxs <> []);
  List.iter
    (fun (t, cx) ->
      Alcotest.(check bool)
        "shrunk app is no larger" true
        (Synth.size cx.Differential.cx_shrunk <= Synth.size t);
      Alcotest.(check bool)
        "shrunk app still has a discrepancy" true
        ((Differential.examine ~oracle:small_oracle ~weaken cx.Differential.cx_shrunk)
           .Differential.vd_discrepancies
        <> []);
      let again = Differential.shrink ~oracle:small_oracle ~weaken t in
      Alcotest.(check string) "shrinking is deterministic" cx.Differential.cx_shrunk_src
        (fst (Synth.render again)))
    cxs

(* End-to-end smoke of the unweakened harness: a batch of generated
   apps yields no soundness counterexamples and no runtime faults. *)
let difftest_smoke () =
  let s = Differential.run ~jobs:2 ~oracle:small_oracle ~seed:42 ~apps:12 () in
  Alcotest.(check int) "all apps examined" 12 s.Differential.su_apps;
  if Differential.failed s || s.Differential.su_faults <> [] then
    Alcotest.failf "difftest failed:@.%a" Differential.pp_summary s

(* The committed golden reports match a fresh analysis byte-for-byte.
   [golden/] sits next to this test binary in _build, wherever the
   binary is run from. *)
let golden_matches () =
  let dir = Filename.concat (Filename.dirname Sys.executable_name) "golden" in
  let results = Golden.check ~dir ~jobs:2 () in
  Alcotest.(check bool) "golden files present" true (results <> []);
  List.iter
    (fun (name, st) ->
      if st <> Golden.G_ok then Alcotest.failf "%a" Golden.pp_status (name, st))
    results

let suite =
  [
    ( "differential",
      [
        Alcotest.test_case "200 generated apps parse, check and lower" `Quick
          synth_sources_are_clean;
        Alcotest.test_case "weakened IG is caught with a deterministic shrink" `Slow
          weakened_ig_is_caught;
        Alcotest.test_case "difftest smoke finds no counterexamples" `Slow difftest_smoke;
        Alcotest.test_case "golden reports match the corpus" `Slow golden_matches;
      ] );
  ]
