let () =
  (* the test binary hosts supervised workers (crash-survival tests
     fork+exec it): in a marked child this serves requests and exits —
     as a worker of another build when the test asks for one *)
  Test_crash.foreign_worker_check ();
  Nadroid_core.Supervise.worker_check ();
  Alcotest.run "nadroid"
    (Test_lang.suite @ Test_frontend.suite @ Test_datalog.suite @ Test_ir.suite @ Test_android.suite @ Test_analysis.suite @ Test_core.suite @ Test_dynamic.suite @ Test_corpus.suite @ Test_deva.suite @ Test_energy.suite @ Test_more.suite @ Test_props.suite @ Test_backend.suite @ Test_robustness.suite @ Test_differential.suite @ Test_cache.suite @ Test_serve.suite @ Test_crash.suite @ Test_fleet.suite)
