(* nAdroid core tests: threadification (§4), detection (§5), every filter
   (§6), classification (§7), and the pipeline plumbing. *)

open Nadroid_core
module Spec = Nadroid_corpus.Spec
module Gen = Nadroid_corpus.Gen

let analyze src = Pipeline.analyze ~file:"t" src

let kinds t =
  List.map
    (fun th -> Fmt.str "%a" Threadify.pp_kind th.Threadify.th_kind)
    (Threadify.threads t.Pipeline.threads)

let threadify_tests =
  [
    Alcotest.test_case "dummy main is thread 0" `Quick (fun () ->
        let t = analyze "class A extends Activity { method void onCreate() { } }" in
        match Threadify.threads t.Pipeline.threads with
        | main :: _ ->
            Alcotest.(check bool) "kind" true (main.Threadify.th_kind = Threadify.Dummy_main);
            Alcotest.(check bool) "no parent" true (main.Threadify.th_parent = None)
        | [] -> Alcotest.fail "no threads");
    Alcotest.test_case "entry callbacks hang off the dummy main" `Quick (fun () ->
        let t =
          analyze
            "class A extends Activity { method void onCreate() { } method void onResume() { } \
             }"
        in
        let ths = Threadify.threads t.Pipeline.threads in
        Alcotest.(check int) "main + 2 ECs" 3 (List.length ths);
        List.iter
          (fun th ->
            match th.Threadify.th_kind with
            | Threadify.Entry_cb _ ->
                Alcotest.(check (option int)) "parent is main" (Some 0) th.Threadify.th_parent
            | _ -> ())
          ths);
    Alcotest.test_case "posted callbacks are children of their poster" `Quick (fun () ->
        let t =
          analyze
            "class A extends Activity { field Handler h; method void onCreate() { h = new \
             Handler(); h.post(new Runnable() { method void run() { } }); } }"
        in
        let ths = Threadify.threads t.Pipeline.threads in
        let poster =
          List.find (fun th -> String.equal th.Threadify.th_method "onCreate") ths
        in
        let postee = List.find (fun th -> String.equal th.Threadify.th_method "run") ths in
        Alcotest.(check bool) "PC kind" true
          (match postee.Threadify.th_kind with Threadify.Posted_cb _ -> true | _ -> false);
        Alcotest.(check (option int)) "lineage" (Some poster.Threadify.th_id)
          postee.Threadify.th_parent);
    Alcotest.test_case "imperative click listeners are ECs under the dummy main" `Quick
      (fun () ->
        let t =
          analyze
            "class A extends Activity { method void onStart() { \
             this.findViewById(1).setOnClickListener(new OnClickListener() { method void \
             onClick(View v) { } }); } }"
        in
        let click =
          List.find
            (fun th -> String.equal th.Threadify.th_method "onClick")
            (Threadify.threads t.Pipeline.threads)
        in
        Alcotest.(check bool) "EC" true
          (match click.Threadify.th_kind with Threadify.Entry_cb _ -> true | _ -> false);
        Alcotest.(check (option int)) "parent main" (Some 0) click.Threadify.th_parent);
    Alcotest.test_case "asynctask produces four modeled threads" `Quick (fun () ->
        let t =
          analyze
            "class A extends Activity { method void onCreate() { new AsyncTask() { method \
             void onPreExecute() { } method void doInBackground() { } method void \
             onProgressUpdate(int p) { } method void onPostExecute() { } }.execute(); } }"
        in
        let k = kinds t in
        Alcotest.(check bool) "has async-bg" true (List.mem "async-bg" k);
        Alcotest.(check int) "three PCs"
          3
          (List.length (List.filter (fun s -> String.length s > 2 && String.sub s 0 2 = "PC") k)));
    Alcotest.test_case "self-reposting runnable terminates" `Quick (fun () ->
        let t =
          analyze
            "class A extends Activity { field Handler h; method void onCreate() { h = new \
             Handler(); h.post(new Runnable() { method void run() { h.post(this); } }); } }"
        in
        Alcotest.(check bool) "bounded forest" true (Threadify.n_threads t.Pipeline.threads < 10));
    Alcotest.test_case "lineage string walks to main" `Quick (fun () ->
        let t =
          analyze
            "class A extends Activity { field Handler h; method void onCreate() { h = new \
             Handler(); h.post(new Runnable() { method void run() { } }); } }"
        in
        let postee =
          List.find
            (fun th -> String.equal th.Threadify.th_method "run")
            (Threadify.threads t.Pipeline.threads)
        in
        Alcotest.(check string) "lineage" "main -> A.onCreate -> A$1.run"
          (Threadify.lineage t.Pipeline.threads postee));
  ]

(* Pattern-level expectations: each corpus pattern in isolation must
   behave exactly as its ground truth says. This doubles as the filter
   test suite: one test per filter with the idiom it was designed for. *)
let pattern_case p =
  Alcotest.test_case (Spec.pattern_to_string p) `Quick (fun () ->
      let spec =
        {
          Spec.app_name = "t";
          activities = [ { Spec.act_name = "MainActivity"; patterns = [ p ] } ];
          services = 0;
          padding = 0;
        }
      in
      let src, _ = Gen.generate spec in
      let t = analyze src in
      let np = List.length t.Pipeline.potential in
      let ns = List.length t.Pipeline.after_sound in
      let nu = List.length t.Pipeline.after_unsound in
      match Spec.expectation p with
      | Spec.E_true_bug c ->
          Alcotest.(check bool) "survives all filters" true (nu >= 1);
          let cat = Classify.of_warning t.Pipeline.threads (List.hd t.Pipeline.after_unsound) in
          Alcotest.(check string) "category" (Classify.to_string c) (Classify.to_string cat)
      | Spec.E_filtered f ->
          Alcotest.(check bool) "was detected" true (np >= 1);
          if List.mem f Filters.sound then
            Alcotest.(check bool) "pruned by sound stage" true (ns < np)
          else begin
            Alcotest.(check bool) "survives sound stage" true (ns >= 1);
            Alcotest.(check bool) "pruned by unsound stage" true (nu < ns)
          end;
          (* and the designated filter alone must prune it *)
          Alcotest.(check bool)
            (Filters.name_to_string f ^ " alone prunes")
            true
            (Filters.pruned_count t.Pipeline.ctx [ f ]
               (if List.mem f Filters.sound then t.Pipeline.potential else t.Pipeline.after_sound)
            >= 1)
      | Spec.E_false_positive _ -> Alcotest.(check bool) "survives (is a FP)" true (nu >= 1)
      | Spec.E_none -> Alcotest.(check int) "no potential warnings" 0 np)

let filter_tests = List.map pattern_case Spec.all_patterns

let detection_tests =
  [
    Alcotest.test_case "race needs two distinct modeled threads" `Quick (fun () ->
        (* use and free inside the same callback: no pair *)
        let t =
          analyze
            "class Data { method void op() { } } class A extends Activity { field Data d; \
             method void onCreate() { d = new Data(); } method void onPause() { d.op(); d = \
             null; } }"
        in
        (* the only cross-thread pair is (use in onPause, free in onPause)
           which is same-thread, plus onCreate has no use/free *)
        Alcotest.(check int) "no warning" 0 (List.length t.Pipeline.potential));
    Alcotest.test_case "alias requires overlapping base objects" `Quick (fun () ->
        (* two disjoint Data objects in two activities: no race *)
        let t =
          analyze
            "class Data { method void op() { } } class A extends Activity { field Data d; \
             method void onCreate() { d = new Data(); } method void onPause() { d = null; } } \
             class B extends Activity { field Data d; method void onCreate() { d = new \
             Data(); } method void onPause() { d.op(); } }"
        in
        Alcotest.(check int) "no cross-activity warning" 0 (List.length t.Pipeline.potential));
    Alcotest.test_case "warnings deduplicate to site pairs" `Quick (fun () ->
        (* one use races with one free reachable via two thread pairs:
           still a single warning *)
        let t =
          analyze
            "class Data { method void op() { } } class A extends Activity { field Data d; \
             method void onCreate() { d = new Data(); } method void onStart() { \
             this.findViewById(1).setOnClickListener(new OnClickListener() { method void \
             onClick(View v) { d.op(); } }); this.findViewById(2).setOnClickListener(new \
             OnClickListener() { method void onClick(View v) { d = null; } }); } }"
        in
        Alcotest.(check int) "one warning" 1 (List.length t.Pipeline.potential);
        match t.Pipeline.potential with
        | [ w ] -> Alcotest.(check int) "one pair" 1 (List.length w.Detect.w_pairs)
        | _ -> Alcotest.fail "expected one warning");
    Alcotest.test_case "static fields race by key" `Quick (fun () ->
        let t =
          analyze
            "class Data { method void op() { } } class A extends Activity { static field Data \
             cache; method void onCreate() { cache = new Data(); } method void onPause() { \
             cache.op(); } method void onStop() { cache = null; } }"
        in
        Alcotest.(check bool) "warning exists" true (List.length t.Pipeline.potential >= 1));
    Alcotest.test_case "static and instance accesses never alias" `Quick (fun () ->
        (* regression: may_alias used to return true when *either* side
           was static, pairing a static access with an instance access of
           a same-keyed field even though they name different storage.
           The frontend cannot produce this mix for one field, so build
           the accesses directly. *)
        let t = analyze "class A extends Activity { method void onCreate() { } }" in
        let esc = t.Pipeline.esc in
        let fr name =
          {
            Nadroid_lang.Sema.fr_class = "A";
            fr_name = name;
            fr_ty = Nadroid_lang.Ast.Tclass "Data";
            fr_static = false;
          }
        in
        let site =
          let v = { Nadroid_ir.Instr.v_id = 0; v_name = "x" } in
          {
            Detect.s_inst = 0;
            s_mref = { Nadroid_ir.Instr.mr_class = "A"; mr_name = "m" };
            s_instr =
              {
                Nadroid_ir.Instr.i = Nadroid_ir.Instr.Getstatic (v, fr "f");
                loc = Nadroid_lang.Loc.dummy;
                id = 0;
              };
          }
        in
        let access ~thread ~static ~objs field =
          { Detect.a_thread = thread; a_site = site; a_field = field; a_objs = objs; a_static = static }
        in
        let module IS = Nadroid_analysis.Pta.IntSet in
        let static_use = access ~thread:1 ~static:true ~objs:IS.empty (fr "f") in
        let instance_free = access ~thread:2 ~static:false ~objs:(IS.of_list [ 0; 1 ]) (fr "f") in
        let static_free = access ~thread:2 ~static:true ~objs:IS.empty (fr "f") in
        Alcotest.(check bool) "static vs instance" false
          (Detect.may_alias esc static_use instance_free);
        Alcotest.(check bool) "instance vs static" false
          (Detect.may_alias esc instance_free static_use);
        Alcotest.(check bool) "static vs static" true
          (Detect.may_alias esc static_use static_free);
        Alcotest.(check bool) "distinct keys" false
          (Detect.may_alias esc static_use (access ~thread:2 ~static:true ~objs:IS.empty (fr "g"))));
  ]

(* map_result with each captured exception rendered, so slots compare *)
let map_result ~jobs f xs =
  List.map (Result.map_error Printexc.to_string) (Parallel.map_result ~jobs f xs)

let parallel_tests =
  [
    Alcotest.test_case "map preserves input order at any jobs" `Quick (fun () ->
        let xs = List.init 100 (fun i -> i) in
        let expect = List.map (fun x -> Ok (x * x)) xs in
        List.iter
          (fun jobs ->
            Alcotest.(check (list (result int string)))
              (Printf.sprintf "jobs=%d" jobs)
              expect
              (map_result ~jobs (fun x -> x * x) xs))
          [ 1; 2; 4; 7 ]);
    Alcotest.test_case "empty and singleton inputs" `Quick (fun () ->
        Alcotest.(check (list (result int string)))
          "empty" [] (map_result ~jobs:4 (fun x -> x) []);
        Alcotest.(check (list (result int string)))
          "singleton" [ Ok 3 ]
          (map_result ~jobs:4 (fun x -> x + 1) [ 2 ]));
    Alcotest.test_case "task exceptions produce an Error in their own slot" `Quick (fun () ->
        Alcotest.(check (list (result int string)))
          "the exception stays in slot 13, every other slot completes"
          (List.init 40 (fun i -> if i = 13 then Error "Stdlib.Exit" else Ok i))
          (map_result ~jobs:4 (fun x -> if x = 13 then raise Exit else x) (List.init 40 Fun.id)));
    Alcotest.test_case "persistent pool: submit/await over many batches" `Quick (fun () ->
        let pool = Parallel.Pool.create ~jobs:3 () in
        (* several waves through the same workers — the daemon's life *)
        for wave = 0 to 4 do
          let futs =
            List.init 50 (fun i -> Parallel.Pool.submit pool (fun () -> (wave * 1000) + (i * i)))
          in
          List.iteri
            (fun i fut ->
              match Parallel.Pool.await fut with
              | Ok v -> Alcotest.(check int) "value" ((wave * 1000) + (i * i)) v
              | Error e -> raise e)
            futs
        done;
        Parallel.Pool.shutdown pool);
    Alcotest.test_case "persistent pool: a task exception stays in its future" `Quick (fun () ->
        let pool = Parallel.Pool.create ~jobs:2 () in
        let bad = Parallel.Pool.submit pool (fun () -> raise Exit) in
        let good = Parallel.Pool.submit pool (fun () -> 41 + 1) in
        (match Parallel.Pool.await bad with
        | Error Exit -> ()
        | Ok _ | Error _ -> Alcotest.fail "expected Error Exit");
        (* the worker that ran the raising task still serves the next one *)
        Alcotest.(check int) "worker survives" 42
          (match Parallel.Pool.await good with Ok v -> v | Error e -> raise e);
        Parallel.Pool.shutdown pool);
    Alcotest.test_case "persistent pool: graceful shutdown drains the queue" `Quick (fun () ->
        let pool = Parallel.Pool.create ~jobs:1 () in
        let ran = Atomic.make 0 in
        let futs =
          List.init 20 (fun _ -> Parallel.Pool.submit pool (fun () -> Atomic.incr ran))
        in
        Parallel.Pool.shutdown pool;
        Alcotest.(check int) "every queued task ran before the join" 20 (Atomic.get ran);
        List.iter (fun f -> ignore (Parallel.Pool.await f)) futs;
        Alcotest.check_raises "submit after shutdown rejected"
          (Invalid_argument "Parallel.Pool.submit: pool is shut down") (fun () ->
            ignore (Parallel.Pool.submit pool (fun () -> ()))));
  ]

let metrics_tests =
  [
    Alcotest.test_case "phase metrics sum to measured wall time" `Quick (fun () ->
        let app = Option.get (Nadroid_corpus.Corpus.find "Mms") in
        let t = Pipeline.analyze ~file:"Mms" app.Nadroid_corpus.Corpus.source in
        let m = t.Pipeline.metrics in
        let sum = Pipeline.phase_sum m in
        Alcotest.(check bool) "phases fit inside wall" true (sum <= m.Pipeline.m_wall +. 0.005);
        (* the only unattributed work is record plumbing between clock
           reads: the gap must be negligible (create_ctx used to hide
           here) *)
        Alcotest.(check bool) "gap below 50ms" true (m.Pipeline.m_wall -. sum < 0.05));
    Alcotest.test_case "create_ctx is attributed to the filtering phase" `Quick (fun () ->
        let app = Option.get (Nadroid_corpus.Corpus.find "Aard") in
        let t = Pipeline.analyze ~file:"Aard" app.Nadroid_corpus.Corpus.source in
        let m = t.Pipeline.metrics in
        let tt = t.Pipeline.timings in
        Alcotest.(check bool) "filtering = ctx + filters" true
          (abs_float (tt.Pipeline.t_filtering -. (m.Pipeline.m_ctx +. m.Pipeline.m_filter)) < 1e-9);
        (* the paper's three-phase split covers the analysis phases
           only; the frontend phases sit outside it *)
        Alcotest.(check bool) "three-phase split + frontend partitions the phase sum" true
          (abs_float
             (tt.Pipeline.t_modeling +. tt.Pipeline.t_detection +. tt.Pipeline.t_filtering
             +. Pipeline.frontend_sum m
             -. Pipeline.phase_sum m)
          < 1e-9));
    Alcotest.test_case "apply_counted prunes exactly like apply" `Quick (fun () ->
        let app = Option.get (Nadroid_corpus.Corpus.find "Aard") in
        let t = Pipeline.analyze ~file:"Aard" app.Nadroid_corpus.Corpus.source in
        let norm ws =
          List.map (fun (w : Detect.warning) -> (Detect.warning_key w, w.Detect.w_pairs)) ws
        in
        let counted, counts = Filters.apply_counted t.Pipeline.ctx Filters.sound t.Pipeline.potential in
        Alcotest.(check bool) "same survivors" true
          (norm counted = norm (Filters.apply t.Pipeline.ctx Filters.sound t.Pipeline.potential));
        Alcotest.(check int) "one count per filter" (List.length Filters.sound) (List.length counts);
        Alcotest.(check bool) "something was pruned and credited" true
          (List.exists (fun (_, c) -> c > 0) counts));
    Alcotest.test_case "metrics JSON is emitted with every phase field" `Quick (fun () ->
        let t = analyze "class A extends Activity { method void onCreate() { } }" in
        let json = Report.metrics_to_json ~name:"tiny" t.Pipeline.metrics in
        List.iter
          (fun k ->
            Alcotest.(check bool) (k ^ " present") true
              (Astring.String.is_infix ~affix:("\"" ^ k ^ "\":") json))
          [ "name"; "frontend_parse"; "frontend_sema"; "frontend_lower";
            "pta"; "aux"; "threadify"; "detect"; "create_ctx"; "filter"; "phase_sum"; "wall";
            "pruned" ]);
  ]

let classify_tests =
  [
    Alcotest.test_case "category ranking prefers the most asynchronous" `Quick (fun () ->
        Alcotest.(check bool) "C-NT > PC-PC" true
          (Classify.rank Classify.C_NT > Classify.rank Classify.PC_PC);
        Alcotest.(check bool) "PC-PC > EC-EC" true
          (Classify.rank Classify.PC_PC > Classify.rank Classify.EC_EC));
    Alcotest.test_case "histogram covers all categories" `Quick (fun () ->
        let t = analyze "class A extends Activity { method void onCreate() { } }" in
        let h = Classify.histogram t.Pipeline.threads [] in
        Alcotest.(check int) "five buckets" 5 (List.length h);
        List.iter (fun (_, n) -> Alcotest.(check int) "empty" 0 n) h);
  ]

let pipeline_tests =
  [
    Alcotest.test_case "phases are consistent" `Quick (fun () ->
        let src, _ =
          Gen.generate
            {
              Spec.app_name = "t";
              activities =
                [
                  {
                    Spec.act_name = "MainActivity";
                    patterns = [ Spec.P_ec_pc_uaf; Spec.P_guarded; Spec.P_ur ];
                  };
                ];
              services = 0;
              padding = 0;
            }
        in
        let t = analyze src in
        let np = List.length t.Pipeline.potential in
        let ns = List.length t.Pipeline.after_sound in
        let nu = List.length t.Pipeline.after_unsound in
        Alcotest.(check bool) "monotone" true (np >= ns && ns >= nu);
        Alcotest.(check int) "one survivor" 1 nu);
    Alcotest.test_case "sound-only config skips unsound filters" `Quick (fun () ->
        let src, _ =
          Gen.generate
            {
              Spec.app_name = "t";
              activities =
                [ { Spec.act_name = "MainActivity"; patterns = [ Spec.P_ur ] } ];
              services = 0;
              padding = 0;
            }
        in
        let config = { Pipeline.default_config with Pipeline.unsound = [] } in
        let t = Pipeline.analyze ~config ~file:"t" src in
        Alcotest.(check int) "UR not applied" (List.length t.Pipeline.after_sound)
          (List.length t.Pipeline.after_unsound));
    Alcotest.test_case "report renders every surviving warning" `Quick (fun () ->
        let src, _ =
          Gen.generate
            {
              Spec.app_name = "t";
              activities =
                [ { Spec.act_name = "MainActivity"; patterns = [ Spec.P_ec_pc_uaf ] } ];
              services = 0;
              padding = 0;
            }
        in
        let t = analyze src in
        let report = Report.to_string t.Pipeline.threads t.Pipeline.after_unsound in
        Alcotest.(check bool) "mentions the field" true
          (Astring.String.is_infix ~affix:"MainActivity.f0" report);
        Alcotest.(check bool) "mentions lineage" true
          (Astring.String.is_infix ~affix:"main ->" report));
  ]

let suite =
  [
    ("threadify", threadify_tests);
    ("filters-by-pattern", filter_tests);
    ("detect", detection_tests);
    ("classify", classify_tests);
    ("pipeline", pipeline_tests);
    ("parallel", parallel_tests);
    ("metrics", metrics_tests);
  ]
