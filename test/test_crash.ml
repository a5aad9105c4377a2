(* The crash-survival stack, end to end: the journal replays exactly its
   valid record prefix and never a half-written tail; the cache absorbs
   injected I/O faults without losing a computed result or serving wrong
   bytes; a supervised worker that is killed, aborted or wedged costs
   exactly its own entry while the pool keeps serving; and a batch run
   killed mid-flight resumes to byte-identical output. Fault injection
   ({!Nadroid_core.Faultinject}) makes every crash deterministic. *)

module Pipeline = Nadroid_core.Pipeline
module Cache = Nadroid_core.Cache
module Fault = Nadroid_core.Fault
module Journal = Nadroid_core.Journal
module Supervise = Nadroid_core.Supervise
module Parallel = Nadroid_core.Parallel
module Faultinject = Nadroid_core.Faultinject
module Faultfuzz = Nadroid_corpus.Faultfuzz
module Corpus = Nadroid_corpus.Corpus
module Protocol = Nadroid_serve.Protocol
module Server = Nadroid_serve.Server
module Client = Nadroid_serve.Client
module Clock = Nadroid_clock.Clock

let is_infix affix s = Astring.String.is_infix ~affix s

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "_crash_test.%d.%d" (Unix.getpid ()) !n

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file p s =
  let oc = open_out_bin p in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let small_app () =
  match Lazy.force Corpus.all with a :: _ -> a | [] -> Alcotest.fail "empty corpus"

let zxing () =
  match Corpus.find "Zxing" with Some a -> a | None -> Alcotest.fail "no Zxing"

let check_entry_equal msg (a : Cache.entry) (b : Cache.entry) =
  Alcotest.(check int) (msg ^ ": potential") a.Cache.e_potential b.Cache.e_potential;
  Alcotest.(check int) (msg ^ ": after-sound") a.Cache.e_after_sound b.Cache.e_after_sound;
  Alcotest.(check int) (msg ^ ": after-unsound") a.Cache.e_after_unsound b.Cache.e_after_unsound;
  Alcotest.(check string) (msg ^ ": report bytes") a.Cache.e_report b.Cache.e_report

(* -- journal ------------------------------------------------------------- *)

let zero_metrics =
  {
    Pipeline.m_frontend_parse = 0.0;
    m_frontend_sema = 0.0;
    m_frontend_lower = 0.0;
    m_pta = 0.0;
    m_aux = 0.0;
    m_threadify = 0.0;
    m_detect = 0.0;
    m_ctx = 0.0;
    m_filter = 0.0;
    m_wall = 0.0;
    m_pta_visits = 0;
    m_pta_steps = 0;
    m_pta_tuples = 0;
    m_pruned = [];
    m_degraded = [];
  }

let entry n report =
  {
    Cache.e_potential = n;
    e_after_sound = n;
    e_after_unsound = n;
    e_report = report;
    e_metrics = zero_metrics;
  }

let record name n =
  { Journal.j_name = name; j_key = "key-" ^ name; j_result = Ok (entry n name) }

let check_records msg want got =
  Alcotest.(check int) (msg ^ ": record count") (List.length want) (List.length got);
  List.iter2
    (fun (w : Journal.record) (g : Journal.record) ->
      Alcotest.(check string) (msg ^ ": name") w.Journal.j_name g.Journal.j_name;
      Alcotest.(check string) (msg ^ ": key") w.Journal.j_key g.Journal.j_key;
      match (w.Journal.j_result, g.Journal.j_result) with
      | Ok we, Ok ge -> check_entry_equal (msg ^ ": " ^ w.Journal.j_name) we ge
      | Error wf, Error gf ->
          Alcotest.(check string)
            (msg ^ ": fault")
            (Fault.to_string wf) (Fault.to_string gf)
      | _ -> Alcotest.failf "%s: %s changed ok/error side" msg w.Journal.j_name)
    want got

let journal_roundtrip () =
  with_dir (fun dir ->
      let path = Filename.concat dir "journal" in
      let records =
        [
          record "a" 1;
          record "b" 2;
          { Journal.j_name = "c"; j_key = "key-c"; j_result = Error (Fault.Internal "boom") };
        ]
      in
      let j, replayed = Journal.open_ ~path ~resume:false in
      Alcotest.(check int) "fresh journal is empty" 0 (List.length replayed);
      List.iter (Journal.append j) records;
      Journal.close j;
      check_records "replay = appended" records (Journal.replay ~path);
      (* last record wins in the index *)
      let idx = Journal.latest (Journal.replay ~path @ [ record "a" 9 ]) in
      match (Hashtbl.find_opt idx "a" : Journal.record option) with
      | Some r -> (
          match r.Journal.j_result with
          | Ok e -> Alcotest.(check int) "latest a is the re-record" 9 e.Cache.e_potential
          | Error _ -> Alcotest.fail "latest a must be Ok")
      | None -> Alcotest.fail "a must be indexed")

(* A record damaged mid-file bounds the replay to the records before it;
   reopening with --resume truncates the garbage and appends after the
   valid prefix. *)
let journal_damage_bounds_replay mangle () =
  with_dir (fun dir ->
      let path = Filename.concat dir "journal" in
      let j, _ = Journal.open_ ~path ~resume:false in
      Journal.append j (record "a" 1);
      let s1 = (Unix.stat path).Unix.st_size in
      Journal.append j (record "b" 2);
      let s2 = (Unix.stat path).Unix.st_size in
      Journal.append j (record "c" 3);
      Journal.close j;
      write_file path (mangle ~s1 ~s2 (read_file path));
      check_records "only the prefix replays" [ record "a" 1 ] (Journal.replay ~path);
      (* resume-open truncates the garbage and appends cleanly after it *)
      let j, replayed = Journal.open_ ~path ~resume:true in
      check_records "resume sees the prefix" [ record "a" 1 ] replayed;
      Journal.append j (record "d" 4);
      Journal.close j;
      check_records "append after repair" [ record "a" 1; record "d" 4 ]
        (Journal.replay ~path))

(* kill mid-append: the file ends inside record b *)
let truncated_tail ~s1 ~s2 raw = String.sub raw 0 ((s1 + s2) / 2)

(* disk corruption: one payload byte of record b flipped *)
let flipped_byte ~s1 ~s2 raw =
  let b = Bytes.of_string raw in
  let i = (s1 + s2) / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  Bytes.to_string b

(* [raw] with every frame's version token replaced by another version's;
   the payloads and their checksums stay intact. *)
let other_version raw =
  String.concat " nadroid-0 " (Astring.String.cuts ~sep:(" " ^ Cache.version ^ " ") raw)

(* [raw] with the header of the frame at [pos] claiming a payload of
   [len] bytes; near [max_int], adding the offset would wrap *)
let with_length ?(pos = 0) len raw =
  let nl = String.index_from raw pos '\n' in
  let sp = String.rindex_from raw nl ' ' in
  String.sub raw 0 (sp + 1) ^ string_of_int len ^ String.sub raw nl (String.length raw - nl)

(* record b claims a payload too long for any file *)
let huge_length len ~s1 ~s2:_ raw = with_length len ~pos:s1 raw

(* A journal written by another build: its frames are intact, but none
   is unmarshalled, and a resuming open truncates the journal instead of
   appending behind records it cannot read. *)
let journal_of_another_version_replays_empty () =
  with_dir (fun dir ->
      let path = Filename.concat dir "journal" in
      let j, _ = Journal.open_ ~path ~resume:false in
      List.iter (Journal.append j) [ record "a" 1; record "b" 2 ];
      Journal.close j;
      check_records "this version replays" [ record "a" 1; record "b" 2 ] (Journal.replay ~path);
      write_file path (other_version (read_file path));
      Alcotest.(check int) "another version replays empty" 0
        (List.length (Journal.replay ~path));
      let j, replayed = Journal.open_ ~path ~resume:true in
      Alcotest.(check int) "resume sees no record" 0 (List.length replayed);
      Alcotest.(check int) "resume truncates the journal" 0 (Unix.stat path).Unix.st_size;
      Journal.append j (record "c" 3);
      Journal.close j;
      check_records "appends start a fresh log" [ record "c" 3 ] (Journal.replay ~path))

let journal_absent_or_garbage_is_empty () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      Alcotest.(check int)
        "absent journal replays empty" 0
        (List.length (Journal.replay ~path:(Filename.concat dir "nope")));
      let path = Filename.concat dir "garbage" in
      write_file path "not a journal at all\n";
      Alcotest.(check int)
        "garbage journal replays empty" 0
        (List.length (Journal.replay ~path)))

(* -- cache under injected faults ----------------------------------------- *)

let sweep_removes_only_stale_tmp () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let stale = Filename.concat dir ".tmp.stale" in
      let fresh = Filename.concat dir ".tmp.fresh" in
      let foreign = Filename.concat dir "README" in
      List.iter (fun p -> write_file p "x") [ stale; fresh; foreign ];
      Unix.utimes stale 1.0 1.0;
      Alcotest.(check int) "one stale temp swept" 1 (Cache.sweep_tmp ~dir ());
      Alcotest.(check bool) "stale temp gone" false (Sys.file_exists stale);
      Alcotest.(check bool) "fresh temp kept" true (Sys.file_exists fresh);
      Alcotest.(check bool) "foreign file kept" true (Sys.file_exists foreign);
      Sys.remove fresh)

let arm spec =
  match Faultinject.arm_spec spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "arm %S: %s" spec e

(* An injected store failure may cost the next run its warm hit — never
   this run its already-computed result. *)
let store_failure_never_loses_result () =
  with_dir (fun dir ->
      let a = small_app () in
      arm "cache_write:1";
      let e, o =
        Fun.protect ~finally:Faultinject.disarm (fun () ->
            Cache.analyze ~dir ~file:a.Corpus.name a.Corpus.source)
      in
      Alcotest.(check int) "injection fired" 1 (Faultinject.fires ());
      (match o with
      | Cache.Miss -> ()
      | _ -> Alcotest.fail "cold run must be a miss");
      (* the failed store published nothing: the rerun misses again and
         recomputes the same bytes *)
      let e2, o2 = Cache.analyze ~dir ~file:a.Corpus.name a.Corpus.source in
      (match o2 with
      | Cache.Miss -> ()
      | _ -> Alcotest.fail "a failed store must not publish an entry");
      check_entry_equal "result survives the store failure" e e2)

(* An injected read failure surfaces as a Corrupt outcome naming the
   injection, the entry is recomputed (same bytes) and repaired. *)
let read_failure_is_surfaced_and_repaired () =
  with_dir (fun dir ->
      let a = small_app () in
      let cold, _ = Cache.analyze ~dir ~file:a.Corpus.name a.Corpus.source in
      arm "cache_read:1";
      let warm, o =
        Fun.protect ~finally:Faultinject.disarm (fun () ->
            Cache.analyze ~dir ~file:a.Corpus.name a.Corpus.source)
      in
      (match o with
      | Cache.Corrupt (Fault.Internal d) ->
          Alcotest.(check bool) "fault names the injection" true (is_infix "faultinject" d)
      | _ -> Alcotest.fail "injected read must surface as Corrupt");
      check_entry_equal "recomputed bytes identical" cold warm;
      match Cache.analyze ~dir ~file:a.Corpus.name a.Corpus.source with
      | e, Cache.Hit -> check_entry_equal "repaired entry" cold e
      | _, _ -> Alcotest.fail "entry not repaired after the injected read")

(* -- fault injection: determinism and the spec grammar ------------------- *)

let tripped ?key site =
  match Faultinject.trip ?key site with
  | () -> false
  | exception Unix.Unix_error (Unix.EIO, "faultinject", _) -> true

let nth_fires_exactly_once () =
  arm "server_accept:3";
  let pattern =
    Fun.protect ~finally:Faultinject.disarm (fun () ->
        List.init 6 (fun _ -> tripped Faultinject.Server_accept))
  in
  Alcotest.(check (list bool))
    "only the 3rd occurrence fires"
    [ false; false; true; false; false; false ]
    pattern

let key_rule_matches_exactly () =
  arm "worker_task=CrashApp";
  Fun.protect ~finally:Faultinject.disarm (fun () ->
      let fired key =
        match Faultinject.trip ?key Faultinject.Worker_task with
        | () -> false
        | exception Unix.Unix_error (Unix.EIO, "faultinject", _) -> true
      in
      Alcotest.(check bool) "matching key fires" true (fired (Some "CrashApp"));
      Alcotest.(check bool) "matching key fires again" true (fired (Some "CrashApp"));
      Alcotest.(check bool) "other key passes" false (fired (Some "OtherApp"));
      Alcotest.(check bool) "no key passes" false (fired None))

let seeded_mode_is_deterministic () =
  let pattern seed =
    Faultinject.arm_seeded ~seed ~rate:0.25 ~sites:[ Faultinject.Server_send ] ();
    let fired = List.init 200 (fun _ -> tripped Faultinject.Server_send) in
    let n = Faultinject.fires () in
    Faultinject.disarm ();
    (fired, n)
  in
  let p1, n1 = pattern 9 in
  let p2, n2 = pattern 9 in
  Alcotest.(check (list bool)) "same seed, same fire pattern" p1 p2;
  Alcotest.(check int) "same seed, same fire count" n1 n2;
  Alcotest.(check int) "fires() counts the firings" n1
    (List.length (List.filter Fun.id p1));
  Alcotest.(check bool) "rate 0.25 over 200 trips fires some" true (n1 > 0);
  Alcotest.(check bool) "and spares some" true (n1 < 200)

(* [filter=NAME:stall] slows the named filter's trips by about a
   millisecond and returns; other filters' trips pass. *)
let filter_stall_sleeps_and_returns () =
  arm "filter=MHB:stall";
  let t0 = Clock.now () in
  Fun.protect ~finally:Faultinject.disarm (fun () ->
      Alcotest.(check bool) "the MHB trip returns" false (tripped ~key:"MHB" Faultinject.Filter);
      Alcotest.(check bool) "the IG trip returns" false (tripped ~key:"IG" Faultinject.Filter));
  Alcotest.(check int) "only the MHB trip fired" 1 (Faultinject.fires ());
  Alcotest.(check bool) "it slept about a millisecond" true (Clock.now () -. t0 >= 0.001)

(* The seeded mode fails I/O seams; the filter site only slows an
   analysis down, so it fires only when a spec's site list names it. *)
let seeded_mode_leaves_the_filter_site_out () =
  arm "seed=5;rate=1.0";
  Fun.protect ~finally:Faultinject.disarm (fun () ->
      Alcotest.(check bool) "an I/O seam fires" true (tripped Faultinject.Cache_read);
      Alcotest.(check bool) "the filter site passes" false
        (tripped ~key:"MHB" Faultinject.Filter));
  arm "seed=5;rate=1.0;sites=filter";
  Fun.protect ~finally:Faultinject.disarm (fun () ->
      Alcotest.(check bool) "named, it fires" true (tripped ~key:"MHB" Faultinject.Filter))

let bad_specs_are_rejected () =
  List.iter
    (fun spec ->
      match Faultinject.arm_spec spec with
      | Error _ -> ()
      | Ok () ->
          Faultinject.disarm ();
          Alcotest.failf "%S must be rejected" spec)
    [
      "bogus:1";
      "cache_read:0";
      "cache_read:x";
      "rate=x";
      "sites=bogus";
      "cache_read:1:explode";
      (* an action suffix on a config entry would silently arm the
         default raise action instead of the one written *)
      "rate=0.5:kill";
      "seed=7:abort";
      "sites=cache_read:wedge";
    ];
  arm "";
  Alcotest.(check bool) "empty spec disarms" false (Faultinject.armed ())

(* -- supervised workers -------------------------------------------------- *)

let config = Pipeline.default_config

let supervised_matches_inprocess () =
  let sp = Supervise.create ~jobs:1 () in
  Fun.protect
    ~finally:(fun () -> Supervise.shutdown sp)
    (fun () ->
      List.iter
        (fun (a : Corpus.app) ->
          let direct =
            Cache.entry_of_result (Pipeline.analyze ~config ~file:a.Corpus.name a.Corpus.source)
          in
          match Supervise.analyze sp ~config ~file:a.Corpus.name a.Corpus.source with
          | Ok e -> check_entry_equal (a.Corpus.name ^ ": supervised = in-process") direct e
          | Error f -> Alcotest.failf "%s: %s" a.Corpus.name (Fault.to_string f))
        [ small_app (); zxing () ])

(* The acceptance criterion: an app that SIGKILLs its worker costs
   exactly one quarantine fault; every other app in the batch comes out
   byte-identical to an in-process run, on the same (respawned) pool. *)
let worker_crash_is_isolated_and_quarantined () =
  let a = small_app () in
  Unix.putenv Faultinject.env_var "worker_task=CrashApp:kill";
  let sp = Supervise.create ~jobs:2 () in
  Fun.protect
    ~finally:(fun () ->
      Supervise.shutdown sp;
      Unix.putenv Faultinject.env_var "")
    (fun () ->
      let direct =
        Cache.entry_of_result (Pipeline.analyze ~config ~file:a.Corpus.name a.Corpus.source)
      in
      let outcomes =
        List.map
          (fun file -> (file, Supervise.analyze sp ~config ~file a.Corpus.source))
          [ "before"; "CrashApp"; "after" ]
      in
      List.iter
        (fun (file, r) ->
          match (file, r) with
          | "CrashApp", Error (Fault.Internal d) ->
              Alcotest.(check bool) "quarantine is named" true (is_infix "quarantined" d);
              Alcotest.(check bool) "the killing signal is named" true (is_infix "SIGKILL" d)
          | "CrashApp", Ok _ -> Alcotest.fail "the crashing app must be quarantined"
          | "CrashApp", Error f ->
              Alcotest.failf "expected a quarantine, got %s" (Fault.to_string f)
          | _, Ok e -> check_entry_equal (file ^ ": unaffected by the crash") direct e
          | _, Error f -> Alcotest.failf "%s caught the blast: %s" file (Fault.to_string f))
        outcomes)

(* SIGABRT — the stand-in for a segfaulting runtime — takes the same
   quarantine path and names the signal. *)
let aborting_worker_is_quarantined () =
  let a = small_app () in
  Unix.putenv Faultinject.env_var "worker_task=AbortApp:abort";
  let sp = Supervise.create ~jobs:1 () in
  Fun.protect
    ~finally:(fun () ->
      Supervise.shutdown sp;
      Unix.putenv Faultinject.env_var "")
    (fun () ->
      (match Supervise.analyze sp ~config ~file:"AbortApp" a.Corpus.source with
      | Error (Fault.Internal d) ->
          Alcotest.(check bool) "quarantined" true (is_infix "quarantined" d);
          Alcotest.(check bool) "SIGABRT named" true (is_infix "SIGABRT" d)
      | Ok _ -> Alcotest.fail "aborting app must fault"
      | Error f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f));
      match Supervise.analyze sp ~config ~file:a.Corpus.name a.Corpus.source with
      | Ok _ -> ()
      | Error f -> Alcotest.failf "pool did not recover: %s" (Fault.to_string f))

(* A worker that wedges (never answers) is bounded by the heartbeat:
   killed, replaced, the app quarantined — and the pool keeps serving. *)
let wedged_worker_hits_heartbeat () =
  let a = small_app () in
  Unix.putenv Faultinject.env_var "worker_task=WedgeApp:wedge";
  let sp = Supervise.create ~jobs:1 ~heartbeat:1.5 () in
  Fun.protect
    ~finally:(fun () ->
      Supervise.shutdown sp;
      Unix.putenv Faultinject.env_var "")
    (fun () ->
      let t0 = Clock.now () in
      (match Supervise.analyze sp ~config ~file:"WedgeApp" a.Corpus.source with
      | Error (Fault.Internal d) ->
          Alcotest.(check bool) "heartbeat timeout is named" true (is_infix "heartbeat" d)
      | Ok _ -> Alcotest.fail "wedged app must fault"
      | Error f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f));
      Alcotest.(check bool)
        "bounded by the heartbeat, not the wedge" true
        (Clock.now () -. t0 < 30.0);
      match Supervise.analyze sp ~config ~file:a.Corpus.name a.Corpus.source with
      | Ok _ -> ()
      | Error f -> Alcotest.failf "pool did not recover: %s" (Fault.to_string f))

(* Set in a worker child's environment to a name of [foreign_replies],
   this makes the test binary stand in for a worker of another build: it
   answers at once with a reply — a success no analysis produced — whose
   frame is intact but for one header field, then drains its requests
   until EOF. *)
let foreign_worker_var = "NADROID_TEST_FOREIGN_WORKER"

(* what the reply is, its header rewrite, and what the failed attempt
   names *)
let foreign_replies =
  [
    ("of another version", other_version, "version nadroid-0");
    (* the reply header of the builds before the shared codec *)
    ( "under the retired worker tag",
      (fun raw ->
        let cur = "nadroid-worker-reply " ^ Cache.version ^ " " in
        "nadroid-worker 1 " ^ Astring.String.with_range ~first:(String.length cur) raw),
      "nadroid-worker frame" );
    ("claiming max_int bytes", with_length max_int, "malformed frame header");
  ]

(* Called by the test binary before {!Supervise.worker_check}. *)
let foreign_worker_check () =
  let foreign v = List.find_opt (fun (name, _, _) -> String.equal name v) foreign_replies in
  match Option.bind (Sys.getenv_opt foreign_worker_var) foreign with
  | Some (_, rewrite, _) when Supervise.is_worker () ->
      print_string
        (rewrite (Cache.encode Supervise.reply_kind (Ok (entry 1 "FOREIGN", Cache.Miss))));
      flush stdout;
      let buf = Bytes.create 65536 in
      while Unix.read Unix.stdin buf 0 (Bytes.length buf) > 0 do
        ()
      done;
      exit 0
  | _ -> ()

(* A foreign reply fails the attempt instead of being unmarshalled or
   skipped as noise: the worker is replaced, and the app is quarantined
   when the replacement answers the same way — long before the
   heartbeat, which only bounds a regression here. *)
let foreign_reply_is_never_unmarshalled (name, _, reason) () =
  let a = small_app () in
  Unix.putenv foreign_worker_var name;
  let sp = Supervise.create ~jobs:1 ~heartbeat:30.0 () in
  Fun.protect
    ~finally:(fun () ->
      Supervise.shutdown sp;
      Unix.putenv foreign_worker_var "")
    (fun () ->
      let t0 = Clock.now () in
      (match Supervise.analyze sp ~config ~file:a.Corpus.name a.Corpus.source with
      | Error (Fault.Internal d) ->
          Alcotest.(check bool) "quarantined after one replacement" true
            (is_infix "quarantined: crashed 2 consecutive workers" d);
          Alcotest.(check bool) ("the failure names " ^ reason) true (is_infix reason d)
      | Ok e -> Alcotest.failf "a foreign reply was unmarshalled: %S" e.Cache.e_report
      | Error f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f));
      Alcotest.(check bool) "failed at once, not at the heartbeat" true
        (Clock.now () -. t0 < 30.0))

(* The supervisor reads each worker's pipe through a buffer: a header
   split across two writes (the first read ends inside it, after a
   noise line) is reassembled, and bytes read past one frame are kept
   for the next. *)
let split_header_is_reassembled () =
  let r, w = Unix.pipe ~cloexec:true () in
  let frame n =
    Cache.encode Supervise.reply_kind (Ok (entry n (Printf.sprintf "reply %d" n), Cache.Miss))
  in
  let one = frame 1 and two = frame 2 in
  let write s = ignore (Unix.write_substring w s 0 (String.length s)) in
  let cut = 12 in
  let writer =
    Domain.spawn (fun () ->
        write ("module-initializer noise\n" ^ String.sub one 0 cut);
        Unix.sleepf 0.05;
        write (String.sub one cut (String.length one - cut) ^ two);
        Unix.close w)
  in
  let reader = Supervise.reader r in
  let read () =
    match
      Supervise.read_frame Supervise.reply_kind ~deadline:(Clock.now () +. 10.0) reader
    with
    | Some (Ok (e, _)) -> Some e.Cache.e_report
    | Some (Error f) -> Alcotest.failf "unexpected fault reply: %s" (Fault.to_string f)
    | None -> None
  in
  let replies = List.init 3 (fun _ -> read ()) in
  Domain.join writer;
  Unix.close r;
  Alcotest.(check (list (option string)))
    "both frames, then EOF"
    [ Some "reply 1"; Some "reply 2"; None ]
    replies

let shutdown_is_idempotent () =
  let sp = Supervise.create ~jobs:1 () in
  Supervise.shutdown sp;
  Supervise.shutdown sp;
  match Supervise.analyze sp ~config ~file:"x" "thread t { }" with
  | Error (Fault.Internal d) ->
      Alcotest.(check bool) "names the shutdown" true (is_infix "shut down" d)
  | Ok _ -> Alcotest.fail "a shut-down supervisor must fault"
  | Error f -> Alcotest.failf "wrong fault: %s" (Fault.to_string f)

(* -- client connect bound ------------------------------------------------ *)

let connect_timeout_is_bounded () =
  let missing = `Unix (Filename.concat (fresh_dir ()) "never-bound.sock") in
  let t0 = Clock.now () in
  (match Client.connect ~timeout:0.3 missing with
  | _ -> Alcotest.fail "connect to a missing socket must fail"
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) -> ());
  let dt = Clock.now () -. t0 in
  Alcotest.(check bool) "kept retrying until the deadline" true (dt >= 0.25);
  Alcotest.(check bool) "gave up shortly after it" true (dt < 3.0);
  let t0 = Clock.now () in
  (match Client.connect ~timeout:0.0 missing with
  | _ -> Alcotest.fail "single-attempt connect must fail"
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) -> ());
  Alcotest.(check bool) "timeout 0 is one attempt" true (Clock.now () -. t0 < 0.2)

(* -- supervised serve daemon --------------------------------------------- *)

let sock_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "nadroid-crash-%s-%d.sock" name (Unix.getpid ()))

let inline_request ~name source =
  Protocol.render_analyze
    {
      Protocol.a_path = None;
      a_source = Some source;
      a_file = Some name;
      a_k = None;
      a_sound_only = false;
      a_deadline = None;
      a_budget_pta = None;
      a_budget_tuples = None;
      a_cache = None;
    }

(* A request that segfaults its worker answers with a quarantine fault;
   the daemon and its (respawned) worker keep serving, byte-identically. *)
let supervised_daemon_survives_crashing_request () =
  let a = small_app () in
  let sock = sock_path "supervised" in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  Unix.putenv Faultinject.env_var "worker_task=CrashApp:kill";
  let server_config =
    {
      Server.default_config with
      Server.jobs = Some 1;
      quiet = true;
      install_signals = false;
      supervise = true;
      heartbeat = Some 60.0;
    }
  in
  let daemon = Domain.spawn (fun () -> Server.run ~config:server_config (`Unix sock)) in
  Fun.protect
    ~finally:(fun () ->
      (try
         let c = Client.connect (`Unix sock) in
         ignore (Client.request c Protocol.shutdown_request);
         Client.close c
       with _ -> ());
      Domain.join daemon;
      Unix.putenv Faultinject.env_var "")
    (fun () ->
      let c = Client.connect (`Unix sock) in
      let crash = Client.request c (inline_request ~name:"CrashApp" a.Corpus.source) in
      Alcotest.(check int) "crashing request answers a fault" 4
        (Protocol.response_exit crash);
      Alcotest.(check bool) "response names the quarantine" true
        (is_infix "quarantined" crash);
      let clean = Client.request c (inline_request ~name:a.Corpus.name a.Corpus.source) in
      Alcotest.(check string)
        "daemon still serves, byte-identical to a cold run"
        (Protocol.analyze_response ~name:a.Corpus.name
           (Fault.wrap (fun () ->
                Cache.entry_of_result
                  (Pipeline.analyze ~file:a.Corpus.name a.Corpus.source))))
        clean;
      Client.close c)

(* -- the CLI under SIGTERM and SIGKILL ----------------------------------- *)

(* the built CLI, next to this test binary in _build (cwd varies between
   `dune runtest` and `dune exec`) *)
let nadroid_exe =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "..")
    (Filename.concat "bin" "nadroid.exe")

(* Our environment with a clean injection environment plus [faults]. *)
let cli_env faults =
  let keep e =
    not
      (String.starts_with ~prefix:(Faultinject.env_var ^ "=") e
      || String.starts_with ~prefix:(Supervise.env_var ^ "=") e)
  in
  Array.of_list
    (List.filter keep (Array.to_list (Unix.environment ()))
    @ (if faults = "" then [] else [ Faultinject.env_var ^ "=" ^ faults ]))

(* Run the real binary with [cli_env faults]; returns the exit status,
   stdout and stderr. *)
let run_cli_err ?(faults = "") args =
  let env = cli_env faults in
  let out = Filename.temp_file "nadroid-crash" ".out" in
  let err = Filename.temp_file "nadroid-crash" ".err" in
  let out_fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let err_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process_env nadroid_exe
      (Array.of_list (nadroid_exe :: args))
      env Unix.stdin out_fd err_fd
  in
  Unix.close out_fd;
  Unix.close err_fd;
  let _, status = Unix.waitpid [] pid in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (status, stdout, stderr)

let run_cli ?faults args =
  let status, stdout, _ = run_cli_err ?faults args in
  (status, stdout)

(* Three corpus apps as on-disk files plus a golden uninterrupted run. *)
let with_batch f =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let files =
        List.filteri (fun i _ -> i < 3) (Lazy.force Corpus.all)
        |> List.map (fun (a : Corpus.app) ->
               let p = Filename.concat dir (a.Corpus.name ^ ".mand") in
               write_file p a.Corpus.source;
               p)
      in
      let jpath = Filename.concat dir "journal" in
      let golden_status, golden =
        run_cli ([ "analyze"; "--json"; "--jobs"; "1" ] @ files)
      in
      (match golden_status with
      | Unix.WEXITED 0 -> ()
      | s -> Alcotest.failf "golden run: %s" (Supervise.status_string s));
      f ~files ~jpath ~golden)

(* SIGTERM mid-batch: files already analyzed still print and journal,
   files never started become batch faults, the exit code is the worst
   class seen — and --resume completes the batch byte-identically. *)
let sigterm_stops_batch_durably () =
  with_batch (fun ~files ~jpath ~golden ->
      let status, partial =
        run_cli ~faults:"journal_append:2:term"
          ([ "analyze"; "--json"; "--jobs"; "1"; "--journal"; jpath ] @ files)
      in
      (match status with
      | Unix.WEXITED 3 -> ()
      | s -> Alcotest.failf "SIGTERM run must exit 3 (budget), got %s" (Supervise.status_string s));
      Alcotest.(check bool) "partial report was still flushed" true
        (is_infix "\"files\":3" partial);
      Alcotest.(check bool) "skipped files are batch faults" true
        (is_infix "batch" partial && not (is_infix "\"faults\":[]" partial));
      Alcotest.(check int) "both finished apps are journaled" 2
        (List.length (Journal.replay ~path:jpath));
      let status, resumed =
        run_cli
          ([ "analyze"; "--json"; "--jobs"; "1"; "--journal"; jpath; "--resume" ] @ files)
      in
      (match status with
      | Unix.WEXITED 0 -> ()
      | s -> Alcotest.failf "resume: %s" (Supervise.status_string s));
      Alcotest.(check string) "resumed output = uninterrupted run" golden resumed)

(* SIGKILL mid-batch — no handler can run: the journal's flushed records
   survive, the half-written one is truncated away, --resume replays the
   survivors and the merged output is byte-identical. *)
let sigkill_then_resume_is_byte_identical () =
  with_batch (fun ~files ~jpath ~golden ->
      let status, _ =
        run_cli ~faults:"journal_append:2:kill"
          ([ "analyze"; "--json"; "--jobs"; "1"; "--journal"; jpath ] @ files)
      in
      (match status with
      | Unix.WSIGNALED n when n = Sys.sigkill -> ()
      | s -> Alcotest.failf "expected death by SIGKILL, got %s" (Supervise.status_string s));
      Alcotest.(check int) "the flushed record survives the kill" 1
        (List.length (Journal.replay ~path:jpath));
      let status, resumed =
        run_cli
          ([ "analyze"; "--json"; "--jobs"; "1"; "--journal"; jpath; "--resume" ] @ files)
      in
      (match status with
      | Unix.WEXITED 0 -> ()
      | s -> Alcotest.failf "resume: %s" (Supervise.status_string s));
      Alcotest.(check string) "kill + resume = uninterrupted run" golden resumed)

(* -- streamed emission vs the batch report ------------------------------- *)

(* The streamed JSON-lines are the batch report, reordered into nothing:
   concatenating the per-app lines of `--stream` inside the batch
   envelope must reproduce `--json` byte for byte — over the full
   corpus, with the stream running parallel and the batch sequential. *)
let stream_concat_equals_batch_over_corpus () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let files =
        List.map
          (fun (a : Corpus.app) ->
            let p = Filename.concat dir (a.Corpus.name ^ ".mand") in
            write_file p a.Corpus.source;
            p)
          (Lazy.force Corpus.all)
      in
      let batch_status, batch =
        run_cli ([ "analyze"; "--json"; "--jobs"; "1" ] @ files)
      in
      (match batch_status with
      | Unix.WEXITED 0 -> ()
      | s -> Alcotest.failf "batch run: %s" (Supervise.status_string s));
      let stream_status, stream =
        run_cli ([ "analyze"; "--stream"; "--jobs"; "4" ] @ files)
      in
      (match stream_status with
      | Unix.WEXITED 0 -> ()
      | s -> Alcotest.failf "stream run: %s" (Supervise.status_string s));
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' stream)
      in
      Alcotest.(check int) "one JSON line per app" (List.length files)
        (List.length lines);
      let reconstructed =
        Printf.sprintf "{\"files\":%d,\"apps\":[%s],\"faults\":[]}\n"
          (List.length files)
          (String.concat "," lines)
      in
      Alcotest.(check string) "stream lines re-wrapped = batch report" batch
        reconstructed)

(* SIGKILL mid-stream: completed lines are already on stdout and in the
   journal; --resume replays them and the full merged stream is
   byte-identical to an uninterrupted one. *)
let stream_sigkill_then_resume_is_byte_identical () =
  with_batch (fun ~files ~jpath ~golden:_ ->
      let status, golden_stream =
        run_cli ([ "analyze"; "--stream"; "--jobs"; "1" ] @ files)
      in
      (match status with
      | Unix.WEXITED 0 -> ()
      | s -> Alcotest.failf "golden stream: %s" (Supervise.status_string s));
      let status, partial =
        run_cli ~faults:"journal_append:2:kill"
          ([ "analyze"; "--stream"; "--jobs"; "1"; "--journal"; jpath ] @ files)
      in
      (match status with
      | Unix.WSIGNALED n when n = Sys.sigkill -> ()
      | s -> Alcotest.failf "expected death by SIGKILL, got %s" (Supervise.status_string s));
      (* app 1's line was flushed before the kill landed on app 2's
         journal append — streaming means the reader already has it *)
      (match String.index_opt golden_stream '\n' with
      | None -> Alcotest.fail "golden stream has no lines"
      | Some i ->
          Alcotest.(check string) "flushed prefix survives on stdout"
            (String.sub golden_stream 0 (i + 1))
            partial);
      Alcotest.(check int) "the flushed record survives in the journal" 1
        (List.length (Journal.replay ~path:jpath));
      let status, resumed =
        run_cli
          ([ "analyze"; "--stream"; "--jobs"; "1"; "--journal"; jpath; "--resume" ]
          @ files)
      in
      (match status with
      | Unix.WEXITED 0 -> ()
      | s -> Alcotest.failf "stream resume: %s" (Supervise.status_string s));
      Alcotest.(check string) "kill + resume streams identical bytes"
        golden_stream resumed)

(* -- the human report over a multi-file batch ----------------------------- *)

(* A frontend-faulting file in the middle of good ones: every file gets
   its `== file ==` header in input order, the bad one's diagnostic goes
   to stderr, the batch exits with the frontend class (1), and stdout
   does not depend on --jobs. With --timings, each good file's metrics
   follow its own report even when another domain emits it. *)
let human_batch_with_faulting_file () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path name = Filename.concat dir name in
      let good =
        List.filteri (fun i _ -> i < 4) (Lazy.force Corpus.all)
        |> List.map (fun (a : Corpus.app) ->
               write_file (path (a.Corpus.name ^ ".mand")) a.Corpus.source;
               path (a.Corpus.name ^ ".mand"))
      in
      let bad = path "Broken.mand" in
      write_file bad "class Broken extends Activity { method void onCreate( }";
      let files =
        List.filteri (fun i _ -> i < 2) good @ (bad :: List.filteri (fun i _ -> i >= 2) good)
      in
      let run ?(timings = false) jobs =
        let flags = if timings then [ "--timings" ] else [] in
        let status, out, err =
          run_cli_err ([ "analyze"; "--jobs"; string_of_int jobs ] @ flags @ files)
        in
        (match status with
        | Unix.WEXITED 1 -> ()
        | s ->
            Alcotest.failf "jobs=%d must exit 1 (frontend), got %s" jobs
              (Supervise.status_string s));
        Alcotest.(check bool) "the diagnostic names the bad file on stderr" true
          (is_infix (bad ^ ":") err && is_infix "1 of 5 file(s) failed" err);
        Alcotest.(check bool) "no diagnostic on stdout" false (is_infix "1 of 5" out);
        out
      in
      let markers out =
        List.filter
          (fun l -> String.starts_with ~prefix:"== " l || String.equal l "analysis phases:")
          (String.split_on_char '\n' out)
      in
      let header f = Printf.sprintf "== %s ==" f in
      let out = run 1 in
      Alcotest.(check (list string))
        "one header per file, in input order" (List.map header files) (markers out);
      Alcotest.(check int) "a report per good file" 4
        (List.length (Astring.String.cuts ~sep:"potential UAFs: " out) - 1);
      Alcotest.(check string) "stdout at --jobs 2 = --jobs 1" out (run 2);
      Alcotest.(check (list string))
        "--timings: metrics right after each good file's report"
        (List.concat_map
           (fun f -> if f = bad then [ header f ] else [ header f; "analysis phases:" ])
           files)
        (markers (run ~timings:true 2)))

(* A cache hit replays the stored entry, metrics included: with
   --timings, a warm run says its phase times are the storing run's, and
   a cold run does not. Without --timings, stdout is the same cached or
   not. Under --supervise the cache is the worker's, and its reply says
   whether the entry was a hit. *)
let timings_on_cache_hit_say_so ~supervise () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let app = List.hd (Lazy.force Corpus.all) in
      let file = Filename.concat dir (app.Corpus.name ^ ".mand") in
      write_file file app.Corpus.source;
      let cache =
        (if supervise then [ "--supervise" ] else [])
        @ [ "--cache"; "--cache-dir"; Filename.concat dir "cache" ]
      in
      let run args =
        match run_cli_err ([ "analyze" ] @ args @ [ file ]) with
        | Unix.WEXITED 0, out, _ -> out
        | s, _, err -> Alcotest.failf "analyze %s: %s %s" (String.concat " " args)
                         (Supervise.status_string s) err
      in
      let says_reused out = is_infix "reused result: phase times are from the run that stored it" out in
      let plain = run [] in
      let cold = run (cache @ [ "--timings" ]) in
      let warm = run (cache @ [ "--timings" ]) in
      Alcotest.(check bool) "cold run: no reuse line" false (says_reused cold);
      Alcotest.(check bool) "warm run: reuse line" true (says_reused warm);
      Alcotest.(check bool) "the line sits above the phase table" true
        (is_infix "stored it\nanalysis phases:" warm);
      Alcotest.(check string) "without --timings, a cache hit prints the same" plain
        (run cache);
      Alcotest.(check string) "and so does an uncached run" plain (run []))

(* A --jobs above the recommended domain count is lowered to it, with
   one note on stderr, and the output is what a jobs-2 run prints. *)
let oversubscribed_jobs_are_clamped () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let files =
        List.map
          (fun name ->
            let app = Option.get (Corpus.find name) in
            let file = Filename.concat dir (name ^ ".mand") in
            write_file file app.Corpus.source;
            file)
          [ "ToDoList"; "Aard"; "Music" ]
      in
      let run jobs =
        match run_cli_err ([ "analyze"; "--jobs"; string_of_int jobs ] @ files) with
        | Unix.WEXITED 0, out, err -> (out, err)
        | s, _, err -> Alcotest.failf "analyze --jobs %d: %s %s" jobs (Supervise.status_string s) err
      in
      let most = Parallel.default_jobs () in
      let many = max 8 (most + 1) in
      let out_many, err_many = run many and out_two, _ = run 2 in
      Alcotest.(check string) "stdout equals --jobs 2" out_two out_many;
      let note = Printf.sprintf "note: --jobs %d is above" many in
      Alcotest.(check int) "one note" 1
        (List.length (List.filter (fun l -> is_infix note l) (String.split_on_char '\n' err_many))))

(* SIGTERM to an idle `serve --jobs 2`. Each analyze request moves the
   poller's role to the other domain, so after one request or after two
   the main domain, which the kernel prefers for a signal sent to the
   process, waits on a condition variable that the signal does not end,
   while the other domain sits in select. Which domain polls first, and
   whether a quick request moves the role at all, are races, so three
   daemons take one request and three take two. Each must drain, exit 0
   and unlink its socket within a few seconds. *)
let serve_drains_on_sigterm () =
  let a = small_app () in
  let want =
    Protocol.analyze_response ~name:a.Corpus.name
      (Fault.wrap (fun () ->
           Cache.entry_of_result (Pipeline.analyze ~file:a.Corpus.name a.Corpus.source)))
  in
  List.iter
    (fun requests ->
      let sock = sock_path (Printf.sprintf "sigterm-%d" requests) in
      (try Unix.unlink sock with Unix.Unix_error _ -> ());
      let pid =
        Unix.create_process_env nadroid_exe
          [| nadroid_exe; "serve"; "--socket"; sock; "--jobs"; "2"; "--quiet" |]
          (cli_env "") Unix.stdin Unix.stdout Unix.stderr
      in
      let reaped = ref false in
      Fun.protect
        ~finally:(fun () ->
          if not !reaped then begin
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid)
          end)
        (fun () ->
          let c = Client.connect (`Unix sock) in
          for i = 1 to requests do
            Alcotest.(check string) (Printf.sprintf "reply %d of %d" i requests) want
              (Client.request c (inline_request ~name:a.Corpus.name a.Corpus.source))
          done;
          Client.close c;
          (* let the poller take the hang-up and go back into select: the
             signal must find the daemon idle *)
          Unix.sleepf 0.05;
          Unix.kill pid Sys.sigterm;
          let deadline = Unix.gettimeofday () +. 5.0 in
          let rec wait () =
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ when Unix.gettimeofday () < deadline ->
                Unix.sleepf 0.02;
                wait ()
            | 0, _ ->
                Alcotest.failf "after %d request(s): still running 5 s after SIGTERM"
                  requests
            | _, status ->
                reaped := true;
                status
          in
          (match wait () with
          | Unix.WEXITED 0 -> ()
          | s -> Alcotest.failf "after %d request(s): %s" requests (Supervise.status_string s));
          Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock)))
    [ 1; 2; 1; 2; 1; 2 ]

(* -- blast-radius fuzzing ------------------------------------------------ *)

let faultfuzz_smoke () =
  let s = Faultfuzz.run ~jobs:2 ~apps:3 ~seed:7 ~trials:2 () in
  Alcotest.(check int) "both trials ran" 2 s.Faultfuzz.fz_trials;
  match s.Faultfuzz.fz_escapes with
  | [] -> ()
  | x :: _ ->
      Alcotest.failf "blast-radius escape: trial %d (%s) %s: %s" x.Faultfuzz.x_trial
        x.Faultfuzz.x_mode x.Faultfuzz.x_app x.Faultfuzz.x_what

let suite =
  [
    ( "crash-journal",
      [
        Alcotest.test_case "append / replay round-trips, last record wins" `Quick
          journal_roundtrip;
        Alcotest.test_case "truncated tail replays the valid prefix" `Quick
          (journal_damage_bounds_replay truncated_tail);
        Alcotest.test_case "bit-flipped record bounds the replay" `Quick
          (journal_damage_bounds_replay flipped_byte);
        Alcotest.test_case "record claiming max_int bytes bounds the replay" `Quick
          (journal_damage_bounds_replay (huge_length max_int));
        Alcotest.test_case "record claiming max_int - 1 bytes bounds the replay" `Quick
          (journal_damage_bounds_replay (huge_length (max_int - 1)));
        Alcotest.test_case "absent or garbage journal replays empty" `Quick
          journal_absent_or_garbage_is_empty;
        Alcotest.test_case "journal of another version replays empty, resume truncates" `Quick
          journal_of_another_version_replays_empty;
      ] );
    ( "crash-cache",
      [
        Alcotest.test_case "orphaned temp files are swept on open" `Quick
          sweep_removes_only_stale_tmp;
        Alcotest.test_case "injected store failure never loses the result" `Quick
          store_failure_never_loses_result;
        Alcotest.test_case "injected read failure surfaces and repairs" `Quick
          read_failure_is_surfaced_and_repaired;
      ] );
    ( "crash-inject",
      [
        Alcotest.test_case "nth-occurrence rule fires exactly once" `Quick
          nth_fires_exactly_once;
        Alcotest.test_case "key rule fires on its key only" `Quick
          key_rule_matches_exactly;
        Alcotest.test_case "seeded mode is deterministic per seed" `Quick
          seeded_mode_is_deterministic;
        Alcotest.test_case "malformed specs are rejected" `Quick bad_specs_are_rejected;
        Alcotest.test_case "filter=NAME:stall sleeps and returns" `Quick
          filter_stall_sleeps_and_returns;
        Alcotest.test_case "seeded mode leaves the filter site out" `Quick
          seeded_mode_leaves_the_filter_site_out;
      ] );
    ( "crash-supervise",
      [
        Alcotest.test_case "supervised analysis = in-process, byte for byte" `Quick
          supervised_matches_inprocess;
        Alcotest.test_case "SIGKILLed worker costs one quarantine, batch unharmed" `Quick
          worker_crash_is_isolated_and_quarantined;
        Alcotest.test_case "SIGABRT (segfault stand-in) is quarantined" `Quick
          aborting_worker_is_quarantined;
        Alcotest.test_case "wedged worker is bounded by the heartbeat" `Quick
          wedged_worker_hits_heartbeat;
        Alcotest.test_case "shutdown is idempotent and faults later calls" `Quick
          shutdown_is_idempotent;
        Alcotest.test_case "a header split across two writes is reassembled" `Quick
          split_header_is_reassembled;
      ]
      @ List.map
          (fun ((what, _, _) as reply) ->
            Alcotest.test_case
              ("reply " ^ what ^ ": replaced, quarantined, never decoded")
              `Quick (foreign_reply_is_never_unmarshalled reply))
          foreign_replies );
    ( "crash-client",
      [
        Alcotest.test_case "connect retries with backoff until --connect-timeout" `Quick
          connect_timeout_is_bounded;
      ] );
    ( "crash-serve",
      [
        Alcotest.test_case "supervised daemon survives a crashing request" `Quick
          supervised_daemon_survives_crashing_request;
      ] );
    ( "crash-cli",
      [
        Alcotest.test_case "SIGTERM mid-batch: durable journal, worst-class exit" `Quick
          sigterm_stops_batch_durably;
        Alcotest.test_case "kill -9 then --resume is byte-identical" `Quick
          sigkill_then_resume_is_byte_identical;
        Alcotest.test_case "--stream lines re-wrapped = --json batch, full corpus" `Quick
          stream_concat_equals_batch_over_corpus;
        Alcotest.test_case "kill -9 mid-stream then --resume is byte-identical" `Quick
          stream_sigkill_then_resume_is_byte_identical;
        Alcotest.test_case "human report: headers in order, fault on stderr, jobs-invariant"
          `Quick human_batch_with_faulting_file;
        Alcotest.test_case "--timings on a cache hit says the times are the storing run's"
          `Quick (timings_on_cache_hit_say_so ~supervise:false);
        Alcotest.test_case "--supervise: a worker's cache hit says so too" `Quick
          (timings_on_cache_hit_say_so ~supervise:true);
        Alcotest.test_case "--jobs above the core count is clamped, stdout unchanged" `Quick
          oversubscribed_jobs_are_clamped;
        Alcotest.test_case "serve --jobs 2 drains on SIGTERM whichever domain polls" `Quick
          serve_drains_on_sigterm;
      ] );
    ( "crash-fuzz",
      [ Alcotest.test_case "seeded fuzz over all seams: 0 escapes" `Quick faultfuzz_smoke ]
    );
  ]
