(* Content-addressed analysis cache: a warm hit serves exactly the bytes
   the cold run produced; any change to source, config, analyzer version
   or file name moves the address; a corrupted or truncated entry is a
   miss that surfaces a structured [Fault] and never a wrong report; a
   deadline-degraded run is never persisted. *)

module Pipeline = Nadroid_core.Pipeline
module Cache = Nadroid_core.Cache
module Fault = Nadroid_core.Fault
module Corpus = Nadroid_corpus.Corpus

(* each test gets its own directory under the test cwd (inside _build) *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "_cache_test.%d.%d" (Unix.getpid ()) !n

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let app () =
  match Corpus.find "Zxing" with Some a -> a | None -> Alcotest.fail "no Zxing"

let check_entry_equal msg (a : Cache.entry) (b : Cache.entry) =
  Alcotest.(check int) (msg ^ ": potential") a.Cache.e_potential b.Cache.e_potential;
  Alcotest.(check int) (msg ^ ": after-sound") a.Cache.e_after_sound b.Cache.e_after_sound;
  Alcotest.(check int) (msg ^ ": after-unsound") a.Cache.e_after_unsound b.Cache.e_after_unsound;
  (* byte identity of the rendered report is the whole point *)
  Alcotest.(check string) (msg ^ ": report bytes") a.Cache.e_report b.Cache.e_report

let warm_hit_is_byte_identical () =
  with_dir (fun dir ->
      let a = app () in
      let cold, o1 = Cache.analyze ~dir ~file:a.Corpus.name a.Corpus.source in
      (match o1 with Cache.Miss -> () | _ -> Alcotest.fail "first run must miss");
      let warm, o2 = Cache.analyze ~dir ~file:a.Corpus.name a.Corpus.source in
      (match o2 with Cache.Hit -> () | _ -> Alcotest.fail "second run must hit");
      check_entry_equal "warm = cold" cold warm;
      (* and both match the uncached pipeline *)
      let direct =
        Cache.entry_of_result (Pipeline.analyze ~file:a.Corpus.name a.Corpus.source)
      in
      check_entry_equal "cached = direct" direct cold)

let source_edit_busts () =
  let a = app () in
  let config = Pipeline.default_config in
  let k1 = Cache.key ~config a.Corpus.source in
  let k2 = Cache.key ~config (a.Corpus.source ^ "\n// touched\n") in
  Alcotest.(check bool) "edited source gets a new address" true (k1 <> k2)

let config_change_busts () =
  let a = app () in
  let base = Cache.key ~config:Pipeline.default_config a.Corpus.source in
  let variants =
    [
      ("k", { Pipeline.default_config with Pipeline.k = 1 });
      ("filters", Pipeline.sound_only_config);
      ( "solver",
        { Pipeline.default_config with Pipeline.solver = Nadroid_analysis.Pta.Reference } );
      ( "budget",
        {
          Pipeline.default_config with
          Pipeline.budgets = { Pipeline.no_budgets with Pipeline.pta_steps = Some 7 };
        } );
    ]
  in
  List.iter
    (fun (what, config) ->
      Alcotest.(check bool)
        (what ^ " change gets a new address")
        true
        (Cache.key ~config a.Corpus.source <> base))
    variants

let version_bump_busts () =
  let a = app () in
  let config = Pipeline.default_config in
  Alcotest.(check bool)
    "version bump gets a new address" true
    (Cache.key ~config a.Corpus.source
    <> Cache.key ~version:(Cache.version ^ "'") ~config a.Corpus.source)

(* Overwrite an entry's file with [mangle applied to its bytes], then
   check [find] reports Corrupt (an Internal fault, never a wrong entry)
   and [analyze] still returns the correct result and repairs the
   entry. *)
let corruption_is_a_surfaced_miss mangle () =
  with_dir (fun dir ->
      let a = app () in
      let cold, _ = Cache.analyze ~dir ~file:a.Corpus.name a.Corpus.source in
      let k =
        Cache.address ~config:Pipeline.default_config ~file:a.Corpus.name a.Corpus.source
      in
      let p = Cache.path ~dir k in
      let raw =
        let ic = open_in_bin p in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let oc = open_out_bin p in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (mangle raw));
      (match Cache.find ~dir k with
      | None, Cache.Corrupt (Fault.Internal _) -> ()
      | Some _, _ -> Alcotest.fail "corrupt entry must not decode"
      | None, (Cache.Hit | Cache.Miss | Cache.Corrupt _) ->
          Alcotest.fail "expected a Corrupt outcome carrying an Internal fault");
      let again, o = Cache.analyze ~dir ~file:a.Corpus.name a.Corpus.source in
      (match o with
      | Cache.Corrupt (Fault.Internal _) -> ()
      | _ -> Alcotest.fail "analyze must surface the corruption");
      check_entry_equal "re-analysis over corrupt entry" cold again;
      (* the corrupt entry was replaced: next lookup is a clean hit *)
      match Cache.find ~dir k with
      | Some e, Cache.Hit -> check_entry_equal "repaired entry" cold e
      | _ -> Alcotest.fail "entry not repaired after corruption")

let truncate raw = String.sub raw 0 (String.length raw / 2)

(* the last payload byte, just before the frame's terminating newline *)
let flip_payload_byte raw =
  let b = Bytes.of_string raw in
  let i = String.length raw - 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  Bytes.to_string b

let bad_header _raw = "not a cache entry\njunk"

(* the entry intact, but framed under another version *)
let other_version raw =
  String.concat " nadroid-0 " (Astring.String.cuts ~sep:(" " ^ Cache.version ^ " ") raw)

(* the header claims a payload of [len] bytes; near [max_int], adding the
   header's length would wrap *)
let with_length len raw =
  let nl = String.index raw '\n' in
  let sp = String.rindex_from raw nl ' ' in
  String.sub raw 0 (sp + 1) ^ string_of_int len ^ String.sub raw nl (String.length raw - nl)

(* Concurrent stores of the same key from several domains: a pid-only
   temp-file name is shared by every domain of the process, so racing
   stores used to interleave their writes into one temp file and publish
   a garbled entry. With per-store unique temp names the entry must stay
   intact (Hit, byte-identical) at every point, never Corrupt. *)
let concurrent_stores_never_corrupt () =
  with_dir (fun dir ->
      let a = app () in
      let e =
        Cache.entry_of_result (Pipeline.analyze ~file:a.Corpus.name a.Corpus.source)
      in
      let k = Cache.key ~config:Pipeline.default_config a.Corpus.source in
      let corrupted = Atomic.make 0 in
      let worker () =
        for _ = 1 to 25 do
          Cache.store ~dir k e;
          match Cache.find ~dir k with
          | Some _, Cache.Hit | None, Cache.Miss -> ()
          | _, Cache.Corrupt _ -> Atomic.incr corrupted
          | _ -> ()
        done
      in
      let domains = List.init 4 (fun _ -> Domain.spawn worker) in
      List.iter Domain.join domains;
      Alcotest.(check int) "no store/find observed a corrupt entry" 0 (Atomic.get corrupted);
      match Cache.find ~dir k with
      | Some got, Cache.Hit -> check_entry_equal "entry intact after the race" e got
      | _ -> Alcotest.fail "expected an intact hit after concurrent stores")

(* LRU eviction: with explicit mtimes, evict removes oldest-first until
   the cap holds, leaves recently-used entries alone, and skips foreign
   files. A find hit refreshes an entry's mtime so it survives. *)
let lru_eviction () =
  with_dir (fun dir ->
      let a = app () in
      let e =
        Cache.entry_of_result (Pipeline.analyze ~file:a.Corpus.name a.Corpus.source)
      in
      let keys = List.init 4 (fun i -> Printf.sprintf "%032d" i) in
      List.iter (fun k -> Cache.store ~dir k e) keys;
      let size = (Unix.stat (Cache.path ~dir (List.hd keys))).Unix.st_size in
      (* oldest first: key i gets mtime i (seconds after the epoch) *)
      List.iteri
        (fun i k ->
          let t = float_of_int (i + 1) in
          Unix.utimes (Cache.path ~dir k) t t)
        keys;
      (* a foreign file must neither count toward the size nor be removed *)
      let foreign = Filename.concat dir "README" in
      let oc = open_out_bin foreign in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "not a cache entry");
      Alcotest.(check int) "dir_bytes counts only entries" (4 * size) (Cache.dir_bytes ~dir);
      (* a hit on the oldest entry touches it to "now": it must survive *)
      (match Cache.find ~dir (List.hd keys) with
      | Some _, Cache.Hit -> ()
      | _ -> Alcotest.fail "expected a hit on entry 0");
      Alcotest.(check bool)
        "hit refreshed the mtime" true
        ((Unix.stat (Cache.path ~dir (List.hd keys))).Unix.st_mtime > 4.0);
      (* cap at two entries: the two stale ones (keys 1 and 2) must go *)
      let removed = Cache.evict ~dir ~max_bytes:(2 * size) in
      Alcotest.(check int) "two entries evicted" 2 removed;
      Alcotest.(check int) "cap holds" (2 * size) (Cache.dir_bytes ~dir);
      List.iteri
        (fun i k ->
          Alcotest.(check bool)
            (Printf.sprintf "entry %d %s" i (if i = 1 || i = 2 then "evicted" else "kept"))
            (not (i = 1 || i = 2))
            (Sys.file_exists (Cache.path ~dir k)))
        keys;
      Alcotest.(check bool) "foreign file untouched" true (Sys.file_exists foreign);
      Sys.remove foreign)

(* The acceptance-criterion shape: a full corpus batch under
   --cache-max-bytes keeps the directory at or below the cap after every
   store (the uncapped batch is ~80 KB, so a 32 KB cap forces eviction
   partway through). *)
let eviction_caps_corpus_batch () =
  with_dir (fun dir ->
      let cap = 32 * 1024 in
      List.iter
        (fun (a : Corpus.app) ->
          ignore (Cache.analyze ~max_bytes:cap ~dir ~file:a.Corpus.name a.Corpus.source);
          Alcotest.(check bool)
            (a.Corpus.name ^ ": cache at or below the cap")
            true
            (Cache.dir_bytes ~dir <= cap))
        (Lazy.force Corpus.all);
      Alcotest.(check bool) "eviction ran (not every entry survived)" true
        (List.length (Sys.readdir dir |> Array.to_list) < List.length (Lazy.force Corpus.all)))

(* Two files with the same text ("twins") under different names: every
   report embeds its file name, so each twin's cached entry must be the
   bytes an uncached run over that name prints. Keyed by source alone,
   the second twin was served the first one's report. *)
let twins_get_their_own_report () =
  with_dir (fun dir ->
      let src = fst (Nadroid_corpus.Synth.render (Nadroid_corpus.Synth.generate ~seed:7)) in
      let json ~name (e : Cache.entry) = Nadroid_serve.Protocol.entry_json ~name e in
      List.iter
        (fun name ->
          let cached, _ = Cache.analyze ~dir ~file:name src in
          let uncached = Cache.entry_of_result (Pipeline.analyze ~file:name src) in
          Alcotest.(check string)
            (name ^ ": cached output = uncached output")
            (json ~name uncached) (json ~name cached))
        [ "a.mand"; "b.mand"; "a.mand"; "b.mand" ])

let entries dir =
  if Sys.file_exists dir then
    List.filter (fun f -> Filename.check_suffix f ".cache") (Array.to_list (Sys.readdir dir))
  else []

(* A run cut short by a wall-clock deadline depends on host speed: it is
   returned, but storing it would serve the degraded report to every
   later run with that address. With its MHB filter stalled ~1 ms per
   warning, this adversarial app spends seconds in its filter phase, so
   0.3 s always degrades it. A run that completes inside its deadline is
   stored as usual. *)
let deadline_degraded_runs_are_not_stored () =
  let with_deadline d =
    {
      Pipeline.default_config with
      Pipeline.budgets = { Pipeline.no_budgets with Pipeline.deadline = Some d };
    }
  in
  with_dir (fun dir ->
      let src = Nadroid_corpus.Synth.adversarial ~seed:0 ~size:40 in
      let e, _ =
        Test_robustness.with_stalled_filters (fun () ->
            Cache.analyze ~config:(with_deadline 0.3) ~dir ~file:"adv.mand" src)
      in
      Alcotest.(check bool) "the run degraded" true
        (e.Cache.e_metrics.Pipeline.m_degraded <> []);
      Alcotest.(check (list string)) "no entry written" [] (entries dir));
  with_dir (fun dir ->
      let a = app () in
      let analyze () =
        Cache.analyze ~config:(with_deadline 600.0) ~dir ~file:a.Corpus.name a.Corpus.source
      in
      let e, _ = analyze () in
      Alcotest.(check bool) "the run completed" true (e.Cache.e_metrics.Pipeline.m_degraded = []);
      Alcotest.(check int) "one entry written" 1 (List.length (entries dir));
      match analyze () with
      | _, Cache.Hit -> ()
      | _ -> Alcotest.fail "an undegraded deadline run must be served from the cache")

(* metrics JSON (the --json observability satellite): solver work
   counters are present and positive on a real analysis *)
let metrics_json_has_solver_counters () =
  let a = app () in
  let t = Pipeline.analyze ~file:a.Corpus.name a.Corpus.source in
  let json = Nadroid_core.Report.metrics_to_json ~name:a.Corpus.name t.Pipeline.metrics in
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (key ^ " present in metrics json")
        true
        (Astring.String.is_infix ~affix:(Printf.sprintf "\"%s\":" key) json))
    [ "pta_visits"; "pta_steps" ];
  Alcotest.(check bool) "visits counted" true (t.Pipeline.metrics.Pipeline.m_pta_visits > 0);
  Alcotest.(check bool) "steps counted" true (t.Pipeline.metrics.Pipeline.m_pta_steps > 0)

let suite =
  [
    ( "cache",
      [
        Alcotest.test_case "warm hit is byte-identical to cold run" `Quick
          warm_hit_is_byte_identical;
        Alcotest.test_case "source edit busts the address" `Quick source_edit_busts;
        Alcotest.test_case "config change busts the address" `Quick config_change_busts;
        Alcotest.test_case "version bump busts the address" `Quick version_bump_busts;
        Alcotest.test_case "truncated entry = surfaced miss" `Quick
          (corruption_is_a_surfaced_miss truncate);
        Alcotest.test_case "bit-flipped entry = surfaced miss" `Quick
          (corruption_is_a_surfaced_miss flip_payload_byte);
        Alcotest.test_case "foreign file = surfaced miss" `Quick
          (corruption_is_a_surfaced_miss bad_header);
        Alcotest.test_case "entry of another version = surfaced miss" `Quick
          (corruption_is_a_surfaced_miss other_version);
        Alcotest.test_case "entry claiming max_int bytes = surfaced miss" `Quick
          (corruption_is_a_surfaced_miss (with_length max_int));
        Alcotest.test_case "entry claiming max_int - 1 bytes = surfaced miss" `Quick
          (corruption_is_a_surfaced_miss (with_length (max_int - 1)));
        Alcotest.test_case "concurrent same-key stores never corrupt" `Quick
          concurrent_stores_never_corrupt;
        Alcotest.test_case "LRU eviction enforces the size cap" `Quick lru_eviction;
        Alcotest.test_case "corpus batch stays under --cache-max-bytes" `Quick
          eviction_caps_corpus_batch;
        Alcotest.test_case "metrics json carries solver work counters" `Quick
          metrics_json_has_solver_counters;
        Alcotest.test_case "twin sources under two names get their own report" `Quick
          twins_get_their_own_report;
        Alcotest.test_case "deadline-degraded runs are not stored" `Quick
          deadline_degraded_runs_are_not_stored;
      ] );
  ]
