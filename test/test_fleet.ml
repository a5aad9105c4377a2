(* Fleet-scale machinery: the streaming work-stealing scheduler
   ({!Parallel.stream}), the seeded mega-corpus generator
   ({!Megacorpus}) and cache eviction under real pressure.

   The load-bearing property is scheduler equivalence: for any corpus
   and any job count, the emitted per-app JSON objects — reports,
   faults and their order — are byte-identical to a sequential run,
   including when injected kills and wedges take workers down
   mid-batch. The scheduler may only change *when* work runs, never
   what comes out. *)

module Pipeline = Nadroid_core.Pipeline
module Cache = Nadroid_core.Cache
module Fault = Nadroid_core.Fault
module Parallel = Nadroid_core.Parallel
module Supervise = Nadroid_core.Supervise
module Faultinject = Nadroid_core.Faultinject
module Megacorpus = Nadroid_corpus.Megacorpus
module Protocol = Nadroid_serve.Protocol
module Clock = Nadroid_clock.Clock

let fresh_dir =
  let n = ref 0 in
  fun () -> Printf.sprintf "_fleet_test.%d.%d" (Unix.getpid ()) (incr n; !n)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let config = Pipeline.default_config

(* -- Parallel.stream unit properties ------------------------------------- *)

(* In-order emission with crash isolation: every index is emitted exactly
   once, in input order, failures in their own slots. *)
let stream_in_order_and_isolated () =
  let n = 60 in
  let emitted = ref [] in
  Parallel.stream ~jobs:4 ~n
    (fun i -> if i mod 7 = 3 then failwith (Printf.sprintf "boom%d" i) else i * i)
    (fun i r -> emitted := (i, r) :: !emitted);
  let emitted = List.rev !emitted in
  Alcotest.(check (list int))
    "indices emitted in input order"
    (List.init n Fun.id)
    (List.map fst emitted);
  List.iter
    (fun (i, r) ->
      match r with
      | Ok v ->
          Alcotest.(check bool) "ok slot not a planted failure" true (i mod 7 <> 3);
          Alcotest.(check int) "value" (i * i) v
      | Error (Failure m) ->
          Alcotest.(check string) "failure in its own slot" (Printf.sprintf "boom%d" i) m
      | Error e -> raise e)
    emitted

(* The admission window bounds how far any running task may be ahead of
   the emission watermark — the O(window) memory discipline. The batch
   spans four windows, so an unbounded admission would let the caller's
   worker run far ahead while the other domains are still spawning. *)
let stream_window_bounds_inflight () =
  let window = Parallel.window in
  let emitted = Atomic.make 0 in
  let violations = Atomic.make 0 in
  Parallel.stream ~jobs:4 ~n:(4 * window)
    (fun i ->
      if i - Atomic.get emitted >= window then ignore (Atomic.fetch_and_add violations 1);
      i)
    (fun _ _ -> Atomic.incr emitted);
  Alcotest.(check int)
    "no task ever starts a full window past the watermark" 0
    (Atomic.get violations)

(* An exception from [emit] stops further emission and re-raises in the
   caller once in-flight tasks drain. *)
let stream_emit_exception_propagates () =
  let last = ref (-1) in
  (match
     Parallel.stream ~jobs:4 ~n:50
       (fun i -> i)
       (fun i _ -> if i = 5 then failwith "emit-stop" else last := i)
   with
  | () -> Alcotest.fail "emit exception must re-raise"
  | exception Failure m -> Alcotest.(check string) "the emit exception" "emit-stop" m);
  Alcotest.(check bool) "nothing emitted past the failing index" true (!last < 5)

(* The wall-clock case for stealing, demonstrable even on one core
   because sleeps overlap: round-robin admission puts all four
   stragglers in worker 0's deque, so a static split (no stealing)
   serializes them and needs at least 4 x 0.25 = 1.0 s. Stealing spreads
   them across the workers, for about 0.3 s. *)
let steal_beats_static_on_stragglers () =
  let n = 16 and jobs = 4 in
  let task i = Unix.sleepf (if i mod jobs = 0 then 0.25 else 0.01) in
  let t0 = Clock.now () in
  Parallel.stream ~jobs ~n task (fun _ _ -> ());
  let wall = Clock.now () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "stealing (%.2fs) well under the static split's 1.0 s" wall)
    true (wall < 0.77)

(* -- scheduler equivalence (qcheck) -------------------------------------- *)

(* Adversarial apps are capped small here: the property is about
   scheduling, not about paying size^3 per qcheck case. *)
let tame (a : Megacorpus.app) =
  match a.Megacorpus.mc_kind with
  | Megacorpus.Adversarial s ->
      { a with Megacorpus.mc_kind = Megacorpus.Adversarial (min s 10) }
  | Megacorpus.Normal _ -> a

let small_plan ~seed ~apps ~adversarial =
  Array.map tame
    (Megacorpus.plan
       {
         Megacorpus.mc_seed = seed;
         mc_apps = apps;
         mc_adversarial = adversarial;
         mc_loc_scale = 0.1;
       })

(* One full pass: every app analyzed in-process, rendered to the same
   per-app JSON the CLI emits, collected in input order. *)
let render_plan ~jobs (plan : Megacorpus.app array) : string list =
  ignore (Lazy.force Nadroid_lang.Builtins.program);
  let out = Array.make (Array.length plan) "" in
  Parallel.stream ~jobs ~n:(Array.length plan)
    (fun i ->
      let a = plan.(i) in
      let name = a.Megacorpus.mc_name in
      match
        Fault.wrap (fun () ->
            Cache.entry_of_result
              (Pipeline.analyze ~config ~file:name (Megacorpus.source a)))
      with
      | Ok e -> Protocol.entry_json ~name e
      | Error f -> Nadroid_core.Report.fault_to_json ~name f)
    (fun i r ->
      out.(i) <- (match r with Ok s -> s | Error e -> "EXN:" ^ Printexc.to_string e));
  Array.to_list out

let scheduler_equivalence =
  QCheck2.Test.make ~name:"stream schedulers at jobs 2, 4 and 8 are byte-identical to jobs 1"
    ~count:6
    QCheck2.Gen.(
      triple (int_range 0 999) (int_range 3 10) (oneofl [ 0.0; 0.15; 0.3 ]))
    (fun (seed, apps, adversarial) ->
      let plan = small_plan ~seed ~apps ~adversarial in
      let reference = render_plan ~jobs:1 plan in
      List.for_all (fun jobs -> render_plan ~jobs plan = reference) [ 2; 4; 8 ])

(* -- scheduler equivalence under injected kills and wedges --------------- *)

(* Worker pids vary run to run; everything else about a fault rendering
   must not. *)
let mask_digits = String.map (fun c -> if c >= '0' && c <= '9' then '#' else c)

(* One supervised pass over [plan]: kills/wedges armed via the
   (scheduling-independent) key rule in NADROID_FAULTS land on the same
   app in every run, so outputs must agree across schedulers — the
   faulted app answers a quarantine/heartbeat fault, everyone else
   byte-identical entries. *)
let supervised_render ~jobs ?heartbeat (plan : Megacorpus.app array) :
    string list =
  ignore (Lazy.force Nadroid_lang.Builtins.program);
  let sp = Supervise.create ~jobs ?heartbeat () in
  Fun.protect
    ~finally:(fun () -> Supervise.shutdown sp)
    (fun () ->
      let out = Array.make (Array.length plan) "" in
      Parallel.stream ~jobs ~n:(Array.length plan)
        (fun i ->
          let a = plan.(i) in
          let name = a.Megacorpus.mc_name in
          match Supervise.analyze sp ~config ~file:name (Megacorpus.source a) with
          | Ok e -> Protocol.entry_json ~name e
          | Error f -> "FAULT:" ^ mask_digits (Fault.to_string f))
        (fun i r ->
          out.(i) <-
            (match r with Ok s -> s | Error e -> "EXN:" ^ Printexc.to_string e));
      Array.to_list out)

let equivalence_under_faults ~action ~expect ?heartbeat () =
  let plan = small_plan ~seed:11 ~apps:5 ~adversarial:0.0 in
  let victim = plan.(2).Megacorpus.mc_name in
  Unix.putenv Faultinject.env_var
    (Printf.sprintf "worker_task=%s:%s" victim action);
  Fun.protect
    ~finally:(fun () -> Unix.putenv Faultinject.env_var "")
    (fun () ->
      let reference = supervised_render ~jobs:1 ?heartbeat plan in
      let faulted =
        List.filter (String.starts_with ~prefix:"FAULT:") reference
      in
      Alcotest.(check int) "exactly the victim faults" 1 (List.length faulted);
      Alcotest.(check bool)
        (Printf.sprintf "fault names %S" expect)
        true
        (Astring.String.is_infix ~affix:expect (List.hd faulted));
      List.iter
        (fun jobs ->
          Alcotest.(check (list string))
            (Printf.sprintf "jobs=%d equals sequential under injected %s" jobs
               action)
            reference
            (supervised_render ~jobs ?heartbeat plan))
        [ 2; 4 ])

let equivalence_under_kills () =
  equivalence_under_faults ~action:"kill" ~expect:"quarantined" ()

let equivalence_under_wedges () =
  equivalence_under_faults ~action:"wedge" ~expect:"heartbeat" ~heartbeat:0.6 ()

(* -- megacorpus ---------------------------------------------------------- *)

let megacorpus_is_deterministic () =
  let spec = { Megacorpus.default with Megacorpus.mc_apps = 40; mc_seed = 5 } in
  let p1 = Megacorpus.plan spec and p2 = Megacorpus.plan spec in
  Alcotest.(check bool) "plans identical" true (p1 = p2);
  Array.iteri
    (fun i a ->
      if i < 4 then
        Alcotest.(check string)
          (a.Megacorpus.mc_name ^ ": source deterministic")
          (Megacorpus.source a) (Megacorpus.source p2.(i)))
    p1

let megacorpus_names_unique () =
  let plan = Megacorpus.plan { Megacorpus.default with Megacorpus.mc_apps = 500 } in
  let seen = Hashtbl.create 512 in
  Array.iter (fun a -> Hashtbl.replace seen a.Megacorpus.mc_name ()) plan;
  Alcotest.(check int) "500 distinct names" 500 (Hashtbl.length seen)

let megacorpus_respects_adversarial_fraction () =
  let count frac =
    let plan =
      Megacorpus.plan
        { Megacorpus.default with Megacorpus.mc_apps = 2000; mc_adversarial = frac }
    in
    Array.fold_left
      (fun n a ->
        match a.Megacorpus.mc_kind with
        | Megacorpus.Adversarial _ -> n + 1
        | Megacorpus.Normal _ -> n)
      0 plan
  in
  Alcotest.(check int) "fraction 0 means none" 0 (count 0.0);
  let n = count 0.1 in
  Alcotest.(check bool)
    (Printf.sprintf "fraction 0.1 over 2000 apps lands near 200 (got %d)" n)
    true
    (n > 120 && n < 280)

(* Normal apps land near their Table 1-drawn LOC target; adversarial
   sizes stay in the heavy-tailed 8..30 envelope. *)
let megacorpus_size_envelope () =
  let plan =
    Megacorpus.plan
      { Megacorpus.default with Megacorpus.mc_apps = 30; mc_adversarial = 0.2; mc_seed = 3 }
  in
  Array.iter
    (fun a ->
      match a.Megacorpus.mc_kind with
      | Megacorpus.Normal target ->
          if a.Megacorpus.mc_index < 12 then begin
            let loc = Pipeline.count_loc (Megacorpus.source a) in
            let dev = abs (loc - target) in
            Alcotest.(check bool)
              (Printf.sprintf "%s: loc %d within 15%% of target %d"
                 a.Megacorpus.mc_name loc target)
              true
              (float_of_int dev <= 0.15 *. float_of_int target +. 12.0)
          end
      | Megacorpus.Adversarial s ->
          Alcotest.(check bool)
            (Printf.sprintf "adversarial size %d in 8..30" s)
            true (s >= 8 && s <= 30))
    plan

(* -- cache eviction under pressure --------------------------------------- *)

let count_entries dir =
  Array.fold_left
    (fun n f -> if Filename.check_suffix f ".cache" then n + 1 else n)
    0 (Sys.readdir dir)

(* A 500-app corpus through a cache capped far below its footprint:
   the cap holds mid-run (modulo in-flight stores that haven't run
   their eviction yet), eviction provably happens, survivors still hit
   with correct bytes, evicted entries recompute identically, and no
   .tmp.* orphans remain. *)
let eviction_under_pressure () =
  with_dir (fun dir ->
      let plan =
        Megacorpus.plan
          {
            Megacorpus.mc_seed = 7;
            mc_apps = 500;
            mc_adversarial = 0.0;
            mc_loc_scale = 0.1;
          }
      in
      let cap = 64 * 1024 in
      let jobs = 4 in
      (* a store runs eviction only after it lands: up to [jobs] stores
         can be in flight past the cap at once, never more *)
      let slack = jobs * 16 * 1024 in
      let over = ref 0 in
      ignore (Lazy.force Nadroid_lang.Builtins.program);
      Parallel.stream ~jobs ~n:(Array.length plan)
        (fun i ->
          let a = plan.(i) in
          fst
            (Cache.analyze ~config ~max_bytes:cap ~dir
               ~file:a.Megacorpus.mc_name (Megacorpus.source a)))
        (fun _ r ->
          match r with
          | Ok _ -> if Cache.dir_bytes ~dir > cap + slack then incr over
          | Error e -> raise e);
      Alcotest.(check int) "cap holds mid-run (beyond in-flight slack)" 0 !over;
      Alcotest.(check bool) "final size is under the cap" true
        (Cache.dir_bytes ~dir <= cap);
      Alcotest.(check bool) "eviction actually happened" true
        (count_entries dir < Array.length plan);
      Alcotest.(check bool) "something survived to hit" true (count_entries dir > 0);
      (* no .tmp orphans *)
      Array.iter
        (fun f ->
          if String.length f >= 5 && String.sub f 0 5 = ".tmp." then
            Alcotest.failf "orphaned temp file %s" f)
        (Sys.readdir dir);
      (* classify a survivor and an evictee; check both still answer
         byte-correctly *)
      let fresh (a : Megacorpus.app) =
        Cache.entry_of_result
          (Pipeline.analyze ~config ~file:a.Megacorpus.mc_name (Megacorpus.source a))
      in
      let entry_equal msg (a : Cache.entry) (b : Cache.entry) =
        Alcotest.(check int) (msg ^ ": potential") a.Cache.e_potential b.Cache.e_potential;
        Alcotest.(check string) (msg ^ ": report") a.Cache.e_report b.Cache.e_report
      in
      let survivor = ref None and evictee = ref None in
      Array.iter
        (fun (a : Megacorpus.app) ->
          let key =
            Cache.address ~config ~file:a.Megacorpus.mc_name (Megacorpus.source a)
          in
          match Cache.find ~dir key with
          | Some e, Cache.Hit -> if !survivor = None then survivor := Some (a, e)
          | None, Cache.Miss -> if !evictee = None then evictee := Some a
          | _ -> ())
        plan;
      (match !survivor with
      | None -> Alcotest.fail "no surviving entry found"
      | Some (a, e) -> entry_equal "survivor hit is correct after eviction" (fresh a) e);
      match !evictee with
      | None -> Alcotest.fail "no evicted entry found"
      | Some a -> (
          match
            Cache.analyze ~config ~max_bytes:cap ~dir ~file:a.Megacorpus.mc_name
              (Megacorpus.source a)
          with
          | e, Cache.Miss -> entry_equal "evictee recomputes identically" (fresh a) e
          | _, _ -> Alcotest.fail "evicted entry must re-analyze as a miss"))

let suite =
  [
    ( "fleet-stream",
      [
        Alcotest.test_case "in-order emission, crash-isolated slots" `Quick
          stream_in_order_and_isolated;
        Alcotest.test_case "admission window bounds in-flight distance" `Quick
          stream_window_bounds_inflight;
        Alcotest.test_case "emit exception stops the stream and re-raises" `Quick
          stream_emit_exception_propagates;
        Alcotest.test_case "stealing beats the static split's 1.0 s floor on stragglers" `Quick
          steal_beats_static_on_stragglers;
      ] );
    ( "fleet-sched-equiv",
      [
        QCheck_alcotest.to_alcotest scheduler_equivalence;
        Alcotest.test_case "byte-identical under injected worker kills" `Quick
          equivalence_under_kills;
        Alcotest.test_case "byte-identical under injected worker wedges" `Quick
          equivalence_under_wedges;
      ] );
    ( "fleet-megacorpus",
      [
        Alcotest.test_case "plan and sources are pure functions of the spec" `Quick
          megacorpus_is_deterministic;
        Alcotest.test_case "names are unique" `Quick megacorpus_names_unique;
        Alcotest.test_case "adversarial fraction is respected" `Quick
          megacorpus_respects_adversarial_fraction;
        Alcotest.test_case "sizes track their targets and envelopes" `Quick
          megacorpus_size_envelope;
      ] );
    ( "fleet-cache-pressure",
      [
        Alcotest.test_case "500-app corpus under a tight --cache-max-bytes" `Quick
          eviction_under_pressure;
      ] );
  ]
