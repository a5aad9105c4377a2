(* The nAdroid benchmark: four workloads, measured end to end from
   outside the analysing processes, or traced layer by layer.

     nbench run --workload W --seed N --seconds S --trace 0|1
                --nadroid PATH --tmp DIR --rev REV

   is what perfbench/run.py runs after building; [nbench batch ...] is
   the child batch runner it spawns (see child.ml). Workloads:

   - corpus-seq: the 27 paper apps as repeated cold batches at jobs 1;
   - fleet-par: a seeded Megacorpus plan through Parallel.stream, jobs 2;
   - serve-cached: a fresh daemon per session, two closed-loop
     connections re-requesting the paper apps, ~30% as new revisions;
   - batch-supervised: the fleet-par plan through two supervised worker
     processes with a journal record per app.

   Untraced runs print setup_s, apps_per_s, verdict_p50_ms,
   verdict_p90_ms and peak_rss_mb; traced runs print the per-layer
   metrics. Every verdict is checked byte for byte against the
   uncached, sequential Pipeline.analyze of the same name and source
   (computed before the clock starts), and the paper apps' references
   against test/golden. The last stdout line is the JSON result; the
   exit code is 1 when any verdict is wrong. *)

module Pipeline = Nadroid_core.Pipeline
module Cache = Nadroid_core.Cache
module Fault = Nadroid_core.Fault
module Journal = Nadroid_core.Journal
module Parallel = Nadroid_core.Parallel
module Supervise = Nadroid_core.Supervise
module Protocol = Nadroid_serve.Protocol
module Client = Nadroid_serve.Client
module Corpus = Nadroid_corpus.Corpus
module Golden = Nadroid_corpus.Golden
module Clock = Nadroid_clock.Clock

let config = Pipeline.default_config

let ms s = s *. 1000.0

(* -- verdict accounting ---------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally = { attempted = 0; failed = 0; notes = [] }

let note fmt =
  Printf.ksprintf
    (fun s -> if List.length tally.notes < 20 then tally.notes <- s :: tally.notes)
    fmt

(* One verdict delivered as [got] where [want] was expected. *)
let check ~what ~want got =
  tally.attempted <- tally.attempted + 1;
  if not (String.equal want got) then begin
    tally.failed <- tally.failed + 1;
    note "%s: output differs from the sequential uncached pipeline" what
  end

(* -- the oracle ------------------------------------------------------------ *)

(* Reference entries of the uncached, sequential Pipeline.analyze, keyed
   by (name, source). *)
let references (pairs : (string * string) list) =
  let refs = Hashtbl.create 256 in
  List.iter
    (fun (name, source) ->
      if not (Hashtbl.mem refs (name, source)) then
        match Pipeline.analyze ~config ~file:name source with
        | t -> Hashtbl.replace refs (name, source) (Cache.entry_of_result t)
        | exception e ->
            failwith
              (Printf.sprintf "reference analysis of %s failed: %s" name
                 (Fault.to_string (Fault.of_exn e))))
    pairs;
  refs

let ref_json refs name source = Protocol.entry_json ~name (Hashtbl.find refs (name, source))

(* The paper apps' references must match the committed golden reports. *)
let check_golden refs =
  List.iter
    (fun (app : Corpus.app) ->
      let name = app.Corpus.name in
      match Hashtbl.find_opt refs (name, app.Corpus.source) with
      | None -> ()
      | Some e -> (
          let path = Filename.concat "test/golden" (Golden.filename app) in
          match Child.read_file path with
          | golden when String.equal golden (Golden.canonical_of_entry app e) -> ()
          | _ ->
              tally.failed <- tally.failed + 1;
              note "%s: reference differs from %s" name path
          | exception Sys_error _ ->
              tally.failed <- tally.failed + 1;
              note "%s: cannot read %s" name path))
    (Lazy.force Corpus.all)

(* -- timed loop ------------------------------------------------------------- *)

(* Call [f 0], [f 1], ... until [seconds] have passed since the first
   call; at least once. *)
let repeat ~seconds f =
  let t_end = Clock.now () +. seconds in
  let rec go k acc =
    let acc = f k :: acc in
    if Clock.now () < t_end then go (k + 1) acc else List.rev acc
  in
  go 0 []

let ensure_dir dir = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* -- metrics ---------------------------------------------------------------- *)

type metric = { m_name : string; m_unit : string; m_value : float; m_samples : int }

let metric ?(samples = 1) m_name m_unit m_value =
  { m_name; m_unit; m_value; m_samples = samples }

(* -- batch workloads (corpus-seq, fleet-par, batch-supervised) -------------- *)

(* One cold batch, or one daemon session: set-up, then identical work. *)
type trial = {
  setup : float;  (** launch to ready for the first input *)
  verdicts : int;
  wall : float;  (** first input to last verdict *)
  latencies : float list;  (** per verdict, seconds *)
  hwm_kb : int;  (** VmHWM of the analysing process(es) *)
}

(* The end-to-end metrics of a run's trials. The host's CPU speed swings
   by up to 2x, per CPU, for a second to tens of seconds at a time, and
   the trials of a run repeat the same work, so the analysis timings come
   from the run's fastest quarter of trials: the program's cost on an
   unloaded CPU. Those trials are ranked by their analysis time, which
   says nothing about how fast their set-up ran, so set-up time and
   memory are medians over all trials. *)
let end_to_end trials =
  let per_verdict t = t.wall /. float_of_int (max 1 t.verdicts) in
  let ranked = List.sort (fun a b -> compare (per_verdict a) (per_verdict b)) trials in
  let fast = List.filteri (fun i _ -> i < (List.length trials + 3) / 4) ranked in
  let lat = List.concat_map (fun t -> t.latencies) fast in
  let n = List.length trials and nl = List.length lat in
  [
    metric ~samples:n "setup_s" "s" (Bstats.median (List.map (fun t -> t.setup) trials));
    metric ~samples:nl "apps_per_s" "1/s"
      (Bstats.ratio
         (float_of_int (List.fold_left (fun a t -> a + t.verdicts) 0 fast))
         (Bstats.sum (List.map (fun t -> t.wall) fast)));
    metric ~samples:nl "verdict_p50_ms" "ms" (ms (Bstats.smooth_quantile 0.5 lat));
    metric ~samples:nl "verdict_p90_ms" "ms" (ms (Bstats.smooth_quantile 0.9 lat));
    metric ~samples:n "peak_rss_mb" "MB"
      (Bstats.median (List.map (fun t -> float_of_int t.hwm_kb /. 1024.0) trials));
  ]

let materialize dir (apps : Inputs.app array) =
  ensure_dir dir;
  Array.iter
    (fun (a : Inputs.app) ->
      let oc = open_out_bin (Filename.concat dir a.Inputs.name) in
      output_string oc a.Inputs.source;
      close_out oc)
    apps

(* The batch runner's file list, in batch order. *)
let write_list dir k (apps : Inputs.app array) =
  let list = Filename.concat dir (Printf.sprintf "files%d" k) in
  let oc = open_out_bin list in
  Array.iter (fun (a : Inputs.app) -> output_string oc (a.Inputs.name ^ "\n")) apps;
  close_out oc;
  list

(* The batch runner changes directory, so the paths it is given must be
   absolute. *)
let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let floats line = List.map float_of_string (String.split_on_char ' ' line)

let run_batch ~tmp ~jobs ~mode ~inputs ~refs ~plan k =
  let apps : Inputs.app array = plan k in
  let list = write_list tmp k apps in
  let out = Filename.concat tmp (Printf.sprintf "out%d" k) in
  let args =
    [
      "batch"; "--mode"; mode; "--jobs"; string_of_int jobs; "--cwd"; absolute inputs; "--files";
      absolute list; "--out"; absolute out;
    ]
  in
  let expected =
    Array.map (fun (a : Inputs.app) -> (a.Inputs.name, ref_json refs a.Inputs.name a.Inputs.source)) apps
  in
  let t0 = Clock.now () in
  let pid, r = Proc.spawn Sys.executable_name args in
  let r = Proc.reader (Option.get r) in
  if Proc.expect_line r <> "ready" then failwith "batch runner: no ready signal";
  let setup = Clock.now () -. t0 in
  let fin = Proc.expect_line r in
  Unix.close r.Proc.fd;
  Proc.wait pid;
  let t_go, t_done, hwm =
    Scanf.sscanf fin "done %f %f %d" (fun a b c -> (a, b, c))
  in
  let lines = Child.lines_of_file out in
  let times = List.map floats (Child.lines_of_file (out ^ ".times")) in
  if List.length lines <> Array.length expected then begin
    tally.failed <- tally.failed + 1;
    note "batch %d emitted %d of %d verdicts" k (List.length lines) (Array.length expected)
  end;
  List.iteri (fun i got -> check ~what:(fst expected.(i)) ~want:(snd expected.(i)) got) lines;
  List.iter rm_rf [ list; out; out ^ ".times"; Child.journal_path out ];
  let latencies =
    List.map (function [ s; e; _ ] -> e -. s | _ -> failwith "bad times line") times
  in
  { setup; verdicts = List.length lines; wall = t_done -. t_go; latencies; hwm_kb = hwm }

(* Repeated cold batches of the batch runner in [mode] (see child.ml);
   batch [k] analyses [plan k], always the same set of apps. *)
let batch_workload ~tmp ~seconds ~jobs ~mode (plan : int -> Inputs.app array) =
  let inputs = Filename.concat tmp "in" in
  let apps = plan 0 in
  materialize inputs apps;
  let refs = references (Array.to_list (Array.map (fun a -> (a.Inputs.name, a.Inputs.source)) apps)) in
  check_golden refs;
  end_to_end (repeat ~seconds (run_batch ~tmp ~jobs ~mode ~inputs ~refs ~plan))

(* -- serve-cached ------------------------------------------------------------ *)

let serve_pairs (plan : Inputs.serve_plan) =
  Array.to_list (Array.concat (Array.to_list plan.Inputs.warm @ Array.to_list plan.Inputs.timed))
  |> List.map (fun (r : Inputs.request) -> (r.Inputs.r_name, r.Inputs.r_source))

let expected_reply refs (r : Inputs.request) =
  Protocol.batch_json ~files:1 ~apps:[ ref_json refs r.Inputs.r_name r.Inputs.r_source ] ~faults:[]

(* The cache cap: twice what the paper apps' current revisions take, so
   superseded revisions are evicted while current ones stay. *)
let cache_cap ~tmp refs =
  let dir = Filename.concat tmp "cap" in
  Array.iter
    (fun (a : Inputs.app) ->
      Cache.store ~dir (Cache.key ~config a.Inputs.source)
        (Hashtbl.find refs (a.Inputs.name, a.Inputs.source)))
    (Inputs.paper ());
  let bytes = Cache.dir_bytes ~dir in
  rm_rf dir;
  2 * bytes

(* The expected reply to every request of [seqs], rendered before any
   clock starts: looking a reference up and rendering it would otherwise
   sit between a reply and the next request of its connection. *)
let expected_replies refs seqs = Array.map (Array.map (expected_reply refs)) seqs

let serve_session ~nadroid ~tmp ~cap ~warm_want ~timed_want (plan : Inputs.serve_plan) k =
  let dir = Filename.concat tmp (Printf.sprintf "s%d" k) in
  let d = Load.start ~nadroid ~dir ~cap ~connections:Inputs.jobs in
  let verify seqs want c i line = check ~what:seqs.(c).(i).Inputs.r_name ~want:want.(c).(i) line in
  Load.closed_loop d plan.Inputs.warm (fun c i _ _ line -> verify plan.Inputs.warm warm_want c i line);
  let lat = ref [] and last = ref 0.0 in
  let first = Clock.now () in
  Load.closed_loop d plan.Inputs.timed (fun c i sent received line ->
      lat := (received -. sent) :: !lat;
      last := received;
      verify plan.Inputs.timed timed_want c i line);
  let hwm = Child.vm_hwm_kb d.Load.pid in
  Load.stop d;
  rm_rf dir;
  {
    setup = d.Load.setup;
    verdicts = List.length !lat;
    wall = !last -. first;
    latencies = !lat;
    hwm_kb = hwm;
  }

let serve_workload ~nadroid ~tmp ~seconds ~seed =
  let plan = Inputs.serve ~seed in
  let refs = references (serve_pairs plan) in
  check_golden refs;
  let cap = cache_cap ~tmp refs in
  let warm_want = expected_replies refs plan.Inputs.warm in
  let timed_want = expected_replies refs plan.Inputs.timed in
  end_to_end (repeat ~seconds (serve_session ~nadroid ~tmp ~cap ~warm_want ~timed_want plan))

(* -- traced runs ------------------------------------------------------------- *)

(* What the traced passes of one run add up to. *)
type trace_acc = {
  mutable verdicts : int;  (** verdicts of the traced passes *)
  mutable traced_wall : float;
  mutable untraced_wall : float;
  mutable counts : Tracer.counts;
  mutable busy : float;  (** stream task time *)
  mutable slots : float;  (** jobs x stream wall *)
  mutable emit_waits : float list;
  mutable minor : int;
  mutable major : int;
  mutable requests : int;
  mutable hits : int;
  mutable evictions : int;
  mutable hit_rtts : float list;
  mutable miss_rtts : float list;
  mutable worker_walls : float list;  (** the workers' own m_wall *)
  mutable respawns : int;
  mutable journal_bytes : int;
  mutable spans : Tracer.span list;
}

let acc =
  {
    verdicts = 0;
    traced_wall = 0.0;
    untraced_wall = 0.0;
    counts = Tracer.zero_counts;
    busy = 0.0;
    slots = 0.0;
    emit_waits = [];
    minor = 0;
    major = 0;
    requests = 0;
    hits = 0;
    evictions = 0;
    hit_rtts = [];
    miss_rtts = [];
    worker_walls = [];
    respawns = 0;
    journal_bytes = 0;
    spans = [];
  }

let next_verdict = Atomic.make 0

let fresh_verdict () = Atomic.fetch_and_add next_verdict 1

let collect_spans () = acc.spans <- List.rev_append (Tracer.drain ()) acc.spans

(* Every span of the run, one tab-separated line each: verdict, id,
   parent, name, start and end in microseconds from the first span,
   words allocated. *)
let write_spans path =
  let t0 = List.fold_left (fun m (s : Tracer.span) -> Float.min m s.Tracer.t0) infinity acc.spans in
  let oc = open_out_bin path in
  output_string oc "verdict\tid\tparent\tname\tstart_us\tend_us\talloc_w\n";
  List.iter
    (fun (s : Tracer.span) ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.3f\t%.3f\t%.0f\n" s.Tracer.verdict s.Tracer.id
        s.Tracer.parent s.Tracer.name
        ((s.Tracer.t0 -. t0) *. 1e6)
        ((s.Tracer.t1 -. t0) *. 1e6)
        s.Tracer.alloc_w)
    (List.sort (fun (a : Tracer.span) b -> compare a.Tracer.id b.Tracer.id) acc.spans);
  close_out oc

(* [f ()], adding the GC collections it causes to the run's counts. *)
let count_gc f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  acc.minor <- acc.minor + (g1.Gc.minor_collections - g0.Gc.minor_collections);
  acc.major <- acc.major + (g1.Gc.major_collections - g0.Gc.major_collections);
  r

(* One pass of [task] over [n] verdicts through Parallel.stream, as the
   batch runner drives it; returns the pass's wall time. With [systems]
   the scheduler's busy time, emission waits and the GC are counted. *)
let stream_pass ~jobs ~n ~systems task on_result =
  let busy = Array.make n 0.0 and ends = Array.make n 0.0 in
  let pass () =
    let t0 = Clock.now () in
    Parallel.stream ~jobs ~n
      (fun i ->
        let s = Clock.now () in
        let r = task i in
        let e = Clock.now () in
        busy.(i) <- e -. s;
        ends.(i) <- e;
        r)
      (fun i r ->
        if systems then acc.emit_waits <- (Clock.now () -. ends.(i)) :: acc.emit_waits;
        match r with
        | Ok v -> on_result i v
        | Error e -> check ~what:"verdict" ~want:"a verdict" (Printexc.to_string e));
    Clock.now () -. t0
  in
  if not systems then pass ()
  else begin
    let wall = count_gc pass in
    acc.busy <- acc.busy +. Array.fold_left ( +. ) 0.0 busy;
    acc.slots <- acc.slots +. (float_of_int jobs *. wall);
    wall
  end

(* The batch verdicts analysed layer by layer ([traced]) or through
   Pipeline.analyze, each rendered by Protocol.entry_json; with [shared]
   the pass shares one fresh interner, as the corpus batch runner does. *)
let analysis_pass ~base ~shared ~jobs ~traced ~systems (apps : Inputs.app array) refs =
  let interner = if shared then Some (Pipeline.create_interner ()) else None in
  let task i =
    let a = apps.(i) in
    if traced then
      let v = fresh_verdict () in
      (* a workload's "verdict" spans are those of its systems pass *)
      Tracer.span ~verdict:v (if systems then "verdict" else "analysis") (fun root ->
          let e, c =
            Tracer.compose ?interner ~base ~verdict:v ~parent:root ~file:a.Inputs.name a.Inputs.source
          in
          let json =
            Tracer.span ~verdict:v ~parent:root "protocol.render" (fun _ ->
                Protocol.entry_json ~name:a.Inputs.name e)
          in
          (json, c))
    else
      ( Protocol.entry_json ~name:a.Inputs.name
          (Cache.entry_of_result
             (Pipeline.analyze ~config ?interner ~file:a.Inputs.name a.Inputs.source)),
        Tracer.zero_counts )
  in
  let wall =
    stream_pass ~jobs ~n:(Array.length apps) ~systems:(traced && systems) task (fun i (json, c) ->
        let a = apps.(i) in
        check ~what:a.Inputs.name ~want:(ref_json refs a.Inputs.name a.Inputs.source) json;
        if traced then acc.counts <- Tracer.add_counts acc.counts c)
  in
  if traced then begin
    acc.verdicts <- acc.verdicts + Array.length apps;
    acc.traced_wall <- acc.traced_wall +. wall
  end
  else acc.untraced_wall <- acc.untraced_wall +. wall

(* batch-supervised: the batch runner's supervised pass, with spans
   around Supervise.analyze and Journal.append. *)
let supervised_pass ~tmp ~sp (apps : Inputs.app array) refs k =
  let path = Filename.concat tmp (Printf.sprintf "journal%d" k) in
  let j, _ = Journal.open_ ~path ~resume:false in
  let task i =
    let a = apps.(i) in
    let v = fresh_verdict () in
    Tracer.span ~verdict:v "verdict" (fun root ->
        let key = Cache.key ~config a.Inputs.source in
        let r =
          Tracer.span ~verdict:v ~parent:root "supervise" (fun _ ->
              Supervise.analyze sp ~config ~file:a.Inputs.name a.Inputs.source)
        in
        Tracer.span ~verdict:v ~parent:root "journal" (fun _ ->
            Journal.append j { Journal.j_name = a.Inputs.name; j_key = key; j_result = r });
        r)
  in
  ignore
    (stream_pass ~jobs:Inputs.jobs ~n:(Array.length apps) ~systems:true task (fun i r ->
         let a = apps.(i) in
         let want = ref_json refs a.Inputs.name a.Inputs.source in
         match r with
         | Ok e ->
             acc.worker_walls <- e.Cache.e_metrics.Pipeline.m_wall :: acc.worker_walls;
             check ~what:a.Inputs.name ~want (Protocol.entry_json ~name:a.Inputs.name e)
         | Error f -> check ~what:a.Inputs.name ~want (Fault.to_string f)));
  Journal.close j;
  acc.journal_bytes <- acc.journal_bytes + (Unix.stat path).Unix.st_size;
  rm_rf path

(* serve-cached: the request plan replayed in-process the way the
   daemon's worker serves a request: Protocol.parse_request, the cache,
   the pipeline on a miss, Protocol.analyze_response. Returns whether
   each request hit the cache. *)
let replay_pass ~base ~tmp ~cap ~traced requests refs k =
  let dir = Filename.concat tmp (Printf.sprintf "replay%d" k) in
  let hit = Array.make (Array.length requests) false in
  let parse line =
    match Protocol.parse_request line with
    | Ok (Protocol.Analyze a) -> (Option.get a.Protocol.a_file, Option.get a.Protocol.a_source)
    | Ok _ | Error _ -> failwith "replay: not an analyze request"
  in
  let serve_one i (r : Inputs.request) =
    if not traced then begin
      let name, src = parse r.Inputs.r_line in
      let e, outcome = Cache.analyze ~config ~max_bytes:cap ~dir ~file:name src in
      hit.(i) <- outcome = Cache.Hit;
      Protocol.analyze_response ~name (Ok e)
    end
    else
      let v = fresh_verdict () in
      Tracer.span ~verdict:v "verdict" (fun root ->
          let sp name f = Tracer.span ~verdict:v ~parent:root name (fun _ -> f ()) in
          let name, src = sp "protocol.parse" (fun () -> parse r.Inputs.r_line) in
          let key = Cache.key ~config src in
          let e =
            match sp "cache.find" (fun () -> fst (Cache.find ~dir key)) with
            | Some e ->
                hit.(i) <- true;
                e
            | None ->
                let e, c = Tracer.compose ~base ~verdict:v ~parent:root ~file:name src in
                acc.counts <- Tracer.add_counts acc.counts c;
                sp "cache.store" (fun () -> Cache.store ~dir key e);
                acc.evictions <-
                  acc.evictions + sp "cache.evict" (fun () -> Cache.evict ~dir ~max_bytes:cap);
                e
          in
          sp "protocol.render" (fun () -> Protocol.analyze_response ~name (Ok e)))
  in
  let pass () =
    let t0 = Clock.now () in
    Array.iteri
      (fun i (r : Inputs.request) ->
        check ~what:r.Inputs.r_name ~want:(expected_reply refs r) (serve_one i r))
      requests;
    Clock.now () -. t0
  in
  let wall = if traced then count_gc pass else pass () in
  rm_rf dir;
  if traced then begin
    acc.verdicts <- acc.verdicts + Array.length requests;
    acc.requests <- acc.requests + Array.length requests;
    acc.hits <- acc.hits + Array.fold_left (fun n h -> if h then n + 1 else n) 0 hit;
    acc.traced_wall <- acc.traced_wall +. wall
  end
  else acc.untraced_wall <- acc.untraced_wall +. wall;
  hit

(* The same plan through a fresh daemon on one connection
   (Client.request), timing hit and miss round trips apart. *)
let daemon_pass ~nadroid ~tmp ~cap requests hit refs k =
  let dir = Filename.concat tmp (Printf.sprintf "d%d" k) in
  let d = Load.start ~nadroid ~dir ~cap ~connections:1 in
  Unix.close d.Load.conns.(0).Proc.fd;
  let c = Client.connect ~timeout:10.0 (`Unix d.Load.sock) in
  Array.iteri
    (fun i (r : Inputs.request) ->
      let t0 = Clock.now () in
      let line = Client.request c r.Inputs.r_line in
      let rtt = Clock.now () -. t0 in
      if hit.(i) then acc.hit_rtts <- rtt :: acc.hit_rtts
      else acc.miss_rtts <- rtt :: acc.miss_rtts;
      check ~what:r.Inputs.r_name ~want:(expected_reply refs r) line)
    requests;
  ignore (Client.request c Protocol.shutdown_request);
  Client.close c;
  Proc.wait d.Load.pid;
  rm_rf dir

let trace_metrics () =
  let n = acc.verdicts in
  let per_verdict x = Bstats.ratio x (float_of_int n) in
  let costs = Tracer.self_costs acc.spans in
  let self name =
    List.fold_left
      (fun (t, a) (n, dt, da) -> if n = name then (t +. dt, a +. da) else (t, a))
      (0.0, 0.0) costs
  in
  let self_ms name = per_verdict (ms (fst (self name))) in
  let mean xs = Bstats.ratio (Bstats.sum xs) (float_of_int (List.length xs)) in
  let durations name =
    List.filter_map
      (fun (s : Tracer.span) ->
        if s.Tracer.name = name then Some (s.Tracer.t1 -. s.Tracer.t0) else None)
      acc.spans
  in
  let rtts = durations "supervise" in
  let promoted =
    List.fold_left
      (fun a (s : Tracer.span) -> if s.Tracer.name = "verdict" then a +. s.Tracer.promoted_w else a)
      0.0 acc.spans
  in
  let count name v = metric ~samples:n name "count" (per_verdict (float_of_int v)) in
  let c = acc.counts in
  List.concat_map
    (fun l ->
      [
        metric ~samples:n (l ^ ".self_ms") "ms" (self_ms l);
        metric ~samples:n (l ^ ".alloc_kw") "kw" (per_verdict (snd (self l) /. 1000.0));
      ])
    Tracer.layers
  @ [
      count "pta.visits" c.Tracer.pta_visits;
      count "pta.steps" c.Tracer.pta_steps;
      count "detect.candidates" c.Tracer.candidates;
      count "filters.kept_sound" c.Tracer.kept_sound;
      count "filters.kept_unsound" c.Tracer.kept_unsound;
      metric ~samples:n "report.bytes" "B" (per_verdict (float_of_int c.Tracer.report_bytes));
      metric ~samples:n "cache.find_ms" "ms" (self_ms "cache.find");
      metric ~samples:n "cache.store_ms" "ms" (self_ms "cache.store");
      metric ~samples:n "cache.evict_ms" "ms" (self_ms "cache.evict");
      metric ~samples:acc.requests "cache.hit_ratio" "ratio"
        (Bstats.ratio (float_of_int acc.hits) (float_of_int acc.requests));
      count "cache.evictions" acc.evictions;
      metric ~samples:n "protocol.parse_ms" "ms" (self_ms "protocol.parse");
      metric ~samples:n "protocol.render_ms" "ms" (self_ms "protocol.render");
      metric ~samples:(List.length acc.hit_rtts) "serve.hit_rtt_ms" "ms"
        (ms (Bstats.median acc.hit_rtts));
      metric ~samples:(List.length acc.miss_rtts) "serve.miss_rtt_ms" "ms"
        (ms (Bstats.median acc.miss_rtts));
      metric ~samples:n "parallel.busy_ratio" "ratio" (Bstats.ratio acc.busy acc.slots);
      metric ~samples:(List.length acc.emit_waits) "parallel.emit_wait_ms" "ms"
        (ms (mean acc.emit_waits));
      count "gc.minor_collections" acc.minor;
      count "gc.major_collections" acc.major;
      metric ~samples:n "gc.promoted_kw" "kw" (per_verdict (promoted /. 1000.0));
      metric ~samples:(List.length rtts) "supervise.rtt_ms" "ms" (ms (mean rtts));
      metric ~samples:(List.length rtts) "supervise.ipc_ms" "ms"
        (if rtts = [] then 0.0 else ms (mean rtts -. mean acc.worker_walls));
      metric "supervise.respawns" "count" (float_of_int acc.respawns);
      metric ~samples:n "journal.append_ms" "ms" (ms (mean (durations "journal")));
      metric ~samples:n "journal.bytes" "B" (per_verdict (float_of_int acc.journal_bytes));
      metric ~samples:n "trace.apps_per_s" "1/s" (Bstats.ratio (float_of_int n) acc.traced_wall);
      metric "trace.overhead_ratio" "ratio" (Bstats.ratio acc.traced_wall acc.untraced_wall);
    ]

(* A traced run: rounds of a traced pass and an untraced pass of the
   same verdicts (their wall times give the tracing overhead), plus the
   workload's own systems layers, until [seconds] have passed. *)
let traced_workload ~nadroid ~tmp ~seconds ~seed workload =
  (* the entry the traced composition fills in *)
  let base = Cache.entry_of_result (Pipeline.analyze ~config ~file:"probe" Child.probe_source) in
  match workload with
  | "serve-cached" ->
      let plan = Inputs.serve ~seed in
      let refs = references (serve_pairs plan) in
      check_golden refs;
      let cap = cache_cap ~tmp refs in
      (* the two connections' sequences interleaved, warm-up first *)
      let interleave seqs =
        let n = Array.fold_left (fun m s -> max m (Array.length s)) 0 seqs in
        List.concat
          (List.init n (fun i ->
               List.filter_map
                 (fun s -> if i < Array.length s then Some s.(i) else None)
                 (Array.to_list seqs)))
      in
      let requests = Array.of_list (interleave plan.Inputs.warm @ interleave plan.Inputs.timed) in
      ignore
        (repeat ~seconds (fun k ->
             let hit = replay_pass ~base ~tmp ~cap ~traced:true requests refs k in
             collect_spans ();
             ignore (replay_pass ~base ~tmp ~cap ~traced:false requests refs k);
             daemon_pass ~nadroid ~tmp ~cap requests hit refs k));
      trace_metrics ()
  | _ ->
      let plan, jobs =
        if workload = "corpus-seq" then ((fun batch -> Inputs.corpus ~seed ~batch), 1)
        else
          let apps = Inputs.fleet ~seed in
          ((fun _ -> apps), Inputs.jobs)
      in
      (* only the corpus batch runner shares an interner (see child.ml) *)
      let shared = workload = "corpus-seq" in
      let refs =
        references (Array.to_list (Array.map (fun a -> (a.Inputs.name, a.Inputs.source)) (plan 0)))
      in
      check_golden refs;
      ignore (Lazy.force Nadroid_lang.Builtins.program);
      let sp = if workload = "batch-supervised" then Some (Supervise.create ~jobs ()) else None in
      let me = Unix.getpid () in
      let workers = Child.children_of me in
      ignore
        (repeat ~seconds (fun k ->
             let apps = plan k in
             Option.iter (fun sp -> supervised_pass ~tmp ~sp apps refs k) sp;
             (* the supervised pass, when there is one, is where this
                workload's scheduler and GC costs are *)
             analysis_pass ~base ~shared ~jobs ~traced:true ~systems:(sp = None) apps refs;
             collect_spans ();
             analysis_pass ~base ~shared ~jobs ~traced:false ~systems:false apps refs));
      Option.iter
        (fun sp ->
          acc.respawns <-
            List.length (List.filter (fun p -> not (List.mem p workers)) (Child.children_of me));
          Supervise.shutdown sp)
        sp;
      trace_metrics ()

(* -- output ------------------------------------------------------------------ *)

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else failwith "metric is not a finite number"

let print_result ~descriptor metrics =
  let correct = tally.failed = 0 in
  Printf.printf "%-26s %16s  %-6s %8s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun m -> Printf.printf "%-26s %16.6f  %-6s %8d\n" m.m_name m.m_value m.m_unit m.m_samples)
    metrics;
  Printf.printf "verdicts attempted %d, failed %d\n" tally.attempted tally.failed;
  List.iter (fun n -> Printf.printf "FAIL %s\n" n) (List.rev tally.notes);
  let str = Protocol.escape_string in
  Printf.printf "{\"descriptor\":{%s},\"samples\":{%s}}\n"
    (String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) descriptor))
    (String.concat "," (List.map (fun m -> Printf.sprintf "%s:%d" (str m.m_name) m.m_samples) metrics));
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    (max 1 tally.attempted) tally.failed
    (String.concat ","
       (List.map
          (fun m ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (str m.m_name) (json_number m.m_value)
              (str m.m_unit))
          metrics));
  if not correct then exit 1

let workloads = [ "corpus-seq"; "fleet-par"; "serve-cached"; "batch-supervised" ]

let run args =
  let get name =
    match List.assoc_opt name args with Some v -> v | None -> failwith ("run: missing --" ^ name)
  in
  let workload = get "workload" and seed = int_of_string (get "seed") in
  let seconds = float_of_string (get "seconds") and trace = get "trace" = "1" in
  let nadroid = get "nadroid" and tmp = get "tmp" in
  if not (List.mem workload workloads) then failwith ("unknown workload " ^ workload);
  (* [tmp] stays relative: socket paths under it must fit in 108 bytes *)
  ensure_dir tmp;
  at_exit (fun () -> Proc.kill_all (); rm_rf tmp);
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let descriptor =
    [
      ("workload", Protocol.escape_string workload);
      ("seed", string_of_int seed);
      ("seconds", json_number seconds);
      ("trace", string_of_bool trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Protocol.escape_string Sys.ocaml_version);
      ("rev", Protocol.escape_string (get "rev"));
    ]
  in
  let metrics =
    if trace then begin
      let m = traced_workload ~nadroid ~tmp ~seconds ~seed workload in
      (* kept beside the run directory, which is removed at exit *)
      let spans = Filename.concat (Filename.dirname tmp) (Printf.sprintf "spans-%s-%d.tsv" workload seed) in
      write_spans spans;
      Printf.printf "spans: %s\n" spans;
      m
    end
    else
      match workload with
      | "corpus-seq" ->
          batch_workload ~tmp ~seconds ~jobs:1 ~mode:"corpus" (fun batch -> Inputs.corpus ~seed ~batch)
      | "fleet-par" | "batch-supervised" ->
          let apps = Inputs.fleet ~seed in
          let mode = if workload = "fleet-par" then "stream" else "supervise" in
          batch_workload ~tmp ~seconds ~jobs:Inputs.jobs ~mode (fun _ -> apps)
      | _ -> serve_workload ~nadroid ~tmp ~seconds ~seed
  in
  print_result ~descriptor metrics

(* ["--a"; "1"; "--b"; "2"] -> [("a", "1"); ("b", "2")] *)
let rec pairs = function
  | flag :: value :: rest when String.starts_with ~prefix:"--" flag ->
      (String.sub flag 2 (String.length flag - 2), value) :: pairs rest
  | [] -> []
  | arg :: _ -> failwith ("unexpected argument " ^ arg)

let () =
  (* a supervised worker child serves framed requests and never returns *)
  Supervise.worker_check ();
  match Array.to_list Sys.argv with
  | _ :: "batch" :: rest -> Child.main (pairs rest)
  | _ :: "run" :: rest -> (
      match run (pairs rest) with
      | () -> ()
      | exception e ->
          prerr_endline
            ("nbench: " ^ match e with Failure m | Sys_error m -> m | e -> Printexc.to_string e);
          exit 2)
  | _ ->
      prerr_endline
        "usage: nbench run --workload W --seed N --seconds S --trace 0|1 --nadroid PATH --tmp DIR --rev REV";
      exit 2
