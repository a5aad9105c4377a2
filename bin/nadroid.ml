(* nadroid — command-line front end.

     nadroid analyze  app.mand      static UAF analysis + report
     nadroid serve                  analysis-as-a-service daemon
     nadroid request  app.mand      send analyze requests to a running daemon
     nadroid validate app.mand      analysis + dynamic schedule validation
     nadroid forest   app.mand      print the threadification forest
     nadroid ir       app.mand      dump the lowered IR
     nadroid deva     app.mand      run the DEvA baseline
     nadroid run      app.mand      one random simulator run
     nadroid fuzz                   chaos-fuzz the runtime over corpus mutants
     nadroid difftest               differential soundness test on generated apps
     nadroid golden                 diff/bless the corpus golden reports
     nadroid synth                  print a generated app (random or adversarial)
     nadroid corpus [NAME]          list corpus apps / dump one source

   Exit codes follow the fault taxonomy: 0 ok, 1 frontend diagnostic,
   3 budget exhausted, 4 internal error (2/124/125 are cmdliner's). *)

open Cmdliner
module Pipeline = Nadroid_core.Pipeline
module Filters = Nadroid_core.Filters
module Fault = Nadroid_core.Fault

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_fault f =
  match Fault.wrap f with
  | Ok x -> x
  | Error fault ->
      Fmt.epr "%a@." Fault.pp fault;
      exit (Fault.exit_code fault)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniAndroid source file")

let k_arg =
  Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc:"object-sensitivity depth (default 2)")

let sound_only_arg =
  Arg.(value & flag & info [ "sound-only" ] ~doc:"apply only the sound filters (MHB, IG, IA)")

let budget_pta_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget-pta" ] ~docv:"STEPS"
        ~doc:
          "points-to step budget; on exhaustion the analysis retries with a coarser context \
           depth (sound: may over-report) before giving up")

let budget_tuples_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget-tuples" ] ~docv:"N"
        ~doc:
          "memory ceiling: live relation tuples across the points-to table and the detection \
           join; on exhaustion the points-to solver retries with a coarser context depth \
           (sound: may over-report) before giving up")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:
          "wall-clock deadline, enforced in-flight: the running analysis is cancelled at the \
           next checkpoint and degrades soundly (coarser points-to, skipped filters — may \
           over-report) or fails with the budget exit code when no sound partial result \
           remains")

let budgets pta_steps pta_tuples deadline = { Pipeline.pta_steps; pta_tuples; deadline }

(* -- analysis-cache flags (analyze, golden) ------------------------------ *)

let cache_arg =
  Arg.(
    value & flag
    & info [ "cache" ]
        ~doc:
          "serve and record results through the content-addressed on-disk analysis cache; a \
           warm hit skips analysis and is byte-identical to a cold run")

let no_cache_arg =
  Arg.(value & flag & info [ "no-cache" ] ~doc:"bypass the analysis cache (overrides --cache)")

let cache_dir_arg =
  Arg.(
    value
    & opt string Nadroid_core.Cache.default_dir
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"cache directory (default $(b,_nadroid_cache)); created on first store")

let cache_max_bytes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-max-bytes" ] ~docv:"BYTES"
        ~doc:
          "cap the cache directory size: after each store, least-recently-used entries are \
           evicted until the combined $(b,*.cache) size is at most $(docv)")

let cache_enabled cache no_cache = cache && not no_cache

(* A corrupt entry is served as a miss (the fresh result replaces it) but
   the fault is surfaced, never silently swallowed. *)
let warn_cache_outcome path = function
  | Nadroid_core.Cache.Hit | Nadroid_core.Cache.Miss -> ()
  | Nadroid_core.Cache.Corrupt f ->
      Fmt.epr "%s: %a (cache entry replaced)@." path Fault.pp f

let analyze_pipeline ?(budgets = Pipeline.no_budgets) path k sound_only =
  let src = read_file path in
  let config =
    {
      Pipeline.default_config with
      Pipeline.k;
      unsound = (if sound_only then [] else Filters.unsound);
      budgets;
    }
  in
  with_fault (fun () -> Pipeline.analyze ~config ~file:path src)

let analyze_cmd =
  let files_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE" ~doc:"MiniAndroid source file(s)")
  in
  let jobs_arg =
    Arg.(
      value
      & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"analyze the FILEs on $(docv) domains in parallel (default 1)")
  in
  let timings_arg =
    Arg.(
      value & flag
      & info [ "timings" ] ~doc:"print the per-phase timing breakdown and filter prune counts")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "machine-readable output: one JSON object with per-file warning counts and the \
             fault inventory, instead of the human report")
  in
  let supervise_arg =
    Arg.(
      value & flag
      & info [ "supervise" ]
          ~doc:
            "analyze each FILE in a supervised child process: a file that segfaults, is \
             OOM-killed or wedges costs exactly one fault entry — the worker is respawned \
             and the rest of the batch completes; a file that crashes two consecutive \
             workers is quarantined")
  in
  let heartbeat_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "heartbeat" ] ~docv:"SECS"
          ~doc:
            "with --supervise: max seconds one file may stay unanswered before its worker is \
             declared wedged and replaced (default: unbounded)")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"PATH"
          ~doc:
            "record each completed file in an append-only checksummed journal; together with \
             $(b,--resume), a killed batch can be rerun re-analyzing only the missing files")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "replay the $(b,--journal) before analyzing: files whose journaled completion \
             digest still matches are served from the journal, producing output \
             byte-identical to an uninterrupted run")
  in
  let stream_arg =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "streamed emission for corpus-scale batches: one JSON line per FILE (the same \
             per-file objects $(b,--json) aggregates), flushed as each file completes, in \
             input order — nothing is accumulated, so memory stays bounded independent of \
             the batch size. Journal/resume compatible. Mutually exclusive with $(b,--json)")
  in
  let run files k sound_only jobs timings json budget_pta budget_tuples deadline cache
      no_cache cache_dir cache_max_bytes supervise heartbeat journal_path resume stream =
    let module Cache = Nadroid_core.Cache in
    let module Journal = Nadroid_core.Journal in
    let module Supervise = Nadroid_core.Supervise in
    let config =
      {
        Pipeline.default_config with
        Pipeline.k;
        unsound = (if sound_only then [] else Filters.unsound);
        budgets = budgets budget_pta budget_tuples deadline;
      }
    in
    let dir = if cache_enabled cache no_cache then Some cache_dir else None in
    if resume && journal_path = None then begin
      Fmt.epr "--resume needs --journal PATH@.";
      exit 2
    end;
    if stream && json then begin
      Fmt.epr "--stream and --json are mutually exclusive@.";
      exit 2
    end;
    let jobs = Nadroid_core.Parallel.clamp_jobs jobs in
    (* force the shared builtin-program lazy before any domain spawns *)
    ignore (Lazy.force Nadroid_lang.Builtins.program);
    (* SIGTERM stops the batch at the next task boundary: files already
       analyzed still print (and journal), files never started become
       batch faults, and the exit code reflects the worst class seen *)
    let stop = Atomic.make false in
    ignore (Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stop true)));
    let journal = Option.map (fun p -> Journal.open_ ~path:p ~resume) journal_path in
    let replayed =
      match journal with
      | Some (_, records) -> Journal.latest records
      | None -> Hashtbl.create 0
    in
    let spool =
      if supervise then Some (Supervise.create ~jobs ?heartbeat ()) else None
    in
    let reused = Atomic.make 0 in
    (* crash-isolated: a bad file yields its own fault report while the
       remaining files are still analyzed; exit with the worst class.
       All paths produce a cache entry — the entry holds exactly what
       this command prints (counts, rendered report, metrics), which is
       what keeps cached, uncached, supervised and journal-resumed
       output byte-identical. *)
    let analyze_one path =
      if Atomic.get stop then raise (Fault.Fault (Fault.Budget Fault.P_batch));
      let src = read_file path in
      let key = Cache.key ~config src in
      match Hashtbl.find_opt replayed path with
      | Some r when String.equal r.Journal.j_key key -> (
          ignore (Atomic.fetch_and_add reused 1);
          match r.Journal.j_result with
          | Ok e -> (e, Cache.Hit)
          | Error f -> raise (Fault.Fault f))
      | _ ->
          let result =
            match spool with
            | Some sp ->
                Supervise.analyze_outcome sp ~config
                  ?cache:(Option.map (fun dir -> (dir, cache_max_bytes)) dir)
                  ~file:path src
            | None ->
                Fault.wrap (fun () ->
                    Cache.analyze ~config ?max_bytes:cache_max_bytes ?dir ~file:path src)
          in
          (match journal with
          | Some (j, _) -> (
              (* losing a journal record costs resume coverage, never
                 the batch: surface it and continue *)
              try
                Journal.append j
                  { Journal.j_name = path; j_key = key; j_result = Result.map fst result }
              with e -> Fmt.epr "journal: %s: %a@." path Fault.pp (Fault.of_exn e))
          | None -> ());
          (match result with
          | Ok entry_outcome -> entry_outcome
          | Error f -> raise (Fault.Fault f))
    in
    (* one emission path for every output mode: results arrive in input
       order as files complete. --stream prints each file's JSON line at
       once, so nothing but the fault inventory is accumulated and
       memory is bounded by the scheduler window, not the batch size;
       --json collects the same per-file objects into one batch object
       (built by the Protocol functions the serve daemon answers with,
       so a daemon response is byte-identical to this output); the
       human report prints each file's section as it arrives. *)
    let module Protocol = Nadroid_serve.Protocol in
    let arr = Array.of_list files in
    let n = Array.length arr in
    let faults = ref [] and ok_json = ref [] and fault_json = ref [] in
    Nadroid_core.Parallel.stream ~jobs ~n
      (fun i -> analyze_one arr.(i))
      (fun i r ->
        let path = arr.(i) in
        let r = Result.map_error Fault.of_exn r in
        (match r with
        | Ok (_, outcome) -> warn_cache_outcome path outcome
        | Error f -> faults := f :: !faults);
        if stream || json then begin
          let line =
            match r with
            | Ok ((e : Cache.entry), _) -> Protocol.entry_json ~name:path e
            | Error f -> Nadroid_core.Report.fault_to_json ~name:path f
          in
          if stream then begin
            print_string line;
            print_newline ();
            flush stdout
          end
          else if Result.is_ok r then ok_json := line :: !ok_json
          else fault_json := line :: !fault_json
        end
        else begin
          if n > 1 then Fmt.pr "== %s ==@." path;
          match r with
          | Ok ((e : Cache.entry), outcome) ->
              Fmt.pr "potential UAFs: %d; after sound filters: %d; after unsound filters: %d@.@."
                e.Cache.e_potential e.Cache.e_after_sound e.Cache.e_after_unsound;
              print_string e.Cache.e_report;
              (* flushed here: each domain has its own std_formatter,
                 and the next file may be emitted from another domain *)
              if timings then begin
                (* a reused entry carries the metrics of the run that
                   stored it; say so rather than pass them off as ours *)
                (match outcome with
                | Cache.Hit ->
                    Fmt.pr "reused result: phase times are from the run that stored it@."
                | Cache.Miss | Cache.Corrupt _ -> ());
                Fmt.pr "%a%!" Nadroid_core.Report.pp_metrics e.Cache.e_metrics
              end
          | Error fault -> Fmt.epr "%s: %a@." path Fault.pp fault
        end);
    Option.iter Supervise.shutdown spool;
    Option.iter (fun (j, _) -> Journal.close j) journal;
    if resume then
      Fmt.epr "resume: %d of %d file(s) replayed from the journal@." (Atomic.get reused) n;
    if json then
      Fmt.pr "%s@."
        (Protocol.batch_json ~files:n ~apps:(List.rev !ok_json) ~faults:(List.rev !fault_json));
    match !faults with
    | [] -> ()
    | fs ->
        Fmt.epr "%d of %d file(s) failed@." (List.length fs) n;
        exit (Fault.worst_exit fs)
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"statically detect UAF ordering violations")
    Term.(
      const run $ files_arg $ k_arg $ sound_only_arg $ jobs_arg $ timings_arg $ json_arg
      $ budget_pta_arg $ budget_tuples_arg $ deadline_arg $ cache_arg $ no_cache_arg
      $ cache_dir_arg $ cache_max_bytes_arg $ supervise_arg $ heartbeat_arg
      $ journal_arg $ resume_arg $ stream_arg)

(* -- serve / request: the analysis daemon and its client ----------------- *)

let default_socket = "nadroid.sock"

(* One --socket/--tcp pair shared by serve and request; --tcp wins. *)
let listen_term =
  let socket_arg =
    Arg.(
      value
      & opt string default_socket
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix socket path (default $(b,nadroid.sock))")
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"use TCP instead of a Unix socket")
  in
  let listen socket tcp =
    match tcp with
    | None -> `Unix socket
    | Some spec -> (
        match String.rindex_opt spec ':' with
        | Some i -> (
            let host = String.sub spec 0 i in
            let port = String.sub spec (i + 1) (String.length spec - i - 1) in
            match int_of_string_opt port with
            | Some port when host <> "" -> `Tcp (host, port)
            | _ ->
                Fmt.epr "bad --tcp %s (expected HOST:PORT)@." spec;
                exit 2)
        | None ->
            Fmt.epr "bad --tcp %s (expected HOST:PORT)@." spec;
            exit 2)
  in
  Term.(const listen $ socket_arg $ tcp_arg)

let serve_cmd =
  let module Server = Nadroid_serve.Server in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "domains serving the daemon, counting the main one (default: all cores): each \
             analyzes a request when one is queued, one at a time polls the sockets, and a \
             request waits only while all of them are busy; above the core count it is \
             lowered to it")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"suppress the per-request stderr log")
  in
  let default_deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "default-deadline" ] ~docv:"SECS"
          ~doc:
            "deadline applied to requests that carry none (default: unbounded); a request's \
             own deadline always wins")
  in
  let supervise_arg =
    Arg.(
      value & flag
      & info [ "supervise" ]
          ~doc:
            "run each analysis in a supervised child process: a request that segfaults, is \
             OOM-killed or wedges costs only its own response while the daemon keeps serving")
  in
  let heartbeat_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "heartbeat" ] ~docv:"SECS"
          ~doc:
            "with --supervise: max seconds one request may stay unanswered before its worker \
             is declared wedged and replaced (default: unbounded)")
  in
  let run listen jobs quiet default_deadline cache_dir cache_max_bytes supervise heartbeat =
    let config =
      {
        Server.default_config with
        Server.jobs = Option.map Nadroid_core.Parallel.clamp_jobs jobs;
        cache_dir;
        cache_max_bytes;
        default_deadline;
        quiet;
        supervise;
        heartbeat;
      }
    in
    with_fault (fun () -> Server.run ~config listen)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "run the analysis-as-a-service daemon: a long-lived process that keeps the framework \
          model, interned symbols and the analysis cache warm and answers newline-JSON analyze \
          requests over a Unix or TCP socket (byte-identical to $(b,nadroid analyze --json)); \
          a $(b,shutdown) request, SIGTERM or SIGINT drains in-flight work and exits 0")
    Term.(
      const run $ listen_term $ jobs_arg $ quiet_arg $ default_deadline_arg $ cache_dir_arg
      $ cache_max_bytes_arg $ supervise_arg $ heartbeat_arg)

let request_cmd =
  let module Protocol = Nadroid_serve.Protocol in
  let module Client = Nadroid_serve.Client in
  let files_arg =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"MiniAndroid source file(s)")
  in
  let ping_arg = Arg.(value & flag & info [ "ping" ] ~doc:"send a liveness probe first") in
  let shutdown_arg =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"ask the daemon to drain and exit (after any FILEs)")
  in
  let connect_timeout_arg =
    Arg.(
      value & opt float 10.0
      & info [ "connect-timeout" ] ~docv:"SECS"
          ~doc:
            "give up connecting after $(docv) seconds of exponential-backoff retries \
             (default 10) — a daemon that never starts fails the request instead of \
             spinning forever")
  in
  let run listen files ping shutdown connect_timeout k sound_only budget_pta budget_tuples
      deadline cache no_cache =
    if files = [] && not (ping || shutdown) then begin
      Fmt.epr "nothing to do: give FILEs, --ping or --shutdown@.";
      exit 2
    end;
    let c =
      try Client.connect ~timeout:connect_timeout listen
      with Unix.Unix_error (e, _, _) ->
        Fmt.epr "cannot connect to the daemon within %gs: %s@." connect_timeout
          (Unix.error_message e);
        exit 4
    in
    let worst = ref 0 in
    let round line =
      let response = Client.request c line in
      print_endline response;
      worst := max !worst (Protocol.response_exit response)
    in
    if ping then round Protocol.ping_request;
    List.iter
      (fun path ->
        round
          (Protocol.render_analyze
             {
               Protocol.a_path = Some path;
               a_source = None;
               a_file = None;
               a_k = (if k = 2 then None else Some k);
               a_sound_only = sound_only;
               a_deadline = deadline;
               a_budget_pta = budget_pta;
               a_budget_tuples = budget_tuples;
               a_cache = (if cache_enabled cache no_cache then Some true else None);
             }))
      files;
    if shutdown then round Protocol.shutdown_request;
    Client.close c;
    if !worst <> 0 then exit !worst
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "send requests to a running $(b,nadroid serve) daemon and print the response lines; \
          exits with the worst fault code of the batch, like $(b,analyze)")
    Term.(
      const run $ listen_term $ files_arg $ ping_arg $ shutdown_arg $ connect_timeout_arg
      $ k_arg $ sound_only_arg $ budget_pta_arg $ budget_tuples_arg $ deadline_arg
      $ cache_arg $ no_cache_arg)

let validate_cmd =
  let runs_arg =
    Arg.(value & opt int 150 & info [ "runs" ] ~doc:"random schedules per warning")
  in
  let budget_explorer_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget-explorer" ] ~docv:"N"
          ~doc:"cap on dynamic-validation schedules per warning (can only lose witnesses)")
  in
  let run path k runs budget_pta budget_tuples deadline budget_explorer =
    let t =
      analyze_pipeline ~budgets:(budgets budget_pta budget_tuples deadline) path k false
    in
    let runs = match budget_explorer with Some b -> min runs b | None -> runs in
    List.iter
      (fun w ->
        let v = Nadroid_dynamic.Explorer.validate t.Pipeline.prog w ~runs () in
        Fmt.pr "%s: %s@."
          (Nadroid_core.Report.field_name w.Nadroid_core.Detect.w_field)
          (if v.Nadroid_dynamic.Explorer.v_harmful then "HARMFUL (witness schedule found)"
           else "no witness found");
        match v.Nadroid_dynamic.Explorer.v_witness with
        | Some trace ->
            Fmt.pr "  schedule: %a@."
              Fmt.(list ~sep:(any " ; ") Nadroid_dynamic.World.pp_action)
              trace
        | None -> ())
      t.Pipeline.after_unsound
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"dynamically validate surviving warnings")
    Term.(
      const run $ file_arg $ k_arg $ runs_arg $ budget_pta_arg $ budget_tuples_arg
      $ deadline_arg $ budget_explorer_arg)

let forest_cmd =
  let run path k =
    let t = analyze_pipeline path k false in
    Fmt.pr "%a" Nadroid_core.Threadify.pp_forest t.Pipeline.threads
  in
  Cmd.v
    (Cmd.info "forest" ~doc:"print the threadification forest (modeled threads)")
    Term.(const run $ file_arg $ k_arg)

let dot_cmd =
  let run path k =
    let t = analyze_pipeline path k false in
    print_string (Nadroid_core.Threadify.to_dot t.Pipeline.threads)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"emit the threadification forest as Graphviz")
    Term.(const run $ file_arg $ k_arg)

let ir_cmd =
  let run path =
    let src = read_file path in
    let prog = with_fault (fun () -> Nadroid_ir.Prog.of_source ~file:path src) in
    List.iter (fun b -> Fmt.pr "%a@.@." Nadroid_ir.Cfg.pp b) (Nadroid_ir.Prog.user_bodies prog)
  in
  Cmd.v (Cmd.info "ir" ~doc:"dump the lowered IR of user methods") Term.(const run $ file_arg)

let deva_cmd =
  let run path =
    let src = read_file path in
    let prog = with_fault (fun () -> Nadroid_ir.Prog.of_source ~file:path src) in
    List.iter (fun w -> Fmt.pr "%a@." Nadroid_deva.Deva.pp w) (Nadroid_deva.Deva.run prog)
  in
  Cmd.v
    (Cmd.info "deva" ~doc:"run the DEvA event-anomaly baseline")
    Term.(const run $ file_arg)

let run_cmd =
  let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"schedule seed") in
  let steps_arg = Arg.(value & opt int 100 & info [ "steps" ] ~doc:"max schedule steps") in
  let run path seed steps =
    let src = read_file path in
    let prog = with_fault (fun () -> Nadroid_ir.Prog.of_source ~file:path src) in
    let o = Nadroid_dynamic.Explorer.random_run prog ~seed ~max_steps:steps in
    Fmt.pr "schedule (%d steps): %a@." o.Nadroid_dynamic.Explorer.o_steps
      Fmt.(list ~sep:(any " ; ") Nadroid_dynamic.World.pp_action)
      o.Nadroid_dynamic.Explorer.o_trace;
    List.iter
      (fun (npe : Nadroid_dynamic.Interp.npe) ->
        Fmt.pr "NullPointerException at %a (%a)@." Nadroid_ir.Instr.pp_mref
          npe.Nadroid_dynamic.Interp.npe_mref Nadroid_lang.Loc.pp
          npe.Nadroid_dynamic.Interp.npe_loc)
      o.Nadroid_dynamic.Explorer.o_npes;
    List.iter
      (fun (s : Nadroid_dynamic.Interp.stuck) ->
        Fmt.pr "Stuck (%s) at %a (%a)@." s.Nadroid_dynamic.Interp.st_reason
          Nadroid_ir.Instr.pp_mref s.Nadroid_dynamic.Interp.st_mref Nadroid_lang.Loc.pp
          s.Nadroid_dynamic.Interp.st_loc)
      o.Nadroid_dynamic.Explorer.o_stucks;
    if o.Nadroid_dynamic.Explorer.o_crashed then Fmt.pr "(app crashed)@."
  in
  Cmd.v
    (Cmd.info "run" ~doc:"execute one random schedule in the simulator")
    Term.(const run $ file_arg $ seed_arg $ steps_arg)

let replay_cmd =
  let sched_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"SCHEDULE" ~doc:"file with one action per line, as printed by validate")
  in
  let run path sched =
    let src = read_file path in
    let prog = with_fault (fun () -> Nadroid_ir.Prog.of_source ~file:path src) in
    let script =
      String.split_on_char '\n' (read_file sched)
      |> List.concat_map (String.split_on_char ';')
      |> List.map String.trim
      |> List.filter (fun l -> l <> "")
    in
    let o = Nadroid_dynamic.Explorer.replay prog script in
    Fmt.pr "replayed %d action(s)@." o.Nadroid_dynamic.Explorer.o_steps;
    List.iter
      (fun (npe : Nadroid_dynamic.Interp.npe) ->
        Fmt.pr "NullPointerException at %a (%a)@." Nadroid_ir.Instr.pp_mref
          npe.Nadroid_dynamic.Interp.npe_mref Nadroid_lang.Loc.pp
          npe.Nadroid_dynamic.Interp.npe_loc)
      o.Nadroid_dynamic.Explorer.o_npes
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"replay a recorded witness schedule")
    Term.(const run $ file_arg $ sched_arg)

let fuzz_cmd =
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"mutation seed") in
  let mutants_arg =
    Arg.(value & opt int 200 & info [ "mutants" ] ~docv:"N" ~doc:"number of mutants to analyze")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N" ~doc:"domains to fuzz on (default: all cores)")
  in
  let fuzz_deadline_arg =
    Arg.(
      value & opt float 10.0
      & info [ "deadline" ] ~docv:"SECS" ~doc:"per-mutant wall-clock deadline (default 10)")
  in
  let run seed mutants jobs deadline =
    let summary =
      Nadroid_corpus.Chaos.run ?jobs ~deadline ~seed ~mutants
        (Lazy.force Nadroid_corpus.Corpus.all)
    in
    Fmt.pr "%a@?" Nadroid_corpus.Chaos.pp_summary summary;
    if summary.Nadroid_corpus.Chaos.s_uncaught <> [] then exit 4
    else if summary.Nadroid_corpus.Chaos.s_overruns <> [] then exit 3
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "chaos-fuzz the analysis runtime: analyze seeded mutants of every corpus source and \
          fail on any uncaught exception or deadline overrun")
    Term.(const run $ seed_arg $ mutants_arg $ jobs_arg $ fuzz_deadline_arg)

let difftest_cmd =
  let module Differential = Nadroid_corpus.Differential in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"generation seed (app i uses N+i)")
  in
  let apps_arg =
    Arg.(value & opt int 100 & info [ "apps" ] ~docv:"N" ~doc:"number of generated apps")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N" ~doc:"domains to check on (default: all cores)")
  in
  let runs_arg =
    Arg.(
      value
      & opt int Differential.default_oracle.Differential.dr_runs
      & info [ "runs" ] ~docv:"N" ~doc:"uniform random walks per app")
  in
  let guided_arg =
    Arg.(
      value
      & opt int Differential.default_oracle.Differential.dr_guided
      & info [ "guided" ] ~docv:"N" ~doc:"guided walks per surviving warning")
  in
  let steps_arg =
    Arg.(
      value
      & opt int Differential.default_oracle.Differential.dr_steps
      & info [ "steps" ] ~docv:"N" ~doc:"max schedule steps per walk")
  in
  let weaken_arg =
    Arg.(
      value & opt string "none"
      & info [ "weaken" ] ~docv:"MODE"
          ~doc:
            "deliberately weaken a sound filter to prove the harness catches it: 'invert-ig' \
             inverts IG's guard check (default 'none')")
  in
  let run seed apps jobs runs guided steps weaken =
    let weaken =
      match Differential.weaken_of_string weaken with
      | Some w -> w
      | None ->
          Fmt.epr "unknown --weaken mode %s (try 'none' or 'invert-ig')@." weaken;
          exit 2
    in
    let oracle =
      { Differential.dr_runs = runs; dr_guided = guided; dr_steps = steps }
    in
    let summary =
      with_fault (fun () -> Differential.run ?jobs ~oracle ~weaken ~seed ~apps ())
    in
    Fmt.pr "%a@?" Differential.pp_summary summary;
    if summary.Differential.su_counterexamples <> [] then exit 4
    else if summary.Differential.su_faults <> [] then
      exit (Fault.worst_exit (List.map snd summary.Differential.su_faults))
  in
  Cmd.v
    (Cmd.info "difftest"
       ~doc:
         "differential soundness test: generate random well-typed apps, cross-check the \
          sound-filters-only static pipeline against the schedule explorer as a dynamic \
          oracle, and shrink any counterexample")
    Term.(
      const run $ seed_arg $ apps_arg $ jobs_arg $ runs_arg $ guided_arg $ steps_arg
      $ weaken_arg)

let golden_cmd =
  let module Golden = Nadroid_corpus.Golden in
  let dir_arg =
    Arg.(
      value & opt string "test/golden"
      & info [ "dir" ] ~docv:"DIR" ~doc:"directory of .expected files (default test/golden)")
  in
  let bless_arg =
    Arg.(value & flag & info [ "bless" ] ~doc:"regenerate every .expected file instead of diffing")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N" ~doc:"domains to analyze on (default: all cores)")
  in
  let run dir bless jobs cache no_cache cache_dir =
    let cache_dir = if cache_enabled cache no_cache then Some cache_dir else None in
    if bless then
      let n = with_fault (fun () -> Golden.bless ~dir ?jobs ()) in
      Fmt.pr "blessed %d golden report(s) into %s@." n dir
    else
      let results = with_fault (fun () -> Golden.check ~dir ?jobs ?cache_dir ()) in
      List.iter (fun r -> Fmt.pr "%a@." Golden.pp_status r) results;
      if not (Golden.ok results) then (
        let bad = List.filter (fun (_, s) -> s <> Golden.G_ok) results in
        Fmt.epr "golden: %d of %d report(s) drifted or missing@." (List.length bad)
          (List.length results);
        exit 1)
  in
  Cmd.v
    (Cmd.info "golden"
       ~doc:
         "diff the corpus against committed canonical reports (fails on any warning-set \
          drift); --bless regenerates them; --cache serves the reports through the analysis \
          cache (the cold-then-warm CI gate)")
    Term.(const run $ dir_arg $ bless_arg $ jobs_arg $ cache_arg $ no_cache_arg $ cache_dir_arg)

let synth_cmd =
  let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"generation seed") in
  let size_arg =
    Arg.(
      value & opt int 12
      & info [ "size" ] ~docv:"N" ~doc:"size parameter for --adversarial (default 12)")
  in
  let adversarial_arg =
    Arg.(
      value & flag
      & info [ "adversarial" ]
          ~doc:
            "emit the deadline-pathology app (filter phase quadratic in $(b,--size), with \
             $(b,--size) squared warnings) instead of a random well-typed app")
  in
  let run seed size adversarial =
    if adversarial then print_string (Nadroid_corpus.Synth.adversarial ~seed ~size)
    else print_string (fst (Nadroid_corpus.Synth.render (Nadroid_corpus.Synth.generate ~seed)))
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "print a generated MiniAndroid app: random well-typed by default, or the adversarial \
          deadline-pathology app with --adversarial")
    Term.(const run $ seed_arg $ size_arg $ adversarial_arg)

let faultfuzz_cmd =
  let module Faultfuzz = Nadroid_corpus.Faultfuzz in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"injection seed (trial i uses N+i)")
  in
  let trials_arg =
    Arg.(
      value & opt int 10
      & info [ "trials" ] ~docv:"N"
          ~doc:"fuzz trials, alternating in-process and supervised (default 10)")
  in
  let apps_arg =
    Arg.(
      value & opt int 8
      & info [ "apps" ] ~docv:"N" ~doc:"corpus apps per trial (default 8)")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N" ~doc:"batch parallelism per trial (default 2)")
  in
  let run seed trials apps jobs =
    let summary = with_fault (fun () -> Faultfuzz.run ?jobs ~apps ~seed ~trials ()) in
    Fmt.pr "%a@?" Faultfuzz.pp_summary summary;
    if summary.Faultfuzz.fz_escapes <> [] then exit 4
  in
  Cmd.v
    (Cmd.info "faultfuzz"
       ~doc:
         "blast-radius fuzzing: seed deterministic faults into the cache/journal/worker \
          seams while analyzing corpus batches, and fail (exit 4) if any fault escapes its \
          app — every entry must be byte-identical to a clean run or a structured fault \
          attributable to the injection")
    Term.(const run $ seed_arg $ trials_arg $ apps_arg $ jobs_arg)

let corpus_cmd =
  let name_arg = Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME") in
  let run name =
    match name with
    | None ->
        List.iter
          (fun (a : Nadroid_corpus.Corpus.app) ->
            Fmt.pr "%-16s %s@." a.Nadroid_corpus.Corpus.name
              (match a.Nadroid_corpus.Corpus.group with
              | Nadroid_corpus.Corpus.Train -> "train"
              | Nadroid_corpus.Corpus.Test -> "test"))
          (Lazy.force Nadroid_corpus.Corpus.all)
    | Some n -> (
        match Nadroid_corpus.Corpus.find n with
        | Some a -> print_string a.Nadroid_corpus.Corpus.source
        | None ->
            Fmt.epr "unknown corpus app %s@." n;
            exit 1)
  in
  Cmd.v
    (Cmd.info "corpus" ~doc:"list evaluation-corpus apps, or dump one app's source")
    Term.(const run $ name_arg)

let () =
  (* a supervised worker child serves framed requests on stdin/stdout
     and never reaches the CLI — this must run before Cmd.eval *)
  Nadroid_core.Supervise.worker_check ();
  (match Nadroid_core.Faultinject.init_from_env () with
  | Ok () -> ()
  | Error e ->
      Fmt.epr "bad %s: %s@." Nadroid_core.Faultinject.env_var e;
      exit 2);
  let info = Cmd.info "nadroid" ~doc:"static ordering-violation detector for MiniAndroid apps" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            analyze_cmd;
            serve_cmd;
            request_cmd;
            validate_cmd;
            forest_cmd;
            dot_cmd;
            ir_cmd;
            deva_cmd;
            run_cmd;
            replay_cmd;
            fuzz_cmd;
            difftest_cmd;
            golden_cmd;
            synth_cmd;
            faultfuzz_cmd;
            corpus_cmd;
          ]))
