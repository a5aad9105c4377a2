(* The serve daemon, end to end: the protocol codec round-trips, a warm
   daemon answers byte-for-byte what the cold CLI prints (under real
   concurrency), an in-flight deadline degrades a request without
   costing the worker, and disconnects / malformed lines cost at most
   their own connection. The daemon runs in-process on its own domain —
   the same code path as `nadroid serve`, minus the signal handlers. *)

module Protocol = Nadroid_serve.Protocol
module Server = Nadroid_serve.Server
module Client = Nadroid_serve.Client
module Pipeline = Nadroid_core.Pipeline
module Cache = Nadroid_core.Cache
module Fault = Nadroid_core.Fault
module Corpus = Nadroid_corpus.Corpus

(* -- protocol codec ------------------------------------------------------ *)

let json_roundtrip =
  QCheck2.Test.make ~name:"escape_string round-trips through parse_json" ~count:300
    QCheck2.Gen.string (fun s ->
      match Protocol.parse_json (Protocol.escape_string s) with
      | Ok (Protocol.Str s') -> String.equal s s'
      | Ok _ | Error _ -> false)

let analyze_roundtrip =
  let gen =
    QCheck2.Gen.(
      map3
        (fun path k deadline ->
          {
            Protocol.a_path = Some path;
            a_source = None;
            a_file = None;
            a_k = k;
            a_sound_only = deadline = None;
            a_deadline = deadline;
            a_budget_pta = k;
            a_budget_tuples = None;
            a_cache = Some (k = None);
          })
        string
        (opt (int_range 0 5))
        (opt (map (fun f -> float_of_int f /. 8.0) (int_range 0 100))))
  in
  QCheck2.Test.make ~name:"render_analyze round-trips through parse_request" ~count:200 gen
    (fun a ->
      match Protocol.parse_request (Protocol.render_analyze a) with
      | Ok (Protocol.Analyze a') -> a = a'
      | Ok _ | Error _ -> false)

let parse_request_rejects () =
  let bad line frag =
    match Protocol.parse_request line with
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%S error mentions %s (got %S)" line frag e)
          true
          Astring.String.(is_infix ~affix:frag e)
    | Ok _ -> Alcotest.failf "%S should not parse" line
  in
  bad "" "bad JSON";
  bad "{}" "op";
  bad "{\"op\":\"reboot\"}" "unknown op";
  bad "{\"op\":\"analyze\"}" "\"path\" or a \"source\"";
  bad "{\"op\":\"analyze\",\"path\":\"a\",\"source\":\"b\"}" "not both";
  bad "{\"op\":\"analyze\",\"path\":\"a\",\"k\":\"two\"}" "integer";
  bad "{\"op\":\"analyze\",\"path\":\"a\"} trailing" "trailing"

(* Clients built before the explorer budget left the analysis config may
   still send its field; it is ignored like any unknown field. *)
let retired_budget_explorer_field_parses () =
  match
    Protocol.parse_request "{\"op\":\"analyze\",\"path\":\"a\",\"budget_explorer\":5}"
  with
  | Ok (Protocol.Analyze a) ->
      Alcotest.(check (option string)) "path kept" (Some "a") a.Protocol.a_path
  | Ok _ -> Alcotest.fail "not an analyze request"
  | Error e -> Alcotest.failf "rejected: %s" e

let response_exit_map () =
  Alcotest.(check int) "ok" 0 (Protocol.response_exit "{\"ok\":true}");
  Alcotest.(check int) "clean analyze" 0
    (Protocol.response_exit "{\"files\":1,\"apps\":[],\"faults\":[]}");
  Alcotest.(check int) "worst fault wins" 4
    (Protocol.response_exit
       "{\"files\":2,\"apps\":[],\"faults\":[{\"exit\":3},{\"exit\":4}]}");
  Alcotest.(check int) "protocol error" 2
    (Protocol.response_exit (Protocol.error_response "nope"));
  Alcotest.(check int) "garbage" 2 (Protocol.response_exit "not json")

(* -- daemon harness ------------------------------------------------------ *)

let sock_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "nadroid-test-%s-%d.sock" name (Unix.getpid ()))

(* Run [f] against a live in-process daemon; always drain it afterwards
   (the explicit shutdown is itself part of every test: Domain.join
   hangs unless Server.run returns). *)
let with_daemon ?(jobs = 2) name f =
  let sock = sock_path name in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let config =
    {
      Server.default_config with
      Server.jobs = Some jobs;
      quiet = true;
      install_signals = false;
    }
  in
  let daemon = Domain.spawn (fun () -> Server.run ~config (`Unix sock)) in
  Fun.protect
    ~finally:(fun () ->
      (try
         let c = Client.connect ~timeout:0.0 (`Unix sock) in
         ignore (Client.request c Protocol.shutdown_request);
         Client.close c
       with _ -> () (* the test already shut it down *));
      Domain.join daemon)
    (fun () -> f (`Unix sock))

(* What `nadroid analyze --json` prints for this source — same builders,
   computed cold in the test process. *)
let cold_response ~name source =
  Protocol.analyze_response ~name
    (Fault.wrap (fun () ->
         Cache.entry_of_result (Pipeline.analyze ~file:name source)))

let inline_request ?deadline ~name source =
  Protocol.render_analyze
    {
      Protocol.a_path = None;
      a_source = Some source;
      a_file = Some name;
      a_k = None;
      a_sound_only = false;
      a_deadline = deadline;
      a_budget_pta = None;
      a_budget_tuples = None;
      a_cache = None;
    }

(* -- integration --------------------------------------------------------- *)

(* The acceptance bar: >= 8 requests in flight at once against a warm
   daemon, every response byte-identical to a cold run. Each client is
   its own domain with its own connection. *)
let concurrent_requests_byte_identical () =
  let apps =
    List.filteri (fun i _ -> i < 8) (Lazy.force Corpus.all)
  in
  Alcotest.(check int) "eight apps" 8 (List.length apps);
  let expected =
    List.map
      (fun (a : Corpus.app) -> cold_response ~name:a.Corpus.name a.Corpus.source)
      apps
  in
  with_daemon "concurrent" (fun listen ->
      let clients =
        List.map
          (fun (a : Corpus.app) ->
            Domain.spawn (fun () ->
                let c = Client.connect listen in
                let r =
                  Client.request c (inline_request ~name:a.Corpus.name a.Corpus.source)
                in
                Client.close c;
                r))
          apps
      in
      let responses = List.map Domain.join clients in
      List.iteri
        (fun i ((a : Corpus.app), response) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: daemon response = cold analyze --json" a.Corpus.name)
            (List.nth expected i) response)
        (List.combine apps responses))

(* A deadline that expires mid-request must come back DEGRADED — and the
   worker that served it (there is only one) must answer the next
   request of the same connection cleanly. *)
let deadline_degrades_not_kills () =
  let adversarial = Nadroid_corpus.Synth.adversarial ~seed:0 ~size:40 in
  let small = List.hd (Lazy.force Corpus.all) in
  with_daemon ~jobs:1 "deadline" (fun listen ->
      let c = Client.connect listen in
      let r =
        Client.request c (inline_request ~deadline:0.4 ~name:"adversarial" adversarial)
      in
      (match Protocol.parse_json r with
      | Ok j -> (
          match Protocol.member "apps" j with
          | Some (Protocol.Arr [ app ]) -> (
              match Protocol.member "degraded" app with
              | Some (Protocol.Arr (_ :: _)) -> ()
              | _ -> Alcotest.failf "expected a degraded marker in %s" r)
          | _ -> Alcotest.failf "expected one app in %s" r)
      | Error e -> Alcotest.failf "unparseable response %s: %s" r e);
      (* same connection, hence same (sole) worker: a clean run *)
      let r2 =
        Client.request c (inline_request ~name:small.Corpus.name small.Corpus.source)
      in
      Alcotest.(check string) "next request on the worker is clean"
        (cold_response ~name:small.Corpus.name small.Corpus.source)
        r2;
      Client.close c)

(* A client that vanishes mid-request costs its connection, nothing
   else: the daemon still answers others and still drains cleanly. *)
let disconnect_mid_request_is_isolated () =
  let adversarial = Nadroid_corpus.Synth.adversarial ~seed:0 ~size:40 in
  let small = List.hd (Lazy.force Corpus.all) in
  with_daemon ~jobs:1 "disconnect" (fun listen ->
      let dead = Client.connect listen in
      Client.send dead (inline_request ~deadline:0.4 ~name:"orphan" adversarial);
      (* hang up without reading the response *)
      Client.close dead;
      let c = Client.connect listen in
      Alcotest.(check string) "daemon still answers" "{\"ok\":true}"
        (Client.request c Protocol.ping_request);
      Alcotest.(check string) "the worker is not wedged"
        (cold_response ~name:small.Corpus.name small.Corpus.source)
        (Client.request c (inline_request ~name:small.Corpus.name small.Corpus.source));
      Client.close c)

(* Pipelined requests: a client that writes several request lines in one
   burst and then goes quiet must still get every response. Once the
   first response flushes there is no further fd event for the lines
   already buffered server-side, so the loop itself must keep
   dispatching them. The burst mixes pings (answered inline) with an
   analyze (answered via the completion queue) to cover both paths, and
   reads are select-bounded so a regression fails instead of hanging. *)
let pipelined_requests_all_answered () =
  let small = List.hd (Lazy.force Corpus.all) in
  let expected =
    [
      "{\"ok\":true}";
      cold_response ~name:small.Corpus.name small.Corpus.source;
      "{\"ok\":true}";
    ]
  in
  with_daemon ~jobs:1 "pipeline" (fun listen ->
      (* a raw fd (Client is strictly request/response), but with
         Client.connect's patience: the daemon may still be binding *)
      let rec connect_retry deadline path =
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () -> fd
        | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
          when Unix.gettimeofday () < deadline ->
            Unix.close fd;
            Unix.sleepf 0.02;
            connect_retry deadline path
        | exception e ->
            Unix.close fd;
            raise e
      in
      let fd =
        match listen with
        | `Unix path -> connect_retry (Unix.gettimeofday () +. 10.0) path
        | _ -> assert false
      in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let burst =
            String.concat "\n"
              [
                Protocol.ping_request;
                inline_request ~name:small.Corpus.name small.Corpus.source;
                Protocol.ping_request;
              ]
            ^ "\n"
          in
          let b = Bytes.of_string burst in
          assert (Unix.write fd b 0 (Bytes.length b) = Bytes.length b);
          let buf = Buffer.create 256 in
          let chunk = Bytes.create 8192 in
          let lines () =
            List.filter
              (fun l -> String.length l > 0)
              (String.split_on_char '\n' (Buffer.contents buf))
          in
          let deadline = Unix.gettimeofday () +. 30.0 in
          let rec read_until () =
            if List.length (lines ()) < 3 then begin
              let left = deadline -. Unix.gettimeofday () in
              let stall () =
                Alcotest.failf "pipelined responses stalled; got %S"
                  (Buffer.contents buf)
              in
              if left <= 0.0 then stall ();
              match Unix.select [ fd ] [] [] left with
              | [], _, _ -> stall ()
              | _ -> (
                  match Unix.read fd chunk 0 (Bytes.length chunk) with
                  | 0 ->
                      Alcotest.failf "daemon closed after %S"
                        (Buffer.contents buf)
                  | n ->
                      Buffer.add_subbytes buf chunk 0 n;
                      read_until ()
                  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                      read_until ())
            end
          in
          read_until ();
          List.iteri
            (fun i (want, got) ->
              Alcotest.(check string)
                (Printf.sprintf "pipelined response %d" i)
                want got)
            (List.combine expected (lines ()))))

(* One malformed line answers with a structured error on the same
   connection, which stays usable. *)
let bad_request_keeps_connection () =
  with_daemon ~jobs:1 "bad-request" (fun listen ->
      let c = Client.connect listen in
      let r = Client.request c "{\"op\":17}" in
      Alcotest.(check int) "usage-error exit" 2 (Protocol.response_exit r);
      Alcotest.(check string) "connection survives" "{\"ok\":true}"
        (Client.request c Protocol.ping_request);
      Client.close c)

(* Graceful shutdown: the request is acknowledged, in-flight work
   finishes first, Server.run returns (checked by with_daemon's join),
   and the socket file is gone. *)
let shutdown_drains () =
  let small = List.hd (Lazy.force Corpus.all) in
  with_daemon ~jobs:1 "shutdown" (fun listen ->
      let c = Client.connect listen in
      Alcotest.(check string) "analysis before the drain"
        (cold_response ~name:small.Corpus.name small.Corpus.source)
        (Client.request c (inline_request ~name:small.Corpus.name small.Corpus.source));
      Alcotest.(check string) "drain acknowledged" "{\"ok\":true,\"draining\":true}"
        (Client.request c Protocol.shutdown_request);
      Client.close c);
  match Unix.stat (sock_path "shutdown") with
  | _ -> Alcotest.fail "socket file should be unlinked after the drain"
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let suite =
  [
    ( "serve-protocol",
      [
        QCheck_alcotest.to_alcotest json_roundtrip;
        QCheck_alcotest.to_alcotest analyze_roundtrip;
        Alcotest.test_case "malformed requests are rejected with the field" `Quick
          parse_request_rejects;
        Alcotest.test_case "the retired budget_explorer field still parses" `Quick
          retired_budget_explorer_field_parses;
        Alcotest.test_case "response_exit mirrors the fault taxonomy" `Quick
          response_exit_map;
      ] );
    ( "serve-daemon",
      [
        Alcotest.test_case "8 concurrent requests match cold runs byte-for-byte" `Quick
          concurrent_requests_byte_identical;
        Alcotest.test_case "mid-request deadline degrades, worker survives" `Quick
          deadline_degrades_not_kills;
        Alcotest.test_case "client disconnect is isolated to its connection" `Quick
          disconnect_mid_request_is_isolated;
        Alcotest.test_case "pipelined burst gets every response" `Quick
          pipelined_requests_all_answered;
        Alcotest.test_case "malformed line keeps the connection usable" `Quick
          bad_request_keeps_connection;
        Alcotest.test_case "shutdown drains, returns and unlinks the socket" `Quick
          shutdown_drains;
      ] );
  ]
