(* The serve daemon, end to end: the protocol codec round-trips, a warm
   daemon answers byte-for-byte what the cold CLI prints (under real
   concurrency), an in-flight deadline degrades a request without
   costing its domain, disconnects / malformed lines cost at most their
   own connection, and the domains' turns at polling never lose a
   reply, a wake-up or a descriptor. The daemon runs in-process on its
   own domain — the same code path as `nadroid serve`, minus the signal
   handlers. *)

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

(* Quoted strings built from every kind of piece the decoder treats
   differently: plain runs (bytes >= 0x80 included), each escape, \u
   escapes in and around the surrogate ranges, well-formed and broken
   surrogate pairs, bad and truncated escapes, and a stray quote; then
   a closing quote, trailing bytes, or nothing at all. *)
let json_string_gen =
  let open QCheck2.Gen in
  let hex4 lo hi = map (Printf.sprintf "\\u%04X") (int_range lo hi) in
  let piece =
    oneof
      [
        map (String.make 1) (oneof [ char_range ' ' '!'; char_range '#' '['; char_range ']' '\255' ]);
        string_size ~gen:(char_range 'a' 'z') (int_range 1 40);
        oneofl [ "\\\""; "\\\\"; "\\/"; "\\b"; "\\f"; "\\n"; "\\r"; "\\t" ];
        hex4 0 0xFFFF;
        hex4 0xD800 0xDBFF;
        hex4 0xDC00 0xDFFF;
        map2 ( ^ ) (hex4 0xD800 0xDBFF) (hex4 0xDC00 0xDFFF);
        map2 ( ^ ) (hex4 0xD800 0xDBFF) (oneof [ hex4 0 0xFFFF; pure "x"; pure "\\n" ]);
        oneofl [ "\\q"; "\\u12G4"; "\\uZZZZ"; "\\x"; "\"" ];
      ]
  in
  let ending = oneofl [ "\""; ""; "\\"; "\\u12"; "\" "; "\" x"; "\"\n" ] in
  map2 (fun body e -> "\"" ^ String.concat "" body ^ e) (list_size (int_range 0 12) piece) ending

let json_string_matches_oracle =
  QCheck2.Test.make ~name:"string decoding equals the per-character oracle" ~count:2000
    ~print:(fun s -> s) json_string_gen (fun s ->
      match (Protocol.parse_json s, Json_oracle.parse_json s) with
      | Ok (Protocol.Str a), Ok b -> String.equal a b
      | Error a, Error b -> String.equal a b
      | _, _ -> false)

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

(* A connection whose every read is select-bounded, so that a stalled
   daemon fails the test instead of hanging it. Connects with
   Client.connect's patience: the daemon may still be binding. *)
type raw = { fd : Unix.file_descr; buf : Buffer.t; mutable closed : bool }

(* every raw connection of the running test, closed by [with_daemon] so
   that a failing test cannot keep the daemon's drain waiting *)
let raws = ref []

let raw_connect listen =
  let path = match listen with `Unix p -> p | `Tcp _ -> assert false in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
        let r = { fd; buf = Buffer.create 256; closed = false } in
        raws := r :: !raws;
        r
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.02;
        go ()
    | exception e ->
        Unix.close fd;
        raise e
  in
  go ()

(* once only: the number may be the daemon's next descriptor *)
let raw_close r =
  if not r.closed then begin
    r.closed <- true;
    Unix.close r.fd
  end

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
      List.iter raw_close !raws;
      raws := [];
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

let analyze_request ?path ?source ?name ?deadline () =
  Protocol.render_analyze
    {
      Protocol.a_path = path;
      a_source = source;
      a_file = name;
      a_k = None;
      a_sound_only = false;
      a_deadline = deadline;
      a_budget_pta = None;
      a_budget_tuples = None;
      a_cache = None;
    }

let inline_request ?deadline ~name source = analyze_request ?deadline ~source ~name ()

(* A source file for path requests: a short request line, read by the
   daemon in one round, whatever the size of the program. *)
let with_source_file source f =
  let path = Filename.temp_file "nadroid-serve" ".mand" in
  Out_channel.with_open_bin path (fun oc -> output_string oc source);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* An app whose filters, stalled by [Test_robustness.with_stalled_filters],
   keep a domain busy for about half a second when the request carries a
   deadline (the stall fires in deadlined analyses only); unstalled it
   takes about 20 ms. *)
let slow_app = lazy (Nadroid_corpus.Synth.adversarial ~seed:0 ~size:20)

(* -- raw connections ----------------------------------------------------- *)

let raw_send r line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write r.fd b off (Bytes.length b - off))
  in
  go 0

(* Whether a reply byte is waiting right now. *)
let raw_ready r =
  Buffer.length r.buf > 0
  || match Unix.select [ r.fd ] [] [] 0.0 with [], _, _ -> false | _ -> true

(* Read one more chunk within [left] seconds: [false] at EOF. *)
let raw_fill ~what r left =
  if left <= 0.0 then Alcotest.failf "%s: timed out; got %d bytes" what (Buffer.length r.buf);
  match Unix.select [ r.fd ] [] [] left with
  | [], _, _ -> Alcotest.failf "%s: timed out; got %d bytes" what (Buffer.length r.buf)
  | _ -> (
      let chunk = Bytes.create 65536 in
      match Unix.read r.fd chunk 0 (Bytes.length chunk) with
      | 0 -> false
      | n ->
          Buffer.add_subbytes r.buf chunk 0 n;
          true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> true)

(* The next reply line, or [None] if the daemon closes the connection
   first. *)
let raw_recv ?(secs = 20.0) ~what r =
  let deadline = Unix.gettimeofday () +. secs in
  let rec go () =
    let s = Buffer.contents r.buf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear r.buf;
        Buffer.add_string r.buf (String.sub s (i + 1) (String.length s - i - 1));
        Some (String.sub s 0 i)
    | None -> if raw_fill ~what r (deadline -. Unix.gettimeofday ()) then go () else None
  in
  go ()

let expect_reply ~what want r =
  match raw_recv ~what r with
  | Some got -> Alcotest.(check string) what want got
  | None -> Alcotest.failf "%s: the daemon closed the connection" what

(* Wait for the daemon to unlink its socket: the last thing Server.run
   does before it returns. *)
let await_exit name =
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec go () =
    if Sys.file_exists (sock_path name) then
      if Unix.gettimeofday () > deadline then Alcotest.fail "the daemon did not exit"
      else begin
        Unix.sleepf 0.01;
        go ()
      end
  in
  go ()

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
   domain that served it (there is only one) must answer the next
   request of the same connection cleanly. The daemon's domains run in
   this process, so the stalled-filter plan slows their deadlined
   analyses too. *)
let deadline_degrades_not_kills () =
  let adversarial = Nadroid_corpus.Synth.adversarial ~seed:0 ~size:40 in
  let small = List.hd (Lazy.force Corpus.all) in
  Test_robustness.with_stalled_filters (fun () ->
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
          (* same connection, hence same (sole) domain: a clean run *)
          let r2 =
            Client.request c (inline_request ~name:small.Corpus.name small.Corpus.source)
          in
          Alcotest.(check string) "next request on the domain is clean"
            (cold_response ~name:small.Corpus.name small.Corpus.source)
            r2;
          Client.close c))

(* A client that vanishes mid-request costs its connection, nothing
   else: the daemon still answers others and still drains cleanly. *)
let disconnect_mid_request_is_isolated () =
  let adversarial = Nadroid_corpus.Synth.adversarial ~seed:0 ~size:40 in
  let small = List.hd (Lazy.force Corpus.all) in
  Test_robustness.with_stalled_filters (fun () ->
      with_daemon ~jobs:1 "disconnect" (fun listen ->
          let dead = Client.connect listen in
          Client.send dead (inline_request ~deadline:0.4 ~name:"orphan" adversarial);
          (* hang up without reading the response *)
          Client.close dead;
          let c = Client.connect listen in
          Alcotest.(check string) "daemon still answers" "{\"ok\":true}"
            (Client.request c Protocol.ping_request);
          Alcotest.(check string) "the domain is not wedged"
            (cold_response ~name:small.Corpus.name small.Corpus.source)
            (Client.request c (inline_request ~name:small.Corpus.name small.Corpus.source));
          Client.close c))

(* Pipelined requests: a client that writes several request lines in one
   burst and then goes quiet must still get every response. Once the
   first response flushes there is no further fd event for the lines
   already buffered server-side, so the loop itself must keep
   dispatching them. The burst mixes pings (answered by the poller) with
   an analyze (answered by the domain that ran it) to cover both paths,
   and reads are select-bounded so a regression fails instead of
   hanging. *)
let pipelined_requests_all_answered () =
  let small = List.hd (Lazy.force Corpus.all) in
  with_daemon ~jobs:1 "pipeline" (fun listen ->
      let r = raw_connect listen in
      raw_send r
        (String.concat "\n"
           [
             Protocol.ping_request;
             inline_request ~name:small.Corpus.name small.Corpus.source;
             Protocol.ping_request;
           ]);
      expect_reply ~what:"pipelined response 0" "{\"ok\":true}" r;
      expect_reply ~what:"pipelined response 1"
        (cold_response ~name:small.Corpus.name small.Corpus.source)
        r;
      expect_reply ~what:"pipelined response 2" "{\"ok\":true}" r)

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

(* -- the domains' turns ---------------------------------------------------- *)

(* [jobs = 1]: one domain alternates between polling and analysing. Two
   connections take turns with it, several requests each, and every
   reply is the cold run's — including the fault document of a program
   whose frontend raises, after which the same domain serves on. *)
let one_domain_serves_two_connections () =
  let apps = List.filteri (fun i _ -> i < 3) (Lazy.force Corpus.all) in
  let plan =
    [
      List.map (fun (a : Corpus.app) -> (a.Corpus.name, a.Corpus.source)) apps;
      ("broken", "class A extends Activity { void onCreate( }")
      :: List.rev_map (fun (a : Corpus.app) -> (a.Corpus.name, a.Corpus.source)) apps;
    ]
  in
  let expected = List.map (List.map (fun (name, src) -> cold_response ~name src)) plan in
  Alcotest.(check int) "the broken program is a frontend fault" 1
    (Protocol.response_exit (List.hd (List.nth expected 1)));
  with_daemon ~jobs:1 "one-domain" (fun listen ->
      let clients =
        List.map
          (fun reqs ->
            Domain.spawn (fun () ->
                let c = Client.connect listen in
                let rs = List.map (fun (name, src) -> Client.request c (inline_request ~name src)) reqs in
                Client.close c;
                rs))
          plan
      in
      List.iteri
        (fun k (want, got) ->
          List.iteri
            (fun i (w, g) ->
              Alcotest.(check string) (Printf.sprintf "connection %d, request %d" k i) w g)
            (List.combine want got))
        (List.combine expected (List.map Domain.join clients)))

(* Shutdown while every domain is mid-analysis: nobody reads the socket
   until one frees up. Every reply in flight is then delivered, and the
   daemon exits. *)
let shutdown_while_all_busy () =
  let slow = Lazy.force slow_app in
  with_source_file slow (fun slow_path ->
      let want = cold_response ~name:slow_path slow in
      Test_robustness.with_stalled_filters (fun () ->
          with_daemon ~jobs:2 "shutdown-busy" (fun listen ->
              let x = raw_connect listen and y = raw_connect listen and z = raw_connect listen in
              raw_send x (analyze_request ~path:slow_path ~deadline:60.0 ());
              raw_send y (analyze_request ~path:slow_path ~deadline:60.0 ());
              Unix.sleepf 0.15;
              raw_send z Protocol.shutdown_request;
              expect_reply ~what:"the shutdown is acknowledged"
                "{\"ok\":true,\"draining\":true}" z;
              expect_reply ~what:"first in-flight reply" want x;
              expect_reply ~what:"second in-flight reply" want y;
              List.iter raw_close [ x; y; z ];
              await_exit "shutdown-busy")))

(* A reply larger than the socket buffer: the domain that ran the
   request writes what fits, and the poller — woken for it — writes the
   rest as a slow reader drains the socket. *)
let large_reply_to_slow_reader () =
  let big = Nadroid_corpus.Synth.adversarial ~seed:0 ~size:60 in
  with_source_file big (fun path ->
      let want = cold_response ~name:path big in
      Alcotest.(check bool) "the reply outgrows a default socket buffer (208 KiB)" true
        (String.length want > 2 * 212_992);
      with_daemon ~jobs:2 "large-reply" (fun listen ->
          let r = raw_connect listen in
          raw_send r (analyze_request ~path ());
          (* hold off reading until the first write has filled the buffer *)
          (match Unix.select [ r.fd ] [] [] 20.0 with
          | [], _, _ -> Alcotest.fail "no reply within 20 s"
          | _ -> ());
          Unix.sleepf 0.2;
          expect_reply ~what:"the whole large reply" want r))

(* A client that hangs up while its request runs on one domain, with the
   other domain in select: the poller closes its connection, the finished
   reply is dropped, and both domains serve on. *)
let hangup_while_other_polls () =
  let slow = Lazy.force slow_app and small = List.hd (Lazy.force Corpus.all) in
  Test_robustness.with_stalled_filters (fun () ->
      with_daemon ~jobs:2 "hangup" (fun listen ->
          let x = raw_connect listen in
          raw_send x (inline_request ~deadline:60.0 ~name:"orphan" slow);
          raw_close x;
          let c = Client.connect listen in
          Alcotest.(check string) "the other domain answers" "{\"ok\":true}"
            (Client.request c Protocol.ping_request);
          let want = cold_response ~name:small.Corpus.name small.Corpus.source in
          for i = 1 to 3 do
            Alcotest.(check string)
              (Printf.sprintf "request %d after the hang-up" i)
              want
              (Client.request c (inline_request ~name:small.Corpus.name small.Corpus.source))
          done;
          Client.close c))

(* A ping sent while every domain is analysing waits for the first of
   them to finish, then is answered; no reply is lost on the way. *)
let ping_while_all_busy () =
  let slow = Lazy.force slow_app in
  let want = cold_response ~name:"slow" slow in
  Test_robustness.with_stalled_filters (fun () ->
      with_daemon ~jobs:2 "ping-busy" (fun listen ->
          let x = raw_connect listen and y = raw_connect listen and z = raw_connect listen in
          raw_send x (inline_request ~deadline:60.0 ~name:"slow" slow);
          raw_send y (inline_request ~deadline:60.0 ~name:"slow" slow);
          Unix.sleepf 0.15;
          raw_send z Protocol.ping_request;
          expect_reply ~what:"the ping" "{\"ok\":true}" z;
          expect_reply ~what:"first analysis" want x;
          expect_reply ~what:"second analysis" want y))

(* The hand-off: the domain that takes a request while nobody else polls
   makes a waiting domain the poller, so a ping is answered while the
   analysis is still running. *)
let ping_answered_during_analysis () =
  let slow = Lazy.force slow_app in
  let want = cold_response ~name:"slow" slow in
  Test_robustness.with_stalled_filters (fun () ->
      with_daemon ~jobs:2 "handoff" (fun listen ->
          let x = raw_connect listen and y = raw_connect listen in
          raw_send x (inline_request ~deadline:60.0 ~name:"slow" slow);
          Unix.sleepf 0.1;
          raw_send y Protocol.ping_request;
          expect_reply ~what:"the ping" "{\"ok\":true}" y;
          Alcotest.(check bool) "the analysis is still running" false (raw_ready x);
          expect_reply ~what:"the analysis" want x))

(* An injected send error on a reply, written by the domain that ran
   the request while the other polls: the connection closes — the
   client sees EOF at once — and the daemon serves on. *)
let send_error_while_other_polls () =
  let slow = Lazy.force slow_app in
  Test_robustness.with_faults "filter=MHB:stall;server_send:1" (fun () ->
      with_daemon ~jobs:2 "send-error" (fun listen ->
          let x = raw_connect listen and y = raw_connect listen in
          raw_send x (inline_request ~deadline:60.0 ~name:"slow" slow);
          (match raw_recv ~secs:5.0 ~what:"the failed reply" x with
          | None -> ()
          | Some line -> Alcotest.failf "expected EOF, got %d bytes" (String.length line));
          raw_send y Protocol.ping_request;
          expect_reply ~what:"the daemon serves on" "{\"ok\":true}" y))

let suite =
  [
    ( "serve-protocol",
      [
        QCheck_alcotest.to_alcotest json_roundtrip;
        QCheck_alcotest.to_alcotest json_string_matches_oracle;
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
        Alcotest.test_case "jobs 1: two connections take turns, byte-identical" `Quick
          one_domain_serves_two_connections;
        Alcotest.test_case "shutdown while every domain analyses delivers every reply" `Quick
          shutdown_while_all_busy;
        Alcotest.test_case "a reply larger than the socket buffer reaches a slow reader" `Quick
          large_reply_to_slow_reader;
        Alcotest.test_case "a hang-up while another domain polls costs one connection" `Quick
          hangup_while_other_polls;
        Alcotest.test_case "a ping while every domain is busy is answered after" `Quick
          ping_while_all_busy;
        Alcotest.test_case "a ping is answered while another domain analyses" `Quick
          ping_answered_during_analysis;
        Alcotest.test_case "a send error while another domain polls closes one connection"
          `Quick send_error_while_other_polls;
      ] );
  ]
