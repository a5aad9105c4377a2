(* Driving a fresh [nadroid serve] daemon: start it, poll its socket
   until its first ping reply (no client backoff, which alone would add
   15–25 ms of random delay to a few-ms start), then run closed-loop
   connections through pre-rendered request lines. *)

module Protocol = Nadroid_serve.Protocol
module Clock = Nadroid_clock.Clock

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

let send fd line = write_all fd (line ^ "\n") 0

let connect_once sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      None

let rec poll_connect ~deadline sock =
  match connect_once sock with
  | Some fd -> fd
  | None ->
      if Clock.now () > deadline then failwith ("daemon never listened on " ^ sock);
      Unix.sleepf 0.0002;
      poll_connect ~deadline sock

type daemon = { pid : int; sock : string; conns : Proc.reader array; setup : float }

(* Start a daemon on [dir]/n.sock with its cache in [dir]/cache and open
   [connections] connections; [setup] runs from the spawn to the first
   ping reply. *)
let start ~nadroid ~dir ~cap ~connections =
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "n.sock" in
  let t0 = Clock.now () in
  let pid, _ =
    Proc.spawn ~capture:false nadroid
      [
        "serve"; "--socket"; sock; "--jobs"; string_of_int Inputs.jobs; "--cache-dir";
        Filename.concat dir "cache"; "--cache-max-bytes"; string_of_int cap; "--quiet";
      ]
  in
  let first = Proc.reader (poll_connect ~deadline:(t0 +. 60.0) sock) in
  send first.Proc.fd Protocol.ping_request;
  let pong = Proc.expect_line first in
  let setup = Clock.now () -. t0 in
  if pong <> Protocol.ok_response ~draining:false then failwith ("bad ping reply: " ^ pong);
  let rest =
    List.init (connections - 1) (fun _ ->
        Proc.reader (poll_connect ~deadline:(Clock.now () +. 10.0) sock))
  in
  { pid; sock; conns = Array.of_list (first :: rest); setup }

let stop d =
  send d.conns.(0).Proc.fd Protocol.shutdown_request;
  ignore (Proc.expect_line d.conns.(0));
  Array.iter (fun r -> Unix.close r.Proc.fd) d.conns;
  Proc.wait d.pid

(* Run connection [c] through [seqs.(c)] closed-loop, all connections at
   once from this one process: a connection sends its next request as
   soon as it has read the reply to the previous one.
   [on_reply c i sent received line] sees every reply. *)
let closed_loop d (seqs : Inputs.request array array) on_reply =
  let n = Array.length seqs in
  let next = Array.make n 0 and sent = Array.make n 0.0 in
  let busy = Array.make n false in
  let send_next c =
    if next.(c) < Array.length seqs.(c) then begin
      busy.(c) <- true;
      sent.(c) <- Clock.now ();
      send d.conns.(c).Proc.fd seqs.(c).(next.(c)).Inputs.r_line
    end
  in
  for c = 0 to n - 1 do
    send_next c
  done;
  let rec drain c =
    match Proc.take_line d.conns.(c) with
    | None -> ()
    | Some line ->
        let now = Clock.now () in
        busy.(c) <- false;
        on_reply c next.(c) sent.(c) now line;
        next.(c) <- next.(c) + 1;
        send_next c;
        drain c
  in
  while Array.exists Fun.id busy do
    let fds = List.filter_map Fun.id (List.init n (fun c -> if busy.(c) then Some d.conns.(c).Proc.fd else None)) in
    let ready = Proc.select_read fds 150.0 in
    if ready = [] then failwith "daemon stopped answering";
    for c = 0 to n - 1 do
      if busy.(c) && List.mem d.conns.(c).Proc.fd ready then begin
        if not (Proc.fill d.conns.(c)) then failwith "daemon closed a connection";
        drain c
      end
    done
  done
