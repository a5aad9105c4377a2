(* Child processes of a benchmark run: spawned with a clean
   environment, read line by line under a deadline, and always reaped —
   [kill_all] runs at exit, so no child outlives the run. *)

let live : int list ref = ref []

(* Our environment minus the variables that would turn a child into a
   supervised worker or inject faults into it. *)
let env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun e ->
         not
           (String.starts_with ~prefix:"NADROID_SUPERVISED_WORKER=" e
           || String.starts_with ~prefix:"NADROID_FAULTS=" e))
  |> Array.of_list

let spawn ?(capture = true) prog args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let r, w =
    if capture then
      let r, w = Unix.pipe ~cloexec:true () in
      (Some r, w)
    else (None, devnull)
  in
  let pid =
    Unix.create_process_env prog (Array.of_list (prog :: args)) (env ()) devnull w Unix.stderr
  in
  live := pid :: !live;
  if capture then Unix.close w;
  Unix.close devnull;
  (pid, r)

let wait pid =
  let _, status = Unix.waitpid [] pid in
  live := List.filter (( <> ) pid) !live;
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> failwith (Printf.sprintf "child %d exited %d" pid n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> failwith (Printf.sprintf "child %d killed by signal %d" pid n)

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* A line reader over a file descriptor. *)
type reader = { fd : Unix.file_descr; mutable pending : string }

let reader fd = { fd; pending = "" }

let chunk = Bytes.create 65536

(* The next complete line already read, if any. *)
let take_line r =
  match String.index_opt r.pending '\n' with
  | None -> None
  | Some i ->
      let line = String.sub r.pending 0 i in
      r.pending <- String.sub r.pending (i + 1) (String.length r.pending - i - 1);
      Some line

(* One read; [false] at end of file. *)
let rec fill r =
  match Unix.read r.fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
      r.pending <- r.pending ^ Bytes.sub_string chunk 0 n;
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill r

let rec select_read fds timeout =
  match Unix.select fds [] [] timeout with
  | ready, _, _ -> ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_read fds timeout

(* The next line; [Failure] when nothing arrives for 150 s or the writer
   closes first. *)
let rec expect_line r =
  match take_line r with
  | Some l -> l
  | None ->
      if select_read [ r.fd ] 150.0 = [] then failwith "timed out waiting for a child process";
      if not (fill r) then failwith "child process closed its output early";
      expect_line r
