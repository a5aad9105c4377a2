(* The child batch runner: one cold batch, composed from the library the
   way a batch entry point of the program composes it. Each file is read
   and keyed (Cache.key) as [nadroid analyze] does, analysed, and its
   JSON object emitted in input order. [--mode] picks the analysis:

   - [corpus]: Pipeline.analyze with one fresh interner shared by the
     batch, as Corpus.analyze_all's cold corpus run shares one;
   - [stream]: Pipeline.analyze on a symbol table of its own per app, as
     [nadroid analyze --stream] runs it;
   - [supervise]: Supervise.analyze on supervised worker processes and a
     Journal record per app at [journal_path out], as
     [nadroid analyze --stream --supervise --journal] runs it.

   It prints [ready] once it can take its first input — builtins forced
   (and the interner made), or every supervised worker answering a
   probe — then runs the batch and prints
   [done <t_go> <t_done> <vmhwm_kb>]. Verdict lines go to the [--out]
   file, and one [<slot start> <result> <emitted>] line per verdict to
   [<out>.times]. *)

module Pipeline = Nadroid_core.Pipeline
module Cache = Nadroid_core.Cache
module Fault = Nadroid_core.Fault
module Journal = Nadroid_core.Journal
module Parallel = Nadroid_core.Parallel
module Supervise = Nadroid_core.Supervise
module Report = Nadroid_core.Report
module Protocol = Nadroid_serve.Protocol
module Clock = Nadroid_clock.Clock

(* To end of file: files under /proc report size 0. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let lines_of_file path =
  String.split_on_char '\n' (read_file path) |> List.filter (fun l -> l <> "")

(* VmHWM of a live process in kB; 0 when it is gone or /proc is absent. *)
let vm_hwm_kb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | status ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
          | kb -> kb
          | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> acc)
        0
        (String.split_on_char '\n' status)

(* Pids whose parent is [pid], from /proc/<p>/stat. *)
let children_of pid =
  Array.fold_left
    (fun acc entry ->
      match int_of_string_opt entry with
      | None -> acc
      | Some p -> (
          match read_file (Printf.sprintf "/proc/%d/stat" p) with
          | exception Sys_error _ -> acc
          | stat -> (
              (* the command name is parenthesized and may hold spaces *)
              match String.rindex_opt stat ')' with
              | None -> acc
              | Some i -> (
                  match
                    String.split_on_char ' '
                      (String.sub stat (i + 2) (String.length stat - i - 2))
                  with
                  | _state :: ppid :: _ when int_of_string_opt ppid = Some pid -> p :: acc
                  | _ -> acc))))
    []
    (try Sys.readdir "/proc" with Sys_error _ -> [||])

(* The smallest app a worker can answer: used to see every supervised
   worker reply once before the batch starts. *)
let probe_source = "class Probe extends Activity {\n  method void onCreate() { }\n}\n"

let config = Pipeline.default_config

let journal_path out = out ^ ".journal"

let main args =
  let get name =
    match List.assoc_opt name args with Some v -> v | None -> failwith ("batch: missing --" ^ name)
  in
  let jobs = int_of_string (get "jobs") in
  let mode = get "mode" in
  if not (List.mem mode [ "corpus"; "stream"; "supervise" ]) then failwith ("batch: unknown mode " ^ mode);
  let supervise = mode = "supervise" in
  Sys.chdir (get "cwd");
  let files = Array.of_list (lines_of_file (get "files")) in
  let out_path = get "out" in
  (* set-up: what [nadroid analyze] does before its first file *)
  ignore (Lazy.force Nadroid_lang.Builtins.program);
  let interner = if mode = "corpus" then Some (Pipeline.create_interner ()) else None in
  let spool =
    if not supervise then None
    else begin
      let sp = Supervise.create ~jobs () in
      List.iter
        (function
          | Ok (Ok _) -> ()
          | Ok (Error f) -> failwith ("probe: " ^ Fault.to_string f)
          | Error e -> raise e)
        (Parallel.map_result ~jobs
           (fun _ -> Supervise.analyze sp ~config ~file:"probe" probe_source)
           (List.init jobs Fun.id));
      Some sp
    end
  in
  let journal =
    if supervise then Some (fst (Journal.open_ ~path:(journal_path out_path) ~resume:false)) else None
  in
  print_string "ready\n";
  flush stdout;
  let n = Array.length files in
  let starts = Array.make n 0.0 and ends = Array.make n 0.0 and emits = Array.make n 0.0 in
  let oc = open_out_bin out_path in
  let analyze_one path =
    let src = read_file path in
    let key = Cache.key ~config src in
    let result =
      match spool with
      | Some sp -> Supervise.analyze sp ~config ~file:path src
      | None ->
          Fault.wrap (fun () ->
              Cache.entry_of_result (Pipeline.analyze ~config ?interner ~file:path src))
    in
    Option.iter
      (fun j -> Journal.append j { Journal.j_name = path; j_key = key; j_result = result })
      journal;
    result
  in
  let t_go = Clock.now () in
  Parallel.stream ~jobs ~n
    (fun i ->
      starts.(i) <- Clock.now ();
      let r = analyze_one files.(i) in
      ends.(i) <- Clock.now ();
      r)
    (fun i r ->
      let line =
        match r with
        | Ok (Ok e) -> Protocol.entry_json ~name:files.(i) e
        | Ok (Error f) -> Report.fault_to_json ~name:files.(i) f
        | Error exn -> Report.fault_to_json ~name:files.(i) (Fault.of_exn exn)
      in
      output_string oc line;
      output_char oc '\n';
      emits.(i) <- Clock.now ());
  let t_done = Clock.now () in
  close_out oc;
  let hwm =
    List.fold_left
      (fun acc pid -> max acc (vm_hwm_kb pid))
      (vm_hwm_kb (Unix.getpid ()))
      (if supervise then children_of (Unix.getpid ()) else [])
  in
  Option.iter Supervise.shutdown spool;
  Option.iter Journal.close journal;
  let tc = open_out_bin (out_path ^ ".times") in
  for i = 0 to n - 1 do
    Printf.fprintf tc "%.9f %.9f %.9f\n" starts.(i) ends.(i) emits.(i)
  done;
  close_out tc;
  Printf.printf "done %.9f %.9f %d\n%!" t_go t_done hwm
