(* Append-only checkpoint journal for batch runs.

   Each completed app — success or structured fault — is appended as one
   {!Cache} codec frame of kind [journal]:

     nadroid-journal <Cache.version> <payload-md5-hex> <payload-len>\n<payload>\n

   The checksum guards against bit rot and, more importantly, against
   the half-written tail a [kill -9] mid-append leaves behind; the
   version keeps a journal written by another build from being
   unmarshalled. Replay scans the longest valid prefix and stops at the
   first record that fails to decode — everything before that point was
   flushed before the crash and is trusted; everything after is garbage
   and is truncated away when the journal is reopened for appending.

   The journal stays one log rather than a directory of cache files: an
   append is one buffered write and a flush, where a cache store is a
   temp file, a write and a rename.

   Appends are serialized by a mutex (batch tasks run on multiple
   domains) and flushed immediately: a flush hands the bytes to the
   kernel, so they survive the *process* dying (the durability target
   here — SIGKILL, SIGSEGV, OOM), even though they could still be lost
   to a whole-machine power cut. *)

type record = {
  j_name : string;  (** the app/file name as the batch addressed it *)
  j_key : string;  (** {!Cache.key} of (source, config, version) at completion *)
  j_result : (Cache.entry, Fault.t) result;
}

type t = { path : string; oc : out_channel; m : Mutex.t }

let kind : record Cache.kind = Cache.kind "journal"

(* Longest valid record prefix of [raw], with its byte length. *)
let scan raw =
  let rec go pos acc =
    match Cache.decode kind raw pos with
    | Ok (r, next) -> go next (r :: acc)
    | Error _ -> (List.rev acc, pos)
  in
  go 0 []

let read path = try Cache.read_file path with Sys_error _ -> ""

let replay ~path = fst (scan (read path))

let open_ ~path ~resume : t * record list =
  let dir = Filename.dirname path in
  if not (String.equal dir "") then Cache.mkdir_p dir;
  let records =
    if resume then begin
      let records, valid = scan (read path) in
      (* chop the garbage tail a crashed appender left, so the reopened
         journal stays a pure valid prefix *)
      (if Sys.file_exists path then
         let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
         Fun.protect
           ~finally:(fun () -> Unix.close fd)
           (fun () -> Unix.ftruncate fd valid));
      records
    end
    else []
  in
  let flags =
    if resume then [ Open_wronly; Open_append; Open_creat; Open_binary ]
    else [ Open_wronly; Open_trunc; Open_creat; Open_binary ]
  in
  ({ path; oc = open_out_gen flags 0o644 path; m = Mutex.create () }, records)

let append t (r : record) : unit =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      Faultinject.trip ~key:r.j_name Faultinject.Journal_append;
      output_string t.oc (Cache.encode kind r);
      (* flush per record: the bytes must survive the process, not wait
         for a buffer that dies with it *)
      flush t.oc)

let close t = try close_out t.oc with Sys_error _ -> ()

(* Last record wins per name: a resumed run may have journaled an app
   twice (once per attempt); only the newest completion is the app's
   state. *)
let latest (records : record list) : (string, record) Hashtbl.t
    =
  let h = Hashtbl.create (List.length records) in
  List.iter (fun r -> Hashtbl.replace h r.j_name r) records;
  h
