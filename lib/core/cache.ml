(* Content-addressed on-disk cache for analysis results, and the one
   frame codec every persisted or piped record goes through.

   A cache entry is addressed by the digest of (source bytes, canonical
   pipeline-config rendering, analyzer version, file name): any change
   to the source, the configuration, the analyzer or the name busts the
   address, so a hit can only ever return what a fresh run of the same
   analyzer over the same input would produce. The name is part of the
   input because every report embeds it: two files with the same text
   ("twins") would otherwise be served each other's report. Entries
   store the *rendered* artifacts — the warning counts, the final report
   string and the cold run's metrics — not the solver state, which keeps
   them small, Marshal-safe and exactly sufficient for every consumer
   (CLI output, golden canonical reports, the serve daemon).

   Integrity: an entry file is one codec frame (below); a truncated,
   corrupted, foreign-version or wrong-format file is reported as
   [Corrupt] carrying a structured {!Fault.t} and treated by callers as
   a miss — the cache can serve stale bytes never, wrong bytes never, at
   worst no bytes. Writes go through a temp file + rename, so a crashed
   writer leaves no half-written addressable entry. *)

(* Bump on any change to analysis semantics or to a framed record's
   layout — the cache entry, the journal record, the worker request and
   reply, and [Pipeline.metrics], which entries embed. Every frame
   carries it, and a frame of another version is never unmarshalled. *)
let version = "nadroid-8"

let default_dir = "_nadroid_cache"

type entry = {
  e_potential : int;
  e_after_sound : int;
  e_after_unsound : int;
  e_report : string;  (** rendered final report ({!Report.to_string}) *)
  e_metrics : Pipeline.metrics;  (** metrics of the producing (cold) run *)
}

type outcome = Hit | Miss | Corrupt of Fault.t

(* -- the frame codec ------------------------------------------------------ *)

(* Every record that leaves the process — a cache entry file, a journal
   record, a supervised worker's request or reply — is one frame:

     nadroid-<kind> <version> <payload-md5-hex> <payload-len>\n<payload>\n

   The payload is the Marshal of the record. Marshal decodes any bytes
   as whatever type the caller asks for, so a frame is unmarshalled only
   after its kind (naming the record type), its version (naming the
   record layout), its length, its terminator and its checksum all check
   out. This is the only Marshal in the program. *)

type 'a kind = string

let kind name = name

let entry_kind : entry kind = kind "cache"

let encode (kind : 'a kind) (v : 'a) : string =
  let payload = Marshal.to_string v [] in
  Printf.sprintf "nadroid-%s %s %s %d\n%s\n" kind version
    (Digest.to_hex (Digest.string payload))
    (String.length payload) payload

type header_error = Noise | Bad of string

(* Checksum and payload length of a [kind] header line of this version.
   A four-token line tagged [nadroid-] is a frame header even when its
   kind is another: such a line is a frame of another type or of another
   build (the retired [nadroid-worker 1] included), never noise. The
   length stays below [max_int], so adding the terminator cannot wrap. *)
let parse_header kind line =
  let tag = "nadroid-" ^ kind in
  match String.split_on_char ' ' line with
  | [ t; _; _; _ ] when String.starts_with ~prefix:"nadroid-" t && not (String.equal t tag) ->
      Error (Bad (Printf.sprintf "%s frame, not %s" t tag))
  | t :: _ when not (String.equal t tag) -> Error Noise
  | _ :: v :: _ when not (String.equal v version) ->
      Error (Bad (Printf.sprintf "%s frame of version %s, not %s" kind v version))
  | [ _; _; digest; len ] -> (
      match int_of_string_opt len with
      | Some n when n >= 0 && n < max_int -> Ok (digest, n)
      | _ -> Error (Bad "malformed frame header"))
  | _ -> Error (Bad "malformed frame header")

let header kind line = Result.map (fun (_, n) -> n + 1) (parse_header kind line)

let decode (kind : 'a kind) s pos : ('a * int, string) result =
  match String.index_from_opt s pos '\n' with
  | None -> Error "truncated frame header"
  | Some nl -> (
      match parse_header kind (String.sub s pos (nl - pos)) with
      | Error Noise -> Error ("not a " ^ kind ^ " frame")
      | Error (Bad why) -> Error why
      | Ok (digest, len) -> (
          let p = nl + 1 in
          (* [len] may be near [max_int]: compare without adding *)
          if len > String.length s - p - 1 then Error "truncated frame payload"
          else if s.[p + len] <> '\n' then Error "bad frame terminator"
          else if not (String.equal digest (Digest.to_hex (Digest.substring s p len))) then
            Error "frame checksum mismatch"
          else
            match Marshal.from_string s p with
            | v -> Ok (v, p + len + 1)
            | exception _ -> Error "undecodable frame payload"))

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* -- entries --------------------------------------------------------------- *)

(* Canonical rendering of everything in a config that can influence the
   result. Budgets are included: a budget-degraded report is a different
   (still sound) report. *)
let config_digest (c : Pipeline.config) : string =
  let names ns = String.concat "+" (List.map Filters.name_to_string ns) in
  let opt f = function None -> "-" | Some v -> f v in
  Printf.sprintf
    "k=%d;sound=%s;unsound=%s;atomic_ig=%b;pta_steps=%s;pta_tuples=%s;deadline=%s;solver=%s"
    c.Pipeline.k (names c.Pipeline.sound) (names c.Pipeline.unsound) c.Pipeline.atomic_ig
    (opt string_of_int c.Pipeline.budgets.Pipeline.pta_steps)
    (opt string_of_int c.Pipeline.budgets.Pipeline.pta_tuples)
    (opt string_of_float c.Pipeline.budgets.Pipeline.deadline)
    (match c.Pipeline.solver with
    | Nadroid_analysis.Pta.Worklist -> "worklist"
    | Nadroid_analysis.Pta.Reference -> "reference")

let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let key ?(version = version) ~(config : Pipeline.config) (src : string) : string =
  digest [ Digest.string src; config_digest config; version ]

let address ~config ~file src = digest [ key ~config src; file ]

let path ~dir k = Filename.concat dir (k ^ ".cache")

let corrupt what = Corrupt (Fault.Internal (Printf.sprintf "cache: %s" what))

let find ~dir (k : string) : entry option * outcome =
  let p = path ~dir k in
  if not (Sys.file_exists p) then (None, Miss)
  else
    match
      Faultinject.trip Faultinject.Cache_read;
      read_file p
    with
    | exception e ->
        (None, corrupt (Printf.sprintf "unreadable entry %s (%s)" p (Printexc.to_string e)))
    | raw -> (
        match decode entry_kind raw 0 with
        | Ok (e, n) when n = String.length raw ->
            (* touch the entry so LRU eviction tracks hits, not just
               stores; [utimes p 0 0] sets both times to "now".
               Best-effort: a racing eviction may have removed the file
               already. *)
            (try Unix.utimes p 0.0 0.0 with Unix.Unix_error _ -> ());
            (Some e, Hit)
        | Ok _ -> (None, corrupt ("trailing bytes in " ^ p))
        | Error why -> (None, corrupt (Printf.sprintf "%s in %s" why p)))

(* Per-process store counter: two domains of one process share a pid, so
   a pid-only temp name let concurrent stores of the same key interleave
   writes into one file and publish a garbled entry via [Sys.rename]. *)
let store_seq = Atomic.make 0

let store ~dir (k : string) (e : entry) : unit =
  Faultinject.trip Faultinject.Cache_write;
  mkdir_p dir;
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".tmp.%s.%d.%d" k (Unix.getpid ()) (Atomic.fetch_and_add store_seq 1))
  in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode entry_kind e));
  (match Faultinject.trip Faultinject.Cache_rename with
  | () -> ()
  | exception e ->
      (* a failed publish must not leak the temp file on top of the
         injected error — real rename failures are swept by sweep_tmp *)
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  Sys.rename tmp (path ~dir k)

(* -- orphaned temp files --------------------------------------------------- *)

(* A crash (or SIGKILL) between the temp write and the rename strands a
   [.tmp.*] file: it is not addressable, [stat_entries] skips it, so
   [--cache-max-bytes] accounting never sees it and it leaks forever.
   Sweep such orphans when they are old enough that no live store can
   still own them — stores are sub-second, so minutes of age means a
   dead writer. Concurrent sweepers racing over the same orphan are
   harmless (removal tolerates ENOENT). *)
let sweep_tmp ?(max_age = 600.0) ~dir () : int =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      let now = Unix.time () in
      let removed = ref 0 in
      Array.iter
        (fun name ->
          if String.starts_with ~prefix:".tmp." name then
            let p = Filename.concat dir name in
            match Unix.stat p with
            | { Unix.st_kind = Unix.S_REG; st_mtime; _ }
              when now -. st_mtime > max_age -> (
                try
                  Sys.remove p;
                  incr removed
                with Sys_error _ -> ())
            | _ | (exception Unix.Unix_error _) -> ())
        names;
      !removed

(* Sweep each directory once per process, the first time the cached
   front door opens it — "on cache open" without a stat storm on every
   analyze. *)
let swept : (string, unit) Hashtbl.t = Hashtbl.create 4

let swept_m = Mutex.create ()

let sweep_on_open ~dir =
  let fresh =
    Mutex.lock swept_m;
    let fresh = not (Hashtbl.mem swept dir) in
    if fresh then Hashtbl.replace swept dir ();
    Mutex.unlock swept_m;
    fresh
  in
  if fresh then ignore (sweep_tmp ~dir ())

(* -- size cap / LRU eviction --------------------------------------------- *)

(* Addressable entries of [dir] with their stat, skipping foreign files
   and entries a concurrent writer/evictor removed between readdir and
   stat. *)
let stat_entries ~dir : (string * float * int) list =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun name ->
             if not (Filename.check_suffix name ".cache") then None
             else
               let p = Filename.concat dir name in
               match Unix.stat p with
               | { Unix.st_kind = Unix.S_REG; st_mtime; st_size; _ } ->
                   Some (p, st_mtime, st_size)
               | _ | (exception Unix.Unix_error _) -> None)

let dir_bytes ~dir =
  List.fold_left (fun acc (_, _, size) -> acc + size) 0 (stat_entries ~dir)

(* Bring the combined size of the [*.cache] entries under [max_bytes] by
   removing least-recently-used entries first — mtimes order the entries
   because both {!store} (creation) and a {!find} hit (utimes touch)
   refresh them. Ties break on the path for determinism. Removals
   tolerate races: losing an entry to a concurrent evictor still shrinks
   the directory. Returns the number of entries removed. *)
let evict ~dir ~max_bytes : int =
  let entries =
    List.sort
      (fun (p1, m1, _) (p2, m2, _) -> match compare m1 m2 with 0 -> compare p1 p2 | c -> c)
      (stat_entries ~dir)
  in
  let total = List.fold_left (fun acc (_, _, size) -> acc + size) 0 entries in
  let removed = ref 0 in
  let excess = ref (total - max_bytes) in
  List.iter
    (fun (p, _, size) ->
      if !excess > 0 then begin
        (try
           Sys.remove p;
           incr removed
         with Sys_error _ -> ());
        (* count a racing removal as shrinkage too — the bytes are gone *)
        excess := !excess - size
      end)
    entries;
  !removed

let entry_of_result (t : Pipeline.t) : entry =
  {
    e_potential = List.length t.Pipeline.potential;
    e_after_sound = List.length t.Pipeline.after_sound;
    e_after_unsound = List.length t.Pipeline.after_unsound;
    e_report = Report.to_string t.Pipeline.threads t.Pipeline.after_unsound;
    e_metrics = t.Pipeline.metrics;
  }

(* The cached-or-plain front door. Without [dir] it is the plain
   pipeline, its entry reported as a [Miss]. With [dir] it serves the
   entry on a hit, otherwise analyzes, stores and returns the fresh
   entry. The outcome tells the caller whether the result came from the
   cache and whether a corrupt entry was replaced — a corrupt entry
   never influences the returned result. [max_bytes] caps the directory
   size: eviction runs opportunistically after each store, and the
   just-stored entry carries the newest mtime, so it is the last
   candidate to go. A run that degraded under a wall-clock deadline is
   returned but not stored: how far it got depends on host speed, so a
   later run with the same address may well complete. *)
let analyze ?config ?max_bytes ?interner ?dir ~file (src : string) : entry * outcome =
  let config = Option.value config ~default:Pipeline.default_config in
  (* [interner] stays out of the cache key on purpose: sharing a batch
     symbol table never changes the produced entry *)
  let fresh () = entry_of_result (Pipeline.analyze ~config ?interner ~file src) in
  match dir with
  | None -> (fresh (), Miss)
  | Some dir -> (
      sweep_on_open ~dir;
      let k = address ~config ~file src in
      match find ~dir k with
      | Some e, _ -> (e, Hit)
      | None, outcome ->
          let e = fresh () in
          let timed = config.Pipeline.budgets.Pipeline.deadline <> None in
          (* persistence is best-effort: a failed store (disk full,
             injected I/O fault) costs the next run a recompute, never
             this run its already-computed result *)
          if not (timed && e.e_metrics.Pipeline.m_degraded <> []) then (
            try
              store ~dir k e;
              Option.iter (fun mb -> ignore (evict ~dir ~max_bytes:mb)) max_bytes
            with Sys_error _ | Unix.Unix_error _ -> ());
          (e, outcome))
