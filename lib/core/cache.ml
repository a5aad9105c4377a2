(* Content-addressed on-disk cache for analysis results.

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
   (CLI output, golden canonical reports, bench timing rows).

   Integrity: the payload is guarded by a magic header and a digest; a
   truncated, corrupted or wrong-format file is reported as [Corrupt]
   carrying a structured {!Fault.t} and treated by callers as a miss —
   the cache can serve stale bytes never, wrong bytes never, at worst no
   bytes. Writes go through a temp file + rename, so a crashed writer
   leaves no half-written addressable entry. *)

(* Bump on any change to analysis semantics or to the entry format —
   including the layout of [Pipeline.metrics], which entries Marshal;
   old entries then simply stop being addressed (no migration, no
   unmarshal of foreign layouts). *)
let version = "nadroid-7"

let default_dir = "_nadroid_cache"

type entry = {
  e_potential : int;
  e_after_sound : int;
  e_after_unsound : int;
  e_report : string;  (** rendered final report ({!Report.to_string}) *)
  e_metrics : Pipeline.metrics;  (** metrics of the producing (cold) run *)
}

type outcome = Hit | Miss | Corrupt of Fault.t

(* Canonical rendering of everything in a config that can influence the
   result. Budgets are included: a budget-degraded report is a different
   (still sound) report. *)
let config_digest (c : Pipeline.config) : string =
  let names ns = String.concat "+" (List.map Filters.name_to_string ns) in
  let opt f = function None -> "-" | Some v -> f v in
  Printf.sprintf
    "k=%d;sound=%s;unsound=%s;atomic_ig=%b;pta_steps=%s;pta_tuples=%s;deadline=%s;sched=%s;solver=%s"
    c.Pipeline.k (names c.Pipeline.sound) (names c.Pipeline.unsound) c.Pipeline.atomic_ig
    (opt string_of_int c.Pipeline.budgets.Pipeline.pta_steps)
    (opt string_of_int c.Pipeline.budgets.Pipeline.pta_tuples)
    (opt string_of_float c.Pipeline.budgets.Pipeline.deadline)
    (opt string_of_int c.Pipeline.budgets.Pipeline.explorer_schedules)
    (match c.Pipeline.solver with
    | Nadroid_analysis.Pta.Worklist -> "worklist"
    | Nadroid_analysis.Pta.Reference -> "reference")

let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let key ?(version = version) ~(config : Pipeline.config) (src : string) : string =
  digest [ Digest.string src; config_digest config; version ]

let address ~config ~file src = digest [ key ~config src; file ]

let path ~dir k = Filename.concat dir (k ^ ".cache")

let magic = "nadroid-cache 1"

let corrupt what = Corrupt (Fault.Internal (Printf.sprintf "cache: %s" what))

let find ~dir (k : string) : entry option * outcome =
  let p = path ~dir k in
  if not (Sys.file_exists p) then (None, Miss)
  else
    match
      Faultinject.trip Faultinject.Cache_read;
      let ic = open_in_bin p in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception e ->
        (None, corrupt (Printf.sprintf "unreadable entry %s (%s)" p (Printexc.to_string e)))
    | raw -> (
        match String.index_opt raw '\n' with
        | None -> (None, corrupt ("truncated entry " ^ p))
        | Some nl -> (
            let header = String.sub raw 0 nl in
            let payload = String.sub raw (nl + 1) (String.length raw - nl - 1) in
            match String.split_on_char ' ' header with
            | [ m1; m2; digest ] when String.equal (m1 ^ " " ^ m2) magic ->
                if not (String.equal digest (Digest.to_hex (Digest.string payload))) then
                  (None, corrupt ("checksum mismatch in " ^ p))
                else (
                  match (Marshal.from_string payload 0 : entry) with
                  | e ->
                      (* touch the entry so LRU eviction tracks hits, not
                         just stores; [utimes p 0 0] sets both times to
                         "now". Best-effort: a racing eviction may have
                         removed the file already. *)
                      (try Unix.utimes p 0.0 0.0 with Unix.Unix_error _ -> ());
                      (Some e, Hit)
                  | exception _ -> (None, corrupt ("undecodable entry " ^ p)))
            | _ -> (None, corrupt ("bad header in " ^ p))))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Per-process store counter: two domains of one process share a pid, so
   a pid-only temp name let concurrent stores of the same key interleave
   writes into one file and publish a garbled entry via [Sys.rename]. *)
let store_seq = Atomic.make 0

let store ~dir (k : string) (e : entry) : unit =
  Faultinject.trip Faultinject.Cache_write;
  mkdir_p dir;
  let payload = Marshal.to_string e [] in
  let header =
    Printf.sprintf "%s %s\n" magic (Digest.to_hex (Digest.string payload))
  in
  let tmp =
    Filename.concat dir
      (Printf.sprintf ".tmp.%s.%d.%d" k (Unix.getpid ()) (Atomic.fetch_and_add store_seq 1))
  in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc header;
      output_string oc payload);
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

(* Cached front door: serve the entry on a hit, otherwise analyze, store
   and return the fresh entry. The outcome tells the caller whether the
   result came from the cache and whether a corrupt entry was replaced —
   a corrupt entry never influences the returned result. [max_bytes]
   caps the directory size: eviction runs opportunistically after each
   store, and the just-stored entry carries the newest mtime, so it is
   the last candidate to go. A run that degraded under a wall-clock
   deadline is returned but not stored: how far it got depends on host
   speed, so a later run with the same address may well complete. *)
let analyze ?config ?max_bytes ?interner ~dir ~file (src : string) : entry * outcome =
  let config = Option.value config ~default:Pipeline.default_config in
  sweep_on_open ~dir;
  let k = address ~config ~file src in
  match find ~dir k with
  | Some e, Hit -> (e, Hit)
  | _, ((Miss | Corrupt _) as outcome) ->
      (* [interner] stays out of the cache key on purpose: sharing a
         batch symbol table never changes the produced entry *)
      let t = Pipeline.analyze ~config ?interner ~file src in
      let e = entry_of_result t in
      let timed = config.Pipeline.budgets.Pipeline.deadline <> None in
      (* persistence is best-effort: a failed store (disk full, injected
         I/O fault) costs the next run a recompute, never this run its
         already-computed result *)
      if not (timed && e.e_metrics.Pipeline.m_degraded <> []) then (
        try
          store ~dir k e;
          match max_bytes with
          | Some mb -> ignore (evict ~dir ~max_bytes:mb)
          | None -> ()
        with Sys_error _ | Unix.Unix_error _ -> ());
      (e, outcome)
  | None, Hit -> assert false
