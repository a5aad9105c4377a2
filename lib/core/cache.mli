(** Content-addressed on-disk cache for analysis results, and the frame
    codec of every record the program persists or pipes.

    Entries are addressed by [Digest (source, config rendering, analyzer
    version, file name)] and store the rendered artifacts of one analysis — warning
    counts, the final report string and the producing run's metrics — so
    a warm re-run of an unchanged input skips analysis entirely while
    staying byte-identical to the cold run. Corrupt, truncated or
    foreign-version entries are reported as {!Corrupt} (carrying a
    {!Fault.t}) and treated as misses: the cache never yields a wrong
    report. *)

val version : string
(** Analyzer and record-layout version, baked into every address and
    every frame; bumping it busts the whole cache and retires every
    journal written before. *)

val default_dir : string
(** ["_nadroid_cache"]. *)

type entry = {
  e_potential : int;
  e_after_sound : int;
  e_after_unsound : int;
  e_report : string;  (** rendered final report ({!Report.to_string}) *)
  e_metrics : Pipeline.metrics;  (** metrics of the producing (cold) run *)
}

type outcome = Hit | Miss | Corrupt of Fault.t

(** {2 Frame codec}

    One frame format for cache entry files, journal records and the
    supervised worker's requests and replies:

    {v nadroid-<kind> <version> <payload-md5-hex> <payload-len>\n<payload>\n v}

    The payload is the Marshal of the record. {!decode} unmarshals it
    only after the kind, the version ({!version}), the length, the
    terminator and the checksum check out, so a record written by
    another build, of another type, or torn by a crash is an error,
    never a value. *)

type 'a kind
(** A record type's frame tag. Declare each kind once, next to its type,
    and use no name for two types: the name is what ties the bytes to
    the type. *)

val kind : string -> 'a kind
(** [kind name] tags frames [nadroid-<name>]; [name] has no spaces. *)

val encode : 'a kind -> 'a -> string
(** One whole frame. *)

type header_error =
  | Noise  (** not a frame header at all *)
  | Bad of string
      (** a frame header of another kind or another version, or a
          malformed header of this kind *)

val header : 'a kind -> string -> (int, header_error) result
(** Classify a header line (without its newline): [Ok n] when it heads a
    frame of this kind and version, whose remaining [n] bytes (payload
    and terminator) follow the newline. *)

val decode : 'a kind -> string -> int -> ('a * int, string) result
(** [decode kind s pos] is the value of the frame starting at [pos] and
    the offset just past it, or why there is no valid frame there. *)

(** {2 Files} Shared with {!Journal}. *)

val read_file : string -> string
(** Whole contents of a file; raises [Sys_error]. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents. *)

(** {2 Entries} *)

val config_digest : Pipeline.config -> string
(** Canonical rendering of every result-influencing config field. *)

val key : ?version:string -> config:Pipeline.config -> string -> string
(** [key ~config src] is the hex digest of analyzing [src] under
    [config], whatever the file is called; [?version] overrides
    {!version} (tests). Journal records carry it to tell a changed
    source from an unchanged one. *)

val address : config:Pipeline.config -> file:string -> string -> string
(** [address ~config ~file src] is the hex address under which
    {!analyze} stores the entry of [src] named [file]: {!key} plus the
    name, because every report embeds the name. *)

val path : dir:string -> string -> string
(** On-disk path of an address ([<dir>/<address>.cache]); exposed for
    tests that manipulate entry files directly. *)

val find : dir:string -> string -> entry option * outcome
(** Look an address up. [(Some e, Hit)] on an intact entry; [(None,
    Miss)] when absent; [(None, Corrupt f)] when present but unreadable,
    truncated, checksum-broken, of another version or undecodable. A hit
    touches the entry's mtime so LRU eviction tracks recency of use, not
    just of storage. *)

val store : dir:string -> string -> entry -> unit
(** Write an entry atomically (temp file + rename), creating [dir] as
    needed. The temp name is unique per store — pid alone is not enough,
    since domains share one — so concurrent stores of the same key never
    interleave into one temp file. *)

val sweep_tmp : ?max_age:float -> dir:string -> unit -> int
(** Remove orphaned [.tmp.*] files older than [max_age] seconds
    (default 600) — strandings left by a writer that died between the
    temp write and the rename. They are invisible to [*.cache]
    accounting, so nothing else ever reclaims them. Runs automatically
    the first time {!analyze} opens a directory in this process.
    Returns the number of files removed. *)

val dir_bytes : dir:string -> int
(** Combined size of the [*.cache] entries in [dir] (foreign files are
    not counted). *)

val evict : dir:string -> max_bytes:int -> int
(** Bring the combined [*.cache] size of [dir] under [max_bytes] by
    removing least-recently-used entries (mtime order, path tie-break).
    Foreign files are untouched; removal races are tolerated. Returns
    the number of entries removed. *)

val entry_of_result : Pipeline.t -> entry

val analyze :
  ?config:Pipeline.config ->
  ?max_bytes:int ->
  ?interner:Pipeline.interner ->
  ?dir:string ->
  file:string ->
  string ->
  entry * outcome
(** {!Pipeline.analyze}, cached or plain: every caller that may or may
    not use the cache goes through here. Without [dir], the fresh entry
    and [Miss]. With [dir], serve the entry on a hit; otherwise (miss
    or corrupt entry) analyze, store and return the fresh entry together
    with the outcome that forced the work. Analysis faults propagate
    as exceptions exactly like {!Pipeline.analyze}. [max_bytes] runs
    {!evict} opportunistically after the store; the fresh entry carries
    the newest mtime, so it is evicted last. [interner] is forwarded to
    {!Pipeline.analyze} on a miss; it is deliberately not part of the
    cache key, since sharing cannot change the entry. The entry lives at
    {!address}. A run that degraded while [config] has a deadline is
    returned but not stored, since how far it got depends on host
    speed. *)
