(** Golden-report regression: committed canonical reports for the
    27-app corpus, a differ that fails on any warning-set drift, and a
    bless operation to regenerate them. Rendering is deterministic, so
    blessing twice produces byte-identical files. *)

val canonical_of_entry : Corpus.app -> Nadroid_core.Cache.entry -> string
(** Pipeline counts plus the rendered warning report under the default
    configuration, read off an entry — cached or fresh alike, which is
    what makes warm golden passes byte-identical to cold ones. *)

val filename : Corpus.app -> string
(** ["<name>.expected"]. *)

type status =
  | G_ok
  | G_missing  (** no committed .expected file *)
  | G_drift of { line : int; expected : string; actual : string }
      (** first differing line (1-based; [""] = past end of file) *)

val check : dir:string -> ?jobs:int -> ?cache_dir:string -> unit -> (string * status) list
(** Re-analyze the corpus and compare each canonical report against
    [dir/<name>.expected]; results in corpus order. A corpus app that
    fails to analyze raises its fault — that too is a regression. With
    [cache_dir] the analyses go through {!Nadroid_core.Cache} (the CI
    cold-then-warm drift gate). *)

val ok : (string * status) list -> bool

val bless : dir:string -> ?jobs:int -> unit -> int
(** Write every canonical report into [dir]; returns the file count. *)

val pp_status : (string * status) Fmt.t
