(** False-positive filters (paper §6).

    Sound: Must-Happens-Before (Service, AsyncTask, Lifecycle), If-Guard,
    Intra-Allocation. Unsound: Resume-HB, Cancel-HB, Post-HB,
    Maybe-Allocation, Used-for-Return, Thread-Thread.

    A filter is a predicate on a (warning, thread-pair); a warning is
    pruned once all of its pairs are pruned. IG/IA/MA are
    atomicity-aware: between looper callbacks they apply directly,
    across true threads only under a common lock (§6.1.2) — unless
    [atomic_ig] is disabled, which reproduces DEvA's unsound behaviour
    for the baseline comparison. *)

open Nadroid_analysis

type name = MHB | IG | IA | RHB | CHB | PHB | MA | UR | TT

val all_names : name list

val sound : name list
(** [[MHB; IG; IA]] *)

val unsound : name list
(** [[RHB; CHB; PHB; MA; UR; TT]] *)

val may_hb : name list
(** The may-happens-before group of Figure 5(b): [[RHB; CHB; PHB]]. *)

val name_to_string : name -> string

val pp_name : name Fmt.t

type ctx

val create_ctx :
  ?atomic_ig:bool -> ?deadline:float -> Threadify.t -> Escape.t -> Lockset.t -> ctx
(** [atomic_ig] defaults to [true] (nAdroid); [false] applies IG/IA/MA
    without atomicity, as DEvA does. Construction is cheap, so an
    already-expired [deadline] does not fault: it leaves the component
    map empty (disabling CHB pruning — sound over-reporting). *)

val prunes : ctx -> name -> Detect.warning -> int * int -> bool
(** Does the named filter prune this (use-thread, free-thread) pair? *)

val apply : ctx -> name list -> Detect.warning list -> Detect.warning list
(** Prune pairs by every listed filter; drop warnings with no surviving
    pair. *)

val apply_counted :
  ctx -> name list -> Detect.warning list -> Detect.warning list * (name * int) list
(** Same survivors as {!apply}, plus the number of (warning, pair)
    combinations each filter pruned. Every filter is evaluated on every
    pair, so overlapping filters are each credited. *)

val apply_counted_deadline :
  ctx ->
  deadline:float ->
  name list ->
  Detect.warning list ->
  Detect.warning list * (name * int) list * name list
(** Like {!apply_counted} but bounded by an absolute monotonic
    [deadline] (as from [Nadroid_clock.Clock.now]): filters run one name at a
    time, with the clock also sampled every few warnings {e inside} each
    filter, so one filter over a huge warning list cannot run
    arbitrarily past the deadline. A filter caught mid-run keeps its
    already-filtered prefix (each individual prune is sound), passes the
    untouched tail through, keeps its partial count, and joins the
    skipped list along with every name whose turn never came; the
    skipped names are returned in the third component. Skipping is sound
    in the more-warnings direction. Counts are sequential (no
    overlapping credit). Each warning a filter visits trips the
    {!Faultinject.Filter} site, keyed by the filter's name. *)

val pruned_count : ctx -> name list -> Detect.warning list -> int
(** Warnings fully pruned when only [names] are enabled — the Figure 5
    per-filter measurements. *)
