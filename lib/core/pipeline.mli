(** The end-to-end nAdroid pipeline (paper Fig. 2):

    source -> frontend -> threadification (§4) -> detection (§5) ->
    sound filters (§6.1) -> unsound filters (§6.2) -> report.

    Per-phase timings are recorded to reproduce the §8.8 breakdown. *)

open Nadroid_ir
open Nadroid_analysis

(** Per-phase resource budgets; [no_budgets] (all [None]) disables
    enforcement. Exhaustion degrades soundly toward {e more} warnings
    (recorded in [metrics.m_degraded]) and only raises
    [Fault (Budget _)] when no sound degradation remains. *)
type budgets = {
  pta_steps : int option;
      (** points-to step budget (instruction transfers, deterministic);
          on exhaustion the solver retries with smaller k down to 0 *)
  pta_tuples : int option;
      (** memory ceiling: live relation cardinality, covering both the
          points-to table (down the same k ladder on exhaustion) and the
          detection join's Datalog database (a hard bound there); the
          auto-derived default applies to the points-to table only *)
  deadline : float option;
      (** seconds of real time for the whole analysis (measured on the
          monotonic clock, so a wall-clock step never fires or starves
          it), enforced in-flight:
          periodic checkpoints inside the PTA worklist (down the k
          ladder), thread-forest expansion and detection (hard faults —
          partial results there would lose coverage), and the
          per-warning filter loops (remaining filters are skipped) *)
}

val no_budgets : budgets

type config = {
  k : int;  (** k-object-sensitivity depth (paper default: 2) *)
  sound : Filters.name list;
  unsound : Filters.name list;
  atomic_ig : bool;  (** [false] = DEvA-style unsound IG/IA *)
  budgets : budgets;
  solver : Pta.solver;
      (** points-to fixpoint strategy; [Pta.Worklist] by default, with
          [Pta.Reference] producing bit-identical results slower *)
}

val default_config : config

val sound_only_config : config
(** {!default_config} with the unsound filters disabled — the §6.1
    contract configuration: the surviving warning set may only
    over-report, so every dynamically witnessable UAF must appear in it.
    This is the configuration the differential soundness harness
    ({!Nadroid_corpus.Differential}) checks the pipeline against. *)

(** A recorded sound degradation: the analysis completed with less
    precision (never less coverage) than configured. *)
type degradation =
  | D_pta_k of int  (** points-to fell back from [config.k] to this k *)
  | D_filters_skipped of Filters.name list  (** starved filters skipped *)

val degradation_to_string : degradation -> string
(** e.g. ["pta-k=1"], ["filters-skipped=UR+TT"]. *)

type timings = { t_modeling : float; t_detection : float; t_filtering : float }

type interner = Nadroid_datalog.Symbol.t
(** A batch-shared, hash-consed interning table for the detection
    join's Datalog engine. Create one per batch and pass it to every
    {!analyze} of the batch: the common strings (field keys, race
    atoms) are interned once instead of once per app. It is thread-safe
    (safe to share across the parallel workers of one batch), and
    sharing never changes any report — engine iteration order is
    insertion-ordered, independent of id assignment. *)

val create_interner : unit -> interner

(** Per-phase wall times plus per-filter prune counts. Every timed
    region of the analysis is attributed to exactly one field, so
    {!phase_sum} equals [m_wall] up to the plumbing between clock
    reads. [m_frontend_parse] and [m_frontend_sema] are zero when the
    caller entered at {!analyze_prog} with an already-built program. *)
type metrics = {
  m_frontend_parse : float;  (** lexing and parsing (the parser pulls from the lexer) *)
  m_frontend_sema : float;  (** name/type resolution *)
  m_frontend_lower : float;
      (** lowering to the CFG IR, wherever it happened: methods are
          lowered on demand, mostly while points-to reaches them *)
  m_pta : float;  (** points-to analysis *)
  m_aux : float;  (** escape + lockset analyses *)
  m_threadify : float;  (** forest construction (= modeling) *)
  m_detect : float;  (** access collection + candidate join *)
  m_ctx : float;  (** filter-context (guards / component map) construction *)
  m_filter : float;  (** sound + unsound filter application *)
  m_wall : float;  (** wall time of the whole analysis *)
  m_pta_visits : int;
      (** method-instance bodies the points-to solver executed — the
          worklist's saving over the reference solver, wall-clock aside *)
  m_pta_steps : int;  (** instruction transfers the solver executed *)
  m_pta_tuples : int;
      (** live points-to tuples the solver stored; 0 when no tuple
          ceiling was set (unbudgeted runs skip the accounting) *)
  m_pruned : (Filters.name * int) list;
      (** (warning, pair) combinations pruned, credited per filter *)
  m_degraded : degradation list;  (** empty = full-precision run *)
}

val phase_sum : metrics -> float

val frontend_sum : metrics -> float
(** Sum of the three [m_frontend_*] phases. *)

val timings_of_metrics : metrics -> timings
(** The paper's three-phase split (§8.8): modeling = threadify,
    detection = points-to + aux + join, filtering = context + filters. *)

type t = {
  prog : Prog.t;
  pta : Pta.t;
  esc : Escape.t;
  locks : Lockset.t;
  threads : Threadify.t;
  ctx : Filters.ctx;
  potential : Detect.warning list;
  after_sound : Detect.warning list;
  after_unsound : Detect.warning list;
  timings : timings;
  metrics : metrics;
  config : config;
}

(** Frontend phase times as measured by {!analyze}; {!analyze_prog}
    merges them into the run's metrics (and [m_wall]). *)
type frontend_times = { ft_parse : float; ft_sema : float; ft_lower : float }

val analyze_prog :
  ?auto_tuples:int -> ?config:config -> ?interner:interner -> ?frontend:frontend_times ->
  Prog.t -> t
(** [auto_tuples] is the size-derived tuple ceiling {!analyze} passes
    down: it bounds the points-to table only (recoverable down the k
    ladder) and is ignored when [config.budgets.pta_tuples] is set. An
    explicit [pta_tuples] additionally hard-bounds the detection join's
    Datalog database, where no sound partial result exists.

    [interner] hands the detection join a batch-shared symbol table;
    [frontend] carries the frontend timings of the program being
    analysed (zero when omitted). Neither changes any result. *)

val auto_pta_steps : loc:int -> int
(** Default PTA step budget for a [loc]-line app — the budget
    auto-calibration: [5000 + 500*loc], >10x above the worst observed
    steps-per-line of the reference solver at k=2 over the corpus and the
    Synth generator. *)

val auto_pta_tuples : loc:int -> int
(** Default tuple (memory) ceiling for a [loc]-line app:
    [5000 + 100*loc], ~18x above the worst observed k=2 points-to
    tuples-per-line (~5.5) over the corpus and the Synth generator. *)

val analyze : ?config:config -> ?interner:interner -> file:string -> string -> t
(** Parse, typecheck, lower and analyse a MiniAndroid source, timing
    the three frontend phases into the run's [m_frontend_*] metrics.
    When the config carries no explicit [pta_steps] / [pta_tuples]
    budget, one is derived from the source size via {!auto_pta_steps} /
    {!auto_pta_tuples} (the derived tuple ceiling bounds the points-to
    table only); {!analyze_prog} never derives budgets itself (it has no
    source to size). [interner] shares one symbol table across a batch
    of analyses without changing any result. *)

(** Counts for an app's Table 1 row. *)
type row = {
  loc : int;  (** non-blank lines of MiniAndroid source *)
  ec : int;
  pc : int;
  threads_count : int;
  potential_count : int;
  after_sound_count : int;
  after_unsound_count : int;
  by_category : (Classify.category * int) list;
}

val count_loc : string -> int
(** Non-blank, non-comment-only lines of MiniAndroid source. Both [//]
    line comments and [/* */] block comments (including every interior
    line of a multi-line one) are recognised; string literals are
    scanned so comment-looking text inside them still counts. *)

val row : ?src:string -> t -> row

val time : (unit -> 'a) -> 'a * float
