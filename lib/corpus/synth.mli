(** Grammar-aware random MiniAndroid app generator for the differential
    soundness harness ({!Differential}).

    An app is a pure function of its seed: random activities whose
    lifecycle bodies, click listeners, Handler posts, native threads,
    AsyncTasks and service connections null and dereference a shared
    per-activity field pool, plus an optional multiset of {!Spec}
    patterns (rendered through {!Gen}) carrying {!Spec.seeded} ground
    truth. Generation is constrained so that every app is well-typed by
    construction {e and} every dynamically reachable NPE is statically
    reported under a correct sound-filters-only pipeline — so the
    dynamic oracle never produces false counterexamples (see the
    implementation comment for the exact invariants). *)

type op =
  | Alloc  (** [f = new Data();] *)
  | Alloc_use  (** [f = new Data(); f.use();] — IA-shaped *)
  | Use  (** [f.use();] *)
  | Guarded_use  (** [if (f != null) { f.use(); }] — IG-shaped *)
  | Null  (** [f = null;] — a free site *)

type stmt = { st_field : int; st_op : op }

type frag =
  | F_lifecycle of string * stmt list
  | F_click of stmt list
  | F_post of string * stmt list
  | F_thread of string * stmt list
  | F_async of stmt list * stmt list * stmt list
  | F_conn of stmt list * stmt list

type sact = { sa_name : string; sa_pool : int; sa_frags : frag list }

type t = { sy_seed : int; sy_acts : sact list; sy_patterns : Spec.pattern list }

val name : t -> string
(** ["synth<seed>"]. *)

val embeddable : Spec.pattern list
(** The {!Spec} patterns an app may embed: those whose dynamic behaviour
    is consistent with the sound-filter contract in the simulator. *)

val generate : seed:int -> t
(** Deterministic per seed. *)

val render : t -> string * Spec.seeded list
(** Compilable MiniAndroid source plus the embedded patterns' ground
    truth. Pure: shrunk structures re-render reproducibly. *)

val adversarial : seed:int -> size:int -> string
(** A worst-case app for the deadline machinery: [size] fields freed in
    [onPause], [size] click listeners each using every field, and a
    [10*size]-statement [onResume] that RHB analyzes once — the filter
    phase visits [size^2] warnings (quadratic in [size]) while modeling
    and detection stay near-linear. With the filters stalled by the
    [filter=MHB:stall] fault-injection plan, a small [--deadline] lands
    mid-filters and must be honoured in-flight. The seed permutes
    statement order only; the cost structure is seed-independent.
    Deterministic per (seed, size). *)

val shrink_steps : t -> t list
(** All one-step-smaller variants (drop a pattern, an activity, a
    fragment, or a single statement), coarsest first, in a fixed order —
    the greedy shrinker's candidate list. *)

val size : t -> int
(** Structural size (components + fragments + statements); strictly
    decreases along {!shrink_steps}. *)
