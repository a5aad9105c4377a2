(** Seeded fleet-scale corpus generator for the 5k–10k-app batch runs.

    A mega-corpus is a pure function of its {!spec}: [plan] lays out
    cheap per-app descriptors (name, seed, kind, LOC target) without
    touching any source text, and [source] materializes one app's
    MiniAndroid source on demand — the generate→analyze→drop discipline
    that keeps a 10k-app run at O(window) memory, never O(corpus).

    Normal apps draw their LOC target from the empirical Table 1
    distribution (the 27 {!Corpus.all} apps' LOC, with ±20% jitter) and
    are rendered through {!Gen} with padding tuned to hit the target. A
    configurable fraction are {!Synth.adversarial} stragglers with
    heavy-tailed sizes: apps whose s² warnings make their filter phase
    the longest of the plan. *)

type kind =
  | Normal of int  (** LOC target, drawn from the Table 1 distribution *)
  | Adversarial of int  (** [Synth.adversarial] [~size], heavy-tailed 8–30 *)

type app = {
  mc_index : int;  (** position in the corpus, [0 .. mc_apps-1] *)
  mc_name : string;  (** ["mc<seed>_<index>"], unique per corpus *)
  mc_app_seed : int;  (** per-app generation seed *)
  mc_kind : kind;
}

type spec = {
  mc_seed : int;
  mc_apps : int;
  mc_adversarial : float;  (** fraction of adversarial apps, [0..1] *)
  mc_loc_scale : float;  (** multiplier on the drawn LOC targets (1.0 = Table 1) *)
}

val default : spec
(** seed 0, 5000 apps, 2% adversarial, scale 1.0. *)

val plan : spec -> app array
(** Deterministic per spec; O(mc_apps) descriptors, no source text. *)

val source : app -> string
(** Materialize one app's source. Deterministic per descriptor; call
    sites should drop the result after analysis. Normal apps land
    within ±15% of their LOC target (padding granularity aside). *)
