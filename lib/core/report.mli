(** Programmer-facing warning reports (paper §7): racy field, use/free
    sites with source locations, origin category, and the
    callback/thread lineage chains explaining how each side runs. *)

open Nadroid_lang

type t = {
  field : string;
  use_site : string;
  use_loc : Loc.t;
  free_site : string;
  free_loc : Loc.t;
  category : Classify.category;
  use_lineages : string list;
  free_lineages : string list;
}

val field_name : Nadroid_ir.Instr.fref -> string

val of_warning : Threadify.t -> Detect.warning -> t

val pp : t Fmt.t

val pp_all : Format.formatter -> Threadify.t -> Detect.warning list -> unit
(** Highest-risk categories first. *)

val to_string : Threadify.t -> Detect.warning list -> string

val pp_degraded : Pipeline.degradation list Fmt.t
(** The degraded-mode marker ([DEGRADED (sound, may over-report): ...]);
    prints nothing for a full-precision run. *)

val pp_metrics : Pipeline.metrics Fmt.t
(** Human-readable per-phase breakdown, per-filter prune counts, and the
    degraded-mode marker when any budget fallback fired. *)

val metrics_to_json : ?name:string -> Pipeline.metrics -> string
(** One flat JSON object:
    [{"name":..., "frontend_parse":s (lexing included),
      "frontend_sema":s, "frontend_lower":s, "pta":s, "aux":s,
      "threadify":s, "detect":s, "create_ctx":s, "filter":s,
      "phase_sum":s, "wall":s,
      "pruned":{"MHB":n, ...}, "degraded":["pta-k=1", ...]}]
    (times in seconds). *)

val fault_to_json : ?name:string -> Fault.t -> string
(** [{"name":..., "fault":"frontend"|"budget"|"internal", "exit":n,
      "detail":...}]. *)
