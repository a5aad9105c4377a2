(** The evaluation corpus: 27 apps (7 train + 20 test, Table 1) and the
    8 artificially-injected variants of the false-negative study
    (Table 2). Sources are built lazily and deterministically. *)

type group = Train | Test

type app = {
  name : string;
  group : group;
  source : string;
  seeded : Spec.seeded list;  (** ground truth for generated patterns *)
}

val train : app list Lazy.t

val test : app list Lazy.t

val all : app list Lazy.t

val find : string -> app option

val analyze_all :
  ?config:Nadroid_core.Pipeline.config ->
  ?jobs:int ->
  app list ->
  (app * (Nadroid_core.Pipeline.t, Nadroid_core.Fault.t) result) list
(** Run the full pipeline over a batch of apps on a domain pool of
    [jobs] domains (default: all cores). Results are in input order and
    byte-identical at any [jobs] value. Failures are isolated per app:
    a bad source yields [Error fault] in its own slot and the rest of
    the batch still completes. *)

val injected_category : Spec.pattern -> Nadroid_core.Classify.category
(** The nominal origin category an injected pattern is reported under. *)

val injections : (string * Spec.pattern list) list
(** The Table 2 mix: 28 UAFs over 8 apps — EC-EC 4, EC-PC 11, PC-PC 5,
    C-RT 1, C-NT 7, of which 2 undetectable and 3 CHB-pruned. *)

type injected_app = {
  inj_base : app;
  inj_source : string;  (** base source plus an injected activity *)
  inj_seeded : Spec.seeded list;  (** ground truth of the injected UAFs only *)
}

val injected : injected_app list Lazy.t
