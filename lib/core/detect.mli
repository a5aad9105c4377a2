(** UAF ordering-violation detection (paper §5).

    After threadification, every {e use} ([getfield]) and {e free}
    ([putfield] of the null literal) is collected per modeled thread; a
    potential UAF is a use/free pair on the same abstract field (base
    points-to sets overlap on an escaping object) from two different
    threads. Locksets and MHP are deliberately not used at this stage
    (§5); the §6 filters replace them. The candidate join runs on the
    Datalog engine. *)

open Nadroid_ir
open Nadroid_analysis
module IntSet = Pta.IntSet

type site = { s_inst : int; s_mref : Instr.mref; s_instr : Instr.t }

val pp_site : site Fmt.t

val site_key : site -> string

(** One field access executed by a modeled thread. *)
type access = {
  a_thread : int;  (** thread id *)
  a_site : site;
  a_field : Instr.fref;
  a_objs : IntSet.t;  (** abstract base objects; empty for statics *)
  a_static : bool;
}

val may_alias : Escape.t -> access -> access -> bool
(** Do two accesses touch the same abstract memory? Same field key, and
    either both static, or both instance with a common escaping base
    object. A static and an instance access never alias, even when their
    field keys collide. *)

type warning = {
  w_field : Instr.fref;
  w_use : site;
  w_free : site;
  w_pairs : (int * int) list;
      (** (use-thread, free-thread) pairs; filters prune them and a
          warning dies when none survive *)
}

val warning_key : warning -> string * string

val field_key : Instr.fref -> string

val collect_accesses : ?deadline:float -> Threadify.t -> access list * access list
(** Uses and frees per modeled thread, in (thread, instance, instruction)
    order. Exposed for profiling and the equivalence tests. *)

val run :
  ?deadline:float ->
  ?max_tuples:int ->
  ?symbols:Nadroid_datalog.Symbol.t ->
  Threadify.t ->
  Escape.t ->
  warning list
(** All potential UAFs, deduplicated to (use site, free site) pairs as
    in the paper ("each warning is a pair of free-use operations").
    The candidate join buckets accesses by interned field key before
    generating alias facts, so pair enumeration is linear in the
    per-field use/free products; its Datalog relations hold use and
    free row indices, loaded and read back at the id level.

    [deadline] (absolute instant) is sampled periodically during access
    collection and alias enumeration; [max_tuples] caps the Datalog
    database cardinality. A partial warning list would be unsound, so
    either bound expiring raises [Fault (Budget P_detect)].

    [symbols] hands the join's Datalog engine a shared (batch-wide)
    interning table; results are byte-identical with or without it. *)

val of_pairs : access array -> access array -> (int * int) list -> warning list
(** [of_pairs uses frees pairs]: the warnings of race pairs (indices
    into [uses] and [frees]), deduplicated to (use site, free site)
    pairs in first-seen order. {!run} ends with it; the join oracles in
    the tests share it. *)

val n_warnings : warning list -> int
