(** Semi-naive Datalog evaluation with stratified negation — the fixpoint
    substrate standing in for Chord's bddbddb solver.

    Usage: {!create} an engine, load base facts with {!fact}, state rules
    with {!add_rule}, then query with {!mem} / {!query} / {!cardinal}
    (which {!solve} lazily). Adding facts or rules after a solve
    invalidates it; the next query re-solves.

    Rules must be range-restricted (every head variable and every
    variable under negation bound by a positive body atom) and the
    program must be stratifiable; violations raise [Invalid_argument]. *)

type term = Var of string | Const of int

type atom = { pred : string; args : term list }

type literal = Pos of atom | Neg of atom

type rule = { head : atom; body : literal list }

type t

val create : ?symbols:Symbol.t -> ?max_tuples:int -> unit -> t
(** [symbols] makes the engine intern into an existing (shared,
    thread-safe) table instead of a private one — one hash-consed
    domain per batch of engines. Sharing never changes any engine
    output: relation iteration is insertion-ordered, independent of the
    id values a shared table happens to assign.

    [max_tuples] caps the combined cardinality of all persistent
    relations (one shared {!Relation.budget}); transient semi-naive
    deltas are exempt, as they only mirror already-charged tuples.
    {!Relation.add} — hence {!fact}/{!facts}/{!solve} — raises
    {!Relation.Out_of_budget} past the cap. *)

val symbols : t -> Symbol.t

val const : t -> string -> term
(** Intern a name as a constant term. *)

val relation : t -> string -> arity:int -> Relation.t
(** Declare (or fetch) a relation.
    @raise Invalid_argument when redeclared at a different arity. *)

val fact : t -> string -> string list -> unit
(** [fact t pred args] adds a base (EDB) tuple, interning the names. *)

val facts : t -> string -> string list list -> unit
(** [facts t pred tuples] bulk-loads EDB tuples: the relation is looked
    up once for the whole batch. Equivalent to [List.iter (fact t pred)]. *)

val facts_ids : t -> string -> int array list -> unit
(** [facts_ids t pred tuples] bulk-loads EDB tuples given as ints; each
    array becomes the stored tuple. Where the columns are interned
    symbol ids (see {!symbols}) this is the {!facts} of the
    corresponding names, without the per-tuple string traffic. A column
    need not hold symbols when the client never reads it back by name
    ({!mem}, {!query}) and never joins it with a named column: evaluation
    only compares values, so such a column may carry any ints (row
    indices, say) and be read back with {!query_ids}. *)

val atom : string -> term list -> atom

val add_rule : t -> atom -> literal list -> unit
(** [add_rule t head body].
    @raise Invalid_argument on range-restriction violations. *)

val solve : t -> unit
(** Stratify and run semi-naive evaluation to fixpoint. Idempotent.
    @raise Invalid_argument when the program is not stratifiable. *)

val mem : t -> string -> string list -> bool

val query : t -> string -> string array list
(** All tuples of a predicate, with names restored, last-inserted
    first. *)

val query_ids : t -> string -> int array list
(** {!query} at the id level: the same rows in the same order, as the
    stored int tuples (not to be mutated), with no name lookup. *)

val cardinal : t -> string -> int
