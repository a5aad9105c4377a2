(** Semantic analysis for MiniAndroid.

    Takes a parsed {!Ast.program}, merges it with the framework builtins,
    and produces a {e resolved} program in which every simple name is
    resolved (local, own/inherited field, captured outer field desugared
    to explicit [outer]-chain reads, or static field), every call has an
    explicit receiver and a resolved signature, and locals are
    alpha-renamed to be unique per method. All well-formedness and typing
    failures raise {!Diag.Error}. *)

(** {1 Resolved representation} *)

type field_ref = {
  fr_class : string;  (** declaring class *)
  fr_name : string;
  fr_ty : Ast.ty;
  fr_static : bool;
}

type method_sig = {
  ms_class : string;  (** declaring class of the statically resolved target *)
  ms_name : string;
  ms_ret : Ast.ty;
  ms_params : (Ast.ty * string) list;
}

type rexpr = { re : rexpr_kind; rty : Ast.ty; rloc : Loc.t }

and rexpr_kind =
  | Rnull
  | Rthis
  | Rint of int
  | Rbool of bool
  | Rstr of string
  | Rlocal of string  (** unique local name *)
  | Rget of rexpr * field_ref
  | Rget_static of field_ref
  | Rcall of rexpr * method_sig * rexpr list
  | Rintrinsic of string * rexpr list
  | Rnew of string * method_sig option * rexpr list
      (** class, optional [init] constructor, arguments *)
  | Runop of Ast.unop * rexpr
  | Rbinop of Ast.binop * rexpr * rexpr

type rstmt = { rs : rstmt_kind; rsloc : Loc.t }

and rstmt_kind =
  | Rdecl of Ast.ty * string * rexpr option
  | Rset_local of string * rexpr
  | Rset_field of rexpr * field_ref * rexpr
  | Rset_static of field_ref * rexpr
  | Rexpr of rexpr
  | Rif of rexpr * rblock * rblock
  | Rwhile of rexpr * rblock
  | Rreturn of rexpr option
  | Rsync of rexpr * rblock
  | Rblock of rblock

and rblock = rstmt list

type rmeth = {
  rm_class : string;
  rm_name : string;
  rm_ret : Ast.ty;
  rm_params : (Ast.ty * string) list;
  rm_body : rblock;
  rm_loc : Loc.t;
}

type rcls = {
  rc_name : string;
  rc_super : string option;
  rc_fields : field_ref list;  (** own fields only, incl. the implicit [outer] *)
  rc_methods : rmeth list;  (** own methods only *)
  rc_anon : bool;
  rc_outer : string option;
  rc_builtin : bool;
  rc_loc : Loc.t;
}

type t
(** A resolved program: a hashed class table over the builtins and the
    user classes, in declaration order. *)

(** {1 Hierarchy queries} *)

val find_class : t -> string -> rcls option
(** [None] on unknown classes. *)

val get_class : t -> string -> rcls
(** @raise Diag.Error on unknown classes. *)

val ancestors : t -> string -> string list
(** Proper ancestors, closest first. *)

val is_subclass : t -> string -> string -> bool
(** [is_subclass p a b] holds when [a] = [b] or [a] inherits from [b]. *)

val is_assignable : t -> src:Ast.ty -> dst:Ast.ty -> bool

val lookup_field : t -> string -> string -> field_ref option
(** Search a field by name in a class or its ancestors. *)

val lookup_method : t -> string -> string -> method_sig option
(** Static resolution of a method by name in a class or its ancestors. *)

val dispatch : t -> string -> string -> rmeth option
(** The most-derived implementation reached when the dynamic receiver
    class is the first argument — used by the call graph and the
    interpreter. *)

val all_fields : t -> string -> field_ref list
(** Own and inherited fields. *)

val user_classes : t -> rcls list
(** Non-builtin classes, in declaration order. *)

val all_classes : t -> rcls list

val fold_methods : t -> ('a -> rcls -> rmeth -> 'a) -> 'a -> 'a
(** Every method of every class, in declaration order. *)

val n_alloc_sites : t -> int
(** The [new] expressions in the program's method bodies, builtins
    included: one allocation site each once lowered. The points-to
    solver sizes its tables from this count. *)

(** {1 Entry points} *)

val analyze : Ast.program -> t
(** Analyse a parsed user program together with the framework builtins. *)

val of_source : file:string -> string -> t
(** Parse and analyse in one go. *)
