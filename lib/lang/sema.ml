(* Semantic analysis for MiniAndroid.

   Sema takes a parsed {!Ast.program}, merges it with the framework
   builtins, and produces a *resolved* program in which:
   - every simple name is resolved to a local, an own/inherited field, a
     captured outer field (desugared to an explicit chain of [outer]
     field reads), or a static field;
   - every call has an explicit receiver and a resolved method signature
     (or is an intrinsic);
   - locals are alpha-renamed so names are unique within a method;
   - anonymous classes carry an implicit [outer] field, initialised at
     allocation by the IR lowering.

   All checks (class hierarchy well-formedness, typing, override
   compatibility) raise {!Diag.Error} on failure. *)

module Tbl = Hashtbl.Make (String)

(* -- resolved representation ------------------------------------------ *)

type field_ref = {
  fr_class : string;  (** declaring class *)
  fr_name : string;
  fr_ty : Ast.ty;
  fr_static : bool;
}

type method_sig = {
  ms_class : string;  (** declaring class of the resolved target *)
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
  | Rnew of string * method_sig option * rexpr list  (** class, init method, args *)
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
  rc_fields : field_ref list;  (** own fields only (incl. implicit [outer]) *)
  rc_methods : rmeth list;  (** own methods only *)
  rc_anon : bool;
  rc_outer : string option;
  rc_builtin : bool;
  rc_loc : Loc.t;
}

(* The class table is hashed: every name resolution, dispatch and
   framework-model query probes it, and a string-keyed balanced map paid
   a string comparison per tree level. *)
type t = {
  classes : rcls Tbl.t;
  order : string list;  (** declaration order: builtins first, then user classes *)
  mutable n_sites : int;  (** [new] expressions resolved so far *)
}

(* -- hierarchy queries -------------------------------------------------- *)

let find_class prog name = Tbl.find_opt prog.classes name

let get_class prog name =
  match Tbl.find_opt prog.classes name with
  | Some c -> c
  | None -> Diag.error "unknown class %s" name

let rec ancestors prog name =
  match (get_class prog name).rc_super with
  | None -> []
  | Some s -> s :: ancestors prog s

(* [is_subclass prog a b] holds when [a] = [b] or [a] inherits from [b]. *)
let is_subclass prog a b = String.equal a b || List.exists (String.equal b) (ancestors prog a)

let is_assignable prog ~(src : Ast.ty) ~(dst : Ast.ty) =
  match (src, dst) with
  | Ast.Tint, Ast.Tint | Ast.Tbool, Ast.Tbool | Ast.Tstring, Ast.Tstring -> true
  | Ast.Tclass "<null>", Ast.Tclass _ -> true
  | Ast.Tclass a, Ast.Tclass b -> is_subclass prog a b
  | Ast.Tvoid, Ast.Tvoid -> true
  | (Ast.Tint | Ast.Tbool | Ast.Tstring | Ast.Tvoid | Ast.Tclass _), _ -> false

(* Find a field by name in [cls] or its ancestors. *)
let rec lookup_field prog cls name : field_ref option =
  let c = get_class prog cls in
  match List.find_opt (fun f -> String.equal f.fr_name name) c.rc_fields with
  | Some f -> Some f
  | None -> ( match c.rc_super with None -> None | Some s -> lookup_field prog s name)

(* Find the signature of a method by name in [cls] or its ancestors
   (static resolution; dynamic dispatch is the analyses' concern). *)
let rec lookup_method prog cls name : method_sig option =
  let c = get_class prog cls in
  match List.find_opt (fun m -> String.equal m.rm_name name) c.rc_methods with
  | Some m ->
      Some { ms_class = c.rc_name; ms_name = m.rm_name; ms_ret = m.rm_ret; ms_params = m.rm_params }
  | None -> ( match c.rc_super with None -> None | Some s -> lookup_method prog s name)

(* The most-derived implementation of [name] when the dynamic type is
   [cls]: used by the call-graph and the interpreter. *)
let rec dispatch prog cls name : rmeth option =
  let c = get_class prog cls in
  match List.find_opt (fun m -> String.equal m.rm_name name) c.rc_methods with
  | Some m -> Some m
  | None -> ( match c.rc_super with None -> None | Some s -> dispatch prog s name)

let all_fields prog cls : field_ref list =
  let rec go name acc =
    let c = get_class prog name in
    let acc = c.rc_fields @ acc in
    match c.rc_super with None -> acc | Some s -> go s acc
  in
  go cls []

let user_classes prog =
  List.filter_map
    (fun n ->
      let c = get_class prog n in
      if c.rc_builtin then None else Some c)
    prog.order

let all_classes prog = List.map (get_class prog) prog.order

let fold_methods prog f acc =
  List.fold_left
    (fun acc cname ->
      let c = get_class prog cname in
      List.fold_left (fun acc m -> f acc c m) acc c.rc_methods)
    acc prog.order

let n_alloc_sites prog = prog.n_sites

(* -- resolution environment -------------------------------------------- *)

type env = {
  prog : t;  (* the class table; resolution reads fields and signatures only *)
  cls : string;  (* current class *)
  chain : string list;  (* [cls], then its enclosing classes ({!outer_chain}) *)
  mutable scopes : (string * (Ast.ty * string)) list list;
      (* source name -> (type, unique name); innermost scope first *)
  mutable fresh : int;
  ret : Ast.ty;
}

let push_scope env = env.scopes <- [] :: env.scopes

let pop_scope env =
  match env.scopes with
  | [] -> invalid_arg "pop_scope: empty scope stack"
  | _ :: rest -> env.scopes <- rest

let declare_local env ~loc src_name ty =
  (match env.scopes with
  | scope :: _ when List.mem_assoc src_name scope ->
      Diag.error ~loc "duplicate local variable %s" src_name
  | [] | _ :: _ -> ());
  env.fresh <- env.fresh + 1;
  (* Keep the first occurrence readable; shadowing declarations in outer
     scopes get a numeric suffix so unique names stay unique. *)
  let unique =
    if List.exists (fun sc -> List.mem_assoc src_name sc) env.scopes then
      Printf.sprintf "%s#%d" src_name env.fresh
    else src_name
  in
  (match env.scopes with
  | scope :: rest -> env.scopes <- ((src_name, (ty, unique)) :: scope) :: rest
  | [] -> invalid_arg "declare_local: no scope");
  unique

let find_local env name =
  let rec go = function
    | [] -> None
    | scope :: rest -> ( match List.assoc_opt name scope with Some v -> Some v | None -> go rest)
  in
  go env.scopes

(* The chain of enclosing classes for capture resolution: the class
   first, then its outers. Each hop corresponds to one implicit [outer]
   field read. *)
let outer_chain prog cls : string list =
  let rec go name acc =
    let c = get_class prog name in
    match c.rc_outer with None -> List.rev (name :: acc) | Some o -> go o (name :: acc)
  in
  go cls []

(* Build [this.outer.outer...] with [hops] outer reads. *)
let outer_access env ~loc hops =
  let prog = env.prog in
  let rec go expr cls hops =
    if hops = 0 then expr
    else
      match lookup_field prog cls "outer" with
      | Some fr ->
          let outer_cls =
            match fr.fr_ty with
            | Ast.Tclass c -> c
            | Ast.Tint | Ast.Tbool | Ast.Tstring | Ast.Tvoid ->
                Diag.error ~loc "internal: outer field of %s is not a class type" cls
          in
          go { re = Rget (expr, fr); rty = fr.fr_ty; rloc = loc } outer_cls (hops - 1)
      | None -> Diag.error ~loc "internal: missing outer field on %s" cls
  in
  go { re = Rthis; rty = Ast.Tclass env.cls; rloc = loc } env.cls hops

(* -- expression resolution --------------------------------------------- *)

let class_of_ty ~loc ty =
  match ty with
  | Ast.Tclass c -> c
  | Ast.Tint | Ast.Tbool | Ast.Tstring | Ast.Tvoid ->
      Diag.error ~loc "expected an object but found a value of type %a" Ast.pp_ty ty

let rec resolve_expr env (e : Ast.expr) : rexpr =
  let loc = e.Ast.eloc in
  let prog = env.prog in
  match e.Ast.e with
  | Ast.Null -> { re = Rnull; rty = Ast.Tclass "<null>"; rloc = loc }
  | Ast.This -> { re = Rthis; rty = Ast.Tclass env.cls; rloc = loc }
  | Ast.IntLit n -> { re = Rint n; rty = Ast.Tint; rloc = loc }
  | Ast.BoolLit b -> { re = Rbool b; rty = Ast.Tbool; rloc = loc }
  | Ast.StrLit s -> { re = Rstr s; rty = Ast.Tstring; rloc = loc }
  | Ast.Name x -> (
      match find_local env x with
      | Some (ty, unique) -> { re = Rlocal unique; rty = ty; rloc = loc }
      | None -> (
          match resolve_name_as_field env ~loc x with
          | Some re -> re
          | None -> Diag.error ~loc "unknown name %s" x))
  | Ast.FieldAcc (r, fname) -> (
      let r = resolve_expr env r in
      let rcls = class_of_ty ~loc:r.rloc r.rty in
      match lookup_field prog rcls fname with
      | Some fr when not fr.fr_static -> { re = Rget (r, fr); rty = fr.fr_ty; rloc = loc }
      | Some _ -> Diag.error ~loc "field %s.%s is static; access it via its class" rcls fname
      | None -> Diag.error ~loc "class %s has no field %s" rcls fname)
  | Ast.Call (None, m, args) -> resolve_unqualified_call env ~loc m args
  | Ast.Call (Some r, m, args) ->
      let r = resolve_expr env r in
      let rcls = class_of_ty ~loc:r.rloc r.rty in
      resolve_call env ~loc r rcls m args
  | Ast.New (cname, args) ->
      if not (Tbl.mem prog.classes cname) then Diag.error ~loc "unknown class %s" cname;
      let init = lookup_method prog cname "init" in
      let args = List.map (resolve_expr env) args in
      (match (init, args) with
      | None, [] -> ()
      | None, _ :: _ -> Diag.error ~loc "class %s has no init method but got arguments" cname
      | Some ms, args -> check_args env ~loc ~cls:cname ~meth:"init" ms args);
      prog.n_sites <- prog.n_sites + 1;
      { re = Rnew (cname, init, args); rty = Ast.Tclass cname; rloc = loc }
  | Ast.Unop (op, a) -> (
      let a = resolve_expr env a in
      match (op, a.rty) with
      | Ast.Not, Ast.Tbool -> { re = Runop (op, a); rty = Ast.Tbool; rloc = loc }
      | Ast.Neg, Ast.Tint -> { re = Runop (op, a); rty = Ast.Tint; rloc = loc }
      | (Ast.Not | Ast.Neg), ty ->
          Diag.error ~loc "operator %a cannot be applied to %a" Ast.pp_unop op Ast.pp_ty ty)
  | Ast.Binop (op, a, b) -> resolve_binop env ~loc op a b

and resolve_binop env ~loc op a b =
  let prog = env.prog in
  let a = resolve_expr env a in
  let b = resolve_expr env b in
  let ok rty = { re = Rbinop (op, a, b); rty; rloc = loc } in
  let fail () =
    Diag.error ~loc "operator %a cannot be applied to %a and %a" Ast.pp_binop op Ast.pp_ty a.rty
      Ast.pp_ty b.rty
  in
  match op with
  | Ast.Add -> (
      match (a.rty, b.rty) with
      | Ast.Tint, Ast.Tint -> ok Ast.Tint
      | Ast.Tstring, Ast.Tstring -> ok Ast.Tstring
      | _, _ -> fail ())
  | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod -> (
      match (a.rty, b.rty) with Ast.Tint, Ast.Tint -> ok Ast.Tint | _, _ -> fail ())
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
      match (a.rty, b.rty) with Ast.Tint, Ast.Tint -> ok Ast.Tbool | _, _ -> fail ())
  | Ast.And | Ast.Or -> (
      match (a.rty, b.rty) with Ast.Tbool, Ast.Tbool -> ok Ast.Tbool | _, _ -> fail ())
  | Ast.Eq | Ast.Ne -> (
      match (a.rty, b.rty) with
      | Ast.Tint, Ast.Tint | Ast.Tbool, Ast.Tbool | Ast.Tstring, Ast.Tstring -> ok Ast.Tbool
      | Ast.Tclass "<null>", Ast.Tclass _ | Ast.Tclass _, Ast.Tclass "<null>" -> ok Ast.Tbool
      | Ast.Tclass x, Ast.Tclass y
        when is_subclass prog x y || is_subclass prog y x
             || String.equal x "Object" || String.equal y "Object" ->
          ok Ast.Tbool
      | _, _ -> fail ())

(* Resolve a bare name as an own field, a captured outer field, or a
   static field of any enclosing class. *)
and resolve_name_as_field env ~loc x : rexpr option =
  let prog = env.prog in
  let rec try_chain hops = function
    | [] -> None
    | cls :: rest -> (
        match lookup_field prog cls x with
        | Some fr when fr.fr_static -> Some { re = Rget_static fr; rty = fr.fr_ty; rloc = loc }
        | Some fr ->
            let recv = outer_access env ~loc hops in
            Some { re = Rget (recv, fr); rty = fr.fr_ty; rloc = loc }
        | None -> try_chain (hops + 1) rest)
  in
  try_chain 0 env.chain

and resolve_unqualified_call env ~loc m args : rexpr =
  let prog = env.prog in
  let rec try_chain hops = function
    | [] -> (
        match Builtins.intrinsic_sig m with
        | Some (ptys, ret) ->
            let args = List.map (resolve_expr env) args in
            if List.length args <> List.length ptys then
              Diag.error ~loc "intrinsic %s expects %d argument(s), got %d" m (List.length ptys)
                (List.length args);
            List.iter2
              (fun a pty ->
                if not (is_assignable prog ~src:a.rty ~dst:pty) then
                  Diag.error ~loc:a.rloc "argument of %s has type %a but %a was expected" m
                    Ast.pp_ty a.rty Ast.pp_ty pty)
              args ptys;
            { re = Rintrinsic (m, args); rty = ret; rloc = loc }
        | None -> Diag.error ~loc "unknown method or intrinsic %s" m)
    | cls :: rest -> (
        match lookup_method prog cls m with
        | Some _ ->
            let recv = outer_access env ~loc hops in
            resolve_call env ~loc recv cls m args
        | None -> try_chain (hops + 1) rest)
  in
  try_chain 0 env.chain

and resolve_call env ~loc recv rcls m args : rexpr =
  match lookup_method env.prog rcls m with
  | None -> Diag.error ~loc "class %s has no method %s" rcls m
  | Some ms ->
      let args = List.map (resolve_expr env) args in
      check_args env ~loc ~cls:rcls ~meth:m ms args;
      { re = Rcall (recv, ms, args); rty = ms.ms_ret; rloc = loc }

(* [cls] and [meth] name the callee as written ("Class.method") in the
   error messages, which are the only place that string is built. *)
and check_args env ~loc ~cls ~meth ms args =
  if List.length args <> List.length ms.ms_params then
    Diag.error ~loc "%s.%s expects %d argument(s), got %d" cls meth (List.length ms.ms_params)
      (List.length args);
  List.iter2
    (fun a (pty, pname) ->
      if not (is_assignable env.prog ~src:a.rty ~dst:pty) then
        Diag.error ~loc:a.rloc "argument %s of %s.%s has type %a but %a was expected" pname cls
          meth Ast.pp_ty a.rty Ast.pp_ty pty)
    args ms.ms_params

(* -- statement resolution ----------------------------------------------- *)

let rec resolve_stmt env (st : Ast.stmt) : rstmt =
  let loc = st.Ast.sloc in
  let prog = env.prog in
  match st.Ast.s with
  | Ast.Decl (ty, x, init) ->
      (match ty with
      | Ast.Tvoid -> Diag.error ~loc "variable %s cannot have type void" x
      | Ast.Tclass c when not (Tbl.mem prog.classes c) -> Diag.error ~loc "unknown class %s" c
      | Ast.Tclass _ | Ast.Tint | Ast.Tbool | Ast.Tstring -> ());
      let init =
        Option.map
          (fun e ->
            let r = resolve_expr env e in
            if not (is_assignable prog ~src:r.rty ~dst:ty) then
              Diag.error ~loc:r.rloc "cannot initialise %s : %a with a value of type %a" x
                Ast.pp_ty ty Ast.pp_ty r.rty;
            r)
          init
      in
      let unique = declare_local env ~loc x ty in
      { rs = Rdecl (ty, unique, init); rsloc = loc }
  | Ast.AssignName (x, e) -> (
      let rhs = resolve_expr env e in
      match find_local env x with
      | Some (ty, unique) ->
          if not (is_assignable prog ~src:rhs.rty ~dst:ty) then
            Diag.error ~loc "cannot assign a value of type %a to %s : %a" Ast.pp_ty rhs.rty x
              Ast.pp_ty ty;
          { rs = Rset_local (unique, rhs); rsloc = loc }
      | None -> (
          match resolve_name_as_field env ~loc x with
          | Some { re = Rget (recv, fr); _ } ->
              if not (is_assignable prog ~src:rhs.rty ~dst:fr.fr_ty) then
                Diag.error ~loc "cannot assign a value of type %a to field %s : %a" Ast.pp_ty
                  rhs.rty x Ast.pp_ty fr.fr_ty;
              { rs = Rset_field (recv, fr, rhs); rsloc = loc }
          | Some { re = Rget_static fr; _ } ->
              if not (is_assignable prog ~src:rhs.rty ~dst:fr.fr_ty) then
                Diag.error ~loc "cannot assign a value of type %a to static field %s : %a"
                  Ast.pp_ty rhs.rty x Ast.pp_ty fr.fr_ty;
              { rs = Rset_static (fr, rhs); rsloc = loc }
          | Some _ | None -> Diag.error ~loc "unknown variable or field %s" x))
  | Ast.AssignField (r, fname, e) -> (
      let r = resolve_expr env r in
      let rhs = resolve_expr env e in
      let rcls = class_of_ty ~loc:r.rloc r.rty in
      match lookup_field prog rcls fname with
      | Some fr when not fr.fr_static ->
          if not (is_assignable prog ~src:rhs.rty ~dst:fr.fr_ty) then
            Diag.error ~loc "cannot assign a value of type %a to field %s.%s : %a" Ast.pp_ty
              rhs.rty rcls fname Ast.pp_ty fr.fr_ty;
          { rs = Rset_field (r, fr, rhs); rsloc = loc }
      | Some _ -> Diag.error ~loc "field %s.%s is static" rcls fname
      | None -> Diag.error ~loc "class %s has no field %s" rcls fname)
  | Ast.Expr e -> { rs = Rexpr (resolve_expr env e); rsloc = loc }
  | Ast.If (c, a, b) ->
      let c = resolve_expr env c in
      if not (Ast.ty_equal c.rty Ast.Tbool) then
        Diag.error ~loc:c.rloc "if condition must be bool, found %a" Ast.pp_ty c.rty;
      { rs = Rif (c, resolve_block env a, resolve_block env b); rsloc = loc }
  | Ast.While (c, b) ->
      let c = resolve_expr env c in
      if not (Ast.ty_equal c.rty Ast.Tbool) then
        Diag.error ~loc:c.rloc "while condition must be bool, found %a" Ast.pp_ty c.rty;
      { rs = Rwhile (c, resolve_block env b); rsloc = loc }
  | Ast.Return e ->
      let e = Option.map (resolve_expr env) e in
      (match (e, env.ret) with
      | None, Ast.Tvoid -> ()
      | None, ty -> Diag.error ~loc "method must return a value of type %a" Ast.pp_ty ty
      | Some r, ty ->
          if not (is_assignable prog ~src:r.rty ~dst:ty) then
            Diag.error ~loc:r.rloc "cannot return a value of type %a from a method returning %a"
              Ast.pp_ty r.rty Ast.pp_ty ty);
      { rs = Rreturn e; rsloc = loc }
  | Ast.Sync (l, b) ->
      let l = resolve_expr env l in
      let _ = class_of_ty ~loc:l.rloc l.rty in
      { rs = Rsync (l, resolve_block env b); rsloc = loc }
  | Ast.BlockStmt b -> { rs = Rblock (resolve_block env b); rsloc = loc }

and resolve_block env (b : Ast.block) : rblock =
  push_scope env;
  let r = List.map (resolve_stmt env) b in
  pop_scope env;
  r

(* -- class table construction ------------------------------------------- *)

let field_ref_of_ast cls (f : Ast.field) =
  { fr_class = cls; fr_name = f.Ast.f_name; fr_ty = f.Ast.f_ty; fr_static = f.Ast.f_static }

(* First pass: build class skeletons (fields + method signatures, bodies
   left empty) so that resolution can consult the full hierarchy. Each
   skeleton comes back paired with its methods' ASTs, in the same order
   as its [rc_methods]. *)
let build_sketch (classes : (Ast.cls * bool) list) : t * (rcls * Ast.meth list) list =
  let tbl = Tbl.create 64 in
  List.iter
    (fun (c, _) ->
      if Tbl.mem tbl c.Ast.c_name then
        Diag.error ~loc:c.Ast.c_loc "duplicate class %s" c.Ast.c_name;
      Tbl.add tbl c.Ast.c_name c)
    classes;
  let order = List.map (fun (c, _) -> c.Ast.c_name) classes in
  (* check supers exist and the hierarchy is acyclic *)
  List.iter
    (fun (c, _) ->
      match c.Ast.c_super with
      | None -> ()
      | Some s ->
          if not (Tbl.mem tbl s) then
            Diag.error ~loc:c.Ast.c_loc "class %s extends unknown class %s" c.Ast.c_name s)
    classes;
  let rec check_cycle seen name =
    if List.exists (String.equal name) seen then
      Diag.error "inheritance cycle involving class %s" name;
    match (Tbl.find tbl name).Ast.c_super with
    | None -> ()
    | Some s -> check_cycle (name :: seen) s
  in
  List.iter (fun (c, _) -> check_cycle [] c.Ast.c_name) classes;
  (* duplicate member checks: one pair of tables for all classes, each
     name tagged with the index of the class that last declared it *)
  let seen_f = Tbl.create 64 and seen_m = Tbl.create 64 in
  let seen tbl stamp name = match Tbl.find_opt tbl name with Some s -> s = stamp | None -> false in
  let sketch = Tbl.create 64 in
  let paired =
    List.mapi
      (fun stamp (c, builtin) ->
        let name = c.Ast.c_name in
        List.iter
          (fun (f : Ast.field) ->
            if seen seen_f stamp f.Ast.f_name then
              Diag.error ~loc:f.Ast.f_loc "duplicate field %s in class %s" f.Ast.f_name name;
            Tbl.replace seen_f f.Ast.f_name stamp)
          c.Ast.c_fields;
        List.iter
          (fun (m : Ast.meth) ->
            if seen seen_m stamp m.Ast.m_name then
              Diag.error ~loc:m.Ast.m_loc "duplicate method %s in class %s" m.Ast.m_name name;
            Tbl.replace seen_m m.Ast.m_name stamp)
          c.Ast.c_methods;
        let own_fields = List.map (field_ref_of_ast name) c.Ast.c_fields in
        let own_fields =
          if c.Ast.c_anon then
            let outer =
              match c.Ast.c_outer with
              | Some o -> o
              | None -> Diag.error ~loc:c.Ast.c_loc "internal: anonymous class without outer"
            in
            { fr_class = name; fr_name = "outer"; fr_ty = Ast.Tclass outer; fr_static = false }
            :: own_fields
          else own_fields
        in
        let methods =
          List.map
            (fun (m : Ast.meth) ->
              {
                rm_class = name;
                rm_name = m.Ast.m_name;
                rm_ret = m.Ast.m_ret;
                rm_params = m.Ast.m_params;
                rm_body = [];
                rm_loc = m.Ast.m_loc;
              })
            c.Ast.c_methods
        in
        let rc =
          {
            rc_name = name;
            rc_super = c.Ast.c_super;
            rc_fields = own_fields;
            rc_methods = methods;
            rc_anon = c.Ast.c_anon;
            rc_outer = c.Ast.c_outer;
            rc_builtin = builtin;
            rc_loc = c.Ast.c_loc;
          }
        in
        Tbl.replace sketch name rc;
        (rc, c.Ast.c_methods))
      classes
  in
  ({ classes = sketch; order; n_sites = 0 }, paired)

(* Hierarchy-level checks that need the full sketch: no field hiding, and
   override compatibility. *)
let check_hierarchy (prog : t) =
  List.iter
    (fun name ->
      let c = get_class prog name in
      (match c.rc_super with
      | None -> ()
      | Some super ->
          List.iter
            (fun f ->
              if not (String.equal f.fr_name "outer") then
                match lookup_field prog super f.fr_name with
                | Some inherited ->
                    Diag.error ~loc:c.rc_loc "field %s in class %s hides %s.%s" f.fr_name name
                      inherited.fr_class f.fr_name
                | None -> ())
            c.rc_fields;
          List.iter
            (fun m ->
              match lookup_method prog super m.rm_name with
              | Some inherited ->
                  let params_ok =
                    List.length inherited.ms_params = List.length m.rm_params
                    && List.for_all2
                         (fun (a, _) (b, _) -> Ast.ty_equal a b)
                         inherited.ms_params m.rm_params
                  in
                  if not (params_ok && Ast.ty_equal inherited.ms_ret m.rm_ret) then
                    Diag.error ~loc:m.rm_loc
                      "method %s.%s overrides %s.%s with an incompatible signature" name
                      m.rm_name inherited.ms_class m.rm_name
              | None -> ())
            c.rc_methods);
      (* check field/param types mention known classes *)
      let check_ty loc = function
        | Ast.Tclass cn when not (Tbl.mem prog.classes cn) ->
            Diag.error ~loc "unknown class %s" cn
        | Ast.Tclass _ | Ast.Tint | Ast.Tbool | Ast.Tstring | Ast.Tvoid -> ()
      in
      List.iter (fun f -> check_ty c.rc_loc f.fr_ty) c.rc_fields;
      List.iter
        (fun m ->
          check_ty m.rm_loc m.rm_ret;
          List.iter (fun (t, _) -> check_ty m.rm_loc t) m.rm_params)
        c.rc_methods)
    prog.order

(* -- entry point --------------------------------------------------------- *)

let resolve_method prog ~chain (rm : rmeth) (ast_m : Ast.meth) =
  let name = rm.rm_class in
  let env = { prog; cls = name; chain; scopes = []; fresh = 0; ret = rm.rm_ret } in
  push_scope env;
  (* parameters are the outermost scope *)
  List.iter
    (fun (ty, pname) ->
      let u = declare_local env ~loc:rm.rm_loc pname ty in
      if not (String.equal u pname) then
        Diag.error ~loc:rm.rm_loc "duplicate parameter %s in %s.%s" pname name rm.rm_name)
    rm.rm_params;
  let body = resolve_block env ast_m.Ast.m_body in
  pop_scope env;
  { rm with rm_body = body }

(* Analyse a parsed user program together with the framework builtins. *)
let analyze (user : Ast.program) : t =
  let builtins = Lazy.force Builtins.program in
  let tagged =
    List.map (fun c -> (c, true)) builtins.Ast.p_classes
    @ List.map (fun c -> (c, false)) user.Ast.p_classes
  in
  let prog, paired = build_sketch tagged in
  check_hierarchy prog;
  (* second pass: resolve method bodies, class by class in name order, so
     that the first error reported does not depend on declaration order.
     A resolved class replaces its skeleton in place: resolution reads
     only fields and signatures, which the two share. *)
  let by_name =
    List.sort (fun ((a : rcls), _) ((b : rcls), _) -> String.compare a.rc_name b.rc_name) paired
  in
  List.iter
    (fun ((rc : rcls), ast_methods) ->
      let chain = outer_chain prog rc.rc_name in
      let methods = List.map2 (resolve_method prog ~chain) rc.rc_methods ast_methods in
      Tbl.replace prog.classes rc.rc_name { rc with rc_methods = methods })
    by_name;
  prog

(* Convenience: parse + analyse in one go. *)
let of_source ~file src = analyze (Parser.parse_program ~file src)
