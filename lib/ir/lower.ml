(* Lowering of resolved MiniAndroid methods to the CFG-based IR.

   Notable points:
   - [&&] / [||] are short-circuiting and lowered to control flow, both in
     statement conditions and in value contexts;
   - conditional branches record non-null facts ({!Cfg.nonnull_fact}) for
     conditions of the shape [x != null] / [this.f != null], which the
     If-Guard filter consumes;
   - allocations of anonymous classes set the implicit [outer] field to
     the current [this] immediately after the [new];
   - a [putfield] whose right-hand side is the [null] literal is tagged
     [Src_null]: these are the {e free} operations of the paper. *)

open Nadroid_lang

type st = {
  sema : Sema.t;
  mref : Instr.mref;
  mutable n_vars : int;
  mutable n_instrs : int;
  mutable n_allocs : int;
  mutable n_blocks : int;
  mutable blocks : Cfg.block list;  (* all blocks, reverse creation order *)
  mutable cur : Cfg.block;  (* [b_instrs] held in reverse emission order
                               until [lower_method] finalizes *)
  mutable terminated : bool;  (* whether [cur] already has a real terminator *)
  mutable locals : (string * Instr.var) list;  (* unique local name -> slot *)
  mutable n_locals : int;  (* length of [locals] *)
  mutable locals_tbl : (string, Instr.var) Hashtbl.t option;
      (* every local, once there are more than [spill_locals]; [locals]
         then stops growing *)
}

(* Most methods declare a handful of locals, and an association list
   costs them no table; past this many the lookups go through a hash
   table, so a method with thousands of locals still lowers in linear
   time. *)
let spill_locals = 16

let sentinel_term = Cfg.Goto (-1)

let fresh_var st name =
  let v = { Instr.v_id = st.n_vars; v_name = name } in
  st.n_vars <- st.n_vars + 1;
  v

let new_block st =
  let blk = { Cfg.b_id = st.n_blocks; b_instrs = []; b_term = sentinel_term } in
  st.n_blocks <- st.n_blocks + 1;
  st.blocks <- blk :: st.blocks;
  blk

let switch_to st blk =
  st.cur <- blk;
  st.terminated <- false

(* Prepend, not append: an append per instruction re-copies the block's
   list and turns a straight-line body into O(n^2) lowering. Blocks are
   reversed once at the end of [lower_method]. *)
let emit st ~loc kind =
  if not st.terminated then begin
    let ins = { Instr.i = kind; loc; id = st.n_instrs } in
    st.n_instrs <- st.n_instrs + 1;
    st.cur.Cfg.b_instrs <- ins :: st.cur.Cfg.b_instrs
  end

let set_term st term =
  if not st.terminated then begin
    st.cur.Cfg.b_term <- term;
    st.terminated <- true
  end

let bind_local st name v =
  match st.locals_tbl with
  | Some tbl -> Hashtbl.replace tbl name v
  | None ->
      st.locals <- (name, v) :: st.locals;
      st.n_locals <- st.n_locals + 1;
      if st.n_locals > spill_locals then begin
        let tbl = Hashtbl.create (4 * spill_locals) in
        List.iter (fun (n, v) -> Hashtbl.replace tbl n v) (List.rev st.locals);
        st.locals_tbl <- Some tbl
      end

let local st name =
  let found =
    match st.locals_tbl with
    | Some tbl -> Hashtbl.find_opt tbl name
    | None -> List.assoc_opt name st.locals
  in
  match found with
  | Some v -> v
  | None ->
      (* locals are pre-registered; reaching here is a lowering bug *)
      invalid_arg (Printf.sprintf "Lower: unbound local %s in %s.%s" name st.mref.Instr.mr_class
           st.mref.Instr.mr_name)

let this_var st = local st "this"

(* Does this expression denote the [this] of the enclosing component,
   possibly through a chain of implicit [outer] hops? Used to decide
   whether a null-check condition yields a field fact. *)
let rec is_this_or_outer (e : Sema.rexpr) =
  match e.Sema.re with
  | Sema.Rthis -> true
  | Sema.Rget (base, fr) -> String.equal fr.Sema.fr_name "outer" && is_this_or_outer base
  | Sema.Rnull | Sema.Rint _ | Sema.Rbool _ | Sema.Rstr _ | Sema.Rlocal _ | Sema.Rget_static _
  | Sema.Rcall _ | Sema.Rintrinsic _ | Sema.Rnew _ | Sema.Runop _ | Sema.Rbinop _ ->
      false

let rec lower_expr st (e : Sema.rexpr) : Instr.var =
  let loc = e.Sema.rloc in
  match e.Sema.re with
  | Sema.Rnull ->
      let v = fresh_var st "$null" in
      emit st ~loc (Instr.Const (v, Instr.Cnull));
      v
  | Sema.Rthis -> this_var st
  | Sema.Rint n ->
      let v = fresh_var st "$c" in
      emit st ~loc (Instr.Const (v, Instr.Cint n));
      v
  | Sema.Rbool b ->
      let v = fresh_var st "$c" in
      emit st ~loc (Instr.Const (v, Instr.Cbool b));
      v
  | Sema.Rstr s ->
      let v = fresh_var st "$c" in
      emit st ~loc (Instr.Const (v, Instr.Cstr s));
      v
  | Sema.Rlocal x -> local st x
  | Sema.Rget (r, fr) ->
      let o = lower_expr st r in
      let v = fresh_var st ("$" ^ fr.Sema.fr_name) in
      emit st ~loc (Instr.Getfield (v, o, fr));
      v
  | Sema.Rget_static fr ->
      let v = fresh_var st ("$" ^ fr.Sema.fr_name) in
      emit st ~loc (Instr.Getstatic (v, fr));
      v
  | Sema.Rcall (recv, ms, args) ->
      let r = lower_expr st recv in
      let argvs = List.map (lower_expr st) args in
      let dst =
        match ms.Sema.ms_ret with
        | Ast.Tvoid -> None
        | Ast.Tint | Ast.Tbool | Ast.Tstring | Ast.Tclass _ -> Some (fresh_var st "$ret")
      in
      emit st ~loc (Instr.Call (dst, r, ms, argvs));
      (match dst with Some d -> d | None -> fresh_var st "$void")
  | Sema.Rintrinsic (name, args) ->
      let argvs = List.map (lower_expr st) args in
      let dst =
        match Builtins.intrinsic_sig name with
        | Some (_, Ast.Tvoid) | None -> None
        | Some (_, (Ast.Tint | Ast.Tbool | Ast.Tstring | Ast.Tclass _)) ->
            Some (fresh_var st "$ret")
      in
      emit st ~loc (Instr.Intrinsic (dst, name, argvs));
      (match dst with Some d -> d | None -> fresh_var st "$void")
  | Sema.Rnew (cname, init, args) ->
      let argvs = List.map (lower_expr st) args in
      let site =
        { Instr.as_method = st.mref; as_idx = st.n_allocs; as_class = cname; as_loc = loc }
      in
      st.n_allocs <- st.n_allocs + 1;
      let dst = fresh_var st ("$new_" ^ cname) in
      emit st ~loc (Instr.New (dst, site, init, argvs));
      let cls = Sema.get_class st.sema cname in
      if cls.Sema.rc_anon then begin
        match Sema.lookup_field st.sema cname "outer" with
        | Some outer_fr ->
            emit st ~loc (Instr.Putfield (dst, outer_fr, this_var st, Instr.Src_var))
        | None -> invalid_arg ("Lower: anonymous class without outer field: " ^ cname)
      end;
      dst
  | Sema.Runop (op, a) ->
      let av = lower_expr st a in
      let v = fresh_var st "$u" in
      emit st ~loc (Instr.Unop (v, op, av));
      v
  | Sema.Rbinop ((Ast.And | Ast.Or), _, _) ->
      (* short-circuit in value context: materialise via control flow *)
      let res = fresh_var st "$bool" in
      let bt = new_block st and bf = new_block st and bj = new_block st in
      lower_cond st e bt.Cfg.b_id bf.Cfg.b_id;
      switch_to st bt;
      emit st ~loc (Instr.Const (res, Instr.Cbool true));
      set_term st (Cfg.Goto bj.Cfg.b_id);
      switch_to st bf;
      emit st ~loc (Instr.Const (res, Instr.Cbool false));
      set_term st (Cfg.Goto bj.Cfg.b_id);
      switch_to st bj;
      res
  | Sema.Rbinop (op, a, b) ->
      let av = lower_expr st a in
      let bv = lower_expr st b in
      let v = fresh_var st "$b" in
      emit st ~loc (Instr.Binop (v, op, av, bv));
      v

(* Lower a boolean expression as a branch to [on_true] / [on_false],
   recording non-null facts on the edges. *)
and lower_cond st (e : Sema.rexpr) on_true on_false =
  let loc = e.Sema.rloc in
  match e.Sema.re with
  | Sema.Rbinop (Ast.And, a, b) ->
      let mid = new_block st in
      lower_cond st a mid.Cfg.b_id on_false;
      switch_to st mid;
      lower_cond st b on_true on_false
  | Sema.Rbinop (Ast.Or, a, b) ->
      let mid = new_block st in
      lower_cond st a on_true mid.Cfg.b_id;
      switch_to st mid;
      lower_cond st b on_true on_false
  | Sema.Runop (Ast.Not, a) -> lower_cond st a on_false on_true
  | Sema.Rbinop (((Ast.Eq | Ast.Ne) as op), a, b) ->
      (* null-comparison facts *)
      let facts_of (x : Sema.rexpr) (xv : Instr.var) =
        let base_facts = [ Cfg.Nn_var xv ] in
        match x.Sema.re with
        | Sema.Rget (base, fr) when is_this_or_outer base -> Cfg.Nn_field fr :: base_facts
        | Sema.Rget_static fr -> Cfg.Nn_field fr :: base_facts
        | Sema.Rnull | Sema.Rthis | Sema.Rint _ | Sema.Rbool _ | Sema.Rstr _ | Sema.Rlocal _
        | Sema.Rget _ | Sema.Rcall _ | Sema.Rintrinsic _ | Sema.Rnew _ | Sema.Runop _
        | Sema.Rbinop _ ->
            base_facts
      in
      let is_null (x : Sema.rexpr) = match x.Sema.re with Sema.Rnull -> true | _ -> false in
      let av = lower_expr st a in
      let bv = lower_expr st b in
      let cond = fresh_var st "$cmp" in
      emit st ~loc (Instr.Binop (cond, op, av, bv));
      let nonnull_facts =
        if is_null b && not (is_null a) then facts_of a av
        else if is_null a && not (is_null b) then facts_of b bv
        else []
      in
      let t_facts, f_facts =
        match op with
        | Ast.Ne -> (nonnull_facts, [])
        | Ast.Eq -> ([], nonnull_facts)
        | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge
        | Ast.And | Ast.Or ->
            ([], [])
      in
      set_term st (Cfg.If { cond; t = on_true; f = on_false; t_facts; f_facts })
  | Sema.Rnull | Sema.Rthis | Sema.Rint _ | Sema.Rbool _ | Sema.Rstr _ | Sema.Rlocal _
  | Sema.Rget _ | Sema.Rget_static _ | Sema.Rcall _ | Sema.Rintrinsic _ | Sema.Rnew _
  | Sema.Runop _ | Sema.Rbinop _ ->
      let v = lower_expr st e in
      set_term st (Cfg.If { cond = v; t = on_true; f = on_false; t_facts = []; f_facts = [] })

let rec lower_stmt st (s : Sema.rstmt) =
  let loc = s.Sema.rsloc in
  match s.Sema.rs with
  | Sema.Rdecl (_, x, init) -> (
      let v = fresh_var st x in
      bind_local st x v;
      match init with
      | None -> ()
      | Some ({ Sema.re = Sema.Rnull; _ } as e) ->
          ignore e;
          emit st ~loc (Instr.Const (v, Instr.Cnull))
      | Some e ->
          let src = lower_expr st e in
          emit st ~loc (Instr.Move (v, src)))
  | Sema.Rset_local (x, { Sema.re = Sema.Rnull; _ }) ->
      emit st ~loc (Instr.Const (local st x, Instr.Cnull))
  | Sema.Rset_local (x, e) ->
      let src = lower_expr st e in
      emit st ~loc (Instr.Move (local st x, src))
  | Sema.Rset_field (recv, fr, rhs) -> (
      let o = lower_expr st recv in
      match rhs.Sema.re with
      | Sema.Rnull ->
          let nv = fresh_var st "$null" in
          emit st ~loc (Instr.Const (nv, Instr.Cnull));
          emit st ~loc (Instr.Putfield (o, fr, nv, Instr.Src_null))
      | Sema.Rthis | Sema.Rint _ | Sema.Rbool _ | Sema.Rstr _ | Sema.Rlocal _ | Sema.Rget _
      | Sema.Rget_static _ | Sema.Rcall _ | Sema.Rintrinsic _ | Sema.Rnew _ | Sema.Runop _
      | Sema.Rbinop _ ->
          let src = lower_expr st rhs in
          emit st ~loc (Instr.Putfield (o, fr, src, Instr.Src_var)))
  | Sema.Rset_static (fr, rhs) -> (
      match rhs.Sema.re with
      | Sema.Rnull ->
          let nv = fresh_var st "$null" in
          emit st ~loc (Instr.Const (nv, Instr.Cnull));
          emit st ~loc (Instr.Putstatic (fr, nv, Instr.Src_null))
      | Sema.Rthis | Sema.Rint _ | Sema.Rbool _ | Sema.Rstr _ | Sema.Rlocal _ | Sema.Rget _
      | Sema.Rget_static _ | Sema.Rcall _ | Sema.Rintrinsic _ | Sema.Rnew _ | Sema.Runop _
      | Sema.Rbinop _ ->
          let src = lower_expr st rhs in
          emit st ~loc (Instr.Putstatic (fr, src, Instr.Src_var)))
  | Sema.Rexpr e -> ignore (lower_expr st e)
  | Sema.Rif (c, a, b) ->
      let bt = new_block st and bf = new_block st and bj = new_block st in
      lower_cond st c bt.Cfg.b_id bf.Cfg.b_id;
      switch_to st bt;
      lower_block st a;
      set_term st (Cfg.Goto bj.Cfg.b_id);
      switch_to st bf;
      lower_block st b;
      set_term st (Cfg.Goto bj.Cfg.b_id);
      switch_to st bj
  | Sema.Rwhile (c, body) ->
      let bh = new_block st and bb = new_block st and bx = new_block st in
      set_term st (Cfg.Goto bh.Cfg.b_id);
      switch_to st bh;
      lower_cond st c bb.Cfg.b_id bx.Cfg.b_id;
      switch_to st bb;
      lower_block st body;
      set_term st (Cfg.Goto bh.Cfg.b_id);
      switch_to st bx
  | Sema.Rreturn e ->
      let v = Option.map (lower_expr st) e in
      set_term st (Cfg.Ret v);
      switch_to st (new_block st)
      (* dead code after return lands in an unreachable block *)
  | Sema.Rsync (l, body) ->
      let v = lower_expr st l in
      emit st ~loc (Instr.Monitor_enter v);
      lower_block st body;
      emit st ~loc (Instr.Monitor_exit v)
  | Sema.Rblock b -> lower_block st b

and lower_block st b = List.iter (lower_stmt st) b

let lower_method (sema : Sema.t) (m : Sema.rmeth) : Cfg.body =
  let mref = { Instr.mr_class = m.Sema.rm_class; mr_name = m.Sema.rm_name } in
  let entry = { Cfg.b_id = 0; b_instrs = []; b_term = sentinel_term } in
  let st =
    {
      sema;
      mref;
      n_vars = 0;
      n_instrs = 0;
      n_allocs = 0;
      n_blocks = 1;
      blocks = [ entry ];
      cur = entry;
      terminated = false;
      locals = [];
      n_locals = 0;
      locals_tbl = None;
    }
  in
  let this = fresh_var st "this" in
  bind_local st "this" this;
  let params =
    this
    :: List.map
         (fun (_, name) ->
           let v = fresh_var st name in
           bind_local st name v;
           v)
         m.Sema.rm_params
  in
  lower_block st m.Sema.rm_body;
  set_term st (Cfg.Ret None);
  let blocks = Array.of_list (List.rev st.blocks) in
  (* finalize: restore emission order (instrs were prepended), and any
     block still carrying the sentinel becomes a return *)
  Array.iter
    (fun blk ->
      blk.Cfg.b_instrs <- List.rev blk.Cfg.b_instrs;
      if blk.Cfg.b_term = sentinel_term then blk.Cfg.b_term <- Cfg.Ret None)
    blocks;
  Array.iteri (fun i blk -> assert (blk.Cfg.b_id = i)) blocks;
  {
    Cfg.mref;
    params;
    ret_ty = m.Sema.rm_ret;
    blocks;
    n_vars = st.n_vars;
    loc = m.Sema.rm_loc;
  }
