(* IR interpreter.

   Executes one method call to completion. Framework API calls are
   delegated to the embedding {!World} through the [hooks] record;
   [h_yield] is invoked before every shared-memory access so that the
   scheduler can preempt native threads at race-relevant points (looper
   callbacks install a no-op yield: they are atomic, §2.1).

   A [getfield]/[putfield]/virtual call on [null] raises {!Npe} carrying
   the faulting site — the signal the validator matches against a
   warning's use site. *)

open Nadroid_lang
open Nadroid_ir
open Nadroid_android

type npe = { npe_mref : Instr.mref; npe_instr_id : int; npe_loc : Loc.t }

exception Npe of npe

exception Out_of_fuel

(* A user-reachable runtime fault other than an NPE (division by zero,
   ...): a well-typed program can trigger it, so the embedding must
   survive it like an NPE rather than treat it as an interpreter bug. *)
type stuck = { st_mref : Instr.mref; st_instr_id : int; st_loc : Loc.t; st_reason : string }

exception Stuck of stuck

(* Internal carrier for operation-level faults; [exec_instr] converts it
   into a located {!Stuck} at the faulting instruction. *)
exception Stuck_op of string

type hooks = {
  h_api : recv:Value.t -> ms:Sema.method_sig -> args:Value.t list -> Api.kind -> Value.t;
      (** handle a framework API call (post/register/spawn/cancel/opaque) *)
  h_log : string -> unit;
  h_yield : Instr.t -> unit;  (** preemption point before shared accesses *)
  h_fuel : unit -> unit;  (** called once per instruction; may raise {!Out_of_fuel} *)
  h_monitor : [ `Enter | `Exit ] -> Value.t -> unit;  (** object monitor operations *)
}

type t = { prog : Prog.t; heap : Heap.t; hooks : hooks }

let field_key (fr : Instr.fref) = fr.Sema.fr_class ^ "." ^ fr.Sema.fr_name

(* Java default value for an uninitialised field. *)
let default_of (ty : Ast.ty) : Value.t =
  match ty with
  | Ast.Tint -> Value.Vint 0
  | Ast.Tbool -> Value.Vbool false
  | Ast.Tstring -> Value.Vstr ""
  | Ast.Tvoid | Ast.Tclass _ -> Value.Vnull

let npe_at (body : Cfg.body) (ins : Instr.t) =
  raise (Npe { npe_mref = body.Cfg.mref; npe_instr_id = ins.Instr.id; npe_loc = ins.Instr.loc })

let obj_id body ins = function
  | Value.Vobj id -> id
  | Value.Vnull -> npe_at body ins
  | Value.Vint _ | Value.Vbool _ | Value.Vstr _ ->
      invalid_arg "Interp: receiver is not an object"

let eval_binop op a b =
  let int_op f =
    match (a, b) with
    | Value.Vint x, Value.Vint y -> Value.Vint (f x y)
    | _, _ -> invalid_arg "Interp: integer operands expected"
  in
  let cmp_op f =
    match (a, b) with
    | Value.Vint x, Value.Vint y -> Value.Vbool (f x y)
    | _, _ -> invalid_arg "Interp: integer operands expected"
  in
  match op with
  | Ast.Add -> (
      match (a, b) with
      | Value.Vstr x, Value.Vstr y -> Value.Vstr (x ^ y)
      | _, _ -> int_op ( + ))
  | Ast.Sub -> int_op ( - )
  | Ast.Mul -> int_op ( * )
  | Ast.Div -> (
      match b with
      | Value.Vint 0 -> raise (Stuck_op "division by zero")
      | _ -> int_op ( / ))
  | Ast.Mod -> (
      match b with
      | Value.Vint 0 -> raise (Stuck_op "modulo by zero")
      | _ -> int_op (fun x y -> x mod y))
  | Ast.Lt -> cmp_op ( < )
  | Ast.Le -> cmp_op ( <= )
  | Ast.Gt -> cmp_op ( > )
  | Ast.Ge -> cmp_op ( >= )
  | Ast.Eq -> Value.Vbool (Value.equal a b)
  | Ast.Ne -> Value.Vbool (not (Value.equal a b))
  | Ast.And | Ast.Or -> invalid_arg "Interp: && / || are lowered to control flow"

let eval_unop op a =
  match (op, a) with
  | Ast.Not, Value.Vbool b -> Value.Vbool (not b)
  | Ast.Neg, Value.Vint n -> Value.Vint (-n)
  | (Ast.Not | Ast.Neg), _ -> invalid_arg "Interp: bad unary operand"

let eval_intrinsic t name (args : Value.t list) : Value.t =
  match (name, args) with
  | "log", [ Value.Vstr s ] ->
      t.hooks.h_log s;
      Value.Vnull
  | "sleep", [ Value.Vint _ ] -> Value.Vnull
  | "i2s", [ Value.Vint n ] -> Value.Vstr (string_of_int n)
  | _, _ -> invalid_arg ("Interp: bad intrinsic call " ^ name)

(* Execute [body] with the given receiver and arguments; returns the
   returned value ([Vnull] for void). *)
let rec exec_body (t : t) (body : Cfg.body) (recv : Value.t) (args : Value.t list) : Value.t =
  let regs = Array.make body.Cfg.n_vars Value.Vnull in
  let set (v : Instr.var) x = regs.(v.Instr.v_id) <- x in
  let get (v : Instr.var) = regs.(v.Instr.v_id) in
  (match body.Cfg.params with
  | this :: rest ->
      set this recv;
      List.iteri (fun i p -> match List.nth_opt args i with Some a -> set p a | None -> ()) rest
  | [] -> ());
  let rec run_block bid =
    let blk = body.Cfg.blocks.(bid) in
    List.iter (exec_instr blk) blk.Cfg.b_instrs;
    match blk.Cfg.b_term with
    | Cfg.Goto n -> run_block n
    | Cfg.If { cond; t = bt; f = bf; _ } ->
        if Value.truthy (get cond) then run_block bt else run_block bf
    | Cfg.Ret None -> Value.Vnull
    | Cfg.Ret (Some v) -> get v
  and exec_instr blk (ins : Instr.t) =
    (* locate operation-level faults at the faulting instruction; a
       [Stuck] from a callee is already located and passes through *)
    try exec_instr_raw blk ins
    with Stuck_op reason ->
      raise
        (Stuck
           {
             st_mref = body.Cfg.mref;
             st_instr_id = ins.Instr.id;
             st_loc = ins.Instr.loc;
             st_reason = reason;
           })
  and exec_instr_raw _blk (ins : Instr.t) =
    t.hooks.h_fuel ();
    match ins.Instr.i with
    | Instr.Move (d, s) -> set d (get s)
    | Instr.Const (d, c) ->
        set d
          (match c with
          | Instr.Cnull -> Value.Vnull
          | Instr.Cint n -> Value.Vint n
          | Instr.Cbool b -> Value.Vbool b
          | Instr.Cstr s -> Value.Vstr s)
    | Instr.New (d, site, init, args) -> (
        let id = Heap.alloc t.heap ~cls:site.Instr.as_class in
        set d (Value.Vobj id);
        match init with
        | None -> ()
        | Some ms ->
            ignore (call t ~recv:(Value.Vobj id) ~meth:ms.Sema.ms_name ~args:(List.map get args)))
    | Instr.Getfield (d, o, fr) ->
        t.hooks.h_yield ins;
        let id = obj_id body ins (get o) in
        set d
          (match Heap.get_field_opt t.heap id ~key:(field_key fr) with
          | Some v -> v
          | None -> default_of fr.Sema.fr_ty)
    | Instr.Putfield (o, fr, s, _) ->
        t.hooks.h_yield ins;
        let id = obj_id body ins (get o) in
        Heap.set_field t.heap id ~key:(field_key fr) (get s)
    | Instr.Getstatic (d, fr) ->
        t.hooks.h_yield ins;
        set d
          (match Heap.get_static_opt t.heap ~key:(field_key fr) with
          | Some v -> v
          | None -> default_of fr.Sema.fr_ty)
    | Instr.Putstatic (fr, s, _) ->
        t.hooks.h_yield ins;
        Heap.set_static t.heap ~key:(field_key fr) (get s)
    | Instr.Call (dst, recv, ms, argvs) -> (
        let rv = get recv in
        let args = List.map get argvs in
        let result =
          match Api.classify ms with
          | Api.Other -> (
              (* virtual dispatch on the dynamic class *)
              match rv with
              | Value.Vnull -> npe_at body ins
              | Value.Vobj id -> (
                  let cls = Heap.class_of t.heap id in
                  match Sema.dispatch (Prog.sema t.prog) cls ms.Sema.ms_name with
                  | Some m
                    when not
                           (Api.opaque_builtin (Prog.sema t.prog)
                              {
                                Sema.ms_class = m.Sema.rm_class;
                                ms_name = m.Sema.rm_name;
                                ms_ret = m.Sema.rm_ret;
                                ms_params = m.Sema.rm_params;
                              }) ->
                      call t ~recv:rv ~meth:ms.Sema.ms_name ~args
                  | Some _ | None ->
                      (* framework-internal method: let the world model it *)
                      t.hooks.h_api ~recv:rv ~ms ~args Api.Other)
              | Value.Vint _ | Value.Vbool _ | Value.Vstr _ ->
                  invalid_arg "Interp: call on a primitive")
          | (Api.Spawn _ | Api.Post _ | Api.Register _ | Api.Cancel _) as k -> (
              match rv with
              | Value.Vnull -> npe_at body ins
              | Value.Vobj _ -> t.hooks.h_api ~recv:rv ~ms ~args k
              | Value.Vint _ | Value.Vbool _ | Value.Vstr _ ->
                  invalid_arg "Interp: API call on a primitive")
        in
        match dst with Some d -> set d result | None -> ())
    | Instr.Intrinsic (dst, name, argvs) -> (
        let r = eval_intrinsic t name (List.map get argvs) in
        match dst with Some d -> set d r | None -> ())
    | Instr.Unop (d, op, a) -> set d (eval_unop op (get a))
    | Instr.Binop (d, op, a, b) -> set d (eval_binop op (get a) (get b))
    | Instr.Monitor_enter v -> t.hooks.h_monitor `Enter (get v)
    | Instr.Monitor_exit v -> t.hooks.h_monitor `Exit (get v)
  in
  run_block Cfg.entry_id

(* Call [meth] on [recv] with dynamic dispatch; user-code entry point used
   by the world to run callbacks. *)
and call (t : t) ~(recv : Value.t) ~(meth : string) ~(args : Value.t list) : Value.t =
  match recv with
  | Value.Vnull -> invalid_arg ("Interp.call: null receiver for " ^ meth)
  | Value.Vint _ | Value.Vbool _ | Value.Vstr _ -> invalid_arg "Interp.call: primitive receiver"
  | Value.Vobj id -> (
      let cls = Heap.class_of t.heap id in
      match Prog.dispatch_body t.prog ~cls ~meth with
      | Some body -> exec_body t body recv args
      | None -> Value.Vnull (* unoverridden framework callback: no-op *))
