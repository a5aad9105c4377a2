(* A whole program: the resolved class table plus the CFG body of every
   method (builtins included — their empty bodies are harmless, and the
   ones with real MiniAndroid bodies, e.g. [Thread.init], are analysed
   like user code).

   Bodies are lowered on demand, the first time one is asked for, and
   memoized. The analysis only ever asks for the methods the points-to
   solver reaches, so an app pays for the code it runs, not for the code
   it declares. Lowering a method depends on that method alone (its
   instruction, variable and allocation-site counters start at zero), so
   the order in which bodies are first asked for cannot change them. *)

open Nadroid_lang
module Clock = Nadroid_clock.Clock

module Memo = Hashtbl.Make (struct
  type t = Instr.mref

  let equal (a : t) (b : t) =
    String.equal a.Instr.mr_class b.Instr.mr_class && String.equal a.Instr.mr_name b.Instr.mr_name

  let hash (m : t) = (String.hash m.Instr.mr_class * 65599) + String.hash m.Instr.mr_name
end)

type t = {
  sema : Sema.t;
  bodies : Cfg.body Memo.t;  (* the methods lowered so far *)
  mutable lower_s : float;  (* seconds spent lowering them *)
}

let of_sema (sema : Sema.t) : t = { sema; bodies = Memo.create 64; lower_s = 0.0 }

let of_source ~file src = of_sema (Sema.of_source ~file src)

let sema t = t.sema

let lower_time t = t.lower_s

(* The body of [m], a method declared by its [rm_class]. *)
let lowered t (m : Sema.rmeth) : Cfg.body =
  let mref = { Instr.mr_class = m.Sema.rm_class; mr_name = m.Sema.rm_name } in
  match Memo.find_opt t.bodies mref with
  | Some b -> b
  | None ->
      let t0 = Clock.now () in
      let b = Lower.lower_method t.sema m in
      t.lower_s <- t.lower_s +. (Clock.now () -. t0);
      Memo.add t.bodies mref b;
      b

let body t (m : Instr.mref) : Cfg.body option =
  match Memo.find_opt t.bodies m with
  | Some _ as b -> b
  | None -> (
      match Sema.find_class t.sema m.Instr.mr_class with
      | None -> None
      | Some c -> (
          match
            List.find_opt (fun (rm : Sema.rmeth) -> String.equal rm.Sema.rm_name m.Instr.mr_name)
              c.Sema.rc_methods
          with
          | None -> None
          | Some rm -> Some (lowered t rm)))

let body_exn t (m : Instr.mref) =
  match body t m with
  | Some b -> b
  | None -> invalid_arg ("Prog.body_exn: no body for " ^ m.Instr.mr_class ^ "." ^ m.Instr.mr_name)

(* The most-derived implementation reached when calling [name] on a
   dynamic instance of [cls]. *)
let dispatch_body t ~cls ~meth : Cfg.body option =
  Option.map (lowered t) (Sema.dispatch t.sema cls meth)

(* Every body, lowering what is not yet lowered, in declaration order. *)
let fold_bodies f acc t = Sema.fold_methods t.sema (fun acc _ m -> f acc (lowered t m)) acc

let iter_bodies f t = fold_bodies (fun () b -> f b) () t

(* All user-declared (non-builtin) method bodies. *)
let user_bodies t =
  List.concat_map
    (fun (c : Sema.rcls) -> List.map (lowered t) c.Sema.rc_methods)
    (Sema.user_classes t.sema)

let n_instrs t = fold_bodies (fun acc b -> acc + Cfg.n_instrs b) 0 t

let n_lowered t = Memo.length t.bodies
