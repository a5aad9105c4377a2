(* Schedule exploration.

   The paper validated warnings by manually perturbing callback/thread
   schedules until a NullPointerException fired (§7, §8.4); this module
   mechanizes the same check:

   - {!random_run}: one seeded random walk over the enabled actions;
   - {!validate}: many seeded walks, looking for an NPE whose faulting
     instruction is the warning's use site — the witness that the
     potential UAF is truly harmful;
   - {!exhaustive}: bounded DFS over all schedules, used by tests on
     small programs where the full schedule space is tractable. *)

open Nadroid_lang
open Nadroid_ir
open Nadroid_core

type outcome = {
  o_steps : int;
  o_npes : Interp.npe list;
  o_stucks : Interp.stuck list;  (** non-NPE runtime faults survived *)
  o_crashed : bool;
  o_trace : World.action list;  (** actions taken, in order *)
}

let run_schedule ?resume_on_npe (prog : Prog.t)
    ~(choose : World.action list -> int -> World.action option) ~(max_steps : int) : outcome =
  let w = World.create ?resume_on_npe prog in
  let trace = ref [] in
  let steps = ref 0 in
  let continue_ = ref true in
  while !continue_ && !steps < max_steps && not w.World.crashed do
    let actions = World.enabled_actions w in
    match choose actions !steps with
    | None -> continue_ := false
    | Some a ->
        trace := a :: !trace;
        incr steps;
        World.perform w a
  done;
  {
    o_steps = !steps;
    o_npes = World.npes w;
    o_stucks = World.stucks w;
    o_crashed = w.World.crashed;
    o_trace = List.rev !trace;
  }

let random_run ?resume_on_npe (prog : Prog.t) ~seed ~max_steps : outcome =
  let rng = Random.State.make [| seed |] in
  run_schedule ?resume_on_npe prog ~max_steps ~choose:(fun actions _ ->
      match actions with
      | [] -> None
      | _ :: _ -> Some (List.nth actions (Random.State.int rng (List.length actions))))

(* Does an NPE match a warning's use site? The faulting instruction is
   either the use [getfield] itself (when the base races) or a later
   dereference of the value the use loaded — follow the loaded temp
   through [Move]s to the instruction that finally crashed. *)
let npe_matches (prog : Prog.t) (w : Detect.warning) (npe : Interp.npe) =
  Instr.mref_equal npe.Interp.npe_mref w.Detect.w_use.Detect.s_mref
  && (npe.Interp.npe_instr_id = w.Detect.w_use.Detect.s_instr.Instr.id
     ||
     match Prog.body prog w.Detect.w_use.Detect.s_mref with
     | None -> false
     | Some body -> (
         match w.Detect.w_use.Detect.s_instr.Instr.i with
         | Instr.Getfield (d, _, _) | Instr.Getstatic (d, _) ->
             (* vars holding the loaded value: d closed under Moves *)
             let holds = Hashtbl.create 4 in
             Hashtbl.replace holds d.Instr.v_id ();
             let changed = ref true in
             while !changed do
               changed := false;
               Cfg.iter_instrs
                 (fun ins ->
                   match ins.Instr.i with
                   | Instr.Move (dst, src)
                     when Hashtbl.mem holds src.Instr.v_id
                          && not (Hashtbl.mem holds dst.Instr.v_id) ->
                       Hashtbl.replace holds dst.Instr.v_id ();
                       changed := true
                   | Instr.Move _ | Instr.Const _ | Instr.New _ | Instr.Getfield _
                   | Instr.Putfield _ | Instr.Getstatic _ | Instr.Putstatic _ | Instr.Call _
                   | Instr.Intrinsic _ | Instr.Unop _ | Instr.Binop _ | Instr.Monitor_enter _
                   | Instr.Monitor_exit _ ->
                       ())
                 body
             done;
             let faulting = Cfg.find_instr body npe.Interp.npe_instr_id in
             (match faulting with
             | Some { Instr.i = Instr.Call (_, recv, _, _); _ }
             | Some { Instr.i = Instr.Getfield (_, recv, _); _ }
             | Some { Instr.i = Instr.Putfield (recv, _, _, _); _ } ->
                 Hashtbl.mem holds recv.Instr.v_id
             | Some _ | None -> false)
         | Instr.Move _ | Instr.Const _ | Instr.New _ | Instr.Putfield _ | Instr.Putstatic _
         | Instr.Call _ | Instr.Intrinsic _ | Instr.Unop _ | Instr.Binop _
         | Instr.Monitor_enter _ | Instr.Monitor_exit _ ->
             false))

(* Classes involved in a warning: the declaring classes of the use and
   free sites plus their enclosing (outer) classes — the activities whose
   events drive those callbacks. *)
let warning_classes (prog : Prog.t) (w : Detect.warning) : string list =
  let sema = Prog.sema prog in
  let rec outers cls acc =
    match (Sema.get_class sema cls).Sema.rc_outer with
    | Some o -> outers o (o :: acc)
    | None -> acc
  in
  let of_site (s : Detect.site) =
    let cls = s.Detect.s_mref.Instr.mr_class in
    cls :: outers cls []
  in
  List.sort_uniq String.compare (of_site w.Detect.w_use @ of_site w.Detect.w_free)

(* A seeded walk biased toward the warning's participants: most of the
   time pick among structural actions and events on the involved classes;
   occasionally take a fully random step to keep the walk ergodic. *)
let guided_run (prog : Prog.t) (wng : Detect.warning) ~seed ~max_steps : outcome =
  let targets = warning_classes prog wng in
  let rng = Random.State.make [| seed; 0x9e37 |] in
  let w = World.create ~resume_on_npe:true prog in
  let trace = ref [] in
  let steps = ref 0 in
  let continue_ = ref true in
  while !continue_ && !steps < max_steps do
    let actions = World.enabled_actions w in
    let relevant =
      List.filter
        (fun a ->
          match World.action_class w a with
          | None -> true
          | Some cls -> List.exists (String.equal cls) targets)
        actions
    in
    let pool = if relevant <> [] && Random.State.int rng 8 < 7 then relevant else actions in
    match pool with
    | [] -> continue_ := false
    | _ :: _ ->
        let a = List.nth pool (Random.State.int rng (List.length pool)) in
        trace := a :: !trace;
        incr steps;
        World.perform w a
  done;
  {
    o_steps = !steps;
    o_npes = World.npes w;
    o_stucks = World.stucks w;
    o_crashed = w.World.crashed;
    o_trace = List.rev !trace;
  }

type validation = { v_harmful : bool; v_runs : int; v_witness : World.action list option }

(* Search for a schedule triggering the warning's use on a freed field.
   [runs] seeded random walks of [max_steps] actions each. *)
let validate (prog : Prog.t) (w : Detect.warning) ?(runs = 150) ?(max_steps = 60) () : validation
    =
  let rec go seed =
    if seed >= runs then { v_harmful = false; v_runs = runs; v_witness = None }
    else
      (* crash-resume mode: one walk can witness several distinct NPEs,
         which matters in apps hosting many seeded bugs; alternate between
         uniform and lineage-guided walks *)
      let o =
        if seed mod 2 = 0 then random_run ~resume_on_npe:true prog ~seed ~max_steps
        else guided_run prog w ~seed ~max_steps
      in
      if List.exists (npe_matches prog w) o.o_npes then
        { v_harmful = true; v_runs = seed + 1; v_witness = Some o.o_trace }
      else go (seed + 1)
  in
  go 0

(* Validate a whole warning list; returns the subset confirmed harmful. *)
let validate_all (prog : Prog.t) (ws : Detect.warning list) ?runs ?max_steps () :
    (Detect.warning * validation) list =
  List.map (fun w -> (w, validate prog w ?runs ?max_steps ())) ws

(* Replay a recorded schedule (the textual action list a validation
   witness prints): deterministic reproduction of a crash for triage. *)
let replay (prog : Prog.t) (script : string list) : outcome =
  let w = World.create prog in
  let trace = ref [] in
  let steps = ref 0 in
  List.iter
    (fun line ->
      if not w.World.crashed then
        match World.action_of_string w (String.trim line) with
        | Some a ->
            trace := a :: !trace;
            incr steps;
            World.perform w a
        | None -> ())
    script;
  {
    o_steps = !steps;
    o_npes = World.npes w;
    o_stucks = World.stucks w;
    o_crashed = w.World.crashed;
    o_trace = List.rev !trace;
  }

(* Bounded exhaustive exploration: every schedule of length <= depth.
   Returns all distinct NPE sites encountered. [max_schedules] caps the
   number of schedules replayed — the explorer budget: the schedule
   space is exponential in depth, so an unbounded DFS over an
   adversarial input could run for hours. Cutting off early only loses
   potential witnesses (degrades toward fewer validations), never
   reports a spurious one. *)
let exhaustive ?max_schedules (prog : Prog.t) ~depth : Interp.npe list =
  let seen = Hashtbl.create 16 in
  let schedules = ref 0 in
  let exhausted () =
    match max_schedules with Some m -> !schedules >= m | None -> false
  in
  let rec go (prefix : int list) d =
    if not (exhausted ()) then begin
      incr schedules;
      let w = World.create prog in
      (* replay prefix *)
      let ok =
        List.for_all
          (fun idx ->
            let actions = World.enabled_actions w in
            match List.nth_opt actions idx with
            | Some a ->
                World.perform w a;
                true
            | None -> false)
          (List.rev prefix)
      in
      if ok then begin
        List.iter
          (fun (npe : Interp.npe) ->
            Hashtbl.replace seen (npe.Interp.npe_mref, npe.Interp.npe_instr_id) npe)
          (World.npes w);
        if d > 0 && not w.World.crashed then
          let n = List.length (World.enabled_actions w) in
          for i = 0 to n - 1 do
            go (i :: prefix) (d - 1)
          done
      end
    end
  in
  go [] depth;
  Hashtbl.fold (fun _ npe acc -> npe :: acc) seen []
