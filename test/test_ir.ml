(* IR tests: lowering shapes (free tagging, branch facts, short-circuit),
   CFG structure, and the generic dataflow engine. *)

open Nadroid_lang
open Nadroid_ir

let body_of src ~cls ~meth =
  let prog = Prog.of_source ~file:"t" src in
  Prog.body_exn prog { Instr.mr_class = cls; mr_name = meth }

let instrs body = Cfg.fold_instrs (fun acc i -> i :: acc) [] body |> List.rev

let count_kind p body = List.length (List.filter p (instrs body))

let tests =
  [
    Alcotest.test_case "putfield of null is tagged as a free" `Quick (fun () ->
        let b =
          body_of "class C { field Runnable r; method void m() { r = null; } }" ~cls:"C"
            ~meth:"m"
        in
        Alcotest.(check int) "one free" 1
          (count_kind
             (fun i ->
               match i.Instr.i with
               | Instr.Putfield (_, _, _, Instr.Src_null) -> true
               | _ -> false)
             b));
    Alcotest.test_case "putfield of value is not a free" `Quick (fun () ->
        let b =
          body_of "class C { field Runnable r; method void m(Runnable x) { r = x; } }" ~cls:"C"
            ~meth:"m"
        in
        Alcotest.(check int) "no free" 0
          (count_kind
             (fun i ->
               match i.Instr.i with
               | Instr.Putfield (_, _, _, Instr.Src_null) -> true
               | _ -> false)
             b);
        Alcotest.(check int) "one store" 1
          (count_kind
             (fun i -> match i.Instr.i with Instr.Putfield _ -> true | _ -> false)
             b));
    Alcotest.test_case "null-check records branch facts" `Quick (fun () ->
        let b =
          body_of
            "class C { field Runnable r; method void m() { if (r != null) { log(\"y\"); } } }"
            ~cls:"C" ~meth:"m"
        in
        let found = ref false in
        Array.iter
          (fun blk ->
            match blk.Cfg.b_term with
            | Cfg.If { t_facts; f_facts; _ } ->
                if
                  List.exists
                    (function Cfg.Nn_field fr -> fr.Sema.fr_name = "r" | Cfg.Nn_var _ -> false)
                    t_facts
                then found := true;
                Alcotest.(check bool) "no false facts" true (f_facts = [])
            | Cfg.Goto _ | Cfg.Ret _ -> ())
          b.Cfg.blocks;
        Alcotest.(check bool) "fact on true edge" true !found);
    Alcotest.test_case "inverted null-check records facts on false edge" `Quick (fun () ->
        let b =
          body_of
            "class C { field Runnable r; method void m() { if (r == null) { log(\"n\"); } } }"
            ~cls:"C" ~meth:"m"
        in
        let found = ref false in
        Array.iter
          (fun blk ->
            match blk.Cfg.b_term with
            | Cfg.If { f_facts; _ } ->
                if
                  List.exists
                    (function Cfg.Nn_field fr -> fr.Sema.fr_name = "r" | Cfg.Nn_var _ -> false)
                    f_facts
                then found := true
            | Cfg.Goto _ | Cfg.Ret _ -> ())
          b.Cfg.blocks;
        Alcotest.(check bool) "fact on false edge" true !found);
    Alcotest.test_case "&& is lowered to control flow" `Quick (fun () ->
        let b =
          body_of
            "class C { field Runnable r; method void m(bool p) { if (p && r != null) { \
             log(\"y\"); } } }"
            ~cls:"C" ~meth:"m"
        in
        (* no And/Or instruction must survive *)
        Alcotest.(check int) "no boolean binop" 0
          (count_kind
             (fun i ->
               match i.Instr.i with
               | Instr.Binop (_, (Ast.And | Ast.Or), _, _) -> true
               | _ -> false)
             b);
        (* two conditional branches instead *)
        let ifs =
          Array.to_list b.Cfg.blocks
          |> List.filter (fun blk -> match blk.Cfg.b_term with Cfg.If _ -> true | _ -> false)
        in
        Alcotest.(check int) "two branches" 2 (List.length ifs));
    Alcotest.test_case "&& in value position short-circuits" `Quick (fun () ->
        (* would crash the interpreter at runtime if rhs were evaluated
           eagerly; here we only check the lowering introduces branches *)
        let b =
          body_of
            "class C { field C next; method void m() { var bool ok = next != null && true; } }"
            ~cls:"C" ~meth:"m"
        in
        Alcotest.(check bool) "has branch" true
          (Array.exists
             (fun blk -> match blk.Cfg.b_term with Cfg.If _ -> true | _ -> false)
             b.Cfg.blocks));
    Alcotest.test_case "while loop creates a back edge" `Quick (fun () ->
        let b =
          body_of "class C { method int m(int n) { var int i = 0; while (i < n) { i = i + 1; } \
                   return i; } }"
            ~cls:"C" ~meth:"m"
        in
        let back_edge = ref false in
        Array.iter
          (fun blk ->
            List.iter (fun s -> if s < blk.Cfg.b_id then back_edge := true) (Cfg.successors blk))
          b.Cfg.blocks;
        Alcotest.(check bool) "back edge" true !back_edge);
    Alcotest.test_case "anonymous allocation sets outer" `Quick (fun () ->
        let b =
          body_of
            "class C extends Activity { method void m() { this.runOnUiThread(new Runnable() { \
             method void run() { } }); } }"
            ~cls:"C" ~meth:"m"
        in
        Alcotest.(check int) "outer store" 1
          (count_kind
             (fun i ->
               match i.Instr.i with
               | Instr.Putfield (_, fr, _, Instr.Src_var) -> fr.Sema.fr_name = "outer"
               | _ -> false)
             b));
    Alcotest.test_case "synchronized emits balanced monitors" `Quick (fun () ->
        let b =
          body_of "class C { field C l; method void m() { synchronized (l) { log(\"x\"); } } }"
            ~cls:"C" ~meth:"m"
        in
        let enters =
          count_kind (fun i -> match i.Instr.i with Instr.Monitor_enter _ -> true | _ -> false) b
        in
        let exits =
          count_kind (fun i -> match i.Instr.i with Instr.Monitor_exit _ -> true | _ -> false) b
        in
        Alcotest.(check int) "enter" 1 enters;
        Alcotest.(check int) "exit" 1 exits);
    Alcotest.test_case "instruction ids are unique" `Quick (fun () ->
        let b =
          body_of "class C { method int m(int x) { if (x > 0) { return x; } return 0 - x; } }"
            ~cls:"C" ~meth:"m"
        in
        let ids = List.map (fun i -> i.Instr.id) (instrs b) in
        Alcotest.(check int) "unique" (List.length ids)
          (List.length (List.sort_uniq Int.compare ids)));
    Alcotest.test_case "reverse postorder starts at entry" `Quick (fun () ->
        let b =
          body_of "class C { method int m(int x) { if (x > 0) { return 1; } return 2; } }"
            ~cls:"C" ~meth:"m"
        in
        match Cfg.reverse_postorder b with
        | 0 :: _ -> ()
        | _ -> Alcotest.fail "entry not first");
    Alcotest.test_case "dead code after return is unreachable" `Quick (fun () ->
        let b =
          body_of "class C { method int m() { return 1; var int y = 2; return y; } }" ~cls:"C"
            ~meth:"m"
        in
        let reachable = Cfg.reverse_postorder b in
        Alcotest.(check bool) "some block unreachable" true
          (List.length reachable < Array.length b.Cfg.blocks));
  ]

(* dataflow: a simple reaching-"constant-assigned" must analysis *)
module SSet = Set.Make (String)

let dataflow_tests =
  [
    Alcotest.test_case "must-analysis meets at join" `Quick (fun () ->
        let b =
          body_of
            "class C { field Runnable r; field Runnable s; method void m(bool p) { if (p) { r \
             = new Runnable(); s = new Runnable(); } else { r = new Runnable(); } log(\"x\"); \
             } }"
            ~cls:"C" ~meth:"m"
        in
        (* track which fields were definitely stored *)
        let spec =
          {
            Dataflow.init_entry = SSet.empty;
            init_other = SSet.of_list [ "r"; "s" ];
            join = SSet.inter;
            equal = SSet.equal;
            transfer_instr =
              (fun ins fact ->
                match ins.Instr.i with
                | Instr.Putfield (_, fr, _, _) -> SSet.add fr.Sema.fr_name fact
                | _ -> fact);
            transfer_edge = (fun _ _ f -> f);
          }
        in
        let res = Dataflow.run b spec in
        (* at the final log call, r is definitely set but s is not *)
        let at_log = ref SSet.empty in
        Dataflow.iter_facts res (fun ins fact ->
            match ins.Instr.i with Instr.Intrinsic (_, "log", _) -> at_log := fact | _ -> ());
        Alcotest.(check bool) "r definite" true (SSet.mem "r" !at_log);
        Alcotest.(check bool) "s not definite" false (SSet.mem "s" !at_log));
    Alcotest.test_case "loops reach a fixpoint" `Quick (fun () ->
        let b =
          body_of
            "class C { field Runnable r; method void m(int n) { while (n > 0) { r = new \
             Runnable(); n = n - 1; } log(\"x\"); } }"
            ~cls:"C" ~meth:"m"
        in
        let spec =
          {
            Dataflow.init_entry = SSet.empty;
            init_other = SSet.of_list [ "r" ];
            join = SSet.inter;
            equal = SSet.equal;
            transfer_instr =
              (fun ins fact ->
                match ins.Instr.i with
                | Instr.Putfield (_, fr, _, _) -> SSet.add fr.Sema.fr_name fact
                | _ -> fact);
            transfer_edge = (fun _ _ f -> f);
          }
        in
        let res = Dataflow.run b spec in
        (* the loop may execute zero times: r is NOT definitely assigned *)
        let at_log = ref (SSet.singleton "r") in
        Dataflow.iter_facts res (fun ins fact ->
            match ins.Instr.i with Instr.Intrinsic (_, "log", _) -> at_log := fact | _ -> ());
        Alcotest.(check bool) "r not definite after maybe-zero loop" false (SSet.mem "r" !at_log));
  ]

(* -- on-demand lowering ---------------------------------------------------- *)

module Pipeline = Nadroid_core.Pipeline
module Pta = Nadroid_analysis.Pta
module Corpus = Nadroid_corpus.Corpus

(* The methods the points-to solver reached: those with an instance. *)
let reached_methods (t : Pipeline.t) =
  let seen = Hashtbl.create 64 in
  List.iter (fun (i : Pta.instance) -> Hashtbl.replace seen i.Pta.i_mref ()) (Pta.instances t.Pipeline.pta);
  Hashtbl.length seen

let lowered_after_analysis ~file src =
  let t = Pipeline.analyze ~file src in
  (Prog.n_lowered t.Pipeline.prog, reached_methods t, t)

(* [n] classes no component can reach: nothing allocates them, and
   each allocates the next. *)
let padding n =
  String.concat "\n"
    (List.init n (fun i ->
         Printf.sprintf
           "class Pad%d { field Pad%d next; method void step() { var Pad%d p = new Pad%d(); this.next = p; p.step(); } }"
           i ((i + 1) mod n) ((i + 1) mod n) ((i + 1) mod n)))

let reach_tests =
  [
    Alcotest.test_case "analysis lowers exactly the methods points-to reaches" `Quick (fun () ->
        List.iter
          (fun (app : Corpus.app) ->
            let lowered, reached, _ = lowered_after_analysis ~file:app.Corpus.name app.Corpus.source in
            Alcotest.(check int) (app.Corpus.name ^ ": lowered = reached") reached lowered)
          (Lazy.force Corpus.all));
    Alcotest.test_case "500 unreachable classes lower nothing more" `Quick (fun () ->
        let app = Option.get (Corpus.find "ConnectBot") in
        let lowered, _, t = lowered_after_analysis ~file:"cb" app.Corpus.source in
        let padded = app.Corpus.source ^ "\n" ^ padding 500 in
        let lowered', reached', t' = lowered_after_analysis ~file:"cb" padded in
        Alcotest.(check int) "same count" lowered lowered';
        Alcotest.(check int) "all of them reached" reached' lowered';
        Alcotest.(check string) "same report"
          (Nadroid_core.Report.to_string t.Pipeline.threads t.Pipeline.after_unsound)
          (Nadroid_core.Report.to_string t'.Pipeline.threads t'.Pipeline.after_unsound);
        (* every body is still there for whoever asks *)
        Alcotest.(check bool) "a padding body lowers on demand" true
          (Option.is_some (Prog.body t'.Pipeline.prog { Instr.mr_class = "Pad7"; mr_name = "step" })));
    Alcotest.test_case "lowering inside points-to is charged to the lower phase" `Quick
      (fun () ->
        let app = Option.get (Corpus.find "Mms") in
        let t = Pipeline.analyze ~file:"Mms" app.Corpus.source in
        let lowered = Prog.lower_time t.Pipeline.prog in
        Alcotest.(check bool) "something was lowered" true (lowered > 0.0);
        Alcotest.(check bool) "m_frontend_lower holds it" true
          (t.Pipeline.metrics.Pipeline.m_frontend_lower >= lowered));
    Alcotest.test_case "the first error is the first class's by name" `Quick (fun () ->
        let src =
          "class Zeta extends Activity {\n\
          \  method void onCreate() { unknownThing(); }\n\
           }\n\
           class Alpha extends Activity {\n\
          \  method void onCreate() { var int x = true; }\n\
           }\n"
        in
        match Sema.of_source ~file:"za" src with
        | _ -> Alcotest.fail "expected a frontend error"
        | exception Diag.Error d ->
            Alcotest.(check string) "Alpha's error"
              "za:5:40: error: cannot initialise x : int with a value of type bool"
              (Diag.to_string d));
  ]

let suite = [ ("ir", tests); ("ir-dataflow", dataflow_tests); ("reach", reach_tests) ]
