(* Frontend tests: lexer, parser, pretty-printer round-trips, and
   semantic analysis (resolution, typing, capture). *)

open Nadroid_lang

let tokens src = List.map fst (Lexer.tokenize ~file:"t" src)

let token = Alcotest.testable (fun ppf t -> Fmt.string ppf (Token.to_string t)) Token.equal

let check_tokens msg expected src = Alcotest.(check (list token)) msg expected (tokens src)

let fails_with_diag f = match Diag.protect f with Ok _ -> false | Error _ -> true

(* -- lexer -------------------------------------------------------------- *)

let lexer_tests =
  let open Token in
  [
    Alcotest.test_case "keywords and idents" `Quick (fun () ->
        check_tokens "mix"
          [ KW_CLASS; UIDENT "Foo"; KW_EXTENDS; UIDENT "Activity"; LBRACE; RBRACE; EOF ]
          "class Foo extends Activity { }");
    Alcotest.test_case "operators" `Quick (fun () ->
        check_tokens "ops"
          [ IDENT "a"; EQ; IDENT "b"; NE; IDENT "c"; LE; GE; LT; GT; ANDAND; OROR; BANG; EOF ]
          "a == b != c <= >= < > && || !");
    Alcotest.test_case "assign vs eq" `Quick (fun () ->
        check_tokens "assign" [ IDENT "x"; ASSIGN; INT 1; SEMI; EOF ] "x = 1;");
    Alcotest.test_case "integer literal" `Quick (fun () ->
        check_tokens "int" [ INT 12345; EOF ] "12345");
    Alcotest.test_case "string literal with escapes" `Quick (fun () ->
        check_tokens "string" [ STRING "a\nb\"c\\d"; EOF ] {|"a\nb\"c\\d"|});
    Alcotest.test_case "line comment" `Quick (fun () ->
        check_tokens "line" [ INT 1; INT 2; EOF ] "1 // comment\n2");
    Alcotest.test_case "block comment" `Quick (fun () ->
        check_tokens "block" [ INT 1; INT 2; EOF ] "1 /* a\nb */ 2");
    Alcotest.test_case "dollar in identifiers" `Quick (fun () ->
        check_tokens "dollar" [ UIDENT "Foo$1"; EOF ] "Foo$1");
    Alcotest.test_case "locations track lines" `Quick (fun () ->
        let toks = Lexer.tokenize ~file:"t" "1\n  2" in
        match toks with
        | [ (_, l1); (_, l2); _ ] ->
            Alcotest.(check int) "line1" 1 l1.Loc.line;
            Alcotest.(check int) "line2" 2 l2.Loc.line;
            Alcotest.(check int) "col2" 3 l2.Loc.col
        | _ -> Alcotest.fail "expected three tokens");
    Alcotest.test_case "unterminated string fails" `Quick (fun () ->
        Alcotest.(check bool) "fails" true (fails_with_diag (fun () -> tokens "\"abc")));
    Alcotest.test_case "unterminated block comment fails" `Quick (fun () ->
        Alcotest.(check bool) "fails" true (fails_with_diag (fun () -> tokens "/* abc")));
    Alcotest.test_case "stray character fails" `Quick (fun () ->
        Alcotest.(check bool) "fails" true (fails_with_diag (fun () -> tokens "a # b")));
    Alcotest.test_case "single & fails" `Quick (fun () ->
        Alcotest.(check bool) "fails" true (fails_with_diag (fun () -> tokens "a & b")));
  ]

(* -- parser ------------------------------------------------------------- *)

let parse src = Parser.parse_program ~file:"t" src

let parse_expr_via_stmt src =
  (* wrap an expression in a method to parse it *)
  let prog = parse (Printf.sprintf "class C { method void m() { var int x = %s; } }" src) in
  match prog.Ast.p_classes with
  | [ { Ast.c_methods = [ { Ast.m_body = [ { Ast.s = Ast.Decl (_, _, Some e); _ } ]; _ } ]; _ } ]
    ->
      e
  | _ -> Alcotest.fail "unexpected program shape"

let rec expr_to_string (e : Ast.expr) = Fmt.str "%a" Pretty.pp_expr e |> fun s -> ignore expr_to_string; s

let parser_tests =
  [
    Alcotest.test_case "precedence: mul over add" `Quick (fun () ->
        let e = parse_expr_via_stmt "1 + 2 * 3" in
        Alcotest.(check string) "tree" "1 + 2 * 3" (expr_to_string e);
        match e.Ast.e with
        | Ast.Binop (Ast.Add, _, { Ast.e = Ast.Binop (Ast.Mul, _, _); _ }) -> ()
        | _ -> Alcotest.fail "mul should bind tighter");
    Alcotest.test_case "precedence: comparison over and" `Quick (fun () ->
        match (parse_expr_via_stmt "1 < 2 && true").Ast.e with
        | Ast.Binop (Ast.And, { Ast.e = Ast.Binop (Ast.Lt, _, _); _ }, _) -> ()
        | _ -> Alcotest.fail "comparison should bind tighter than &&");
    Alcotest.test_case "and binds tighter than or" `Quick (fun () ->
        match (parse_expr_via_stmt "true || false && false").Ast.e with
        | Ast.Binop (Ast.Or, _, { Ast.e = Ast.Binop (Ast.And, _, _); _ }) -> ()
        | _ -> Alcotest.fail "&& should bind tighter than ||");
    Alcotest.test_case "postfix chains" `Quick (fun () ->
        match (parse_expr_via_stmt "a.b.c(1).d").Ast.e with
        | Ast.FieldAcc ({ Ast.e = Ast.Call (Some _, "c", [ _ ]); _ }, "d") -> ()
        | _ -> Alcotest.fail "postfix chain shape");
    Alcotest.test_case "unary not" `Quick (fun () ->
        match (parse_expr_via_stmt "!a && b").Ast.e with
        | Ast.Binop (Ast.And, { Ast.e = Ast.Unop (Ast.Not, _); _ }, _) -> ()
        | _ -> Alcotest.fail "not binds to operand only");
    Alcotest.test_case "anonymous class is hoisted" `Quick (fun () ->
        let prog =
          parse
            "class C { method void m() { var Runnable r = new Runnable() { method void run() \
             { } }; } }"
        in
        let names = List.map (fun c -> c.Ast.c_name) prog.Ast.p_classes in
        Alcotest.(check (list string)) "classes" [ "C"; "C$1" ] names;
        let anon = List.nth prog.Ast.p_classes 1 in
        Alcotest.(check bool) "anon flag" true anon.Ast.c_anon;
        Alcotest.(check (option string)) "outer" (Some "C") anon.Ast.c_outer;
        Alcotest.(check (option string)) "super" (Some "Runnable") anon.Ast.c_super);
    Alcotest.test_case "nested anonymous classes" `Quick (fun () ->
        let prog =
          parse
            "class C { method void m() { var Runnable r = new Runnable() { method void run() \
             { var Runnable q = new Runnable() { method void run() { } }; } }; } }"
        in
        Alcotest.(check int) "three classes" 3 (List.length prog.Ast.p_classes);
        (* the inner anonymous class is enclosed by the outer one *)
        let inner =
          List.find (fun c -> c.Ast.c_outer = Some "C$1") prog.Ast.p_classes
        in
        Alcotest.(check bool) "inner anon" true inner.Ast.c_anon);
    Alcotest.test_case "else-if chains" `Quick (fun () ->
        let prog =
          parse
            "class C { method int m(int x) { if (x > 1) { return 1; } else if (x > 0) { \
             return 2; } else { return 3; } } }"
        in
        match prog.Ast.p_classes with
        | [ { Ast.c_methods = [ { Ast.m_body = [ { Ast.s = Ast.If (_, _, [ { Ast.s = Ast.If _; _ } ]); _ } ]; _ } ]; _ } ]
          ->
            ()
        | _ -> Alcotest.fail "else-if shape");
    Alcotest.test_case "synchronized statement" `Quick (fun () ->
        let prog = parse "class C { field C l; method void m() { synchronized (l) { m(); } } }" in
        match prog.Ast.p_classes with
        | [ { Ast.c_methods = [ { Ast.m_body = [ { Ast.s = Ast.Sync (_, [ _ ]); _ } ]; _ } ]; _ } ] -> ()
        | _ -> Alcotest.fail "sync shape");
    Alcotest.test_case "static fields" `Quick (fun () ->
        let prog = parse "class C { static field int n; }" in
        match prog.Ast.p_classes with
        | [ { Ast.c_fields = [ f ]; _ } ] -> Alcotest.(check bool) "static" true f.Ast.f_static
        | _ -> Alcotest.fail "field shape");
    Alcotest.test_case "assignment to call fails" `Quick (fun () ->
        Alcotest.(check bool) "fails" true
          (fails_with_diag (fun () -> parse "class C { method void m() { m() = 1; } }")));
    Alcotest.test_case "missing semicolon fails" `Quick (fun () ->
        Alcotest.(check bool) "fails" true
          (fails_with_diag (fun () -> parse "class C { method void m() { var int x = 1 } }")));
    Alcotest.test_case "unbalanced braces fail" `Quick (fun () ->
        Alcotest.(check bool) "fails" true
          (fails_with_diag (fun () -> parse "class C { method void m() { ")));
  ]

(* qcheck: pretty-printing a random program and re-parsing it yields the
   same pretty output (fixpoint round-trip on a restricted AST without
   anonymous classes, which the parser hoists). *)

let gen_ident = QCheck2.Gen.oneofl [ "a"; "b"; "count"; "flag"; "x" ]

let gen_expr : Ast.expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               map (fun i -> Ast.expr (Ast.IntLit (abs i))) small_int;
               map (fun b -> Ast.expr (Ast.BoolLit b)) bool;
               map (fun x -> Ast.expr (Ast.Name x)) gen_ident;
               return (Ast.expr Ast.Null);
               return (Ast.expr Ast.This);
             ]
         in
         if n = 0 then leaf
         else
           oneof
             [
               leaf;
               map2
                 (fun a b -> Ast.expr (Ast.Binop (Ast.Add, a, b)))
                 (self (n / 2)) (self (n / 2));
               map2
                 (fun a b -> Ast.expr (Ast.Binop (Ast.Eq, a, b)))
                 (self (n / 2)) (self (n / 2));
               map2
                 (fun a b -> Ast.expr (Ast.Binop (Ast.And, a, b)))
                 (self (n / 2)) (self (n / 2));
               map (fun a -> Ast.expr (Ast.Unop (Ast.Not, a))) (self (n / 2));
               map (fun a -> Ast.expr (Ast.FieldAcc (a, "f"))) (self (n / 2));
             ])

let expr_roundtrip =
  QCheck2.Test.make ~name:"pretty/parse expression fixpoint" ~count:300 gen_expr (fun e ->
      let printed = Fmt.str "%a" Pretty.pp_expr e in
      let wrapped = Printf.sprintf "class C { method void m() { var int x = %s; } }" printed in
      match Diag.protect (fun () -> parse wrapped) with
      | Error _ -> false
      | Ok prog -> (
          match prog.Ast.p_classes with
          | [ { Ast.c_methods = [ { Ast.m_body = [ { Ast.s = Ast.Decl (_, _, Some e'); _ } ]; _ } ]; _ } ]
            ->
              String.equal printed (Fmt.str "%a" Pretty.pp_expr e')
          | _ -> false))

let program_roundtrip =
  (* full corpus sources: pretty(parse(src)) parses to the same pretty *)
  QCheck2.Test.make ~name:"pretty/parse program fixpoint on corpus" ~count:27
    (QCheck2.Gen.oneofl (List.map (fun (a : Nadroid_corpus.Corpus.app) -> a.Nadroid_corpus.Corpus.source)
         (Lazy.force Nadroid_corpus.Corpus.all)))
    (fun src ->
      let p1 = parse src in
      let printed = Pretty.program_to_string p1 in
      let p2 = parse printed in
      String.equal printed (Pretty.program_to_string p2))

(* -- sema --------------------------------------------------------------- *)

let sema_ok src = Sema.of_source ~file:"t" src

let sema_fails src = fails_with_diag (fun () -> sema_ok src)

let sema_tests =
  [
    Alcotest.test_case "locals shadow fields" `Quick (fun () ->
        let s =
          sema_ok
            "class C { field int x; method int m() { var int x = 1; return x; } }"
        in
        let c = Sema.get_class s "C" in
        match (List.hd c.Sema.rc_methods).Sema.rm_body with
        | [ _; { Sema.rs = Sema.Rreturn (Some { Sema.re = Sema.Rlocal _; _ }); _ } ] -> ()
        | _ -> Alcotest.fail "expected local reference");
    Alcotest.test_case "field access through this" `Quick (fun () ->
        let s = sema_ok "class C { field int x; method int m() { return x; } }" in
        let c = Sema.get_class s "C" in
        match (List.hd c.Sema.rc_methods).Sema.rm_body with
        | [ { Sema.rs = Sema.Rreturn (Some { Sema.re = Sema.Rget ({ Sema.re = Sema.Rthis; _ }, _); _ }); _ } ] ->
            ()
        | _ -> Alcotest.fail "expected this.field");
    Alcotest.test_case "outer capture desugars to outer chain" `Quick (fun () ->
        let s =
          sema_ok
            "class C extends Activity { field int x; method void m() { \
             this.runOnUiThread(new Runnable() { method void run() { x = x + 1; } }); } }"
        in
        let anon = Sema.get_class s "C$1" in
        let run = List.hd anon.Sema.rc_methods in
        (* x = ... resolves to (this.outer).x *)
        (match run.Sema.rm_body with
        | [ { Sema.rs = Sema.Rset_field ({ Sema.re = Sema.Rget ({ Sema.re = Sema.Rthis; _ }, outer_fr); _ }, fr, _); _ } ] ->
            Alcotest.(check string) "outer field" "outer" outer_fr.Sema.fr_name;
            Alcotest.(check string) "target field" "x" fr.Sema.fr_name
        | _ -> Alcotest.fail "expected outer-chain store");
        (* anon class has an implicit outer field typed by C *)
        match Sema.lookup_field s "C$1" "outer" with
        | Some fr -> Alcotest.(check bool) "outer type" true (fr.Sema.fr_ty = Ast.Tclass "C")
        | None -> Alcotest.fail "missing outer field");
    Alcotest.test_case "static field resolution" `Quick (fun () ->
        let s =
          sema_ok "class C { static field int total; method void m() { total = total + 1; } }"
        in
        let c = Sema.get_class s "C" in
        match (List.hd c.Sema.rc_methods).Sema.rm_body with
        | [ { Sema.rs = Sema.Rset_static (fr, _); _ } ] ->
            Alcotest.(check bool) "static" true fr.Sema.fr_static
        | _ -> Alcotest.fail "expected static store");
    Alcotest.test_case "intrinsic call" `Quick (fun () ->
        let s = sema_ok {|class C { method void m() { log("hi"); } }|} in
        let c = Sema.get_class s "C" in
        match (List.hd c.Sema.rc_methods).Sema.rm_body with
        | [ { Sema.rs = Sema.Rexpr { Sema.re = Sema.Rintrinsic ("log", [ _ ]); _ }; _ } ] -> ()
        | _ -> Alcotest.fail "expected intrinsic");
    Alcotest.test_case "null assignable to any class" `Quick (fun () ->
        ignore (sema_ok "class C { field Runnable r; method void m() { r = null; } }"));
    Alcotest.test_case "null comparable with objects" `Quick (fun () ->
        ignore
          (sema_ok
             "class C { field Runnable r; method bool m() { return r != null; } }"));
    Alcotest.test_case "subtype assignment ok" `Quick (fun () ->
        ignore
          (sema_ok "class C { field View v; method void m() { v = new Button(); } }"));
    Alcotest.test_case "supertype assignment fails" `Quick (fun () ->
        Alcotest.(check bool) "fails" true
          (sema_fails "class C { field Button b; method void m() { b = new View(); } }"));
    Alcotest.test_case "int to bool fails" `Quick (fun () ->
        Alcotest.(check bool) "fails" true
          (sema_fails "class C { method void m() { var bool b = 1; } }"));
    Alcotest.test_case "condition must be bool" `Quick (fun () ->
        Alcotest.(check bool) "fails" true
          (sema_fails "class C { method void m() { if (1) { } } }"));
    Alcotest.test_case "unknown name fails" `Quick (fun () ->
        Alcotest.(check bool) "fails" true
          (sema_fails "class C { method void m() { nope = 1; } }"));
    Alcotest.test_case "unknown method fails" `Quick (fun () ->
        Alcotest.(check bool) "fails" true
          (sema_fails "class C { method void m() { this.nope(); } }"));
    Alcotest.test_case "arity mismatch fails" `Quick (fun () ->
        Alcotest.(check bool) "fails" true
          (sema_fails "class C { method void n(int x) { } method void m() { this.n(); } }"));
    Alcotest.test_case "duplicate class fails" `Quick (fun () ->
        Alcotest.(check bool) "fails" true (sema_fails "class C { } class C { }"));
    Alcotest.test_case "redefining a builtin fails" `Quick (fun () ->
        Alcotest.(check bool) "fails" true (sema_fails "class Activity { }"));
    Alcotest.test_case "unknown superclass fails" `Quick (fun () ->
        Alcotest.(check bool) "fails" true (sema_fails "class C extends Nope { }"));
    Alcotest.test_case "inheritance cycle fails" `Quick (fun () ->
        Alcotest.(check bool) "fails" true
          (sema_fails "class A extends B { } class B extends A { }"));
    Alcotest.test_case "field hiding fails" `Quick (fun () ->
        Alcotest.(check bool) "fails" true
          (sema_fails "class A { field int x; } class B extends A { field int x; }"));
    Alcotest.test_case "override with wrong signature fails" `Quick (fun () ->
        Alcotest.(check bool) "fails" true
          (sema_fails
             "class A { method void m(int x) { } } class B extends A { method void m(bool x) \
              { } }"));
    Alcotest.test_case "compatible override ok" `Quick (fun () ->
        ignore
          (sema_ok
             "class A { method int m(int x) { return x; } } class B extends A { method int \
              m(int y) { return y + 1; } }"));
    Alcotest.test_case "duplicate local fails" `Quick (fun () ->
        Alcotest.(check bool) "fails" true
          (sema_fails "class C { method void m() { var int x = 1; var int x = 2; } }"));
    Alcotest.test_case "shadowing in inner scope allowed" `Quick (fun () ->
        ignore
          (sema_ok
             "class C { method void m() { var int x = 1; if (x > 0) { var int x = 2; log(i2s(x)); } } }"));
    Alcotest.test_case "void variable fails" `Quick (fun () ->
        Alcotest.(check bool) "fails" true
          (sema_fails "class C { method void m() { var void v; } }"));
    Alcotest.test_case "return type mismatch fails" `Quick (fun () ->
        Alcotest.(check bool) "fails" true
          (sema_fails "class C { method int m() { return true; } }"));
    Alcotest.test_case "init constructor resolution" `Quick (fun () ->
        let s =
          sema_ok "class P { field int v; method void init(int x) { v = x; } } class C { \
                   method P m() { return new P(7); } }"
        in
        let c = Sema.get_class s "C" in
        match (List.hd c.Sema.rc_methods).Sema.rm_body with
        | [ { Sema.rs = Sema.Rreturn (Some { Sema.re = Sema.Rnew ("P", Some ms, [ _ ]); _ }); _ } ] ->
            Alcotest.(check string) "init" "init" ms.Sema.ms_name
        | _ -> Alcotest.fail "expected init-carrying new");
    Alcotest.test_case "new with args but no init fails" `Quick (fun () ->
        Alcotest.(check bool) "fails" true
          (sema_fails "class P { } class C { method void m() { var P p = new P(1); } }"));
    Alcotest.test_case "dispatch finds most-derived" `Quick (fun () ->
        let s =
          sema_ok
            "class A { method int m() { return 1; } } class B extends A { method int m() { \
             return 2; } }"
        in
        match Sema.dispatch s "B" "m" with
        | Some m -> Alcotest.(check string) "class" "B" m.Sema.rm_class
        | None -> Alcotest.fail "dispatch failed");
    Alcotest.test_case "builtins parse and analyse" `Quick (fun () ->
        let s = sema_ok "class C { }" in
        Alcotest.(check bool) "Activity is builtin" true
          (Sema.get_class s "Activity").Sema.rc_builtin);
    Alcotest.test_case "nested shadowing gets #N unique names" `Quick (fun () ->
        let s =
          sema_ok
            "class C { method void m(int x) { var int y = 1; { var int y = 2; { var int x = 3; \
             y = x; } var int w = y; } var int w = y; { var int y = 4; } } }"
        in
        (* declarations, stores and reads of locals, in program order *)
        let rec expr acc (e : Sema.rexpr) =
          match e.Sema.re with
          | Sema.Rlocal u -> ("use " ^ u) :: acc
          | Sema.Rbinop (_, a, b) -> expr (expr acc a) b
          | _ -> acc
        and stmt acc (st : Sema.rstmt) =
          match st.Sema.rs with
          | Sema.Rdecl (_, u, init) ->
              ("decl " ^ u) :: Option.fold ~none:acc ~some:(expr acc) init
          | Sema.Rset_local (u, rhs) -> ("set " ^ u) :: expr acc rhs
          | Sema.Rblock b -> List.fold_left stmt acc b
          | _ -> acc
        in
        let m = List.hd (Sema.get_class s "C").Sema.rc_methods in
        Alcotest.(check (list string))
          "a shadowing declaration is suffixed with its declaration count; a closed \
           scope's names are free again"
          [
            "decl y"; "decl y#3"; "decl x#4"; "use x#4"; "set y#3"; "use y#3"; "decl w";
            "use y"; "decl w"; "decl y#7";
          ]
          (List.rev (List.fold_left stmt [] m.Sema.rm_body));
        Alcotest.(check bool) "a redeclaration after shadowing, in the same scope, fails" true
          (sema_fails
             "class C { method void m() { var int y = 1; { var int y = 2; var int y = 3; } } }");
        Alcotest.(check bool) "a duplicate parameter fails" true
          (sema_fails "class C { method void m(int x, int x) { } }"));
    Alcotest.test_case "10,000 locals resolve in linear time" `Quick (fun () ->
        let n = 10_000 in
        let b = Buffer.create (n * 40) in
        Buffer.add_string b "class C { method void m() {";
        for i = 0 to n - 1 do
          Printf.bprintf b " var int v%d = %d;" i i
        done;
        for i = 0 to n - 1 do
          Printf.bprintf b " v%d = v%d + 1;" i (n - 1 - i)
        done;
        Buffer.add_string b " } }";
        let ast = Parser.parse_program ~file:"t" (Buffer.contents b) in
        let t0 = Nadroid_clock.Clock.now () in
        let s = Sema.analyze ast in
        let took = Nadroid_clock.Clock.now () -. t0 in
        Alcotest.(check int) "every statement resolved" (2 * n)
          (List.length (List.hd (Sema.get_class s "C").Sema.rc_methods).Sema.rm_body);
        Alcotest.(check bool) (Printf.sprintf "under 300 ms (took %.0f ms)" (took *. 1000.)) true
          (took < 0.3));
  ]

let suite =
  [
    ("lexer", lexer_tests);
    ("parser", parser_tests);
    ( "parser-properties",
      List.map QCheck_alcotest.to_alcotest [ expr_roundtrip; program_roundtrip ] );
    ("sema", sema_tests);
  ]
