(* Frontend equivalence and regression tests (the PR-10 gate).

   The table-driven lexer and the streaming parser are pure speed
   refactors: every observable — token streams with locations, ASTs,
   diagnostics and final analysis reports — must be byte-identical to
   the reference implementations. The same holds for batch-shared
   interning: handing every analysis of a batch one hash-consed symbol
   table must never change a report, because engine iteration order is
   insertion-ordered and thus independent of id assignment. These
   properties are checked over 200 generated apps and the whole
   27-app corpus. *)

open Nadroid_lang
module Pipeline = Nadroid_core.Pipeline
module Cache = Nadroid_core.Cache
module Corpus = Nadroid_corpus.Corpus
module Synth = Nadroid_corpus.Synth

let synth_src seed = fst (Synth.render (Synth.generate ~seed))

(* -- unit: UTF-8 BOM ----------------------------------------------------- *)

let bom = "\xEF\xBB\xBF"

let bom_tests =
  let src = "class A extends Activity { method void onCreate() { } }" in
  [
    Alcotest.test_case "leading BOM is skipped by both lexer paths" `Quick (fun () ->
        let plain = Lexer.tokens ~file:"t" src in
        List.iter
          (fun (what, toks) ->
            Alcotest.(check bool) (what ^ ": tokens identical") true (toks = plain);
            let _, l = toks.(0) in
            Alcotest.(check int) (what ^ ": first line") 1 l.Loc.line;
            Alcotest.(check int) (what ^ ": first col — the BOM costs no column") 1
              l.Loc.col)
          [
            ("table", Lexer.tokens ~file:"t" (bom ^ src));
            ("reference", Lexer.Reference.tokens ~file:"t" (bom ^ src));
          ]);
    Alcotest.test_case "BOM-free input is untouched" `Quick (fun () ->
        Alcotest.(check bool) "same streams" true
          (Lexer.tokens ~file:"t" src = Lexer.Reference.tokens ~file:"t" src));
  ]

(* -- unit: escape diagnostic location ------------------------------------ *)

let escape_tests =
  [
    Alcotest.test_case "invalid escape points at its backslash" `Quick (fun () ->
        (* "ab\q" — the backslash opens the literal's 4th column *)
        let src = {|"ab\q"|} in
        List.iter
          (fun (what, lex) ->
            match lex src with
            | (_ : (Token.t * Loc.t) array) ->
                Alcotest.failf "%s: invalid escape was accepted" what
            | exception Diag.Error d ->
                Alcotest.(check string) (what ^ ": message")
                  "invalid escape sequence: \\q" d.Diag.message;
                Alcotest.(check int) (what ^ ": line") 1 d.Diag.loc.Loc.line;
                Alcotest.(check int) (what ^ ": column of the backslash") 4
                  d.Diag.loc.Loc.col)
          [
            ("table", Lexer.tokens ~file:"t");
            ("reference", Lexer.Reference.tokens ~file:"t");
          ]);
  ]

(* -- unit: count_loc ----------------------------------------------------- *)

let loc_tests =
  let check what expect src =
    Alcotest.(check int) what expect (Pipeline.count_loc src)
  in
  [
    Alcotest.test_case "block-comment-only lines do not count" `Quick (fun () ->
        check "single line" 0 "/* c */\n";
        check "multi-line interior" 0 "/* a\n   b\n   c */\n";
        check "code before" 1 "x = 1; /* c */\n";
        check "code after" 1 "/* c */ x = 1;\n");
    Alcotest.test_case "multi-line block comments split code lines correctly" `Quick
      (fun () ->
        (* line 1 has x, line 2 is comment interior + y *)
        check "both ends carry code" 2 "x = 1; /* a\nb */ y = 2;\n";
        check "interior-only middle line" 2 "x = 1; /* a\nb\nc */ y = 2;\n");
    Alcotest.test_case "comment openers inside strings still count as code" `Quick
      (fun () ->
        check "block opener in string" 1 "s = \"/* not a comment */\";\n";
        check "line opener in string" 1 "s = \"// also code\";\n");
    Alcotest.test_case "line comments and blanks (PR-1 behaviour kept)" `Quick (fun () ->
        check "three" 3 "a\n\n  \nb\nc\n";
        check "two" 2 "// header\na\n  // indented comment\nb // trailing\n\n");
  ]

(* -- equivalence properties ---------------------------------------------- *)

let gen_seed = QCheck2.Gen.int_bound 1_000_000

let lexer_equiv =
  QCheck2.Test.make ~name:"table-driven lexer = reference lexer (tokens + locs)"
    ~count:200 gen_seed (fun seed ->
      let src = synth_src seed in
      Lexer.tokens ~file:"synth" src = Lexer.Reference.tokens ~file:"synth" src)

let parser_equiv =
  QCheck2.Test.make ~name:"token-array parse = source parse (ASTs)" ~count:200 gen_seed
    (fun seed ->
      let src = synth_src seed in
      Parser.parse_program ~file:"synth" src
      = Parser.parse_program_tokens ~file:"synth"
          (Lexer.Reference.tokens ~file:"synth" src))

let entry_key (e : Cache.entry) =
  (e.Cache.e_potential, e.Cache.e_after_sound, e.Cache.e_after_unsound, e.Cache.e_report)

let entry_of src ?interner name =
  Cache.entry_of_result (Pipeline.analyze ?interner ~file:name src)

(* One table accumulating across all 100 runs of the property — exactly
   the batch-sharing shape: by the later runs the shared table's ids
   bear no relation to a fresh table's, so byte-identity here proves
   the engine's output is id-independent. *)
let interner_equiv =
  let shared = Pipeline.create_interner () in
  QCheck2.Test.make ~name:"shared-interner report = fresh-interner report" ~count:100
    gen_seed (fun seed ->
      let src = synth_src seed in
      entry_key (entry_of src "synth") = entry_key (entry_of src ~interner:shared "synth"))

(* -- corpus sweeps -------------------------------------------------------- *)

(* Naive restatement of the LOC spec ("a line counts iff it carries at
   least one character that is neither whitespace nor comment"), written
   as an explicit state machine over individual characters — structured
   nothing like the single-pass scanner in [Pipeline.count_loc], so a
   divergence on real sources means one of the two drifted from the
   spec. *)
let spec_loc src =
  let n = String.length src in
  let count = ref 0 in
  let state = ref `Code (* `Code | `Line_comment | `Block_comment | `String *) in
  let line_has_code = ref false in
  let flush () =
    if !line_has_code then incr count;
    line_has_code := false
  in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    let next = if !i + 1 < n then Some src.[!i + 1] else None in
    (match (!state, c, next) with
    | _, '\n', _ ->
        if !state = `Line_comment then state := `Code;
        flush ();
        (* a lexically-invalid newline inside a literal marks both
           lines as code, like the scanner does *)
        if !state = `String then line_has_code := true
    | `Code, '/', Some '/' ->
        state := `Line_comment;
        incr i
    | `Code, '/', Some '*' ->
        state := `Block_comment;
        incr i
    | `Code, '"', _ ->
        line_has_code := true;
        state := `String
    | `Code, (' ' | '\t' | '\r'), _ -> ()
    | `Code, _, _ -> line_has_code := true
    | `String, '\\', Some _ ->
        line_has_code := true;
        incr i
    | `String, '"', _ -> state := `Code
    | `String, _, _ -> line_has_code := true
    | `Block_comment, '*', Some '/' ->
        state := `Code;
        incr i
    | (`Line_comment | `Block_comment), _, _ -> ());
    incr i
  done;
  flush ();
  !count

let corpus_tests =
  [
    Alcotest.test_case "corpus: count_loc matches the LOC spec on all 27 apps" `Quick
      (fun () ->
        List.iter
          (fun (app : Corpus.app) ->
            Alcotest.(check int)
              (app.Corpus.name ^ ": count_loc = spec")
              (spec_loc app.Corpus.source)
              (Pipeline.count_loc app.Corpus.source))
          (Lazy.force Corpus.all));
    Alcotest.test_case "corpus: lexer and parser equivalence on all 27 apps" `Quick
      (fun () ->
        List.iter
          (fun (app : Corpus.app) ->
            let name = app.Corpus.name and src = app.Corpus.source in
            let toks = Lexer.tokens ~file:name src in
            let ref_toks = Lexer.Reference.tokens ~file:name src in
            Alcotest.(check bool) (name ^ ": token streams identical") true
              (toks = ref_toks);
            Alcotest.(check bool) (name ^ ": ASTs identical") true
              (Parser.parse_program ~file:name src
              = Parser.parse_program_tokens ~file:name ref_toks))
          (Lazy.force Corpus.all));
    Alcotest.test_case "corpus: batch-shared interning is byte-identical" `Slow
      (fun () ->
        let apps = Lazy.force Corpus.all in
        let fresh =
          List.map (fun (a : Corpus.app) -> entry_of a.Corpus.source a.Corpus.name) apps
        in
        (* share one table across the batch, analyzed in REVERSE order so
           the interned ids disagree maximally with the fresh runs *)
        let shared_tbl = Pipeline.create_interner () in
        let shared =
          List.rev
            (List.map
               (fun (a : Corpus.app) ->
                 entry_of a.Corpus.source ~interner:shared_tbl a.Corpus.name)
               (List.rev apps))
        in
        List.iter2
          (fun (a : Corpus.app) (f, s) ->
            Alcotest.(check bool) (a.Corpus.name ^ ": report bytes identical") true
              (entry_key f = entry_key s))
          apps
          (List.combine fresh shared));
  ]

(* -- diagnostics: the streaming parser reports what the array path does --- *)

(* The outcome of one parse: the AST, or the diagnostic's message and
   location. *)
let outcome parse =
  match parse () with
  | prog -> Ok prog
  | exception Diag.Error d -> Error (d.Diag.message, Loc.to_string d.Diag.loc)

let pp_outcome ppf = function
  | Ok _ -> Fmt.string ppf "parsed"
  | Error (msg, loc) -> Fmt.pf ppf "%s: %s" loc msg

let same_diagnostics ?(what = "") ~file src =
  let streamed = outcome (fun () -> Parser.parse_program ~file src) in
  let arrayed = outcome (fun () -> Parser.parse_program_tokens ~file (Lexer.tokens ~file src)) in
  if streamed <> arrayed then
    Alcotest.failf "%s%s: streaming parse gave %a, the token array %a" file what pp_outcome
      streamed pp_outcome arrayed

(* The parser fails at line 3's [method] (line 2 lacks its [;]) before
   the lexer reaches the unterminated literal later on that line; the
   lexical error still wins, as when the whole file is lexed first. *)
let lex_error_after_parse_error =
  String.concat "\n"
    [
      "class A extends Activity {";
      "  field Data x";
      "  method void f() { x = \"abc";
      "  }";
      "}";
      "";
    ]

let diagnostic_tests =
  [
    Alcotest.test_case "a later lexical error wins over an earlier parse error" `Quick
      (fun () ->
        Alcotest.(check (result reject (pair string string)))
          "the unterminated literal is reported"
          (Error ("unterminated string literal", "late.mand:3:25"))
          (outcome (fun () -> Parser.parse_program ~file:"late.mand" lex_error_after_parse_error));
        same_diagnostics ~file:"late.mand" lex_error_after_parse_error);
    (* byte- and grammar-level mutants of every corpus app, one to three
       mutations deep: most fail in the lexer or the parser, at every
       depth of the file, and a later mutation can add a lexical error
       behind the syntax error an earlier one made *)
    Alcotest.test_case "chaos mutants: same AST or same diagnostic on both token sources"
      `Quick (fun () ->
        List.iteri
          (fun i (app : Corpus.app) ->
            for m = 0 to 15 do
              let rng = Random.State.make [| 42; i; m |] in
              let rec mutate k (src, ops) =
                if k = 0 then (src, ops)
                else
                  let src, op = Nadroid_corpus.Chaos.mutate rng src in
                  mutate (k - 1) (src, op :: ops)
              in
              let src, ops = mutate (1 + (m mod 3)) (app.Corpus.source, []) in
              same_diagnostics
                ~what:(Printf.sprintf " (%s)" (String.concat ", " (List.rev ops)))
                ~file:(Printf.sprintf "%s~%d" app.Corpus.name m)
                src
            done)
          (Lazy.force Corpus.all));
  ]

(* -- allocation: the frontend stays in the minor heap --------------------- *)

(* ToDoList's lex and parse fit the default minor heap (256k words), so
   parsing it from an empty minor heap must neither trigger a minor
   collection nor promote a word. A token buffer grown with a young fill
   value forces one (the runtime will not let a fresh major-heap array
   point into the minor heap), and a buffer of every token promotes the
   whole stream at the next collection. *)
let allocation_tests =
  [
    Alcotest.test_case "parsing ToDoList stays in the minor heap" `Quick (fun () ->
        let app =
          match Corpus.find "ToDoList" with Some a -> a | None -> Alcotest.fail "no ToDoList"
        in
        let src = app.Corpus.source in
        Gc.minor ();
        let minors0 = (Gc.quick_stat ()).Gc.minor_collections in
        let _, promoted0, _ = Gc.counters () in
        let prog = Parser.parse_program ~file:app.Corpus.name src in
        let _, promoted1, _ = Gc.counters () in
        let minors1 = (Gc.quick_stat ()).Gc.minor_collections in
        ignore (Sys.opaque_identity prog);
        Alcotest.(check int) "no minor collection" 0 (minors1 - minors0);
        Alcotest.(check (float 0.0)) "no promoted words" 0.0 (promoted1 -. promoted0));
  ]

let suite =
  [
    ("frontend", bom_tests @ escape_tests @ loc_tests @ allocation_tests);
    ( "frontend-equivalence",
      List.map QCheck_alcotest.to_alcotest [ lexer_equiv; parser_equiv; interner_equiv ]
      @ corpus_tests @ diagnostic_tests );
  ]
