(* Recursive-descent parser for MiniAndroid.

   The grammar is LL(2); the only place two tokens of lookahead are needed
   is distinguishing an assignment [lhs = e;] from an expression statement,
   which we instead resolve by parsing an expression first and inspecting
   the following token (the parsed expression is reinterpreted as an
   l-value when an [=] follows).

   Anonymous inner classes — [new Runnable() { method void run() {...} }]
   — are hoisted here into fresh top-level classes named ["Outer$n"]; the
   allocation site becomes a plain [New] of the hoisted class. *)

type t = {
  next : unit -> Token.t * Loc.t;  (* the token source; EOF at its end *)
  mutable cur : Token.t * Loc.t;  (* the one token of lookahead *)
  mutable hoisted : Ast.cls list;  (* anonymous classes, in reverse order *)
  mutable anon_counter : int;
  file : string;
}

(* The parser only ever looks at the current token and never backtracks,
   so it pulls tokens one at a time from a source instead of indexing a
   materialized stream: {!parse_program} pulls straight from the lexer,
   so no token outlives the next pull, while [parse_program_tokens]
   walks an array (the equivalence tests drive the parser from the
   reference lexer that way). *)
let of_source ~file next = { next; cur = next (); hoisted = []; anon_counter = 0; file }

let peek p = p.cur

let peek_tok p = fst p.cur

(* EOF is sticky: the parser never advances past it *)
let advance p = match fst p.cur with Token.EOF -> () | _ -> p.cur <- p.next ()

let cur_loc p = snd (peek p)

let err p fmt = Diag.error ~loc:(cur_loc p) fmt

let expect p tok =
  let got, l = peek p in
  if Token.equal got tok then advance p
  else
    Diag.error ~loc:l "expected `%s` but found `%s`" (Token.to_string tok) (Token.to_string got)

let expect_ident p =
  match peek p with
  | Token.IDENT s, _ ->
      advance p;
      s
  | got, l -> Diag.error ~loc:l "expected identifier but found `%s`" (Token.to_string got)

let expect_uident p =
  match peek p with
  | Token.UIDENT s, _ ->
      advance p;
      s
  | got, l -> Diag.error ~loc:l "expected class name but found `%s`" (Token.to_string got)

let parse_ty p =
  match peek p with
  | Token.KW_INT, _ ->
      advance p;
      Ast.Tint
  | Token.KW_BOOL, _ ->
      advance p;
      Ast.Tbool
  | Token.KW_STRING, _ ->
      advance p;
      Ast.Tstring
  | Token.KW_VOID, _ ->
      advance p;
      Ast.Tvoid
  | Token.UIDENT s, _ ->
      advance p;
      Ast.Tclass s
  | got, l -> Diag.error ~loc:l "expected a type but found `%s`" (Token.to_string got)

(* -- expressions ------------------------------------------------------ *)

let rec parse_expr p outer = parse_or p outer

and parse_or p outer =
  let lhs = parse_and p outer in
  match peek_tok p with
  | Token.OROR ->
      let l = cur_loc p in
      advance p;
      let rhs = parse_or p outer in
      Ast.expr ~loc:l (Ast.Binop (Ast.Or, lhs, rhs))
  | _ -> lhs

and parse_and p outer =
  let lhs = parse_equality p outer in
  match peek_tok p with
  | Token.ANDAND ->
      let l = cur_loc p in
      advance p;
      let rhs = parse_and p outer in
      Ast.expr ~loc:l (Ast.Binop (Ast.And, lhs, rhs))
  | _ -> lhs

and parse_equality p outer =
  let lhs = parse_relational p outer in
  match peek_tok p with
  | Token.EQ | Token.NE ->
      let op = if Token.equal (peek_tok p) Token.EQ then Ast.Eq else Ast.Ne in
      let l = cur_loc p in
      advance p;
      let rhs = parse_relational p outer in
      Ast.expr ~loc:l (Ast.Binop (op, lhs, rhs))
  | _ -> lhs

and parse_relational p outer =
  let lhs = parse_additive p outer in
  match peek_tok p with
  | Token.LT | Token.LE | Token.GT | Token.GE ->
      let op =
        match peek_tok p with
        | Token.LT -> Ast.Lt
        | Token.LE -> Ast.Le
        | Token.GT -> Ast.Gt
        | _ -> Ast.Ge
      in
      let l = cur_loc p in
      advance p;
      let rhs = parse_additive p outer in
      Ast.expr ~loc:l (Ast.Binop (op, lhs, rhs))
  | _ -> lhs

and parse_additive p outer =
  let rec go lhs =
    match peek_tok p with
    | Token.PLUS | Token.MINUS ->
        let op = if Token.equal (peek_tok p) Token.PLUS then Ast.Add else Ast.Sub in
        let l = cur_loc p in
        advance p;
        let rhs = parse_multiplicative p outer in
        go (Ast.expr ~loc:l (Ast.Binop (op, lhs, rhs)))
    | _ -> lhs
  in
  go (parse_multiplicative p outer)

and parse_multiplicative p outer =
  let rec go lhs =
    match peek_tok p with
    | Token.STAR | Token.SLASH | Token.PERCENT ->
        let op =
          match peek_tok p with
          | Token.STAR -> Ast.Mul
          | Token.SLASH -> Ast.Div
          | _ -> Ast.Mod
        in
        let l = cur_loc p in
        advance p;
        let rhs = parse_unary p outer in
        go (Ast.expr ~loc:l (Ast.Binop (op, lhs, rhs)))
    | _ -> lhs
  in
  go (parse_unary p outer)

and parse_unary p outer =
  match peek_tok p with
  | Token.BANG ->
      let l = cur_loc p in
      advance p;
      Ast.expr ~loc:l (Ast.Unop (Ast.Not, parse_unary p outer))
  | Token.MINUS ->
      let l = cur_loc p in
      advance p;
      Ast.expr ~loc:l (Ast.Unop (Ast.Neg, parse_unary p outer))
  | _ -> parse_postfix p outer

and parse_postfix p outer =
  let rec go recv =
    match peek_tok p with
    | Token.DOT -> (
        advance p;
        let l = cur_loc p in
        let name = expect_ident p in
        match peek_tok p with
        | Token.LPAREN ->
            let args = parse_args p outer in
            go (Ast.expr ~loc:l (Ast.Call (Some recv, name, args)))
        | _ -> go (Ast.expr ~loc:l (Ast.FieldAcc (recv, name))))
    | _ -> recv
  in
  go (parse_primary p outer)

and parse_args p outer =
  expect p Token.LPAREN;
  let rec go acc =
    match peek_tok p with
    | Token.RPAREN ->
        advance p;
        List.rev acc
    | _ -> (
        let e = parse_expr p outer in
        match peek_tok p with
        | Token.COMMA ->
            advance p;
            go (e :: acc)
        | Token.RPAREN ->
            advance p;
            List.rev (e :: acc)
        | got -> err p "expected `,` or `)` in argument list but found `%s`" (Token.to_string got))
  in
  go []

and parse_primary p outer =
  let tok, l = peek p in
  match tok with
  | Token.KW_NULL ->
      advance p;
      Ast.expr ~loc:l Ast.Null
  | Token.KW_THIS ->
      advance p;
      Ast.expr ~loc:l Ast.This
  | Token.INT n ->
      advance p;
      Ast.expr ~loc:l (Ast.IntLit n)
  | Token.KW_TRUE ->
      advance p;
      Ast.expr ~loc:l (Ast.BoolLit true)
  | Token.KW_FALSE ->
      advance p;
      Ast.expr ~loc:l (Ast.BoolLit false)
  | Token.STRING s ->
      advance p;
      Ast.expr ~loc:l (Ast.StrLit s)
  | Token.KW_NEW -> parse_new p outer l
  | Token.IDENT name -> (
      advance p;
      match peek_tok p with
      | Token.LPAREN ->
          let args = parse_args p outer in
          Ast.expr ~loc:l (Ast.Call (None, name, args))
      | _ -> Ast.expr ~loc:l (Ast.Name name))
  | Token.LPAREN ->
      advance p;
      let e = parse_expr p outer in
      expect p Token.RPAREN;
      e
  | got -> Diag.error ~loc:l "expected an expression but found `%s`" (Token.to_string got)

and parse_new p outer l =
  expect p Token.KW_NEW;
  let cname = expect_uident p in
  let args = parse_args p outer in
  match peek_tok p with
  | Token.LBRACE ->
      (* anonymous subclass of [cname], hoisted to top level *)
      p.anon_counter <- p.anon_counter + 1;
      let anon_name = Printf.sprintf "%s$%d" outer p.anon_counter in
      let fields, methods = parse_members p anon_name in
      let cls =
        {
          Ast.c_name = anon_name;
          c_super = Some cname;
          c_fields = fields;
          c_methods = methods;
          c_anon = true;
          c_outer = Some outer;
          c_loc = l;
        }
      in
      p.hoisted <- cls :: p.hoisted;
      Ast.expr ~loc:l (Ast.New (anon_name, args))
  | _ -> Ast.expr ~loc:l (Ast.New (cname, args))

(* -- statements ------------------------------------------------------- *)

and parse_block p outer =
  expect p Token.LBRACE;
  let rec go acc =
    match peek_tok p with
    | Token.RBRACE ->
        advance p;
        List.rev acc
    | Token.EOF -> err p "unterminated block (missing `}`)"
    | _ -> go (parse_stmt p outer :: acc)
  in
  go []

and parse_stmt p outer : Ast.stmt =
  let tok, l = peek p in
  match tok with
  | Token.KW_VAR ->
      advance p;
      let ty = parse_ty p in
      let name = expect_ident p in
      let init =
        match peek_tok p with
        | Token.ASSIGN ->
            advance p;
            Some (parse_expr p outer)
        | _ -> None
      in
      expect p Token.SEMI;
      Ast.stmt ~loc:l (Ast.Decl (ty, name, init))
  | Token.KW_IF ->
      advance p;
      expect p Token.LPAREN;
      let cond = parse_expr p outer in
      expect p Token.RPAREN;
      let then_b = parse_block p outer in
      let else_b =
        match peek_tok p with
        | Token.KW_ELSE -> (
            advance p;
            match peek_tok p with
            | Token.KW_IF -> [ parse_stmt p outer ]
            | _ -> parse_block p outer)
        | _ -> []
      in
      Ast.stmt ~loc:l (Ast.If (cond, then_b, else_b))
  | Token.KW_WHILE ->
      advance p;
      expect p Token.LPAREN;
      let cond = parse_expr p outer in
      expect p Token.RPAREN;
      let body = parse_block p outer in
      Ast.stmt ~loc:l (Ast.While (cond, body))
  | Token.KW_RETURN ->
      advance p;
      let e =
        match peek_tok p with Token.SEMI -> None | _ -> Some (parse_expr p outer)
      in
      expect p Token.SEMI;
      Ast.stmt ~loc:l (Ast.Return e)
  | Token.KW_SYNCHRONIZED ->
      advance p;
      expect p Token.LPAREN;
      let lock = parse_expr p outer in
      expect p Token.RPAREN;
      let body = parse_block p outer in
      Ast.stmt ~loc:l (Ast.Sync (lock, body))
  | Token.LBRACE -> Ast.stmt ~loc:l (Ast.BlockStmt (parse_block p outer))
  | _ -> (
      let e = parse_expr p outer in
      match peek_tok p with
      | Token.ASSIGN -> (
          advance p;
          let rhs = parse_expr p outer in
          expect p Token.SEMI;
          match e.Ast.e with
          | Ast.Name x -> Ast.stmt ~loc:l (Ast.AssignName (x, rhs))
          | Ast.FieldAcc (r, f) -> Ast.stmt ~loc:l (Ast.AssignField (r, f, rhs))
          | Ast.Null | Ast.This | Ast.IntLit _ | Ast.BoolLit _ | Ast.StrLit _ | Ast.Call _
          | Ast.New _ | Ast.Unop _ | Ast.Binop _ ->
              Diag.error ~loc:l "left-hand side of assignment is not assignable")
      | _ ->
          expect p Token.SEMI;
          Ast.stmt ~loc:l (Ast.Expr e))

(* -- declarations ------------------------------------------------------ *)

and parse_members p cls_name : Ast.field list * Ast.meth list =
  expect p Token.LBRACE;
  let fields = ref [] in
  let methods = ref [] in
  let rec go () =
    match peek p with
    | Token.RBRACE, _ -> advance p
    | Token.EOF, l -> Diag.error ~loc:l "unterminated class body (missing `}`)"
    | Token.KW_STATIC, l ->
        advance p;
        expect p Token.KW_FIELD;
        let ty = parse_ty p in
        let name = expect_ident p in
        expect p Token.SEMI;
        fields := { Ast.f_name = name; f_ty = ty; f_static = true; f_loc = l } :: !fields;
        go ()
    | Token.KW_FIELD, l ->
        advance p;
        let ty = parse_ty p in
        let name = expect_ident p in
        expect p Token.SEMI;
        fields := { Ast.f_name = name; f_ty = ty; f_static = false; f_loc = l } :: !fields;
        go ()
    | Token.KW_METHOD, l ->
        advance p;
        let ret = parse_ty p in
        let name = expect_ident p in
        let params = parse_params p in
        let body = parse_block p cls_name in
        methods :=
          { Ast.m_name = name; m_ret = ret; m_params = params; m_body = body; m_loc = l }
          :: !methods;
        go ()
    | got, l ->
        Diag.error ~loc:l "expected `field`, `method` or `}` but found `%s`"
          (Token.to_string got)
  in
  go ();
  (List.rev !fields, List.rev !methods)

and parse_params p =
  expect p Token.LPAREN;
  let rec go acc =
    match peek_tok p with
    | Token.RPAREN ->
        advance p;
        List.rev acc
    | _ -> (
        let ty = parse_ty p in
        let name = expect_ident p in
        match peek_tok p with
        | Token.COMMA ->
            advance p;
            go ((ty, name) :: acc)
        | Token.RPAREN ->
            advance p;
            List.rev ((ty, name) :: acc)
        | got -> err p "expected `,` or `)` in parameter list but found `%s`" (Token.to_string got)
        )
  in
  go []

let parse_class p : Ast.cls =
  let _, l = peek p in
  expect p Token.KW_CLASS;
  let name = expect_uident p in
  let super =
    match peek_tok p with
    | Token.KW_EXTENDS ->
        advance p;
        Some (expect_uident p)
    | _ -> None
  in
  let fields, methods = parse_members p name in
  {
    Ast.c_name = name;
    c_super = super;
    c_fields = fields;
    c_methods = methods;
    c_anon = false;
    c_outer = None;
    c_loc = l;
  }

(* Parse a complete program. Hoisted anonymous classes are appended after
   the classes in which they appear. *)
let parse_program_of parser : Ast.program =
  let p = parser in
  let rec go acc =
    match peek p with
    | Token.EOF, _ -> List.rev acc
    | Token.KW_CLASS, _ -> go (parse_class p :: acc)
    | got, l ->
        Diag.error ~loc:l "expected `class` at top level but found `%s`" (Token.to_string got)
  in
  let classes = go [] in
  { Ast.p_classes = classes @ List.rev p.hoisted }

(* A file's diagnostic is its first lexical error if it has one, else its
   first syntax error, as if the whole file were lexed before parsing: so
   when the parser fails before the lexer has reached the end, the rest
   of the file is lexed for an error that takes precedence. [lexing] is
   still set when the exception came out of the lexer itself. *)
let parse_program ~file src : Ast.program =
  let lx = Lexer.create ~file src in
  let lexing = ref false in
  let next () =
    lexing := true;
    let tl = Lexer.next lx in
    lexing := false;
    tl
  in
  let rec drain () = match Lexer.next lx with Token.EOF, _ -> () | _ -> drain () in
  match parse_program_of (of_source ~file next) with
  | prog -> prog
  | exception e when not !lexing ->
      let bt = Printexc.get_raw_backtrace () in
      drain ();
      Printexc.raise_with_backtrace e bt

let parse_program_tokens ~file toks : Ast.program =
  let n = Array.length toks in
  let i = ref 0 in
  let next () =
    if !i < n then begin
      let tl = Array.unsafe_get toks !i in
      incr i;
      tl
    end
    else (Token.EOF, Loc.dummy)
  in
  parse_program_of (of_source ~file next)
