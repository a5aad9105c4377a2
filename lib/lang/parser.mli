(** Recursive-descent parser for MiniAndroid.

    Anonymous inner classes — [new Runnable() { ... }] — are hoisted
    into fresh top-level classes named ["Outer$n"] with
    {!Ast.cls.c_anon} set and {!Ast.cls.c_outer} recording the enclosing
    class; the allocation site becomes a plain [New] of the hoisted
    class. Syntax errors raise {!Diag.Error}. *)

val parse_program : file:string -> string -> Ast.program
(** Parse a source, pulling tokens from {!Lexer.next} one at a time. The
    reported error is the one {!parse_program_tokens} gives on
    [Lexer.tokens ~file src]: a lexical error anywhere in the file wins
    over an earlier syntax error. *)

val parse_program_tokens : file:string -> (Token.t * Loc.t) array -> Ast.program
(** Parse an already-lexed token stream (as produced by {!Lexer.tokens}:
    terminated by a single {!Token.EOF}) with the same parser; the
    equivalence tests drive it from the reference lexer. *)
