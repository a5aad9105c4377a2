(* Lexical tokens of MiniAndroid. *)

type t =
  (* literals and names *)
  | INT of int
  | STRING of string
  | IDENT of string  (** lowercase-initial identifier *)
  | UIDENT of string  (** uppercase-initial identifier: class names *)
  (* keywords *)
  | KW_CLASS
  | KW_EXTENDS
  | KW_FIELD
  | KW_STATIC
  | KW_METHOD
  | KW_VAR
  | KW_IF
  | KW_ELSE
  | KW_WHILE
  | KW_RETURN
  | KW_NEW
  | KW_NULL
  | KW_THIS
  | KW_TRUE
  | KW_FALSE
  | KW_SYNCHRONIZED
  | KW_INT
  | KW_BOOL
  | KW_STRING
  | KW_VOID
  (* punctuation *)
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | SEMI
  | COMMA
  | DOT
  (* operators *)
  | ASSIGN  (** [=] *)
  | EQ  (** [==] *)
  | NE  (** [!=] *)
  | LT
  | LE
  | GT
  | GE
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | ANDAND
  | OROR
  | BANG
  | EOF

(* The lexer asks this of every identifier; a string [match] compiles to
   a few word comparisons and allocates nothing. *)
let keyword_of_string = function
  | "class" -> Some KW_CLASS
  | "extends" -> Some KW_EXTENDS
  | "field" -> Some KW_FIELD
  | "static" -> Some KW_STATIC
  | "method" -> Some KW_METHOD
  | "var" -> Some KW_VAR
  | "if" -> Some KW_IF
  | "else" -> Some KW_ELSE
  | "while" -> Some KW_WHILE
  | "return" -> Some KW_RETURN
  | "new" -> Some KW_NEW
  | "null" -> Some KW_NULL
  | "this" -> Some KW_THIS
  | "true" -> Some KW_TRUE
  | "false" -> Some KW_FALSE
  | "synchronized" -> Some KW_SYNCHRONIZED
  | "int" -> Some KW_INT
  | "bool" -> Some KW_BOOL
  | "string" -> Some KW_STRING
  | "void" -> Some KW_VOID
  | _ -> None

let to_string = function
  | INT n -> string_of_int n
  | STRING s -> Printf.sprintf "%S" s
  | IDENT s | UIDENT s -> s
  | KW_CLASS -> "class"
  | KW_EXTENDS -> "extends"
  | KW_FIELD -> "field"
  | KW_STATIC -> "static"
  | KW_METHOD -> "method"
  | KW_VAR -> "var"
  | KW_IF -> "if"
  | KW_ELSE -> "else"
  | KW_WHILE -> "while"
  | KW_RETURN -> "return"
  | KW_NEW -> "new"
  | KW_NULL -> "null"
  | KW_THIS -> "this"
  | KW_TRUE -> "true"
  | KW_FALSE -> "false"
  | KW_SYNCHRONIZED -> "synchronized"
  | KW_INT -> "int"
  | KW_BOOL -> "bool"
  | KW_STRING -> "string"
  | KW_VOID -> "void"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LPAREN -> "("
  | RPAREN -> ")"
  | SEMI -> ";"
  | COMMA -> ","
  | DOT -> "."
  | ASSIGN -> "="
  | EQ -> "=="
  | NE -> "!="
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | ANDAND -> "&&"
  | OROR -> "||"
  | BANG -> "!"
  | EOF -> "<eof>"

let equal (a : t) (b : t) = a = b
