(** Table-driven lexer for MiniAndroid.

    Operates on whole in-memory strings (corpus apps are embedded
    sources), tracks line/column positions, skips [//] line comments and
    non-nesting [/* */] block comments, and skips a leading UTF-8 BOM.
    The hot path dispatches on a 256-entry character-class table, so no
    option is allocated per scanned byte. Lexical errors raise
    {!Diag.Error}. *)

type t

val create : file:string -> string -> t
(** A lexer over [src]. A leading UTF-8 byte-order mark is skipped
    without charging the column: the first real token is still 1:1. *)

val next : t -> Token.t * Loc.t
(** The next token and its start location; returns {!Token.EOF} at the
    end of input and keeps returning it afterwards. *)

val tokens : file:string -> string -> (Token.t * Loc.t) array
(** The whole token stream as one batch-allocated array, ending with a
    single {!Token.EOF}, for {!Parser.parse_program_tokens}.
    {!Parser.parse_program} pulls from {!next} instead. *)

val tokenize : file:string -> string -> (Token.t * Loc.t) list
(** The whole token stream as a list, ending with a single
    {!Token.EOF}. [Array.to_list (tokens ~file src)]. *)

(** The previous option-based lexer, kept verbatim (plus the BOM and
    escape-location fixes shared with the table-driven path) as a
    differential oracle for the frontend-equivalence tests. *)
module Reference : sig
  val tokens : file:string -> string -> (Token.t * Loc.t) array
end
