(* Table-driven lexer for MiniAndroid.

   The lexer works on a whole in-memory string (corpus apps are embedded
   sources), tracks line/column positions for diagnostics, and skips both
   [//] line comments and non-nesting [/* */] block comments.

   The hot path dispatches on a 256-entry character-class table instead
   of nested [peek]/[peek2] option matches: classifying a byte is one
   array read and the per-class code paths touch the source with
   [String.unsafe_get] under an explicit bounds check, so no [Some c]
   is ever boxed while scanning. The previous option-based implementation
   is kept verbatim as {!Reference} — a differential oracle for the
   frontend-equivalence tests.

   A leading UTF-8 byte-order mark is skipped by {!create}: editors that
   emit one would otherwise make the very first token fail with an
   "unexpected character" at 1:1. *)

type t = {
  src : string;
  file : string;
  mutable pos : int;  (* byte offset into [src] *)
  mutable line : int;
  mutable col : int;
}

let has_bom src =
  String.length src >= 3 && src.[0] = '\xEF' && src.[1] = '\xBB' && src.[2] = '\xBF'

let create ~file src =
  (* a BOM is encoding metadata, not source: skip it without charging
     the column so the first real token still reports 1:1 *)
  { src; file; pos = (if has_bom src then 3 else 0); line = 1; col = 1 }

let loc lx = Loc.make ~file:lx.file ~line:lx.line ~col:lx.col

let at_end lx = lx.pos >= String.length lx.src

(* -- the dispatch table ------------------------------------------------- *)

(* Character classes; the per-byte table below maps every byte to one.
   [Cpunct] covers the single-byte tokens, [Cop] the [=]/[!]/[<]/[>]
   family whose meaning depends on a following [=]. *)
type cclass =
  | Cother
  | Cws  (* space, tab, carriage return *)
  | Cnl  (* newline *)
  | Cdigit
  | Calpha  (* letters, [_], [$] *)
  | Cquote
  | Cslash  (* [/]: comment opener or division *)
  | Cpunct
  | Cop
  | Camp
  | Cbar

let classes : cclass array =
  let table = Array.make 256 Cother in
  let set c v = table.(Char.code c) <- v in
  set ' ' Cws;
  set '\t' Cws;
  set '\r' Cws;
  set '\n' Cnl;
  for c = Char.code '0' to Char.code '9' do
    table.(c) <- Cdigit
  done;
  for c = Char.code 'a' to Char.code 'z' do
    table.(c) <- Calpha
  done;
  for c = Char.code 'A' to Char.code 'Z' do
    table.(c) <- Calpha
  done;
  set '_' Calpha;
  set '$' Calpha;
  set '"' Cquote;
  set '/' Cslash;
  List.iter
    (fun c -> set c Cpunct)
    [ '{'; '}'; '('; ')'; ';'; ','; '.'; '+'; '-'; '*'; '%' ];
  set '=' Cop;
  set '!' Cop;
  set '<' Cop;
  set '>' Cop;
  set '&' Camp;
  set '|' Cbar;
  table

(* Single-byte tokens, indexed by byte; only meaningful for [Cpunct]. *)
let punct : Token.t array =
  let table = Array.make 256 Token.EOF in
  List.iter
    (fun (c, t) -> table.(Char.code c) <- t)
    [
      ('{', Token.LBRACE);
      ('}', Token.RBRACE);
      ('(', Token.LPAREN);
      (')', Token.RPAREN);
      (';', Token.SEMI);
      (',', Token.COMMA);
      ('.', Token.DOT);
      ('+', Token.PLUS);
      ('-', Token.MINUS);
      ('*', Token.STAR);
      ('%', Token.PERCENT);
    ];
  table

let[@inline] classify c = Array.unsafe_get classes (Char.code c)

(* -- scanning helpers --------------------------------------------------- *)

(* Consume one byte known not to be a newline. *)
let[@inline] bump lx =
  lx.pos <- lx.pos + 1;
  lx.col <- lx.col + 1

let[@inline] bump_nl lx =
  lx.pos <- lx.pos + 1;
  lx.line <- lx.line + 1;
  lx.col <- 1

let rec skip_trivia lx =
  let n = String.length lx.src in
  if lx.pos < n then
    let c = String.unsafe_get lx.src lx.pos in
    match classify c with
    | Cws ->
        bump lx;
        skip_trivia lx
    | Cnl ->
        bump_nl lx;
        skip_trivia lx
    | Cslash when lx.pos + 1 < n -> (
        match String.unsafe_get lx.src (lx.pos + 1) with
        | '/' ->
            while lx.pos < n && String.unsafe_get lx.src lx.pos <> '\n' do
              bump lx
            done;
            skip_trivia lx
        | '*' ->
            let start = loc lx in
            bump lx;
            bump lx;
            skip_block_comment lx start;
            skip_trivia lx
        | _ -> ())
    | Cother | Cdigit | Calpha | Cquote | Cslash | Cpunct | Cop | Camp | Cbar -> ()

and skip_block_comment lx start =
  let n = String.length lx.src in
  let rec go () =
    if lx.pos >= n then Diag.error ~loc:start "unterminated block comment"
    else
      match String.unsafe_get lx.src lx.pos with
      | '*' when lx.pos + 1 < n && String.unsafe_get lx.src (lx.pos + 1) = '/' ->
          bump lx;
          bump lx
      | '\n' ->
          bump_nl lx;
          go ()
      | _ ->
          bump lx;
          go ()
  in
  go ()

let lex_ident lx =
  let n = String.length lx.src in
  let start = lx.pos in
  while
    lx.pos < n
    &&
    match classify (String.unsafe_get lx.src lx.pos) with
    | Calpha | Cdigit -> true
    | Cother | Cws | Cnl | Cquote | Cslash | Cpunct | Cop | Camp | Cbar -> false
  do
    bump lx
  done;
  String.sub lx.src start (lx.pos - start)

let lex_int lx l =
  let n = String.length lx.src in
  let start = lx.pos in
  while
    lx.pos < n
    &&
    let c = String.unsafe_get lx.src lx.pos in
    c >= '0' && c <= '9'
  do
    bump lx
  done;
  let s = String.sub lx.src start (lx.pos - start) in
  match int_of_string_opt s with
  | Some v -> Token.INT v
  | None -> Diag.error ~loc:l "integer literal out of range: %s" s

let lex_string lx l =
  bump lx;
  (* opening quote *)
  let n = String.length lx.src in
  let buf = Buffer.create 16 in
  let rec go () =
    if lx.pos >= n then Diag.error ~loc:l "unterminated string literal"
    else
      match String.unsafe_get lx.src lx.pos with
      | '"' -> bump lx
      | '\\' ->
          (* the diagnostic must point at the backslash that opens the
             escape, so capture the location before consuming it *)
          let esc_loc = loc lx in
          bump lx;
          if lx.pos >= n then Diag.error ~loc:l "unterminated string literal"
          else begin
            (match String.unsafe_get lx.src lx.pos with
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | c -> Diag.error ~loc:esc_loc "invalid escape sequence: \\%c" c);
            bump lx;
            go ()
          end
      | '\n' ->
          Buffer.add_char buf '\n';
          bump_nl lx;
          go ()
      | c ->
          Buffer.add_char buf c;
          bump lx;
          go ()
  in
  go ();
  Token.STRING (Buffer.contents buf)

(* Returns the next token together with its start location. *)
let next lx : Token.t * Loc.t =
  skip_trivia lx;
  let l = loc lx in
  if at_end lx then (Token.EOF, l)
  else
    let c = String.unsafe_get lx.src lx.pos in
    match classify c with
    | Cdigit -> (lex_int lx l, l)
    | Cquote -> (lex_string lx l, l)
    | Calpha ->
        let s = lex_ident lx in
        let tok =
          match Token.keyword_of_string s with
          | Some kw -> kw
          | None -> if s.[0] >= 'A' && s.[0] <= 'Z' then Token.UIDENT s else Token.IDENT s
        in
        (tok, l)
    | Cpunct ->
        bump lx;
        (Array.unsafe_get punct (Char.code c), l)
    | Cslash ->
        (* a [//] or [/*] here was already consumed by [skip_trivia] *)
        bump lx;
        (Token.SLASH, l)
    | Cop ->
        let eq_follows =
          lx.pos + 1 < String.length lx.src && String.unsafe_get lx.src (lx.pos + 1) = '='
        in
        if eq_follows then begin
          bump lx;
          bump lx;
          ( (match c with
            | '=' -> Token.EQ
            | '!' -> Token.NE
            | '<' -> Token.LE
            | _ -> Token.GE),
            l )
        end
        else begin
          bump lx;
          ( (match c with
            | '=' -> Token.ASSIGN
            | '!' -> Token.BANG
            | '<' -> Token.LT
            | _ -> Token.GT),
            l )
        end
    | Camp | Cbar ->
        let doubled =
          lx.pos + 1 < String.length lx.src && String.unsafe_get lx.src (lx.pos + 1) = c
        in
        if doubled then begin
          bump lx;
          bump lx;
          ((if c = '&' then Token.ANDAND else Token.OROR), l)
        end
        else Diag.error ~loc:l "unexpected character %C (did you mean %c%c?)" c c c
    | Cws | Cnl | Cother -> Diag.error ~loc:l "unexpected character %C" c

(* -- whole-stream entry points ------------------------------------------ *)

(* The growable buffer's filler. [Array.make] past the minor heap's
   size limit with a young fill value forces a minor collection (the
   runtime will not let a fresh major array point into the minor heap),
   so the filler is allocated once, not per call. *)
let fill = (Token.EOF, Loc.dummy)

(* Tokenize a whole source into one batch-allocated buffer. Tokens land
   in a growable array (geometric doubling, seeded from the source size
   at roughly one token per six bytes of MiniAndroid) instead of a cons
   cell per token. *)
let tokens ~file src : (Token.t * Loc.t) array =
  let lx = create ~file src in
  let buf = ref (Array.make (max 64 (String.length src / 6)) fill) in
  let len = ref 0 in
  let push tl =
    if !len = Array.length !buf then begin
      let bigger = Array.make (2 * Array.length !buf) fill in
      Array.blit !buf 0 bigger 0 !len;
      buf := bigger
    end;
    Array.unsafe_set !buf !len tl;
    incr len
  in
  let rec go () =
    let ((tok, _) as tl) = next lx in
    push tl;
    match tok with Token.EOF -> () | _ -> go ()
  in
  go ();
  Array.sub !buf 0 !len

(* Tokenize a whole source string; used by tests. *)
let tokenize ~file src = Array.to_list (tokens ~file src)

(* -- reference implementation ------------------------------------------- *)

(* The pre-table-driven lexer, kept as a differential oracle: the
   frontend-equivalence tests assert its token stream (and everything
   downstream of it) is identical to the table-driven one on arbitrary
   inputs. Behavioural fixes (BOM skip, escape-diagnostic location)
   apply to both implementations so the only difference under test is
   the dispatch strategy. *)
module Reference = struct
  let create ~file src =
    { src; file; pos = (if has_bom src then 3 else 0); line = 1; col = 1 }

  let peek lx = if at_end lx then None else Some lx.src.[lx.pos]

  let peek2 lx = if lx.pos + 1 >= String.length lx.src then None else Some lx.src.[lx.pos + 1]

  let advance lx =
    (match peek lx with
    | Some '\n' ->
        lx.line <- lx.line + 1;
        lx.col <- 1
    | Some _ -> lx.col <- lx.col + 1
    | None -> ());
    lx.pos <- lx.pos + 1

  let is_digit c = c >= '0' && c <= '9'
  let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'
  let is_ident_char c = is_alpha c || is_digit c

  let rec skip_trivia lx =
    match peek lx with
    | Some (' ' | '\t' | '\r' | '\n') ->
        advance lx;
        skip_trivia lx
    | Some '/' -> (
        match peek2 lx with
        | Some '/' ->
            while (not (at_end lx)) && peek lx <> Some '\n' do
              advance lx
            done;
            skip_trivia lx
        | Some '*' ->
            let start = loc lx in
            advance lx;
            advance lx;
            skip_block_comment lx start;
            skip_trivia lx
        | Some _ | None -> ())
    | Some _ | None -> ()

  and skip_block_comment lx start =
    match (peek lx, peek2 lx) with
    | Some '*', Some '/' ->
        advance lx;
        advance lx
    | Some _, _ ->
        advance lx;
        skip_block_comment lx start
    | None, _ -> Diag.error ~loc:start "unterminated block comment"

  let lex_ident lx =
    let start = lx.pos in
    while (match peek lx with Some c -> is_ident_char c | None -> false) do
      advance lx
    done;
    String.sub lx.src start (lx.pos - start)

  let lex_int lx l =
    let start = lx.pos in
    while (match peek lx with Some c -> is_digit c | None -> false) do
      advance lx
    done;
    let s = String.sub lx.src start (lx.pos - start) in
    match int_of_string_opt s with
    | Some n -> Token.INT n
    | None -> Diag.error ~loc:l "integer literal out of range: %s" s

  let lex_string lx l =
    advance lx;
    (* opening quote *)
    let buf = Buffer.create 16 in
    let rec go () =
      match peek lx with
      | None -> Diag.error ~loc:l "unterminated string literal"
      | Some '"' -> advance lx
      | Some '\\' -> (
          let esc_loc = loc lx in
          advance lx;
          match peek lx with
          | Some 'n' ->
              Buffer.add_char buf '\n';
              advance lx;
              go ()
          | Some 't' ->
              Buffer.add_char buf '\t';
              advance lx;
              go ()
          | Some ('"' | '\\') ->
              Buffer.add_char buf lx.src.[lx.pos];
              advance lx;
              go ()
          | Some c -> Diag.error ~loc:esc_loc "invalid escape sequence: \\%c" c
          | None -> Diag.error ~loc:l "unterminated string literal")
      | Some c ->
          Buffer.add_char buf c;
          advance lx;
          go ()
    in
    go ();
    Token.STRING (Buffer.contents buf)

  let next lx : Token.t * Loc.t =
    skip_trivia lx;
    let l = loc lx in
    match peek lx with
    | None -> (Token.EOF, l)
    | Some c when is_digit c -> (lex_int lx l, l)
    | Some '"' -> (lex_string lx l, l)
    | Some c when is_alpha c ->
        let s = lex_ident lx in
        let tok =
          match Token.keyword_of_string s with
          | Some kw -> kw
          | None -> if s.[0] >= 'A' && s.[0] <= 'Z' then Token.UIDENT s else Token.IDENT s
        in
        (tok, l)
    | Some c ->
        let two t =
          advance lx;
          advance lx;
          (t, l)
        in
        let one t =
          advance lx;
          (t, l)
        in
        (match (c, peek2 lx) with
        | '=', Some '=' -> two Token.EQ
        | '=', _ -> one Token.ASSIGN
        | '!', Some '=' -> two Token.NE
        | '!', _ -> one Token.BANG
        | '<', Some '=' -> two Token.LE
        | '<', _ -> one Token.LT
        | '>', Some '=' -> two Token.GE
        | '>', _ -> one Token.GT
        | '&', Some '&' -> two Token.ANDAND
        | '|', Some '|' -> two Token.OROR
        | '{', _ -> one Token.LBRACE
        | '}', _ -> one Token.RBRACE
        | '(', _ -> one Token.LPAREN
        | ')', _ -> one Token.RPAREN
        | ';', _ -> one Token.SEMI
        | ',', _ -> one Token.COMMA
        | '.', _ -> one Token.DOT
        | '+', _ -> one Token.PLUS
        | '-', _ -> one Token.MINUS
        | '*', _ -> one Token.STAR
        | '/', _ -> one Token.SLASH
        | '%', _ -> one Token.PERCENT
        | ('&' | '|'), _ -> Diag.error ~loc:l "unexpected character %C (did you mean %c%c?)" c c c
        | _, _ -> Diag.error ~loc:l "unexpected character %C" c)

  let tokens ~file src : (Token.t * Loc.t) array =
    let lx = create ~file src in
    let rec go acc =
      let ((tok, _) as tl) = next lx in
      match tok with Token.EOF -> List.rev (tl :: acc) | _ -> go (tl :: acc)
    in
    Array.of_list (go [])
end
