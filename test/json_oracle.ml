(* The per-character JSON string decoder that Protocol's run-copying
   one replaced, kept as the oracle for it: on any input starting with
   a quote, [parse_json] below must return what [Protocol.parse_json]
   returns, decoded string or error message alike. *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let utf8_of_scalar buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

type parser_state = { s : string; mutable pos : int }

let peek p = if p.pos < String.length p.s then Some p.s.[p.pos] else None

let advance p = p.pos <- p.pos + 1

let rec skip_ws p =
  match peek p with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance p;
      skip_ws p
  | _ -> ()

let expect p c =
  match peek p with
  | Some c' when c' = c -> advance p
  | Some c' -> fail "expected '%c' at offset %d, found '%c'" c p.pos c'
  | None -> fail "expected '%c' at offset %d, found end of input" c p.pos

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | c -> fail "bad hex digit '%c'" c

let parse_hex4 p =
  if p.pos + 4 > String.length p.s then fail "truncated \\u escape";
  let v =
    (hex_digit p.s.[p.pos] lsl 12)
    lor (hex_digit p.s.[p.pos + 1] lsl 8)
    lor (hex_digit p.s.[p.pos + 2] lsl 4)
    lor hex_digit p.s.[p.pos + 3]
  in
  p.pos <- p.pos + 4;
  v

let parse_string p =
  expect p '"';
  let buf = Buffer.create 32 in
  let rec loop () =
    match peek p with
    | None -> fail "unterminated string"
    | Some '"' -> advance p
    | Some '\\' ->
        advance p;
        (match peek p with
        | None -> fail "unterminated escape"
        | Some c ->
            advance p;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let hi = parse_hex4 p in
                if hi >= 0xD800 && hi <= 0xDBFF then begin
                  expect p '\\';
                  expect p 'u';
                  let lo = parse_hex4 p in
                  if lo < 0xDC00 || lo > 0xDFFF then fail "lone high surrogate \\u%04X" hi;
                  utf8_of_scalar buf (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
                end
                else if hi >= 0xDC00 && hi <= 0xDFFF then fail "lone low surrogate \\u%04X" hi
                else utf8_of_scalar buf hi
            | c -> fail "bad escape '\\%c'" c));
        loop ()
    | Some c ->
        advance p;
        Buffer.add_char buf c;
        loop ()
  in
  loop ();
  Buffer.contents buf

(* [Protocol.parse_json] on a document that starts with a quote. *)
let parse_json s : (string, string) result =
  let p = { s; pos = 0 } in
  match parse_string p with
  | v ->
      skip_ws p;
      if p.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" p.pos)
      else Ok v
  | exception Parse_error e -> Error e
