(* The newline-JSON wire protocol of `nadroid serve`.

   The repo carries no JSON dependency — output everywhere is built with
   Printf — so the protocol brings its own small value type and
   recursive-descent parser rather than growing one. The response
   builders here are shared with `nadroid analyze --json`: the daemon
   and the cold CLI render through the same functions, which is what
   makes "daemon responses are byte-identical to cold runs" a property
   of the code shape instead of a test we hope keeps passing. *)

module Cache = Nadroid_core.Cache
module Pipeline = Nadroid_core.Pipeline
module Report = Nadroid_core.Report
module Fault = Nadroid_core.Fault

(* -- JSON values --------------------------------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* Encode a Unicode scalar value as UTF-8 (for \uXXXX escapes). *)
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
                  (* surrogate pair: a low surrogate must follow *)
                  expect p '\\';
                  expect p 'u';
                  let lo = parse_hex4 p in
                  if lo < 0xDC00 || lo > 0xDFFF then
                    fail "lone high surrogate \\u%04X" hi;
                  utf8_of_scalar buf
                    (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
                end
                else if hi >= 0xDC00 && hi <= 0xDFFF then
                  fail "lone low surrogate \\u%04X" hi
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

let parse_number p =
  let start = p.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek p with Some c -> is_num_char c | None -> false) do
    advance p
  done;
  let lit = String.sub p.s start (p.pos - start) in
  match float_of_string_opt lit with
  | Some f -> f
  | None -> fail "bad number %S at offset %d" lit start

let parse_literal p lit v =
  let n = String.length lit in
  if p.pos + n <= String.length p.s && String.sub p.s p.pos n = lit then begin
    p.pos <- p.pos + n;
    v
  end
  else fail "bad literal at offset %d" p.pos

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> fail "unexpected end of input"
  | Some '"' -> Str (parse_string p)
  | Some '{' ->
      advance p;
      skip_ws p;
      if peek p = Some '}' then begin
        advance p;
        Obj []
      end
      else
        let rec fields acc =
          skip_ws p;
          let k = parse_string p in
          skip_ws p;
          expect p ':';
          let v = parse_value p in
          skip_ws p;
          match peek p with
          | Some ',' ->
              advance p;
              fields ((k, v) :: acc)
          | Some '}' ->
              advance p;
              Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}' at offset %d" p.pos
        in
        fields []
  | Some '[' ->
      advance p;
      skip_ws p;
      if peek p = Some ']' then begin
        advance p;
        Arr []
      end
      else
        let rec elems acc =
          let v = parse_value p in
          skip_ws p;
          match peek p with
          | Some ',' ->
              advance p;
              elems (v :: acc)
          | Some ']' ->
              advance p;
              Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']' at offset %d" p.pos
        in
        elems []
  | Some 't' -> parse_literal p "true" (Bool true)
  | Some 'f' -> parse_literal p "false" (Bool false)
  | Some 'n' -> parse_literal p "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number p)
  | Some c -> fail "unexpected '%c' at offset %d" c p.pos

let parse_json s =
  let p = { s; pos = 0 } in
  match parse_value p with
  | v ->
      skip_ws p;
      if p.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" p.pos)
      else Ok v
  | exception Parse_error e -> Error e

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\000' .. '\031' ->
          Buffer.add_string buf (Printf.sprintf "\\u%04X" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

(* -- requests ------------------------------------------------------------ *)

type analyze = {
  a_path : string option;
  a_source : string option;
  a_file : string option;
  a_k : int option;
  a_sound_only : bool;
  a_deadline : float option;
  a_budget_pta : int option;
  a_budget_tuples : int option;
  a_cache : bool option;
}

type request = Ping | Shutdown | Analyze of analyze

exception Bad_request of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_request s)) fmt

let opt_field j k decode =
  match member k j with
  | None | Some Null -> None
  | Some v -> Some (decode k v)

let as_string k = function
  | Str s -> s
  | _ -> bad "field %S must be a string" k

let as_int k = function
  | Num f when Float.is_integer f -> int_of_float f
  | _ -> bad "field %S must be an integer" k

let as_float k = function Num f -> f | _ -> bad "field %S must be a number" k

let as_bool k = function Bool b -> b | _ -> bad "field %S must be a boolean" k

let parse_analyze j =
  let a =
    {
      a_path = opt_field j "path" as_string;
      a_source = opt_field j "source" as_string;
      a_file = opt_field j "file" as_string;
      a_k = opt_field j "k" as_int;
      a_sound_only =
        Option.value ~default:false (opt_field j "sound_only" as_bool);
      a_deadline = opt_field j "deadline" as_float;
      a_budget_pta = opt_field j "budget_pta" as_int;
      a_budget_tuples = opt_field j "budget_tuples" as_int;
      a_cache = opt_field j "cache" as_bool;
    }
  in
  (match (a.a_path, a.a_source) with
  | None, None -> bad "analyze needs a \"path\" or a \"source\""
  | Some _, Some _ -> bad "analyze takes \"path\" or \"source\", not both"
  | _ -> ());
  a

let parse_request line =
  match parse_json line with
  | Error e -> Error (Printf.sprintf "bad JSON: %s" e)
  | Ok j -> (
      match
        match member "op" j with
        | Some (Str "ping") -> Ping
        | Some (Str "shutdown") -> Shutdown
        | Some (Str "analyze") -> Analyze (parse_analyze j)
        | Some (Str op) -> bad "unknown op %S" op
        | Some _ -> bad "field \"op\" must be a string"
        | None -> bad "request needs an \"op\" field"
      with
      | req -> Ok req
      | exception Bad_request e -> Error e)

let float_lit f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let render_analyze a =
  let fields =
    List.filter_map Fun.id
      [
        Some "\"op\":\"analyze\"";
        Option.map (fun p -> "\"path\":" ^ escape_string p) a.a_path;
        Option.map (fun s -> "\"source\":" ^ escape_string s) a.a_source;
        Option.map (fun f -> "\"file\":" ^ escape_string f) a.a_file;
        Option.map (Printf.sprintf "\"k\":%d") a.a_k;
        (if a.a_sound_only then Some "\"sound_only\":true" else None);
        Option.map (fun d -> "\"deadline\":" ^ float_lit d) a.a_deadline;
        Option.map (Printf.sprintf "\"budget_pta\":%d") a.a_budget_pta;
        Option.map (Printf.sprintf "\"budget_tuples\":%d") a.a_budget_tuples;
        Option.map (Printf.sprintf "\"cache\":%b") a.a_cache;
      ]
  in
  "{" ^ String.concat "," fields ^ "}"

let ping_request = "{\"op\":\"ping\"}"

let shutdown_request = "{\"op\":\"shutdown\"}"

(* -- responses ----------------------------------------------------------- *)

let entry_json ~name (e : Cache.entry) =
  let degraded =
    List.map
      (fun d -> escape_string (Pipeline.degradation_to_string d))
      e.Cache.e_metrics.Pipeline.m_degraded
  in
  Printf.sprintf
    "{\"name\":%s,\"potential\":%d,\"sound\":%d,\"unsound\":%d,\"degraded\":[%s],\"report\":%s}"
    (escape_string name) e.Cache.e_potential e.Cache.e_after_sound
    e.Cache.e_after_unsound
    (String.concat "," degraded)
    (escape_string e.Cache.e_report)

let batch_json ~files ~apps ~faults =
  Printf.sprintf "{\"files\":%d,\"apps\":[%s],\"faults\":[%s]}" files
    (String.concat "," apps)
    (String.concat "," faults)

let analyze_response ~name = function
  | Ok entry -> batch_json ~files:1 ~apps:[ entry_json ~name entry ] ~faults:[]
  | Error fault ->
      batch_json ~files:1 ~apps:[] ~faults:[ Report.fault_to_json ~name fault ]

let ok_response ~draining =
  if draining then "{\"ok\":true,\"draining\":true}" else "{\"ok\":true}"

let error_response msg =
  Printf.sprintf "{\"error\":%s,\"exit\":2}" (escape_string msg)

let response_exit line =
  match parse_json line with
  | Error _ -> 2
  | Ok j -> (
      match member "error" j with
      | Some _ -> (
          match member "exit" j with Some (Num f) -> int_of_float f | _ -> 2)
      | None -> (
          match member "faults" j with
          | Some (Arr faults) ->
              List.fold_left
                (fun acc f ->
                  match member "exit" f with
                  | Some (Num e) -> max acc (int_of_float e)
                  | _ -> acc)
                0 faults
          | _ -> 0))
