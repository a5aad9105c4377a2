(* Chaos-fuzz harness: deterministic seeded source mutation over the
   corpus, asserting the analysis runtime's failure model.

   Every mutant of a corpus source must either analyze cleanly or yield
   a structured fault of an *expected* class — a [Frontend] diagnostic
   (the mutant is malformed) or a [Budget] exhaustion (the mutant is
   pathological). An [Internal] fault or a bare exception is a bug in
   nAdroid; a run past its per-mutant deadline is a liveness bug. The
   harness counts both as failures.

   Determinism: mutant [i] is produced from [Random.State.make [| seed;
   i |]], so a failing mutant can be regenerated from its index alone,
   independent of [--jobs] and of every other mutant. *)

module Fault = Nadroid_core.Fault
module Pipeline = Nadroid_core.Pipeline
module Clock = Nadroid_clock.Clock

(* -- seeded source mutation ---------------------------------------------- *)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || Char.equal c '_'

let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

(* Crude token spans: identifier/number runs and single punctuation
   bytes. Good enough to aim mutations at syntactic units. *)
let tokens (src : string) : (int * int) list =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    if is_ident_char src.[!i] then begin
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do
        incr j
      done;
      toks := (!i, !j - !i) :: !toks;
      i := !j
    end
    else begin
      (match src.[!i] with ' ' | '\n' | '\t' | '\r' -> () | _ -> toks := (!i, 1) :: !toks);
      incr i
    end
  done;
  List.rev !toks

let splice src ~start ~len replacement =
  String.sub src 0 start ^ replacement
  ^ String.sub src (start + len) (String.length src - start - len)

let pick rng xs =
  match xs with [] -> None | _ :: _ -> Some (List.nth xs (Random.State.int rng (List.length xs)))

let shuffle_string rng s =
  let b = Bytes.of_string s in
  for i = Bytes.length b - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = Bytes.get b i in
    Bytes.set b i (Bytes.get b j);
    Bytes.set b j t
  done;
  Bytes.to_string b

(* -- grammar-aware spans --------------------------------------------------- *)

(* Spans of complete simple statements ([...;] at a fixed brace depth),
   tracked per depth so statements nested inside anonymous-class bodies
   are found alongside the enclosing expression statement. String
   literals are skipped so braces and semicolons inside them don't
   confuse the depth counter. *)
let max_depth = 64

let statement_spans (src : string) : (int * int) list =
  let n = String.length src in
  let spans = ref [] in
  let depth = ref 0 in
  let in_str = ref false in
  let starts = Array.make max_depth (-1) in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    (if !in_str then begin
       if Char.equal c '\\' then incr i else if Char.equal c '"' then in_str := false
     end
     else
       match c with
       | '"' ->
           in_str := true;
           if !depth < max_depth && starts.(!depth) < 0 then starts.(!depth) <- !i
       | '{' ->
           incr depth;
           if !depth < max_depth then starts.(!depth) <- -1
       | '}' ->
           (* whatever was pending at this depth was a block header, not
              a simple statement *)
           if !depth >= 0 && !depth < max_depth then starts.(!depth) <- -1;
           decr depth
       | ';' ->
           if !depth >= 0 && !depth < max_depth && starts.(!depth) >= 0 then begin
             spans := (starts.(!depth), !i - starts.(!depth) + 1) :: !spans;
             starts.(!depth) <- -1
           end
       | ' ' | '\n' | '\t' | '\r' -> ()
       | _ -> if !depth >= 0 && !depth < max_depth && starts.(!depth) < 0 then starts.(!depth) <- !i);
    incr i
  done;
  List.rev !spans

(* Span from keyword [kw] at [start] through the matching close brace of
   the first block it opens; [None] when the braces never balance. *)
let block_span (src : string) ~start : (int * int) option =
  let n = String.length src in
  let i = ref start and depth = ref 0 and opened = ref false and stop = ref (-1) in
  let in_str = ref false in
  while !stop < 0 && !i < n do
    let c = src.[!i] in
    (if !in_str then begin
       if Char.equal c '\\' then incr i else if Char.equal c '"' then in_str := false
     end
     else
       match c with
       | '"' -> in_str := true
       | '{' ->
           opened := true;
           incr depth
       | '}' ->
           decr depth;
           if !opened && !depth = 0 then stop := !i
       | _ -> ());
    incr i
  done;
  if !stop < 0 then None else Some (start, !stop - start + 1)

(* A uniform pick among the pairs (a, b) of [spans] where [a] ends
   before [b] starts, listed [a]-major in span order: the pick
   [pick rng] makes from that list, with the same draw, without building
   the list, which is quadratic in the statements of an app (4.5 million
   pairs for 3,000 statements). *)
let pick_disjoint_pair rng (spans : (int * int) array) =
  let starts = Array.map fst spans in
  Array.sort compare starts;
  let n = Array.length spans in
  (* spans starting at or after [pos]: binary search in [starts] *)
  let starting_from pos =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if starts.(mid) < pos then lo := mid + 1 else hi := mid
    done;
    n - !lo
  in
  let after = Array.map (fun (s, l) -> starting_from (s + l)) spans in
  match Array.fold_left ( + ) 0 after with
  | 0 -> None
  | total ->
      let k = ref (Random.State.int rng total) and i = ref 0 in
      while !k >= after.(!i) do
        k := !k - after.(!i);
        incr i
      done;
      let s1, l1 = spans.(!i) in
      let j = ref 0 in
      while fst spans.(!j) < s1 + l1 || !k > 0 do
        if fst spans.(!j) >= s1 + l1 then decr k;
        incr j
      done;
      Some (spans.(!i), spans.(!j))

let keywords =
  [
    "class"; "extends"; "field"; "method"; "new"; "null"; "if"; "else"; "while"; "return";
    "void"; "int"; "this"; "true"; "false"; "synchronized";
  ]

(* Word-boundary replacement of every occurrence of [name]. *)
let rename_all (src : string) ~name ~repl : string =
  let n = String.length src and ln = String.length name in
  let buf = Buffer.create (n + 16) in
  let i = ref 0 in
  while !i < n do
    let bounded =
      !i + ln <= n
      && String.equal (String.sub src !i ln) name
      && (!i = 0 || not (is_ident_char src.[!i - 1]))
      && (!i + ln = n || not (is_ident_char src.[!i + ln]))
    in
    if bounded then begin
      Buffer.add_string buf repl;
      i := !i + ln
    end
    else begin
      Buffer.add_char buf src.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* Mutate a source; returns the mutant and a replayable description of
   the operation. The first five operations are byte-level (most mutants
   land as frontend diagnostics); the last four are grammar-aware —
   they move or remove whole syntactic units, so the mutant usually
   still parses and exercises the phases *behind* the parser. Falls back
   to truncation when the chosen operation has no eligible target. *)
let mutate (rng : Random.State.t) (src : string) : string * string =
  let truncate () =
    let pos = Random.State.int rng (String.length src + 1) in
    (String.sub src 0 pos, Printf.sprintf "truncate@%d" pos)
  in
  let keyword_spans kw =
    List.filter
      (fun (s, l) -> l = String.length kw && String.equal (String.sub src s l) kw)
      (tokens src)
  in
  if String.length src = 0 then (src, "empty")
  else
    match Random.State.int rng 10 with
    | 0 -> truncate ()
    | 1 -> (
        (* delete a token *)
        match pick rng (tokens src) with
        | Some (start, len) -> (splice src ~start ~len "", Printf.sprintf "del@%d+%d" start len)
        | None -> truncate ())
    | 2 -> (
        (* duplicate a token in place *)
        match pick rng (tokens src) with
        | Some (start, len) ->
            let tok = String.sub src start len in
            ( splice src ~start ~len (tok ^ " " ^ tok),
              Printf.sprintf "dup@%d+%d" start len )
        | None -> truncate ())
    | 3 -> (
        (* scramble one identifier occurrence *)
        let idents =
          List.filter (fun (s, l) -> l >= 2 && is_letter src.[s]) (tokens src)
        in
        match pick rng idents with
        | Some (start, len) ->
            (splice src ~start ~len (shuffle_string rng (String.sub src start len)),
             Printf.sprintf "scramble@%d+%d" start len)
        | None -> truncate ())
    | 4 -> (
        (* flip a brace/paren to a random other delimiter *)
        let delims =
          List.filter
            (fun (s, _) -> match src.[s] with '{' | '}' | '(' | ')' -> true | _ -> false)
            (tokens src)
        in
        match pick rng delims with
        | Some (start, _) ->
            let repl =
              match Random.State.int rng 4 with 0 -> "{" | 1 -> "}" | 2 -> "(" | _ -> ")"
            in
            (splice src ~start ~len:1 repl, Printf.sprintf "flip@%d:%s" start repl)
        | None -> truncate ())
    | 5 | 6 -> (
        (* swap two disjoint statements: reorders operations across
           callbacks without breaking the grammar *)
        match pick_disjoint_pair rng (Array.of_list (statement_spans src)) with
        | Some ((s1, l1), (s2, l2)) ->
            let a = String.sub src s1 l1 and b = String.sub src s2 l2 in
            let m = splice src ~start:s2 ~len:l2 a in
            (splice m ~start:s1 ~len:l1 b, Printf.sprintf "swap@%d+%d,%d+%d" s1 l1 s2 l2)
        | None -> truncate ())
    | 7 -> (
        (* rename one identifier consistently at word boundaries: the
           mutant parses; name resolution decides its fate *)
        let names =
          List.sort_uniq compare
            (List.filter_map
               (fun (s, l) ->
                 if l >= 2 && is_letter src.[s] then
                   let name = String.sub src s l in
                   if List.mem name keywords then None else Some name
                 else None)
               (tokens src))
        in
        match pick rng names with
        | Some name ->
            (rename_all src ~name ~repl:(name ^ "q"), Printf.sprintf "rename:%s" name)
        | None -> truncate ())
    | 8 -> (
        (* drop a whole method *)
        match pick rng (keyword_spans "method") with
        | Some (start, _) -> (
            match block_span src ~start with
            | Some (s, l) -> (splice src ~start:s ~len:l "", Printf.sprintf "dropmethod@%d+%d" s l)
            | None -> truncate ())
        | None -> truncate ())
    | _ -> (
        (* drop a whole class *)
        match pick rng (keyword_spans "class") with
        | Some (start, _) -> (
            match block_span src ~start with
            | Some (s, l) -> (splice src ~start:s ~len:l "", Printf.sprintf "dropclass@%d+%d" s l)
            | None -> truncate ())
        | None -> truncate ())

(* -- harness -------------------------------------------------------------- *)

type failure = {
  f_app : string;
  f_index : int;  (** mutant index: regenerate with the same seed *)
  f_op : string;
  f_what : string;  (** fault detail or overrun report *)
}

type summary = {
  s_mutants : int;
  s_clean : int;
  s_frontend : int;
  s_budget : int;
  s_uncaught : failure list;  (** internal faults / escaped exceptions *)
  s_overruns : failure list;  (** mutants that ran past the deadline *)
  s_elapsed : float;
}

let failed s = s.s_uncaught <> [] || s.s_overruns <> []

(* Default per-phase budgets for fuzzing. The PTA step ceiling is ~40x
   the largest full-corpus fixpoint (k=2), so real apps never degrade
   while a mutant whose points-to blows up is cut off deterministically;
   the wall-clock deadline backstops the remaining phases. *)
let default_pta_steps = 2_000_000

let fuzz_config ~deadline : Pipeline.config =
  {
    Pipeline.default_config with
    Pipeline.budgets =
      {
        Pipeline.pta_steps = Some default_pta_steps;
        pta_tuples = None;
        deadline = Some deadline;
      };
  }

let run ?jobs ?config ?(deadline = 10.0) ~seed ~mutants (apps : Corpus.app list) : summary =
  if apps = [] then invalid_arg "Chaos.run: empty app list";
  let config = match config with Some c -> c | None -> fuzz_config ~deadline in
  ignore (Lazy.force Nadroid_lang.Builtins.program);
  let t0 = Clock.now () in
  let napps = List.length apps in
  let one i =
    let app = List.nth apps (i mod napps) in
    let rng = Random.State.make [| seed; i |] in
    let mutant, op = mutate rng app.Corpus.source in
    let m0 = Clock.now () in
    let r =
      Fault.wrap (fun () ->
          Nadroid_core.Pipeline.analyze ~config
            ~file:(Printf.sprintf "%s#%d" app.Corpus.name i)
            mutant)
    in
    let elapsed = Clock.now () -. m0 in
    (app.Corpus.name, i, op, r, elapsed)
  in
  let results =
    List.map
      (function Ok r -> r | Error e -> raise e)
      (Nadroid_core.Parallel.map_result ?jobs one (List.init mutants Fun.id))
  in
  let summary =
    List.fold_left
      (fun s (name, i, op, r, elapsed) ->
        let s =
          if elapsed > deadline then
            {
              s with
              s_overruns =
                {
                  f_app = name;
                  f_index = i;
                  f_op = op;
                  f_what = Printf.sprintf "ran %.2fs against a %.2fs deadline" elapsed deadline;
                }
                :: s.s_overruns;
            }
          else s
        in
        match r with
        | Ok (_ : Pipeline.t) -> { s with s_clean = s.s_clean + 1 }
        | Error (Fault.Frontend _) -> { s with s_frontend = s.s_frontend + 1 }
        | Error (Fault.Budget _) -> { s with s_budget = s.s_budget + 1 }
        | Error (Fault.Internal _ as f) ->
            {
              s with
              s_uncaught =
                { f_app = name; f_index = i; f_op = op; f_what = Fault.to_string f }
                :: s.s_uncaught;
            })
      {
        s_mutants = mutants;
        s_clean = 0;
        s_frontend = 0;
        s_budget = 0;
        s_uncaught = [];
        s_overruns = [];
        s_elapsed = 0.0;
      }
      results
  in
  {
    summary with
    s_elapsed = Clock.now () -. t0;
    s_uncaught = List.rev summary.s_uncaught;
    s_overruns = List.rev summary.s_overruns;
  }

let pp_failure ppf f =
  Fmt.pf ppf "mutant #%d of %s (%s): %s" f.f_index f.f_app f.f_op f.f_what

let parse_clean_pct s =
  if s.s_mutants = 0 then 0.0
  else 100.0 *. float_of_int (s.s_mutants - s.s_frontend) /. float_of_int s.s_mutants

let pp_summary ppf s =
  Fmt.pf ppf
    "fuzzed %d mutant(s) in %.1fs: %d clean, %d frontend diagnostic(s), %d budget \
     (%.1f%% parse-clean)@\n"
    s.s_mutants s.s_elapsed s.s_clean s.s_frontend s.s_budget (parse_clean_pct s);
  List.iter (fun f -> Fmt.pf ppf "UNCAUGHT  %a@\n" pp_failure f) s.s_uncaught;
  List.iter (fun f -> Fmt.pf ppf "OVERRUN   %a@\n" pp_failure f) s.s_overruns;
  if failed s then
    Fmt.pf ppf "FAILED: %d uncaught, %d overrun@\n" (List.length s.s_uncaught)
      (List.length s.s_overruns)
  else Fmt.pf ppf "OK: no uncaught exceptions, no deadline overruns@\n"
