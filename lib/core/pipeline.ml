(* The end-to-end nAdroid pipeline (Fig. 2):

     source --(frontend)--> program --(threadification §4)--> threads
            --(detection §5)--> potential UAFs
            --(sound filters §6.1)--> --(unsound filters §6.2)--> report

   Timings for the three phases (modeling / detection / filtering) are
   recorded to reproduce the §8.8 breakdown. *)

open Nadroid_lang
open Nadroid_ir
open Nadroid_analysis
module Clock = Nadroid_clock.Clock

(* Per-phase resource budgets. [pta_steps] is deterministic (instruction
   transfers); [pta_tuples] is a memory ceiling on live relation
   cardinality (points-to table and the detection join's Datalog
   database); [deadline] is wall-clock seconds for the whole analysis,
   enforced in-flight — inside the PTA worklist, thread-forest
   expansion, detection, and the per-warning filter loops — so an
   expired deadline cancels the running phase instead of waiting for a
   phase boundary. *)
type budgets = {
  pta_steps : int option;
  pta_tuples : int option;
  deadline : float option;
}

let no_budgets = { pta_steps = None; pta_tuples = None; deadline = None }

type config = {
  k : int;  (** k-object-sensitivity depth (paper default: 2) *)
  sound : Filters.name list;
  unsound : Filters.name list;
  atomic_ig : bool;  (** false = DEvA-style unsound IG/IA *)
  budgets : budgets;
  solver : Pta.solver;  (** points-to fixpoint strategy *)
}

let default_config =
  {
    k = 2;
    sound = Filters.sound;
    unsound = Filters.unsound;
    atomic_ig = true;
    budgets = no_budgets;
    solver = Pta.Worklist;
  }

let sound_only_config = { default_config with unsound = [] }

(* A recorded sound degradation: the analysis completed, but with less
   precision (never less coverage) than asked for — the warning set can
   only grow. *)
type degradation =
  | D_pta_k of int  (** points-to fell back from [config.k] to this k *)
  | D_filters_skipped of Filters.name list  (** starved filters skipped *)

let degradation_to_string = function
  | D_pta_k k -> Fmt.str "pta-k=%d" k
  | D_filters_skipped names ->
      Fmt.str "filters-skipped=%s"
        (String.concat "+" (List.map Filters.name_to_string names))

type timings = { t_modeling : float; t_detection : float; t_filtering : float }

(* A batch-shared interning table for the detection join's Datalog
   engine (see {!Nadroid_datalog.Engine.create}). One table per batch
   hash-conses the common strings — field keys, race atoms — once
   instead of once per app; sharing never changes results. *)
type interner = Nadroid_datalog.Symbol.t

let create_interner () : interner = Nadroid_datalog.Symbol.create ()

(* Per-phase wall times plus per-filter prune counts. Every timed region
   of [analyze_prog] is attributed to exactly one field, so the phase
   times sum to the measured wall time (up to the record plumbing between
   clock reads) — the §8.8 breakdown invariant. All deadline
   arithmetic and duration measurement uses the monotonic clock
   ({!Clock.now}): a wall-clock step in a long-lived process must never
   fire or starve a deadline. *)
type metrics = {
  m_frontend_parse : float;  (** lexing and parsing (the parser pulls from the lexer) *)
  m_frontend_sema : float;  (** name/type resolution *)
  m_frontend_lower : float;  (** lowering to the CFG IR *)
  m_pta : float;  (** points-to analysis *)
  m_aux : float;  (** escape + lockset analyses *)
  m_threadify : float;  (** forest construction (= modeling) *)
  m_detect : float;  (** access collection + candidate join *)
  m_ctx : float;  (** filter-context (guards / component map) construction *)
  m_filter : float;  (** sound + unsound filter application *)
  m_wall : float;  (** wall time of the whole analysis *)
  m_pta_visits : int;
      (** method-instance bodies the points-to solver executed — the
          worklist's saving over the reference solver, wall-clock aside *)
  m_pta_steps : int;  (** instruction transfers the solver executed *)
  m_pta_tuples : int;
      (** live points-to tuples the solver stored; 0 when no tuple
          ceiling was set (unbudgeted runs skip the accounting) *)
  m_pruned : (Filters.name * int) list;
      (** (warning, pair) combinations pruned, credited per filter *)
  m_degraded : degradation list;  (** empty = full-precision run *)
}

let frontend_sum m = m.m_frontend_parse +. m.m_frontend_sema +. m.m_frontend_lower

let phase_sum m =
  frontend_sum m +. m.m_pta +. m.m_aux +. m.m_threadify +. m.m_detect +. m.m_ctx +. m.m_filter

(* The paper's three-phase split, §8.8: the dominant points-to cost is
   attributed to detection; context construction is filtering work. *)
let timings_of_metrics m =
  {
    t_modeling = m.m_threadify;
    t_detection = m.m_pta +. m.m_aux +. m.m_detect;
    t_filtering = m.m_ctx +. m.m_filter;
  }

type t = {
  prog : Prog.t;
  pta : Pta.t;
  esc : Escape.t;
  locks : Lockset.t;
  threads : Threadify.t;
  ctx : Filters.ctx;
  potential : Detect.warning list;
  after_sound : Detect.warning list;
  after_unsound : Detect.warning list;
  timings : timings;
  metrics : metrics;
  config : config;
}

let time f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.now () -. t0)

(* Run the points-to analysis under the configured bounds — step budget,
   tuple ceiling, and the absolute wall-clock deadline, any of which may
   cancel the solve in flight. When a bound is hit at the requested k,
   fall back down the context ladder k-1, ..., 0: merging contexts means
   more aliasing, i.e. a sound over-approximation (more warnings), and a
   far cheaper fixpoint. (After a deadline expiry each retry dies within
   ~1024 transfers, so the descent itself is bounded.) Only when even
   the context-insensitive run starves do we give up with a [Budget]
   fault. *)
let run_pta config ~tuples ~deadline prog : Pta.t * degradation list =
  match (config.budgets.pta_steps, tuples, deadline) with
  | None, None, None -> (Pta.run ~solver:config.solver ~k:config.k prog, [])
  | steps, tuples, deadline ->
      let rec ladder k =
        match Pta.run_budgeted ?steps ?tuples ?deadline ~solver:config.solver ~k prog with
        | Some pta -> (pta, if k = config.k then [] else [ D_pta_k k ])
        | None ->
            if k > 0 then ladder (k - 1)
            else raise (Fault.Fault (Fault.Budget Fault.P_pta))
      in
      ladder config.k

(* Frontend phase times, as measured by {!analyze}; zero when a caller
   enters at {!analyze_prog} with an already-built program. *)
type frontend_times = { ft_parse : float; ft_sema : float; ft_lower : float }

let no_frontend = { ft_parse = 0.0; ft_sema = 0.0; ft_lower = 0.0 }

let analyze_prog ?auto_tuples ?(config = default_config) ?interner
    ?(frontend = no_frontend) (prog : Prog.t) : t =
  (* modeling: threadification needs the points-to pass, whose dominant
     cost we attribute to detection as in the paper; modeling time covers
     forest construction *)
  let t0 = Clock.now () in
  (* Methods are lowered when a phase first asks for their bodies, in
     practice inside points-to. That time is charged to lowering, not to
     the phase that asked. *)
  let lowered0 = Prog.lower_time prog in
  let time f =
    let l0 = Prog.lower_time prog in
    let r, dt = time f in
    (r, dt -. (Prog.lower_time prog -. l0))
  in
  let deadline = Option.map (fun d -> t0 +. d) config.budgets.deadline in
  (* The auto-derived (size-calibrated) ceiling guards the points-to
     table only: PTA can fall down the k ladder when it trips, so the
     bound is always soundly recoverable. The detection join is
     hard-bounded — an overflow there has no sound partial result — so
     it only honours an *explicit* user ceiling, never a derived one:
     a derived hard fault would turn legitimate dense inputs (e.g. a
     many-statements-per-line source) into failures. *)
  let pta_tuples =
    match config.budgets.pta_tuples with Some _ as t -> t | None -> auto_tuples
  in
  let (pta, pta_degr), t_pta =
    time (fun () -> run_pta config ~tuples:pta_tuples ~deadline prog)
  in
  (* escape/lockset are linear in the (tuple-bounded) points-to result,
     so they carry no checkpoint of their own *)
  let (esc, locks), t_aux =
    time (fun () -> (Escape.run pta, Lockset.run pta))
  in
  let threads, t_model = time (fun () -> Threadify.run ?deadline pta) in
  let potential, t_detect =
    time (fun () ->
        Detect.run ?deadline ?max_tuples:config.budgets.pta_tuples ?symbols:interner threads
          esc)
  in
  (* context construction belongs to the filtering phase: leaving it
     untimed made the §8.8 breakdown fall short of wall time *)
  let ctx, t_ctx =
    time (fun () ->
        Filters.create_ctx ~atomic_ig:config.atomic_ig ?deadline threads esc locks)
  in
  let (after_sound, after_unsound, pruned, skipped), t_filter =
    time (fun () ->
        match deadline with
        | None ->
            let s, pruned_sound = Filters.apply_counted ctx config.sound potential in
            let u, pruned_unsound = Filters.apply_counted ctx config.unsound s in
            (s, u, pruned_sound @ pruned_unsound, [])
        | Some dl ->
            let s, pruned_sound, sk1 =
              Filters.apply_counted_deadline ctx ~deadline:dl config.sound potential
            in
            let u, pruned_unsound, sk2 =
              Filters.apply_counted_deadline ctx ~deadline:dl config.unsound s
            in
            (s, u, pruned_sound @ pruned_unsound, sk1 @ sk2))
  in
  let degraded =
    pta_degr @ (match skipped with [] -> [] | _ :: _ -> [ D_filters_skipped skipped ])
  in
  let metrics =
    {
      m_frontend_parse = frontend.ft_parse;
      m_frontend_sema = frontend.ft_sema;
      m_frontend_lower = frontend.ft_lower +. (Prog.lower_time prog -. lowered0);
      m_pta = t_pta;
      m_aux = t_aux;
      m_threadify = t_model;
      m_detect = t_detect;
      m_ctx = t_ctx;
      m_filter = t_filter;
      (* the frontend ran before [t0]; folding its measured time into
         [m_wall] keeps the phase_sum = wall invariant for the whole
         analysis, frontend included *)
      m_wall =
        (Clock.now () -. t0) +. frontend.ft_parse +. frontend.ft_sema +. frontend.ft_lower;
      m_pta_visits = Pta.visits pta;
      m_pta_steps = Pta.steps pta;
      m_pta_tuples = Pta.tuples pta;
      m_pruned = pruned;
      m_degraded = degraded;
    }
  in
  {
    prog;
    pta;
    esc;
    locks;
    threads;
    ctx;
    potential;
    after_sound;
    after_unsound;
    timings = timings_of_metrics metrics;
    metrics;
    config;
  }

(* Non-blank, non-comment-only lines: a line holding nothing but
   comments is documentation, not code, and must not skew the Table 1
   LOC column (or the size-derived budgets below) against the per-app
   specs. The scan is comment-aware — [//] to end of line, [/* */]
   including every interior line of a multi-line block comment (the
   original line-by-line filter only recognised [//], so block comments
   counted as code) — and string-aware, so comment-looking text inside
   a literal still counts. Unterminated constructs simply run to end of
   input, mirroring how the lexer would fault on them anyway. *)
let count_loc src =
  let n = String.length src in
  let lines = ref 0 in
  let has_code = ref false in
  let i = ref 0 in
  let newline () =
    if !has_code then incr lines;
    has_code := false
  in
  while !i < n do
    match src.[!i] with
    | '\n' ->
        newline ();
        incr i
    | ' ' | '\t' | '\r' -> incr i
    | '/' when !i + 1 < n && src.[!i + 1] = '/' ->
        while !i < n && src.[!i] <> '\n' do
          incr i
        done
    | '/' when !i + 1 < n && src.[!i + 1] = '*' ->
        i := !i + 2;
        let closed = ref false in
        while (not !closed) && !i < n do
          if src.[!i] = '\n' then begin
            newline ();
            incr i
          end
          else if src.[!i] = '*' && !i + 1 < n && src.[!i + 1] = '/' then begin
            closed := true;
            i := !i + 2
          end
          else incr i
        done
    | '"' ->
        has_code := true;
        incr i;
        let closed = ref false in
        while (not !closed) && !i < n do
          (match src.[!i] with
          | '"' -> closed := true
          | '\\' when !i + 1 < n -> incr i
          | '\n' ->
              (* a (lexically invalid) newline inside a literal still
                 marks both lines as code *)
              newline ();
              has_code := true
          | _ -> ());
          incr i
        done
    | _ ->
        has_code := true;
        incr i
  done;
  newline ();
  !lines

(* Default PTA step budget, derived from app size. Calibrated against the
   corpus and 400 Synth seeds: the reference solver at k=2 peaks below 40
   steps per line (the worklist well below that), so a 500 steps/line
   slope plus a small-app floor leaves >10x headroom for ordinary
   programs while still bounding a pathological context explosion. *)
let auto_pta_steps ~loc = 5_000 + (500 * loc)

(* Default tuple (memory) ceiling, derived from app size like the step
   budget. Calibrated against the corpus and the Synth generator: the
   k=2 points-to table peaks at ~5.5 tuples per line (corpus max 4.6,
   SGTPuzzles; Synth max 5.5) and the detection join's relation
   cardinality stays well below that, so a 100 tuples/line slope plus a
   small-app floor leaves ~18x headroom for ordinary programs while
   still bounding a pathological heap explosion. *)
let auto_pta_tuples ~loc = 5_000 + (100 * loc)

let analyze ?(config = default_config) ?interner ~file src : t =
  (* no explicit budgets: derive them from the source size, so every
     file-level entry point is bounded by default ([--budget-pta] /
     [--budget-tuples] and explicit [budgets] fields still override) *)
  let loc = lazy (count_loc src) in
  let config =
    match config.budgets.pta_steps with
    | Some _ -> config
    | None ->
        let steps = auto_pta_steps ~loc:(Lazy.force loc) in
        { config with budgets = { config.budgets with pta_steps = Some steps } }
  in
  (* the derived tuple ceiling stays out of [config.budgets]: it bounds
     the PTA table only (see {!analyze_prog}), while an explicit
     [pta_tuples] also hard-bounds the detection join *)
  let auto_tuples =
    match config.budgets.pta_tuples with
    | Some _ -> None
    | None -> Some (auto_pta_tuples ~loc:(Lazy.force loc))
  in
  (* the frontend phases are timed individually so the metrics expose
     where batch time goes before the analysis proper starts; lexing is
     part of parsing, which pulls tokens from the lexer as it goes *)
  let ast, ft_parse = time (fun () -> Parser.parse_program ~file src) in
  let sema, ft_sema = time (fun () -> Sema.analyze ast) in
  let prog, ft_lower = time (fun () -> Prog.of_sema sema) in
  analyze_prog ?auto_tuples ~config ?interner ~frontend:{ ft_parse; ft_sema; ft_lower } prog

(* Counts for the Table 1 row of an app. *)
type row = {
  loc : int;  (** lines of MiniAndroid source *)
  ec : int;
  pc : int;
  threads_count : int;
  potential_count : int;
  after_sound_count : int;
  after_unsound_count : int;
  by_category : (Classify.category * int) list;
}

let row ?(src = "") (t : t) : row =
  let ec, pc =
    List.fold_left
      (fun (ec, pc) th ->
        match th.Threadify.th_kind with
        | Threadify.Entry_cb _ -> (ec + 1, pc)
        | Threadify.Posted_cb _ -> (ec, pc + 1)
        | Threadify.Dummy_main | Threadify.Native_thread | Threadify.Async_background ->
            (ec, pc))
      (0, 0) (Threadify.threads t.threads)
  in
  {
    loc = count_loc src;
    ec;
    pc;
    threads_count = Threadify.table1_thread_count t.threads;
    potential_count = List.length t.potential;
    after_sound_count = List.length t.after_sound;
    after_unsound_count = List.length t.after_unsound;
    by_category = Classify.histogram t.threads t.after_unsound;
  }
