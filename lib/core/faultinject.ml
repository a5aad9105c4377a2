(* Deterministic fault injection at the runtime's I/O and process seams.

   Every seam that can fail in production (cache reads/writes/renames,
   journal appends, worker spawns and pipes, server accept/send) calls
   {!trip} with its site. With no plan armed a trip is a single atomic
   load — cheap enough to leave in release builds. An armed plan decides
   deterministically whether the trip fires, and how:

   - [Raise]: raise the error the seam would see from a failing kernel —
     [Unix.Unix_error (EIO, "faultinject", site)] — so injected faults
     travel exactly the code paths real I/O errors take, and any handler
     gap shows up as an escaped exception rather than a bespoke test
     failure.
   - [Kill]/[Abort]: deliver SIGKILL/SIGABRT to the calling process — the
     shapes of an OOM-kill and of a native crash. These are what the
     supervision and checkpoint/resume tests use to manufacture dead
     workers and half-written journals on demand.
   - [Term]: deliver SIGTERM to self and return — the process's own
     handler (cooperative batch stop) takes it from there.
   - [Wedge]: block for an hour — a hung worker, for heartbeat-timeout
     coverage.
   - [Stall]: sleep about a millisecond and return — a slow step, so a
     deadline can be driven into the middle of a phase on any host.

   Plans come in two forms, combinable in one spec string:
   - deterministic rules: fire on the [n]th occurrence of a site in this
     process ("journal_append:4:kill"), or on every occurrence whose
     caller-provided key matches ("worker_task=K9Mail.mand:abort");
   - a seeded random mode: every occurrence of the listed sites fires
     with probability [rate], decided by a hash of (seed, site,
     occurrence) — reproducible across runs, independent of scheduling
     of *other* sites.

   The spec can also arrive via the [NADROID_FAULTS] environment
   variable, which child processes (supervised workers) inherit — that
   is how a test reaches a seam inside a worker it never talks to
   directly. *)

type site =
  | Cache_read
  | Cache_write
  | Cache_rename
  | Journal_append
  | Worker_spawn
  | Worker_pipe_read
  | Worker_task
  | Server_accept
  | Server_send
  | Filter

let all_sites =
  [
    Cache_read;
    Cache_write;
    Cache_rename;
    Journal_append;
    Worker_spawn;
    Worker_pipe_read;
    Worker_task;
    Server_accept;
    Server_send;
    Filter;
  ]

(* The filter site slows an analysis down rather than failing a seam, so
   the seeded mode leaves it out unless a spec names it. *)
let seeded_default_sites = List.filter (fun s -> s <> Filter) all_sites

let site_index = function
  | Cache_read -> 0
  | Cache_write -> 1
  | Cache_rename -> 2
  | Journal_append -> 3
  | Worker_spawn -> 4
  | Worker_pipe_read -> 5
  | Worker_task -> 6
  | Server_accept -> 7
  | Server_send -> 8
  | Filter -> 9

let n_sites = 10

let site_to_string = function
  | Cache_read -> "cache_read"
  | Cache_write -> "cache_write"
  | Cache_rename -> "cache_rename"
  | Journal_append -> "journal_append"
  | Worker_spawn -> "worker_spawn"
  | Worker_pipe_read -> "worker_pipe_read"
  | Worker_task -> "worker_task"
  | Server_accept -> "server_accept"
  | Server_send -> "server_send"
  | Filter -> "filter"

let site_of_string s =
  List.find_opt (fun site -> String.equal (site_to_string site) s) all_sites

type action = Raise | Kill | Abort | Term | Wedge | Stall

let action_to_string = function
  | Raise -> "raise"
  | Kill -> "kill"
  | Abort -> "abort"
  | Term -> "term"
  | Wedge -> "wedge"
  | Stall -> "stall"

let action_of_string = function
  | "raise" -> Some Raise
  | "kill" -> Some Kill
  | "abort" -> Some Abort
  | "term" -> Some Term
  | "wedge" -> Some Wedge
  | "stall" -> Some Stall
  | _ -> None

type selector = Nth of int | Key of string

type rule = { r_site : site; r_sel : selector; r_action : action }

type seeded = { s_seed : int; s_rate : float; s_sites : site list }

type plan = { rules : rule list; seeded : seeded option }

(* The armed plan plus per-site occurrence counters. Arming resets the
   counters and the fire count, so a test that arms, runs, disarms and
   reads {!fires} sees only its own injections. *)
let plan : plan option Atomic.t = Atomic.make None

let counters = Array.init n_sites (fun _ -> Atomic.make 0)

let fired = Atomic.make 0

let armed () = Atomic.get plan <> None

let fires () = Atomic.get fired

let disarm () = Atomic.set plan None

let reset_counts () =
  Array.iter (fun c -> Atomic.set c 0) counters;
  Atomic.set fired 0

let arm p =
  reset_counts ();
  Atomic.set plan (Some p)

let arm_seeded ~seed ~rate ~sites () =
  arm { rules = []; seeded = Some { s_seed = seed; s_rate = rate; s_sites = sites } }

(* Deterministic per-occurrence coin: the first three digest bytes of
   (seed, site, occurrence) as a fraction of 2^24. Independent of any
   global PRNG state and of what other sites do. *)
let seeded_fires s site n =
  let h =
    Digest.string (Printf.sprintf "%d|%s|%d" s.s_seed (site_to_string site) n)
  in
  let v =
    (Char.code h.[0] lsl 16) lor (Char.code h.[1] lsl 8) lor Char.code h.[2]
  in
  float_of_int v /. 16777216.0 < s.s_rate

let perform action site key =
  Atomic.incr fired;
  let what =
    match key with
    | Some k -> site_to_string site ^ ":" ^ k
    | None -> site_to_string site
  in
  match action with
  | Raise -> raise (Unix.Unix_error (Unix.EIO, "faultinject", what))
  | Kill -> Unix.kill (Unix.getpid ()) Sys.sigkill
  | Abort -> Unix.kill (Unix.getpid ()) Sys.sigabrt
  | Term -> Unix.kill (Unix.getpid ()) Sys.sigterm
  | Wedge -> Unix.sleepf 3600.0
  | Stall -> Unix.sleepf 0.001

let trip ?key site =
  match Atomic.get plan with
  | None -> ()
  | Some p -> (
      let n = Atomic.fetch_and_add counters.(site_index site) 1 + 1 in
      let rule_action =
        List.find_map
          (fun r ->
            if r.r_site <> site then None
            else
              match r.r_sel with
              | Nth k -> if n = k then Some r.r_action else None
              | Key s -> (
                  match key with
                  | Some k when String.equal k s -> Some r.r_action
                  | _ -> None))
          p.rules
      in
      match rule_action with
      | Some a -> perform a site key
      | None -> (
          match p.seeded with
          | Some s when List.mem site s.s_sites && seeded_fires s site n ->
              perform Raise site key
          | _ -> ()))

(* -- spec parsing --------------------------------------------------------- *)

let env_var = "NADROID_FAULTS"

(* spec   := entry (';' entry)*
   entry  := SITE ':' N [':' ACTION]        deterministic, nth occurrence
           | SITE '=' KEY [':' ACTION]      deterministic, matching key
           | 'seed=' N | 'rate=' F | 'sites=' SITE ('+' SITE)*
   The seeded mode activates when both seed and rate appear; its site
   list defaults to every site but [filter]. *)
let parse_spec spec =
  let entries =
    List.filter_map
      (fun e ->
        let e = String.trim e in
        if String.equal e "" then None else Some e)
      (String.split_on_char ';' spec)
  in
  let rules = ref [] in
  let seed = ref None and rate = ref None and sites = ref None in
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt in
  let parse_action = function
    | None -> Some Raise
    | Some a -> action_of_string a
  in
  List.iter
    (fun entry ->
      match String.split_on_char ':' entry with
      | [ kv ] | [ kv; _ ] when String.contains kv '=' -> (
          let i = String.index kv '=' in
          let lhs = String.sub kv 0 i in
          let rhs = String.sub kv (i + 1) (String.length kv - i - 1) in
          let action =
            match String.split_on_char ':' entry with
            | [ _; a ] -> Some a
            | _ -> None
          in
          match lhs with
          | ("seed" | "rate" | "sites") when action <> None ->
              (* silently dropping the suffix would arm a different
                 fault than the spec's author wrote *)
              fail "%s= takes no ':action' suffix (in %S)" lhs entry
          | "seed" -> (
              match int_of_string_opt rhs with
              | Some s -> seed := Some s
              | None -> fail "bad seed %S" rhs)
          | "rate" -> (
              match float_of_string_opt rhs with
              | Some r when r >= 0.0 && r <= 1.0 -> rate := Some r
              | _ -> fail "bad rate %S (want a float in [0,1])" rhs)
          | "sites" ->
              let names = String.split_on_char '+' rhs in
              let resolved = List.filter_map site_of_string names in
              if List.length resolved <> List.length names then
                fail "bad site list %S" rhs
              else sites := Some resolved
          | s -> (
              match (site_of_string s, parse_action action) with
              | Some site, Some a ->
                  rules := { r_site = site; r_sel = Key rhs; r_action = a } :: !rules
              | None, _ -> fail "unknown site %S" s
              | _, None -> fail "unknown action in %S" entry))
      | site_s :: nth_s :: rest -> (
          let action =
            match rest with
            | [] -> None
            | [ a ] -> Some a
            | _ ->
                fail "too many ':' in %S" entry;
                None
          in
          match site_of_string site_s with
          | None -> fail "unknown site %S" site_s
          | Some site -> (
              match int_of_string_opt nth_s with
              | None -> fail "bad occurrence count %S" nth_s
              | Some n when n < 1 -> fail "bad occurrence count %S" nth_s
              | Some n -> (
                  match parse_action action with
                  | None -> fail "unknown action in %S" entry
                  | Some a ->
                      rules :=
                        { r_site = site; r_sel = Nth n; r_action = a } :: !rules)))
      | _ -> fail "bad entry %S" entry)
    entries;
  match !err with
  | Some e -> Error e
  | None ->
      let seeded =
        match (!seed, !rate) with
        | Some s_seed, Some s_rate ->
            Some
              {
                s_seed;
                s_rate;
                s_sites = Option.value ~default:seeded_default_sites !sites;
              }
        | _ -> None
      in
      Ok { rules = List.rev !rules; seeded }

let arm_spec spec =
  match parse_spec spec with
  | Ok { rules = []; seeded = None } ->
      disarm ();
      Ok ()
  | Ok p ->
      arm p;
      Ok ()
  | Error _ as e -> e

let init_from_env () =
  match Sys.getenv_opt env_var with
  | None -> Ok ()
  | Some spec -> arm_spec spec
