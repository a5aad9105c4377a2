(** The newline-JSON wire protocol of [nadroid serve].

    One request per line, one response line per request, in request
    order per connection. An analyze response is byte-identical to what
    [nadroid analyze --json FILE] prints for the same input and flags —
    the CLI renders through this module too, so the equality is by
    construction, and a CI fleet can swap cold processes for a warm
    daemon without re-teaching its parsers. *)

(** {1 JSON} *)

(** A small JSON value — the protocol needs no external dependency. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val parse_json : string -> (json, string) result
(** Strict-enough JSON parser: objects, arrays, strings with the
    standard escapes ([\uXXXX] included, surrogate pairs folded to
    UTF-8), numbers, [true]/[false]/[null]. Trailing garbage is an
    error. *)

val escape_string : string -> string
(** Render a string as a quoted JSON literal (control characters as
    [\u00XX]; bytes >= 0x80 passed through verbatim). *)

val member : string -> json -> json option
(** Field lookup on an [Obj]; [None] on anything else. *)

(** {1 Requests} *)

type analyze = {
  a_path : string option;  (** analyze this file (server-side read) *)
  a_source : string option;  (** ... or this inline source *)
  a_file : string option;  (** display name for inline source *)
  a_k : int option;
  a_sound_only : bool;
  a_deadline : float option;  (** seconds, enforced in-flight *)
  a_budget_pta : int option;
  a_budget_tuples : int option;
  a_cache : bool option;  (** request the server's analysis cache *)
}

type request =
  | Ping  (** liveness probe; also measures queue depth *)
  | Shutdown  (** graceful drain: in-flight work finishes, then exit *)
  | Analyze of analyze

val parse_request : string -> (request, string) result
(** Parse one request line. Errors name the offending field. *)

val render_analyze : analyze -> string
(** The request line a client sends for [a] (no trailing newline). *)

val ping_request : string

val shutdown_request : string

(** {1 Responses} *)

val entry_json : name:string -> Nadroid_core.Cache.entry -> string
(** The per-app object of an analyze response: counts, the sound
    degradation inventory, and the rendered report. Deterministic for a
    deterministic analysis — no wall times — so a daemon response can be
    compared byte-for-byte against a cold run. *)

val batch_json : files:int -> apps:string list -> faults:string list -> string
(** The analyze document: [{"files":N,"apps":[...],"faults":[...]}].
    [apps]/[faults] are pre-rendered objects ({!entry_json} /
    {!Nadroid_core.Report.fault_to_json}). *)

val analyze_response :
  name:string -> (Nadroid_core.Cache.entry, Nadroid_core.Fault.t) result -> string
(** Single-file analyze document for a daemon response. *)

val ok_response : draining:bool -> string
(** Response to [Ping] ([draining:false]) and [Shutdown]. *)

val error_response : string -> string
(** A malformed request: [{"error":...,"exit":2}] — the cmdliner
    usage-error code, the protocol's analogue of a bad command line. *)

val response_exit : string -> int
(** The exit code a response implies: 0 for ok/analyze-clean, the worst
    fault [exit] of the document otherwise, 2 for protocol errors and
    unparseable responses. The CLI client folds this across responses. *)
