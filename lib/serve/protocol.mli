(** The serve-mode wire protocol: schema-versioned JSONL over
    stdin/stdout or a Unix socket.

    One request per line, one response per line.  A request is a JSON
    object [{"op": ..., "id": ..., ...}]; the response echoes the [id]
    and is either [{"ok": true, "result": {...}}] or [{"ok": false,
    "error": {"kind", "message", "exit_code", ...}}].  Parsing never
    raises: a torn, truncated, or malformed line is a {!Parse_error}
    {e response}, not a daemon crash — the structured-error counterpart
    of {!Skipflow_api.protect}.

    The error objects here are shared with the one-shot CLI
    ([--format json]): {!api_error_json} is the exact document
    [skipflow analyze] prints on failure, so batch tooling can treat the
    two surfaces uniformly. *)

module Api = Skipflow_api

val schema_version : int
(** The protocol schema version, stamped on every response.  A request
    carrying a different ["schema_version"] is rejected with a
    {!Parse_error}. *)

(** {1 Requests} *)

type request =
  | Analyze of { roots : string list option }
      (** re-analyze; [Some names] replaces the root set (growing it is
          incremental — see {!Incremental}), [None] serves the resident
          fixed point *)
  | Lint of { only : string list option }
      (** fixed-point-driven checks on the resident engine *)
  | Profile  (** engine statistics and counters of the resident solve *)
  | Edit of { source : string }
      (** replace the program source and re-analyze incrementally *)
  | Health  (** liveness, generation, and resident-state probes *)
  | Shutdown  (** snapshot, flush, and exit cleanly *)

type envelope = {
  req_id : int option;  (** echoed verbatim in the response *)
  req_deadline_ms : int option;  (** per-request deadline override *)
  req : request;
}

(** {1 Errors} *)

type error =
  | Api_error of Api.error  (** a facade error, passed through *)
  | Parse_error of string  (** malformed request line *)
  | Unknown_op of string  (** unrecognized ["op"] *)
  | No_program
      (** [analyze]/[lint]/[profile] before any program was loaded *)
  | Deadline_exceeded of { deadline_ms : int }
      (** the request's budget tripped; resident state was rolled back *)
  | Overloaded of { retry_after_ms : int }
      (** shed: the heap is over the [--max-heap-mb] ceiling even after
          dropping the memo and compacting; retry after the hint *)
  | Shutting_down  (** received after a [shutdown] request *)

val error_kind : error -> string
(** Stable machine-readable tags: the {!Api.error_kind} tags plus
    ["parse_error"], ["unknown_op"], ["no_program"],
    ["deadline_exceeded"], ["overloaded"], ["shutting_down"]. *)

val error_message : error -> string

val exit_code_of_error : error -> int
(** The exit-code contract extended to serve errors: client/input errors
    ({!Parse_error}, {!Unknown_op}, {!No_program}) map to 2 like the
    facade's input errors; {!Deadline_exceeded} to 3 (the budget-trip
    convention); transient conditions ({!Overloaded}, {!Shutting_down})
    to 1. *)

(** {1 Parsing and serialization} *)

val parse_request : string -> (envelope, error) result
(** Parse one request line.  Never raises; every malformed input maps to
    {!Parse_error} and an unrecognized ["op"] to {!Unknown_op}. *)

val request_id : string -> int option
(** Best-effort extraction of the ["id"] field from a raw request line,
    so error responses can echo it even when {!parse_request} rejects
    the request.  [None] when the line is not valid JSON or has no
    integer id. *)

val api_error_fields : Api.error -> (string * Skipflow_checks.Json.t) list
(** The ["kind"] / ["message"] / ["exit_code"] fields (plus ["diags"]
    for compile errors) of a facade error — the body of every error
    object, CLI and serve alike. *)

val api_error_json : Api.error -> Skipflow_checks.Json.t
(** The one-shot CLI's machine-readable failure document:
    [{"schema_version", "error": {...}}].  [skipflow analyze --format
    json] prints exactly this. *)

val metrics_json : Skipflow_core.Metrics.t -> Skipflow_checks.Json.t
(** The ["metrics"] object: the nine Table-1 counts, in a fixed order.
    Serve responses and [skipflow analyze --format json] both print
    exactly this. *)

val error_json : error -> Skipflow_checks.Json.t
(** The serve response's ["error"] member.  {!Overloaded} adds a
    ["retry_after_ms"] field; {!Deadline_exceeded} a ["deadline_ms"]. *)

val response_ok : id:int option -> Skipflow_checks.Json.t -> Skipflow_checks.Json.t
val response_error : id:int option -> error -> Skipflow_checks.Json.t

val response_line : Skipflow_checks.Json.t -> string
(** Compact single-line rendering, newline-terminated (JSONL). *)
