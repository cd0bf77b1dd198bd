(** The stable library facade for embedding the SkipFlow analysis.

    This is the one entry point external consumers (the CLI, the benchmark
    harness, the examples) are expected to use: compile a MiniJava source,
    resolve roots, solve to the fixed point, and collect metrics — with
    every failure returned as a typed {!error}.  No exception crosses this
    boundary: [Not_found], [Failure], frontend errors and I/O errors all
    map into the [result].

    Observability is threaded through: pass a {!Trace.t} created with
    timers and/or events to get per-phase wall/CPU spans
    ([parse]/[typecheck]/[lower]/[roots]/[solve]/[metrics]), the counter
    registry, and the solver event stream (see {!Trace}). *)

(** Re-exports, so consumers need only this library for the common path. *)

module Config = Skipflow_core.Config
module Trace = Skipflow_core.Trace
module Engine = Skipflow_core.Engine
module Metrics = Skipflow_core.Metrics
module Analysis = Skipflow_core.Analysis
module Budget = Skipflow_core.Budget
module Report = Skipflow_core.Report
module Frontend = Skipflow_frontend.Frontend
module Diag = Skipflow_frontend.Diag

(** {1 Inputs} *)

type source = [ `File of string | `Text of string ]
(** A MiniJava program: a path to a [.mj] file, or the source text
    itself. *)

(** {1 Errors} *)

type error =
  | Io_error of { path : string; message : string }
      (** the source file could not be read *)
  | Compile_error of {
      file : string option;  (** the path, when the source was [`File] *)
      src : string;  (** the source text, for caret rendering *)
      diags : Diag.t list;  (** accumulated, position-carrying diagnostics *)
    }
  | Unknown_root of string  (** a root name did not resolve; the message
                                names it *)
  | No_main
      (** no roots were given and the program has no static [main] *)
  | Internal_error of string
      (** any unexpected exception, captured at the boundary *)

val error_message : error -> string
(** A one-line human-readable rendering (compile errors are summarized;
    use {!render_error} for carets). *)

val render_error : Format.formatter -> error -> unit
(** Full rendering: compile errors as caret diagnostics, everything else
    as [error: <message>]. *)

val exit_code_of_error : error -> int
(** The CLI exit-code contract: input errors ({!Io_error},
    {!Compile_error}, {!Unknown_root}, {!No_main}) map to 2, internal
    errors to 1.  (Exit 3 — degraded results not opted into — is a policy
    of the caller, applied to an [Ok] summary via
    {!Metrics.t}[.degraded].) *)

val error_kind : error -> string
(** A stable machine-readable tag for each variant — ["io_error"],
    ["compile_error"], ["unknown_root"], ["no_main"],
    ["internal_error"] — used by the CLI's JSON error objects and the
    batch journal. *)

val protect : (unit -> ('a, error) result) -> ('a, error) result
(** Run [f] under the facade's exception boundary: any exception except
    [Stack_overflow] / [Out_of_memory] becomes {!Internal_error}.  This is
    the same guard every entry point below runs under, exposed so
    long-lived embedders (the serve daemon) can extend the
    no-exception-crosses-the-boundary guarantee to their own
    per-request work. *)

(** {1 Results} *)

type summary = {
  config : Config.t;
  engine : Engine.t;  (** the solved engine (reachable set, flow states) *)
  outcome : Engine.outcome;
      (** {!Engine.Paused} only under [on_budget:`Pause]; resume with
          {!resume_snapshot} *)
  metrics : Metrics.t;
  trace : Trace.t;  (** counters always; phases/events when enabled *)
  reachable : string list;  (** qualified reachable-method names, in
                                discovery order *)
  wall_s : float;
      (** wall-clock time of the entry point's whole span: compile +
          solve + metrics for {!analyze}, solve + metrics for
          {!analyze_program} and {!resume_snapshot} *)
  cpu_s : float;  (** CPU time of the same span *)
}

(** {1 Entry points} *)

val compile :
  ?trace:Trace.t -> source -> (Skipflow_ir.Program.t * string, error) result
(** Compile a source to a lowered, validated program (returned with the
    source text, for rendering).  When [trace] has timers, records the
    [parse] / [typecheck] / [lower] phases. *)

val resolve_roots :
  Skipflow_ir.Program.t ->
  string list ->
  (Skipflow_ir.Program.meth list, error) result
(** Resolve ["Class.method"] root names; an empty list selects the
    conventional static [main] ({!No_main} if there is none). *)

val analyze :
  ?config:Config.t ->
  ?mode:Engine.mode ->
  ?random_order:int ->
  ?on_budget:[ `Degrade | `Pause ] ->
  ?trace:Trace.t ->
  source:source ->
  roots:string list ->
  unit ->
  (summary, error) result
(** The full pipeline: {!compile}, {!resolve_roots}, solve, metrics.
    Defaults: [config] {!Config.skipflow}, [mode] {!Engine.Dedup}, a
    fresh quiet trace.  [on_budget] is {!Engine.run}'s budget-trip
    reaction: [`Degrade] (default) or [`Pause] (the summary then carries
    [outcome = Paused snapshot]).  (The trailing [unit] makes the
    optional arguments erasable — all other parameters are labeled.) *)

val analyze_program :
  ?config:Config.t ->
  ?mode:Engine.mode ->
  ?random_order:int ->
  ?on_budget:[ `Degrade | `Pause ] ->
  ?trace:Trace.t ->
  Skipflow_ir.Program.t ->
  roots:Skipflow_ir.Program.meth list ->
  (summary, error) result
(** {!analyze} for an already-lowered program with resolved root methods
    (workload generators hand these out directly). *)

val resume_snapshot :
  ?budget:Budget.t ->
  ?random_order:int ->
  ?on_budget:[ `Degrade | `Pause ] ->
  ?trace:Trace.t ->
  string ->
  (summary, error) result
(** Continue a paused solve from a {!Engine.Paused} payload.  [budget]
    (commonly {!Budget.unlimited}) replaces the snapshotted budget so the
    resumed run can finish; an undecodable payload is an
    {!Internal_error}.  The resumed fixed point is identical, flow by
    flow, to an uninterrupted run's. *)
