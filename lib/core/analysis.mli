(** Top-level analysis driver: build the engine, register roots, solve to
    the fixed point, collect metrics.  This is the main entry point for
    examples, tests, the CLI, and the benchmark harness. *)

type result = {
  config : Config.t;
  engine : Engine.t;
      (** the solved engine: reachable methods, per-flow value states *)
  outcome : Engine.outcome;
      (** {!Engine.Paused} only under [on_budget:`Pause] when a budget
          cap tripped; pass the payload to {!resume} (optionally after a
          {!Snapshot.write} round trip) to finish the solve *)
  metrics : Metrics.t;
  trace : Trace.t;
      (** the run's counters, and — when requested at creation — its
          phase timings and solver event stream *)
  cpu_time_s : float;
      (** CPU time of graph construction + solving ([Sys.time]-based) *)
}

val run :
  ?config:Config.t ->
  ?random_order:int ->
  ?on_budget:[ `Degrade | `Pause ] ->
  ?mode:Engine.mode ->
  ?trace:Trace.t ->
  Skipflow_ir.Program.t ->
  roots:Skipflow_ir.Program.meth list ->
  result
(** [run ~config prog ~roots] analyzes [prog] from the given root methods
    (default config: {!Config.skipflow}).  [random_order] processes the
    worklist in a seeded pseudo-random order instead of FIFO — the fixed
    point must not change; used by determinism tests.  [mode] selects the
    worklist engine ({!Engine.Dedup} by default; {!Engine.Reference} keeps
    the original boxed FIFO for differential testing).  [trace] (default a
    fresh quiet {!Trace.t}) receives the run's counters; when created with
    timers the driver records ["roots"] / ["solve"] / ["metrics"] phases
    into it, and with events the engine streams solver activity.
    [on_budget] selects the budget-trip reaction (see {!Engine.run}):
    [`Degrade] (default) finishes at a sound coarser fixed point;
    [`Pause] returns with [result.outcome = Paused snapshot] instead. *)

val rerun :
  ?random_order:int ->
  ?on_budget:[ `Degrade | `Pause ] ->
  ?trace:Trace.t ->
  Engine.t ->
  result
(** Drive an already-constructed engine (back) to its fixed point and
    recompute metrics.  This is the incremental re-analysis step: on a
    solved engine that just gained roots via {!Engine.add_root}, the
    worklist re-drains from the new roots' boundary flows only, and
    monotone chaotic iteration guarantees the fixed point equals a
    from-scratch solve over the grown root set (pinned flow by flow by
    the serve tests).  [trace] defaults to the engine's own trace. *)

val resume :
  ?random_order:int ->
  ?on_budget:[ `Degrade | `Pause ] ->
  ?budget:Budget.t ->
  ?trace:Trace.t ->
  string ->
  (result, string) Stdlib.result
(** Continue a paused solve from a {!Engine.Paused} payload (or
    {!Engine.snapshot_bytes} output).  [budget] — commonly
    {!Budget.unlimited} — replaces the snapshotted budget so the resumed
    run can finish; metrics are recomputed on the resumed engine, whose
    fixed point is identical, flow by flow, to an uninterrupted run's.
    [Error msg] when the payload cannot be decoded. *)

val roots_by_name :
  Skipflow_ir.Program.t ->
  string list ->
  (Skipflow_ir.Program.meth list, string) Stdlib.result
(** Resolve roots from ["Class.method"] names.  [Error msg] names the
    first root that does not resolve (unknown class, unknown method, or a
    name not of the form [Class.method]); no exception escapes. *)

val reachable_names : result -> string list
(** Qualified names of the reachable methods, in discovery order. *)
