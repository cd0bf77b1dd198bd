(** Solver observability: a counters registry, nestable phase timers, and
    an event trace of solver activity.

    One {!t} accompanies one analysis run.  It has three independent
    facilities, each priced for its use:

    - {e counters} — named monotonic counters the engine, the build pass,
      and the lint checks register into.  A counter is a mutable box; an
      increment is one store, so counters are always on (they replace the
      hand-rolled stats fields the engine used to carry).
    - {e phase timers} — wall + CPU spans (parse / typecheck / lower /
      solve / metrics, nestable).  Re-entering a phase name at the same
      nesting depth accumulates into the same record, so a per-method
      activity like PVPG construction shows up as one aggregate line.
      Disabled timers cost one boolean test per {!with_phase}.
    - {e event trace} — per-flow solver activity (joins, predicate
      enables, invoke re-resolutions, saturation trips, budget
      degradations), buffered in memory and written as JSONL or as Chrome
      [trace_event] JSON loadable in [chrome://tracing] / Perfetto.
      Disabled events cost one boolean test per emission site.

    All JSON emitted here is integer-only (timestamps in microseconds), so
    the dependency-free JSON parser used for the findings interchange
    format can validate it. *)

(** {1 Counters} *)

type counter
(** A named monotonic counter registered in some trace's registry. *)

val value : counter -> int

val incr : counter -> unit

val add : counter -> int -> unit
(** Add [n >= 0].  @raise Invalid_argument on a negative delta — counters
    are monotonic by contract. *)

val record_max : counter -> int -> unit
(** High-water-mark update: raise the counter to [n] if [n] is larger
    (used for queue depths; still monotone). *)

(** {1 Traces} *)

type t

val create : ?timers:bool -> ?events:bool -> ?max_events:int -> unit -> t
(** A fresh trace.  [timers] (default [false]) enables phase timing;
    [events] (default [false]) enables the event buffer, capped at
    [max_events] (default 1_000_000; past it events are counted but
    dropped).  Counters are always available. *)

val events_on : t -> bool

val counter : t -> string -> counter
(** Find-or-create the named counter in this trace's registry. *)

val counters : t -> (string * int) list
(** Every registered counter with its current value, sorted by name. *)

(** {1 Phase timers} *)

type phase = {
  ph_name : string;
  ph_depth : int;  (** nesting depth at first entry (0 = top level) *)
  ph_wall_us : int;  (** total wall time, microseconds, across entries *)
  ph_cpu_us : int;  (** total CPU time, microseconds, across entries *)
  ph_count : int;  (** number of entries accumulated *)
  ph_first_start_us : int;  (** first entry time, relative to trace creation *)
}

val with_phase : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside the named phase.  When timers are off this is
    just an application.  Exceptions propagate; time is recorded either
    way.  Re-entering the same name at the same depth accumulates. *)

val phases : t -> phase list
(** Phases in first-entry order. *)

val timed : t -> counter -> (unit -> 'a) -> 'a
(** Accumulate the thunk's wall time (microseconds) into a counter — the
    cheap aggregate form of {!with_phase} for sub-phases that run many
    times (e.g. one PVPG construction per reachable method).  When timers
    are off this is just an application. *)

(** {1 Events} *)

type event = {
  ev_ts_us : int;  (** microseconds since trace creation *)
  ev_kind : string;  (** e.g. ["enable"], ["join"], ["link"], ["resolve"] *)
  ev_flow : int;  (** subject flow id, or -1 *)
  ev_meth : int;  (** owning method id, or -1 *)
  ev_arg : int;  (** kind-specific payload (callee id, delta size, ...) *)
}

val event : t -> kind:string -> ?flow:int -> ?meth:int -> ?arg:int -> unit -> unit
(** Buffer one event (no-op unless {!events_on}; hot emission sites should
    also pre-check {!events_on} to skip argument evaluation). *)

val events : t -> event list
(** Buffered events, oldest first. *)

val event_count : t -> int
val dropped_events : t -> int

val drop_events : t -> unit
(** Discard the buffered events (they count as dropped) — the memory
    ceiling's relief valve; counters and phases are untouched. *)

val by_kind : t -> (string * int) list
(** Event counts per kind, most frequent first. *)

val by_flow : t -> (int * int) list
(** Event counts per flow id (flows with ids only), most active first. *)

val by_meth : t -> (int * int) list
(** Event counts per method id (attributed events only), most active
    first. *)

(** {1 Serialization}

    [meth_name] maps a method id to a printable name (defaults to
    ["m<id>"]); pass [Program.qualified_name] at the call site. *)

val schema_version : int
(** Version stamped on every trace document this module writes. *)

val jsonl_string : ?meth_name:(int -> string) -> t -> string
(** The trace as JSON-lines: a header line carrying [schema_version],
    then one line per phase, counter, and event. *)

val chrome_string : ?meth_name:(int -> string) -> t -> string
(** The trace in Chrome [trace_event] format (the object form:
    [{"traceEvents": [...], ...}]): phases as complete ["X"] events,
    solver events as instants ["i"], counters in the top-level metadata. *)

val write_jsonl : ?meth_name:(int -> string) -> t -> string -> (unit, Io.error) result
val write_chrome : ?meth_name:(int -> string) -> t -> string -> (unit, Io.error) result
(** Atomic writes through the durable-IO layer; a failed export is
    reported, never raised and never a half-written file. *)

val pp_phases : Format.formatter -> t -> unit
(** Human-readable phase table (name indented by depth, wall/CPU ms,
    entry count). *)

val pp_counters : Format.formatter -> t -> unit
(** Human-readable counter dump, sorted by name. *)
