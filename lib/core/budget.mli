(** Resource budgets for the fixed-point engine.

    A budget caps how much work {!Engine.run} may spend before it gives up
    on full precision.  Exceeding a cap does {e not} abort the analysis:
    the engine switches to {e degradation mode} — it force-saturates every
    object flow to the set of all instantiated types, widens primitive
    flows to [Any], and drains the remaining work to a sound but coarser
    fixed point (the same degrade-precision-never-correctness policy as the
    paper's saturation mechanism, Section 5).

    All caps are optional; {!unlimited} never trips. *)

type t = {
  max_tasks : int option;
      (** cap on worklist tasks processed before degradation *)
  max_seconds : float option;
      (** wall-clock cap; checked while draining the worklist *)
  max_flows : int option;
      (** cap on live flows (PVPG vertices) across all reachable methods *)
}

(** Why a budget tripped. *)
type trip = Tasks | Seconds | Flows

val unlimited : t
(** No caps; {!check} never trips. *)

val is_unlimited : t -> bool

val make :
  ?max_tasks:int -> ?max_seconds:float -> ?max_flows:int -> unit -> t

val tiny : t
(** A deliberately minuscule task cap, used by the fuzz harness to
    fault-inject the degradation path on every non-trivial input. *)

val check : t -> tasks:int -> flows:int -> elapsed_s:(unit -> float) -> trip option
(** [check b ~tasks ~flows ~elapsed_s] returns the first exceeded cap, if
    any.  [elapsed_s] is a thunk so the clock is only read when a
    wall-clock cap is actually configured. *)

val check_work :
  t -> tasks:int -> links:int -> flows:int -> elapsed_s:(unit -> float) -> trip option
(** [check_work] is {!check} with work-unit accounting for checks made
    {e inside} a task: a single drained invoke/field task can resolve an
    unbounded number of callees (a "mega-flow"), during which the task
    counter is frozen — so the interprocedural links made so far {e in
    the current task} (and only those — [links] is the delta since the
    last task boundary, never a run-cumulative count) are counted toward
    [max_tasks] too.  {!Engine.run} calls this from the re-resolution
    loops, bounding the [max_tasks] overshoot by one link's worth of
    work instead of one task's (a property the budget regression test
    pins down). *)

val trip_name : trip -> string
val pp : Format.formatter -> t -> unit
