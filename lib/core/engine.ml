(** The fixed-point propagation engine: an operational implementation of
    the inference rules of Figure 15 (Appendix C).

    The engine schedules three kinds of propagation work:

    - {e input}: join a value into a flow's VS_in (the Propagate / Load /
      Store / Invoke-linking rules push values this way);
    - {e enable}: mark a flow executable (the Predicate rule);
    - {e notify}: re-run a flow's flow-specific action because an observed
      flow's state changed (method resolution and linking for invokes,
      field linking for loads/stores, re-filtering for comparison filters).

    In the default {!Dedup} mode the worklist is deduplicated: an input
    emit performs the value join into [Flow.raw] {e eagerly} and enqueues
    the flow id only if the join changed something and the flow is not
    already pending (scheduling bits live on {!Flow.t}); an enable emit on
    an already-enabled flow and a notify emit on an already-queued
    observer collapse to no-ops.  The queue itself is {!Worklist}: an
    int-indexed ring buffer of flow ids, not boxed task values.  The
    {!Reference} mode retains the original boxed-FIFO drain (one task per
    emit, joins at processing time) — the fixed points of the two modes
    are bit-identical (all transfer functions are monotone over the
    finite-height lattice [𝕃]), which the test-suite certifies flow by
    flow.

    Methods become reachable ([ℝ] in the paper) when their PVPG is built:
    either as analysis roots or when an invoke links them.  Virtual invokes
    resolve every type in the receiver's value state with [Resolve] and link
    actual-argument flows to formal-parameter flows and the callee's return
    flow back to the invoke flow (which represents the returned value in the
    caller). *)

open Skipflow_ir

(** How the worklist is driven: the production deduplicated dirty-bit
    engine, or the retained reference drain (boxed FIFO of one task per
    emit) kept for differential testing and perf baselines. *)
type mode = Dedup | Reference

(** Reference-mode tasks — the original engine's boxed queue entries. *)
type rtask =
  | REnable of Flow.t
  | RInput of Flow.t * Vstate.t
  | RNotify of Flow.t

(** How {!run} ended: at the fixed point, or — in pause-on-budget mode —
    suspended at a task boundary with the whole solver state serialized
    ({!of_snapshot_bytes} continues to the {e identical} fixed point). *)
type outcome = Completed | Paused of string

(** Work and graph-growth accounting, snapshotted from the engine's
    {!Trace} counter registry by {!stats}.  The record is immutable: the
    live, always-updating values are the registry counters themselves
    (names under ["engine."], readable through {!trace_of}). *)
type stats = {
  tasks_processed : int;
      (** worklist entries drained (deduplicated flow drains in {!Dedup}
          mode, boxed tasks in {!Reference} mode) *)
  input_tasks : int;  (** input work items processed *)
  enable_tasks : int;  (** enable work items processed *)
  notify_tasks : int;  (** notify work items processed *)
  dedup_input : int;  (** input emits collapsed into pending work *)
  dedup_enable : int;  (** enable emits collapsed (already enabled/queued) *)
  dedup_notify : int;  (** notify emits collapsed (already queued) *)
  use_edges : int;  (** counted at link time only *)
  links : int;
  max_queue : int;
  live_flows : int;  (** flows created across all reachable PVPGs *)
  budget_trips : int;  (** budget-cap trip events (0 or 1 per run) *)
  trip_tasks : int;  (** tasks drained when the first cap tripped (0: no trip) *)
  trip_flows : int;  (** live flows when the first cap tripped (0: no trip) *)
  degraded : bool;  (** a budget trip switched the run to degradation mode *)
  first_trip : Budget.trip option;  (** which cap tripped first *)
}

let dedup_hits s = s.dedup_input + s.dedup_enable + s.dedup_notify

(** The engine's registered counters — monotonic boxes in the run's
    {!Trace} registry; incrementing one is a single store, exactly what
    the old mutable stats fields cost. *)
type counters = {
  c_tasks : Trace.counter;
  c_input : Trace.counter;
  c_enable : Trace.counter;
  c_notify : Trace.counter;
  c_dedup_input : Trace.counter;
  c_dedup_enable : Trace.counter;
  c_dedup_notify : Trace.counter;
  c_use_edges : Trace.counter;
  c_links : Trace.counter;
  c_max_queue : Trace.counter;
  c_live_flows : Trace.counter;
  c_budget_trips : Trace.counter;
  c_trip_tasks : Trace.counter;
  c_trip_flows : Trace.counter;
  c_build_us : Trace.counter;
      (** wall time spent constructing PVPGs, accumulated across every
          {!Build.run} call (only ticks when the trace has timers on) *)
}

let register_counters tr =
  {
    c_tasks = Trace.counter tr "engine.tasks_processed";
    c_input = Trace.counter tr "engine.input_tasks";
    c_enable = Trace.counter tr "engine.enable_tasks";
    c_notify = Trace.counter tr "engine.notify_tasks";
    c_dedup_input = Trace.counter tr "engine.dedup_input";
    c_dedup_enable = Trace.counter tr "engine.dedup_enable";
    c_dedup_notify = Trace.counter tr "engine.dedup_notify";
    c_use_edges = Trace.counter tr "engine.use_edges";
    c_links = Trace.counter tr "engine.links";
    c_max_queue = Trace.counter tr "engine.max_queue";
    c_live_flows = Trace.counter tr "engine.live_flows";
    c_budget_trips = Trace.counter tr "engine.budget_trips";
    c_trip_tasks = Trace.counter tr "engine.trip_tasks";
    c_trip_flows = Trace.counter tr "engine.trip_flows";
    c_build_us = Trace.counter tr "build.wall_us";
  }

type t = {
  prog : Program.t;
  config : Config.t;
  masks : Masks.t;
  mode : mode;
  trace : Trace.t;  (** counter registry + optional timers / event buffer *)
  c : counters;  (** the engine's counters, registered in [trace] *)
  wl : Worklist.t;  (** the ring of dirty flow ids *)
  mutable emit : Edges.emit;  (** scheduling hooks, tied by {!tie_emit} *)
  mutable sync_depth : int;
      (** current depth of synchronous (drain-free) processing; beyond
          {!sync_depth_limit} the work is scheduled instead, keeping the
          OCaml stack bounded on deep predicate/call chains *)
  mutable probe : unit -> unit;
      (** in-flight budget probe, installed by {!run} for the duration of
          the drain and called inside the invoke/field re-resolution loops
          so a single mega-flow cannot overshoot the budget by more than
          one link's worth of work; a no-op outside a run *)
  mutable links_at_task : int;
      (** [c_links] value at the current task's start, so the in-task
          probe charges only the links made {e inside} this task toward
          [max_tasks] — [c_links] itself is run-cumulative (and restored
          across resumes), and charging it whole would trip the task cap
          near [tasks + total_links] instead of [tasks] *)
  rqueue : rtask Queue.t;  (** reference-mode boxed FIFO *)
  graphs : Graph.method_graph Ids.Meth.Tbl.t;
  mutable reachable_order : Program.meth list;  (** reverse discovery order *)
  mutable roots : Ids.Meth.Set.t;  (** methods registered via {!add_root} *)
  field_flows : Flow.t Ids.Field.Tbl.t;
  all_inst : Flow.t Ids.Class.Tbl.t;
  all_inst_rev : Flow.t list array;
      (** reverse subtype index: class id -> the [all_inst] flows whose
          subtype mask contains it, so {!mark_instantiated} updates exactly
          the affected flows instead of scanning the whole table *)
  all_inst_any : Flow.t;
      (** all instantiated types, regardless of declared type; feeds
          saturated flows *)
  mutable instantiated : Typeset.t;
  pred_on : Flow.t;
  mutable degraded : bool;  (** a budget trip switched the run to degradation mode *)
  mutable first_trip : Budget.trip option;  (** which cap tripped first *)
  mutable pause_pending : bool;
      (** pause-on-budget mode: a cap tripped; stop at the next task
          boundary and snapshot instead of degrading *)
}

let flow_meth_id (f : Flow.t) =
  match f.Flow.meth with Some m -> Ids.Meth.to_int m | None -> -1

let sync_depth_limit = 200

let always_on kind state =
  let f = Flow.make kind in
  f.Flow.enabled <- true;
  f.Flow.raw <- state;
  f.Flow.state <- state;
  f

(* ---------------------------- scheduling ------------------------------ *)

let track_queue t len = Trace.record_max t.c.c_max_queue len

(** Set a dirty bit and enqueue the flow unless it is already pending.
    Returns [false] when the work merged into an existing entry. *)
let schedule t (f : Flow.t) bit =
  let w = f.Flow.work in
  f.Flow.work <- w lor bit lor Flow.wk_pending;
  if w land Flow.wk_pending = 0 then begin
    Worklist.push t.wl f;
    track_queue t (Worklist.length t.wl);
    true
  end
  else false

(* ------------------------- global flows ------------------------------ *)

(** The global flow holding all instantiated subtypes of [c] (including
    types instantiated later).  Implements the "any instantiated subtype of
    the declared type" policy for root-method parameters (Section 5). *)
let all_inst_flow t (c : Ids.Class.t) =
  match Ids.Class.Tbl.find_opt t.all_inst c with
  | Some f -> f
  | None ->
      let mask = Masks.sub t.masks c in
      let init = Vstate.types (Typeset.inter t.instantiated mask) in
      let f = always_on (Flow.All_instantiated c) init in
      Ids.Class.Tbl.replace t.all_inst c f;
      (* register in the reverse index so later instantiations of any
         subtype reach this flow directly *)
      Typeset.iter
        (fun ci -> t.all_inst_rev.(ci) <- f :: t.all_inst_rev.(ci))
        mask;
      f

(** Default value of a field before any store is observed: [null] for
    object fields, [0] for primitive fields (Java default initialization;
    needed for soundness with respect to the concrete interpreter). *)
let field_default t (fld : Program.field) =
  match fld.Program.f_ty with
  | Ty.Obj _ | Ty.Null -> Vstate.null
  | Ty.Int | Ty.Bool -> if t.config.Config.primitives then Vstate.const 0 else Vstate.any
  | Ty.Void -> Vstate.empty

let field_flow t (fid : Ids.Field.t) =
  match Ids.Field.Tbl.find_opt t.field_flows fid with
  | Some f -> f
  | None ->
      let fld = Program.field t.prog fid in
      let f = always_on (Flow.Field_state fid) (field_default t fld) in
      Ids.Field.Tbl.replace t.field_flows fid f;
      f

(* --------------------------- propagation ------------------------------ *)

let gen_value t (f : Flow.t) =
  match f.Flow.kind with
  | Flow.Source v -> v
  | Flow.Alloc c -> Vstate.of_class c
  | Flow.Phi_pred -> Vstate.const 1 (* reachability token *)
  | Flow.Return -> (
      (* A method with void return type still returns the predicate of the
         return instruction as an artificial value (Section 3). *)
      match f.Flow.meth with
      | Some m when Ty.equal (Program.meth t.prog m).Program.m_ret_ty Ty.Void ->
          Vstate.const 0
      | _ -> Vstate.empty)
  | _ -> Vstate.empty

(* The emit functions, state-change propagation, and the reachability /
   linking rules are one mutually recursive block: the deduplicated
   engine processes cheap-to-collapse work {e synchronously} instead of
   scheduling a drain for it —

   - an input emit on a {e disabled} flow folds the filter in place
     (disabled flows push nothing to uses/preds, so only observers must
     hear about the growth, and notifying them is itself an emit);
   - an enable emit runs {!enable} immediately (a flow is enabled at most
     once, so there is never a second enable to merge with), up to
     {!sync_depth_limit} — past it, deep predicate/call chains fall back
     to the worklist so the OCaml stack stays bounded.

   Both are just different schedules of the same chaotic iteration: all
   transfer functions are monotone joins, so the fixed point is unchanged
   (the differential tests against {!Reference} mode check this). *)

(* Which primitive sublattice joins and comparison filters run on —
   threaded from the configuration into every join/filter site so flat
   runs stay bit-identical to the pre-product engine. *)
let pval_of t = t.config.Config.pval

let rec emit_input t (f : Flow.t) v =
  match t.mode with
  | Reference ->
      Queue.add (RInput (f, v)) t.rqueue;
      track_queue t (Queue.length t.rqueue)
  | Dedup ->
      (* the join happens here, eagerly: a value already below VS_in
         needs no task at all, and concurrent growth merges into one
         drain.  The [leq] test first keeps the common already-subsumed
         case allocation-free (no union is built); when it fails the join
         is a strict growth, so no equality re-check is needed either. *)
      if Vstate.leq v f.Flow.raw then Trace.incr t.c.c_dedup_input
      else begin
        f.Flow.raw <- Vstate.join ~pval:(pval_of t) f.Flow.raw v;
        if not f.Flow.enabled then begin
          Trace.incr t.c.c_input;
          recompute t f
        end
        else if not (schedule t f Flow.wk_recompute) then
          Trace.incr t.c.c_dedup_input
      end

and emit_enable t (f : Flow.t) =
  match t.mode with
  | Reference ->
      Queue.add (REnable f) t.rqueue;
      track_queue t (Queue.length t.rqueue)
  | Dedup ->
      if f.Flow.enabled || f.Flow.work land Flow.wk_enable <> 0 then
        Trace.incr t.c.c_dedup_enable
      else if t.sync_depth < sync_depth_limit then begin
        Trace.incr t.c.c_enable;
        t.sync_depth <- t.sync_depth + 1;
        enable t f;
        t.sync_depth <- t.sync_depth - 1
      end
      else if not (schedule t f Flow.wk_enable) then
        Trace.incr t.c.c_dedup_enable

and emit_notify t (f : Flow.t) =
  match t.mode with
  | Reference ->
      Queue.add (RNotify f) t.rqueue;
      track_queue t (Queue.length t.rqueue)
  | Dedup ->
      if f.Flow.work land Flow.wk_notify <> 0 then
        Trace.incr t.c.c_dedup_notify
      else if not (schedule t f Flow.wk_notify) then
        Trace.incr t.c.c_dedup_notify

and saturate_check t (f : Flow.t) (s : Vstate.t) =
  match (t.config.Config.saturation, s) with
  | Some cutoff, Vstate.Types ts
    when (not f.Flow.saturated) && Typeset.cardinal ts > cutoff -> (
      f.Flow.saturated <- true;
      if Trace.events_on t.trace then
        Trace.event t.trace ~kind:"saturate" ~flow:f.Flow.id
          ~meth:(flow_meth_id f) ~arg:(Typeset.cardinal ts) ();
      Edges.use_edge ~emit:t.emit t.all_inst_any f)
  | _ -> ()

and on_state_change t (f : Flow.t) =
  if f.Flow.enabled then begin
    if not (Vstate.is_empty f.Flow.state) then begin
      List.iter (fun u -> emit_input t u f.Flow.state) f.Flow.uses;
      List.iter (fun p -> emit_enable t p) f.Flow.pred_out
    end
  end;
  List.iter (fun o -> emit_notify t o) f.Flow.observers

and recompute t (f : Flow.t) =
  match t.mode with
  | Reference ->
      (* The original implementation, retained verbatim so the reference
         baseline keeps its pre-optimization cost profile: join first,
         compare after (one transient value-state allocation per call). *)
      let pval = pval_of t in
      let s' =
        Vstate.join_unshared ~pval f.Flow.state (Flow.apply_filter ~pval f f.Flow.raw)
      in
      if not (Vstate.equal s' f.Flow.state) then begin
        f.Flow.state <- s';
        if Trace.events_on t.trace then
          Trace.event t.trace ~kind:"join" ~flow:f.Flow.id ~meth:(flow_meth_id f) ();
        saturate_check t f s';
        on_state_change t f
      end
  | Dedup ->
      let s = Flow.apply_filter ~pval:(pval_of t) f f.Flow.raw in
      (* Joining with the previous state keeps the per-flow state monotone
         even while an observed operand is still growing; the [leq] test
         makes the already-covered case allocation-free. *)
      if not (Vstate.leq s f.Flow.state) then begin
        let s = Vstate.join ~pval:(pval_of t) f.Flow.state s in
        f.Flow.state <- s;
        if Trace.events_on t.trace then
          Trace.event t.trace ~kind:"join" ~flow:f.Flow.id ~meth:(flow_meth_id f) ();
        saturate_check t f s;
        on_state_change t f
      end

(** Synchronous join-and-recompute, used by reference-mode input tasks and
    by {!mark_instantiated} (which updates global flows directly). *)
and input t (f : Flow.t) v =
  match t.mode with
  | Reference ->
      (* original join-then-compare form (see {!recompute}) *)
      let raw' = Vstate.join_unshared ~pval:(pval_of t) f.Flow.raw v in
      if not (Vstate.equal raw' f.Flow.raw) then begin
        f.Flow.raw <- raw';
        recompute t f
      end
  | Dedup ->
      if not (Vstate.leq v f.Flow.raw) then begin
        f.Flow.raw <- Vstate.join ~pval:(pval_of t) f.Flow.raw v;
        recompute t f
      end

(** Degradation mode (budget exhaustion): precision is abandoned, never
    soundness.  Every flow is force-enabled (as in the no-predicates
    baseline); flows holding type sets are saturated onto the global
    all-instantiated flow — exactly the paper's saturation mechanism with
    cutoff 0 — and everything else is widened to the lattice top [Any].
    The result, once the worklist re-drains, is a sound but much coarser
    fixed point: the degraded reachable-method set is a superset of the
    precise one (a property the fuzz harness asserts). *)
and degrade_flow t (f : Flow.t) =
  emit_enable t f;
  (if not f.Flow.saturated then
     match f.Flow.raw with
     | Vstate.Types _ ->
         f.Flow.saturated <- true;
         Edges.use_edge ~emit:t.emit t.all_inst_any f
     | Vstate.Empty | Vstate.Prim _ | Vstate.Any -> emit_input t f Vstate.any);
  (* re-run the flow-specific action against the widened operand states *)
  match f.Flow.kind with
  | Flow.Invoke _ | Flow.Field_load _ | Flow.Field_store _ -> emit_notify t f
  | _ -> ()

(* ----------------------- reachability & linking ----------------------- *)

and ensure_reachable t (m : Program.meth) =
  match Ids.Meth.Tbl.find_opt t.graphs m.Program.m_id with
  | Some g -> g
  | None ->
      let g =
        Trace.timed t.trace t.c.c_build_us (fun () ->
            Build.run
              {
                Build.prog = t.prog;
                config = t.config;
                masks = t.masks;
                pred_on = t.pred_on;
                emit = t.emit;
                field_flow = field_flow t;
                trace = t.trace;
              }
              m)
      in
      Ids.Meth.Tbl.replace t.graphs m.Program.m_id g;
      t.reachable_order <- m :: t.reachable_order;
      Trace.add t.c.c_live_flows (Graph.flow_count g);
      if Trace.events_on t.trace then
        Trace.event t.trace ~kind:"reachable" ~meth:(Ids.Meth.to_int m.Program.m_id)
          ~arg:(Graph.flow_count g) ();
      (* Degradation mode: methods discovered after the budget tripped are
         coarsened on arrival, like everything built before the trip. *)
      if t.degraded then List.iter (degrade_flow t) g.Graph.g_flows
      else if not t.config.Config.predicates then
        (* Baseline configuration: no predicate edges — every flow of a
           reachable method propagates unconditionally. *)
        List.iter (fun f -> emit_enable t f) g.Graph.g_flows;
      g

and link_callee t (inv_flow : Flow.t) (inv : Flow.invoke_site) (callee : Program.meth) =
  if not (Ids.Meth.Set.mem callee.Program.m_id inv.Flow.inv_linked) then begin
    inv.Flow.inv_linked <- Ids.Meth.Set.add callee.Program.m_id inv.Flow.inv_linked;
    Trace.incr t.c.c_links;
    if Trace.events_on t.trace then
      Trace.event t.trace ~kind:"link" ~flow:inv_flow.Flow.id
        ~meth:(flow_meth_id inv_flow)
        ~arg:(Ids.Meth.to_int callee.Program.m_id) ();
    let cg = ensure_reachable t callee in
    let actuals =
      match inv.Flow.inv_recv with
      | Some r when not callee.Program.m_static -> r :: inv.Flow.inv_args
      | _ -> inv.Flow.inv_args
    in
    (if List.length actuals <> List.length cg.Graph.g_params then
       invalid_arg
         (Printf.sprintf "Engine: arity mismatch calling %s (%d actuals, %d formals)"
            (Program.qualified_name t.prog callee.Program.m_id)
            (List.length actuals)
            (List.length cg.Graph.g_params)));
    List.iter2
      (fun a p ->
        Trace.incr t.c.c_use_edges;
        Edges.use_edge ~emit:t.emit a p)
      actuals cg.Graph.g_params;
    (* the invoke flow represents the returned value in the caller *)
    Edges.use_edge ~emit:t.emit cg.Graph.g_return inv_flow
  end

(** The Invoke rule: resolve and link every possible callee.  Virtual
    invokes resolve per receiver type; [null] receivers resolve to nothing
    (a would-be NullPointerException, which the analysis does not model). *)
and try_link t (f : Flow.t) =
  match f.Flow.kind with
  | Flow.Invoke inv when f.Flow.enabled ->
      if inv.Flow.inv_virtual then begin
        let recv =
          match inv.Flow.inv_recv with
          | Some r -> r
          | None -> invalid_arg "Engine: virtual invoke without receiver"
        in
        let tyset =
          match recv.Flow.state with
          | Vstate.Types ts -> ts
          | Vstate.Any ->
              (* Object flows never reach [Any] in well-typed programs;
                 be conservative if they do. *)
              t.instantiated
          | Vstate.Empty | Vstate.Prim _ -> Typeset.empty
        in
        let fresh =
          match t.mode with
          | Reference -> tyset (* pre-PR behavior: re-resolve everything *)
          | Dedup ->
              (* difference propagation: the receiver state only grows, and
                 [Resolve] is deterministic, so types resolved on an
                 earlier notify can be skipped without changing the fixed
                 point *)
              let d = Typeset.diff tyset inv.Flow.inv_seen in
              inv.Flow.inv_seen <- Typeset.union inv.Flow.inv_seen tyset;
              d
        in
        if Trace.events_on t.trace && not (Typeset.is_empty fresh) then
          Trace.event t.trace ~kind:"resolve" ~flow:f.Flow.id
            ~meth:(flow_meth_id f) ~arg:(Typeset.cardinal fresh) ();
        Typeset.iter_classes
          (fun c ->
            if not (Program.is_null_class c) then
              match Program.resolve t.prog ~recv_cls:c ~target:inv.Flow.inv_target with
              | Some callee ->
                  link_callee t f inv callee;
                  (* a single invoke task can resolve arbitrarily many
                     callees; let the budget see each one *)
                  t.probe ()
              | None -> ())
          fresh
      end
      else
        link_callee t f inv (Program.meth t.prog inv.Flow.inv_target)
  | _ -> ()

(** The Load / Store rules: connect the instruction flow with the global
    per-declared-field flows ([LookUp]) of every type in the receiver's
    value state. *)
and try_field t (f : Flow.t) =
  if f.Flow.enabled then
    match f.Flow.kind with
    | Flow.Field_load fa | Flow.Field_store fa ->
        let tyset =
          match fa.Flow.fa_recv.Flow.state with
          | Vstate.Any ->
              (* Object flows only reach [Any] under degradation mode; be
                 conservative, as the Invoke rule is. *)
              t.instantiated
          | s -> Vstate.type_set s
        in
        let tyset =
          match t.mode with
          | Reference -> tyset (* pre-PR behavior: re-look-up everything *)
          | Dedup ->
              (* delta processing, as in the Invoke rule: [LookUp] is
                 deterministic, so seen receiver types can be skipped *)
              let d = Typeset.diff tyset fa.Flow.fa_seen in
              fa.Flow.fa_seen <- Typeset.union fa.Flow.fa_seen tyset;
              d
        in
        Typeset.iter_classes
          (fun c ->
            if not (Program.is_null_class c) then
              match Program.lookup_field t.prog ~recv_cls:c ~field:fa.Flow.fa_field with
              | Some fld ->
                  if not (Ids.Field.Set.mem fld.Program.f_id fa.Flow.fa_linked) then begin
                    fa.Flow.fa_linked <-
                      Ids.Field.Set.add fld.Program.f_id fa.Flow.fa_linked;
                    let ff = field_flow t fld.Program.f_id in
                    (match f.Flow.kind with
                    | Flow.Field_load _ -> Edges.use_edge ~emit:t.emit ff f
                    | _ -> Edges.use_edge ~emit:t.emit f ff);
                    t.probe ()
                  end
              | None -> ())
          tyset
    | _ -> ()

and mark_instantiated t (c : Ids.Class.t) =
  if not (Typeset.class_mem c t.instantiated) then begin
    t.instantiated <- Typeset.class_add c t.instantiated;
    let v = Vstate.of_class c in
    input t t.all_inst_any v;
    (* only the all-inst flows whose subtype mask contains [c], via the
       reverse index — not the whole table *)
    List.iter (fun f -> input t f v) t.all_inst_rev.(Ids.Class.to_int c)
  end

and enable t (f : Flow.t) =
  if not f.Flow.enabled then begin
    f.Flow.enabled <- true;
    if Trace.events_on t.trace then
      Trace.event t.trace ~kind:"enable" ~flow:f.Flow.id ~meth:(flow_meth_id f) ();
    (match f.Flow.kind with Flow.Alloc c -> mark_instantiated t c | _ -> ());
    let gv = gen_value t f in
    let pval = pval_of t in
    if not (Vstate.is_empty gv) then
      f.Flow.raw <- Vstate.join ~pval f.Flow.raw gv;
    let s = Vstate.join ~pval f.Flow.state (Flow.apply_filter ~pval f f.Flow.raw) in
    f.Flow.state <- s;
    saturate_check t f s;
    (* Becoming enabled makes the (possibly previously accumulated) state
       visible to use/predicate successors for the first time, and counts
       as a state change for observers. *)
    on_state_change t f;
    (* enabling gates the flow-specific actions of Figure 15 *)
    match f.Flow.kind with
    | Flow.Invoke _ -> try_link t f
    | Flow.Field_load _ | Flow.Field_store _ -> try_field t f
    | _ -> ()
  end

and notify t (f : Flow.t) =
  match f.Flow.kind with
  | Flow.Invoke _ -> try_link t f
  | Flow.Field_load _ | Flow.Field_store _ -> try_field t f
  | _ ->
      (* comparison filters re-apply their condition against the observed
         operand's new state *)
      recompute t f

let degrade t (trip : Budget.trip) =
  Trace.incr t.c.c_budget_trips;
  if Trace.events_on t.trace then
    Trace.event t.trace ~kind:"degrade"
      ~arg:(match trip with Budget.Tasks -> 0 | Budget.Seconds -> 1 | Budget.Flows -> 2)
      ();
  if not t.degraded then begin
    t.degraded <- true;
    t.first_trip <- Some trip;
    Trace.record_max t.c.c_trip_tasks (Trace.value t.c.c_tasks);
    Trace.record_max t.c.c_trip_flows (Trace.value t.c.c_live_flows);
    (* iterate a snapshot of the discovery list, not the table: degrading
       a flow can link new callees synchronously, growing [t.graphs]
       mid-walk (methods added during the walk are degraded on arrival by
       {!ensure_reachable}) *)
    List.iter
      (fun (m : Program.meth) ->
        match Ids.Meth.Tbl.find_opt t.graphs m.Program.m_id with
        | Some g -> List.iter (degrade_flow t) g.Graph.g_flows
        | None -> ())
      t.reachable_order
  end

(** Tie the engine's emit record to the mutually recursive propagation
    block (the knot {!create} and {!restore} close). *)
let tie_emit t =
  t.emit <-
    {
      Edges.input = emit_input t;
      enable = emit_enable t;
      notify = emit_notify t;
    }

let create ?(mode = Dedup) ?trace prog config =
  ignore (Program.freeze prog);
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  (* the worklist before the global flows below: its base is the first
     flow id minted after it (see {!Worklist.create}) *)
  let wl = Worklist.create () in
  let t =
    {
      prog;
      config;
      masks = Masks.compute prog;
      mode;
      trace;
      c = register_counters trace;
      wl;
      emit = Edges.null_emit;
      sync_depth = 0;
      probe = (fun () -> ());
      links_at_task = 0;
      rqueue = Queue.create ();
      graphs = Ids.Meth.Tbl.create 256;
      reachable_order = [];
      roots = Ids.Meth.Set.empty;
      field_flows = Ids.Field.Tbl.create 64;
      all_inst = Ids.Class.Tbl.create 32;
      all_inst_rev = Array.make (Program.num_classes prog) [];
      all_inst_any = always_on (Flow.All_instantiated Program.null_class) Vstate.empty;
      instantiated = Typeset.empty;
      pred_on = always_on Flow.Pred_on (Vstate.const 1);
      degraded = false;
      first_trip = None;
      pause_pending = false;
    }
  in
  tie_emit t;
  t

(* --------------------------- checkpointing ---------------------------- *)

(** The marshalable image of a paused engine: every piece of [t] except
    the trace registry (counters travel as a name/value list), the
    worklist/queue containers (pending work travels as the flows / boxed
    tasks themselves, dirty bits intact), and the [emit] closures
    (re-tied by {!restore}, like {!create} does).  Flow ids are
    process-global, so the image also records the id counter and the
    worklist base; {!restore} bumps {!Flow.next_id} so ids minted after a
    resume never collide with snapshotted ones. *)
type frozen = {
  fz_prog : Program.t;
  fz_config : Config.t;
  fz_mode : mode;
  fz_graphs : Graph.method_graph Ids.Meth.Tbl.t;
  fz_reachable_order : Program.meth list;
  fz_roots : Ids.Meth.Set.t;
  fz_field_flows : Flow.t Ids.Field.Tbl.t;
  fz_all_inst : Flow.t Ids.Class.Tbl.t;
  fz_all_inst_rev : Flow.t list array;
  fz_all_inst_any : Flow.t;
  fz_instantiated : Typeset.t;
  fz_pred_on : Flow.t;
  fz_pending : Flow.t array;  (** worklist contents, queue order *)
  fz_rpending : rtask list;  (** reference-mode queue contents *)
  fz_counters : (string * int) list;
  fz_wl_base : int;
  fz_next_flow_id : int;
  fz_degraded : bool;
  fz_first_trip : Budget.trip option;
}

let capture t =
  {
    fz_prog = t.prog;
    fz_config = t.config;
    fz_mode = t.mode;
    fz_graphs = t.graphs;
    fz_reachable_order = t.reachable_order;
    fz_roots = t.roots;
    fz_field_flows = t.field_flows;
    fz_all_inst = t.all_inst;
    fz_all_inst_rev = t.all_inst_rev;
    fz_all_inst_any = t.all_inst_any;
    fz_instantiated = t.instantiated;
    fz_pred_on = t.pred_on;
    fz_pending = Worklist.pending t.wl;
    fz_rpending = List.of_seq (Queue.to_seq t.rqueue);
    fz_counters = Trace.counters t.trace;
    fz_wl_base = Worklist.base t.wl;
    fz_next_flow_id = !Flow.next_id;
    fz_degraded = t.degraded;
    fz_first_trip = t.first_trip;
  }

(** Every shared structure — flows appearing both in graphs and in edge
    lists, global tables, the pending queue — is one object graph,
    marshaled in a single call, so sharing and cycles survive the round
    trip.  [frozen] holds no closures (the Marshal invariant). *)
let snapshot_bytes t = Marshal.to_string (capture t) []

let restore ?trace ?budget fz =
  (* ids minted after the resume must not collide with restored flows:
     the worklist side table is indexed by [id - base] *)
  if !Flow.next_id < fz.fz_next_flow_id then Flow.next_id := fz.fz_next_flow_id;
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  let config =
    match budget with
    | None -> fz.fz_config
    | Some b -> { fz.fz_config with Config.budget = b }
  in
  ignore (Program.freeze fz.fz_prog);
  let t =
    {
      prog = fz.fz_prog;
      config;
      masks = Masks.compute fz.fz_prog;
      mode = fz.fz_mode;
      trace;
      c = register_counters trace;
      wl = Worklist.create ~base:fz.fz_wl_base ();
      emit = Edges.null_emit;
      sync_depth = 0;
      probe = (fun () -> ());
      links_at_task = 0;
      rqueue = Queue.create ();
      graphs = fz.fz_graphs;
      reachable_order = fz.fz_reachable_order;
      roots = fz.fz_roots;
      field_flows = fz.fz_field_flows;
      all_inst = fz.fz_all_inst;
      all_inst_rev = fz.fz_all_inst_rev;
      all_inst_any = fz.fz_all_inst_any;
      instantiated = fz.fz_instantiated;
      pred_on = fz.fz_pred_on;
      degraded = fz.fz_degraded;
      first_trip = fz.fz_first_trip;
      pause_pending = false;
    }
  in
  tie_emit t;
  (* the resumed run's counters continue from the snapshotted values *)
  List.iter
    (fun (name, v) -> if v <> 0 then Trace.add (Trace.counter trace name) v)
    fz.fz_counters;
  (* pending flows still carry their dirty bits; re-ring them in order *)
  Array.iter (fun f -> Worklist.push t.wl f) fz.fz_pending;
  List.iter (fun task -> Queue.add task t.rqueue) fz.fz_rpending;
  t

let snapshot_kind = "engine-state"

(* v4: [Config.t] lost the [jobs] field (the frozen image embeds the
   config, so its Marshal layout changed) *)
let snapshot_version = 4

let of_snapshot_bytes ?trace ?budget s =
  match (Marshal.from_string s 0 : frozen) with
  | exception _ -> Error "cannot decode engine snapshot payload"
  | fz -> Ok (restore ?trace ?budget fz)

let save_snapshot t ~path =
  Snapshot.write ~path ~kind:snapshot_kind ~version:snapshot_version
    (snapshot_bytes t)

let load_snapshot ?trace ?budget path =
  match Snapshot.read ~path ~kind:snapshot_kind ~version:snapshot_version with
  | Error e -> Error e
  | Ok payload -> (
      match of_snapshot_bytes ?trace ?budget payload with
      | Ok t -> Ok t
      | Error message -> Error (Snapshot.Bad_payload { path; message }))

let clone ?trace ?budget t =
  (* [capture]'s frozen record aliases the live mutable flows; only a
     Marshal round trip yields an independent copy.  Bytes we just
     produced always decode. *)
  match of_snapshot_bytes ?trace ?budget (snapshot_bytes t) with
  | Ok t' -> t'
  | Error message -> invalid_arg ("Engine.clone: " ^ message)

(* ------------------------------ driver -------------------------------- *)

let add_root ?seed_params t (m : Program.meth) =
  t.roots <- Ids.Meth.Set.add m.Program.m_id t.roots;
  let seed =
    match seed_params with Some s -> s | None -> t.config.Config.seed_root_params
  in
  let g = ensure_reachable t m in
  if seed then begin
    let body = g.Graph.g_body in
    List.iter2
      (fun v pf ->
        match Bl.var_ty body v with
        | Ty.Obj c ->
            Edges.use_edge ~emit:t.emit (all_inst_flow t c) pf;
            emit_input t pf Vstate.null
        | Ty.Int | Ty.Bool -> emit_input t pf Vstate.any
        | Ty.Null | Ty.Void -> ())
      body.Bl.params g.Graph.g_params
  end

(** Drain one deduplicated worklist entry: clear the flow's scheduling
    bits, then run every dirty kind.  Enable first (it folds the pending
    VS_in into the state and runs the flow action), then recompute (a
    no-op if enable just covered it), then notify. *)
let process_flow t (f : Flow.t) =
  Trace.incr t.c.c_tasks;
  t.links_at_task <- Trace.value t.c.c_links;
  let w = f.Flow.work in
  f.Flow.work <- 0;
  if w land Flow.wk_enable <> 0 then begin
    Trace.incr t.c.c_enable;
    enable t f
  end;
  if w land Flow.wk_recompute <> 0 then begin
    Trace.incr t.c.c_input;
    recompute t f
  end;
  if w land Flow.wk_notify <> 0 then begin
    Trace.incr t.c.c_notify;
    notify t f
  end

let process_rtask t task =
  Trace.incr t.c.c_tasks;
  t.links_at_task <- Trace.value t.c.c_links;
  match task with
  | REnable f ->
      Trace.incr t.c.c_enable;
      enable t f
  | RInput (f, v) ->
      Trace.incr t.c.c_input;
      input t f v
  | RNotify f ->
      Trace.incr t.c.c_notify;
      notify t f

(** [run ?random_order ?on_budget t] drains the worklist to the fixed
    point.

    By default pending work is processed FIFO.  With [random_order:seed]
    pending entries are picked pseudo-randomly instead — the fixed point
    must not change (all transfer functions are monotone joins over a
    finite lattice), which the property-test suite verifies by comparing
    runs.

    The run is subject to [t.config.budget].  When a cap trips, the
    reaction is [on_budget]:

    - [`Degrade] (default): switch to degradation mode ({!degrade}) and
      finish at a sound but coarser fixed point instead of aborting;
    - [`Pause]: stop at the next task boundary and return
      [Paused (snapshot)] — no state is widened, and resuming the
      snapshot ({!of_snapshot_bytes} + [run]) continues to the
      {e identical} fixed point, because a fixed point of a monotone
      chaotic iteration does not depend on where the drain was cut.

    Budget checks run after every drained entry and, through the in-task
    probe, after every interprocedural link, so even a single task that
    resolves many callees cannot overshoot a cap by more than one link's
    worth of work.  Once degraded (or once a pause is pending), checks
    stop and the remaining drain runs to its boundary so the final state
    is consistent. *)
let run ?random_order ?(on_budget = `Degrade) t =
  let budget = t.config.Config.budget in
  let start = Unix.gettimeofday () in
  (* clamped against backwards clock steps: a negative elapsed time
     would make the wall budget unreachable *)
  let elapsed_s () = Float.max 0.0 (Unix.gettimeofday () -. start) in
  let trip_reaction trip =
    match on_budget with
    | `Degrade -> degrade t trip
    | `Pause ->
        if not t.pause_pending then begin
          t.pause_pending <- true;
          Trace.incr t.c.c_budget_trips;
          if t.first_trip = None then t.first_trip <- Some trip;
          Trace.record_max t.c.c_trip_tasks (Trace.value t.c.c_tasks);
          Trace.record_max t.c.c_trip_flows (Trace.value t.c.c_live_flows);
          if Trace.events_on t.trace then
            Trace.event t.trace ~kind:"pause"
              ~arg:
                (match trip with
                | Budget.Tasks -> 0
                | Budget.Seconds -> 1
                | Budget.Flows -> 2)
              ()
        end
  in
  let live () = (not t.degraded) && not t.pause_pending in
  let step_budget () =
    if live () && not (Budget.is_unlimited budget) then
      match
        Budget.check budget ~tasks:(Trace.value t.c.c_tasks)
          ~flows:(Trace.value t.c.c_live_flows) ~elapsed_s
      with
      | Some trip -> trip_reaction trip
      | None -> ()
  in
  (* installed on the engine for the duration of the run; called from the
     invoke/field re-resolution loops (see {!Budget.check_work}) *)
  let probe () =
    if live () && not (Budget.is_unlimited budget) then
      match
        Budget.check_work budget ~tasks:(Trace.value t.c.c_tasks)
          ~links:(Trace.value t.c.c_links - t.links_at_task)
          ~flows:(Trace.value t.c.c_live_flows) ~elapsed_s
      with
      | Some trip -> trip_reaction trip
      | None -> ()
  in
  t.probe <- probe;
  (* links made before the first task (root seeding, restored counters)
     are not this task's work *)
  t.links_at_task <- Trace.value t.c.c_links;
  let drain_fifo () =
    match t.mode with
    | Dedup ->
        while (not t.pause_pending) && not (Worklist.is_empty t.wl) do
          process_flow t (Worklist.pop_exn t.wl);
          step_budget ()
        done
    | Reference ->
        let continue_ = ref true in
        while !continue_ && not t.pause_pending do
          match Queue.take_opt t.rqueue with
          | None -> continue_ := false
          | Some task ->
              process_rtask t task;
              step_budget ()
        done
  in
  let drain_random seed =
    (* array-backed bag with swap-remove; deterministic LCG.  In dedup
       mode the bag holds pending flows (their [wk_pending] bit stays set
       while bagged, so emits keep merging into them); in reference mode
       it holds boxed tasks, as the original implementation did. *)
    let state = ref (seed land 0x3FFFFFFF) in
    let next bound =
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      !state mod bound
    in
    let swap_drain :
        'a. 'a array ref -> int ref -> (unit -> unit) -> ('a -> unit) ->
        ('a -> unit) -> unit =
     fun bag len refill process reschedule ->
      refill ();
      while !len > 0 do
        let i = next !len in
        let x = !bag.(i) in
        !bag.(i) <- !bag.(!len - 1);
        decr len;
        process x;
        step_budget ();
        if t.pause_pending then begin
          (* hand the still-bagged entries back to the queue so the
             snapshot sees them as pending work *)
          for k = 0 to !len - 1 do
            reschedule !bag.(k)
          done;
          len := 0
        end
        else if !len = 0 then refill ()
      done
    in
    match t.mode with
    | Dedup ->
        let bag = ref [||] and len = ref 0 in
        let refill () =
          let a = Worklist.pop_all t.wl in
          if Array.length a > 0 then begin
            bag := a;
            len := Array.length a
          end
        in
        swap_drain bag len refill (process_flow t) (Worklist.push t.wl)
    | Reference ->
        let bag = ref [||] and len = ref 0 in
        let refill () =
          let l = Queue.length t.rqueue in
          if l > 0 then begin
            bag := Array.init l (fun _ -> Queue.pop t.rqueue);
            len := l
          end
        in
        swap_drain bag len refill (process_rtask t) (fun task ->
            Queue.add task t.rqueue)
  in
  let drain () =
    match random_order with None -> drain_fifo () | Some s -> drain_random s
  in
  drain ();
  if t.pause_pending then begin
    t.pause_pending <- false;
    t.probe <- (fun () -> ());
    Paused (snapshot_bytes t)
  end
  else if t.degraded then begin
    (* Degradation introduces [Any] object states.  An invoke (or field
       access) observing an [Any] receiver no longer sees incremental
       notifications when further types are instantiated (its receiver
       state cannot grow past top), so close the fixed point explicitly:
       re-run every flow-specific action and re-drain until the linked
       sets stop changing.  Each pass only adds links/graphs, so this
       terminates. *)
    let signature () =
      let field_links = ref 0 in
      Ids.Meth.Tbl.iter
        (fun _ g ->
          List.iter
            (fun (f : Flow.t) ->
              match f.Flow.kind with
              | Flow.Field_load fa | Flow.Field_store fa ->
                  field_links := !field_links + Ids.Field.Set.cardinal fa.Flow.fa_linked
              | _ -> ())
            g.Graph.g_flows)
        t.graphs;
      (Ids.Meth.Tbl.length t.graphs, Trace.value t.c.c_links, !field_links)
    in
    let rec close prev =
      (* snapshot: notifying can link new callees and grow [t.graphs]
         mid-walk; the next round covers the newcomers *)
      List.iter
        (fun (m : Program.meth) ->
          match Ids.Meth.Tbl.find_opt t.graphs m.Program.m_id with
          | Some g -> List.iter (fun f -> notify t f) g.Graph.g_flows
          | None -> ())
        t.reachable_order;
      drain ();
      let s = signature () in
      if s <> prev then close s
    in
    close (signature ());
    t.probe <- (fun () -> ());
    Completed
  end
  else begin
    t.probe <- (fun () -> ());
    Completed
  end

(* ------------------------------ results ------------------------------- *)

let prog_of t = t.prog
let config_of t = t.config

let roots t = t.roots
let is_reachable t (m : Ids.Meth.t) = Ids.Meth.Tbl.mem t.graphs m

let reachable_methods t = List.rev t.reachable_order

let reachable_count t = Ids.Meth.Tbl.length t.graphs

let graphs t =
  List.rev_map
    (fun m -> Ids.Meth.Tbl.find t.graphs m.Program.m_id)
    t.reachable_order

let graph_of t (m : Ids.Meth.t) = Ids.Meth.Tbl.find_opt t.graphs m

let instantiated_types t = Typeset.classes t.instantiated

let instantiated t = t.instantiated

let is_degraded t = t.degraded

let trace_of t = t.trace

let stats t =
  let c = t.c in
  {
    tasks_processed = Trace.value c.c_tasks;
    input_tasks = Trace.value c.c_input;
    enable_tasks = Trace.value c.c_enable;
    notify_tasks = Trace.value c.c_notify;
    dedup_input = Trace.value c.c_dedup_input;
    dedup_enable = Trace.value c.c_dedup_enable;
    dedup_notify = Trace.value c.c_dedup_notify;
    use_edges = Trace.value c.c_use_edges;
    links = Trace.value c.c_links;
    max_queue = Trace.value c.c_max_queue;
    live_flows = Trace.value c.c_live_flows;
    budget_trips = Trace.value c.c_budget_trips;
    trip_tasks = Trace.value c.c_trip_tasks;
    trip_flows = Trace.value c.c_trip_flows;
    degraded = t.degraded;
    first_trip = t.first_trip;
  }
