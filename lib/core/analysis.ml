(** Top-level analysis driver: build the engine, register roots, solve to a
    fixed point, and collect metrics.  This is the entry point examples,
    tests, the CLI and the benchmark harness use. *)

open Skipflow_ir

type result = {
  config : Config.t;
  engine : Engine.t;
  outcome : Engine.outcome;
      (** [Paused snapshot] only when [run] was called with
          [on_budget:`Pause] and a budget cap tripped *)
  metrics : Metrics.t;
  trace : Trace.t;
      (** the run's counters, and — when requested at creation — its
          phase timings and solver event stream *)
  cpu_time_s : float;
      (** CPU time of graph construction + solving ([Sys.time]-based; the
          benchmark harness measures wall-clock time around [run]
          itself). *)
}

let finish ?random_order ?on_budget ~config ~trace ~t0 engine =
  let outcome =
    Trace.with_phase trace "solve" (fun () ->
        Engine.run ?random_order ?on_budget engine)
  in
  let metrics = Trace.with_phase trace "metrics" (fun () -> Metrics.compute engine) in
  let cpu_time_s = Sys.time () -. t0 in
  { config; engine; outcome; metrics; trace; cpu_time_s }

(** [run ~config prog ~roots] analyzes [prog] starting from the given root
    methods.  Root-method parameters are seeded according to
    [config.seed_root_params] (Section 5's reflection/JNI policy). *)
let run ?(config = Config.skipflow) ?random_order ?on_budget ?mode ?trace
    (prog : Program.t) ~(roots : Program.meth list) =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  let t0 = Sys.time () in
  let engine = Engine.create ?mode ~trace prog config in
  Trace.with_phase trace "roots" (fun () ->
      List.iter (fun m -> Engine.add_root engine m) roots);
  finish ?random_order ?on_budget ~config ~trace ~t0 engine

(** [resume bytes] continues a paused solve from a [Paused] payload (or
    {!Engine.snapshot_bytes} output) to the fixed point the uninterrupted
    run would have reached.  [budget] (commonly {!Budget.unlimited})
    replaces the snapshotted budget; with neither a new budget nor
    [on_budget:`Pause] the resumed run would degrade at the very cap that
    paused it. *)
let resume ?random_order ?on_budget ?budget ?trace bytes =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  let t0 = Sys.time () in
  match Engine.of_snapshot_bytes ~trace ?budget bytes with
  | Error _ as e -> e
  | Ok engine ->
      Ok
        (finish ?random_order ?on_budget ~config:(Engine.config_of engine)
           ~trace ~t0 engine)

(** [rerun engine] drives an already-constructed engine (back) to its
    fixed point and recomputes metrics — the incremental-analysis path: a
    solved engine that just gained roots via {!Engine.add_root} re-drains
    from the new boundary flows only, and monotonicity guarantees the
    resulting fixed point is the one a from-scratch solve over the grown
    root set would reach. *)
let rerun ?random_order ?on_budget ?trace engine =
  let trace =
    match trace with Some tr -> tr | None -> Engine.trace_of engine
  in
  let t0 = Sys.time () in
  finish ?random_order ?on_budget ~config:(Engine.config_of engine) ~trace
    ~t0 engine

(** Convenience: resolve root methods by ["Class.method"] qualified names. *)
let roots_by_name (prog : Program.t) names =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | qname :: rest -> (
        match String.split_on_char '.' qname with
        | [ cname; mname ] -> (
            match Program.find_class prog cname with
            | Some c -> (
                match Program.find_meth prog c mname with
                | Some m -> go (m :: acc) rest
                | None ->
                    Error
                      (Printf.sprintf "unknown method %s in class %s" mname cname))
            | None -> Error (Printf.sprintf "unknown class %s" cname))
        | _ ->
            Error
              (Printf.sprintf "malformed root %S: expected Class.method" qname))
  in
  go [] names

let reachable_names (r : result) =
  List.map
    (fun (m : Program.meth) ->
      Program.qualified_name (Engine.prog_of r.engine) m.Program.m_id)
    (Engine.reachable_methods r.engine)
