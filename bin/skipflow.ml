(** The [skipflow] command-line tool.

    Subcommands:
    - [analyze FILE.mj] — run an analysis on a MiniJava program and report
      reachable methods and metrics; optionally dump the PVPG as DOT or the
      lowered IR;
    - [compare FILE.mj] — run SkipFlow, PTA, RTA and CHA side by side;
    - [lint FILE.mj] — fixed-point-driven checks (dead methods/branches,
      impossible casts, null dereferences, devirtualizable calls) rendered
      as caret diagnostics or JSON;
    - [run FILE.mj] — execute the program in the concrete interpreter;
    - [fuzz] — randomized robustness harness over generated programs;
    - [gen] — emit a synthetic benchmark program as MiniJava source;
    - [bench-list] — list the benchmark catalog.

    Exit codes: 0 success; 1 analysis error (certifier violations, fuzz
    failures); 2 input error (bad source, bad roots — rendered as caret
    diagnostics); 3 a resource budget tripped and the result is degraded
    but [--allow-degraded] was not given. *)

open Skipflow_ir
module Api = Skipflow_api
module C = Skipflow_core
module F = Skipflow_frontend
module W = Skipflow_workloads
module K = Skipflow_checks
module S = Skipflow_serve
open Cmdliner

let exit_analysis_error = 1
let exit_input_error = 2
let exit_degraded = 3

(** Render a facade error and exit with its documented code (the facade
    owns the error-to-exit-code contract). *)
let fail_api_error (e : Api.error) : 'a =
  Api.render_error Format.err_formatter e;
  exit (Api.exit_code_of_error e)

(** The machine-readable failure object: every {!Api.error} variant maps
    to a stable [kind] (see {!Api.error_kind}) plus its documented exit
    code; compile errors carry their positioned diagnostics.  The shape
    is owned by the serve protocol so the one-shot CLI and the daemon
    can never drift apart. *)
let error_json (e : Api.error) = S.Protocol.api_error_json e

(** Format-aware failure: under [--format json] the error object goes to
    stdout (machine-consumable, stderr left clean); under text, carets go
    to stderr as always.  Either way the exit code is the facade's. *)
let fail_error ~format (e : Api.error) : 'a =
  match format with
  | `Text -> fail_api_error e
  | `Json ->
      print_string (K.Json.to_string (error_json e));
      exit (Api.exit_code_of_error e)

let ok_or_fail = function Ok v -> v | Error e -> fail_api_error e

(** Compile [file] through the facade, rendering caret diagnostics on
    stderr and exiting with the input-error code on failure. *)
let load_program ?trace file =
  fst (ok_or_fail (Api.compile ?trace (`File file)))

let roots_of prog names = ok_or_fail (Api.resolve_roots prog names)

(* ------------------------------- analyze ------------------------------ *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.mj" ~doc:"MiniJava source file")

(* the enum maps names straight to configurations: there is no string to
   re-validate downstream *)
let pval_arg =
  Arg.(
    value
    & opt (enum [ ("flat", C.Pval.Flat); ("product", C.Pval.Product) ]) C.Pval.Flat
    & info [ "pval" ] ~docv:"DOMAIN"
        ~doc:
          "Primitive value domain: flat (constants only, the default) or \
           product (reduced product of constants and integer intervals — \
           predicate edges then filter ranges, not just constants)")

let durability_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("none", C.Io.D_none); ("flush", C.Io.D_flush);
             ("fsync", C.Io.D_fsync) ])
        C.Io.D_flush
    & info [ "durability" ] ~docv:"LEVEL"
        ~doc:
          "How hard persisted state (snapshots, cache entries, journals, \
           trace exports) hits the disk: none (buffer in user space until \
           close), flush (complete every write(2) before reporting \
           success; the default, byte-identical to previous releases), or \
           fsync (additionally fsync files, parent directories, and every \
           journal line — survives power loss).  Never changes analysis \
           results, only when bytes are safe")

let analysis_arg =
  let base =
    Arg.(
      value
      & opt (enum
               [ ("skipflow", C.Config.skipflow); ("pta", C.Config.pta);
                 ("preds-only", C.Config.predicates_only);
                 ("prims-only", C.Config.primitives_only) ])
          C.Config.skipflow
      & info [ "a"; "analysis" ] ~doc:"Analysis configuration: skipflow, pta, preds-only, prims-only")
  in
  (* --pval composes with every configuration, so every subcommand that
     takes --analysis accepts it with no extra plumbing.  --durability
     rides along the same way but is process state, not configuration:
     it can never change results (which is why the cache fingerprint
     ignores it). *)
  Term.(
    const (fun config pval durability ->
        C.Io.set_durability durability;
        { config with C.Config.pval })
    $ base $ pval_arg $ durability_arg)

let roots_arg =
  Arg.(value & opt_all string [] & info [ "root" ] ~docv:"Class.method" ~doc:"Root method (repeatable); defaults to the static main")

let list_arg = Arg.(value & flag & info [ "list-reachable" ] ~doc:"Print every reachable method")
let dot_arg = Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"OUT.dot" ~doc:"Dump the fixed-point PVPG as Graphviz")
let ir_arg = Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the lowered SSA base-language IR")
let sat_arg = Arg.(value & opt (some int) None & info [ "saturation" ] ~docv:"K" ~doc:"Enable type-set saturation with cutoff K")

let max_tasks_arg =
  Arg.(value & opt (some int) None & info [ "max-tasks" ] ~docv:"N" ~doc:"Budget: cap on worklist tasks; on trip the engine degrades to a sound, coarser fixed point")

let timeout_arg =
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Budget: wall-clock cap on the fixed-point solve")

let max_flows_arg =
  Arg.(value & opt (some int) None & info [ "max-flows" ] ~docv:"N" ~doc:"Budget: cap on live flows across all reachable methods")

let allow_degraded_arg =
  Arg.(value & flag & info [ "allow-degraded" ] ~doc:"Exit 0 instead of 3 when a budget trips and the result is degraded")

let engine_arg =
  Arg.(
    value
    & opt (enum [ ("dedup", C.Engine.Dedup); ("ref", C.Engine.Reference) ])
        C.Engine.Dedup
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:"Worklist engine: dedup (deduplicated dirty-flow worklist, the default) or ref (the boxed-FIFO reference drain; same fixed point, more tasks)")

(** Per-task-kind and dedup breakdown of the solver work, printed after
    the Table 1 metrics. *)
let pp_engine_stats ppf (s : C.Engine.stats) =
  Format.fprintf ppf
    "@[<v>worklist drains:  %d (input %d, enable %d, notify %d)@,\
     dedup hits:       %d (input %d, enable %d, notify %d)@,\
     max queue:        %d@]"
    s.C.Engine.tasks_processed s.C.Engine.input_tasks s.C.Engine.enable_tasks
    s.C.Engine.notify_tasks (C.Engine.dedup_hits s) s.C.Engine.dedup_input
    s.C.Engine.dedup_enable s.C.Engine.dedup_notify s.C.Engine.max_queue

let budget_of ~max_tasks ~timeout ~max_flows =
  C.Budget.{ max_tasks; max_seconds = timeout; max_flows }

(** Shared tail: report degradation and exit 3 unless it was opted into. *)
let finish_degradation_metrics (m : C.Metrics.t) ~allow_degraded =
  if m.C.Metrics.degraded then
    if allow_degraded then
      Format.eprintf "warning: budget exhausted; results are sound but degraded@."
    else begin
      Format.eprintf
        "error: budget exhausted; results are degraded (re-run with --allow-degraded to accept them)@.";
      exit exit_degraded
    end

(* Shared by analyze and profile: serialize the run's phases and counters
   into the integer-only JSON tree (times are microseconds). *)
let phases_json trace =
  K.Json.Arr
    (List.map
       (fun (p : C.Trace.phase) ->
         K.Json.Obj
           [ ("name", K.Json.Str p.C.Trace.ph_name);
             ("depth", K.Json.Int p.C.Trace.ph_depth);
             ("wall_us", K.Json.Int p.C.Trace.ph_wall_us);
             ("cpu_us", K.Json.Int p.C.Trace.ph_cpu_us);
             ("count", K.Json.Int p.C.Trace.ph_count);
           ])
       (C.Trace.phases trace))

let counters_json trace =
  K.Json.Obj (List.map (fun (name, v) -> (name, K.Json.Int v)) (C.Trace.counters trace))

let analyze_summary_json ~file ~config ~mode ~timings (s : Api.summary) =
  let m = s.Api.metrics in
  K.Json.Obj
    ([
      ("schema_version", K.Json.Int K.Json.current_schema_version);
      ("file", K.Json.Str (Filename.basename file));
      ("analysis", K.Json.Str (C.Config.name config));
      ( "engine",
        K.Json.Str (match mode with C.Engine.Dedup -> "dedup" | C.Engine.Reference -> "ref") );
      ("degraded", K.Json.Bool m.C.Metrics.degraded);
      ( "outcome",
        K.Json.Str
          (match s.Api.outcome with
          | C.Engine.Completed -> "completed"
          | C.Engine.Paused _ -> "paused") );
      ( "metrics",
        K.Json.Obj
          [ ("reachable_methods", K.Json.Int m.C.Metrics.reachable_methods);
            ("type_checks", K.Json.Int m.C.Metrics.type_checks);
            ("null_checks", K.Json.Int m.C.Metrics.null_checks);
            ("prim_checks", K.Json.Int m.C.Metrics.prim_checks);
            ("poly_calls", K.Json.Int m.C.Metrics.poly_calls);
            ("mono_calls", K.Json.Int m.C.Metrics.mono_calls);
            ("binary_size", K.Json.Int m.C.Metrics.binary_size);
            ("flows", K.Json.Int m.C.Metrics.flows);
            ("instantiated_types", K.Json.Int m.C.Metrics.instantiated_types);
          ] );
    ]
    @
    (* timings, phases and counters are run-dependent; dropping them
       makes summaries byte-comparable across runs *)
    if not timings then []
    else
      [
        ("wall_us", K.Json.Int (int_of_float (s.Api.wall_s *. 1e6)));
        ("cpu_us", K.Json.Int (int_of_float (s.Api.cpu_s *. 1e6)));
        ("phases", phases_json s.Api.trace);
        ("counters", counters_json s.Api.trace);
      ])

let format_arg =
  let deprecated_json =
    Arg.(
      value
      & flag
      & info [ "json" ]
          ~deprecated:"use $(b,--format json) instead"
          ~doc:"Deprecated alias for $(b,--format json)")
  in
  let fmt =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format: text (human-readable) or json (schema-versioned summary)")
  in
  Term.(
    const (fun fmt deprecated -> if deprecated then `Json else fmt)
    $ fmt $ deprecated_json)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"OUT.json"
        ~doc:"Write a Chrome trace_event file (phases + solver events), loadable in chrome://tracing or Perfetto")

let trace_jsonl_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-jsonl" ] ~docv:"OUT.jsonl"
        ~doc:"Write the trace as JSON-lines (header, phases, counters, events)")

let timings_arg =
  Arg.(value & flag & info [ "timings" ] ~doc:"Print the per-phase wall/CPU breakdown and the counter registry")

let analyze_no_timings_arg =
  Arg.(
    value
    & flag
    & info [ "no-timings" ]
        ~doc:
          "Omit wall/CPU times, phases, and counters from the output, \
           making summaries byte-comparable across runs")

let snapshot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot" ] ~docv:"OUT.snap"
        ~doc:
          "When a budget cap trips, pause at a task boundary instead of \
           degrading and write the complete solver state to $(docv) \
           (exit 3); resume with $(b,--resume-from)")

let resume_from_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume-from" ] ~docv:"SNAP"
        ~doc:
          "Continue a paused solve from a snapshot file; the resumed run \
           uses the budget flags given here (default: unlimited) and \
           reaches the same fixed point an uninterrupted run would.  A \
           corrupt, truncated, or stale snapshot falls back to a full \
           solve with a warning")

let analyze_cmd =
  let run file config roots list_reachable dot dump_ir saturation max_tasks timeout
      max_flows allow_degraded mode format trace_out trace_jsonl timings
      no_timings snapshot resume_from =
    let want_trace = trace_out <> None || trace_jsonl <> None in
    let trace =
      C.Trace.create
        ~timers:(timings || want_trace || format = `Json)
        ~events:want_trace ()
    in
    let fail e = fail_error ~format e in
    let config =
      { config with
        C.Config.saturation;
        budget = budget_of ~max_tasks ~timeout ~max_flows }
    in
    let on_budget = if snapshot <> None then `Pause else `Degrade in
    let resumed =
      match resume_from with
      | None -> None
      | Some path -> (
          match
            C.Snapshot.read ~path ~kind:C.Engine.snapshot_kind
              ~version:C.Engine.snapshot_version
          with
          | Error e ->
              Format.eprintf "warning: %s; falling back to a full solve@."
                (C.Snapshot.error_message e);
              None
          | Ok bytes -> (
              match
                Api.resume_snapshot ~budget:config.C.Config.budget ~on_budget
                  ~trace bytes
              with
              | Error e ->
                  Format.eprintf "warning: %s; falling back to a full solve@."
                    (Api.error_message e);
                  None
              | Ok s -> Some s))
    in
    let s =
      match resumed with
      | Some s -> s
      | None -> (
          (* the full pipeline, so wall and CPU time cover the frontend *)
          match
            Api.analyze ~config ~mode ~on_budget ~trace ~source:(`File file)
              ~roots ()
          with
          | Ok s -> s
          | Error e -> fail e)
    in
    let prog = C.Engine.prog_of s.Api.engine in
    if dump_ir then Format.printf "%a@." Ir_pp.pp_program prog;
    let meth_name id = Program.qualified_name prog (Ids.Meth.of_int id) in
    let warn_trace = function
      | Ok () -> ()
      | Error e ->
          Format.eprintf "warning: trace export failed: %s@."
            (C.Io.error_message e)
    in
    (match trace_out with
    | Some path -> warn_trace (C.Trace.write_chrome ~meth_name trace path)
    | None -> ());
    (match trace_jsonl with
    | Some path -> warn_trace (C.Trace.write_jsonl ~meth_name trace path)
    | None -> ());
    (match format with
    | `Json ->
        print_string
          (K.Json.to_string
             (analyze_summary_json ~file ~config ~mode ~timings:(not no_timings)
                s))
    | `Text ->
        Format.printf "analysis: %s@." (C.Config.name config);
        Format.printf "%a@." C.Metrics.pp s.Api.metrics;
        Format.printf "%a@." pp_engine_stats (C.Engine.stats s.Api.engine);
        if not no_timings then
          Format.printf "wall time:        %.3f s@." s.Api.wall_s;
        if timings then
          Format.printf "@.%a@.%a@." C.Trace.pp_phases trace C.Trace.pp_counters trace;
        if list_reachable then
          List.iter (fun name -> Format.printf "  %s@." name) s.Api.reachable;
        (match dot with
        | Some path ->
            C.Dot.write_file prog ~path (C.Engine.graphs s.Api.engine);
            Format.printf "PVPG written to %s@." path
        | None -> ()));
    (match (s.Api.outcome, snapshot) with
    | C.Engine.Paused _, Some path -> (
        (* the engine behind a [Paused] outcome is at a task boundary;
           persist it in the checksummed container *)
        match C.Engine.save_snapshot s.Api.engine ~path with
        | Ok () ->
            Format.eprintf
              "budget tripped: solver paused; state written to %s (resume \
               with --resume-from %s)@."
              path path;
            exit exit_degraded
        | Error e ->
            Format.eprintf "error: cannot write snapshot: %s@."
              (C.Snapshot.error_message e);
            exit exit_analysis_error)
    | _ -> ());
    finish_degradation_metrics s.Api.metrics ~allow_degraded
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Analyze a MiniJava program")
    Term.(
      const run $ file_arg $ analysis_arg $ roots_arg $ list_arg $ dot_arg $ ir_arg
      $ sat_arg $ max_tasks_arg $ timeout_arg $ max_flows_arg $ allow_degraded_arg
      $ engine_arg $ format_arg $ trace_arg $ trace_jsonl_arg $ timings_arg
      $ analyze_no_timings_arg $ snapshot_arg $ resume_from_arg)

(* ------------------------------- compare ------------------------------ *)

let compare_cmd =
  let run file roots =
    let prog = load_program file in
    let roots = roots_of prog roots in
    let time f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Float.max 0.0 (Unix.gettimeofday () -. t0))
    in
    let pta, t_pta =
      time (fun () ->
          ok_or_fail (Api.analyze_program ~config:C.Config.pta prog ~roots))
    in
    let sf, t_sf =
      time (fun () ->
          ok_or_fail (Api.analyze_program ~config:C.Config.skipflow prog ~roots))
    in
    let rta, t_rta = time (fun () -> Skipflow_baselines.Rta.run prog ~roots) in
    let cha, t_cha = time (fun () -> Skipflow_baselines.Cha.run prog ~roots) in
    Format.printf "%-10s %10s %10s@." "analysis" "reachable" "time[ms]";
    let row name n t = Format.printf "%-10s %10d %10.1f@." name n (t *. 1000.) in
    row "CHA" (Ids.Meth.Set.cardinal cha.Skipflow_baselines.Cha.reachable) t_cha;
    row "RTA" (Ids.Meth.Set.cardinal rta.Skipflow_baselines.Rta.reachable) t_rta;
    row "PTA" pta.Api.metrics.C.Metrics.reachable_methods t_pta;
    row "SkipFlow" sf.Api.metrics.C.Metrics.reachable_methods t_sf;
    let p = pta.Api.metrics.C.Metrics.reachable_methods in
    let s = sf.Api.metrics.C.Metrics.reachable_methods in
    if p > 0 then
      Format.printf "@.SkipFlow reduction over PTA: %.1f%%@."
        (100. *. float_of_int (p - s) /. float_of_int p)
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare CHA / RTA / PTA / SkipFlow on one program")
    Term.(const run $ file_arg $ roots_arg)

(* ------------------------------ deadcode ------------------------------ *)

let deadcode_cmd =
  let run file roots verify =
    let prog = load_program file in
    let roots = roots_of prog roots in
    let pta = ok_or_fail (Api.analyze_program ~config:C.Config.pta prog ~roots) in
    let sf = ok_or_fail (Api.analyze_program ~config:C.Config.skipflow prog ~roots) in
    let report =
      C.Report.compare_runs ~baseline:pta.Api.engine ~precise:sf.Api.engine
    in
    Format.printf "%a@." C.Report.pp report;
    if verify then begin
      match C.Verify.run sf.Api.engine with
      | [] -> Format.printf "fixed point certified: all Figure 15 rules hold@."
      | vs ->
          Format.printf "FIXED POINT VIOLATIONS:@.";
          List.iter (fun v -> Format.printf "  %s@." v) vs;
          exit exit_analysis_error
    end
  in
  let verify = Arg.(value & flag & info [ "verify" ] ~doc:"Re-check the Figure 15 rules over the fixed point") in
  Cmd.v
    (Cmd.info "deadcode"
       ~doc:"Report dead methods, foldable branches, and devirtualizable calls (SkipFlow vs PTA)")
    Term.(const run $ file_arg $ roots_arg $ verify)

(* -------------------------------- lint -------------------------------- *)

let lint_cmd =
  let list_checks () =
    String.concat ", " (List.map (fun c -> c.K.Checks.id) K.Checks.all)
  in
  let run file config roots checks format fail_on max_tasks timeout max_flows
      allow_degraded =
    let prog, src = ok_or_fail (Api.compile (`File file)) in
    let only =
      match checks with
      | None -> None
      | Some csv ->
          let ids =
            List.filter (fun s -> s <> "") (String.split_on_char ',' csv)
          in
          List.iter
            (fun id ->
              try ignore (K.Checks.find id)
              with K.Checks.Unknown_check id ->
                Format.eprintf "error: unknown check '%s' (available: %s)@." id
                  (list_checks ());
                exit exit_input_error)
            ids;
          Some ids
    in
    let config =
      { config with
        C.Config.budget = budget_of ~max_tasks ~timeout ~max_flows }
    in
    let roots = roots_of prog roots in
    let s = ok_or_fail (Api.analyze_program ~config prog ~roots) in
    let ctx = K.Checks.make_ctx ~engine:s.Api.engine ~roots in
    let findings = K.Checks.run ?only ctx in
    let count sev =
      List.length (List.filter (fun f -> f.K.Finding.severity = sev) findings)
    in
    (match format with
    | `Text ->
        F.Diag.render_all ~file ~src Format.std_formatter
          (List.map K.Finding.to_diag findings);
        Format.printf "%d finding(s): %d error(s), %d warning(s), %d note(s)@."
          (List.length findings) (count K.Finding.Error)
          (count K.Finding.Warning) (count K.Finding.Note)
    | `Json ->
        print_string
          (K.Json.to_string
             (K.Finding.document_to_json ~file:(Filename.basename file)
                ~analysis:(C.Config.name config) findings)));
    finish_degradation_metrics s.Api.metrics ~allow_degraded;
    let fails =
      match fail_on with
      | `Never -> false
      | (`Note | `Warning | `Error) as threshold ->
          let rank =
            K.Finding.severity_rank
              (match threshold with
              | `Note -> K.Finding.Note
              | `Warning -> K.Finding.Warning
              | `Error -> K.Finding.Error)
          in
          List.exists
            (fun f -> K.Finding.severity_rank f.K.Finding.severity >= rank)
            findings
    in
    if fails then exit exit_analysis_error
  in
  let checks_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checks" ] ~docv:"IDS"
          ~doc:
            "Comma-separated checks to run (default: all): dead-method, \
             dead-branch, impossible-cast, null-deref, devirtualize")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text (caret diagnostics) or json")
  in
  let fail_on_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("never", `Never); ("note", `Note); ("warning", `Warning);
               ("error", `Error) ])
          `Warning
      & info [ "fail-on" ] ~docv:"SEV"
          ~doc:
            "Exit 1 when a finding at or above this severity is reported: \
             never, note, warning (default), error")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run fixed-point-driven checks on a MiniJava program (dead methods \
          and branches, impossible casts, null dereferences, \
          devirtualizable calls)")
    Term.(
      const run $ file_arg $ analysis_arg $ roots_arg $ checks_arg $ format_arg
      $ fail_on_arg $ max_tasks_arg $ timeout_arg $ max_flows_arg
      $ allow_degraded_arg)

(* --------------------------------- run -------------------------------- *)

let run_cmd =
  let run file fuel =
    let prog = load_program file in
    match F.Frontend.main_of prog with
    | None ->
        prerr_endline "error: no static main method";
        exit exit_input_error
    | Some main ->
        let trace, halt = Skipflow_interp.Interp.run ~fuel prog main in
        Format.printf "halt: %s@."
          (match halt with
          | Skipflow_interp.Interp.Finished -> "finished"
          | Null_deref -> "null dereference"
          | Div_by_zero -> "division by zero"
          | Out_of_fuel -> "out of fuel"
          | Index_oob -> "array index out of bounds"
          | Class_cast -> "class cast error"
          | Uncaught -> "uncaught exception"
          | Interp_error msg -> "internal interpreter error: " ^ msg);
        Format.printf "steps: %d@." trace.Skipflow_interp.Interp.steps;
        Format.printf "methods executed: %d@."
          (Ids.Meth.Set.cardinal trace.Skipflow_interp.Interp.called);
        Ids.Meth.Set.iter
          (fun m -> Format.printf "  %s@." (Program.qualified_name prog m))
          trace.Skipflow_interp.Interp.called
  in
  let fuel = Arg.(value & opt int 1_000_000 & info [ "fuel" ] ~doc:"Step budget") in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a MiniJava program in the concrete interpreter")
    Term.(const run $ file_arg $ fuel)

(* -------------------------------- fuzz -------------------------------- *)

let fuzz_cmd =
  let run seeds quiet crash chaos =
    let progress =
      if quiet then fun _ -> ()
      else if chaos then fun s ->
        Format.eprintf "fuzz: %d/%d seeds@." (s + 1) seeds
      else fun s ->
        if (s + 1) mod 25 = 0 then Format.eprintf "fuzz: %d/%d seeds@." (s + 1) seeds
    in
    let report =
      Skipflow_fuzz.Fuzz.run ~progress ~crash ~chaos ~seeds ()
    in
    Format.printf "%a@." Skipflow_fuzz.Fuzz.pp_report report;
    if report.Skipflow_fuzz.Fuzz.r_failures <> [] then exit exit_analysis_error
  in
  let seeds = Arg.(value & opt int 100 & info [ "seeds" ] ~docv:"N" ~doc:"Number of random programs to generate and check") in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No progress output") in
  let crash =
    Arg.(
      value
      & flag
      & info [ "crash" ]
          ~doc:
            "Also run the crash-injection matrix: truncate and bit-flip \
             persisted snapshots and cache entries, and check every damaged \
             file is detected, quarantined, and recoverable")
  in
  let chaos =
    Arg.(
      value
      & flag
      & info [ "chaos" ]
          ~doc:
            "Also run the syscall-level crash-point matrix: enumerate \
             every IO operation of every durable-write site (engine \
             snapshot, cache store, serve journal + snapshot), fork a \
             child per operation and kill it there, then demand \
             recovery is the old bytes, the new bytes, or a detected \
             miss — never a torn read; seeded EIO/ENOSPC/EINTR/\
             short-write/torn-rename fault plans run on top")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Fuzz the pipeline: generated programs, every configuration, random worklist orders, tiny budgets; certify every fixed point against the interpreter")
    Term.(const run $ seeds $ quiet $ crash $ chaos)

(* -------------------------------- batch ------------------------------- *)

(* The batch driver: [analyze] over a manifest of jobs with fault
   isolation.  Each job runs in a forked child by default, so a crash (or
   the per-job watchdog's SIGKILL) is contained to a per-job error record
   instead of taking the batch down; transient I/O errors retry with
   exponential backoff; successful results can be cached by content hash;
   every completed job is journaled so an interrupted batch re-run with
   [--resume] skips finished work and produces the same summary. *)

let batch_schema_version = 1

let mkdir_p path = ignore (C.Io.mkdir_p path)

(** What one job produced, as exchanged between the forked worker and the
    driver (a single JSON object on a temp file). *)
type job_result = {
  b_status : string;  (** ["ok" | "degraded" | "failed" | "quarantined"] *)
  b_exit : int;  (** the job's own exit-code contract: 0, 1, or 2 *)
  b_error_kind : string option;
      (** {!Api.error_kind}, or the driver's ["crash"] / ["timeout"] *)
  b_detail : string option;
  b_reachable : int option;
  b_wall_us : int;
}

let job_result_json r =
  K.Json.Obj
    ([ ("status", K.Json.Str r.b_status);
       ("exit_code", K.Json.Int r.b_exit);
       ("wall_us", K.Json.Int r.b_wall_us);
     ]
    @ (match r.b_reachable with
      | Some n -> [ ("reachable_methods", K.Json.Int n) ]
      | None -> [])
    @ (match r.b_error_kind with
      | Some k -> [ ("error_kind", K.Json.Str k) ]
      | None -> [])
    @ match r.b_detail with Some d -> [ ("detail", K.Json.Str d) ] | None -> [])

let job_result_of_json j =
  let str name =
    match K.Json.member name j with Some (K.Json.Str s) -> Some s | _ -> None
  in
  let int name =
    match K.Json.member name j with Some (K.Json.Int n) -> Some n | _ -> None
  in
  match (str "status", int "exit_code") with
  | Some b_status, Some b_exit ->
      Some
        {
          b_status;
          b_exit;
          b_error_kind = str "error_kind";
          b_detail = str "detail";
          b_reachable = int "reachable_methods";
          b_wall_us = Option.value ~default:0 (int "wall_us");
        }
  | _ -> None

(** A journaled record: the job result plus its identity in the batch. *)
type job_record = {
  r_index : int;
  r_path : string;
  r_result : job_result;
  r_attempts : int;  (** executions, 0 for a cache hit *)
  r_cache : string;  (** ["hit" | "miss" | "off"] *)
}

let record_json ~timings r =
  let res =
    if timings then r.r_result else { r.r_result with b_wall_us = 0 }
  in
  match job_result_json res with
  | K.Json.Obj fields ->
      K.Json.Obj
        ([ ("job", K.Json.Int r.r_index);
           ("path", K.Json.Str r.r_path);
           ("attempts", K.Json.Int r.r_attempts);
           ("cache", K.Json.Str r.r_cache);
         ]
        @ fields)
  | _ -> assert false

let record_of_json rj =
  match
    (K.Json.member "job" rj, K.Json.member "path" rj, job_result_of_json rj)
  with
  | Some (K.Json.Int r_index), Some (K.Json.Str r_path), Some r_result ->
      let r_attempts =
        match K.Json.member "attempts" rj with
        | Some (K.Json.Int n) -> n
        | _ -> 1
      in
      let r_cache =
        match K.Json.member "cache" rj with
        | Some (K.Json.Str s) -> s
        | _ -> "off"
      in
      Some { r_index; r_path; r_result; r_attempts; r_cache }
  | _ -> None

(** Parse a journal, skipping unparseable lines (a SIGKILL mid-append
    leaves a torn last line; skipping it merely re-runs that job — replay
    is idempotent). *)
let read_journal path =
  match C.Io.read_file path with
  | Error _ -> []
  | Ok contents ->
      List.filter_map record_of_json
        (K.Json.journal_payloads ~version:batch_schema_version ~key:"record"
           contents)

(** One in-process job execution.  The facade's guard means every failure
    — unreadable file, compile error, bad root, internal exception —
    comes back as a typed error, never an escape. *)
let execute_job ~config ~mode ~roots path =
  let t0 = Unix.gettimeofday () in
  let wall_us () =
    int_of_float (Float.max 0.0 (Unix.gettimeofday () -. t0) *. 1e6)
  in
  match Api.analyze ~config ~mode ~source:(`File path) ~roots () with
  | Ok s ->
      let degraded = s.Api.metrics.C.Metrics.degraded in
      {
        b_status = (if degraded then "degraded" else "ok");
        b_exit = 0;
        b_error_kind = None;
        b_detail = None;
        b_reachable = Some s.Api.metrics.C.Metrics.reachable_methods;
        b_wall_us = wall_us ();
      }
  | Error e ->
      {
        b_status = "failed";
        b_exit = Api.exit_code_of_error e;
        b_error_kind = Some (Api.error_kind e);
        b_detail = Some (Api.error_message e);
        b_reachable = None;
        b_wall_us = wall_us ();
      }

(** Set (to the signal number) by the batch SIGINT/SIGTERM handlers; the
    driver polls it between jobs and inside the watchdog wait loop so an
    interrupt lands at a clean point: the in-flight worker is SIGKILLed,
    its temp files are swept, the journal is flushed, and the process
    exits with the conventional 128+signal code.  A re-run with
    [--resume] picks up exactly where the journal stops. *)
let batch_interrupted : int option ref = ref None

exception Batch_interrupted

(** Run one job in a forked child under a wall-clock watchdog.  The
    child's only channel back is the result file; a worker that dies (or
    is killed by the watchdog) yields a synthesized failure record. *)
let execute_isolated ~timeout_per_job run =
  let result_file = Filename.temp_file "skipflow-job" ".json" in
  let t0 = Unix.gettimeofday () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* a terminal Ctrl-C signals the whole foreground process group:
         the worker must die by default, not run the driver's handler *)
      Sys.set_signal Sys.sigint Sys.Signal_default;
      Sys.set_signal Sys.sigterm Sys.Signal_default;
      (try
         let r = run () in
         (* atomic tmp + rename via the IO layer: the parent either sees
            the whole result or the empty pre-created file, never a torn
            write *)
         ignore
           (C.Io.write_file_atomic ~path:result_file
              (K.Json.to_compact_string (job_result_json r)))
       with _ -> ());
      (* _exit, not exit: the child inherited the parent's at_exit
         handlers and buffered channels, and must not flush or run them *)
      Unix._exit 0
  | pid ->
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when !batch_interrupted <> None ->
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            (try Sys.remove result_file with Sys_error _ -> ());
            (try Sys.remove (result_file ^ ".tmp") with Sys_error _ -> ());
            raise Batch_interrupted
        | 0, _ -> (
            (* elapsed-vs-limit, with the delta clamped at zero: a
               backwards clock step must neither kill the job early nor
               produce a negative elapsed time *)
            match timeout_per_job with
            | Some limit
              when Float.max 0.0 (Unix.gettimeofday () -. t0) > limit ->
                Unix.kill pid Sys.sigkill;
                ignore (Unix.waitpid [] pid);
                `Timeout
            | _ ->
                Unix.sleepf 0.002;
                wait ())
        | _, Unix.WEXITED 0 -> `Exited
        | _, (Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _) -> `Crashed
      in
      let verdict = wait () in
      let wall_us =
        int_of_float (Float.max 0.0 (Unix.gettimeofday () -. t0) *. 1e6)
      in
      let failure kind detail =
        {
          b_status = "failed";
          b_exit = exit_analysis_error;
          b_error_kind = Some kind;
          b_detail = Some detail;
          b_reachable = None;
          b_wall_us = wall_us;
        }
      in
      let r =
        match verdict with
        | `Timeout ->
            failure "timeout"
              "job exceeded --timeout-per-job and was killed"
        | `Exited | `Crashed -> (
            match C.Io.read_file result_file with
            | Error _ ->
                failure "crash" "worker died without reporting a result"
            | Ok "" -> failure "crash" "worker died without reporting a result"
            | Ok contents -> (
                match K.Json.of_string contents with
                | exception K.Json.Parse_error _ ->
                    failure "crash" "worker wrote a torn result"
                | j -> (
                    match job_result_of_json j with
                    | Some r -> r
                    | None -> failure "crash" "worker wrote a malformed result")))
      in
      (try Sys.remove result_file with Sys_error _ -> ());
      (* a watchdog-killed worker can leave its tmp file behind *)
      (try Sys.remove (result_file ^ ".tmp") with Sys_error _ -> ());
      r

(** A manifest is a directory (all [*.mj] inside, sorted) or a file of
    paths — one per line, [#] comments, resolved relative to the
    manifest's directory. *)
let load_manifest path =
  if Sys.is_directory path then begin
    let names = Sys.readdir path in
    Array.sort compare names;
    Array.to_list names
    |> List.filter (fun n -> Filename.check_suffix n ".mj")
    |> List.map (Filename.concat path)
  end
  else
    F.Frontend.read_file path
    |> String.split_on_char '\n'
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    |> List.map (fun l ->
           if Filename.is_relative l then
             Filename.concat (Filename.dirname path) l
           else l)

let batch_cmd =
  let run manifest config roots mode max_tasks timeout max_flows allow_degraded
      timeout_per_job retries cache_dir journal resume quarantine no_isolate
      no_timings out =
    let timings = not no_timings in
    let config =
      { config with C.Config.budget = budget_of ~max_tasks ~timeout ~max_flows }
    in
    if resume && journal = None then begin
      Format.eprintf "error: --resume needs --journal@.";
      exit exit_input_error
    end;
    let jobs =
      try load_manifest manifest
      with Sys_error message ->
        Format.eprintf "error: cannot read manifest %s: %s@." manifest message;
        exit exit_input_error
    in
    let completed = Hashtbl.create 16 in
    if resume then
      Option.iter
        (fun jp ->
          List.iter
            (fun r -> Hashtbl.replace completed (r.r_index, r.r_path) r)
            (read_journal jp))
        journal;
    (* the journal goes through the durable-IO appender: one write(2)
       per record (SIGKILL tears at most the last line), fsync per line
       under --durability fsync *)
    let journal_ap =
      Option.map
        (fun jp ->
          match C.Io.open_append jp with
          | Ok ap -> ap
          | Error e ->
              Format.eprintf "error: cannot open journal: %s@."
                (C.Io.error_message e);
              exit exit_input_error)
        journal
    in
    let trace = C.Trace.create () in
    let cache = Option.map (fun d -> C.Cache.create ~trace d) cache_dir in
    (* job results depend on the roots and engine mode, which Config.t
       does not carry — fold them into the key so a cache dir reused
       across batches with different --root / --engine never serves one
       run's results to the other *)
    let cache_scope =
      Printf.sprintf "roots=%s;mode=%s"
        (String.concat "," roots)
        (match mode with C.Engine.Dedup -> "dedup" | C.Engine.Reference -> "ref")
    in
    let cache_lookup path =
      match cache with
      | None -> (None, None)
      | Some c -> (
          match C.Io.read_file path with
          | Error _ -> (None, None)
          | Ok source ->
              let k = C.Cache.key ~config ~scope:cache_scope ~source in
              (Some k, C.Cache.find c k))
    in
    let run_fresh i path =
      let cache_key, cached = cache_lookup path in
      let cached_result =
        match cached with
        | None -> None
        | Some v -> (
            match K.Json.of_string v with
            | exception K.Json.Parse_error _ -> None
            | j -> job_result_of_json j)
      in
      match cached_result with
      | Some res ->
          {
            r_index = i;
            r_path = path;
            (* a hit costs a lookup, not a solve; don't report the
               original compute time as this run's *)
            r_result = { res with b_wall_us = 0 };
            r_attempts = 0;
            r_cache = "hit";
          }
      | None ->
          let run_once () =
            if no_isolate then execute_job ~config ~mode ~roots path
            else
              execute_isolated ~timeout_per_job (fun () ->
                  execute_job ~config ~mode ~roots path)
          in
          let rec attempt n =
            let res = run_once () in
            if res.b_error_kind = Some "io_error" && n < retries then begin
              (* transient I/O: back off exponentially, then retry *)
              Unix.sleepf (0.05 *. (2. ** float_of_int n));
              attempt (n + 1)
            end
            else (res, n + 1)
          in
          let res, attempts = attempt 0 in
          (match (cache, cache_key, res.b_status) with
          | Some c, Some k, ("ok" | "degraded") ->
              (* best-effort: a failed store must not fail the job *)
              ignore
                (C.Cache.store c k
                   (K.Json.to_compact_string (job_result_json res)))
          | _ -> ());
          let res =
            match (quarantine, res.b_error_kind) with
            | Some qdir, Some ("crash" | "timeout" | "internal_error" | "io_error")
              -> (
                mkdir_p qdir;
                let dst =
                  Filename.concat qdir
                    (Printf.sprintf "%d-%s" i (Filename.basename path))
                in
                match C.Io.read_file path with
                | Error _ -> res
                | Ok contents -> (
                    match C.Io.write_file_atomic ~path:dst contents with
                    | Ok () -> { res with b_status = "quarantined" }
                    | Error _ -> res))
            | _ -> res
          in
          {
            r_index = i;
            r_path = path;
            r_result = res;
            r_attempts = attempts;
            r_cache = (if cache = None then "off" else "miss");
          }
    in
    (* from here on an interrupt must leave a resumable journal, not a
       half-written mess: note the signal, let the driver reach a clean
       point, then flush and exit 128+signal *)
    batch_interrupted := None;
    let note s = Sys.Signal_handle (fun _ -> batch_interrupted := Some s) in
    Sys.set_signal Sys.sigint (note Sys.sigint);
    Sys.set_signal Sys.sigterm (note Sys.sigterm);
    let on_interrupt () =
      Option.iter C.Io.close_append journal_ap;
      let signal_name, code =
        if !batch_interrupted = Some Sys.sigterm then ("SIGTERM", 143)
        else ("SIGINT", 130)
      in
      Format.eprintf
        "batch: interrupted (%s); journal flushed — re-run with --resume to \
         continue@."
        signal_name;
      exit code
    in
    let records =
      try
        List.mapi
          (fun i path ->
            if !batch_interrupted <> None then raise Batch_interrupted;
            match Hashtbl.find_opt completed (i, path) with
            | Some r -> r (* journaled by the interrupted run; don't redo *)
            | None ->
                let r = run_fresh i path in
              (* journal before moving on: a crash between jobs loses at
                 most the in-flight one *)
                Option.iter
                  (fun ap ->
                    match
                      C.Io.append_line ap
                        (K.Json.to_compact_string
                           (K.Json.Obj
                              [ ( "schema_version",
                                  K.Json.Int batch_schema_version );
                                ("record", record_json ~timings r);
                              ]))
                    with
                    | Ok () -> ()
                    | Error e ->
                        Format.eprintf
                          "warning: journal append failed: %s@."
                          (C.Io.error_message e))
                  journal_ap;
                r)
          jobs
      with Batch_interrupted -> on_interrupt ()
    in
    if !batch_interrupted <> None then on_interrupt ();
    Option.iter C.Io.close_append journal_ap;
    let count st =
      List.length
        (List.filter (fun r -> r.r_result.b_status = st) records)
    in
    let cache_hits =
      List.length (List.filter (fun r -> r.r_cache = "hit") records)
    in
    let summary =
      K.Json.Obj
        [ ("schema_version", K.Json.Int batch_schema_version);
          ("manifest", K.Json.Str (Filename.basename manifest));
          ("jobs", K.Json.Int (List.length records));
          ("ok", K.Json.Int (count "ok"));
          ("degraded", K.Json.Int (count "degraded"));
          ("failed", K.Json.Int (count "failed"));
          ("quarantined", K.Json.Int (count "quarantined"));
          ("cache_hits", K.Json.Int cache_hits);
          ("records", K.Json.Arr (List.map (record_json ~timings) records));
        ]
    in
    (match out with
    | Some path -> (
        match C.Io.write_file_atomic ~path (K.Json.to_string summary) with
        | Ok () -> ()
        | Error e ->
            Format.eprintf "error: cannot write summary: %s@."
              (C.Io.error_message e);
            exit exit_input_error)
    | None -> print_string (K.Json.to_string summary));
    Format.eprintf
      "batch: %d job(s) — %d ok, %d degraded, %d failed, %d quarantined, %d \
       cache hit(s)@."
      (List.length records) (count "ok") (count "degraded") (count "failed")
      (count "quarantined") cache_hits;
    let has code =
      List.exists (fun r -> r.r_result.b_exit = code) records
    in
    if has exit_analysis_error then exit exit_analysis_error
    else if has exit_input_error then exit exit_input_error
    else if count "degraded" > 0 && not allow_degraded then exit exit_degraded
  in
  let manifest_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"MANIFEST"
          ~doc:
            "A manifest file (one .mj path per line, # comments, paths \
             relative to the manifest) or a directory of .mj files")
  in
  let timeout_per_job_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout-per-job" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock watchdog per job; a job past it is SIGKILLed and \
             recorded as failed (isolated mode only)")
  in
  let retries_arg =
    Arg.(
      value
      & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry a job whose failure is a transient I/O error up to N \
             times, with exponential backoff")
  in
  let cache_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Cache successful job results in $(docv), keyed by a content \
             hash of source + configuration + roots + engine; corrupt \
             entries are quarantined and recomputed")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"OUT.jsonl"
          ~doc:
            "Append one JSON record per completed job to $(docv) \
             (crash-tolerant; consumed by --resume)")
  in
  let resume_arg =
    Arg.(
      value
      & flag
      & info [ "resume" ]
          ~doc:
            "Skip jobs already recorded in the journal (from an \
             interrupted run) and re-use their records")
  in
  let quarantine_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "quarantine" ] ~docv:"DIR"
          ~doc:
            "Copy the input of every crashed, timed-out, or \
             internally-failing job into $(docv) for later triage")
  in
  let no_isolate_arg =
    Arg.(
      value
      & flag
      & info [ "no-isolate" ]
          ~doc:
            "Run jobs in-process instead of forked workers (faster; no \
             crash containment or per-job watchdog)")
  in
  let no_timings_arg =
    Arg.(
      value
      & flag
      & info [ "no-timings" ]
          ~doc:
            "Zero all wall_us fields, making summaries byte-comparable \
             across runs")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "summary" ] ~docv:"OUT.json"
          ~doc:"Write the batch summary to $(docv) instead of stdout")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Analyze a manifest of MiniJava programs with per-job fault \
          isolation, watchdogs, retries, result caching, and a \
          resumable journal")
    Term.(
      const run $ manifest_arg $ analysis_arg $ roots_arg $ engine_arg
      $ max_tasks_arg $ timeout_arg $ max_flows_arg $ allow_degraded_arg
      $ timeout_per_job_arg $ retries_arg $ cache_arg $ journal_arg
      $ resume_arg $ quarantine_arg $ no_isolate_arg $ no_timings_arg
      $ out_arg)

(* -------------------------------- serve ------------------------------- *)

(* The analysis daemon: the state machine lives in [Skipflow_serve.Server];
   this is only the transport — a select-based line pump over stdin/stdout
   or a Unix domain socket, with prompt SIGINT/SIGTERM handling (the
   handlers set a flag; the pump polls it between 250ms select windows, so
   a signal never tears a response or skips the final snapshot). *)

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off len =
    if len > 0 then
      match Unix.write fd b off len with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
      | n -> go (off + n) (len - n)
  in
  go 0 (Bytes.length b)

(** Pump request lines from [in_fd] through the daemon until EOF, a
    served shutdown request, or a signal ([quit]). *)
let serve_fd srv ~quit ~in_fd ~out_fd =
  let buf = Bytes.create 65536 in
  let acc = Buffer.create 256 in
  let respond line = List.iter (write_all out_fd) (S.Server.handle_line srv line) in
  let drain_complete_lines () =
    let s = Buffer.contents acc in
    let n = String.length s in
    let rec go start =
      if start >= n then Buffer.clear acc
      else
        match String.index_from_opt s start '\n' with
        | None ->
            Buffer.clear acc;
            Buffer.add_substring acc s start (n - start)
        | Some i ->
            respond (String.sub s start (i - start));
            go (i + 1)
    in
    go 0
  in
  let rec loop () =
    if !quit <> None || S.Server.wants_shutdown srv then ()
    else
      match Unix.select [ in_fd ] [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.read in_fd buf 0 (Bytes.length buf) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
          | 0 ->
              (* EOF; a final unterminated line still deserves an answer *)
              let rest = Buffer.contents acc in
              Buffer.clear acc;
              if String.trim rest <> "" then respond rest
          | n ->
              Buffer.add_subbytes acc buf 0 n;
              drain_complete_lines ();
              loop ())
  in
  try loop ()
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
    (* the client vanished mid-response; the daemon outlives it *)
    ()

let serve_socket srv ~quit path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  let rec accept_loop () =
    if !quit <> None || S.Server.wants_shutdown srv then ()
    else
      match Unix.select [ sock ] [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | [], _, _ -> accept_loop ()
      | _ ->
          let client, _ = Unix.accept sock in
          serve_fd srv ~quit ~in_fd:client ~out_fd:client;
          (try Unix.close client with Unix.Unix_error _ -> ());
          accept_loop ()
  in
  accept_loop ();
  (try Unix.close sock with Unix.Unix_error _ -> ());
  try Unix.unlink path with Unix.Unix_error _ -> ()

(** The supervisor: fork the server, wait, and restart it when it dies
    abnormally.  Clean exits (0), signal-driven shutdowns the child
    itself chose (130/143), and input errors (2) pass through — only
    crashes (any other exit, or death by signal: SIGKILL, SIGSEGV, the
    OOM killer) consume the restart budget.  Backoff doubles from 100ms
    up to 5s; a child that survives {!supervise_healthy_s} earns the
    budget and backoff back.  Restarted children always resume, so the
    snapshot + journal machinery turns a kill storm into warm restarts. *)
let supervise_healthy_s = 30.0

let supervise ~max_restarts ~log serve_child =
  let child = ref (-1) in
  let forward sg =
    Sys.Signal_handle
      (fun _ -> if !child > 0 then try Unix.kill !child sg with Unix.Unix_error _ -> ())
  in
  Sys.set_signal Sys.sigint (forward Sys.sigint);
  Sys.set_signal Sys.sigterm (forward Sys.sigterm);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let rec loop ~restarts ~used =
    flush stdout;
    flush stderr;
    let born = Unix.gettimeofday () in
    (match Unix.fork () with
    | 0 ->
        (* the child is a fresh server: default signal disposition back
           (serve installs its own), then never returns *)
        Sys.set_signal Sys.sigint Sys.Signal_default;
        Sys.set_signal Sys.sigterm Sys.Signal_default;
        serve_child ~restarts;
        exit 0
    | pid -> child := pid);
    let rec wait () =
      match Unix.waitpid [] !child with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | _, status -> status
    in
    let status = wait () in
    child := -1;
    let lived = Float.max 0.0 (Unix.gettimeofday () -. born) in
    let used = if lived >= supervise_healthy_s then 0 else used in
    match status with
    | Unix.WEXITED ((0 | 130 | 143 | 2) as code) -> exit code
    | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
        let describe =
          match status with
          | Unix.WEXITED c -> Printf.sprintf "exited %d" c
          | Unix.WSIGNALED sg -> Printf.sprintf "killed by signal %d" sg
          | Unix.WSTOPPED sg -> Printf.sprintf "stopped by signal %d" sg
        in
        if used >= max_restarts then begin
          log
            (Printf.sprintf
               "server %s; restart budget (%d) exhausted, giving up" describe
               max_restarts);
          exit exit_analysis_error
        end
        else begin
          let backoff = Float.min 5.0 (0.1 *. (2. ** float_of_int used)) in
          log
            (Printf.sprintf "server %s; restarting in %.1fs (%d/%d used)"
               describe backoff (used + 1) max_restarts);
          Unix.sleepf backoff;
          loop ~restarts:(restarts + 1) ~used:(used + 1)
        end
  in
  loop ~restarts:0 ~used:0

let serve_cmd =
  let run file config roots mode max_tasks timeout max_flows state resume
      socket deadline_ms retry_after_ms snapshot_every memo_entries no_timings
      max_heap_mb supervise_flag max_restarts =
    let config =
      { config with C.Config.budget = budget_of ~max_tasks ~timeout ~max_flows }
    in
    let serve_once ~resume ~restarts =
      let cfg =
        {
          S.Server.sv_config = config;
          sv_mode = mode;
          sv_roots = roots;
          sv_state_dir = state;
          sv_snapshot_every = snapshot_every;
          sv_deadline_ms = deadline_ms;
          sv_retry_after_ms = retry_after_ms;
          sv_memo_entries = memo_entries;
          sv_timings = not no_timings;
          sv_max_heap_mb = max_heap_mb;
          sv_restarts = restarts;
          sv_log = (fun msg -> Format.eprintf "serve: %s@." msg);
        }
      in
      let initial = Option.map (fun f -> `File f) file in
      match S.Server.create ?initial ~resume cfg with
      | Error msg ->
          Format.eprintf "error: %s@." msg;
          exit exit_input_error
      | Ok srv ->
          let quit = ref None in
          let note code = Sys.Signal_handle (fun _ -> quit := Some code) in
          Sys.set_signal Sys.sigint (note 130);
          Sys.set_signal Sys.sigterm (note 143);
          (* a client that hangs up must cost a response, not the daemon *)
          Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
          (match socket with
          | Some path -> serve_socket srv ~quit path
          | None -> serve_fd srv ~quit ~in_fd:Unix.stdin ~out_fd:Unix.stdout);
          S.Server.finalize srv;
          match !quit with Some code -> exit code | None -> ()
    in
    if not supervise_flag then serve_once ~resume ~restarts:0
    else
      supervise ~max_restarts
        ~log:(fun msg -> Format.eprintf "supervise: %s@." msg)
        (fun ~restarts ->
          (* a restarted child must warm-start or the kill would have
             cost the resident state; the first child honors --resume *)
          serve_once ~resume:(resume || restarts > 0) ~restarts)
  in
  let file_opt =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE.mj"
          ~doc:
            "Initial MiniJava program to load and solve before serving \
             (optional; an $(i,edit) request can load one later)")
  in
  let state_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "state" ] ~docv:"DIR"
          ~doc:
            "State directory: atomic snapshots of the resident solved \
             state plus a response journal, enabling --resume after a \
             crash or kill")
  in
  let resume_arg =
    Arg.(
      value
      & flag
      & info [ "resume" ]
          ~doc:
            "Warm-start from the --state snapshot and re-emit journaled \
             responses byte for byte when their requests arrive again")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve on a Unix domain socket (one client at a time) instead \
             of stdin/stdout")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request deadline; a request past it gets a \
             structured deadline_exceeded error and the resident state \
             rolls back (requests can override with their own \
             $(i,deadline_ms) field)")
  in
  let retry_after_arg =
    Arg.(
      value
      & opt int S.Server.default_cfg.S.Server.sv_retry_after_ms
      & info [ "retry-after-ms" ] ~docv:"MS"
          ~doc:
            "The hint carried by overloaded responses (requests shed by \
             the --max-heap-mb ceiling)")
  in
  let snapshot_every_arg =
    Arg.(
      value
      & opt int S.Server.default_cfg.S.Server.sv_snapshot_every
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:"Snapshot the resident state every N mutations (default 1)")
  in
  let memo_entries_arg =
    Arg.(
      value
      & opt int S.Server.default_cfg.S.Server.sv_memo_entries
      & info [ "memo-entries" ] ~docv:"N"
          ~doc:
            "Capacity of the in-memory memo of previously solved states \
             (content-hash keyed; makes edit-and-revert cycles hits)")
  in
  let no_timings_arg =
    Arg.(
      value
      & flag
      & info [ "no-timings" ]
          ~doc:
            "Zero all wall_us fields and drop wall-clock counters, making \
             responses byte-comparable across runs")
  in
  let max_heap_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-heap-mb" ] ~docv:"MB"
          ~doc:
            "Memory ceiling: past it the daemon degrades gracefully — \
             drops the memo and buffered trace events, compacts the \
             heap, and if still over sheds mutating requests with a \
             retry_after_ms hint (health and shutdown always answer) — \
             instead of meeting the OOM killer")
  in
  let supervise_arg =
    Arg.(
      value
      & flag
      & info [ "supervise" ]
          ~doc:
            "Fork the server and restart it when it crashes (exponential \
             backoff from 100ms to 5s, budget of --max-restarts; clean \
             exits and signal-driven shutdowns pass through).  Restarted \
             servers warm-start from --state, so a crash costs at most \
             the in-flight request")
  in
  let max_restarts_arg =
    Arg.(
      value
      & opt int 5
      & info [ "max-restarts" ] ~docv:"N"
          ~doc:
            "Supervisor restart budget; earned back by a server that \
             stays up 30s.  Surfaced as restarts in health responses")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the crash-tolerant incremental analysis daemon: JSONL \
          requests (analyze, lint, profile, edit, health, shutdown) over \
          stdin/stdout or a Unix socket, with a resident solved program, \
          incremental re-analysis on edit, per-request deadlines, \
          snapshot/journal recovery, an optional supervisor, and a \
          graceful memory ceiling that sheds load")
    Term.(
      const run $ file_opt $ analysis_arg $ roots_arg $ engine_arg
      $ max_tasks_arg $ timeout_arg $ max_flows_arg $ state_arg $ resume_arg
      $ socket_arg $ deadline_arg $ retry_after_arg
      $ snapshot_every_arg $ memo_entries_arg $ no_timings_arg $ max_heap_arg
      $ supervise_arg $ max_restarts_arg)

(* --------------------------------- gen -------------------------------- *)

let gen_cmd =
  let run bench seed out =
    let params =
      match bench with
      | Some name -> (
          match W.Suites.find name with
          | Some b -> W.Suites.params_of b
          | None ->
              Printf.eprintf "unknown benchmark %s (see bench-list)\n" name;
              exit exit_input_error)
      | None -> { W.Gen.default_params with seed }
    in
    let src = W.Gen.source params in
    match out with
    | Some path ->
        let oc = open_out path in
        output_string oc src;
        close_out oc;
        Printf.printf "wrote %s\n" path
    | None -> print_string src
  in
  let bench = Arg.(value & opt (some string) None & info [ "bench" ] ~doc:"Generate a named Table 1 benchmark") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Seed for the default generator") in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file") in
  Cmd.v
    (Cmd.info "gen" ~doc:"Emit a synthetic benchmark program as MiniJava source")
    Term.(const run $ bench $ seed $ out)

(* ------------------------------- profile ------------------------------ *)

(** Validate a trace document previously written by [--trace] /
    [--trace-jsonl]: parses it with the integer-only JSON reader and
    checks the schema version.  Returns a short description, or an error
    message. *)
let validate_trace_file path =
  let contents = F.Frontend.read_file path in
  let check_doc j =
    match K.Json.check_schema_version j with
    | Error msg -> Error msg
    | Ok v -> Ok v
  in
  (* Chrome form: one object with a traceEvents array.  JSONL form: one
     document per line, schema version on the header line. *)
  match K.Json.of_string contents with
  | j -> (
      match check_doc j with
      | Error msg -> Error msg
      | Ok v -> (
          match K.Json.member "traceEvents" j with
          | Some (K.Json.Arr evs) ->
              Ok (Printf.sprintf "chrome trace (schema %d): %d trace events" v (List.length evs))
          | _ -> Error "chrome trace: missing traceEvents array"))
  | exception K.Json.Parse_error _ -> (
      (* not a single document — try JSON-lines *)
      let lines =
        List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' contents)
      in
      match lines with
      | [] -> Error "empty trace file"
      | header :: rest -> (
          match K.Json.of_string header with
          | exception K.Json.Parse_error msg -> Error ("bad header line: " ^ msg)
          | h -> (
              match check_doc h with
              | Error msg -> Error msg
              | Ok v -> (
                  try
                    List.iter (fun l -> ignore (K.Json.of_string l)) rest;
                    Ok
                      (Printf.sprintf "jsonl trace (schema %d): %d lines" v
                         (1 + List.length rest))
                  with K.Json.Parse_error msg -> Error ("bad trace line: " ^ msg)))))

let profile_cmd =
  let run file config roots top mode from_trace =
    match from_trace with
    | Some path -> (
        match validate_trace_file path with
        | Ok desc -> Format.printf "%s: valid %s@." path desc
        | Error msg ->
            Format.eprintf "error: %s: %s@." path msg;
            exit exit_input_error)
    | None -> (
        match file with
        | None ->
            prerr_endline "error: profile needs FILE.mj (or --from-trace)";
            exit exit_input_error
        | Some file ->
            let trace = C.Trace.create ~timers:true ~events:true () in
            let prog = load_program ~trace file in
            let roots = roots_of prog roots in
            let s = ok_or_fail (Api.analyze_program ~config ~mode ~trace prog ~roots) in
            let name_of id = Program.qualified_name prog (Ids.Meth.of_int id) in
            Format.printf "analysis: %s (%d reachable methods)@.@."
              (C.Config.name config)
              s.Api.metrics.C.Metrics.reachable_methods;
            Format.printf "%a@.%a@." C.Trace.pp_phases trace C.Trace.pp_counters trace;
            let take n l = List.filteri (fun i _ -> i < n) l in
            Format.printf "@.event kinds:@.";
            List.iter
              (fun (kind, n) -> Format.printf "  %-12s %8d@." kind n)
              (C.Trace.by_kind trace);
            Format.printf "@.hot methods (top %d by solver events):@." top;
            List.iter
              (fun (id, n) -> Format.printf "  %-40s %8d@." (name_of id) n)
              (take top (C.Trace.by_meth trace));
            Format.printf "@.hot flows (top %d by solver events):@." top;
            List.iter
              (fun (id, n) -> Format.printf "  flow %-8d %8d@." id n)
              (take top (C.Trace.by_flow trace));
            if C.Trace.dropped_events trace > 0 then
              Format.printf "@.(%d events dropped past the buffer cap)@."
                (C.Trace.dropped_events trace))
  in
  let file_opt =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.mj" ~doc:"MiniJava source file (omit with --from-trace)")
  in
  let top_arg =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"How many hot methods/flows to list")
  in
  let from_trace_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "from-trace" ] ~docv:"TRACE"
          ~doc:"Validate and summarize a previously written trace file (Chrome or JSONL) instead of running an analysis")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run a fully traced analysis and print phase timings, counters, and top-N hot methods/flows")
    Term.(
      const run $ file_opt $ analysis_arg $ roots_arg $ top_arg $ engine_arg
      $ from_trace_arg)

let bench_list_cmd =
  let run () =
    List.iter
      (fun (b : W.Suites.bench) ->
        Printf.printf "%-12s %-22s paper: %6.1fk methods, -%4.1f%%\n" b.W.Suites.suite
          b.W.Suites.name b.W.Suites.paper_pta_kmethods b.W.Suites.paper_reduction_pct)
      W.Suites.all
  in
  Cmd.v (Cmd.info "bench-list" ~doc:"List the Table 1 benchmark catalog") Term.(const run $ const ())

let () =
  let info = Cmd.info "skipflow" ~version:"1.0.0" ~doc:"SkipFlow predicated points-to analysis (CGO 2025 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ analyze_cmd; batch_cmd; compare_cmd; deadcode_cmd; lint_cmd;
            profile_cmd; run_cmd; serve_cmd; fuzz_cmd; gen_cmd;
            bench_list_cmd ]))
