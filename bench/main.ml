(* Benchmark harness regenerating the paper's evaluation artifacts.

   Usage:
     dune exec bench/main.exe                 -- everything below
     dune exec bench/main.exe table1          -- Table 1 (PTA vs SkipFlow, all suites)
     dune exec bench/main.exe figure9         -- Figure 9 (normalized metrics per suite)
     dune exec bench/main.exe ablation        -- extra: feature ablation
     dune exec bench/main.exe product         -- flat vs product primitive domain
     dune exec bench/main.exe micro           -- bechamel micro-benchmarks
     dune exec bench/main.exe json [opts]     -- machine-readable perf rows
                                                 (--benches a,b  --min-dedup-ratio X
                                                  --check-product-live-flows
                                                  -o FILE; default BENCH_<n>.json)

   Environment:
     SKIPFLOW_SCALE   workload scale relative to the paper's method counts
                      (default 0.02; the paper's absolute sizes are 20-400k
                      methods — see EXPERIMENTS.md for scale sensitivity)

   Absolute numbers differ from the paper (different machine, synthetic
   workloads, OCaml vs Java); the *shape* is what must match: SkipFlow
   strictly reduces reachable methods on every benchmark, sunflow is a
   ~50% outlier, counters track reachable methods, and analysis time does
   not systematically increase. *)

module Api = Skipflow_api
module C = Skipflow_core
module W = Skipflow_workloads
module K = Skipflow_checks
open Skipflow_ir

let product_config = { C.Config.skipflow with C.Config.pval = C.Pval.Product }

let scale =
  match Sys.getenv_opt "SKIPFLOW_SCALE" with
  | Some s -> float_of_string s
  | None -> 0.02

(* modeled compile throughput for the "total time" proxy: the paper's total
   time is analysis + compilation, and compilation cost is proportional to
   reachable code volume *)
let compile_cost_per_insn = 20e-6

type row = {
  r_bench : W.Suites.bench;
  r_config : string;
  r_time_s : float;
  r_total_s : float;
  r_m : C.Metrics.t;
}

let median l =
  let a = List.sort compare l in
  List.nth a (List.length a / 2)

let analyze ?mode ?trace config prog main =
  match Api.analyze_program ~config ?mode ?trace prog ~roots:[ main ] with
  | Ok s -> s
  | Error e ->
      prerr_endline ("bench: " ^ Api.error_message e);
      exit 1

(* Each repetition carries its own timed trace.  [keep] projects a
   repetition's wall time and summary to what the caller reports, right
   after that repetition, so no earlier engine stays live; the result is
   the median-time repetition's projection, so its phase breakdown comes
   from the same run as its time (no phase can exceed it). *)
let measure ?mode ~reps ~keep config prog main =
  let runs =
    List.init (max 1 reps) (fun _ ->
        let trace = C.Trace.create ~timers:true () in
        let t0 = Unix.gettimeofday () in
        let s = analyze ?mode ~trace config prog main in
        let t = Unix.gettimeofday () -. t0 in
        (t, keep t s))
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) runs in
  snd (List.nth sorted (List.length sorted / 2))

(* per-phase wall milliseconds out of a run's trace *)
let phase_ms trace name =
  match
    List.find_opt (fun p -> String.equal p.C.Trace.ph_name name) (C.Trace.phases trace)
  with
  | Some p -> float_of_int p.C.Trace.ph_wall_us /. 1000.
  | None -> 0.

let build_ms trace =
  float_of_int (C.Trace.value (C.Trace.counter trace "build.wall_us")) /. 1000.

let run_bench (b : W.Suites.bench) : row * row =
  let params = W.Suites.params_of ~scale b in
  let prog, main = W.Gen.compile params in
  let n = Program.num_meths prog in
  let reps = if n < 2000 then 5 else if n < 10000 then 3 else 1 in
  let mk config name =
    measure ~reps config prog main ~keep:(fun t s ->
        let m = s.Api.metrics in
        {
          r_bench = b;
          r_config = name;
          r_time_s = t;
          r_total_s = t +. (float_of_int m.C.Metrics.binary_size *. compile_cost_per_insn);
          r_m = m;
        })
  in
  let pta = mk C.Config.pta "PTA" in
  let sf = mk C.Config.skipflow "SkipFlow" in
  (pta, sf)

let pct a b = if b = 0. then 0. else 100. *. (a -. b) /. b
let pcti a b = pct (float_of_int a) (float_of_int b)

(* ------------------------------- Table 1 ------------------------------ *)

let print_table1 (rows : (row * row) list) =
  Printf.printf "\n===== Table 1: PTA vs SkipFlow on all benchmark suites =====\n";
  Printf.printf "(scale %.3f of the paper's method counts; lower is better everywhere)\n\n"
    scale;
  Printf.printf "%-12s %-22s %-9s %8s %8s %7s %7s %7s %7s %7s %8s\n" "suite" "benchmark"
    "config" "time[ms]" "total[s]" "reach" "type" "null" "prim" "poly" "size";
  List.iter
    (fun (pta, sf) ->
      let b = pta.r_bench in
      let pr name (r : row) =
        let m = r.r_m in
        Printf.printf "%-12s %-22s %-9s %8.1f %8.2f %7d %7d %7d %7d %7d %8d\n"
          b.W.Suites.suite
          (if name = "PTA" then b.W.Suites.name else "")
          name (r.r_time_s *. 1000.) r.r_total_s m.C.Metrics.reachable_methods
          m.C.Metrics.type_checks m.C.Metrics.null_checks m.C.Metrics.prim_checks
          m.C.Metrics.poly_calls m.C.Metrics.binary_size
      in
      pr "PTA" pta;
      pr "SkipFlow" sf;
      let d f = pcti (f sf.r_m) (f pta.r_m) in
      Printf.printf "%-12s %-22s %-9s %7.1f%% %7.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%% %7.1f%%   (paper reach: %+.1f%%)\n"
        "" "" "delta"
        (pct sf.r_time_s pta.r_time_s)
        (pct sf.r_total_s pta.r_total_s)
        (d (fun m -> m.C.Metrics.reachable_methods))
        (d (fun m -> m.C.Metrics.type_checks))
        (d (fun m -> m.C.Metrics.null_checks))
        (d (fun m -> m.C.Metrics.prim_checks))
        (d (fun m -> m.C.Metrics.poly_calls))
        (d (fun m -> m.C.Metrics.binary_size))
        (-.b.W.Suites.paper_reduction_pct))
    rows

(* ------------------------------- Figure 9 ----------------------------- *)

let suite_rows rows suite =
  List.filter (fun (p, _) -> String.equal p.r_bench.W.Suites.suite suite) rows

let bar width ratio =
  (* ratio <= 1.0 is an improvement; draw |#####----| anchored at 1.0 *)
  let n = int_of_float (Float.min 1.2 ratio /. 1.2 *. float_of_int width) in
  String.init width (fun i -> if i < n then '#' else '-')

let print_figure9 (rows : (row * row) list) =
  Printf.printf "\n===== Figure 9: normalized metrics per bench suite =====\n";
  Printf.printf "(SkipFlow / PTA; below 1.0 is an improvement)\n";
  let metrics : (string * (row -> float)) list =
    [
      ("analysis time", fun r -> r.r_time_s);
      ("total time", fun r -> r.r_total_s);
      ("reach. methods", fun r -> float_of_int r.r_m.C.Metrics.reachable_methods);
      ("type checks", fun r -> float_of_int r.r_m.C.Metrics.type_checks);
      ("null checks", fun r -> float_of_int r.r_m.C.Metrics.null_checks);
      ("prim checks", fun r -> float_of_int r.r_m.C.Metrics.prim_checks);
      ("poly calls", fun r -> float_of_int r.r_m.C.Metrics.poly_calls);
      ("binary size", fun r -> float_of_int r.r_m.C.Metrics.binary_size);
    ]
  in
  List.iter
    (fun (suite, _) ->
      let srows = suite_rows rows suite in
      Printf.printf "\n--- %s ---\n" suite;
      List.iter
        (fun (name, f) ->
          let ratios = List.map (fun (p, s) -> f s /. Float.max 1e-9 (f p)) srows in
          let avg = List.fold_left ( +. ) 0. ratios /. float_of_int (List.length ratios) in
          let mn = List.fold_left Float.min infinity ratios in
          let mx = List.fold_left Float.max neg_infinity ratios in
          Printf.printf "%-15s avg %.3f  min %.3f  max %.3f  |%s|\n" name avg mn mx
            (bar 30 avg))
        metrics)
    W.Suites.suites;
  (* per-suite reachable-method averages vs the paper's *)
  Printf.printf "\n--- average reachable-method reduction vs paper ---\n";
  let paper_avgs = [ ("DaCapo", 13.3); ("Micro", 6.3); ("Renaissance", 8.4) ] in
  List.iter
    (fun (suite, _) ->
      let srows = suite_rows rows suite in
      let reds =
        List.map
          (fun (p, s) ->
            -.pcti s.r_m.C.Metrics.reachable_methods p.r_m.C.Metrics.reachable_methods)
          srows
      in
      let avg = List.fold_left ( +. ) 0. reds /. float_of_int (List.length reds) in
      Printf.printf "%-12s measured %5.1f%%   paper %5.1f%%\n" suite avg
        (List.assoc suite paper_avgs))
    W.Suites.suites;
  let all_times =
    List.map (fun (p, s) -> pct s.r_time_s p.r_time_s) rows
  in
  let avg_t = List.fold_left ( +. ) 0. all_times /. float_of_int (List.length all_times) in
  Printf.printf "%-12s measured %+5.1f%%   paper  -1.6%%\n" "analysis-time" avg_t;
  let all_tot = List.map (fun (p, s) -> pct s.r_total_s p.r_total_s) rows in
  let avg_tot = List.fold_left ( +. ) 0. all_tot /. float_of_int (List.length all_tot) in
  Printf.printf "%-12s measured %+5.1f%%   paper  -4.4%%\n" "total-time" avg_tot

(* ------------------------------- ablation ----------------------------- *)

let print_ablation () =
  Printf.printf "\n===== Ablation: predicates and primitives in isolation =====\n";
  Printf.printf "%-22s %-22s %9s %8s %8s %8s %8s\n" "benchmark" "configuration" "reach"
    "type" "null" "prim" "poly";
  List.iter
    (fun name ->
      let b = Option.get (W.Suites.find name) in
      let prog, main = W.Gen.compile (W.Suites.params_of ~scale:(scale /. 2.) b) in
      List.iter
        (fun (cname, config) ->
          let s = analyze config prog main in
          let m = s.Api.metrics in
          Printf.printf "%-22s %-22s %9d %8d %8d %8d %8d\n" name cname
            m.C.Metrics.reachable_methods m.C.Metrics.type_checks
            m.C.Metrics.null_checks m.C.Metrics.prim_checks m.C.Metrics.poly_calls)
        [
          ("PTA", C.Config.pta);
          ("primitives-only", C.Config.primitives_only);
          ("predicates-only", C.Config.predicates_only);
          ("SkipFlow", C.Config.skipflow);
          ("SkipFlow+sat64", { C.Config.skipflow with C.Config.saturation = Some 64 });
        ])
    [ "sunflow"; "pmd"; "spring-petclinic"; "chi-square" ]

(* --------------------- flat vs product primitive domain --------------- *)

(* The EXPERIMENTS.md flat-vs-product table: same program, same engine,
   only the primitive value domain switched.  Reachable methods and live
   flows may only shrink under the product; dead branches (the lint
   check) may only grow. *)
let print_product () =
  Printf.printf "\n===== Flat vs product primitive domain (--pval) =====\n";
  Printf.printf
    "(scale %.3f; the range-guarded units of each workload are removable \
     only under product)\n\n"
    scale;
  Printf.printf "%-12s %-22s %-8s %7s %11s %10s %10s\n" "suite" "benchmark" "pval"
    "reach" "live_flows" "dead_blks" "solve[ms]";
  List.iter
    (fun (b : W.Suites.bench) ->
      let params = W.Suites.params_of ~scale b in
      let prog, main = W.Gen.compile params in
      let line (pname, config) =
        let reach, live_flows, dead_blocks, t =
          measure ~reps:3 config prog main ~keep:(fun t s ->
              let ctx = K.Checks.make_ctx ~engine:s.Api.engine ~roots:[ main ] in
              ( C.Engine.reachable_count s.Api.engine,
                (C.Engine.stats s.Api.engine).C.Engine.live_flows,
                List.length (K.Checks.dead_blocks ctx),
                t ))
        in
        Printf.printf "%-12s %-22s %-8s %7d %11d %10d %10.1f\n" b.W.Suites.suite
          (if pname = "flat" then b.W.Suites.name else "")
          pname reach live_flows dead_blocks (t *. 1000.);
        (reach, live_flows)
      in
      let fr, ff = line ("flat", C.Config.skipflow) in
      let pr, pf = line ("product", product_config) in
      if pr > fr || pf > ff then begin
        Printf.eprintf "product: %s regressed (reach %d->%d, flows %d->%d)\n"
          b.W.Suites.name fr pr ff pf;
        exit 1
      end)
    W.Suites.all

(* --------------------------- bechamel micro --------------------------- *)

let print_micro () =
  Printf.printf "\n===== Micro-benchmarks (bechamel) =====\n%!";
  let open Bechamel in
  let open Toolkit in
  (* fixed small workloads so bechamel can iterate *)
  let small = { W.Gen.default_params with live_units = 20; dead_units = 3; unused_units = 2 } in
  let src = W.Gen.source small in
  let prog, main = W.Gen.compile small in
  let tests =
    [
      Test.make ~name:"frontend: lex+parse+typecheck+lower"
        (Staged.stage (fun () -> Skipflow_frontend.Frontend.compile src));
      Test.make ~name:"analysis: PTA"
        (Staged.stage (fun () -> analyze C.Config.pta prog main));
      Test.make ~name:"analysis: SkipFlow"
        (Staged.stage (fun () -> analyze C.Config.skipflow prog main));
      Test.make ~name:"analysis: SkipFlow preds-only"
        (Staged.stage (fun () -> analyze C.Config.predicates_only prog main));
      Test.make ~name:"baseline: RTA"
        (Staged.stage (fun () -> Skipflow_baselines.Rta.run prog ~roots:[ main ]));
      Test.make ~name:"baseline: CHA"
        (Staged.stage (fun () -> Skipflow_baselines.Cha.run prog ~roots:[ main ]));
      Test.make ~name:"interpreter: run main (fuel 50k)"
        (Staged.stage (fun () ->
             Skipflow_interp.Interp.run ~fuel:50_000 ~record_defs:false prog main));
    ]
  in
  let test = Test.make_grouped ~name:"skipflow" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols (Instance.monotonic_clock) raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  List.iter
    (fun name ->
      let t = Hashtbl.find results name in
      match Analyze.OLS.estimates t with
      | Some [ est ] -> Printf.printf "%-45s %12.3f ms/run\n" name (est /. 1e6)
      | _ -> Printf.printf "%-45s (no estimate)\n" name)
    (List.sort compare names)

(* ------------------------------ json verb ----------------------------- *)

(* Machine-readable perf rows, one per (bench, config), written to
   BENCH_<n>.json so the perf trajectory is tracked across PRs.  Each
   bench runs under four configs: the two analyses of Table 1 with the
   deduplicated engine ("PTA", "SkipFlow") and the same analyses on the
   boxed-FIFO reference drain ("PTA-ref", "SkipFlow-ref"), so the file
   carries its own task-deduplication baseline. *)

type jrow = {
  j_suite : string;
  j_bench : string;
  j_config : string;
  j_pval : string;  (** primitive value domain: "flat" or "product" *)
  j_time_ms : float;
  j_build_ms : float;  (** PVPG construction (inside the solve) *)
  j_solve_ms : float;  (** worklist drain to the fixed point *)
  j_metrics_ms : float;  (** Table 1 metric collection *)
  j_tasks : int;
  j_dedup_hits : int;
  j_reachable : int;
  j_live_flows : int;
}

let json_configs =
  [
    ("PTA", C.Config.pta, C.Engine.Dedup);
    ("SkipFlow", C.Config.skipflow, C.Engine.Dedup);
    ("SkipFlow-product", product_config, C.Engine.Dedup);
    ("PTA-ref", C.Config.pta, C.Engine.Reference);
    ("SkipFlow-ref", C.Config.skipflow, C.Engine.Reference);
  ]

let json_bench (b : W.Suites.bench) : jrow list =
  let params = W.Suites.params_of ~scale b in
  let prog, main = W.Gen.compile params in
  let n = Program.num_meths prog in
  (* json rows feed regression gates, so keep at least 5 repetitions even on
     the big programs: single measurements at scale 0.1 swing by 2x. *)
  let reps = if n < 2000 then 9 else if n < 60_000 then 5 else 3 in
  List.map
    (fun (cname, config, mode) ->
      measure ~mode ~reps config prog main ~keep:(fun t sum ->
          let s = C.Engine.stats sum.Api.engine in
          {
            j_suite = b.W.Suites.suite;
            j_bench = b.W.Suites.name;
            j_config = cname;
            j_pval = C.Pval.mode_name config.C.Config.pval;
            j_time_ms = t *. 1000.;
            j_build_ms = build_ms sum.Api.trace;
            j_solve_ms = phase_ms sum.Api.trace "solve";
            j_metrics_ms = phase_ms sum.Api.trace "metrics";
            j_tasks = s.C.Engine.tasks_processed;
            j_dedup_hits = C.Engine.dedup_hits s;
            j_reachable = C.Engine.reachable_count sum.Api.engine;
            j_live_flows = s.C.Engine.live_flows;
          }))
    json_configs

let next_bench_file () =
  let rec go n =
    let f = Printf.sprintf "BENCH_%d.json" n in
    if Sys.file_exists f then go (n + 1) else f
  in
  go 1

(* The dedup win on a config: reference tasks / dedup tasks, summed over
   the benches in the file (the CI smoke floor guards this number). *)
let dedup_ratio rows config =
  let sum c =
    List.fold_left
      (fun acc r -> if String.equal r.j_config c then acc + r.j_tasks else acc)
      0 rows
  in
  let ded = sum config and refr = sum (config ^ "-ref") in
  if ded = 0 then 0. else float_of_int refr /. float_of_int ded

let speedup rows config =
  let med c =
    match
      List.filter_map
        (fun r -> if String.equal r.j_config c then Some r.j_time_ms else None)
        rows
    with
    | [] -> 0.
    | l -> median l
  in
  let ded = med config and refr = med (config ^ "-ref") in
  if ded = 0. then 0. else refr /. ded

let emit_json ~out rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  (* v4: rows lost the "jobs" field and the summary its "parallel_*"
     fields (the parallel solver was removed) *)
  Buffer.add_string b "  \"schema_version\": 4,\n";
  Printf.bprintf b "  \"scale\": %g,\n" scale;
  Buffer.add_string b "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "    {\"suite\": %S, \"bench\": %S, \"config\": %S, \"pval\": %S, \
         \"time_ms\": %.3f, \
         \"build_ms\": %.3f, \"solve_ms\": %.3f, \"metrics_ms\": %.3f, \
         \"tasks\": %d, \"dedup_hits\": %d, \"reachable\": %d, \"live_flows\": %d}"
        r.j_suite r.j_bench r.j_config r.j_pval r.j_time_ms r.j_build_ms
        r.j_solve_ms r.j_metrics_ms r.j_tasks r.j_dedup_hits r.j_reachable
        r.j_live_flows)
    rows;
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b "  \"summary\": {\n";
  Printf.bprintf b "    \"dedup_task_ratio_pta\": %.3f,\n" (dedup_ratio rows "PTA");
  Printf.bprintf b "    \"dedup_task_ratio_skipflow\": %.3f,\n"
    (dedup_ratio rows "SkipFlow");
  Printf.bprintf b "    \"median_speedup_pta\": %.3f,\n" (speedup rows "PTA");
  Printf.bprintf b "    \"median_speedup_skipflow\": %.3f\n"
    (speedup rows "SkipFlow");
  Buffer.add_string b "  }\n}\n";
  let oc = open_out out in
  Buffer.output_buffer oc b;
  close_out oc

let run_json args =
  (* plain flag parsing, matching the harness style: [--benches a,b]
     restricts the run, [--min-dedup-ratio X] makes the process fail when
     the SkipFlow task-dedup ratio regresses below the floor (the CI smoke
     job), [-o FILE] overrides the auto-numbered output *)
  let benches = ref [] and floor_ = ref None and out = ref None in
  let check_product = ref false in
  let rec parse = function
    | "--benches" :: v :: rest ->
        benches := String.split_on_char ',' v;
        parse rest
    | "--min-dedup-ratio" :: v :: rest ->
        floor_ := Some (float_of_string v);
        parse rest
    | "--check-product-live-flows" :: rest ->
        check_product := true;
        parse rest
    | "-o" :: v :: rest ->
        out := Some v;
        parse rest
    | [] -> ()
    | other :: _ ->
        Printf.eprintf "json: unknown argument %s\n" other;
        exit 1
  in
  parse args;
  let selected =
    match !benches with
    | [] -> W.Suites.all
    | names ->
        List.map
          (fun n ->
            match W.Suites.find n with
            | Some b -> b
            | None ->
                Printf.eprintf "json: unknown benchmark %s\n" n;
                exit 1)
          names
  in
  let rows =
    List.concat_map
      (fun (b : W.Suites.bench) ->
        Printf.printf "  %-22s ...%!" b.W.Suites.name;
        let rows = json_bench b in
        Printf.printf " ok\n%!";
        rows)
      selected
  in
  let out = match !out with Some f -> f | None -> next_bench_file () in
  emit_json ~out rows;
  let ratio = dedup_ratio rows "SkipFlow" in
  Printf.printf
    "wrote %s (%d rows; SkipFlow dedup task ratio %.2fx, median speedup %.2fx)\n" out
    (List.length rows) ratio (speedup rows "SkipFlow");
  (* precision gate: on every bench the product primitive domain must
     reach a fixed point with no more live flows than the flat one, and
     it must strictly reduce at least one bench in the selection *)
  if !check_product then begin
    let find cfg bn =
      List.find_opt
        (fun r ->
          String.equal r.j_config cfg && String.equal r.j_bench bn)
        rows
    in
    let bench_names = List.sort_uniq compare (List.map (fun r -> r.j_bench) rows) in
    let strict = ref 0 in
    List.iter
      (fun bn ->
        match (find "SkipFlow" bn, find "SkipFlow-product" bn) with
        | Some flat, Some prod ->
            if prod.j_live_flows > flat.j_live_flows then begin
              Printf.eprintf "json: %s: product live_flows %d exceeds flat %d\n"
                bn prod.j_live_flows flat.j_live_flows;
              exit 1
            end;
            if prod.j_reachable > flat.j_reachable then begin
              Printf.eprintf "json: %s: product reachable %d exceeds flat %d\n"
                bn prod.j_reachable flat.j_reachable;
              exit 1
            end;
            if prod.j_live_flows < flat.j_live_flows then incr strict
        | _ ->
            Printf.eprintf "json: %s: missing a SkipFlow/SkipFlow-product row\n" bn;
            exit 1)
      bench_names;
    Printf.printf "product live-flows gate: %d/%d benches strictly reduced\n"
      !strict (List.length bench_names);
    if !strict = 0 then begin
      Printf.eprintf "json: product domain reduced live_flows on no benchmark\n";
      exit 1
    end
  end;
  match !floor_ with
  | Some f when ratio < f ->
      Printf.eprintf "json: dedup task ratio %.2f below floor %.2f\n" ratio f;
      exit 1
  | _ -> ()

(* -------------------------------- driver ------------------------------ *)

let collect () =
  Printf.printf "running Table 1 workloads at scale %.3f (SKIPFLOW_SCALE to change)...\n%!"
    scale;
  List.map
    (fun b ->
      Printf.printf "  %-22s ...%!" b.W.Suites.name;
      let r = run_bench b in
      let p, s = r in
      Printf.printf " PTA %d -> SkipFlow %d (%.1f%%)\n%!"
        p.r_m.C.Metrics.reachable_methods s.r_m.C.Metrics.reachable_methods
        (pcti s.r_m.C.Metrics.reachable_methods p.r_m.C.Metrics.reachable_methods);
      r)
    W.Suites.all

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match what with
  | "table1" ->
      let rows = collect () in
      print_table1 rows
  | "figure9" ->
      let rows = collect () in
      print_figure9 rows
  | "ablation" -> print_ablation ()
  | "product" -> print_product ()
  | "micro" -> print_micro ()
  | "json" ->
      run_json (Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2)))
  | "all" ->
      let rows = collect () in
      print_table1 rows;
      print_figure9 rows;
      print_ablation ();
      print_product ();
      print_micro ()
  | other ->
      Printf.eprintf
        "unknown command %s (table1|figure9|ablation|product|micro|json|all)\n"
        other;
      exit 1
