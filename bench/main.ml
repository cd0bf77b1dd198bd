(* Benchmark harness regenerating the paper's evaluation artifacts.

   Usage:
     dune exec bench/main.exe                 -- everything below
     dune exec bench/main.exe table1          -- Table 1 (PTA vs SkipFlow, all suites)
     dune exec bench/main.exe figure9         -- Figure 9 (normalized metrics per suite)
     dune exec bench/main.exe ablation        -- extra: feature ablation
     dune exec bench/main.exe product         -- flat vs product primitive domain

   Environment:
     SKIPFLOW_SCALE   workload scale relative to the paper's method counts
                      (default 0.02; the paper's absolute sizes are 20-400k
                      methods — see EXPERIMENTS.md for scale sensitivity)

   Absolute numbers differ from the paper (different machine, synthetic
   workloads, OCaml vs Java); the *shape* is what must match: SkipFlow
   strictly reduces reachable methods on every benchmark, sunflow is a
   ~50% outlier, counters track reachable methods, and analysis time does
   not systematically increase.

   The times printed here are in-process and indicative only.  Timing
   that gates or compares changes comes from perfbench/ (fresh process
   per run, per-layer spans from the same runs, fingerprinted workloads;
   see perfbench/README.md).  The deterministic count gates (dedup task
   ratio, product live flows) are tier-1 tests in test/t_engine_perf.ml. *)

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

let analyze config prog main =
  match Api.analyze_program ~config prog ~roots:[ main ] with
  | Ok s -> s
  | Error e ->
      prerr_endline ("bench: " ^ Api.error_message e);
      exit 1

(* [keep] projects a repetition's wall time and summary to what the
   caller reports, right after that repetition, so no earlier engine
   stays live; the result is the median-time repetition's projection. *)
let measure ~reps ~keep config prog main =
  let runs =
    List.init (max 1 reps) (fun _ ->
        let t0 = Unix.gettimeofday () in
        let s = analyze config prog main in
        let t = Unix.gettimeofday () -. t0 in
        (t, keep t s))
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) runs in
  snd (List.nth sorted (List.length sorted / 2))

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
  | "all" ->
      let rows = collect () in
      print_table1 rows;
      print_figure9 rows;
      print_ablation ();
      print_product ()
  | other ->
      Printf.eprintf "unknown command %s (table1|figure9|ablation|product|all)\n"
        other;
      exit 1
