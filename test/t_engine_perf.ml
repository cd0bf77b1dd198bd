(* Differential tests for the deduplicated worklist engine against the
   retained reference engine (the pre-dedup boxed FIFO):

   - both modes must reach bit-identical fixed points — same reachable
     set and [Vstate.equal] state/raw plus the same enabled bit on every
     flow — across a fuzz corpus and both the SkipFlow and PTA configs;
   - deduplication must pay: [tasks_processed] strictly decreases (and
     by at least 2x on the benchmark-sized workload), with the collapsed
     emits accounted in the [dedup_*] counters;
   - degradation under a task budget still only ever widens: the dedup
     engine's budget-tripped reachable set is a superset of the precise
     one;
   - the two deterministic count gates on the fj-kmeans and scala-kmeans
     Table-1 workloads at scale 0.02: the reference/dedup SkipFlow task
     ratio stays >= 2.0, and the product primitive domain never adds live
     flows or reachable methods over the flat one and strictly removes
     live flows somewhere. *)

open Skipflow_ir
module C = Skipflow_core
module W = Skipflow_workloads
module F = Skipflow_frontend

let run ~mode ?config prog main = C.Analysis.run ?config ~mode prog ~roots:[ main ]

let reachable_ids e =
  List.fold_left
    (fun acc (m : Program.meth) -> Ids.Meth.Set.add m.Program.m_id acc)
    Ids.Meth.Set.empty (C.Engine.reachable_methods e)

let expect_same_fixed_point ~ctx (a : C.Analysis.result) (b : C.Analysis.result) =
  Result.iter_error (Alcotest.failf "%s: %s" ctx)
    (C.Verify.same_fixed_point a.C.Analysis.engine b.C.Analysis.engine)

let test_dedup_matches_reference_fuzz () =
  for seed = 0 to 11 do
    let prog, main =
      W.Gen_random.compile
        {
          W.Gen_random.seed;
          classes = 3 + (seed mod 7);
          meths_per_class = 1 + (seed mod 3);
          max_stmts = 4 + (seed mod 5);
        }
    in
    List.iter
      (fun (name, config) ->
        let d = run ~mode:C.Engine.Dedup ~config prog main in
        let r = run ~mode:C.Engine.Reference ~config prog main in
        expect_same_fixed_point ~ctx:(Printf.sprintf "seed %d, %s" seed name) d r)
      [ ("skipflow", C.Config.skipflow); ("pta", C.Config.pta) ]
  done

let example_srcs =
  [
    ( "jdk-threads",
      {|
class Thread { boolean isVirtual() { return this instanceof BaseVirtualThread; } }
class BaseVirtualThread extends Thread { }
class Set { void remove(Thread t) { } }
class Container {
  var Set virtualThreads;
  void onExit(Thread thread) {
    if (thread.isVirtual()) { this.virtualThreads.remove(thread); }
  }
}
class Main {
  static void main() {
    Container c = new Container();
    c.virtualThreads = new Set();
    c.onExit(new Thread());
    c.onExit(new BaseVirtualThread());
  }
}
|}
    );
    ( "dispatch-loop",
      {|
class A { int f() { return 1; } }
class B extends A { int f() { return 2; } }
class C extends A { int f() { return 3; } }
class Main {
  static void main() {
    A a = new B();
    int i = 0;
    int s = 0;
    while (i < 10) {
      if (i == 5) { a = new C(); }
      s = s + a.f();
      i = i + 1;
    }
  }
}
|}
    );
  ]

let test_dedup_processes_fewer_tasks () =
  let check ctx prog main =
    let d = run ~mode:C.Engine.Dedup prog main in
    let r = run ~mode:C.Engine.Reference prog main in
    expect_same_fixed_point ~ctx d r;
    let td = (C.Engine.stats d.C.Analysis.engine).C.Engine.tasks_processed
    and tr = (C.Engine.stats r.C.Analysis.engine).C.Engine.tasks_processed in
    if not (td < tr) then
      Alcotest.failf "%s: dedup drained %d tasks, reference %d" ctx td tr;
    Alcotest.(check bool)
      (ctx ^ ": collapsed emits recorded") true
      (C.Engine.dedup_hits (C.Engine.stats d.C.Analysis.engine) > 0);
    Alcotest.(check int)
      (ctx ^ ": reference mode records no dedup hits") 0
      (C.Engine.dedup_hits (C.Engine.stats r.C.Analysis.engine));
    (td, tr)
  in
  List.iter
    (fun (name, src) ->
      let prog = F.Frontend.compile src in
      let main = Option.get (F.Frontend.main_of prog) in
      ignore (check name prog main))
    example_srcs;
  (* on the benchmark-sized generated workload the reduction must be the
     committed >= 2x (this ratio is deterministic, not a timing) *)
  let prog, main =
    W.Gen.compile { W.Gen.default_params with W.Gen.live_units = 6; dead_units = 2 }
  in
  let td, tr = check "workload" prog main in
  if tr < 2 * td then
    Alcotest.failf "workload: task reduction below 2x (dedup %d, reference %d)" td tr

let test_dedup_budget_superset () =
  let prog, main =
    W.Gen.compile { W.Gen.default_params with W.Gen.live_units = 6; dead_units = 2 }
  in
  let precise = run ~mode:C.Engine.Dedup prog main in
  let config =
    { C.Config.skipflow with C.Config.budget = C.Budget.make ~max_tasks:400 () }
  in
  let degraded = run ~mode:C.Engine.Dedup ~config prog main in
  Alcotest.(check bool) "budget tripped" true
    degraded.C.Analysis.metrics.C.Metrics.degraded;
  (match C.Verify.run degraded.C.Analysis.engine with
  | [] -> ()
  | vs -> Alcotest.failf "degraded dedup run fails certification: %s" (List.hd vs));
  Alcotest.(check bool) "degradation only adds reachable methods" true
    (Ids.Meth.Set.subset
       (reachable_ids precise.C.Analysis.engine)
       (reachable_ids degraded.C.Analysis.engine))

(* ------------------ count gates on the Table-1 workloads ---------------- *)

let gate_benches =
  lazy
    (List.map
       (fun name ->
         let b = Option.get (W.Suites.find name) in
         (name, W.Gen.compile (W.Suites.params_of ~scale:0.02 b)))
       [ "fj-kmeans"; "scala-kmeans" ])

let engine_of ~mode ~config (prog, main) =
  (run ~mode ~config prog main).C.Analysis.engine

(* Summed over both benches, the reference drain must process at least
   twice the tasks of the deduplicated one (measured: 92,250 / 22,363 =
   4.13x).  Below 2.0 the engine stopped collapsing work. *)
let test_dedup_task_ratio_floor () =
  let tasks mode =
    List.fold_left
      (fun acc (_, p) ->
        let e = engine_of ~mode ~config:C.Config.skipflow p in
        acc + (C.Engine.stats e).C.Engine.tasks_processed)
      0 (Lazy.force gate_benches)
  in
  let ded = tasks C.Engine.Dedup and refr = tasks C.Engine.Reference in
  let ratio = float_of_int refr /. float_of_int ded in
  if ratio < 2.0 then
    Alcotest.failf "SkipFlow dedup task ratio %.2f below floor 2.0 (ref %d, dedup %d)"
      ratio refr ded

let test_product_never_adds_flows () =
  let product = { C.Config.skipflow with C.Config.pval = C.Pval.Product } in
  let strict =
    List.fold_left
      (fun strict (name, p) ->
        let count config =
          let e = engine_of ~mode:C.Engine.Dedup ~config p in
          ((C.Engine.stats e).C.Engine.live_flows, C.Engine.reachable_count e)
        in
        let flat_flows, flat_reach = count C.Config.skipflow in
        let prod_flows, prod_reach = count product in
        if prod_flows > flat_flows then
          Alcotest.failf "%s: product live_flows %d exceeds flat %d" name prod_flows
            flat_flows;
        if prod_reach > flat_reach then
          Alcotest.failf "%s: product reachable %d exceeds flat %d" name prod_reach
            flat_reach;
        if prod_flows < flat_flows then strict + 1 else strict)
      0 (Lazy.force gate_benches)
  in
  if strict = 0 then Alcotest.fail "product domain reduced live_flows on no benchmark"

let suite =
  ( "engine-perf",
    [
      Alcotest.test_case "dedup = reference fixed point (fuzz corpus)" `Quick
        test_dedup_matches_reference_fuzz;
      Alcotest.test_case "dedup drains strictly fewer tasks" `Quick
        test_dedup_processes_fewer_tasks;
      Alcotest.test_case "budgeted dedup reaches a reachable superset" `Quick
        test_dedup_budget_superset;
      Alcotest.test_case "dedup task ratio floor on the kmeans benches" `Quick
        test_dedup_task_ratio_floor;
      Alcotest.test_case "product adds no live flows on the kmeans benches" `Quick
        test_product_never_adds_flows;
    ] )
