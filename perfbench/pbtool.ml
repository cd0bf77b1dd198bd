(* The benchmark's own helper: generates every workload input from a seed
   and, for traced runs, times calls into each layer's public functions
   from the outside.  Nothing here is linked into the analyzer; run.py
   drives the real [skipflow] binary for every end-to-end number.

     pbtool gen-table1  SEED DIR     seeded draw from the Table-1 catalog
     pbtool gen-deep    SEED DIR     deep-nesting / long-chain programs
     pbtool gen-session SEED DIR     serve program, edit pool, schedule
     pbtool pool        WORKLOAD DIR every input a seed can draw (pinning)
     pbtool trace-analyze FILE       one program through every layer
     pbtool trace-serve DIR N        first N session requests, in process

   Generators write sources plus a [manifest.json]; trace commands print
   one JSON object.  All randomness comes from [Random.State] seeded by
   the command line, so the same seed always writes the same bytes. *)

module C = Skipflow_core
module F = Skipflow_frontend
module W = Skipflow_workloads
module S = Skipflow_serve
module K = Skipflow_checks
module Api = Skipflow_api
open Skipflow_ir

(* ------------------------------- output ------------------------------- *)

type j = I of int | N of float | Str of string | L of j list | O of (string * j) list

let rec emit b = function
  | I n -> Buffer.add_string b (string_of_int n)
  | N f -> Buffer.add_string b (Printf.sprintf "%.6f" f)
  | Str s -> Buffer.add_string b (Printf.sprintf "%S" s)
  | L xs ->
      Buffer.add_char b '[';
      List.iteri (fun i x -> if i > 0 then Buffer.add_char b ','; emit b x) xs;
      Buffer.add_char b ']'
  | O kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "%S:" k);
          emit b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  emit b v;
  Buffer.contents b

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let now () = Unix.gettimeofday ()
let ms_since t0 = (now () -. t0) *. 1000.
let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.
let top_heap_mb () = mb_of_words (Gc.quick_stat ()).Gc.top_heap_words
let alloc_mwords () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8) /. 1e6

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let k = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(k);
    a.(k) <- t
  done;
  Array.to_list a

(* Manifests carry reals as strings: the in-repo JSON reader that
   trace-serve uses for them is integer-only. *)
let real x = Str (Printf.sprintf "%g" x)

let params_json (p : W.Gen.params) =
  O
    [ ("seed", I p.W.Gen.seed); ("live_units", I p.W.Gen.live_units);
      ("dead_units", I p.W.Gen.dead_units); ("unused_units", I p.W.Gen.unused_units);
      ("unit_size", I p.W.Gen.unit_size); ("poly_families", I p.W.Gen.poly_families);
      ("poly_width", I p.W.Gen.poly_width); ("check_density", real p.W.Gen.check_density);
      ("cross_calls", I p.W.Gen.cross_calls); ("range_guards", I p.W.Gen.range_guards) ]

(* ------------------------- analyze-table1 inputs ------------------------ *)

(* One fixed scale for the whole workload: 1/20 of the paper's method
   counts, the catalog's own default. *)
let table1_scale = 0.05

(* Always drawn: the most and one of the least pruned programs. *)
let table1_fixed = [ "sunflow"; "fop" ]

(* One more program from each size stratum (paper PTA kmethods), each
   stratum narrow enough that any member costs about the same: every
   draw has the same size profile — small, small, sunflow, large, fop —
   so seeds stay comparable and the odd count keeps p50 and p90 of the
   per-process times inside one program's band, not between two. *)
let table1_strata = [ (27., 30.); (30., 33.); (74., 77.) ]

let table1_stratum (lo, hi) =
  List.filter
    (fun (b : W.Suites.bench) ->
      b.W.Suites.paper_pta_kmethods >= lo && b.W.Suites.paper_pta_kmethods < hi)
    W.Suites.all

let table1_candidates () = List.concat_map table1_stratum table1_strata

let table1_draw seed =
  let rng = Random.State.make [| 0x7ab1e1; seed |] in
  let fixed = List.map (fun n -> Option.get (W.Suites.find n)) table1_fixed in
  let pick = List.map (fun st -> List.hd (shuffle rng (table1_stratum st))) table1_strata in
  shuffle rng (fixed @ pick)

let write_program dir i name src =
  let file = Printf.sprintf "%02d-%s.mj" i name in
  write_file (Filename.concat dir file) src;
  (file, Digest.to_hex (Digest.string src))

let gen_table1 seed dir benches =
  let entries =
    List.mapi
      (fun i (b : W.Suites.bench) ->
        let p = W.Suites.params_of ~scale:table1_scale b in
        let file, digest = write_program dir i b.W.Suites.name (W.Gen.source p) in
        O [ ("name", Str b.W.Suites.name); ("file", Str file); ("digest", Str digest);
            ("params", params_json p) ])
      benches
  in
  write_file (Filename.concat dir "manifest.json")
    (to_string
       (O [ ("workload", Str "analyze-table1"); ("seed", I seed);
            ("generator",
              O [ ("scale", real table1_scale); ("fixed", L (List.map (fun s -> Str s) table1_fixed));
                  ("strata_kmethods", L (List.map (fun (lo, hi) -> L [ real lo; real hi ]) table1_strata)) ]);
            ("programs", L entries) ]))

(* -------------------------- analyze-deep inputs ------------------------- *)

(* A deep program is one multiset of method shapes — nesting depths and
   chain lengths — scaled by its size class, in a seeded order with
   seeded constants, operators and comparisons.  A draw holds one program
   of each class, so any draw costs the same, and with five classes of
   distinct cost p50 and p90 of the per-process times fall inside one
   class's band, not between two. *)
let deep_pool = 16
let deep_scales = [ 0.5; 0.65; 0.8; 0.95; 1.1 ]
let deep_depths = List.init 16 (fun i -> 40 + (10 * i))
let deep_chains = List.init 16 (fun i -> 200 + (50 * i))

let deep_nested rng b name depth =
  Printf.bprintf b "  static int %s(int y) {\n    int a = y + %d;\n" name (Random.State.int rng 9);
  let cmps = [| "<"; ">"; "<="; ">="; "!=" |] in
  for d = 1 to depth do
    let v = if Random.State.bool rng then "y" else "a" in
    Printf.bprintf b "%sif (%s %s %d) {\n" (String.make (4 + (d mod 32)) ' ') v
      cmps.(Random.State.int rng (Array.length cmps))
      (Random.State.int rng 100);
    if d mod 4 = 0 then
      Printf.bprintf b "%sa = a + %d;\n" (String.make (6 + (d mod 32)) ' ') (1 + Random.State.int rng 7)
  done;
  Printf.bprintf b "      a = a * 2;\n";
  for d = depth downto 1 do
    Printf.bprintf b "%s}\n" (String.make (4 + (d mod 32)) ' ')
  done;
  Printf.bprintf b "    return a;\n  }\n"

let deep_chain rng b name len =
  Printf.bprintf b "  static int %s(int y) {\n    int a = y + %d;\n    int s = y" name (Random.State.int rng 9);
  let ops = [| " + "; " - "; " * " |] in
  for k = 1 to len - 1 do
    if k mod 8 = 0 then Buffer.add_string b "\n     ";
    Buffer.add_string b ops.(Random.State.int rng (Array.length ops));
    match Random.State.int rng 3 with
    | 0 -> Buffer.add_char b 'y'
    | 1 -> Buffer.add_char b 'a'
    | _ -> Buffer.add_string b (string_of_int (1 + Random.State.int rng 50))
  done;
  Printf.bprintf b ";\n    return s;\n  }\n"

let deep_source (index, scale) =
  let rng = Random.State.make [| 0xdee9; index |] in
  let sized = List.map (fun n -> int_of_float (float_of_int n *. scale)) in
  let shapes =
    shuffle rng
      (List.map (fun d -> `Nest d) (sized deep_depths)
      @ List.map (fun l -> `Chain l) (sized deep_chains))
  in
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b "class Main {\n  static void main() {\n    int x = 1;\n";
  List.iteri (fun i _ -> Printf.bprintf b "    x = Deep.f%d(x);\n" i) shapes;
  Buffer.add_string b "    return;\n  }\n}\nclass Deep {\n";
  List.iteri
    (fun i shape ->
      let name = Printf.sprintf "f%d" i in
      match shape with
      | `Nest d -> deep_nested rng b name d
      | `Chain l -> deep_chain rng b name l)
    shapes;
  Buffer.add_string b "}\n";
  Buffer.contents b

let deep_draw seed =
  let rng = Random.State.make [| 0xdee9d; seed |] in
  shuffle rng (List.map (fun scale -> (Random.State.int rng deep_pool, scale)) deep_scales)

let gen_deep seed dir indices =
  let entries =
    List.mapi
      (fun i (index, scale) ->
        let name = Printf.sprintf "deep%d-x%g" index scale in
        let file, digest = write_program dir i name (deep_source (index, scale)) in
        O [ ("name", Str name); ("file", Str file); ("digest", Str digest);
            ("pool_index", I index); ("scale", real scale) ])
      indices
  in
  write_file (Filename.concat dir "manifest.json")
    (to_string
       (O [ ("workload", Str "analyze-deep"); ("seed", I seed);
            ("generator", O [ ("pool", I deep_pool); ("scales", L (List.map real deep_scales));
                              ("depths", L (List.map (fun d -> I d) deep_depths));
                              ("chains", L (List.map (fun d -> I d) deep_chains)) ]);
            ("programs", L entries) ]))

(* ------------------------- serve-session inputs ------------------------- *)

(* A mid-size Table-1 program at a scale where a full solve is a few
   hundred milliseconds, so a session fits a hundred writes. *)
let serve_bench = "xalan"
let serve_scale = 0.01
let serve_variants = 64
let serve_root_pool = 8

let serve_base () =
  W.Gen.source (W.Suites.params_of ~scale:serve_scale (Option.get (W.Suites.find serve_bench)))

(* Units whose [entry] the one-shot analysis reaches (live) or not (dead). *)
let classify_units src =
  match Api.analyze ~source:(`Text src) ~roots:[] () with
  | Error e -> failwith (Api.error_message e)
  | Ok s ->
      let reach = Hashtbl.create 1024 in
      List.iter (fun n -> Hashtbl.replace reach n ()) s.Api.reachable;
      let prog = C.Engine.prog_of s.Api.engine in
      let live = ref [] and dead = ref [] in
      Program.iter_classes prog (fun c ->
          let n = c.Program.c_name in
          if String.length n > 4 && String.sub n 0 4 = "Unit" then
            if Hashtbl.mem reach (n ^ ".entry") then live := n :: !live else dead := n :: !dead);
      (List.rev !live, List.rev !dead)

(* Variant [k] of a unit: one extra statement at the top of its [m0], so
   the method's lowered body (and hence its fingerprint) changes. *)
let edit_unit src unit k =
  let find_from i pat =
    let n = String.length pat in
    let rec go i = if String.sub src i n = pat then i else go (i + 1) in
    go i
  in
  let c = find_from 0 ("class " ^ unit ^ " {") in
  let m = find_from c "int m0(int x) {\n" + String.length "int m0(int x) {\n" in
  String.sub src 0 m ^ Printf.sprintf "    x = x + %d;\n" (k + 1) ^ String.sub src m (String.length src - m)

let pick_units units k = List.nth units (k * 7 mod List.length units)

let serve_pool () =
  let base = serve_base () in
  let live, dead = classify_units base in
  let live_v = List.init serve_variants (fun k -> edit_unit base (pick_units live k) k) in
  let dead_v = List.init serve_variants (fun k -> edit_unit base (pick_units dead k) k) in
  let roots = List.init serve_root_pool (fun k -> pick_units dead k ^ ".entry") in
  (base, live_v, dead_v, roots)

(* One block of the closed-loop schedule.  From the base source it makes
   every write kind and returns to the base source with the default
   roots, so blocks compose and a seed only chooses the variants.

   The mix is assumed, not observed: nothing records real serve traffic.
   It is the shortest walk that makes every write kind and comes back:
   each excursion (two live edits, one dead edit, one root growth) needs
   a memo revert to return, and each new source is re-sent once, as an
   editor does on save without change (resident).  The second live edit
   gives a switch between two edited states (memo) and, with the first,
   makes full 2 of the 11 writes: 2 full, 3 resident, 4 memo, 1 reuse,
   1 redrain.  These counts also put p50 inside the memo band and p90
   inside the full band rather than on a boundary between two
   strategies, which keeps both percentiles steady from run to run; the
   per-strategy medians are reported beside them.
     live edit L (full), lint, re-send L (resident), live edit L2 (full),
     back to L (memo), revert to base (memo), health, re-send base
     (resident), lint, dead edit D (reuse), re-send D (resident), revert
     to base (memo), analyze, root growth (redrain), root reset (memo). *)
let block ~live ~live2 ~dead ~root =
  [ `Edit (`Live live); `Lint; `Edit (`Live live); `Edit (`Live live2); `Edit (`Live live);
    `Edit `Base; `Health; `Edit `Base; `Lint; `Edit (`Dead dead); `Edit (`Dead dead);
    `Edit `Base; `Analyze; `Grow root; `Reset ]

let block_len = List.length (block ~live:0 ~live2:0 ~dead:0 ~root:0)
(* A fixed session length: every run, on any host, replays the same 12
   blocks (132 writes, so 13 lie above the nearest-rank p90). *)
let serve_blocks = 12

let serve_schedule seed =
  let rng = Random.State.make [| 0x5e55; seed |] in
  let lv = Array.of_list (shuffle rng (List.init serve_variants Fun.id)) in
  let dv = Array.of_list (shuffle rng (List.init serve_variants Fun.id)) in
  List.concat
    (List.init serve_blocks (fun i ->
         block
           ~live:lv.(2 * i mod serve_variants)
           ~live2:lv.(((2 * i) + 1) mod serve_variants)
           ~dead:dv.(i mod serve_variants)
           ~root:(Random.State.int rng serve_root_pool)))

let gen_session seed dir =
  let base, live_v, dead_v, roots = serve_pool () in
  let sources = Hashtbl.create 64 in
  let source_file tag k src =
    let file = Printf.sprintf "%s%02d.mj" tag k in
    if not (Hashtbl.mem sources file) then begin
      write_file (Filename.concat dir file) src;
      Hashtbl.replace sources file ()
    end;
    file
  in
  let base_file = source_file "base" 0 base in
  let step = function
    | `Edit v ->
        let file =
          match v with
          | `Base -> base_file
          | `Live k -> source_file "live" k (List.nth live_v k)
          | `Dead k -> source_file "dead" k (List.nth dead_v k)
        in
        O [ ("op", Str "edit"); ("source", Str file) ]
    | `Lint -> O [ ("op", Str "lint") ]
    | `Health -> O [ ("op", Str "health") ]
    | `Analyze -> O [ ("op", Str "analyze") ]
    | `Grow k -> O [ ("op", Str "analyze"); ("roots", L [ Str "Main.main"; Str (List.nth roots k) ]) ]
    | `Reset -> O [ ("op", Str "analyze"); ("roots", L []) ]
  in
  let schedule = List.map step (serve_schedule seed) in
  write_file (Filename.concat dir "manifest.json")
    (to_string
       (O [ ("workload", Str "serve-session"); ("seed", I seed);
            ("generator", O [ ("bench", Str serve_bench); ("scale", real serve_scale);
                              ("variants", I serve_variants); ("root_pool", I serve_root_pool);
                              ("blocks", I serve_blocks); ("block_len", I block_len) ]);
            ("params", params_json (W.Suites.params_of ~scale:serve_scale (Option.get (W.Suites.find serve_bench))));
            ("base", Str base_file); ("schedule", L schedule) ]))

(* Every input any seed can draw, for pinning expected results. *)
let pool workload dir =
  match workload with
  | "analyze-table1" ->
      let fixed = List.map (fun n -> Option.get (W.Suites.find n)) table1_fixed in
      gen_table1 (-1) dir (fixed @ table1_candidates ())
  | "analyze-deep" ->
      gen_deep (-1) dir
        (List.concat_map (fun i -> List.map (fun sc -> (i, sc)) deep_scales) (List.init deep_pool Fun.id))
  | "serve-session" ->
      let base, live_v, dead_v, roots = serve_pool () in
      write_file (Filename.concat dir "base00.mj") base;
      List.iteri (fun k s -> write_file (Filename.concat dir (Printf.sprintf "live%02d.mj" k)) s) live_v;
      List.iteri (fun k s -> write_file (Filename.concat dir (Printf.sprintf "dead%02d.mj" k)) s) dead_v;
      write_file (Filename.concat dir "roots.json") (to_string (L (List.map (fun r -> Str r) roots)))
  | w -> failwith ("unknown workload " ^ w)

(* ------------------------------- tracing ------------------------------- *)

(* Spans timed from the outside.  Each span records its inclusive time
   and its self time (inclusive minus the spans nested in it), so self
   times of distinct layers add up to at most the enclosing total. *)
type span = { mutable incl : float; mutable self : float }

let spans : (string, span) Hashtbl.t = Hashtbl.create 16
let stack : float ref list ref = ref []

let span name f =
  let child = ref 0. in
  stack := child :: !stack;
  let t0 = now () in
  let finish () =
    let d = ms_since t0 in
    stack := List.tl !stack;
    (match !stack with parent :: _ -> parent := !parent +. d | [] -> ());
    let s =
      match Hashtbl.find_opt spans name with
      | Some s -> s
      | None ->
          let s = { incl = 0.; self = 0. } in
          Hashtbl.replace spans name s;
          s
    in
    s.incl <- s.incl +. d;
    s.self <- s.self +. d -. !child
  in
  Fun.protect ~finally:finish f

let self name = match Hashtbl.find_opt spans name with Some s -> s.self | None -> 0.
let spanner = { F.Frontend.span = (fun name f -> span name f) }

let trace_analyze file =
  let t0 = now () in
  let src = span "read" (fun () -> F.Frontend.read_file file) in
  let a0 = alloc_mwords () in
  let prog =
    match F.Frontend.compile_diags ~spanner src with
    | Ok p -> p
    | Error _ -> failwith ("frontend rejected " ^ file)
  in
  let front_alloc = alloc_mwords () -. a0 in
  let heap_front = top_heap_mb () in
  let trace = C.Trace.create ~timers:true () in
  let main = Option.get (F.Frontend.main_of prog) in
  let a1 = alloc_mwords () in
  let engine = span "roots" (fun () ->
    let e = C.Engine.create ~trace prog C.Config.skipflow in
    C.Engine.add_root e main;
    e)
  in
  let counter n = C.Trace.value (C.Trace.counter trace n) in
  let build_before_run = counter "build.wall_us" in
  ignore (span "run" (fun () -> C.Engine.run engine));
  let engine_alloc = alloc_mwords () -. a1 in
  let heap_engine = top_heap_mb () in
  let build_ms = float_of_int (counter "build.wall_us") /. 1000. in
  let build_in_run = float_of_int (counter "build.wall_us" - build_before_run) /. 1000. in
  let m = span "metrics" (fun () -> C.Metrics.compute engine) in
  let findings =
    span "checks" (fun () ->
        K.Checks.run (K.Checks.make_ctx ~engine ~roots:[ main ]))
  in
  let violations = span "verify" (fun () -> C.Verify.run engine) in
  let heap_checks = top_heap_mb () in
  let total = ms_since t0 in
  let st = C.Engine.stats engine in
  let run_ms = (Hashtbl.find spans "run").incl in
  let roots_ms = (Hashtbl.find spans "roots").incl in
  (* build self time is split out of the two spans it runs inside *)
  let layers =
    [ ("read", self "read"); ("frontend.parse", self "parse");
      ("frontend.typecheck", self "typecheck"); ("frontend.lower", self "lower");
      ("roots", roots_ms -. (build_ms -. build_in_run)); ("build", build_ms);
      ("engine.drain", run_ms -. build_in_run); ("metrics", self "metrics");
      ("checks", self "checks"); ("verify", self "verify") ]
  in
  print_endline
    (to_string
       (O
          ([ ("total_ms", N total);
             ("layers_ms", O (List.map (fun (k, v) -> (k, N v)) layers));
             ("engine.run_ms", N run_ms);
             ("frontend.alloc_mwords", N front_alloc);
             ("engine.alloc_mwords", N engine_alloc);
             ("ir.meths", I (Program.num_meths prog));
             ("ir.instrs", I (Program.total_size prog));
             ("build.flows", I (counter "build.flows"));
             ("build.edges", I (counter "build.edges"));
             ("build.methods", I (counter "build.methods"));
             ("engine.tasks", I st.C.Engine.tasks_processed);
             ("engine.dedup_hits", I (C.Engine.dedup_hits st));
             ("engine.links", I st.C.Engine.links);
             ("engine.live_flows", I st.C.Engine.live_flows);
             ("checks.findings", I (List.length findings));
             ("verify.violations", I (List.length violations));
             ("reachable_methods", I m.C.Metrics.reachable_methods);
             ("flows", I m.C.Metrics.flows);
             ("gc.top_heap_mb.frontend", N heap_front);
             ("gc.top_heap_mb.engine", N heap_engine);
             ("gc.top_heap_mb.checks", N heap_checks) ])))

(* The session replayed in process.  Each request goes through the real
   daemon core ([Server.handle_line], journal and snapshot included) and,
   in the same iteration, through the layers it is made of, called
   directly on a shadow state kept in step with the daemon's.  A layer is
   charged only where the daemon does that work: the frontend once for a
   full re-solve of the current source, twice for a full edit (the
   fingerprint compile, then the solve's own) and once for a reuse edit;
   Verify once for each outcome the daemon certified ([o_verified]: memo,
   reuse, redrain); the snapshot once per committed mutation, with the
   daemon's payload (resident state and memo).  Resident requests, memo
   hits and full solves compile nothing more and verify nothing. *)
let trace_serve dir n =
  let module I = S.Incremental in
  let module P = S.Protocol in
  let read name = F.Frontend.read_file (Filename.concat dir name) in
  let manifest = read "manifest.json" in
  let json = K.Json.of_string manifest in
  let str = function Some (K.Json.Str s) -> s | _ -> failwith "manifest: string" in
  let base_file = str (K.Json.member "base" json) in
  let schedule = match K.Json.member "schedule" json with Some (K.Json.Arr l) -> l | _ -> [] in
  let state_dir = Filename.concat dir "trace-state" in
  (try Unix.mkdir state_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let cfg =
    { S.Server.default_cfg with S.Server.sv_state_dir = Some state_dir; sv_timings = true }
  in
  let base = read base_file in
  let srv =
    match S.Server.create ~initial:(`Text base) ~resume:false cfg with
    | Ok s -> s
    | Error m -> failwith m
  in
  let config = C.Config.skipflow and mode = C.Engine.Dedup in
  let memo = I.Memo.create cfg.S.Server.sv_memo_entries in
  let st =
    ref
      (match I.solve_full ~config ~mode ~deadline_ms:None ~generation:0 ~source:base ~roots:[] () with
      | Ok o -> o.I.o_state
      | Error e -> failwith (P.error_message e))
  in
  let counts = Hashtbl.create 8 and strat_ms = Hashtbl.create 8 in
  let bump k = Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)) in
  let reported_ms = ref 0. and inconsistent = ref 0 in
  let writes = ref 0 and non_full = ref 0 and request_bytes = ref 0 and edits = ref 0 in
  let snap_bytes = ref 0 and verify_runs = ref 0 and violations = ref 0 in
  let findings = ref 0 and front_alloc = ref 0. in
  let snap_path = Filename.concat dir "trace-snapshot.bin" in
  let compile source =
    let a0 = alloc_mwords () in
    ignore (span "frontend" (fun () -> F.Frontend.compile_diags ~spanner source));
    front_alloc := !front_alloc +. (alloc_mwords () -. a0)
  in
  let t0 = now () in
  List.iteri
    (fun i step ->
      if i < n then begin
        let op = str (K.Json.member "op" step) in
        let fields =
          match op with
          | "edit" ->
              incr edits;
              [ ("source", K.Json.Str (read (str (K.Json.member "source" step)))) ]
          | _ -> (match K.Json.member "roots" step with Some r -> [ ("roots", r) ] | None -> [])
        in
        let line =
          K.Json.to_compact_string
            (K.Json.Obj ([ ("op", K.Json.Str op); ("id", K.Json.Int i) ] @ fields))
        in
        (* the daemon, end to end in process *)
        let h0 = now () in
        let resp = span "server.handle" (fun () -> S.Server.handle_line srv line) in
        let h = ms_since h0 in
        let wall_us =
          match resp with
          | [ r ] -> (
              let rj = K.Json.of_string r in
              match K.Json.member "result" rj with
              | Some res -> (match K.Json.member "wall_us" res with Some (K.Json.Int w) -> w | _ -> 0)
              | None -> 0)
          | _ -> 0
        in
        reported_ms := !reported_ms +. (float_of_int wall_us /. 1000.);
        if float_of_int wall_us /. 1000. > h then incr inconsistent;
        (* the layers, on the shadow state *)
        let env =
          match span "protocol.parse" (fun () -> P.parse_request line) with
          | Ok env -> env
          | Error e -> failwith (P.error_message e)
        in
        if op = "edit" then request_bytes := !request_bytes + String.length line;
        let apply ~source ~compiles f =
          let a0 = now () in
          match span "incremental" f with
          | Error e -> failwith (P.error_message e)
          | Ok (o : I.outcome) ->
              let strat = I.strategy_name o.I.o_strategy in
              let d = ms_since a0 in
              Hashtbl.replace strat_ms strat (d +. Option.value ~default:0. (Hashtbl.find_opt strat_ms strat));
              incr writes;
              if strat <> "full" then incr non_full;
              bump strat;
              for _ = 1 to compiles o.I.o_strategy do compile source done;
              if o.I.o_verified then begin
                incr verify_runs;
                violations :=
                  !violations + List.length (span "verify" (fun () -> C.Verify.run o.I.o_state.I.engine))
              end;
              if o.I.o_state.I.generation > !st.I.generation then begin
                st := o.I.o_state;
                List.iter (I.Memo.add memo) o.I.o_memo_adds;
                (* the daemon's payload: resident state, memo, config *)
                let frozen =
                  span "snapshot.encode" (fun () ->
                      Marshal.to_string (Some (I.freeze !st), I.Memo.entries memo, "bench") [])
                in
                snap_bytes := String.length frozen;
                ignore
                  (span "snapshot.write" (fun () ->
                       C.Snapshot.write ~path:snap_path ~kind:"bench-state" ~version:1 frozen))
              end
        in
        match env.P.req with
        | P.Edit { source } ->
            let compiles = function I.Reuse -> 1 | I.Full _ -> 2 | _ -> 0 in
            apply ~source ~compiles (fun () -> I.edit ~config ~mode ~deadline_ms:None ~memo !st ~source)
        | P.Analyze { roots = Some roots } ->
            let compiles = function I.Full _ -> 1 | _ -> 0 in
            apply ~source:!st.I.source ~compiles (fun () ->
                I.analyze_roots ~config ~mode ~deadline_ms:None ~memo !st ~roots)
        | P.Lint _ ->
            findings :=
              !findings
              + List.length
                  (span "checks" (fun () ->
                       let prog = C.Engine.prog_of !st.I.engine in
                       let roots = Result.get_ok (Api.resolve_roots prog !st.I.roots) in
                       K.Checks.run (K.Checks.make_ctx ~engine:!st.I.engine ~roots)))
        | _ -> ()
      end)
    schedule;
  let total = ms_since t0 in
  S.Server.finalize srv;
  let ms name = match Hashtbl.find_opt spans name with Some s -> s.incl | None -> 0. in
  let handle_ms = ms "server.handle" in
  let strategies = [ "resident"; "memo"; "reuse"; "redrain"; "full" ] in
  let layers =
    [ "server.handle"; "protocol.parse"; "incremental"; "frontend"; "parse"; "typecheck";
      "lower"; "verify"; "snapshot.encode"; "snapshot.write"; "checks" ]
  in
  print_endline
    (to_string
       (O
          ([ ("total_ms", N total); ("requests", I (min n (List.length schedule)));
             ("layers_ms", O (List.map (fun k -> (k, N (self k))) layers));
             ("server.handle_ms", N handle_ms);
             ("server.unreported_ms", N (handle_ms -. !reported_ms));
             ("server.reported_over_handle", I !inconsistent);
             ("protocol.parse_ms", N (ms "protocol.parse"));
             ("protocol.request_kb", N (float_of_int !request_bytes /. 1024. /. float_of_int (max 1 !edits)));
             ("frontend.parse_ms", N (ms "parse")); ("frontend.typecheck_ms", N (ms "typecheck"));
             ("frontend.lower_ms", N (ms "lower")); ("frontend.alloc_mwords", N !front_alloc);
             ("snapshot.encode_ms", N (ms "snapshot.encode")); ("snapshot.bytes", I !snap_bytes);
             ("snapshot.write_ms", N (ms "snapshot.write"));
             ("verify.ms", N (ms "verify")); ("verify.runs", I !verify_runs);
             ("verify.violations", I !violations);
             ("checks.ms", N (ms "checks")); ("checks.findings", I !findings);
             ("incremental.writes", I !writes);
             ("incremental.incremental_ratio",
              N (float_of_int !non_full /. float_of_int (max 1 !writes))) ]
          @ List.concat_map
              (fun s ->
                [ (Printf.sprintf "incremental.%s.ms" s,
                   N (Option.value ~default:0. (Hashtbl.find_opt strat_ms s)));
                  (Printf.sprintf "incremental.%s.count" s,
                   I (Option.value ~default:0 (Hashtbl.find_opt counts s))) ])
              strategies
          @ [ ("gc.top_heap_mb.serve", N (top_heap_mb ())) ])))

(* --------------------------------- main -------------------------------- *)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ ("gen-table1" | "gen-deep" | "gen-session") as cmd; seed; dir ] ->
      (* prints its own wall time: generation and writing, without the
         process start-up the caller would otherwise also time *)
      let t0 = now () and seed = int_of_string seed in
      (match cmd with
      | "gen-table1" -> gen_table1 seed dir (table1_draw seed)
      | "gen-deep" -> gen_deep seed dir (deep_draw seed)
      | _ -> gen_session seed dir);
      Printf.printf "%.6f\n" (now () -. t0)
  | [ "pool"; workload; dir ] -> pool workload dir
  | [ "trace-analyze"; file ] -> trace_analyze file
  | [ "trace-serve"; dir; n ] -> trace_serve dir (int_of_string n)
  | _ ->
      prerr_endline "usage: pbtool (gen-table1|gen-deep|gen-session) SEED DIR | pool WORKLOAD DIR | trace-analyze FILE | trace-serve DIR N";
      exit 2
