(* The checkpoint/resume robustness matrix:

   - the Snapshot container rejects every corruption class (truncation,
     bit flips anywhere, foreign files, wrong kind, stale schema) with a
     typed error — no exception ever escapes a read;
   - pause-on-budget + resume reaches the *identical* fixed point as an
     uninterrupted run — same reachable set, same enabled bit and
     [Vstate] on every flow — across a fuzz corpus, both configs, and
     both engine modes; resuming twice (pause again mid-resume) also
     converges to the same point;
   - a snapshot survives a disk round trip through the container and the
     restored engine continues the paused run's counters. *)

open Skipflow_ir
module C = Skipflow_core
module W = Skipflow_workloads

(* ------------------------- container round trip ----------------------- *)

let in_temp_dir f =
  let dir = Filename.temp_dir "skipflow-snap" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let write_exn ~path ~kind ~version payload =
  match C.Snapshot.write ~path ~kind ~version payload with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write failed: %s" (C.Snapshot.error_message e)

let test_container_round_trip () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "blob" in
      let payload = String.init 4096 (fun i -> Char.chr (i * 7 land 0xff)) in
      write_exn ~path ~kind:"test-kind" ~version:3 payload;
      (match C.Snapshot.read ~path ~kind:"test-kind" ~version:3 with
      | Ok p -> Alcotest.(check string) "payload round-trips" payload p
      | Error e -> Alcotest.failf "read failed: %s" (C.Snapshot.error_message e));
      (* the empty payload is a valid blob too *)
      write_exn ~path ~kind:"test-kind" ~version:3 "";
      match C.Snapshot.read ~path ~kind:"test-kind" ~version:3 with
      | Ok p -> Alcotest.(check string) "empty payload round-trips" "" p
      | Error e -> Alcotest.failf "empty read failed: %s" (C.Snapshot.error_message e))

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Every way of damaging a written blob must come back as a typed error.
   The taxonomy per damage site is part of the contract. *)
let test_container_rejects_corruption () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "blob" in
      let payload = String.init 1024 (fun i -> Char.chr (i land 0xff)) in
      let fresh () = write_exn ~path ~kind:"test-kind" ~version:1 payload in
      let expect ctx classify =
        match C.Snapshot.read ~path ~kind:"test-kind" ~version:1 with
        | Ok _ -> Alcotest.failf "%s: damaged blob read back Ok" ctx
        | Error e ->
            if not (classify e) then
              Alcotest.failf "%s: unexpected error %s" ctx
                (C.Snapshot.error_message e)
      in
      fresh ();
      let intact = read_file path in
      (* truncation at every region: empty, mid-header, mid-payload *)
      List.iter
        (fun keep ->
          write_file path (String.sub intact 0 keep);
          expect
            (Printf.sprintf "truncated to %d" keep)
            (function C.Snapshot.Truncated _ -> true | _ -> false))
        [ 0; 3; String.length intact / 2; String.length intact - 1 ];
      (* a bit flip in the magic is a foreign file; in the payload or
         trailing CRC it is a checksum mismatch *)
      let flip pos =
        let b = Bytes.of_string intact in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
        write_file path (Bytes.to_string b)
      in
      flip 0;
      expect "flipped magic"
        (function C.Snapshot.Bad_magic _ -> true | _ -> false);
      flip (String.length intact / 2);
      expect "flipped payload byte"
        (function C.Snapshot.Bad_checksum _ -> true | _ -> false);
      flip (String.length intact - 1);
      expect "flipped checksum byte"
        (function C.Snapshot.Bad_checksum _ -> true | _ -> false);
      (* wrong kind and stale schema version *)
      fresh ();
      (match C.Snapshot.read ~path ~kind:"other-kind" ~version:1 with
      | Error (C.Snapshot.Bad_kind { found = "test-kind"; _ }) -> ()
      | Error e -> Alcotest.failf "wrong kind: %s" (C.Snapshot.error_message e)
      | Ok _ -> Alcotest.fail "wrong kind read back Ok");
      (match C.Snapshot.read ~path ~kind:"test-kind" ~version:2 with
      | Error (C.Snapshot.Bad_version { found = 1; expected = 2; _ }) -> ()
      | Error e -> Alcotest.failf "stale version: %s" (C.Snapshot.error_message e)
      | Ok _ -> Alcotest.fail "stale version read back Ok");
      (* garbage that was never a blob *)
      write_file path "this is not a snapshot";
      expect "garbage file"
        (function
          | C.Snapshot.Bad_magic _ | C.Snapshot.Truncated _ -> true
          | _ -> false);
      (* a missing file is an I/O error, not an exception *)
      Sys.remove path;
      expect "missing file" (function C.Snapshot.Io _ -> true | _ -> false))

(* ----------------------- fixed-point equivalence ---------------------- *)

let reachable_ids e =
  List.fold_left
    (fun acc (m : Program.meth) -> Ids.Meth.Set.add m.Program.m_id acc)
    Ids.Meth.Set.empty (C.Engine.reachable_methods e)

(* Same flow-by-flow comparison as the dedup/reference differential
   tests: per-method flow lists are in deterministic construction order,
   so zipping lines them up 1:1. *)
let check_same_fixed_point ~ctx (ea : C.Engine.t) (eb : C.Engine.t) =
  if not (Ids.Meth.Set.equal (reachable_ids ea) (reachable_ids eb)) then
    Alcotest.failf "%s: reachable sets differ" ctx;
  List.iter
    (fun (ga : C.Graph.method_graph) ->
      let mid = ga.C.Graph.g_meth.Program.m_id in
      match C.Engine.graph_of eb mid with
      | None -> Alcotest.failf "%s: method missing in resumed run" ctx
      | Some gb ->
          let fa = ga.C.Graph.g_flows and fb = gb.C.Graph.g_flows in
          if List.length fa <> List.length fb then
            Alcotest.failf "%s: flow counts differ for a method" ctx;
          List.iter2
            (fun (x : C.Flow.t) (y : C.Flow.t) ->
              if x.C.Flow.enabled <> y.C.Flow.enabled then
                Alcotest.failf "%s: enabled bit differs on flow %d/%d" ctx
                  x.C.Flow.id y.C.Flow.id;
              if not (C.Vstate.equal x.C.Flow.state y.C.Flow.state) then
                Alcotest.failf "%s: state differs on flow %d/%d" ctx
                  x.C.Flow.id y.C.Flow.id;
              if not (C.Vstate.equal x.C.Flow.raw y.C.Flow.raw) then
                Alcotest.failf "%s: raw state differs on flow %d/%d" ctx
                  x.C.Flow.id y.C.Flow.id)
            fa fb)
    (C.Engine.graphs ea)

let corpus =
  List.map
    (fun seed ->
      W.Gen_random.compile
        {
          W.Gen_random.seed;
          classes = 4 + (seed mod 6);
          meths_per_class = 1 + (seed mod 3);
          max_stmts = 5 + (seed mod 4);
        })
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let resume_exn ~ctx ?budget ?on_budget bytes =
  match C.Analysis.resume ?budget ?on_budget bytes with
  | Ok r -> r
  | Error msg -> Alcotest.failf "%s: resume failed: %s" ctx msg

(* Pause under a tiny task budget, resume unlimited, and demand the
   resumed fixed point equals the uninterrupted run's — over the corpus,
   both configs, both engine modes.  Programs small enough to finish
   under the pause budget just complete; the final assertion guarantees
   the matrix actually exercised the pause path. *)
let test_pause_resume_identical_fixed_point () =
  let paused_cases = ref 0 in
  List.iteri
    (fun i (prog, main) ->
      List.iter
        (fun (cname, config) ->
          List.iter
            (fun (mname, mode) ->
              let ctx = Printf.sprintf "seed %d, %s, %s" i cname mname in
              let straight =
                C.Analysis.run ~config ~mode prog ~roots:[ main ]
              in
              let small =
                { config with C.Config.budget = C.Budget.make ~max_tasks:25 () }
              in
              let paused =
                C.Analysis.run ~config:small ~mode ~on_budget:`Pause prog
                  ~roots:[ main ]
              in
              let finished =
                match paused.C.Analysis.outcome with
                | C.Engine.Completed -> paused
                | C.Engine.Paused bytes ->
                    incr paused_cases;
                    Alcotest.(check bool)
                      (ctx ^ ": paused run is not degraded")
                      false
                      (C.Engine.is_degraded paused.C.Analysis.engine);
                    resume_exn ~ctx ~budget:C.Budget.unlimited bytes
              in
              (match finished.C.Analysis.outcome with
              | C.Engine.Completed -> ()
              | C.Engine.Paused _ ->
                  Alcotest.failf "%s: unlimited resume paused again" ctx);
              check_same_fixed_point ~ctx straight.C.Analysis.engine
                finished.C.Analysis.engine)
            [ ("dedup", C.Engine.Dedup); ("ref", C.Engine.Reference) ])
        [
          ("skipflow", C.Config.skipflow);
          ( "skipflow-product",
            { C.Config.skipflow with C.Config.pval = C.Pval.Product } );
          ("pta", C.Config.pta);
        ])
    corpus;
  Alcotest.(check bool)
    "the corpus exercised the pause path" true (!paused_cases >= 8)

(* Pausing a second time mid-resume must still converge to the same
   point: pause at 25 tasks, resume under 60 (pausing again on the big
   programs), then resume unlimited. *)
let test_double_resume_deterministic () =
  let double_paused = ref 0 in
  List.iteri
    (fun i (prog, main) ->
      let ctx = Printf.sprintf "seed %d" i in
      let straight = C.Analysis.run prog ~roots:[ main ] in
      let small =
        {
          C.Config.skipflow with
          C.Config.budget = C.Budget.make ~max_tasks:25 ();
        }
      in
      let first =
        C.Analysis.run ~config:small ~on_budget:`Pause prog ~roots:[ main ]
      in
      let finished =
        match first.C.Analysis.outcome with
        | C.Engine.Completed -> first
        | C.Engine.Paused bytes -> (
            let second =
              resume_exn ~ctx
                ~budget:(C.Budget.make ~max_tasks:60 ())
                ~on_budget:`Pause bytes
            in
            match second.C.Analysis.outcome with
            | C.Engine.Completed -> second
            | C.Engine.Paused bytes2 ->
                incr double_paused;
                resume_exn ~ctx ~budget:C.Budget.unlimited bytes2)
      in
      check_same_fixed_point ~ctx straight.C.Analysis.engine
        finished.C.Analysis.engine)
    corpus;
  Alcotest.(check bool)
    "the corpus exercised the double-pause path" true (!double_paused >= 1)

(* ------------------------- disk round trip ---------------------------- *)

let test_snapshot_disk_round_trip () =
  in_temp_dir (fun dir ->
      let prog, main = List.nth corpus 3 in
      let small =
        {
          C.Config.skipflow with
          C.Config.budget = C.Budget.make ~max_tasks:25 ();
        }
      in
      let paused =
        C.Analysis.run ~config:small ~on_budget:`Pause prog ~roots:[ main ]
      in
      (match paused.C.Analysis.outcome with
      | C.Engine.Paused _ -> ()
      | C.Engine.Completed -> Alcotest.fail "program too small to pause");
      let path = Filename.concat dir "engine.snap" in
      (match C.Engine.save_snapshot paused.C.Analysis.engine ~path with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save: %s" (C.Snapshot.error_message e));
      let trace = C.Trace.create () in
      let restored =
        match
          C.Engine.load_snapshot ~trace ~budget:C.Budget.unlimited path
        with
        | Ok e -> e
        | Error e -> Alcotest.failf "load: %s" (C.Snapshot.error_message e)
      in
      (* the restored engine continues the paused run's accounting … *)
      let before = (C.Engine.stats paused.C.Analysis.engine).C.Engine.tasks_processed in
      (match C.Engine.run restored with
      | C.Engine.Completed -> ()
      | C.Engine.Paused _ -> Alcotest.fail "unlimited restored run paused");
      let after = (C.Engine.stats restored).C.Engine.tasks_processed in
      Alcotest.(check bool) "counters continue, not restart" true (after > before);
      (* … and reaches the same fixed point as an uninterrupted solve *)
      let straight = C.Analysis.run prog ~roots:[ main ] in
      check_same_fixed_point ~ctx:"disk round trip"
        straight.C.Analysis.engine restored;
      (* feeding a cache entry to the engine loader is a kind mismatch,
         not a crash *)
      let entry = Filename.concat dir "foreign" in
      write_exn ~path:entry ~kind:"cache-entry" ~version:1 "k\nv";
      match C.Engine.load_snapshot entry with
      | Error (C.Snapshot.Bad_kind _) -> ()
      | Error e ->
          Alcotest.failf "foreign kind: %s" (C.Snapshot.error_message e)
      | Ok _ -> Alcotest.fail "cache entry loaded as an engine snapshot")

(* Snapshots written before the interval × constant primitive domain
   carry flat-only value states, so the payload schema was bumped; a
   pre-bump blob must be rejected as [Bad_version], never decoded into a
   product-domain engine. *)
let test_pre_product_snapshot_rejected () =
  Alcotest.(check bool)
    "payload schema bumped for the product domain" true
    (C.Engine.snapshot_version >= 2);
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "old.snap" in
      write_exn ~path ~kind:C.Engine.snapshot_kind
        ~version:(C.Engine.snapshot_version - 1)
        "flat-era payload";
      match C.Engine.load_snapshot path with
      | Error (C.Snapshot.Bad_version { found; expected; _ }) ->
          Alcotest.(check int) "found the stale version" (C.Engine.snapshot_version - 1) found;
          Alcotest.(check int) "expected the current version" C.Engine.snapshot_version expected
      | Error e ->
          Alcotest.failf "expected Bad_version, got %s" (C.Snapshot.error_message e)
      | Ok _ -> Alcotest.fail "flat-era snapshot decoded under the product schema")

(* An intact container whose payload is not a marshaled engine must be a
   reported [Bad_payload], never a segfault or exception. *)
let test_bad_payload_reported () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "bad.snap" in
      write_exn ~path ~kind:C.Engine.snapshot_kind
        ~version:C.Engine.snapshot_version "not a marshal image";
      match C.Engine.load_snapshot path with
      | Error (C.Snapshot.Bad_payload _) -> ()
      | Error e ->
          Alcotest.failf "expected Bad_payload, got %s"
            (C.Snapshot.error_message e)
      | Ok _ -> Alcotest.fail "garbage payload decoded")

(* The sliced CRC-32 must be the IEEE 802.3 CRC: the standard check
   value, and on every length (each residue of the 8-byte main loop and
   the bytewise tail) the result of the textbook bytewise algorithm. *)
let test_crc32_matches_bytewise () =
  Alcotest.(check int) "check value" 0xCBF43926 (C.Snapshot.crc32 "123456789");
  Alcotest.(check int) "empty" 0 (C.Snapshot.crc32 "");
  let reference s =
    let c = ref 0xFFFFFFFF in
    String.iter
      (fun ch ->
        c := !c lxor Char.code ch;
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done)
      s;
    !c lxor 0xFFFFFFFF
  in
  let rng = Random.State.make [| 32 |] in
  for len = 0 to 4099 do
    let s = String.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
    if C.Snapshot.crc32 s <> reference s then
      Alcotest.failf "crc32 differs from the bytewise reference at length %d" len
  done

let suite =
  ( "snapshot",
    [
      Alcotest.test_case "container round trip" `Quick test_container_round_trip;
      Alcotest.test_case "container rejects every corruption class" `Quick
        test_container_rejects_corruption;
      Alcotest.test_case "pause+resume = straight run (corpus x config x mode)"
        `Quick test_pause_resume_identical_fixed_point;
      Alcotest.test_case "double resume converges to the same point" `Quick
        test_double_resume_deterministic;
      Alcotest.test_case "snapshot survives a disk round trip" `Quick
        test_snapshot_disk_round_trip;
      Alcotest.test_case "pre-product snapshots are rejected by version" `Quick
        test_pre_product_snapshot_rejected;
      Alcotest.test_case "undecodable payload is a reported error" `Quick
        test_bad_payload_reported;
      Alcotest.test_case "crc32 equals the bytewise reference" `Quick
        test_crc32_matches_bytewise;
    ] )
