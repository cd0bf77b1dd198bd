(* The durable-IO layer's contract:

   - fault plans are deterministic: the decision for operation [i] is a
     pure function of [(seed, i)], so previews of same-seed plans are
     equal and a failing seed replays exactly;
   - absorbable faults (an extra EINTR, a short write) are invisible to
     callers; hard faults (EIO, ENOSPC) come back as typed errors with
     the temp file cleaned up and the destination untouched; a torn
     rename is caught downstream by the container CRC — every injected
     fault maps to a structured error or a clean recovery, never an
     escaping exception;
   - all three durability levels produce byte-identical files;
   - the appender buffers under [D_none] and publishes on flush;
   - injected faults surface at the API boundary as structured
     [Api.Io_error], not exceptions;
   - the crash-point matrix (fork a child, kill it before IO operation
     [k], inspect the disk) passes over the snapshot, cache, and serve
     journal sites with zero corrupt or unsound recoveries. *)

module C = Skipflow_core
module Api = Skipflow_api
module Io = C.Io

let in_temp_dir f =
  let dir = Filename.temp_dir "skipflow-io" "" in
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun n -> rm (Filename.concat p n)) (Sys.readdir p);
      try Unix.rmdir p with Unix.Unix_error _ -> ()
    end
    else try Sys.remove p with Sys_error _ -> ()
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let read_exn path =
  match Io.read_file path with
  | Ok s -> s
  | Error e -> Alcotest.failf "read %s: %s" path (Io.error_message e)

let write_exn path s =
  match Io.write_file_atomic ~path s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write %s: %s" path (Io.error_message e)

let tmp_droppings dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun n ->
         List.exists
           (fun part -> String.length part >= 3 && String.sub part 0 3 = "tmp")
           (String.split_on_char '.' n))

(* --------------------------- determinism ------------------------------ *)

let test_plan_determinism () =
  let p1 = Io.plan ~rate:3 ~seed:42 () in
  let p2 = Io.plan ~rate:3 ~seed:42 () in
  Alcotest.(check bool)
    "same seed, same decisions" true
    (Io.preview p1 ~n:500 = Io.preview p2 ~n:500);
  let p3 = Io.plan ~rate:3 ~seed:43 () in
  Alcotest.(check bool)
    "different seeds disagree somewhere" false
    (Io.preview p1 ~n:500 = Io.preview p3 ~n:500);
  let some = List.filter Option.is_some (Io.preview p1 ~n:500) in
  Alcotest.(check bool)
    "rate 3 injects in the right ballpark" true
    (List.length some > 80 && List.length some < 350);
  (* the op count of a fixed workload is reproducible — the property the
     crash matrix enumerates over *)
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "f" in
      let count () =
        Io.with_plan (Io.plan ~seed:7 ()) (fun () ->
            write_exn path "payload";
            ignore (read_exn path);
            Io.ops_performed ())
      in
      let a = count () in
      Alcotest.(check int) "op counts are workload-pure" a (count ());
      Alcotest.(check bool) "the workload ticks operations" true (a > 0))

(* ------------------------ durability levels --------------------------- *)

let test_durability_levels_byte_identical () =
  in_temp_dir (fun dir ->
      let payload = String.init 70000 (fun i -> Char.chr (i * 11 land 0xff)) in
      let prev = Io.durability () in
      Fun.protect ~finally:(fun () -> Io.set_durability prev) @@ fun () ->
      let bytes_at level name =
        Io.set_durability level;
        let path = Filename.concat dir name in
        write_exn path payload;
        read_exn path
      in
      let none = bytes_at Io.D_none "none" in
      let flush = bytes_at Io.D_flush "flush" in
      let fsync = bytes_at Io.D_fsync "fsync" in
      Alcotest.(check bool) "none = flush" true (String.equal none flush);
      Alcotest.(check bool) "flush = fsync" true (String.equal flush fsync);
      Alcotest.(check bool) "content survives" true (String.equal flush payload);
      Alcotest.(check (list string)) "no temp droppings" [] (tmp_droppings dir))

(* -------------------------- fault mapping ----------------------------- *)

let test_absorbable_faults_invisible () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "f" in
      let payload = String.init 9000 (fun i -> Char.chr (i land 0xff)) in
      (* every operation suffers an extra EINTR or a short write; the
         retry and chunk machinery must hide all of it *)
      let plan =
        Io.plan ~rate:1 ~faults:[ Io.F_eintr; Io.F_short_write ] ~seed:5 ()
      in
      Io.with_plan plan (fun () ->
          write_exn path payload;
          Alcotest.(check bool)
            "faults were actually injected" true
            (Io.injected () > 0);
          Alcotest.(check bool)
            "content intact under absorbed faults" true
            (String.equal (read_exn path) payload)))

let test_hard_faults_typed_and_clean () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "f" in
      write_exn path "old";
      List.iter
        (fun (fault, fname) ->
          let plan = Io.plan ~rate:1 ~faults:[ fault ] ~seed:9 () in
          (match
             Io.with_plan plan (fun () -> Io.write_file_atomic ~path "new")
           with
          | Ok () -> Alcotest.failf "%s: write reported success" fname
          | Error e ->
              Alcotest.(check bool)
                (fname ^ " names the path") true
                (e.Io.io_path <> "")
          | exception e ->
              Alcotest.failf "%s: exception escaped: %s" fname
                (Printexc.to_string e));
          Alcotest.(check string)
            (fname ^ " leaves the old content")
            "old" (read_exn path);
          Alcotest.(check (list string))
            (fname ^ " leaves no temp file")
            [] (tmp_droppings dir))
        [ (Io.F_eio, "EIO"); (Io.F_enospc, "ENOSPC") ])

let test_torn_rename_detected_by_container () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "blob" in
      let payload = String.make 2048 'x' in
      let plan = Io.plan ~rate:1 ~faults:[ Io.F_torn_rename ] ~seed:3 () in
      Io.with_plan plan (fun () ->
          ignore (C.Snapshot.write ~path ~kind:"t" ~version:1 payload));
      match C.Snapshot.read ~path ~kind:"t" ~version:1 with
      | Ok _ -> Alcotest.fail "torn blob read back Ok"
      | Error (C.Snapshot.Truncated _ | C.Snapshot.Bad_checksum _) -> ()
      | Error e ->
          Alcotest.failf "unexpected error class: %s"
            (C.Snapshot.error_message e))

let test_api_maps_faults_to_structured_errors () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "p.mj" in
      write_exn path "class Main { static int main() { return 0; } }";
      let plan = Io.plan ~rate:1 ~faults:[ Io.F_eio ] ~seed:1 () in
      match
        Io.with_plan plan (fun () ->
            Api.analyze ~source:(`File path) ~roots:[] ())
      with
      | Error (Api.Io_error _) -> ()
      | Error e -> Alcotest.failf "wrong error kind: %s" (Api.error_kind e)
      | Ok _ -> Alcotest.fail "analyze succeeded under EIO-everything"
      | exception e ->
          Alcotest.failf "exception escaped the API: %s" (Printexc.to_string e))

(* ---------------------------- appender -------------------------------- *)

let test_appender_levels () =
  in_temp_dir (fun dir ->
      let prev = Io.durability () in
      Fun.protect ~finally:(fun () -> Io.set_durability prev) @@ fun () ->
      Io.set_durability Io.D_none;
      let path = Filename.concat dir "sub" ^ "/journal" in
      let ap =
        match Io.open_append path with
        | Ok ap -> ap
        | Error e -> Alcotest.failf "open: %s" (Io.error_message e)
      in
      (match Io.append_line ap "one" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "append: %s" (Io.error_message e));
      Alcotest.(check string)
        "D_none buffers in user space" "" (read_exn path);
      (match Io.flush_append ap with
      | Ok () -> ()
      | Error e -> Alcotest.failf "flush: %s" (Io.error_message e));
      Alcotest.(check string) "flush publishes" "one\n" (read_exn path);
      Io.set_durability Io.D_fsync;
      (match Io.append_line ap "two" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "append 2: %s" (Io.error_message e));
      Alcotest.(check string)
        "D_fsync lands immediately" "one\ntwo\n" (read_exn path);
      Io.close_append ap;
      Io.close_append ap (* idempotent *))

(* ------------------------ crash-point matrix -------------------------- *)

(* The full matrix for one seed: forked children killed before every IO
   operation of the snapshot, cache, and serve journal sites, plus
   seeded fault plans on top; every recovery must be old bytes, new
   bytes, or a detected miss — the harness records anything else as a
   failure.  Run through the CLI, which forks one child per crash
   point. *)
let test_crash_point_matrix () =
  in_temp_dir (fun dir ->
      let exe =
        let candidate = Filename.concat (Sys.getcwd ()) "../bin/skipflow.exe" in
        if Sys.file_exists candidate then candidate else "skipflow"
      in
      let out = Filename.concat dir "out" in
      let code =
        Sys.command
          (Printf.sprintf "%s fuzz --chaos --seeds 1 -q > %s 2>&1"
             (Filename.quote exe) (Filename.quote out))
      in
      let log = read_exn out in
      if code <> 0 then Alcotest.failf "fuzz --chaos failed:\n%s" log;
      let contains needle =
        let nl = String.length needle and hl = String.length log in
        let rec go i = i + nl <= hl && (String.sub log i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        ("the report counts chaos plans: " ^ log)
        true
        (contains "chaos plans" && not (contains " 0 chaos plans")))

(* [crash_exit:false] raises {!Io.Crash_point} instead of [_exit]ing:
   the in-process variant must still never leak a temp file or tear the
   destination, even though the exception unwinds through the writer. *)
let test_crash_point_exception_paths () =
  in_temp_dir (fun dir ->
      let path = Filename.concat dir "f" in
      write_exn path "old";
      let total =
        Io.with_plan (Io.plan ~seed:11 ()) (fun () ->
            write_exn path "new";
            Io.ops_performed ())
      in
      for k = 0 to total - 1 do
        write_exn path "old";
        let plan = Io.plan ~crash_at:k ~crash_exit:false ~seed:11 () in
        (match Io.with_plan plan (fun () -> Io.write_file_atomic ~path "new") with
        | (exception Io.Crash_point k') ->
            Alcotest.(check int) "the plan's crash point fired" k k'
        | Ok () -> Alcotest.failf "crash at %d: write reported success" k
        | Error e ->
            Alcotest.failf "crash at %d: mapped to an error instead: %s" k
              (Io.error_message e));
        (match read_exn path with
        | "old" -> ()
        | other -> Alcotest.failf "crash at %d left %S" k other);
        Alcotest.(check (list string))
          (Printf.sprintf "crash at %d leaves no temp file" k)
          [] (tmp_droppings dir)
      done;
      Alcotest.(check bool) "matrix was non-trivial" true (total >= 3))

let suite =
  ( "io",
    [
      Alcotest.test_case "fault plans are deterministic" `Quick
        test_plan_determinism;
      Alcotest.test_case "durability levels are byte-identical" `Quick
        test_durability_levels_byte_identical;
      Alcotest.test_case "EINTR and short writes are invisible" `Quick
        test_absorbable_faults_invisible;
      Alcotest.test_case "EIO/ENOSPC are typed, clean, and atomic" `Quick
        test_hard_faults_typed_and_clean;
      Alcotest.test_case "a torn rename trips the container CRC" `Quick
        test_torn_rename_detected_by_container;
      Alcotest.test_case "faults surface as structured Api errors" `Quick
        test_api_maps_faults_to_structured_errors;
      Alcotest.test_case "appender buffers, flushes, and fsyncs" `Quick
        test_appender_levels;
      Alcotest.test_case "crash-point matrix: snapshot/cache/journal" `Quick
        test_crash_point_matrix;
      Alcotest.test_case "in-process crash points leak nothing" `Quick
        test_crash_point_exception_paths;
    ] )
