(* The serve daemon: protocol parsing, the full error matrix (every
   facade error variant and every serve-specific error, each with its
   stable kind and exit code), incremental-vs-fresh flow-by-flow equality
   over an edit corpus that exercises every strategy, deadline rollback,
   memory-ceiling shedding, and kill-9/warm-restart response
   byte-equality. *)

module C = Skipflow_core
module K = Skipflow_checks
module Api = Skipflow_api
module P = Skipflow_serve.Protocol
module I = Skipflow_serve.Incremental
module Sv = Skipflow_serve.Server

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_state_dir f =
  let dir = Filename.temp_dir "skipflow-serve" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let req fields = K.Json.to_compact_string (K.Json.Obj fields)

let edit_req ?deadline_ms id source =
  req
    ([ ("op", K.Json.Str "edit"); ("id", K.Json.Int id) ]
    @ (match deadline_ms with
      | Some d -> [ ("deadline_ms", K.Json.Int d) ]
      | None -> [])
    @ [ ("source", K.Json.Str source) ])

let op_req ?(extra = []) id op =
  req ([ ("op", K.Json.Str op); ("id", K.Json.Int id) ] @ extra)

(* a response is exactly one line of parseable JSON *)
let one_response = function
  | [ line ] -> K.Json.of_string (String.trim line)
  | other -> Alcotest.failf "expected one response line, got %d" (List.length other)

let bool_member name j =
  match K.Json.member name j with
  | Some (K.Json.Bool b) -> b
  | _ -> Alcotest.failf "missing bool %S" name

let str_member name j =
  match K.Json.member name j with
  | Some (K.Json.Str s) -> s
  | _ -> Alcotest.failf "missing string %S" name

let int_member name j =
  match K.Json.member name j with
  | Some (K.Json.Int n) -> n
  | _ -> Alcotest.failf "missing int %S" name

let error_of j =
  match K.Json.member "error" j with
  | Some e -> e
  | None -> Alcotest.failf "response has no error object"

(* --------------------------- protocol parsing -------------------------- *)

let test_parse_requests () =
  (match P.parse_request {|{"op":"analyze","id":7,"deadline_ms":250}|} with
  | Ok { P.req_id = Some 7; req_deadline_ms = Some 250; req = P.Analyze { roots = None } } -> ()
  | _ -> Alcotest.fail "analyze envelope mis-parsed");
  (match P.parse_request {|{"op":"analyze","roots":["A.b","C.d"]}|} with
  | Ok { P.req = P.Analyze { roots = Some [ "A.b"; "C.d" ] }; _ } -> ()
  | _ -> Alcotest.fail "analyze roots mis-parsed");
  (match P.parse_request {|{"op":"lint","only":["dead-method"]}|} with
  | Ok { P.req = P.Lint { only = Some [ "dead-method" ] }; _ } -> ()
  | _ -> Alcotest.fail "lint only mis-parsed");
  (match P.parse_request {|{"op":"edit","source":"class A { }"}|} with
  | Ok { P.req = P.Edit { source = "class A { }" }; _ } -> ()
  | _ -> Alcotest.fail "edit mis-parsed");
  List.iter
    (fun (line, expect) ->
      match (P.parse_request line, expect) with
      | Error (P.Parse_error _), `Parse -> ()
      | Error (P.Unknown_op _), `Unknown -> ()
      | got, _ ->
          Alcotest.failf "%s: wrong classification (%s)" line
            (match got with
            | Ok _ -> "parsed"
            | Error e -> P.error_kind e))
    [
      ("{", `Parse);
      ("not json", `Parse);
      ("{\"id\":1}", `Parse);
      ({|{"op":"edit"}|}, `Parse);
      ({|{"op":"analyze","roots":[1]}|}, `Parse);
      ({|{"op":"analyze","schema_version":999}|}, `Parse);
      ({|{"op":"frobnicate"}|}, `Unknown);
    ]

(* ----------------------- the error matrix (kinds) ---------------------- *)

(* Every Api.error variant, produced through the facade (not hand-built),
   rendered through the protocol: stable kind, documented exit code, and
   for compile errors the positioned diagnostics. *)
let test_api_error_matrix () =
  let fields e = P.api_error_fields e in
  let kind e = str_member "kind" (K.Json.Obj (fields e)) in
  let code e = int_member "exit_code" (K.Json.Obj (fields e)) in
  let io =
    match Api.compile (`File "/nonexistent/skipflow-test.mj") with
    | Error e -> e
    | Ok _ -> Alcotest.fail "unreadable file compiled"
  in
  Alcotest.(check string) "io kind" "io_error" (kind io);
  Alcotest.(check int) "io exit" 2 (code io);
  let compile =
    match Api.compile (`Text "class Broken {") with
    | Error e -> e
    | Ok _ -> Alcotest.fail "broken source compiled"
  in
  Alcotest.(check string) "compile kind" "compile_error" (kind compile);
  Alcotest.(check int) "compile exit" 2 (code compile);
  (match K.Json.member "diags" (K.Json.Obj (fields compile)) with
  | Some (K.Json.Arr (d :: _)) ->
      ignore (int_member "line" d);
      ignore (int_member "col" d);
      ignore (str_member "message" d)
  | _ -> Alcotest.fail "compile error without positioned diags");
  let prog, _ = Result.get_ok (Api.compile (`Text "class A { static void main() { } }")) in
  let unknown_root =
    match Api.resolve_roots prog [ "Nope.nada" ] with
    | Error e -> e
    | Ok _ -> Alcotest.fail "bogus root resolved"
  in
  Alcotest.(check string) "root kind" "unknown_root" (kind unknown_root);
  Alcotest.(check int) "root exit" 2 (code unknown_root);
  let mainless, _ = Result.get_ok (Api.compile (`Text "class B { int f() { return 1; } }")) in
  let no_main =
    match Api.resolve_roots mainless [] with
    | Error e -> e
    | Ok _ -> Alcotest.fail "mainless program resolved a default root"
  in
  Alcotest.(check string) "no-main kind" "no_main" (kind no_main);
  Alcotest.(check int) "no-main exit" 2 (code no_main);
  let internal =
    match Api.protect (fun () -> failwith "boom") with
    | Error e -> e
    | Ok _ -> Alcotest.fail "protect let an exception through"
  in
  Alcotest.(check string) "internal kind" "internal_error" (kind internal);
  Alcotest.(check int) "internal exit" 1 (code internal)

(* The serve-specific errors: kind, exit code, and the structured extras
   (retry_after_ms, deadline_ms). *)
let test_serve_error_matrix () =
  let render e = P.error_json e in
  let check_one e ~kind ~exit_code =
    let j = render e in
    Alcotest.(check string) (kind ^ " kind") kind (str_member "kind" j);
    Alcotest.(check int) (kind ^ " exit") exit_code (int_member "exit_code" j)
  in
  check_one (P.Parse_error "bad") ~kind:"parse_error" ~exit_code:2;
  check_one (P.Unknown_op "zap") ~kind:"unknown_op" ~exit_code:2;
  check_one P.No_program ~kind:"no_program" ~exit_code:2;
  check_one (P.Deadline_exceeded { deadline_ms = 17 }) ~kind:"deadline_exceeded"
    ~exit_code:3;
  check_one (P.Overloaded { retry_after_ms = 40 }) ~kind:"overloaded"
    ~exit_code:1;
  check_one P.Shutting_down ~kind:"shutting_down" ~exit_code:1;
  Alcotest.(check int) "deadline carried" 17
    (int_member "deadline_ms" (render (P.Deadline_exceeded { deadline_ms = 17 })));
  Alcotest.(check int) "retry hint carried" 40
    (int_member "retry_after_ms" (render (P.Overloaded { retry_after_ms = 40 })))

(* ------------------- incremental vs fresh (the oracle) ----------------- *)

let base_src =
  "class Main {\n\
  \  static void main() {\n\
  \    Live l = new Live();\n\
  \    int x = l.go();\n\
  \  }\n\
   }\n\
   class Live { int go() { return 1; } }\n\
   class Dead { int never() { return 2; } }\n"

let replace ~sub ~by s =
  let n = String.length sub in
  let len = String.length s in
  let b = Buffer.create len in
  let i = ref 0 in
  while !i < len do
    if !i + n <= len && String.equal (String.sub s !i n) sub then begin
      Buffer.add_string b by;
      i := !i + n
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let dead_edit = replace ~sub:"return 2" ~by:"return 3" base_src
let live_edit = replace ~sub:"return 1" ~by:"return 5" base_src

let config = C.Config.skipflow
let mode = C.Engine.Dedup

let fresh_engine ~source ~roots =
  match
    I.solve_full ~config ~mode ~deadline_ms:None ~generation:0 ~source ~roots ()
  with
  | Ok o -> o.I.o_state.I.engine
  | Error e -> Alcotest.failf "fresh solve failed: %s" (P.error_message e)

(* Drive the incremental layer through an edit corpus that reaches every
   strategy, certifying each committed state flow-by-flow against a
   from-scratch solve — the acceptance oracle. *)
let test_incremental_matches_fresh () =
  let memo = I.Memo.create 8 in
  let seen = ref [] in
  let commit (o : I.outcome) =
    List.iter (I.Memo.add memo) o.I.o_memo_adds;
    seen := I.strategy_name o.I.o_strategy :: !seen;
    o.I.o_state
  in
  let certify label (st : I.state) =
    match
      I.same_fixed_point st.I.engine
        (fresh_engine ~source:st.I.source ~roots:st.I.roots)
    with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: diverged from fresh solve: %s" label msg
  in
  let edit label st source expect =
    match I.edit ~config ~mode ~deadline_ms:None ~memo st ~source with
    | Error e -> Alcotest.failf "%s: %s" label (P.error_message e)
    | Ok o ->
        Alcotest.(check string) label expect (I.strategy_name o.I.o_strategy);
        let st = commit o in
        certify label st;
        st
  in
  let analyze label st roots expect =
    match I.analyze_roots ~config ~mode ~deadline_ms:None ~memo st ~roots with
    | Error e -> Alcotest.failf "%s: %s" label (P.error_message e)
    | Ok o ->
        Alcotest.(check string) label expect (I.strategy_name o.I.o_strategy);
        let st = commit o in
        certify label st;
        st
  in
  let st =
    match
      I.solve_full ~config ~mode ~deadline_ms:None ~generation:0
        ~source:base_src ~roots:[] ()
    with
    | Ok o -> commit o
    | Error e -> Alcotest.failf "initial solve: %s" (P.error_message e)
  in
  certify "initial" st;
  let st = edit "same source is resident" st base_src "resident" in
  let st = edit "dead-body edit reuses" st dead_edit "reuse" in
  let st = edit "live-body edit resolves fully" st live_edit "full" in
  let st = edit "revert to reused state hits the memo" st dead_edit "memo" in
  let st = edit "revert to base hits the memo" st base_src "memo" in
  let st =
    analyze "grown roots re-drain" st [ "Main.main"; "Dead.never" ] "redrain"
  in
  let st = analyze "same roots are resident" st [ "Main.main"; "Dead.never" ] "resident" in
  let st = analyze "shrunk roots resolve fully" st [ "Main.main" ] "full" in
  ignore st;
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "strategy %s exercised" s)
        true
        (List.mem s !seen))
    [ "resident"; "memo"; "reuse"; "redrain"; "full" ]

(* A reuse or redrain outcome must have passed the certifier. *)
let test_incremental_verified_flag () =
  let memo = I.Memo.create 4 in
  let st =
    match
      I.solve_full ~config ~mode ~deadline_ms:None ~generation:0
        ~source:base_src ~roots:[] ()
    with
    | Ok o -> o.I.o_state
    | Error e -> Alcotest.failf "initial solve: %s" (P.error_message e)
  in
  (match I.edit ~config ~mode ~deadline_ms:None ~memo st ~source:dead_edit with
  | Ok o ->
      Alcotest.(check string) "reuse" "reuse" (I.strategy_name o.I.o_strategy);
      Alcotest.(check bool) "reuse is certified" true o.I.o_verified
  | Error e -> Alcotest.failf "edit: %s" (P.error_message e));
  match
    I.analyze_roots ~config ~mode ~deadline_ms:None ~memo st
      ~roots:[ "Main.main"; "Dead.never" ]
  with
  | Ok o ->
      Alcotest.(check string) "redrain" "redrain"
        (I.strategy_name o.I.o_strategy);
      Alcotest.(check bool) "redrain is certified" true o.I.o_verified
  | Error e -> Alcotest.failf "analyze: %s" (P.error_message e)

(* --------------------------- server behavior --------------------------- *)

let quiet_cfg = { Sv.default_cfg with Sv.sv_log = (fun _ -> ()) }

let create_exn ?initial ~resume cfg =
  match Sv.create ?initial ~resume cfg with
  | Ok srv -> srv
  | Error msg -> Alcotest.failf "create: %s" msg

let test_server_structured_errors () =
  let srv = create_exn ~resume:false quiet_cfg in
  let expect_err line kind =
    let j = one_response (Sv.handle_line srv line) in
    Alcotest.(check bool) (kind ^ " not ok") false (bool_member "ok" j);
    Alcotest.(check string) kind kind (str_member "kind" (error_of j))
  in
  expect_err (op_req 1 "analyze") "no_program";
  expect_err (op_req 2 "profile") "no_program";
  expect_err (op_req 3 "lint") "no_program";
  expect_err "{\"op\":" "parse_error";
  expect_err (op_req 4 "frobnicate") "unknown_op";
  expect_err (edit_req 5 "class Broken {") "compile_error";
  (* the daemon survives all of the above and still serves *)
  let j = one_response (Sv.handle_line srv (edit_req 6 base_src)) in
  Alcotest.(check bool) "daemon alive after errors" true (bool_member "ok" j);
  (* a lint with an unknown check id is a client error, not a crash *)
  let j =
    one_response
      (Sv.handle_line srv
         (op_req 7 "lint"
            ~extra:[ ("only", K.Json.Arr [ K.Json.Str "no-such-check" ]) ]))
  in
  Alcotest.(check string) "unknown check is a parse_error" "parse_error"
    (str_member "kind" (error_of j));
  (* shutdown, then everything is refused *)
  let j = one_response (Sv.handle_line srv (op_req 8 "shutdown")) in
  Alcotest.(check bool) "shutdown ok" true (bool_member "ok" j);
  Alcotest.(check bool) "wants shutdown" true (Sv.wants_shutdown srv);
  let j = one_response (Sv.handle_line srv (op_req 9 "health")) in
  Alcotest.(check string) "post-shutdown refused" "shutting_down"
    (str_member "kind" (error_of j))

let test_deadline_rollback () =
  let srv = create_exn ~initial:(`Text base_src) ~resume:false quiet_cfg in
  let gen0 = Sv.generation srv in
  let j =
    one_response (Sv.handle_line srv (edit_req ~deadline_ms:0 1 live_edit))
  in
  Alcotest.(check bool) "deadline trips" false (bool_member "ok" j);
  Alcotest.(check string) "deadline kind" "deadline_exceeded"
    (str_member "kind" (error_of j));
  Alcotest.(check int) "deadline exit code" 3
    (int_member "exit_code" (error_of j));
  Alcotest.(check int) "rolled back" gen0 (Sv.generation srv);
  (* the resident state still serves, and is the pre-edit one *)
  let j = one_response (Sv.handle_line srv (op_req 2 "analyze")) in
  Alcotest.(check bool) "resident survives" true (bool_member "ok" j);
  (match K.Json.member "result" j with
  | Some r ->
      Alcotest.(check string) "old state is resident" "resident"
        (str_member "strategy" r)
  | None -> Alcotest.fail "no result");
  (* without a deadline the same edit commits *)
  let j = one_response (Sv.handle_line srv (edit_req 3 live_edit)) in
  Alcotest.(check bool) "edit commits without deadline" true (bool_member "ok" j);
  Alcotest.(check int) "generation advanced" (gen0 + 1) (Sv.generation srv)

(* A memory ceiling the heap is always over: every mutating or
   state-reading request is shed with the configured retry hint, nothing
   commits, and nothing shed reaches the journal (shedding depends on
   timing, so replay must never see it); health and shutdown still
   answer, because they are how an operator finds out. *)
let test_memory_ceiling_sheds () =
  with_state_dir (fun dir ->
      let srv =
        create_exn ~initial:(`Text base_src) ~resume:false
          { quiet_cfg with
            Sv.sv_state_dir = Some dir;
            sv_max_heap_mb = Some 0;
            sv_retry_after_ms = 75;
          }
      in
      let gen0 = Sv.generation srv in
      (* ~4 MB held live across the shed requests keeps the heap over the
         0 MB ceiling however little else the process holds *)
      let ballast = Array.make (1 lsl 19) 0 in
      let shed =
        [ edit_req 1 live_edit; op_req 2 "analyze"; op_req 3 "lint"; op_req 4 "profile" ]
      in
      List.iter
        (fun line ->
          let j = one_response (Sv.handle_line srv line) in
          Alcotest.(check bool) "shed not ok" false (bool_member "ok" j);
          Alcotest.(check string) "shed kind" "overloaded"
            (str_member "kind" (error_of j));
          Alcotest.(check int) "retry hint" 75
            (int_member "retry_after_ms" (error_of j)))
        shed;
      ignore (Sys.opaque_identity ballast);
      Alcotest.(check int) "generation did not advance" gen0 (Sv.generation srv);
      let health = one_response (Sv.handle_line srv (op_req 5 "health")) in
      Alcotest.(check bool) "health answers" true (bool_member "ok" health);
      (match K.Json.member "result" health with
      | Some r ->
          Alcotest.(check int) "shed requests counted" (List.length shed)
            (int_member "memory_shed" r);
          Alcotest.(check int) "health generation" gen0 (int_member "generation" r)
      | None -> Alcotest.fail "health has no result");
      let bye = one_response (Sv.handle_line srv (op_req 6 "shutdown")) in
      Alcotest.(check bool) "shutdown answers" true (bool_member "ok" bye);
      Alcotest.(check bool) "wants shutdown" true (Sv.wants_shutdown srv);
      Sv.finalize srv;
      let journaled_ids =
        match C.Io.read_file (Filename.concat dir "journal.jsonl") with
        | Error e -> Alcotest.failf "journal unreadable: %s" (C.Io.error_message e)
        | Ok contents ->
            List.map
              (fun jr ->
                match K.Json.member "response" jr with
                | Some resp -> int_member "id" resp
                | None -> Alcotest.fail "journal entry without a response")
              (K.Json.journal_payloads ~version:P.schema_version ~key:"journal"
                 contents)
      in
      Alcotest.(check (list int)) "only health and shutdown journaled" [ 5; 6 ]
        journaled_ids)

(* ----------------------- kill -9 and warm restart ----------------------- *)

let session_lines =
  [
    edit_req 1 base_src;
    op_req 2 "health";
    edit_req 3 dead_edit;
    op_req 4 "analyze";
    edit_req 5 live_edit;
    op_req 6 "analyze"
      ~extra:
        [ ("roots", K.Json.Arr [ K.Json.Str "Main.main"; K.Json.Str "Dead.never" ]) ];
    op_req 7 "profile";
  ]

let run_all srv lines = List.concat_map (Sv.handle_line srv) lines

(* The acceptance criterion: kill the daemon (abandon it mid-session,
   snapshots and journal on disk), restart with --resume, re-feed the
   same request stream, and the full response stream is byte-identical
   to an uninterrupted session's — for every kill point. *)
let test_kill_resume_byte_identical () =
  let straight =
    let srv = create_exn ~resume:false quiet_cfg in
    run_all srv session_lines
  in
  List.iteri
    (fun k _ ->
      with_state_dir (fun dir ->
          let cfg = { quiet_cfg with Sv.sv_state_dir = Some dir } in
          let prefix = List.filteri (fun i _ -> i <= k) session_lines in
          let srv_a = create_exn ~resume:false cfg in
          ignore (run_all srv_a prefix);
          (* no finalize, no shutdown: the kill -9 equivalent *)
          let srv_b = create_exn ~resume:true cfg in
          let replayed = run_all srv_b session_lines in
          if replayed <> straight then
            Alcotest.failf
              "killed-after-%d session's responses differ from the straight \
               run's"
              (k + 1)))
    session_lines

(* A corrupted serve snapshot must fall back to a cold start (logged, not
   fatal) and the daemon must still serve correct results. *)
let test_corrupt_snapshot_cold_start () =
  with_state_dir (fun dir ->
      let warned = ref 0 in
      let cfg =
        { quiet_cfg with
          Sv.sv_state_dir = Some dir;
          sv_log = (fun _ -> incr warned);
        }
      in
      let srv = create_exn ~resume:false cfg in
      ignore (run_all srv [ edit_req 1 base_src ]);
      Sv.finalize srv;
      let snap = Filename.concat dir "serve.snap" in
      (* truncate the snapshot to a torn prefix, and drop the journal so
         recovery cannot lean on replay *)
      let oc = open_out_bin snap in
      output_string oc "skipflow-snapshot corrupted beyond recognition";
      close_out oc;
      Sys.remove (Filename.concat dir "journal.jsonl");
      let srv2 = create_exn ~resume:true cfg in
      Alcotest.(check bool) "fallback was logged" true (!warned > 0);
      Alcotest.(check bool) "cold start has no resident state" true
        (Sv.state srv2 = None);
      let j = one_response (Sv.handle_line srv2 (edit_req 2 base_src)) in
      Alcotest.(check bool) "recovered daemon serves" true (bool_member "ok" j);
      match Sv.state srv2 with
      | None -> Alcotest.fail "no resident state after recovery edit"
      | Some st -> (
          match
            I.same_fixed_point st.I.engine
              (fresh_engine ~source:base_src ~roots:[])
          with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "recovered fixed point diverged: %s" msg))

(* A serve snapshot embeds engine images that are decoded without a
   version check of their own, so one written under an older engine
   schema must be refused at the container (logged, cold start) rather
   than unmarshaled into the current engine's layout. *)
let test_stale_engine_version_cold_start () =
  with_state_dir (fun dir ->
      let logged = ref [] in
      let cfg =
        { quiet_cfg with
          Sv.sv_state_dir = Some dir;
          sv_log = (fun msg -> logged := msg :: !logged);
        }
      in
      let srv = create_exn ~resume:false cfg in
      ignore (run_all srv [ edit_req 1 base_src ]);
      Sv.finalize srv;
      let snap = Filename.concat dir "serve.snap" in
      let current = Sv.snapshot_version ~engine:C.Engine.snapshot_version in
      let stale = Sv.snapshot_version ~engine:(C.Engine.snapshot_version - 1) in
      let payload =
        match C.Snapshot.read ~path:snap ~kind:"serve-state" ~version:current with
        | Ok p -> p
        | Error e -> Alcotest.failf "fresh snapshot unreadable: %s" (C.Snapshot.error_message e)
      in
      (match C.Snapshot.write ~path:snap ~kind:"serve-state" ~version:stale payload with
      | Ok () -> ()
      | Error e -> Alcotest.failf "cannot rewrite snapshot: %s" (C.Snapshot.error_message e));
      Sys.remove (Filename.concat dir "journal.jsonl");
      let srv2 = create_exn ~resume:true cfg in
      (* a substring test via the corpus helper: [sub] occurs in [msg]
         iff deleting it changes [msg] *)
      let mentions sub msg = replace ~sub ~by:"" msg <> msg in
      let why = Printf.sprintf "unsupported schema version %d" stale in
      Alcotest.(check bool) "stale snapshot rejection was logged" true
        (List.exists (fun msg -> mentions "rejected" msg && mentions why msg) !logged);
      Alcotest.(check bool) "cold start has no resident state" true
        (Sv.state srv2 = None);
      let j = one_response (Sv.handle_line srv2 (edit_req 2 base_src)) in
      Alcotest.(check bool) "cold-started daemon serves" true (bool_member "ok" j))

(* ------------------------ the state directory -------------------------- *)

let states_of dir =
  List.sort String.compare
    (Array.to_list (Sys.readdir (Filename.concat dir "states")))

let state_cfg ?(log = fun _ -> ()) dir =
  { quiet_cfg with Sv.sv_state_dir = Some dir; sv_log = log }

let strategy_of j =
  match K.Json.member "result" j with
  | Some r -> str_member "strategy" r
  | None -> Alcotest.failf "response has no result"

let whole_file_writes () = (C.Io.stats ()).C.Io.writes

let overwrite path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* Solved states are written once: a memo hit names entries already on
   disk, so it writes the manifest and nothing else, and a resident
   re-send is not a mutation, so it writes nothing at all. *)
let test_memo_hit_writes_no_entry () =
  with_state_dir (fun dir ->
      let srv = create_exn ~resume:false (state_cfg dir) in
      ignore (run_all srv [ edit_req 1 base_src; edit_req 2 dead_edit ]);
      let before = states_of dir in
      Alcotest.(check int) "one entry per solved state" 2 (List.length before);
      let w0 = whole_file_writes () in
      let j = one_response (Sv.handle_line srv (edit_req 3 base_src)) in
      Alcotest.(check string) "revert is a memo hit" "memo" (strategy_of j);
      Alcotest.(check (list string)) "memo hit added no entry" before (states_of dir);
      Alcotest.(check int) "memo hit wrote only the manifest" 1
        (whole_file_writes () - w0);
      let w1 = whole_file_writes () in
      let j = one_response (Sv.handle_line srv (edit_req 4 base_src)) in
      Alcotest.(check string) "re-send is resident" "resident" (strategy_of j);
      Alcotest.(check (list string)) "resident re-send added no entry" before
        (states_of dir);
      Alcotest.(check int) "resident re-send wrote nothing" 0
        (whole_file_writes () - w1))

(* [edits] dead-body edits of [base_src], each a new solved state *)
let dead_edits srv edits =
  for k = 1 to edits do
    let source =
      replace ~sub:"return 2" ~by:(Printf.sprintf "return %d" (100 + k)) base_src
    in
    let j = one_response (Sv.handle_line srv (edit_req k source)) in
    Alcotest.(check string) "dead-body edit reuses" "reuse" (strategy_of j)
  done

(* The manifest names entries by digest and holds no state bytes, so it
   stays small however many entries the memo holds; [states/] holds
   exactly the memo's entries (the resident one among them), so entries
   the memo evicts are unlinked. *)
let test_manifest_stays_small () =
  with_state_dir (fun dir ->
      let srv =
        create_exn ~resume:false { (state_cfg dir) with Sv.sv_memo_entries = 2 }
      in
      ignore (run_all srv [ edit_req 0 base_src ]);
      dead_edits srv 5;
      Alcotest.(check int) "evicted entries unlinked" 2
        (List.length (states_of dir)));
  with_state_dir (fun dir ->
      let edits = 40 in
      let srv =
        create_exn ~resume:false
          { (state_cfg dir) with Sv.sv_memo_entries = edits + 8 }
      in
      ignore (run_all srv [ edit_req 0 base_src ]);
      dead_edits srv edits;
      let snap = Filename.concat dir "serve.snap" in
      let size = (Unix.stat snap).Unix.st_size in
      if size >= 64 * 1024 then Alcotest.failf "serve.snap is %d bytes" size;
      Alcotest.(check int) "one entry per memoized state" (edits + 1)
        (List.length (states_of dir));
      (* a key and a digest per entry, 32 hex digits each, plus framing *)
      if size > 128 * (edits + 2) then
        Alcotest.failf "serve.snap is %d bytes for %d entries" size (edits + 1))

(* A session whose resident state is [live_edit] and whose memo also
   holds [base_src]; returns the entry names of each. *)
let two_state_session dir =
  let srv = create_exn ~resume:false (state_cfg dir) in
  ignore (run_all srv [ edit_req 1 base_src ]);
  let base_entry = List.hd (states_of dir) in
  ignore (run_all srv [ edit_req 2 live_edit ]);
  Sv.finalize srv;
  let live_entry =
    List.hd (List.filter (fun n -> n <> base_entry) (states_of dir))
  in
  Sys.remove (Filename.concat dir "journal.jsonl");
  (Filename.concat (Filename.concat dir "states") base_entry,
   Filename.concat (Filename.concat dir "states") live_entry)

let check_fresh label srv ~source =
  match Sv.state srv with
  | None -> Alcotest.failf "%s: no resident state" label
  | Some st -> (
      match I.same_fixed_point st.I.engine (fresh_engine ~source ~roots:[]) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: diverged from a fresh solve: %s" label msg)

(* On resume, a damaged or missing memo entry is logged and drops out of
   the memo (the resident state survives); a damaged or missing resident
   entry is logged and cold-starts the daemon, which then serves the
   fresh fixed point. *)
let test_damaged_entry_on_resume () =
  with_state_dir (fun dir ->
      let base_entry, _ = two_state_session dir in
      overwrite base_entry "torn";
      let logged = ref [] in
      let srv = create_exn ~resume:true (state_cfg ~log:(fun m -> logged := m :: !logged) dir) in
      Alcotest.(check bool) "memo entry damage was logged" true (!logged <> []);
      Alcotest.(check int) "resident state restored" 2 (Sv.generation srv);
      Alcotest.(check bool) "damaged entry swept" false (Sys.file_exists base_entry);
      let j = one_response (Sv.handle_line srv (edit_req 3 base_src)) in
      Alcotest.(check string) "dropped memo entry is recomputed" "full" (strategy_of j);
      check_fresh "after a dropped memo entry" srv ~source:base_src);
  List.iter
    (fun (label, damage) ->
      with_state_dir (fun dir ->
          let _, live_entry = two_state_session dir in
          damage live_entry;
          let logged = ref [] in
          let srv =
            create_exn ~resume:true (state_cfg ~log:(fun m -> logged := m :: !logged) dir)
          in
          Alcotest.(check bool) (label ^ ": logged") true (!logged <> []);
          Alcotest.(check bool) (label ^ ": cold start") true (Sv.state srv = None);
          let j = one_response (Sv.handle_line srv (edit_req 3 live_edit)) in
          Alcotest.(check bool) (label ^ ": serves") true (bool_member "ok" j);
          check_fresh label srv ~source:live_edit))
    [ ("corrupt resident entry", fun path -> overwrite path "torn");
      ("missing resident entry", Sys.remove);
    ]

(* What a crash between an entry write and the manifest publish (or
   between the publish and its unlinks) leaves behind — entries no
   manifest names and tmp files of interrupted atomic writes — is swept
   when the next daemon starts; the entries the manifest names stay. *)
let test_orphans_swept_at_create () =
  with_state_dir (fun dir ->
      let srv = create_exn ~resume:false (state_cfg dir) in
      ignore (run_all srv [ edit_req 1 base_src ]);
      Sv.finalize srv;
      let named = states_of dir in
      let states = Filename.concat dir "states" in
      let junk =
        [ Filename.concat states (String.make 32 'a' ^ ".entry");
          Filename.concat states (List.hd named ^ ".tmp.4242");
          Filename.concat dir "serve.snap.tmp.4242";
        ]
      in
      List.iter (fun p -> overwrite p "left by a crashed writer") junk;
      let srv = create_exn ~resume:true (state_cfg dir) in
      List.iter
        (fun p -> Alcotest.(check bool) (p ^ " swept") false (Sys.file_exists p))
        junk;
      Alcotest.(check (list string)) "named entries kept" named (states_of dir);
      Alcotest.(check int) "resident state restored" 1 (Sv.generation srv))

(* Entries are engine images too: one written under the previous engine
   schema is refused at its container (logged, cold start), never
   unmarshaled into the current engine's layout. *)
let test_stale_entry_rejected () =
  with_state_dir (fun dir ->
      let srv = create_exn ~resume:false (state_cfg dir) in
      ignore (run_all srv [ edit_req 1 base_src ]);
      Sv.finalize srv;
      Sys.remove (Filename.concat dir "journal.jsonl");
      let entry = Filename.concat (Filename.concat dir "states") (List.hd (states_of dir)) in
      let current = Sv.snapshot_version ~engine:C.Engine.snapshot_version in
      let stale = Sv.snapshot_version ~engine:(C.Engine.snapshot_version - 1) in
      let payload =
        match C.Snapshot.read ~path:entry ~kind:"serve-entry" ~version:current with
        | Ok p -> p
        | Error e -> Alcotest.failf "fresh entry unreadable: %s" (C.Snapshot.error_message e)
      in
      (match C.Snapshot.write ~path:entry ~kind:"serve-entry" ~version:stale payload with
      | Ok () -> ()
      | Error e -> Alcotest.failf "cannot rewrite entry: %s" (C.Snapshot.error_message e));
      let logged = ref [] in
      let srv = create_exn ~resume:true (state_cfg ~log:(fun m -> logged := m :: !logged) dir) in
      let mentions sub msg = replace ~sub ~by:"" msg <> msg in
      let why = Printf.sprintf "unsupported schema version %d" stale in
      Alcotest.(check bool) "stale entry rejection was logged" true
        (List.exists (mentions why) !logged);
      Alcotest.(check bool) "cold start" true (Sv.state srv = None);
      let j = one_response (Sv.handle_line srv (edit_req 2 base_src)) in
      Alcotest.(check bool) "cold-started daemon serves" true (bool_member "ok" j))

let suite =
  ( "serve",
    [
      Alcotest.test_case "protocol: request parsing" `Quick test_parse_requests;
      Alcotest.test_case "protocol: facade error matrix" `Quick
        test_api_error_matrix;
      Alcotest.test_case "protocol: serve error matrix" `Quick
        test_serve_error_matrix;
      Alcotest.test_case "incremental matches fresh over the edit corpus"
        `Quick test_incremental_matches_fresh;
      Alcotest.test_case "reuse and redrain are certified" `Quick
        test_incremental_verified_flag;
      Alcotest.test_case "structured errors, daemon survives them all" `Quick
        test_server_structured_errors;
      Alcotest.test_case "deadline trips roll the resident state back" `Quick
        test_deadline_rollback;
      Alcotest.test_case "memory ceiling sheds with a retry hint" `Quick
        test_memory_ceiling_sheds;
      Alcotest.test_case "kill -9 / resume replays byte-identically" `Quick
        test_kill_resume_byte_identical;
      Alcotest.test_case "corrupt snapshot falls back to a cold start" `Quick
        test_corrupt_snapshot_cold_start;
      Alcotest.test_case "stale engine version falls back to a cold start"
        `Quick test_stale_engine_version_cold_start;
      Alcotest.test_case "memo hit and resident re-send write no entry" `Quick
        test_memo_hit_writes_no_entry;
      Alcotest.test_case "manifest stays small, states/ holds what it names"
        `Quick
        test_manifest_stays_small;
      Alcotest.test_case "damaged entry on resume: dropped or cold start"
        `Quick test_damaged_entry_on_resume;
      Alcotest.test_case "orphan entries and tmp files swept at create"
        `Quick test_orphans_swept_at_create;
      Alcotest.test_case "entry from the previous engine version rejected"
        `Quick test_stale_entry_rejected;
    ] )
