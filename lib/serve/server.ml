(** The daemon state machine.  Transport (stdin/socket, signals,
    blocking reads) lives in the CLI; this module owns request handling,
    the journal, snapshots, warm-start replay and the memory ceiling —
    all driveable in process by tests and the fuzz harness. *)

module C = Skipflow_core
module Api = Skipflow_api
module F = Skipflow_frontend
module Json = Skipflow_checks.Json
module Checks = Skipflow_checks.Checks
module Finding = Skipflow_checks.Finding
module P = Protocol
module I = Incremental

type cfg = {
  sv_config : C.Config.t;
  sv_mode : C.Engine.mode;
  sv_roots : string list;
  sv_state_dir : string option;
  sv_snapshot_every : int;
  sv_deadline_ms : int option;
  sv_retry_after_ms : int;
  sv_memo_entries : int;
  sv_timings : bool;
  sv_max_heap_mb : int option;
  sv_restarts : int;
  sv_log : string -> unit;
}

let default_cfg =
  {
    sv_config = C.Config.skipflow;
    sv_mode = C.Engine.Dedup;
    sv_roots = [];
    sv_state_dir = None;
    sv_snapshot_every = 1;
    sv_deadline_ms = None;
    sv_retry_after_ms = 50;
    sv_memo_entries = 8;
    sv_timings = false;
    sv_max_heap_mb = None;
    sv_restarts = 0;
    sv_log = (fun _ -> ());
  }

(** A journaled response awaiting its request to arrive again. *)
type replay_entry = {
  re_gen : int;  (** generation {e after} the original request *)
  re_digest : string;  (** content hash of the request line *)
  re_ok : bool;
  re_response : string;  (** the exact response line *)
}

type t = {
  cfg : cfg;
  memo : I.Memo.t;
  mutable st : I.state option;
  mutable journal : C.Io.appender option;
  mutable replay : replay_entry list;
  mutable since_snapshot : int;
  mutable shutdown : bool;
  mutable finalized : bool;
  mutable served : int;
  mutable mem_shed : int;  (** requests shed by the memory ceiling *)
}

let generation t = match t.st with Some s -> s.I.generation | None -> 0
let state t = t.st
let wants_shutdown t = t.shutdown

let mode_name = function
  | C.Engine.Dedup -> "dedup"
  | C.Engine.Reference -> "ref"

(* ----------------------------- persistence ---------------------------- *)

let serve_snapshot_kind = "serve-state"

(* The payload embeds engine images — the resident state and every memo
   entry — which {!I.thaw} decodes with no version check of its own, so
   the engine's schema version is part of this one: bumping either the
   serve layout or {!C.Engine.snapshot_version} invalidates [serve.snap]. *)
let serve_layout_version = 1

let snapshot_version ~engine = (serve_layout_version * 1000) + engine
let serve_snapshot_version = snapshot_version ~engine:C.Engine.snapshot_version
let snap_path dir = Filename.concat dir "serve.snap"
let journal_path dir = Filename.concat dir "journal.jsonl"

let digest_line line = Digest.to_hex (Digest.string (String.trim line))

(* restarting under a different analysis configuration silently mixing
   with a snapshot solved under the old one would be exactly the kind of
   skew the fallback machinery exists for — detect it by content hash *)
let config_fingerprint cfg =
  C.Cache.key ~config:cfg.sv_config
    ~scope:
      (Printf.sprintf "serve-config;mode=%s;roots=%s" (mode_name cfg.sv_mode)
         (String.concat "," cfg.sv_roots))
    ~source:""

type serve_frozen = {
  sp_state : string option;  (** {!I.freeze} of the resident state *)
  sp_memo : (string * string) list;
  sp_config_fp : string;
}

let write_snapshot t =
  match t.cfg.sv_state_dir with
  | None -> ()
  | Some dir ->
      let payload =
        Marshal.to_string
          {
            sp_state = Option.map I.freeze t.st;
            sp_memo = I.Memo.entries t.memo;
            sp_config_fp = config_fingerprint t.cfg;
          }
          []
      in
      (match
         C.Snapshot.write ~path:(snap_path dir) ~kind:serve_snapshot_kind
           ~version:serve_snapshot_version payload
       with
      | Ok () -> ()
      | Error e ->
          t.cfg.sv_log
            ("serve snapshot write failed: " ^ C.Snapshot.error_message e));
      t.since_snapshot <- 0

let maybe_snapshot t =
  if t.since_snapshot >= t.cfg.sv_snapshot_every then write_snapshot t

(** Journal lines are [{"schema_version", "journal": {gen, digest, ok,
    response}}]; a torn last line (SIGKILL mid-append) parses as nothing
    and is skipped — losing at most the in-flight request, which the
    client re-sends and the daemon recomputes. *)
let read_journal path =
  match C.Io.read_file path with
  | Error _ -> []
  | Ok contents ->
      List.filter_map
        (fun jr ->
          match
            ( Json.member "gen" jr,
              Json.member "digest" jr,
              Json.member "ok" jr,
              Json.member "response" jr )
          with
          | ( Some (Json.Int re_gen),
              Some (Json.Str re_digest),
              Some (Json.Bool re_ok),
              Some resp ) ->
              Some { re_gen; re_digest; re_ok; re_response = P.response_line resp }
          | _ -> None)
        (Json.journal_payloads ~version:P.schema_version ~key:"journal" contents)

(* One [write(2)] per line on an O_APPEND descriptor (the {!C.Io}
   appender), so a SIGKILL tears at most the final line; [--durability
   fsync] additionally syncs each line before the response is emitted. *)
let journal_append t ~digest ~ok resp_json =
  match t.journal with
  | None -> ()
  | Some ap -> (
      let line =
        Json.to_compact_string
          (Json.Obj
             [ ("schema_version", Json.Int P.schema_version);
               ( "journal",
                 Json.Obj
                   [ ("gen", Json.Int (generation t));
                     ("digest", Json.Str digest);
                     ("ok", Json.Bool ok);
                     ("response", resp_json);
                   ] );
             ])
      in
      match C.Io.append_line ap line with
      | Ok () -> ()
      | Error e ->
          t.cfg.sv_log ("serve journal append failed: " ^ C.Io.error_message e))

(* ------------------------------ responses ----------------------------- *)

let metrics_json (m : C.Metrics.t) =
  Json.Obj
    [ ("reachable_methods", Json.Int m.C.Metrics.reachable_methods);
      ("type_checks", Json.Int m.C.Metrics.type_checks);
      ("null_checks", Json.Int m.C.Metrics.null_checks);
      ("prim_checks", Json.Int m.C.Metrics.prim_checks);
      ("poly_calls", Json.Int m.C.Metrics.poly_calls);
      ("mono_calls", Json.Int m.C.Metrics.mono_calls);
      ("binary_size", Json.Int m.C.Metrics.binary_size);
      ("flows", Json.Int m.C.Metrics.flows);
      ("instantiated_types", Json.Int m.C.Metrics.instantiated_types);
    ]

let summary_json t ~wall_us (o : I.outcome) =
  let st = o.I.o_state in
  let m = st.I.metrics in
  Json.Obj
    ([ ("analysis", Json.Str (C.Config.name t.cfg.sv_config));
       ("engine", Json.Str (mode_name t.cfg.sv_mode));
       ("strategy", Json.Str (I.strategy_name o.I.o_strategy));
     ]
    @ (match I.strategy_reason o.I.o_strategy with
      | Some reason -> [ ("fallback_reason", Json.Str reason) ]
      | None -> [])
    @ [ ("verified", Json.Bool o.I.o_verified);
        ("generation", Json.Int st.I.generation);
        ("degraded", Json.Bool m.C.Metrics.degraded);
        ("metrics", metrics_json m);
        ("wall_us", Json.Int wall_us);
      ])

let health_json t =
  let reachable, flows =
    match t.st with
    | Some s ->
        (s.I.metrics.C.Metrics.reachable_methods, s.I.metrics.C.Metrics.flows)
    | None -> (0, 0)
  in
  Json.Obj
    [ ("status", Json.Str "ok");
      ("program", Json.Bool (t.st <> None));
      ("generation", Json.Int (generation t));
      ("reachable_methods", Json.Int reachable);
      ("flows", Json.Int flows);
      ("requests_served", Json.Int t.served);
      (* supervisor observability: how many times this daemon has been
         restarted ([serve --supervise] passes the count down), and how
         many requests the memory ceiling has shed *)
      ("restarts", Json.Int t.cfg.sv_restarts);
      ("memory_shed", Json.Int t.mem_shed);
    ]

let profile_json t (st : I.state) =
  let s = C.Engine.stats st.I.engine in
  let counters =
    List.filter
      (fun (name, _) ->
        (* wall-clock counters (["*.wall_us"]) are dropped unless timings
           were asked for: profile output stays byte-comparable *)
        t.cfg.sv_timings || not (Filename.check_suffix name "wall_us"))
      (C.Trace.counters (C.Engine.trace_of st.I.engine))
  in
  Json.Obj
    [ ("analysis", Json.Str (C.Config.name t.cfg.sv_config));
      ("engine", Json.Str (mode_name t.cfg.sv_mode));
      ("generation", Json.Int st.I.generation);
      ( "stats",
        Json.Obj
          [ ("tasks_processed", Json.Int s.C.Engine.tasks_processed);
            ("input_tasks", Json.Int s.C.Engine.input_tasks);
            ("enable_tasks", Json.Int s.C.Engine.enable_tasks);
            ("notify_tasks", Json.Int s.C.Engine.notify_tasks);
            ("dedup_input", Json.Int s.C.Engine.dedup_input);
            ("dedup_enable", Json.Int s.C.Engine.dedup_enable);
            ("dedup_notify", Json.Int s.C.Engine.dedup_notify);
            ("use_edges", Json.Int s.C.Engine.use_edges);
            ("links", Json.Int s.C.Engine.links);
            ("max_queue", Json.Int s.C.Engine.max_queue);
          ] );
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) counters));
    ]

(* ------------------------------ dispatch ------------------------------ *)

(** Run [f] under the facade's exception boundary: the serve counterpart
    of the CLI's "no exception crosses" guarantee. *)
let protected f =
  match Api.protect (fun () -> Ok (f ())) with
  | Ok r -> r
  | Error e -> Error (P.Api_error e)

(** Dispatch one parsed request.  Mutations are computed as candidates
    and committed here — an [Error] return leaves the resident state,
    the memo and the generation exactly as they were (rollback by
    construction). *)
let dispatch t (env : P.envelope) ~deadline_ms ~t0 =
  let config = t.cfg.sv_config and mode = t.cfg.sv_mode in
  let wall_us () =
    if t.cfg.sv_timings then
      (* clamped: a backwards clock step must not report negative time *)
      int_of_float (Float.max 0.0 (Unix.gettimeofday () -. t0) *. 1e6)
    else 0
  in
  let need_state f =
    match t.st with None -> Error P.No_program | Some st -> f st
  in
  let commit (o : I.outcome) =
    let mutated =
      match t.st with
      | Some s -> o.I.o_state.I.generation > s.I.generation
      | None -> true
    in
    if mutated then begin
      t.st <- Some o.I.o_state;
      List.iter (I.Memo.add t.memo) o.I.o_memo_adds;
      t.since_snapshot <- t.since_snapshot + 1
    end;
    (summary_json t ~wall_us:(wall_us ()) o, mutated)
  in
  match env.P.req with
  | P.Shutdown ->
      t.shutdown <- true;
      Ok (Json.Obj [ ("status", Json.Str "shutting_down") ], false)
  | P.Health -> Ok (health_json t, false)
  | P.Profile -> need_state (fun st -> Ok (profile_json t st, false))
  | P.Lint { only } ->
      need_state (fun st ->
          match
            Api.resolve_roots (C.Engine.prog_of st.I.engine) st.I.roots
          with
          | Error e -> Error (P.Api_error e)
          | Ok roots -> (
              match
                Checks.run ?only (Checks.make_ctx ~engine:st.I.engine ~roots)
              with
              | exception Checks.Unknown_check id ->
                  Error (P.Parse_error (Printf.sprintf "unknown check %S" id))
              | findings ->
                  Ok
                    ( Finding.document_to_json ~file:"<resident>"
                        ~analysis:(C.Config.name config) findings,
                      false )))
  | P.Edit { source } -> (
      let r =
        match t.st with
        | None ->
            I.solve_full ~reason:"initial program" ~config ~mode ~deadline_ms
              ~generation:0 ~source ~roots:t.cfg.sv_roots ()
        | Some st -> I.edit ~config ~mode ~deadline_ms ~memo:t.memo st ~source
      in
      match r with Error _ as e -> e | Ok o -> Ok (commit o))
  | P.Analyze { roots } ->
      need_state (fun st ->
          let roots = Option.value ~default:st.I.roots roots in
          match
            I.analyze_roots ~config ~mode ~deadline_ms ~memo:t.memo st ~roots
          with
          | Error _ as e -> e
          | Ok o -> Ok (commit o))

(* ----------------------------- processing ----------------------------- *)

let emit t ~line ~ok resp_json =
  t.served <- t.served + 1;
  journal_append t ~digest:(digest_line line) ~ok resp_json;
  maybe_snapshot t;
  P.response_line resp_json

(* ---------------------------- memory ceiling --------------------------- *)

let heap_mb () =
  (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8) / (1024 * 1024)

(** Graceful degradation before the OOM killer arrives: when the major
    heap crosses [sv_max_heap_mb], drop the cheap-to-recompute state
    first — the memo LRU and the resident trace's event buffer — and
    compact; only if the heap is {e still} over the ceiling is the
    request shed (with the retry hint).  Shed responses are not
    journaled: memory pressure depends on timing, and replay must stay
    deterministic.  A shed request re-sent after a restart simply
    desynchronizes the replay cursor, which degrades gracefully to
    fresh (deterministic) processing. *)
let over_ceiling t =
  match t.cfg.sv_max_heap_mb with
  | None -> false
  | Some cap ->
      heap_mb () > cap
      && begin
           I.Memo.clear t.memo;
           (match t.st with
           | Some st -> C.Trace.drop_events (C.Engine.trace_of st.I.engine)
           | None -> ());
           Gc.compact ();
           heap_mb () > cap
         end

(* health and shutdown must stay responsive under memory pressure —
   they allocate almost nothing and are how an operator finds out *)
let sheddable = function
  | P.Health | P.Shutdown -> false
  | P.Edit _ | P.Analyze _ | P.Lint _ | P.Profile -> true

let process t line =
  let t0 = Unix.gettimeofday () in
  if t.shutdown then
    let id = P.request_id line in
    [ emit t ~line ~ok:false (P.response_error ~id P.Shutting_down) ]
  else
    match P.parse_request line with
    | Error err ->
        let id = P.request_id line in
        [ emit t ~line ~ok:false (P.response_error ~id err) ]
    | Ok env when sheddable env.P.req && over_ceiling t ->
        t.mem_shed <- t.mem_shed + 1;
        [ P.response_line
            (P.response_error ~id:env.P.req_id
               (P.Overloaded { retry_after_ms = t.cfg.sv_retry_after_ms }));
        ]
    | Ok env -> (
        let deadline_ms =
          match env.P.req_deadline_ms with
          | Some _ as d -> d
          | None -> t.cfg.sv_deadline_ms
        in
        match protected (fun () -> dispatch t env ~deadline_ms ~t0) with
        | Ok (result, _mutated) ->
            [ emit t ~line ~ok:true (P.response_ok ~id:env.P.req_id result) ]
        | Error err ->
            [ emit t ~line ~ok:false (P.response_error ~id:env.P.req_id err) ])

(** Match an incoming line against the journal: the stored response is
    re-emitted byte for byte, and mutating requests newer than the
    restored snapshot are re-executed (without their deadline — the
    original completed, the replay must too) to catch the resident state
    up.  A digest mismatch means the client's stream diverged from the
    journaled one: drop the replay and serve everything fresh. *)
let try_replay t line =
  match t.replay with
  | [] -> None
  | entry :: rest ->
      if String.equal entry.re_digest (digest_line line) then begin
        t.replay <- rest;
        if entry.re_ok && entry.re_gen > generation t then
          (match P.parse_request line with
          | Ok env ->
              ignore
                (protected (fun () ->
                     dispatch t env ~deadline_ms:None
                       ~t0:(Unix.gettimeofday ())))
          | Error _ -> ());
        (* a replayed shutdown still shuts the daemon down *)
        (match P.parse_request line with
        | Ok { P.req = P.Shutdown; _ } -> t.shutdown <- true
        | _ -> ());
        maybe_snapshot t;
        t.served <- t.served + 1;
        Some [ entry.re_response ]
      end
      else begin
        t.replay <- [];
        None
      end

let handle_line t line =
  if String.trim line = "" then []
  else
    match try_replay t line with
    | Some responses -> responses
    | None -> process t line

(* ------------------------------ lifecycle ----------------------------- *)

let create ?initial ~resume cfg =
  let t =
    {
      cfg;
      memo = I.Memo.create cfg.sv_memo_entries;
      st = None;
      journal = None;
      replay = [];
      since_snapshot = 0;
      shutdown = false;
      finalized = false;
      served = 0;
      mem_shed = 0;
    }
  in
  Option.iter (fun dir -> ignore (C.Io.mkdir_p dir)) cfg.sv_state_dir;
  (* warm start: snapshot (guarded by CRC, schema version, configuration
     fingerprint, and the Verify certifier — any suspicion falls back to
     a cold start with a warning) plus the journal for replay *)
  if resume then
    Option.iter
      (fun dir ->
        (match
           C.Snapshot.read ~path:(snap_path dir) ~kind:serve_snapshot_kind
             ~version:serve_snapshot_version
         with
        | Error (C.Snapshot.Io _) -> () (* no snapshot yet *)
        | Error e ->
            cfg.sv_log
              ("serve snapshot rejected ("
              ^ C.Snapshot.error_message e
              ^ "); falling back to a cold start")
        | Ok payload -> (
            match (Marshal.from_string payload 0 : serve_frozen) with
            | exception _ ->
                cfg.sv_log "serve snapshot payload undecodable; cold start"
            | sf ->
                if not (String.equal sf.sp_config_fp (config_fingerprint cfg))
                then
                  cfg.sv_log
                    "serve snapshot was written under a different \
                     configuration; cold start"
                else begin
                  (match sf.sp_state with
                  | None -> ()
                  | Some bytes -> (
                      match I.thaw bytes with
                      | Error msg ->
                          cfg.sv_log
                            ("resident state undecodable (" ^ msg
                           ^ "); cold start")
                      | Ok st ->
                          if C.Verify.run st.I.engine = [] then t.st <- Some st
                          else
                            cfg.sv_log
                              "restored engine failed verification; cold \
                               start"));
                  if t.st <> None then
                    (* oldest first, so re-adding restores the LRU order *)
                    List.iter (I.Memo.add t.memo) (List.rev sf.sp_memo)
                end));
        t.replay <- read_journal (journal_path dir))
      cfg.sv_state_dir;
  let initial_result =
    if t.st <> None then Ok () (* the snapshot wins over [initial] *)
    else
      match initial with
      | None -> Ok ()
      | Some src -> (
          let source_text =
            match src with
            | `Text s -> Ok s
            | `File p -> (
                match C.Io.read_file p with
                | Ok s -> Ok s
                | Error e ->
                    Error
                      (Printf.sprintf "cannot read %s: %s" p
                         (C.Io.error_message e)))
          in
          match source_text with
          | Error _ as e -> e
          | Ok source -> (
              match
                I.solve_full ~reason:"initial program" ~config:cfg.sv_config
                  ~mode:cfg.sv_mode ~deadline_ms:None ~generation:0 ~source
                  ~roots:cfg.sv_roots ()
              with
              | Error err -> Error (P.error_message err)
              | Ok o ->
                  t.st <- Some o.I.o_state;
                  List.iter (I.Memo.add t.memo) o.I.o_memo_adds;
                  t.since_snapshot <- t.since_snapshot + 1;
                  Ok ()))
  in
  match initial_result with
  | Error _ as e -> e
  | Ok () ->
      Option.iter
        (fun dir ->
          match C.Io.open_append (journal_path dir) with
          | Ok ap -> t.journal <- Some ap
          | Error e ->
              cfg.sv_log
                ("serve journal open failed (journaling disabled): "
                ^ C.Io.error_message e))
        cfg.sv_state_dir;
      maybe_snapshot t;
      Ok t

let finalize t =
  if not t.finalized then begin
    t.finalized <- true;
    write_snapshot t;
    match t.journal with
    | Some ap ->
        C.Io.close_append ap;
        t.journal <- None
    | None -> ()
  end
