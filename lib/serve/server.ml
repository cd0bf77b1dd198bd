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
  mutable resident_bytes : string option;
      (** {!I.freeze} of [st] — the very string of its memo entry *)
  mutable on_disk : string list;
      (** entry digests this daemon wrote (or read back intact) *)
  mutable stale : string list;
      (** entries an earlier manifest names that this daemon did not
          verify: left in place until its own manifest replaces that one *)
  mutable digests : (string * string) list;
      (** (frozen bytes, entry digest), matched by physical equality *)
}

let generation t = match t.st with Some s -> s.I.generation | None -> 0
let state t = t.st
let wants_shutdown t = t.shutdown

let mode_name = function
  | C.Engine.Dedup -> "dedup"
  | C.Engine.Reference -> "ref"

(* ----------------------------- persistence ---------------------------- *)

(* The state directory:

     DIR/serve.snap           the manifest: small, published last
     DIR/states/<md5>.entry   one frozen solved state per file, write-once
     DIR/journal.jsonl        every response, in order

   Every solved state the daemon keeps — the resident one and each memo
   entry — is frozen once ({!I.freeze}) and written once, as a
   {!C.Snapshot} blob named by the MD5 of its bytes.  Memo entries never
   change once made, so a snapshot writes only the entries no earlier
   one wrote: a memo hit writes nothing but the manifest.  The manifest
   names the resident entry with its generation, and the memo keys with
   their entries, most recently used first.  It is published by atomic
   rename once every entry it names is on disk, and only then are the
   entries it no longer names unlinked — so a crash at any point leaves
   the previous manifest with all of its entries, plus at most orphan
   entries and tmp files, which the next {!create} sweeps. *)

let serve_snapshot_kind = "serve-state"
let serve_entry_kind = "serve-entry"

(* State entries are engine images, which {!I.thaw} decodes with no
   version check of its own, so the engine's schema version is part of
   this one: bumping either the serve layout or
   {!C.Engine.snapshot_version} invalidates the manifest and every entry.
   Layout 2 is the manifest + [states/] split; a layout-1 [serve.snap]
   (the whole state in one file) is rejected and cold-started. *)
let serve_layout_version = 2

let snapshot_version ~engine = (serve_layout_version * 1000) + engine
let serve_snapshot_version = snapshot_version ~engine:C.Engine.snapshot_version
let snap_path dir = Filename.concat dir "serve.snap"
let journal_path dir = Filename.concat dir "journal.jsonl"
let states_dir dir = Filename.concat dir "states"
let entry_suffix = ".entry"

let entry_path dir digest =
  Filename.concat (states_dir dir) (digest ^ entry_suffix)

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

type manifest = {
  mf_config_fp : string;
  mf_resident : (string * int) option;  (** entry digest, generation *)
  mf_memo : (string * string) list;
      (** memo key, entry digest; most recently used first *)
}

let manifest_entries m =
  Option.to_list (Option.map fst m.mf_resident) @ List.map snd m.mf_memo

(* An entry's name, computed once per frozen string: the bytes a memo hit
   re-adds, or a resident state shares with its memo entry, are the very
   string already digested, so a physical-equality lookup finds it. *)
let entry_digest t bytes =
  match List.find_opt (fun (b, _) -> b == bytes) t.digests with
  | Some (_, d) -> d
  | None ->
      let d = Digest.to_hex (Digest.string bytes) in
      t.digests <- (bytes, d) :: t.digests;
      d

let log_error t what e =
  t.cfg.sv_log (Printf.sprintf "serve %s failed: %s" what e)

(* After a manifest naming exactly [keep] is published: unlink every
   other entry this daemon wrote, plus the previous daemon's ones.  An
   unlink that fails is retried after the next publish. *)
let unlink_unnamed t dir ~keep =
  let doomed =
    List.sort_uniq String.compare
      (List.filter (fun d -> not (List.mem d keep)) (t.on_disk @ t.stale))
  in
  t.on_disk <- List.filter (fun d -> List.mem d keep) t.on_disk;
  t.stale <-
    List.filter
      (fun d ->
        match C.Io.unlink (entry_path dir d) with
        | Ok () -> false
        | Error e ->
            log_error t "state entry unlink" (C.Io.error_message e);
            true)
      doomed

let write_snapshot t =
  match t.cfg.sv_state_dir with
  | None -> ()
  | Some dir ->
      let resident =
        match (t.st, t.resident_bytes) with
        | Some st, Some bytes ->
            Some (bytes, entry_digest t bytes, st.I.generation)
        | _ -> None
      in
      let memo =
        List.map
          (fun (key, bytes) -> (key, bytes, entry_digest t bytes))
          (I.Memo.entries t.memo)
      in
      let named =
        (match resident with Some (b, d, _) -> [ (b, d) ] | None -> [])
        @ List.map (fun (_, b, d) -> (b, d)) memo
      in
      (* every entry the manifest names is on disk before it is
         published; a failed entry write keeps the previous manifest
         (and the journal) as the recovery point *)
      let entries_written =
        List.for_all
          (fun (bytes, d) ->
            List.mem d t.on_disk
            ||
            match
              C.Snapshot.write ~path:(entry_path dir d) ~kind:serve_entry_kind
                ~version:serve_snapshot_version bytes
            with
            | Ok () ->
                t.on_disk <- d :: t.on_disk;
                true
            | Error e ->
                log_error t "state entry write" (C.Snapshot.error_message e);
                false)
          named
      in
      (if entries_written then
         let manifest =
           {
             mf_config_fp = config_fingerprint t.cfg;
             mf_resident = Option.map (fun (_, d, g) -> (d, g)) resident;
             mf_memo = List.map (fun (k, _, d) -> (k, d)) memo;
           }
         in
         match
           C.Snapshot.write ~path:(snap_path dir) ~kind:serve_snapshot_kind
             ~version:serve_snapshot_version
             (Marshal.to_string manifest [])
         with
         | Ok () -> unlink_unnamed t dir ~keep:(manifest_entries manifest)
         | Error e ->
             log_error t "snapshot write" (C.Snapshot.error_message e));
      t.digests <-
        List.filter
          (fun (b, _) -> List.exists (fun (b', _) -> b == b') named)
          t.digests;
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

(** Make a candidate resident.  Every mutating outcome memoizes its own
    state, so the resident entry's bytes are taken from its memo add —
    never frozen a second time. *)
let commit_outcome t (o : I.outcome) =
  let st = o.I.o_state in
  t.st <- Some st;
  List.iter (I.Memo.add t.memo) o.I.o_memo_adds;
  if t.cfg.sv_state_dir <> None then begin
    let key =
      I.memo_key ~config:t.cfg.sv_config ~mode:t.cfg.sv_mode ~roots:st.I.roots
        ~source:st.I.source
    in
    t.resident_bytes <-
      Some
        (match List.assoc_opt key o.I.o_memo_adds with
        | Some bytes -> bytes
        | None -> I.freeze st)
  end;
  t.since_snapshot <- t.since_snapshot + 1

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
    if mutated then commit_outcome t o;
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

(** The published manifest: [Ok None] when there is none yet, [Error]
    with the warning to log when it cannot be trusted. *)
let read_manifest dir =
  match
    C.Snapshot.read ~path:(snap_path dir) ~kind:serve_snapshot_kind
      ~version:serve_snapshot_version
  with
  | Error (C.Snapshot.Io _) -> Ok None
  | Error e ->
      Error
        ("serve snapshot rejected ("
        ^ C.Snapshot.error_message e
        ^ "); falling back to a cold start")
  | Ok payload -> (
      match (Marshal.from_string payload 0 : manifest) with
      | exception _ -> Error "serve snapshot payload undecodable; cold start"
      | m -> Ok (Some m))

(** A state entry's bytes, checked against the digest that names them. *)
let read_entry dir d =
  let path = entry_path dir d in
  match
    C.Snapshot.read ~path ~kind:serve_entry_kind ~version:serve_snapshot_version
  with
  | Error e -> Error (C.Snapshot.error_message e)
  | Ok bytes ->
      if String.equal (Digest.to_hex (Digest.string bytes)) d then Ok bytes
      else Error (path ^ ": content does not match its name")

let restore t dir m =
  let log = t.cfg.sv_log in
  if not (String.equal m.mf_config_fp (config_fingerprint t.cfg)) then
    log "serve snapshot was written under a different configuration; cold start"
  else
    match m.mf_resident with
    | None -> ()
    | Some (d, generation) -> (
        match read_entry dir d with
        | Error msg ->
            log ("resident state entry rejected (" ^ msg ^ "); cold start")
        | Ok bytes -> (
            match I.thaw bytes with
            | Error msg ->
                log ("resident state undecodable (" ^ msg ^ "); cold start")
            | Ok st when C.Verify.run st.I.engine <> [] ->
                log "restored engine failed verification; cold start"
            | Ok st ->
                t.st <- Some { st with I.generation };
                t.resident_bytes <- Some bytes;
                t.on_disk <- [ d ];
                t.digests <- [ (bytes, d) ];
                (* oldest first, so re-adding restores the LRU order; an
                   entry that cannot be read drops out of the memo, which
                   costs a recomputation, never correctness *)
                List.iter
                  (fun (key, d) ->
                    let bytes =
                      match List.find_opt (fun (_, d') -> d' = d) t.digests with
                      | Some (b, _) -> Ok b
                      | None -> read_entry dir d
                    in
                    match bytes with
                    | Ok bytes ->
                        if not (List.mem d t.on_disk) then begin
                          t.on_disk <- d :: t.on_disk;
                          t.digests <- (bytes, d) :: t.digests
                        end;
                        I.Memo.add t.memo (key, bytes)
                    | Error msg -> log ("memo entry dropped (" ^ msg ^ ")"))
                  (List.rev m.mf_memo)))

(** Unlink what no manifest names: entries a crashed daemon wrote but
    never published, entries whose post-publish unlink never ran,
    entries rejected on restore, and the tmp files of interrupted atomic
    writes.  One daemon owns a state directory, so no live writer can
    own a tmp file at this point. *)
let sweep t dir =
  let keep = List.map (fun d -> d ^ entry_suffix) (t.on_disk @ t.stale) in
  let sweep_dir d doomed =
    match Sys.readdir d with
    | exception Sys_error _ -> ()
    | names ->
        Array.sort String.compare names;
        Array.iter
          (fun name ->
            if doomed name then
              match C.Io.unlink (Filename.concat d name) with
              | Ok () -> ()
              | Error e -> log_error t "sweep" (C.Io.error_message e))
          names
  in
  (* [states/] holds nothing but entries and their tmp files *)
  sweep_dir (states_dir dir) (fun name -> not (List.mem name keep));
  let manifest_tmp = Filename.basename (snap_path dir) ^ ".tmp." in
  sweep_dir dir (String.starts_with ~prefix:manifest_tmp)

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
      resident_bytes = None;
      on_disk = [];
      stale = [];
      digests = [];
    }
  in
  Option.iter
    (fun dir ->
      ignore (C.Io.mkdir_p (states_dir dir));
      (* warm start: the manifest (guarded by CRC, schema version and the
         configuration fingerprint), the resident entry (CRC, version, its
         digest, and the Verify certifier) and the memo entries — any
         suspicion of the resident entry falls back to a cold start with
         a warning; a bad memo entry just drops out of the memo *)
      (match read_manifest dir with
      | Error msg -> if resume then cfg.sv_log msg
      | Ok None -> ()
      | Ok (Some m) ->
          if resume then restore t dir m else t.stale <- manifest_entries m);
      if resume then t.replay <- read_journal (journal_path dir);
      sweep t dir)
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
                  commit_outcome t o;
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
