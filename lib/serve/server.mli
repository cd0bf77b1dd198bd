(** The serve daemon's state machine, transport-agnostic: request lines
    in, response lines out.  The process event loop (stdin/stdout or a
    Unix socket, signals, blocking reads) lives in the CLI; everything
    below is a pure library so the tests and the fuzz harness can drive
    whole sessions — including crash/recovery cycles — in process.

    {b Robustness contract.}  No exception crosses {!handle_line}: every
    failure is a structured {!Protocol.error} response.  Mutations are
    computed on candidates and committed only on success, so a deadline
    trip rolls the resident state back by construction.  Every response
    is appended to a journal (with the request digest and the resulting
    generation) before it is returned, and the resident state plus memo
    are snapshotted every [snapshot_every] mutations — each solved state
    written once, as its own content-named entry under [DIR/states/],
    then a small manifest naming them published by atomic rename — so a
    [kill -9] at any point loses at most the in-flight request, and a
    restart with [resume:true] re-emits journaled responses byte for
    byte while re-executing post-snapshot mutations to catch the
    resident state up. *)

module C = Skipflow_core
module Api = Skipflow_api

type cfg = {
  sv_config : C.Config.t;
  sv_mode : C.Engine.mode;
  sv_roots : string list;  (** initial root names; [[]] = static main *)
  sv_state_dir : string option;  (** snapshots + journal; [None] = none *)
  sv_snapshot_every : int;
      (** mutations between snapshots; 1 = after every mutation *)
  sv_deadline_ms : int option;  (** default per-request deadline *)
  sv_retry_after_ms : int;  (** the hint shed responses carry *)
  sv_memo_entries : int;  (** memo capacity (solved states) *)
  sv_timings : bool;  (** report wall_us; off = 0, byte-comparable *)
  sv_max_heap_mb : int option;
      (** memory ceiling: past it, memo and trace events are dropped and
          the heap compacted; if still over, mutating requests are shed
          with the retry hint ([health]/[shutdown] always answer).
          Shed-by-memory responses are never journaled. *)
  sv_restarts : int;
      (** how many times the supervisor has restarted this daemon
          (surfaced in [health]; 0 when unsupervised) *)
  sv_log : string -> unit;  (** diagnostics (recovery warnings etc.) *)
}

val default_cfg : cfg
(** skipflow config, dedup engine, main root, no state dir, snapshot
    every mutation, no deadline, retry hint 50ms, 8 memo entries, no
    memory ceiling, timings off, silent log. *)

type t

val create : ?initial:Api.source -> resume:bool -> cfg -> (t, string) result
(** Start a daemon.  [initial] loads and fully solves a program before
    serving (its errors fail creation — the CLI contract).  With
    [resume:true] and a state dir, the last snapshot is restored (config
    fingerprint, container CRCs, schema versions, entry digests and the
    {!C.Verify} certifier all guard it; any suspicion of the manifest or
    the resident entry falls back to a cold start with a logged warning,
    never a refusal, and a bad memo entry is logged and left out of the
    memo) and the journal is loaded for replay.  A resumed daemon
    prefers the snapshot over [initial].  With a state dir, entries no
    manifest names and tmp files of interrupted writes are swept. *)

val handle_line : t -> string -> string list
(** Process one request line to completion: parse, replay-match,
    dispatch, journal, snapshot; returns the response lines (empty for a
    blank input line).  Never raises. *)

val wants_shutdown : t -> bool
(** A [shutdown] request was processed; the loop should {!finalize}. *)

val generation : t -> int
val state : t -> Incremental.state option

val finalize : t -> unit
(** Final snapshot, journal flush and close.  Idempotent. *)

val snapshot_version : engine:int -> int
(** The container version of the [serve.snap] manifest and of every
    state entry, for a given engine schema version.  Entries are engine
    images, so the version derives from {!C.Engine.snapshot_version}: a
    daemon only restores [snapshot_version ~engine:C.Engine.snapshot_version],
    and a stale manifest or resident entry is logged and cold-started. *)
