(** Incremental re-analysis for the serve daemon.

    The resident {!state} is a program source, its solved engine at the
    fixed point, and the content fingerprints an edit is diffed against.
    The fixed-point solver is monotone — facts are only ever added — so
    an arbitrary edit cannot be re-solved in place with {e exact}
    equality to a fresh run (retraction).  Instead, each request is
    classified into the cheapest strategy whose result is {e provably}
    the from-scratch fixed point, falling back to a full solve whenever
    the incremental state is suspect:

    - {b resident}: the request changes nothing (byte-identical source,
      identical root set) — serve the resident fixed point.
    - {b reuse}: the class hierarchy fingerprint is unchanged and every
      edited method is outside the resident reachable set.  The fixed
      point is generated only from reachable bodies plus the hierarchy,
      so it is {e exactly} the new program's fixed point (this is the
      paper's headline effect turned into an incremental win: the more
      code SkipFlow proves unreachable, the more edits are free).
    - {b redrain}: the root set grew.  {!Skipflow_core.Engine.add_root}
      on a clone of the resident engine re-drains the worklist from the
      new roots' boundary flows only; monotone chaotic iteration from
      the old fixed point — a pre-fixpoint of the grown constraint
      system — reaches the grown system's least fixed point.
    - {b memo}: the (source, roots, config) content hash — the PR 5
      {!Skipflow_core.Cache.key} machinery — hits the bounded in-memory
      memo of previously solved states (toggling edits, A→B→A).
    - {b full}: everything else, and any incremental result that fails
      the {!Skipflow_core.Verify} certifier.

    All mutating operations build a {e candidate} state on a clone and
    leave the resident state untouched until the candidate is committed
    by the caller — a deadline trip or failure rolls back by simply
    keeping the old state. *)

module C = Skipflow_core
module Api = Skipflow_api

type state = {
  source : string;  (** the accepted program source text *)
  roots : string list;  (** requested root names ([] = static main) *)
  engine : C.Engine.t;  (** solved, at the fixed point *)
  snapshot : string;  (** {!C.Engine.snapshot_bytes} of [engine] *)
  metrics : C.Metrics.t;
  reachable : string list;  (** qualified names, discovery order *)
  meth_hashes : (string * string) list;
      (** qualified name → body fingerprint, sorted by name, for the
          {e newest accepted} source (on the reuse path this can be newer
          than the engine's program — the fixed points coincide) *)
  hier_hash : string;  (** class-hierarchy fingerprint *)
  generation : int;  (** bumped by every committed mutation *)
}

type strategy =
  | Resident
  | Memo
  | Reuse
  | Redrain of int  (** number of roots added *)
  | Full of string  (** why incremental was not applicable *)

val strategy_name : strategy -> string
(** ["resident" | "memo" | "reuse" | "redrain" | "full"]. *)

val strategy_reason : strategy -> string option
(** The fallback reason, for [Full]. *)

(** {1 Fingerprints} *)

val meth_fingerprints : Skipflow_ir.Program.t -> (string * string) list
(** Per-method content hashes of the lowered bodies (rendered through
    {!Skipflow_ir.Ir_pp}, which prints cross-references by name and
    per-body local ids — stable across recompiles of edited sources),
    sorted by qualified name. *)

val hierarchy_fingerprint : Skipflow_ir.Program.t -> string
(** A digest of everything the fixed point depends on {e besides}
    reachable bodies: class names, supers, abstractness, field and
    method signatures, and which methods have bodies, in declaration
    order. *)

(** {1 The memo} *)

module Memo : sig
  type t
  (** A bounded LRU from {!C.Cache.key} content hashes to solved states
      (engines kept as frozen bytes, so entries are self-contained
      values the serve daemon persists as-is, one state entry each). *)

  val create : int -> t

  val peek : t -> string -> string option
  (** Side-effect-free lookup (no LRU refresh): a request that fails
      after a lookup must leave the memo byte-identical, or journal
      replay — which skips failed requests — would drift. *)

  val add : t -> string * string -> unit
  (** Insert or refresh [(key, frozen bytes)] at the front, evicting
      beyond the capacity.  Callers apply an {!outcome}'s
      [o_memo_adds] through this exactly when they commit it. *)

  val entries : t -> (string * string) list
  (** [(key, frozen state bytes)], most recently used first — what the
      serve snapshot persists.  An entry's bytes never change once
      added. *)

  val restore : int -> (string * string) list -> t

  val clear : t -> unit
  (** Drop every entry (capacity kept) — the memory ceiling's first
      relief valve; costs recomputation, never correctness. *)
end

val memo_key : config:C.Config.t -> mode:C.Engine.mode -> roots:string list -> source:string -> string
(** The content-hash identity of a solved state ({!C.Cache.key} with the
    daemon's scope discipline). *)

(** {1 Operations} *)

type outcome = {
  o_state : state;  (** the candidate; caller commits or discards *)
  o_strategy : strategy;
  o_verified : bool;  (** the {!C.Verify} certifier ran and passed *)
  o_memo_adds : (string * string) list;
      (** memo writes to apply (via {!Memo.add}) iff the caller commits
          the candidate; operations never mutate the memo themselves *)
}

val solve_full :
  ?reason:string ->
  config:C.Config.t ->
  mode:C.Engine.mode ->
  deadline_ms:int option ->
  generation:int ->
  source:string ->
  roots:string list ->
  unit ->
  (outcome, Protocol.error) result
(** Compile and solve from scratch.  With a deadline the solve runs
    under a wall-clock budget with [on_budget:`Pause]; a pause is
    returned as {!Protocol.Deadline_exceeded} (the caller keeps its old
    state — rollback is the default). *)

val edit :
  config:C.Config.t ->
  mode:C.Engine.mode ->
  deadline_ms:int option ->
  memo:Memo.t ->
  state ->
  source:string ->
  (outcome, Protocol.error) result
(** Classify and apply a source edit: resident / memo / reuse / full.
    [memo] is only read ({!Memo.peek}); the writes — including the
    pre-edit state, so reverting an edit is a hit, with the memo's own
    bytes for it when it has them — come back in [o_memo_adds] for the
    caller to apply on commit. *)

val analyze_roots :
  config:C.Config.t ->
  mode:C.Engine.mode ->
  deadline_ms:int option ->
  memo:Memo.t ->
  state ->
  roots:string list ->
  (outcome, Protocol.error) result
(** Re-analyze under a new root set: resident when unchanged, an
    incremental re-drain when it grew, a full solve otherwise. *)

(** {1 Persistence} *)

val freeze : state -> string
(** Serialize a state (the engine as its snapshot bytes).  The
    generation is not part of the bytes: one solved state freezes to the
    same bytes whatever generation it was committed at. *)

val thaw : string -> (state, string) result
(** Rebuild a frozen state; the engine is restored from its snapshot
    bytes with an unlimited budget, and the generation is [0] (callers
    set their own).  [Error] on undecodable bytes. *)

(** {1 Equality certification} *)

val same_fixed_point : C.Engine.t -> C.Engine.t -> (unit, string) result
(** Flow-by-flow equality of two solved engines over possibly distinct
    (but identically shaped) programs: equal reachable qualified-name
    sets, and per method equal flow counts, kinds, enabled bits, and
    value states ([state] and [raw]).  [Error] names the first
    difference.  This is the oracle the serve tests run between
    incremental and from-scratch solves. *)
