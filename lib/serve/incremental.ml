(** Incremental re-analysis: classify each mutation into the cheapest
    strategy whose result is provably the from-scratch fixed point, and
    fall back to a full solve whenever the incremental state is suspect.
    See the interface for the correctness argument per strategy. *)

open Skipflow_ir
module C = Skipflow_core
module Api = Skipflow_api

type state = {
  source : string;
  roots : string list;
  engine : C.Engine.t;
  snapshot : string;
  metrics : C.Metrics.t;
  generation : int;
}

type strategy =
  | Resident
  | Memo
  | Reuse
  | Redrain of int
  | Full of string

let strategy_name = function
  | Resident -> "resident"
  | Memo -> "memo"
  | Reuse -> "reuse"
  | Redrain _ -> "redrain"
  | Full _ -> "full"

let strategy_reason = function Full reason -> Some reason | _ -> None

(* ------------------------------ the memo ------------------------------ *)

module Memo = struct
  type t = { cap : int; mutable items : (string * string) list }

  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: rest -> x :: take (n - 1) rest

  let create cap = { cap; items = [] }
  let entries m = m.items
  let restore cap items = { cap; items = take cap items }

  (* no LRU refresh: lookups must be side-effect free so that a request
     that ultimately fails leaves the memo byte-identical — journal
     replay skips failed requests, and any memo drift would change
     strategy decisions between an interrupted and a straight session *)
  let peek m key = List.assoc_opt key m.items

  let add m (key, v) =
    m.items <- take m.cap ((key, v) :: List.remove_assoc key m.items)

  (* the memory ceiling's first relief valve: memo entries are pure
     caches, dropping them costs recomputation, never correctness *)
  let clear m = m.items <- []
end

let memo_key ~config ~mode ~roots ~source =
  let scope =
    Printf.sprintf "serve;mode=%s;roots=%s" (C.Engine.mode_name mode)
      (String.concat "," roots)
  in
  C.Cache.key ~config ~scope ~source

(* ----------------------------- persistence ---------------------------- *)

(* No generation in here: the same solved state frozen at different
   generations must give the same bytes, so that the serve daemon's
   write-once, content-named state entries are reused across memo hits.
   The daemon's manifest carries the resident generation instead. *)
type frozen = {
  fr_source : string;
  fr_roots : string list;
  fr_snapshot : string;
}

let freeze st =
  Marshal.to_string
    {
      fr_source = st.source;
      fr_roots = st.roots;
      fr_snapshot = st.snapshot;
    }
    []

let thaw bytes =
  match (Marshal.from_string bytes 0 : frozen) with
  | exception _ -> Error "cannot decode serve state payload"
  | fr -> (
      match
        C.Engine.of_snapshot_bytes ~budget:C.Budget.unlimited fr.fr_snapshot
      with
      | Error message -> Error message
      | Ok engine ->
          Ok
            {
              source = fr.fr_source;
              roots = fr.fr_roots;
              engine;
              snapshot = fr.fr_snapshot;
              metrics = C.Metrics.compute engine;
              generation = 0;
            })

(* ----------------------------- operations ----------------------------- *)

type outcome = {
  o_state : state;
  o_strategy : strategy;
  o_verified : bool;
  o_memo_adds : (string * string) list;
      (* memo writes to apply if (and only if) the caller commits *)
}

let deadline_budget deadline_ms =
  C.Budget.make ~max_seconds:(float_of_int deadline_ms /. 1000.) ()

let with_deadline config = function
  | None -> (config, `Degrade)
  | Some ms -> ({ config with C.Config.budget = deadline_budget ms }, `Pause)

let certify engine = C.Verify.run engine = []

let solve_full ?(reason = "cold start") ~config ~mode ~deadline_ms ~generation
    ~source ~roots () =
  let config', on_budget = with_deadline config deadline_ms in
  match
    Api.analyze ~config:config' ~mode ~on_budget ~source:(`Text source) ~roots
      ()
  with
  | Error e -> Error (Protocol.Api_error e)
  | Ok s -> (
      match (s.Api.outcome, deadline_ms) with
      | C.Engine.Paused _, Some deadline_ms ->
          Error (Protocol.Deadline_exceeded { deadline_ms })
      | C.Engine.Paused _, None ->
          (* unreachable: without a deadline the engine degrades *)
          Error (Protocol.Api_error (Api.Internal_error "paused without deadline"))
      | C.Engine.Completed, _ ->
          let st =
            {
              source;
              roots;
              engine = s.Api.engine;
              snapshot = C.Engine.snapshot_bytes s.Api.engine;
              metrics = s.Api.metrics;
              generation = generation + 1;
            }
          in
          Ok
            {
              o_state = st;
              o_strategy = Full reason;
              o_verified = false;
              o_memo_adds =
                [ (memo_key ~config ~mode ~roots ~source, freeze st) ];
            })

let edit ~config ~mode ~deadline_ms ~memo st ~source =
  if String.equal source st.source then
    Ok { o_state = st; o_strategy = Resident; o_verified = false; o_memo_adds = [] }
  else begin
    (* on commit, memoize the pre-edit state too, so reverting this edit
       is a hit.  The resident state's entry is normally in the memo
       already (every commit adds it), so its bytes are reused rather
       than marshaled again; only a memo emptied since (capacity, the
       memory ceiling) freezes it afresh. *)
    let pre_key = memo_key ~config ~mode ~roots:st.roots ~source:st.source in
    let pre_add =
      ( pre_key,
        match Memo.peek memo pre_key with
        | Some bytes -> bytes
        | None -> freeze st )
    in
    let full reason =
      match
        solve_full ~reason ~config ~mode ~deadline_ms
          ~generation:st.generation ~source ~roots:st.roots ()
      with
      | Error _ as e -> e
      | Ok o -> Ok { o with o_memo_adds = pre_add :: o.o_memo_adds }
    in
    match Memo.peek memo (memo_key ~config ~mode ~roots:st.roots ~source) with
    | Some bytes -> (
        match thaw bytes with
        | Ok mst when certify mst.engine ->
            Ok
              {
                o_state = { mst with generation = st.generation + 1 };
                o_strategy = Memo;
                o_verified = true;
                o_memo_adds =
                  [ pre_add;
                    (* re-adding the hit refreshes its LRU position *)
                    (memo_key ~config ~mode ~roots:st.roots ~source, bytes);
                  ];
              }
        | Ok _ | Error _ ->
            (* suspect memo entry: drop to a full solve *)
            full "memo entry failed restoration or verification")
    | None -> full "source not memoized"
  end

let analyze_roots ~config ~mode ~deadline_ms ~memo st ~roots =
  let prog = C.Engine.prog_of st.engine in
  match Api.resolve_roots prog roots with
  | Error e -> Error (Protocol.Api_error e)
  | Ok meths -> (
      let requested =
        Ids.Meth.Set.of_list (List.map (fun m -> m.Program.m_id) meths)
      in
      let current = C.Engine.roots st.engine in
      let memo_hit () =
        match Memo.peek memo (memo_key ~config ~mode ~roots ~source:st.source) with
        | None -> None
        | Some bytes -> (
            match thaw bytes with
            | Ok mst when certify mst.engine ->
                Some
                  {
                    o_state = { mst with generation = st.generation + 1 };
                    o_strategy = Memo;
                    o_verified = true;
                    o_memo_adds =
                      [ (memo_key ~config ~mode ~roots ~source:st.source, bytes) ];
                  }
            | Ok _ | Error _ -> None)
      in
      if Ids.Meth.Set.equal requested current then
        Ok
          {
            o_state = st;
            o_strategy = Resident;
            o_verified = false;
            o_memo_adds = [];
          }
      else
        match memo_hit () with
        | Some o -> Ok o
        | None ->
      if not (Ids.Meth.Set.subset current requested) then
        (* the root set shrank: retraction, which a monotone engine
           cannot replay — full solve *)
        solve_full ~reason:"root set shrank or was replaced" ~config ~mode
          ~deadline_ms ~generation:st.generation ~source:st.source ~roots ()
      else begin
        let added =
          List.filter
            (fun (m : Program.meth) ->
              not (Ids.Meth.Set.mem m.Program.m_id current))
            meths
        in
        let budget, on_budget =
          match deadline_ms with
          | None -> (config.C.Config.budget, `Degrade)
          | Some ms -> (deadline_budget ms, `Pause)
        in
        (* mutate a clone: a deadline trip (or any failure) rolls back by
           keeping the resident state untouched *)
        let clone = C.Engine.clone ~budget st.engine in
        List.iter (fun m -> C.Engine.add_root clone m) added;
        let r = C.Analysis.rerun ~on_budget clone in
        match (r.C.Analysis.outcome, deadline_ms) with
        | C.Engine.Paused _, Some deadline_ms ->
            Error (Protocol.Deadline_exceeded { deadline_ms })
        | C.Engine.Paused _, None ->
            Error
              (Protocol.Api_error (Api.Internal_error "paused without deadline"))
        | C.Engine.Completed, _ ->
            if certify r.C.Analysis.engine then begin
              let st' =
                {
                  st with
                  roots;
                  engine = r.C.Analysis.engine;
                  snapshot = C.Engine.snapshot_bytes r.C.Analysis.engine;
                  metrics = r.C.Analysis.metrics;
                  generation = st.generation + 1;
                }
              in
              Ok
                {
                  o_state = st';
                  o_strategy = Redrain (List.length added);
                  o_verified = true;
                  o_memo_adds =
                    [ ( memo_key ~config ~mode ~roots ~source:st.source,
                        freeze st' );
                    ];
                }
            end
            else
              solve_full ~reason:"re-drained engine failed verification"
                ~config ~mode ~deadline_ms ~generation:st.generation
                ~source:st.source ~roots ()
      end)
