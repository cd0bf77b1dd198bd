(** Crash-safe on-disk result cache (see the interface for the
    contract).  An entry is one {!Snapshot} blob per key, so atomicity,
    versioning and corruption detection all come from the container; this
    module adds the content-hash key discipline, the quarantine policy,
    and LRU eviction. *)

let schema_version = 1
let entry_kind = "cache-entry"
let entry_suffix = ".entry"

type t = {
  dir : string;
  max_entries : int;
  c_hit : Trace.counter;
  c_miss : Trace.counter;
  c_evict : Trace.counter;
  c_corrupt : Trace.counter;
}

let dir t = t.dir
let quarantine_dir t = Filename.concat t.dir "quarantine"

(** A crash mid-{!Snapshot.write} leaves a [<key>.entry.tmp.<pid>] file
    behind.  Such files are never served (lookups go by exact entry
    name), but they are not entries either, so eviction would ignore
    them forever.  Sweep any old enough that no live writer can still
    own them; the age threshold protects a concurrent store racing in
    another process. *)
let tmp_marker = entry_suffix ^ ".tmp."

let stale_tmp_age_s = 600.0

let is_tmp_name name =
  let n = String.length name and m = String.length tmp_marker in
  let rec scan i =
    i + m <= n && (String.sub name i m = tmp_marker || scan (i + 1))
  in
  scan 0

let sweep_stale_tmp dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
      let now = Unix.gettimeofday () in
      Array.iter
        (fun name ->
          if is_tmp_name name then begin
            let p = Filename.concat dir name in
            let stale =
              match Unix.stat p with
              | exception Unix.Unix_error _ -> false
              | st -> now -. st.Unix.st_mtime > stale_tmp_age_s
            in
            if stale then ignore (Io.unlink p)
          end)
        names

(** The quarantine directory preserves evidence, but evidence must not
    fill the disk: a workload that corrupts entries repeatedly (or a
    fault-injection run) would otherwise grow [quarantine/] without
    bound, since nothing ever read it back.  Two caps, both swept at
    {!create} and after every {!quarantine}: entries older than
    {!quarantine_max_age_s} go first, then the oldest beyond
    {!quarantine_max_entries} (newest kept — recent corruption is the
    evidence worth keeping).  Ordering ties on [st_mtime] break by path,
    same rationale as {!evict}. *)
let quarantine_max_entries = 64

let quarantine_max_age_s = 7. *. 24. *. 3600.

let sweep_quarantine t =
  let qdir = quarantine_dir t in
  match Sys.readdir qdir with
  | exception Sys_error _ -> ()
  | names ->
      let now = Unix.gettimeofday () in
      let stamped =
        Array.map
          (fun name ->
            let p = Filename.concat qdir name in
            let mtime =
              try (Unix.stat p).Unix.st_mtime with Unix.Unix_error _ -> 0.0
            in
            (mtime, p))
          names
      in
      let order (ma, pa) (mb, pb) =
        let c = Float.compare ma mb in
        if c <> 0 then c else String.compare pa pb
      in
      Array.sort order stamped;
      Array.iteri
        (fun i (mtime, p) ->
          let age = Float.max 0.0 (now -. mtime) in
          let excess = Array.length stamped - i > quarantine_max_entries in
          if age > quarantine_max_age_s || excess then ignore (Io.unlink p))
        stamped

let create ?trace ?(max_entries = 512) dir =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  let t =
    {
      dir;
      max_entries = max max_entries 1;
      c_hit = Trace.counter trace "cache.hit";
      c_miss = Trace.counter trace "cache.miss";
      c_evict = Trace.counter trace "cache.evict";
      c_corrupt = Trace.counter trace "cache.corrupt";
    }
  in
  ignore (Io.mkdir_p dir);
  ignore (Io.mkdir_p (quarantine_dir t));
  sweep_stale_tmp dir;
  sweep_quarantine t;
  t

(** Every result-affecting configuration field goes into the fingerprint —
    including the budget: a degraded (budget-tripped) result must never be
    served to a run with a larger budget. *)
let fingerprint (config : Config.t) =
  Format.asprintf
    "cache-v%d;predicates=%b;primitives=%b;pval=%s;saturation=%s;seed_root_params=%b;budget=%a"
    schema_version config.Config.predicates config.Config.primitives
    (Pval.mode_name config.Config.pval)
    (match config.Config.saturation with
    | None -> "none"
    | Some n -> string_of_int n)
    config.Config.seed_root_params Budget.pp config.Config.budget

let key ~config ~scope ~source =
  Digest.to_hex
    (Digest.string (fingerprint config ^ "\x00" ^ scope ^ "\x00" ^ source))

let entry_path t k = Filename.concat t.dir (k ^ entry_suffix)

(** Move a corrupt entry aside (never delete evidence); if even the
    rename fails, fall back to removing it so it cannot poison later
    lookups. *)
let quarantine t path =
  let dst = Filename.concat (quarantine_dir t) (Filename.basename path) in
  (match Io.rename ~src:path ~dst with
  | Ok () -> ()
  | Error _ -> ignore (Io.unlink path));
  sweep_quarantine t

let find t k =
  let path = entry_path t k in
  if not (Sys.file_exists path) then begin
    Trace.incr t.c_miss;
    None
  end
  else
    match
      Snapshot.read ~path ~kind:entry_kind ~version:schema_version
    with
    | Ok payload -> (
        match String.index_opt payload '\n' with
        | Some i when String.sub payload 0 i = k ->
            Trace.incr t.c_hit;
            (* refresh the LRU clock; best-effort *)
            (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
            Some (String.sub payload (i + 1) (String.length payload - i - 1))
        | _ ->
            (* intact container holding another key: a hash collision or
               a renamed file — treat as corrupt, do not serve it *)
            Trace.incr t.c_corrupt;
            quarantine t path;
            None)
    | Error (Snapshot.Io _) ->
        (* raced away or unreadable: indistinguishable from absent *)
        Trace.incr t.c_miss;
        None
    | Error _ ->
        Trace.incr t.c_corrupt;
        quarantine t path;
        None

let evict t =
  sweep_stale_tmp t.dir;
  match Sys.readdir t.dir with
  | exception Sys_error _ -> ()
  | names ->
      let entries =
        Array.of_seq
          (Seq.filter
             (fun n -> Filename.check_suffix n entry_suffix)
             (Array.to_seq names))
      in
      let excess = Array.length entries - t.max_entries in
      if excess > 0 then begin
        let stamped =
          Array.map
            (fun name ->
              let p = Filename.concat t.dir name in
              let mtime =
                try (Unix.stat p).Unix.st_mtime
                with Unix.Unix_error _ -> 0.0
              in
              (mtime, p))
            entries
        in
        (* oldest first; ties broken by path.  [st_mtime] ties are common
           in practice — coarse-granularity filesystems, and several
           stores landing within one clock tick — and an unordered tie
           would make which entry survives eviction depend on [readdir]
           order, i.e. on the filesystem.  The path (the content-hash
           key) makes the order total and reproducible. *)
        let lru_order (ma, pa) (mb, pb) =
          let c = Float.compare ma mb in
          if c <> 0 then c else String.compare pa pb
        in
        Array.sort lru_order stamped;
        for i = 0 to excess - 1 do
          let _, p = stamped.(i) in
          ignore (Io.unlink p);
          Trace.incr t.c_evict
        done
      end

let store t k v =
  let r =
    Snapshot.write ~path:(entry_path t k) ~kind:entry_kind
      ~version:schema_version (k ^ "\n" ^ v)
  in
  (match r with Ok () -> evict t | Error _ -> ());
  r
