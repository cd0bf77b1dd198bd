(** The durable-IO effect layer (see the interface for the contract).

    Design notes:

    - Every logical operation (open-for-write, whole-buffer write, fsync,
      close, rename, unlink, mkdir, open-for-read, read) {e ticks} the
      installed fault plan exactly once, {e before} attempting the
      syscall; retries of the same logical operation do not tick again,
      so the operation index — and therefore the injected fault schedule
      and the crash-point enumeration — is a pure function of the
      workload, not of scheduling.
    - The crash point fires before the ticked operation runs: crashing
      at point [k] means operations [0..k-1] happened and operation [k]
      never did, which is exactly the state a [kill -9] between two
      syscalls leaves behind.
    - Injected EINTR and short writes are raised {e underneath} the
      retry/chunk machinery, so their test is that callers never see
      them. *)

(* ----------------------------- durability ----------------------------- *)

type durability = D_none | D_flush | D_fsync

let level = ref D_flush
let set_durability d = level := d
let durability () = !level

(* ------------------------------- errors ------------------------------- *)

type error = { io_op : string; io_path : string; io_message : string }

let error_message e = Printf.sprintf "%s: %s: %s" e.io_path e.io_op e.io_message

(* ------------------------------ statistics ---------------------------- *)

type stats = {
  writes : int;
  appends : int;
  fsyncs : int;
  renames : int;
  unlinks : int;
  retries : int;
  faults : int;
}

let s_writes = ref 0
let s_appends = ref 0
let s_fsyncs = ref 0
let s_renames = ref 0
let s_unlinks = ref 0
let s_retries = ref 0
let s_faults = ref 0

let stats () =
  {
    writes = !s_writes;
    appends = !s_appends;
    fsyncs = !s_fsyncs;
    renames = !s_renames;
    unlinks = !s_unlinks;
    retries = !s_retries;
    faults = !s_faults;
  }

(* --------------------------- fault injection -------------------------- *)

type fault = F_eio | F_enospc | F_eintr | F_short_write | F_torn_rename

let all_faults = [ F_eio; F_enospc; F_eintr; F_short_write; F_torn_rename ]

type plan = {
  p_seed : int;
  p_rate : int;
  p_faults : fault array;
  p_crash_at : int option;
  p_crash_exit : bool;
  mutable p_ops : int;
}

exception Crash_point of int

let plan ?(rate = 0) ?(faults = all_faults) ?crash_at ?(crash_exit = true)
    ~seed () =
  {
    p_seed = seed;
    p_rate = max 0 rate;
    p_faults = Array.of_list (if faults = [] then all_faults else faults);
    p_crash_at = crash_at;
    p_crash_exit = crash_exit;
    p_ops = 0;
  }

let active : plan option ref = ref None
let install p = active := Some p
let uninstall () = active := None

let with_plan p f =
  install p;
  Fun.protect ~finally:uninstall f

let ops_performed () = match !active with Some p -> p.p_ops | None -> 0
let injected () = !s_faults

(* A small integer mixer: the decision for operation [i] of a plan is a
   pure function of [(seed, i)] — the determinism the fault-plan oracle
   in [t_io] checks. *)
let mix seed i =
  let h = ref ((seed * 0x9E3779B1) lxor (i * 0x85EBCA77) lxor 0x165667B1) in
  h := !h lxor (!h lsr 15);
  h := !h * 0x2545F491;
  h := !h lxor (!h lsr 13);
  !h land max_int

let raw_decide ~seed ~rate ~faults i =
  if rate <= 0 then None
  else
    let h = mix seed i in
    if h mod rate <> 0 then None
    else Some faults.(h / rate mod Array.length faults)

let preview p ~n =
  List.init n (fun i ->
      raw_decide ~seed:p.p_seed ~rate:p.p_rate ~faults:p.p_faults i)

type op_kind =
  | Kopen_r
  | Kread
  | Kopen_w
  | Kwrite
  | Kfsync
  | Kclose
  | Krename
  | Kunlink
  | Kmkdir

(* Which faults make sense where: ENOSPC only on the write side, a short
   write only on a write, a torn rename only on a rename.  An
   inapplicable decision injects nothing (deterministically). *)
let applicable kind = function
  | F_eio | F_eintr -> true
  | F_enospc -> (
      match kind with
      | Kopen_w | Kwrite | Kfsync | Kclose | Kmkdir | Krename -> true
      | Kopen_r | Kread | Kunlink -> false)
  | F_short_write -> kind = Kwrite
  | F_torn_rename -> kind = Krename

(** One tick per logical operation: advance the op counter, fire the
    crash point if this is it, and return the (applicable) fault. *)
let tick kind =
  match !active with
  | None -> None
  | Some p ->
      let i = p.p_ops in
      p.p_ops <- i + 1;
      (match p.p_crash_at with
      | Some k when i = k ->
          if p.p_crash_exit then Unix._exit 137 else raise (Crash_point k)
      | _ -> ());
      (match raw_decide ~seed:p.p_seed ~rate:p.p_rate ~faults:p.p_faults i with
      | Some f when applicable kind f -> Some f
      | _ -> None)

(* ----------------------------- retry loops ---------------------------- *)

(* EINTR retries immediately (a signal storm is cheap to outlast);
   EAGAIN/EWOULDBLOCK backs off exponentially, bounded — past the bound
   the error is reported like any other, never spun on. *)
let with_retries f =
  let rec go ~eintr ~again ~delay =
    match f () with
    | v -> v
    | exception Unix.Unix_error (Unix.EINTR, _, _) when eintr > 0 ->
        incr s_retries;
        go ~eintr:(eintr - 1) ~again ~delay
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      when again > 0 ->
        incr s_retries;
        Unix.sleepf delay;
        go ~eintr ~again:(again - 1) ~delay:(Float.min 0.064 (delay *. 2.))
  in
  go ~eintr:200 ~again:6 ~delay:0.001

(** Run one logical operation with its planned fault applied: EIO/ENOSPC
    fail it outright; an injected EINTR fails the first attempt only —
    the retry loop must make it invisible. *)
let attempt kind ~op ~path f =
  let fault = tick kind in
  (match fault with
  | Some F_eio ->
      incr s_faults;
      raise (Unix.Unix_error (Unix.EIO, op, path))
  | Some F_enospc ->
      incr s_faults;
      raise (Unix.Unix_error (Unix.ENOSPC, op, path))
  | _ -> ());
  let pending_eintr = ref (fault = Some F_eintr) in
  with_retries (fun () ->
      if !pending_eintr then begin
        pending_eintr := false;
        incr s_faults;
        raise (Unix.Unix_error (Unix.EINTR, op, path))
      end;
      f ())

let to_error ~op ~path = function
  | Unix.Unix_error (e, failing_op, _) ->
      {
        io_op = (if failing_op = "" then op else failing_op);
        io_path = path;
        io_message = Unix.error_message e;
      }
  | Sys_error m -> { io_op = op; io_path = path; io_message = m }
  | e -> { io_op = op; io_path = path; io_message = Printexc.to_string e }

(** Total wrapper for a whole multi-op routine.  Expected IO failures
    map to [Error] after the cleanup; anything else — {!Crash_point}
    included — still runs the cleanup but propagates: an in-process
    simulated death unwinds exception-safely (no leaked fd, no stray
    temp file), while the faithful no-cleanup kill is [crash_exit]'s
    [_exit], which never unwinds at all. *)
let run_guarded ~op ~path ~on_failure f =
  match f () with
  | v -> Ok v
  | exception ((Unix.Unix_error _ | Sys_error _) as e) ->
      on_failure ();
      Error (to_error ~op ~path e)
  | exception e ->
      on_failure ();
      raise e

(* ------------------------------ primitives ---------------------------- *)

(** Write the whole buffer, absorbing short writes (real or injected) by
    continuing from the transferred offset. *)
let write_all fd path (data : string) =
  let bytes = Bytes.unsafe_of_string data in
  let len = Bytes.length bytes in
  let fault = tick Kwrite in
  (match fault with
  | Some F_eio ->
      incr s_faults;
      raise (Unix.Unix_error (Unix.EIO, "write", path))
  | Some F_enospc ->
      incr s_faults;
      raise (Unix.Unix_error (Unix.ENOSPC, "write", path))
  | _ -> ());
  let pending_eintr = ref (fault = Some F_eintr) in
  let pending_short = ref (fault = Some F_short_write) in
  let rec go off remaining =
    if remaining > 0 then begin
      let n =
        with_retries (fun () ->
            if !pending_eintr then begin
              pending_eintr := false;
              incr s_faults;
              raise (Unix.Unix_error (Unix.EINTR, "write", path))
            end;
            let ask =
              if !pending_short && remaining > 1 then begin
                pending_short := false;
                incr s_faults;
                remaining / 2
              end
              else remaining
            in
            Unix.write fd bytes off ask)
      in
      go (off + n) (remaining - n)
    end
  in
  go 0 len

let fsync_fd ~path fd =
  attempt Kfsync ~op:"fsync" ~path (fun () -> Unix.fsync fd);
  incr s_fsyncs

let fsync_dir dir =
  if !level = D_fsync then begin
    match tick Kfsync with
    | Some (F_eio | F_enospc) ->
        (* best-effort by contract: a directory that cannot be fsynced
           (some filesystems refuse) must not fail the publish *)
        incr s_faults
    | _ -> (
        match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
        | exception Unix.Unix_error _ -> ()
        | fd ->
            (try
               with_retries (fun () -> Unix.fsync fd);
               incr s_fsyncs
             with Unix.Unix_error _ -> ());
            (try Unix.close fd with Unix.Unix_error _ -> ()))
  end

(* ------------------------------ operations ---------------------------- *)

let read_file path =
  let fd = ref None in
  let close_quiet () =
    match !fd with
    | Some f ->
        fd := None;
        (try Unix.close f with Unix.Unix_error _ -> ())
    | None -> ()
  in
  run_guarded ~op:"read" ~path ~on_failure:close_quiet (fun () ->
      fd :=
        Some
          (attempt Kopen_r ~op:"open" ~path (fun () ->
               Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0));
      let f = Option.get !fd in
      let fault = tick Kread in
      (match fault with
      | Some F_eio ->
          incr s_faults;
          raise (Unix.Unix_error (Unix.EIO, "read", path))
      | _ -> ());
      let pending_eintr = ref (fault = Some F_eintr) in
      let buf = Buffer.create 65536 in
      let chunk = Bytes.create 65536 in
      let rec go () =
        let n =
          with_retries (fun () ->
              if !pending_eintr then begin
                pending_eintr := false;
                incr s_faults;
                raise (Unix.Unix_error (Unix.EINTR, "read", path))
              end;
              Unix.read f chunk 0 (Bytes.length chunk))
        in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        end
      in
      go ();
      close_quiet ();
      Buffer.contents buf)

let do_rename ~src ~dst =
  (match tick Krename with
  | Some F_eio ->
      incr s_faults;
      raise (Unix.Unix_error (Unix.EIO, "rename", dst))
  | Some F_enospc ->
      incr s_faults;
      raise (Unix.Unix_error (Unix.ENOSPC, "rename", dst))
  | Some F_torn_rename ->
      (* the torn-page state a missing fsync exposes: the rename lands
         but half the data blocks never hit the platter.  Simulated by
         truncating the source before the (atomic) rename — the
         destination ends up damaged, and the reader's CRC must say so. *)
      incr s_faults;
      (match Unix.stat src with
      | exception Unix.Unix_error _ -> ()
      | st -> (
          match
            Unix.openfile src [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0o644
          with
          | exception Unix.Unix_error _ -> ()
          | fd ->
              (try Unix.ftruncate fd (st.Unix.st_size / 2)
               with Unix.Unix_error _ -> ());
              (try Unix.close fd with Unix.Unix_error _ -> ())))
  | Some F_eintr ->
      incr s_faults;
      (* rename is not interruptible in practice; treat as absorbed *)
      incr s_retries
  | Some F_short_write | None -> ());
  with_retries (fun () -> Unix.rename src dst);
  incr s_renames

let rename ~src ~dst =
  run_guarded ~op:"rename" ~path:dst ~on_failure:ignore (fun () ->
      do_rename ~src ~dst)

let unlink path =
  run_guarded ~op:"unlink" ~path ~on_failure:ignore (fun () ->
      attempt Kunlink ~op:"unlink" ~path (fun () ->
          try Unix.unlink path
          with Unix.Unix_error (Unix.ENOENT, _, _) -> ());
      incr s_unlinks)

let rec mkdir_p_exn path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p_exn (Filename.dirname path);
    attempt Kmkdir ~op:"mkdir" ~path (fun () ->
        try Unix.mkdir path 0o755
        with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let mkdir_p path =
  run_guarded ~op:"mkdir" ~path ~on_failure:ignore (fun () -> mkdir_p_exn path)

let write_file_atomic ~path data =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let fd = ref None in
  let cleanup () =
    (match !fd with
    | Some f ->
        fd := None;
        (try Unix.close f with Unix.Unix_error _ -> ())
    | None -> ());
    try Unix.unlink tmp with Unix.Unix_error _ -> ()
  in
  run_guarded ~op:"write" ~path ~on_failure:cleanup (fun () ->
      fd :=
        Some
          (attempt Kopen_w ~op:"open" ~path:tmp (fun () ->
               Unix.openfile tmp
                 [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
                 0o644));
      let f = Option.get !fd in
      write_all f tmp data;
      if !level = D_fsync then fsync_fd ~path:tmp f;
      attempt Kclose ~op:"close" ~path:tmp (fun () -> Unix.close f);
      fd := None;
      do_rename ~src:tmp ~dst:path;
      fsync_dir (Filename.dirname path);
      incr s_writes)

(* ------------------------------- appender ----------------------------- *)

type appender = {
  ap_path : string;
  ap_fd : Unix.file_descr;
  ap_buf : Buffer.t;  (** user-space buffer, used only at [D_none] *)
  mutable ap_closed : bool;
}

let open_append path =
  run_guarded ~op:"open" ~path ~on_failure:ignore (fun () ->
      mkdir_p_exn (Filename.dirname path);
      let fd =
        attempt Kopen_w ~op:"open" ~path (fun () ->
            Unix.openfile path
              [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ]
              0o644)
      in
      { ap_path = path; ap_fd = fd; ap_buf = Buffer.create 256; ap_closed = false })

let drain_buffer ap =
  if Buffer.length ap.ap_buf > 0 then begin
    let data = Buffer.contents ap.ap_buf in
    Buffer.clear ap.ap_buf;
    write_all ap.ap_fd ap.ap_path data
  end

let append_line ap line =
  if ap.ap_closed then
    Error { io_op = "append"; io_path = ap.ap_path; io_message = "closed" }
  else
    run_guarded ~op:"append" ~path:ap.ap_path ~on_failure:ignore (fun () ->
        (match !level with
        | D_none ->
            Buffer.add_string ap.ap_buf line;
            Buffer.add_char ap.ap_buf '\n'
        | D_flush -> write_all ap.ap_fd ap.ap_path (line ^ "\n")
        | D_fsync ->
            write_all ap.ap_fd ap.ap_path (line ^ "\n");
            fsync_fd ~path:ap.ap_path ap.ap_fd);
        incr s_appends)

let flush_append ap =
  if ap.ap_closed then Ok ()
  else
    run_guarded ~op:"flush" ~path:ap.ap_path ~on_failure:ignore (fun () ->
        drain_buffer ap;
        if !level = D_fsync then fsync_fd ~path:ap.ap_path ap.ap_fd)

let close_append ap =
  if not ap.ap_closed then begin
    ap.ap_closed <- true;
    (try drain_buffer ap
     with Unix.Unix_error _ | Sys_error _ -> ());
    try Unix.close ap.ap_fd with Unix.Unix_error _ -> ()
  end

(* --------------------------- crash-point fork -------------------------- *)

let fork_crashing ~plan f =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* the child is a simulated production process about to die: it
         must not run the parent's at_exit handlers or flush inherited
         channels, whether it crashes at the planned point or survives
         the workload *)
      install plan;
      (try f () with _ -> ());
      Unix._exit 0
  | pid ->
      let rec wait () =
        match Unix.waitpid [] pid with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
        | _ -> ()
      in
      wait ()
