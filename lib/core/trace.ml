(** Solver observability (see the interface for the design contract).

    Cost model, enforced here:

    - counters are mutable int boxes — an increment is a load, an add, a
      store; no allocation, no branching on trace state;
    - [with_phase] / [timed] test one boolean before touching a clock;
    - [event] tests one boolean before allocating anything.

    Time is kept as integer microseconds throughout so every document this
    module prints stays within the integer-only JSON subset the findings
    parser accepts. *)

(* ------------------------------ counters ------------------------------ *)

type counter = { c_name : string; mutable c_value : int }

let value c = c.c_value
let incr c = c.c_value <- c.c_value + 1

let add c n =
  if n < 0 then invalid_arg "Trace.add: counters are monotonic (negative delta)";
  c.c_value <- c.c_value + n

let record_max c n = if n > c.c_value then c.c_value <- n

(* ------------------------------- phases ------------------------------- *)

type phase = {
  ph_name : string;
  ph_depth : int;
  ph_wall_us : int;
  ph_cpu_us : int;
  ph_count : int;
  ph_first_start_us : int;
}

(* internal accumulating representation *)
type phase_acc = {
  pa_name : string;
  pa_depth : int;
  mutable pa_wall_us : int;
  mutable pa_cpu_us : int;
  mutable pa_count : int;
  pa_first_start_us : int;
}

type event = {
  ev_ts_us : int;
  ev_kind : string;
  ev_flow : int;
  ev_meth : int;
  ev_arg : int;
}

type t = {
  tr_timers : bool;
  tr_events : bool;
  tr_max_events : int;
  tr_t0_wall : float;  (** wall clock at creation, seconds *)
  counters_tbl : (string, counter) Hashtbl.t;
  mutable counters_rev : counter list;
  phases_tbl : (string * int, phase_acc) Hashtbl.t;
  mutable phases_rev : phase_acc list;
  mutable depth : int;
  mutable events_rev : event list;
  mutable n_events : int;
  mutable n_dropped : int;
}

let create ?(timers = false) ?(events = false) ?(max_events = 1_000_000) () =
  {
    tr_timers = timers;
    tr_events = events;
    tr_max_events = max_events;
    tr_t0_wall = Unix.gettimeofday ();
    counters_tbl = Hashtbl.create 32;
    counters_rev = [];
    phases_tbl = Hashtbl.create 16;
    phases_rev = [];
    depth = 0;
    events_rev = [];
    n_events = 0;
    n_dropped = 0;
  }

let events_on t = t.tr_events

let counter t name =
  match Hashtbl.find_opt t.counters_tbl name with
  | Some c -> c
  | None ->
      let c = { c_name = name; c_value = 0 } in
      Hashtbl.replace t.counters_tbl name c;
      t.counters_rev <- c :: t.counters_rev;
      c

let counters t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.rev_map (fun c -> (c.c_name, c.c_value)) t.counters_rev)

(* Wall-clock deltas are clamped at zero: [gettimeofday] is not
   monotone (NTP steps, VM migrations), and a backwards jump must not
   produce negative durations — the JSON consumers treat the integer-us
   fields as unsigned, and [add] rejects negative deltas by contract. *)
let elapsed_us since =
  int_of_float (Float.max 0.0 (Unix.gettimeofday () -. since) *. 1e6)

let now_us t = elapsed_us t.tr_t0_wall

let phase_acc t name =
  let key = (name, t.depth) in
  match Hashtbl.find_opt t.phases_tbl key with
  | Some p -> p
  | None ->
      let p =
        {
          pa_name = name;
          pa_depth = t.depth;
          pa_wall_us = 0;
          pa_cpu_us = 0;
          pa_count = 0;
          pa_first_start_us = now_us t;
        }
      in
      Hashtbl.replace t.phases_tbl key p;
      t.phases_rev <- p :: t.phases_rev;
      p

let with_phase t name f =
  if not t.tr_timers then f ()
  else begin
    let p = phase_acc t name in
    let w0 = Unix.gettimeofday () and c0 = Sys.time () in
    t.depth <- t.depth + 1;
    Fun.protect
      ~finally:(fun () ->
        t.depth <- t.depth - 1;
        p.pa_wall_us <- p.pa_wall_us + elapsed_us w0;
        p.pa_cpu_us <-
          p.pa_cpu_us + int_of_float (Float.max 0.0 (Sys.time () -. c0) *. 1e6);
        p.pa_count <- p.pa_count + 1)
      f
  end

let phases t =
  List.rev_map
    (fun p ->
      {
        ph_name = p.pa_name;
        ph_depth = p.pa_depth;
        ph_wall_us = p.pa_wall_us;
        ph_cpu_us = p.pa_cpu_us;
        ph_count = p.pa_count;
        ph_first_start_us = p.pa_first_start_us;
      })
    t.phases_rev

let timed t c f =
  if not t.tr_timers then f ()
  else begin
    let w0 = Unix.gettimeofday () in
    Fun.protect ~finally:(fun () -> add c (elapsed_us w0)) f
  end

(* ------------------------------- events ------------------------------- *)

let event t ~kind ?(flow = -1) ?(meth = -1) ?(arg = 0) () =
  if t.tr_events then begin
    if t.n_events >= t.tr_max_events then t.n_dropped <- t.n_dropped + 1
    else begin
      t.events_rev <-
        { ev_ts_us = now_us t; ev_kind = kind; ev_flow = flow; ev_meth = meth;
          ev_arg = arg }
        :: t.events_rev;
      t.n_events <- t.n_events + 1
    end
  end

let events t = List.rev t.events_rev
let event_count t = t.n_events
let dropped_events t = t.n_dropped

(* memory-pressure relief: the buffer is the only unbounded-ish
   allocation a trace holds.  Dropped events are still accounted. *)
let drop_events t =
  t.n_dropped <- t.n_dropped + t.n_events;
  t.n_events <- 0;
  t.events_rev <- []

let count_by key_of t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      match key_of ev with
      | None -> ()
      | Some k ->
          Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    t.events_rev;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
  |> List.sort (fun (ka, a) (kb, b) ->
         match Int.compare b a with 0 -> compare ka kb | c -> c)

let by_kind t = count_by (fun ev -> Some ev.ev_kind) t

let by_flow t =
  count_by (fun ev -> if ev.ev_flow >= 0 then Some ev.ev_flow else None) t

let by_meth t =
  count_by (fun ev -> if ev.ev_meth >= 0 then Some ev.ev_meth else None) t

(* ---------------------------- serialization --------------------------- *)

let schema_version = 1

let default_meth_name id = Printf.sprintf "m%d" id

(* Minimal JSON string escaping, mirroring the findings emitter: phase and
   counter names are plain identifiers, but method names come from user
   source, so escape defensively. *)
let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | ch when Char.code ch < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.add_char b '"'

let jsonl_string ?(meth_name = default_meth_name) t =
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\"schema_version\": %d, \"kind\": \"header\", \"format\": \"skipflow-trace\", \"clock\": \"us\", \"events\": %d, \"dropped\": %d}\n"
    schema_version t.n_events t.n_dropped;
  List.iter
    (fun p ->
      Buffer.add_string b "{\"kind\": \"phase\", \"name\": ";
      escape b p.ph_name;
      Printf.bprintf b
        ", \"depth\": %d, \"wall_us\": %d, \"cpu_us\": %d, \"count\": %d, \"start_us\": %d}\n"
        p.ph_depth p.ph_wall_us p.ph_cpu_us p.ph_count p.ph_first_start_us)
    (phases t);
  List.iter
    (fun (name, v) ->
      Buffer.add_string b "{\"kind\": \"counter\", \"name\": ";
      escape b name;
      Printf.bprintf b ", \"value\": %d}\n" v)
    (counters t);
  List.iter
    (fun ev ->
      Printf.bprintf b "{\"kind\": \"event\", \"ev\": ";
      escape b ev.ev_kind;
      Printf.bprintf b ", \"ts_us\": %d, \"flow\": %d, \"meth\": " ev.ev_ts_us
        ev.ev_flow;
      if ev.ev_meth >= 0 then escape b (meth_name ev.ev_meth)
      else Buffer.add_string b "null";
      Printf.bprintf b ", \"meth_id\": %d, \"arg\": %d}\n" ev.ev_meth ev.ev_arg)
    (events t);
  Buffer.contents b

(* Chrome trace_event object format.  Perfetto and chrome://tracing accept
   an object with a "traceEvents" array and ignore unknown top-level keys,
   which is where the schema version and the counter dump go.  Phases
   become complete ("X") events; aggregated multi-entry phases are emitted
   as one span covering their total wall time, anchored at first entry.
   Solver events become instants ("i") with thread scope. *)
let chrome_string ?(meth_name = default_meth_name) t =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\n  \"schema_version\": %d,\n" schema_version;
  Buffer.add_string b "  \"displayTimeUnit\": \"ms\",\n";
  Buffer.add_string b "  \"counters\": {";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string b ", ";
      escape b name;
      Printf.bprintf b ": %d" v)
    (counters t);
  Buffer.add_string b "},\n";
  Buffer.add_string b "  \"traceEvents\": [\n";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b "    "
  in
  List.iter
    (fun p ->
      sep ();
      Buffer.add_string b "{\"name\": ";
      escape b p.ph_name;
      Printf.bprintf b
        ", \"ph\": \"X\", \"ts\": %d, \"dur\": %d, \"pid\": 1, \"tid\": %d, \"args\": {\"count\": %d, \"cpu_us\": %d}}"
        p.ph_first_start_us p.ph_wall_us (1 + p.ph_depth) p.ph_count p.ph_cpu_us)
    (phases t);
  List.iter
    (fun ev ->
      sep ();
      Buffer.add_string b "{\"name\": ";
      escape b ev.ev_kind;
      Printf.bprintf b
        ", \"ph\": \"i\", \"ts\": %d, \"pid\": 1, \"tid\": 1, \"s\": \"t\", \"args\": {\"flow\": %d, \"meth\": "
        ev.ev_ts_us ev.ev_flow;
      if ev.ev_meth >= 0 then escape b (meth_name ev.ev_meth)
      else Buffer.add_string b "null";
      Printf.bprintf b ", \"arg\": %d}}" ev.ev_arg)
    (events t);
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* Exports go through the durable-IO layer: atomic tmp+rename (a crash
   mid-export never leaves a half-written trace for tooling to choke
   on), durability per [--durability], and fault-injection coverage. *)
let write_jsonl ?meth_name t path =
  Io.write_file_atomic ~path (jsonl_string ?meth_name t)

let write_chrome ?meth_name t path =
  Io.write_file_atomic ~path (chrome_string ?meth_name t)

(* ----------------------------- pretty print --------------------------- *)

let pp_phases ppf t =
  Format.fprintf ppf "@[<v>%-24s %10s %10s %7s@," "phase" "wall[ms]" "cpu[ms]" "count";
  List.iter
    (fun p ->
      let indent = String.make (2 * p.ph_depth) ' ' in
      Format.fprintf ppf "%-24s %10.3f %10.3f %7d@,"
        (indent ^ p.ph_name)
        (float_of_int p.ph_wall_us /. 1000.)
        (float_of_int p.ph_cpu_us /. 1000.)
        p.ph_count)
    (phases t);
  Format.fprintf ppf "@]"

let pp_counters ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter (fun (name, v) -> Format.fprintf ppf "%-32s %12d@," name v) (counters t);
  Format.fprintf ppf "@]"
