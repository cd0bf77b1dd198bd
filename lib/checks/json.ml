(** A minimal JSON tree, emitter and parser — just enough for the lint
    findings interchange format ([skipflow lint --format json]) to
    round-trip without an external dependency.

    The emitter prints deterministically (object fields in the order
    given), so golden files are stable.  The parser is a plain
    recursive-descent reader for the same subset: null, booleans, integer
    numbers, strings with the standard escapes, arrays, objects.
    Floating-point literals are rejected — nothing in a finding needs
    them. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------- emit -------------------------------- *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(** Pretty-printed with two-space indentation and a trailing newline —
    the shape the golden CI files are diffed against. *)
let to_string (v : t) : string =
  let b = Buffer.create 256 in
  let pad n = Buffer.add_string b (String.make n ' ') in
  let rec go ind v =
    match v with
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Int n -> Buffer.add_string b (string_of_int n)
    | Str s -> escape_string b s
    | Arr [] -> Buffer.add_string b "[]"
    | Arr items ->
        Buffer.add_string b "[\n";
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string b ",\n";
            pad (ind + 2);
            go (ind + 2) item)
          items;
        Buffer.add_char b '\n';
        pad ind;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
        Buffer.add_string b "{\n";
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_string b ",\n";
            pad (ind + 2);
            escape_string b k;
            Buffer.add_string b ": ";
            go (ind + 2) item)
          fields;
        Buffer.add_char b '\n';
        pad ind;
        Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

(** One line, no whitespace — for JSONL streams (the batch journal),
    where a document must not contain raw newlines. *)
let to_compact_string (v : t) : string =
  let b = Buffer.create 256 in
  let rec go v =
    match v with
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Int n -> Buffer.add_string b (string_of_int n)
    | Str s -> escape_string b s
    | Arr items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char b ',';
            go item)
          items;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char b ',';
            escape_string b k;
            Buffer.add_char b ':';
            go item)
          fields;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* ------------------------------- parse ------------------------------- *)

exception Parse_error of string

type reader = { src : string; mutable pos : int }

let peek r = if r.pos < String.length r.src then Some r.src.[r.pos] else None

let fail r msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" r.pos msg))

let advance r = r.pos <- r.pos + 1

let rec skip_ws r =
  match peek r with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance r;
      skip_ws r
  | _ -> ()

let expect r c =
  match peek r with
  | Some c' when c' = c -> advance r
  | _ -> fail r (Printf.sprintf "expected %c" c)

let literal r word value =
  if
    r.pos + String.length word <= String.length r.src
    && String.sub r.src r.pos (String.length word) = word
  then begin
    r.pos <- r.pos + String.length word;
    value
  end
  else fail r (Printf.sprintf "expected %s" word)

let parse_string r =
  expect r '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek r with
    | None -> fail r "unterminated string"
    | Some '"' -> advance r
    | Some '\\' -> (
        advance r;
        match peek r with
        | Some '"' -> advance r; Buffer.add_char b '"'; go ()
        | Some '\\' -> advance r; Buffer.add_char b '\\'; go ()
        | Some '/' -> advance r; Buffer.add_char b '/'; go ()
        | Some 'n' -> advance r; Buffer.add_char b '\n'; go ()
        | Some 'r' -> advance r; Buffer.add_char b '\r'; go ()
        | Some 't' -> advance r; Buffer.add_char b '\t'; go ()
        | Some 'u' ->
            advance r;
            if r.pos + 4 > String.length r.src then fail r "short \\u escape";
            let hex = String.sub r.src r.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> fail r "bad \\u escape"
            in
            r.pos <- r.pos + 4;
            (* findings only ever escape control characters, which are
               single bytes; reject anything wider *)
            if code > 0xff then fail r "unsupported \\u escape"
            else Buffer.add_char b (Char.chr code);
            go ()
        | _ -> fail r "bad escape")
    | Some c ->
        advance r;
        Buffer.add_char b c;
        go ()
  in
  go ();
  Buffer.contents b

let parse_int r =
  let start = r.pos in
  (match peek r with Some '-' -> advance r | _ -> ());
  let rec digits () =
    match peek r with
    | Some '0' .. '9' ->
        advance r;
        digits ()
    | _ -> ()
  in
  digits ();
  if r.pos = start then fail r "expected number";
  (match peek r with
  | Some ('.' | 'e' | 'E') -> fail r "floating-point numbers unsupported"
  | _ -> ());
  int_of_string (String.sub r.src start (r.pos - start))

let rec parse_value r =
  skip_ws r;
  match peek r with
  | None -> fail r "unexpected end of input"
  | Some 'n' -> literal r "null" Null
  | Some 't' -> literal r "true" (Bool true)
  | Some 'f' -> literal r "false" (Bool false)
  | Some '"' -> Str (parse_string r)
  | Some '[' ->
      advance r;
      skip_ws r;
      if peek r = Some ']' then begin
        advance r;
        Arr []
      end
      else
        let rec items acc =
          let v = parse_value r in
          skip_ws r;
          match peek r with
          | Some ',' ->
              advance r;
              items (v :: acc)
          | Some ']' ->
              advance r;
              List.rev (v :: acc)
          | _ -> fail r "expected ',' or ']'"
        in
        Arr (items [])
  | Some '{' ->
      advance r;
      skip_ws r;
      if peek r = Some '}' then begin
        advance r;
        Obj []
      end
      else
        let field () =
          skip_ws r;
          let k = parse_string r in
          skip_ws r;
          expect r ':';
          let v = parse_value r in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws r;
          match peek r with
          | Some ',' ->
              advance r;
              fields (kv :: acc)
          | Some '}' ->
              advance r;
              List.rev (kv :: acc)
          | _ -> fail r "expected ',' or '}'"
        in
        Obj (fields [])
  | Some ('-' | '0' .. '9') -> Int (parse_int r)
  | Some c -> fail r (Printf.sprintf "unexpected character %c" c)

let of_string s : t =
  let r = { src = s; pos = 0 } in
  let v = parse_value r in
  skip_ws r;
  if r.pos <> String.length s then fail r "trailing garbage";
  v

(* ----------------------------- accessors ----------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int_exn = function
  | Int n -> n
  | _ -> raise (Parse_error "expected integer")

let to_str_exn = function
  | Str s -> s
  | _ -> raise (Parse_error "expected string")

let to_list_exn = function
  | Arr l -> l
  | _ -> raise (Parse_error "expected array")

(* -------------------------- schema versioning ------------------------- *)

(** The major version stamped as a top-level ["schema_version"] on every
    JSON document the tools emit (findings, traces, analyze
    summaries).  Bump on any incompatible shape change. *)
let current_schema_version = 1

let schema_version v =
  match member "schema_version" v with Some (Int n) -> Some n | _ -> None

(** [check_schema_version v] validates a document's version stamp against
    [expected] (default {!current_schema_version}): missing or unknown
    versions are [Error] with a message naming the mismatch, so parsers
    reject documents from an incompatible writer instead of misreading
    them. *)
let check_schema_version ?(expected = current_schema_version) v =
  match schema_version v with
  | None -> Stdlib.Error "missing schema_version"
  | Some n when n = expected -> Ok n
  | Some n ->
      Stdlib.Error
        (Printf.sprintf "unsupported schema_version %d (this tool reads version %d)"
           n expected)

(** The payloads of a versioned JSONL journal: every line shaped
    [{"schema_version": version, key: payload}] yields its [payload], in
    file order.  Blank lines, lines that do not parse (the torn last line
    a SIGKILL mid-append leaves) and lines stamped with another version
    or lacking [key] are skipped. *)
let journal_payloads ~version ~key contents =
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        match of_string line with
        | exception Parse_error _ -> None
        | j -> (
            match (schema_version j, member key j) with
            | Some v, Some payload when v = version -> Some payload
            | _ -> None))
    (String.split_on_char '\n' contents)
