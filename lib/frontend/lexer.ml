(** Hand-written lexer for MiniJava.  Supports [//] line comments and
    [/* ... */] block comments (non-nesting, as in Java).

    The source is read by index: scanning allocates nothing per character,
    and per token only the payload of an [IDENT] or [INT]. *)

type pos = { line : int; col : int }

let pp_pos ppf p = Format.fprintf ppf "%d:%d" p.line p.col

exception Error of string * pos

type t = {
  src : string;
  len : int;
  mutable off : int;
  mutable line : int;
  mutable bol : int;  (** offset of the beginning of the current line *)
  mutable tok_line : int;  (** line of the token last returned by [scan] *)
  mutable tok_col : int;  (** column of the token last returned by [scan] *)
}

let create src =
  { src; len = String.length src; off = 0; line = 1; bol = 0; tok_line = 1; tok_col = 1 }

let pos lx = { line = lx.line; col = lx.off - lx.bol + 1 }
let errorf lx fmt = Format.kasprintf (fun s -> raise (Error (s, pos lx))) fmt
let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

(* [lx.src.[lx.off + k]], or ['\000'] past the end (NUL is not a legal
   source character anywhere it is tested for) *)
let char_at lx k = if lx.off + k < lx.len then String.unsafe_get lx.src (lx.off + k) else '\000'

let newline lx =
  lx.line <- lx.line + 1;
  lx.bol <- lx.off + 1

let rec skip_ws lx =
  if lx.off < lx.len then
    match String.unsafe_get lx.src lx.off with
    | ' ' | '\t' | '\r' ->
        lx.off <- lx.off + 1;
        skip_ws lx
    | '\n' ->
        newline lx;
        lx.off <- lx.off + 1;
        skip_ws lx
    | '/' when char_at lx 1 = '/' ->
        while lx.off < lx.len && String.unsafe_get lx.src lx.off <> '\n' do
          lx.off <- lx.off + 1
        done;
        skip_ws lx
    | '/' when char_at lx 1 = '*' ->
        lx.off <- lx.off + 2;
        while not (char_at lx 0 = '*' && char_at lx 1 = '/') do
          if lx.off >= lx.len then errorf lx "unterminated block comment";
          if String.unsafe_get lx.src lx.off = '\n' then newline lx;
          lx.off <- lx.off + 1
        done;
        lx.off <- lx.off + 2;
        skip_ws lx
    | _ -> ()

(** [scan lx] returns the next token and records the position of its first
    character in [lx.tok_line] / [lx.tok_col]. *)
let scan lx : Token.t =
  skip_ws lx;
  lx.tok_line <- lx.line;
  lx.tok_col <- lx.off - lx.bol + 1;
  if lx.off >= lx.len then Token.EOF
  else
    let c = String.unsafe_get lx.src lx.off in
    if is_digit c then begin
      let start = lx.off in
      while lx.off < lx.len && is_digit (String.unsafe_get lx.src lx.off) do
        lx.off <- lx.off + 1
      done;
      let s = String.sub lx.src start (lx.off - start) in
      match int_of_string_opt s with
      | Some n -> Token.INT n
      | None -> errorf lx "integer literal out of range: %s" s
    end
    else if is_ident_start c then begin
      let start = lx.off in
      while lx.off < lx.len && is_ident_char (String.unsafe_get lx.src lx.off) do
        lx.off <- lx.off + 1
      done;
      Token.of_word (String.sub lx.src start (lx.off - start))
    end
    else
      let two tok = lx.off <- lx.off + 2; tok in
      let one tok = lx.off <- lx.off + 1; tok in
      match (c, char_at lx 1) with
      | '=', '=' -> two Token.EQ
      | '=', _ -> one Token.ASSIGN
      | '!', '=' -> two Token.NE
      | '!', _ -> one Token.BANG
      | '<', '=' -> two Token.LE
      | '<', _ -> one Token.LT
      | '>', '=' -> two Token.GE
      | '>', _ -> one Token.GT
      | '&', '&' -> two Token.ANDAND
      | '|', '|' -> two Token.OROR
      | '{', _ -> one Token.LBRACE
      | '}', _ -> one Token.RBRACE
      | '(', _ -> one Token.LPAREN
      | ')', _ -> one Token.RPAREN
      | '[', _ -> one Token.LBRACKET
      | ']', _ -> one Token.RBRACKET
      | ';', _ -> one Token.SEMI
      | ',', _ -> one Token.COMMA
      | '.', _ -> one Token.DOT
      | '+', _ -> one Token.PLUS
      | '-', _ -> one Token.MINUS
      | '*', _ -> one Token.STAR
      | '/', _ -> one Token.SLASH
      | '%', _ -> one Token.PERCENT
      | _ -> errorf lx "unexpected character %C" c

(** [next lx] returns the next token with the position of its first
    character. *)
let next lx : Token.t * pos =
  let tok = scan lx in
  (tok, { line = lx.tok_line; col = lx.tok_col })

(** A whole input's tokens as parallel arrays: entry [i] of [toks],
    [lines] and [cols] is the [i]th token and its position.  Only the
    first [count] entries are meaningful; the last of them is [EOF]. *)
type tokens = {
  mutable toks : Token.t array;
  mutable lines : int array;
  mutable cols : int array;
  mutable count : int;
}

let pos_at (b : tokens) i = { line = b.lines.(i); col = b.cols.(i) }

let grow b =
  let cap = 2 * Array.length b.toks in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 b.count;
    a'
  in
  b.toks <- extend b.toks Token.EOF;
  b.lines <- extend b.lines 0;
  b.cols <- extend b.cols 0

(** [tokenize src] scans the whole input eagerly, so a lexical error is
    raised before any token is consumed.
    @raise Error on the first lexical error. *)
let tokenize src : tokens =
  let lx = create src in
  let cap = 16 + (String.length src / 8) in
  let b =
    { toks = Array.make cap Token.EOF; lines = Array.make cap 0; cols = Array.make cap 0; count = 0 }
  in
  let rec go () =
    let tok = scan lx in
    if b.count = Array.length b.toks then grow b;
    b.toks.(b.count) <- tok;
    b.lines.(b.count) <- lx.tok_line;
    b.cols.(b.count) <- lx.tok_col;
    b.count <- b.count + 1;
    match tok with Token.EOF -> () | _ -> go ()
  in
  go ();
  b
