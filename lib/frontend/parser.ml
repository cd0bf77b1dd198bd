(** Recursive-descent parser for MiniJava.

    Operator precedence, loosest to tightest:
    [||] < [&&] < [== !=] < [< <= > >= instanceof] < [+ -] < [* / %]
    < unary [! -] < postfix [.field], [.m(args)].

    Statement-level ambiguity between declarations using class types
    ([C x = ...;]) and expression statements is resolved with one token of
    lookahead after an identifier. *)

exception Error of string * Lexer.pos

type t = {
  buf : Lexer.tokens;
  mutable i : int;
  mutable recovering : bool;
      (** accumulate diagnostics and resynchronize instead of raising out
          of the statement / member / class loops *)
  mutable diags : Diag.t list;  (** newest first *)
}

let of_string src = { buf = Lexer.tokenize src; i = 0; recovering = false; diags = [] }
let peekn p n = if p.i + n < p.buf.Lexer.count then p.buf.Lexer.toks.(p.i + n) else Token.EOF
let peek p = p.buf.Lexer.toks.(p.i)
let peek2 p = peekn p 1
let pos p = Lexer.pos_at p.buf p.i
let errorf p fmt = Format.kasprintf (fun s -> raise (Error (s, pos p))) fmt

let advance p = if p.i + 1 < p.buf.Lexer.count then p.i <- p.i + 1

let eat p tok =
  if peek p = tok then advance p
  else errorf p "expected '%s' but found '%s'" (Token.to_string tok) (Token.to_string (peek p))

let ident p =
  match peek p with
  | Token.IDENT s ->
      advance p;
      s
  | t -> errorf p "expected identifier but found '%s'" (Token.to_string t)

let rec with_array_suffix p base =
  if peek p = Token.LBRACKET && peek2 p = Token.RBRACKET then begin
    advance p;
    advance p;
    with_array_suffix p (Ast.Tarr base)
  end
  else base

let parse_ty p : Ast.ty =
  let base =
    match peek p with
    | Token.KW_INT ->
        advance p;
        Ast.Tint
    | Token.KW_BOOLEAN ->
        advance p;
        Ast.Tbool
    | Token.KW_VOID ->
        advance p;
        Ast.Tvoid
    | Token.IDENT s ->
        advance p;
        Ast.Tclass s
    | t -> errorf p "expected a type but found '%s'" (Token.to_string t)
  in
  with_array_suffix p base

let is_ty_start = function
  | Token.KW_INT | Token.KW_BOOLEAN | Token.KW_VOID | Token.IDENT _ -> true
  | _ -> false

(* ------------------------------ recovery ------------------------------- *)

let record ?hint p msg epos = p.diags <- Diag.error ?hint ~stage:Diag.Syntax epos "%s" msg :: p.diags

(** Skip to a statement boundary: consume through the next [;] at brace
    depth 0, or stop (without consuming) before a [}] / EOF that closes
    the enclosing block.  Tracking the depth keeps a malformed statement
    containing nested blocks from desynchronizing the whole method. *)
let sync_stmt p =
  let rec go depth =
    match peek p with
    | Token.EOF -> ()
    | Token.SEMI when depth = 0 -> advance p
    | Token.RBRACE when depth = 0 -> ()
    | Token.LBRACE ->
        advance p;
        go (depth + 1)
    | Token.RBRACE ->
        advance p;
        go (depth - 1)
    | _ ->
        advance p;
        go depth
  in
  go 0

(** Skip to a member boundary: past the next [;] or balanced [{...}] body
    at depth 0, stopping before a [}] closing the class or a following
    class declaration (a missing closing brace). *)
let sync_member p =
  let rec go depth =
    match peek p with
    | Token.EOF -> ()
    | (Token.RBRACE | Token.KW_CLASS | Token.KW_ABSTRACT) when depth = 0 -> ()
    | Token.SEMI when depth = 0 -> advance p
    | Token.LBRACE ->
        advance p;
        go (depth + 1)
    | Token.RBRACE ->
        advance p;
        go (depth - 1)
    | _ ->
        advance p;
        go depth
  in
  go 0

(** Skip to the next top-level class declaration. *)
let sync_class p =
  let rec go () =
    match peek p with
    | Token.EOF | Token.KW_CLASS | Token.KW_ABSTRACT -> ()
    | _ ->
        advance p;
        go ()
  in
  go ()

(* ------------------------------ expressions --------------------------- *)

let rec parse_expr p : Ast.expr = parse_or p

and parse_or p =
  let lhs = ref (parse_and p) in
  while peek p = Token.OROR do
    let ps = pos p in
    advance p;
    let rhs = parse_and p in
    lhs := { Ast.e = Ast.Binop (Ast.Or, !lhs, rhs); pos = ps }
  done;
  !lhs

and parse_and p =
  let lhs = ref (parse_eq p) in
  while peek p = Token.ANDAND do
    let ps = pos p in
    advance p;
    let rhs = parse_eq p in
    lhs := { Ast.e = Ast.Binop (Ast.And, !lhs, rhs); pos = ps }
  done;
  !lhs

and parse_eq p =
  let lhs = parse_rel p in
  match peek p with
  | Token.EQ ->
      let ps = pos p in
      advance p;
      let rhs = parse_rel p in
      { Ast.e = Ast.Binop (Ast.Eq, lhs, rhs); pos = ps }
  | Token.NE ->
      let ps = pos p in
      advance p;
      let rhs = parse_rel p in
      { Ast.e = Ast.Binop (Ast.Ne, lhs, rhs); pos = ps }
  | _ -> lhs

and parse_rel p =
  let lhs = parse_add p in
  let bin op =
    let ps = pos p in
    advance p;
    let rhs = parse_add p in
    { Ast.e = Ast.Binop (op, lhs, rhs); pos = ps }
  in
  match peek p with
  | Token.LT -> bin Ast.Lt
  | Token.LE -> bin Ast.Le
  | Token.GT -> bin Ast.Gt
  | Token.GE -> bin Ast.Ge
  | Token.KW_INSTANCEOF ->
      let ps = pos p in
      advance p;
      let cname = ident p in
      { Ast.e = Ast.InstanceOf (lhs, cname); pos = ps }
  | _ -> lhs

and parse_add p =
  let lhs = ref (parse_mul p) in
  let rec go () =
    match peek p with
    | Token.PLUS | Token.MINUS ->
        let op = if peek p = Token.PLUS then Ast.Add else Ast.Sub in
        let ps = pos p in
        advance p;
        let rhs = parse_mul p in
        lhs := { Ast.e = Ast.Binop (op, !lhs, rhs); pos = ps };
        go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_mul p =
  let lhs = ref (parse_unary p) in
  let rec go () =
    match peek p with
    | Token.STAR | Token.SLASH | Token.PERCENT ->
        let op =
          match peek p with
          | Token.STAR -> Ast.Mul
          | Token.SLASH -> Ast.Div
          | _ -> Ast.Rem
        in
        let ps = pos p in
        advance p;
        let rhs = parse_unary p in
        lhs := { Ast.e = Ast.Binop (op, !lhs, rhs); pos = ps };
        go ()
    | _ -> ()
  in
  go ();
  !lhs

(* '(' TYPE ('[' ']')* ')' followed by an expression-start token is a
   cast; anything else starting with '(' is a parenthesized expression *)
and looks_like_cast p =
  peek p = Token.LPAREN
  && (match peek2 p with Token.IDENT _ -> true | _ -> false)
  &&
  let rec after_brackets n =
    if peekn p n = Token.LBRACKET && peekn p (n + 1) = Token.RBRACKET then
      after_brackets (n + 2)
    else n
  in
  let n = after_brackets 2 in
  peekn p n = Token.RPAREN
  &&
  match peekn p (n + 1) with
  | Token.IDENT _ | Token.KW_THIS | Token.KW_NEW | Token.KW_NULL | Token.LPAREN -> true
  | _ -> false

and parse_unary p =
  match peek p with
  | Token.LPAREN when looks_like_cast p ->
      let ps = pos p in
      advance p;
      let ty = parse_ty p in
      eat p Token.RPAREN;
      let e = parse_unary p in
      { Ast.e = Ast.Cast (ty, e); pos = ps }
  | Token.BANG ->
      let ps = pos p in
      advance p;
      { Ast.e = Ast.Not (parse_unary p); pos = ps }
  | Token.MINUS -> (
      let ps = pos p in
      advance p;
      let e = parse_unary p in
      (* fold unary minus on literals so that negative constants stay
         precise in the analysis *)
      match e.Ast.e with
      | Ast.Int n -> { Ast.e = Ast.Int (-n); pos = ps }
      | _ -> { Ast.e = Ast.Neg e; pos = ps })
  | _ -> parse_postfix p

and parse_postfix p =
  let e = ref (parse_primary p) in
  let rec go () =
    if peek p = Token.DOT then begin
      let ps = pos p in
      advance p;
      let name = ident p in
      if peek p = Token.LPAREN then begin
        let args = parse_args p in
        e := { Ast.e = Ast.Call (Some !e, name, args); pos = ps }
      end
      else e := { Ast.e = Ast.FieldGet (!e, name); pos = ps };
      go ()
    end
    else if peek p = Token.LBRACKET && peek2 p <> Token.RBRACKET then begin
      let ps = pos p in
      advance p;
      let idx = parse_expr p in
      eat p Token.RBRACKET;
      e := { Ast.e = Ast.Index (!e, idx); pos = ps };
      go ()
    end
  in
  go ();
  !e

and parse_args p =
  eat p Token.LPAREN;
  if peek p = Token.RPAREN then begin
    advance p;
    []
  end
  else begin
    let rec go acc =
      let e = parse_expr p in
      if peek p = Token.COMMA then begin
        advance p;
        go (e :: acc)
      end
      else begin
        eat p Token.RPAREN;
        List.rev (e :: acc)
      end
    in
    go []
  end

and parse_primary p =
  let ps = pos p in
  match peek p with
  | Token.INT n ->
      advance p;
      { Ast.e = Ast.Int n; pos = ps }
  | Token.KW_TRUE ->
      advance p;
      { Ast.e = Ast.Bool true; pos = ps }
  | Token.KW_FALSE ->
      advance p;
      { Ast.e = Ast.Bool false; pos = ps }
  | Token.KW_NULL ->
      advance p;
      { Ast.e = Ast.Null; pos = ps }
  | Token.KW_THIS ->
      advance p;
      { Ast.e = Ast.This; pos = ps }
  | Token.KW_NEW -> (
      advance p;
      let base =
        match peek p with
        | Token.KW_INT ->
            advance p;
            `Ty Ast.Tint
        | Token.KW_BOOLEAN ->
            advance p;
            `Ty Ast.Tbool
        | Token.IDENT s ->
            advance p;
            `Cls s
        | t -> errorf p "expected a type after 'new' but found '%s'" (Token.to_string t)
      in
      match (base, peek p) with
      | `Cls cname, Token.LPAREN ->
          eat p Token.LPAREN;
          eat p Token.RPAREN;
          { Ast.e = Ast.New cname; pos = ps }
      | _, Token.LBRACKET ->
          advance p;
          let len = parse_expr p in
          eat p Token.RBRACKET;
          (* 'new T[n][]...' allocates an array of arrays *)
          let elem = match base with `Ty t -> t | `Cls c -> Ast.Tclass c in
          let elem = with_array_suffix p elem in
          { Ast.e = Ast.NewArr (elem, len); pos = ps }
      | `Cls _, t | `Ty _, t ->
          errorf p "expected '(' or '[' after 'new' but found '%s'" (Token.to_string t))
  | Token.LPAREN ->
      advance p;
      let e = parse_expr p in
      eat p Token.RPAREN;
      e
  | Token.IDENT name ->
      advance p;
      if peek p = Token.LPAREN then
        let args = parse_args p in
        { Ast.e = Ast.Call (None, name, args); pos = ps }
      else { Ast.e = Ast.Ident name; pos = ps }
  | t -> errorf p "expected an expression but found '%s'" (Token.to_string t)

(* ------------------------------ statements ---------------------------- *)

let rec parse_block p : Ast.stmt list =
  eat p Token.LBRACE;
  let rec go acc =
    if peek p = Token.RBRACE then begin
      advance p;
      List.rev acc
    end
    else if p.recovering && peek p = Token.EOF then begin
      record p "expected '}' before end of input" (pos p);
      List.rev acc
    end
    else
      match parse_stmt p with
      | s -> go (s :: acc)
      | exception Error (msg, epos) when p.recovering ->
          record p msg epos;
          sync_stmt p;
          go acc
  in
  go []

and parse_stmt p : Ast.stmt =
  let ps = pos p in
  match peek p with
  | Token.LBRACE -> { Ast.s = Ast.Block (parse_block p); spos = ps }
  | Token.KW_IF ->
      advance p;
      eat p Token.LPAREN;
      let c = parse_expr p in
      eat p Token.RPAREN;
      let thn = parse_block p in
      let els =
        if peek p = Token.KW_ELSE then begin
          advance p;
          if peek p = Token.KW_IF then [ parse_stmt p ] else parse_block p
        end
        else []
      in
      { Ast.s = Ast.If (c, thn, els); spos = ps }
  | Token.KW_WHILE ->
      advance p;
      eat p Token.LPAREN;
      let c = parse_expr p in
      eat p Token.RPAREN;
      let body = parse_block p in
      { Ast.s = Ast.While (c, body); spos = ps }
  | Token.KW_THROW ->
      advance p;
      let e = parse_expr p in
      eat p Token.SEMI;
      { Ast.s = Ast.Throw e; spos = ps }
  | Token.KW_RETURN ->
      advance p;
      if peek p = Token.SEMI then begin
        advance p;
        { Ast.s = Ast.Return None; spos = ps }
      end
      else begin
        let e = parse_expr p in
        eat p Token.SEMI;
        { Ast.s = Ast.Return (Some e); spos = ps }
      end
  | Token.KW_VAR ->
      (* explicit 'var <type> x [= e];' declaration *)
      advance p;
      parse_decl p ps
  | Token.KW_INT | Token.KW_BOOLEAN -> parse_decl p ps
  | Token.IDENT _ when (match peek2 p with Token.IDENT _ -> true | _ -> false) ->
      (* 'C x ...' is a declaration with a class type *)
      parse_decl p ps
  | Token.IDENT _
    when peek2 p = Token.LBRACKET
         && peekn p 2 = Token.RBRACKET ->
      (* 'C[] x ...' or 'C[][] x ...' is a declaration with an array type *)
      parse_decl p ps
  | _ -> (
      (* assignment or expression statement *)
      let e = parse_expr p in
      match (e.Ast.e, peek p) with
      | Ast.Ident name, Token.ASSIGN ->
          advance p;
          let rhs = parse_expr p in
          eat p Token.SEMI;
          { Ast.s = Ast.AssignLocal (name, rhs); spos = ps }
      | Ast.FieldGet (recv, fname), Token.ASSIGN ->
          advance p;
          let rhs = parse_expr p in
          eat p Token.SEMI;
          { Ast.s = Ast.AssignField (recv, fname, rhs); spos = ps }
      | Ast.Index (arr, idx), Token.ASSIGN ->
          advance p;
          let rhs = parse_expr p in
          eat p Token.SEMI;
          { Ast.s = Ast.AssignIndex (arr, idx, rhs); spos = ps }
      | _, Token.ASSIGN -> errorf p "invalid assignment target"
      | _ ->
          eat p Token.SEMI;
          { Ast.s = Ast.ExprStmt e; spos = ps })

and parse_decl p ps =
  let ty = parse_ty p in
  let name = ident p in
  let init =
    if peek p = Token.ASSIGN then begin
      advance p;
      Some (parse_expr p)
    end
    else None
  in
  eat p Token.SEMI;
  { Ast.s = Ast.LocalDecl (ty, name, init); spos = ps }

(* ------------------------------ declarations -------------------------- *)

let parse_member p : [ `Field of Ast.field_decl | `Meth of Ast.meth_decl ] =
  let ps = pos p in
  if peek p = Token.KW_VAR then begin
    advance p;
    let ty = parse_ty p in
    let name = ident p in
    eat p Token.SEMI;
    `Field { Ast.fd_ty = ty; fd_name = name; fd_static = false; fd_pos = ps }
  end
  else if peek p = Token.KW_STATIC && peek2 p = Token.KW_VAR then begin
    advance p;
    advance p;
    let ty = parse_ty p in
    let name = ident p in
    eat p Token.SEMI;
    `Field { Ast.fd_ty = ty; fd_name = name; fd_static = true; fd_pos = ps }
  end
  else begin
    let static = peek p = Token.KW_STATIC in
    if static then advance p;
    let ty = parse_ty p in
    let name = ident p in
    if peek p = Token.LPAREN then begin
      eat p Token.LPAREN;
      let params =
        if peek p = Token.RPAREN then begin
          advance p;
          []
        end
        else begin
          let rec go acc =
            let pty = parse_ty p in
            let pname = ident p in
            if peek p = Token.COMMA then begin
              advance p;
              go ((pty, pname) :: acc)
            end
            else begin
              eat p Token.RPAREN;
              List.rev ((pty, pname) :: acc)
            end
          in
          go []
        end
      in
      let body = parse_block p in
      `Meth
        {
          Ast.md_name = name;
          md_static = static;
          md_params = params;
          md_ret = ty;
          md_body = body;
          md_pos = ps;
        }
    end
    else begin
      (* field without the 'var' keyword: '<type> name;' *)
      if static then errorf p "static fields use 'static var T x;'";
      eat p Token.SEMI;
      `Field { Ast.fd_ty = ty; fd_name = name; fd_static = false; fd_pos = ps }
    end
  end

let parse_class p : Ast.class_decl =
  let ps = pos p in
  let abstract = peek p = Token.KW_ABSTRACT in
  if abstract then advance p;
  eat p Token.KW_CLASS;
  let name = ident p in
  let super =
    if peek p = Token.KW_EXTENDS then begin
      advance p;
      Some (ident p)
    end
    else None
  in
  eat p Token.LBRACE;
  let fields = ref [] and meths = ref [] in
  let rec go () =
    if peek p = Token.RBRACE then advance p
    else if
      p.recovering
      && match peek p with
         | Token.EOF | Token.KW_CLASS | Token.KW_ABSTRACT -> true
         | _ -> false
    then
      (* unterminated class body: report once and resume at the next
         class declaration (or stop at end of input) *)
      record p
        (Format.asprintf "expected '}' to close class %s but found '%s'" name
           (Token.to_string (peek p)))
        (pos p)
    else
      match parse_member p with
      | `Field f ->
          fields := f :: !fields;
          go ()
      | `Meth m ->
          meths := m :: !meths;
          go ()
      | exception Error (msg, epos) when p.recovering ->
          record p msg epos;
          sync_member p;
          go ()
  in
  go ();
  {
    Ast.cd_name = name;
    cd_super = super;
    cd_abstract = abstract;
    cd_fields = List.rev !fields;
    cd_meths = List.rev !meths;
    cd_pos = ps;
  }

(** Parse a whole program from source text, stopping at the first error. *)
let parse_program src : Ast.program =
  let p = of_string src in
  let rec go acc =
    match peek p with
    | Token.EOF -> List.rev acc
    | Token.KW_CLASS | Token.KW_ABSTRACT -> go (parse_class p :: acc)
    | t -> errorf p "expected a class declaration but found '%s'" (Token.to_string t)
  in
  go []

(** Parse with error recovery: malformed statements resynchronize at the
    next [;] / [}], malformed members at the next member boundary, and
    malformed classes at the next [class] keyword, so a single run reports
    every independent syntax error.  Returns the classes that did parse
    together with the accumulated diagnostics (empty = clean parse; a
    lexical error fails fast with a single diagnostic because the token
    stream ends there). *)
let parse_program_diags src : Ast.program * Diag.t list =
  match of_string src with
  | exception Lexer.Error (msg, epos) ->
      ([], [ Diag.error ~stage:Diag.Lexical epos "%s" msg ])
  | p ->
      p.recovering <- true;
      let rec go acc =
        match peek p with
        | Token.EOF -> List.rev acc
        | Token.KW_CLASS | Token.KW_ABSTRACT -> (
            match parse_class p with
            | c -> go (c :: acc)
            | exception Error (msg, epos) ->
                record p msg epos;
                sync_class p;
                go acc)
        | t ->
            record p
              (Format.asprintf "expected a class declaration but found '%s'"
                 (Token.to_string t))
              (pos p);
            advance p;
            sync_class p;
            go acc
      in
      let classes = go [] in
      (classes, List.rev p.diags)

let _ = is_ty_start (* exported for tests *)
