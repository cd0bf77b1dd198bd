(* Lexer unit tests. *)

module L = Skipflow_frontend.Lexer
module T = Skipflow_frontend.Token
module P = Skipflow_frontend.Parser
module W = Skipflow_workloads

(* the token buffer as a list of (token, position) pairs, EOF included *)
let lexed src =
  let b = L.tokenize src in
  List.init b.L.count (fun i -> (b.L.toks.(i), L.pos_at b i))

let toks src = List.map fst (lexed src) |> List.filter (fun t -> t <> T.EOF)

let tok = Alcotest.testable (fun ppf t -> Format.pp_print_string ppf (T.to_string t)) ( = )

let test_keywords_and_idents () =
  Alcotest.(check (list tok)) "keywords"
    [ T.KW_CLASS; T.IDENT "Foo"; T.KW_EXTENDS; T.IDENT "Bar" ]
    (toks "class Foo extends Bar");
  Alcotest.(check (list tok)) "ident with keyword prefix"
    [ T.IDENT "classy"; T.IDENT "newt"; T.IDENT "nullx" ]
    (toks "classy newt nullx")

let test_numbers () =
  Alcotest.(check (list tok)) "ints" [ T.INT 0; T.INT 42; T.INT 1234567 ]
    (toks "0 42 1234567")

let test_operators () =
  Alcotest.(check (list tok)) "all operators"
    [
      T.EQ; T.NE; T.LE; T.GE; T.LT; T.GT; T.ASSIGN; T.BANG; T.ANDAND; T.OROR;
      T.PLUS; T.MINUS; T.STAR; T.SLASH; T.PERCENT;
    ]
    (toks "== != <= >= < > = ! && || + - * / %");
  Alcotest.(check (list tok)) "adjacent" [ T.IDENT "a"; T.EQ; T.MINUS; T.INT 1 ]
    (toks "a==-1")

let test_comments () =
  Alcotest.(check (list tok)) "line comment" [ T.INT 1; T.INT 2 ]
    (toks "1 // comment with class if else\n2");
  Alcotest.(check (list tok)) "block comment" [ T.INT 1; T.INT 2 ]
    (toks "1 /* multi\nline * stuff */ 2");
  Alcotest.(check (list tok)) "block comment with stars" [ T.INT 3 ]
    (toks "/* ** * ** */ 3")

let test_positions () =
  let all = lexed "ab\n  cd" in
  match all with
  | [ (_, p1); (_, p2); _eof ] ->
      Alcotest.(check int) "line 1" 1 p1.L.line;
      Alcotest.(check int) "col 1" 1 p1.L.col;
      Alcotest.(check int) "line 2" 2 p2.L.line;
      Alcotest.(check int) "col 3" 3 p2.L.col
  | _ -> Alcotest.fail "unexpected token count"

let pos_t = Alcotest.testable L.pp_pos ( = )

(* positions of the non-EOF tokens of [src] *)
let positions src =
  lexed src |> List.filter (fun (t, _) -> t <> T.EOF) |> List.map snd

let at line col = { L.line; col }

let test_positions_after_comments () =
  Alcotest.(check (list pos_t)) "after a multi-line block comment"
    [ at 1 1; at 3 5; at 3 7 ]
    (positions "a/* one\ntwo\n */ b c");
  Alcotest.(check (list pos_t)) "after a line comment" [ at 1 1; at 2 3 ]
    (positions "a // c = d;\n  b");
  Alcotest.(check (list pos_t)) "line comment at end of input" [ at 1 1 ]
    (positions "a // no newline")

let test_positions_crlf_and_tabs () =
  (* '\r' is whitespace that takes a column; only '\n' starts a line *)
  Alcotest.(check (list pos_t)) "CRLF line endings" [ at 1 1; at 2 1; at 3 3 ]
    (positions "a\r\nb\r\n  c\r\n");
  (* a tab counts as one column *)
  Alcotest.(check (list pos_t)) "tabs" [ at 1 2; at 1 5; at 2 2 ]
    (positions "\tx\t\ty\n\tz");
  match L.tokenize "1 /* open\n  x" with
  | exception L.Error (_, p) -> Alcotest.check pos_t "unterminated comment at end" (at 2 4) p
  | _ -> Alcotest.fail "expected a lexical error"

(* The parser's eager buffer must hold exactly what successive [Lexer.next]
   calls stream, position for position. *)
let check_parity name src =
  let b = (P.of_string src).P.buf in
  let lx = L.create src in
  for i = 0 to b.L.count - 1 do
    let tok, p = L.next lx in
    if tok <> b.L.toks.(i) || p <> L.pos_at b i then
      Alcotest.failf "%s: token %d is %s at %a in the buffer, %s at %a streamed" name i
        (T.to_string b.L.toks.(i)) L.pp_pos (L.pos_at b i) (T.to_string tok) L.pp_pos p
  done;
  Alcotest.(check bool) (name ^ ": buffer ends in EOF") true (b.L.toks.(b.L.count - 1) = T.EOF)

let test_buffer_parity () =
  check_parity "mixed"
    "class A { /* c\r\n */ int f(int x) {\treturn x<=1 // t\n ; } }\r\n";
  List.iter
    (fun seed ->
      let src =
        Skipflow_frontend.Ast_pp.to_string
          (W.Gen_random.generate (Skipflow_fuzz.Fuzz.cfg_of_seed seed))
      in
      check_parity (Printf.sprintf "fuzz seed %d" seed) src)
    (List.init 25 Fun.id);
  let sunflow = Option.get (W.Suites.find "sunflow") in
  check_parity "sunflow" (W.Gen.source (W.Suites.params_of ~scale:0.01 sunflow))

let test_errors () =
  let fails src =
    match L.tokenize src with
    | exception L.Error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "bad char" true (fails "a # b");
  Alcotest.(check bool) "unterminated block comment" true (fails "1 /* never closed");
  Alcotest.(check bool) "lone pipe" true (fails "a | b");
  Alcotest.(check bool) "lone ampersand" true (fails "a & b")

let test_eof () =
  Alcotest.(check (list tok)) "empty input" [] (toks "");
  Alcotest.(check (list tok)) "whitespace only" [] (toks "  \n\t  ")

let suite =
  ( "lexer",
    [
      Alcotest.test_case "keywords and idents" `Quick test_keywords_and_idents;
      Alcotest.test_case "numbers" `Quick test_numbers;
      Alcotest.test_case "operators" `Quick test_operators;
      Alcotest.test_case "comments" `Quick test_comments;
      Alcotest.test_case "positions" `Quick test_positions;
      Alcotest.test_case "positions after comments" `Quick test_positions_after_comments;
      Alcotest.test_case "positions with CRLF and tabs" `Quick test_positions_crlf_and_tabs;
      Alcotest.test_case "buffer matches streamed tokens" `Quick test_buffer_parity;
      Alcotest.test_case "errors" `Quick test_errors;
      Alcotest.test_case "eof" `Quick test_eof;
    ] )
