(* Tests for the IR validator and dominance computation: accepted bodies
   stay accepted, hand-broken bodies are rejected with the right message. *)

open Skipflow_ir
module B = Ssa_builder

(* a valid diamond body to mutate *)
let mk_body () =
  let b = B.create ~params:[ ("x", Ty.Int) ] in
  let e = B.entry_block b in
  let x = B.read_var b e "x" ~ty:Ty.Int in
  let l1 = B.label_block b and l2 = B.label_block b in
  let m = B.merge_block b in
  B.terminate b e (Bl.If { cond = Bl.Cmp (`Eq, x, x); then_ = l1.Bl.b_id; else_ = l2.Bl.b_id });
  B.write_var b l1 "y" (B.const b l1 1);
  B.terminate b l1 (Bl.Jump m.Bl.b_id);
  B.write_var b l2 "y" (B.const b l2 2);
  B.terminate b l2 (Bl.Jump m.Bl.b_id);
  B.seal b m;
  let y = B.read_var b m "y" ~ty:Ty.Int in
  B.terminate b m (Bl.Return (Some y));
  B.finish b

(* substring check without extra deps *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let rejects msg_part body =
  match Validate.check body with
  | Ok () -> Alcotest.failf "expected rejection mentioning %S" msg_part
  | Error msg ->
      if not (contains msg msg_part) then
        Alcotest.failf "error %S does not mention %S" msg msg_part

let test_valid_accepted () =
  match Validate.check (mk_body ()) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "valid body rejected: %s" m

let test_double_definition () =
  let body = mk_body () in
  (* duplicate the first instruction of block l1 (defines the same var twice) *)
  let blk = body.Bl.blocks.(1) in
  blk.Bl.b_insns <- blk.Bl.b_insns @ blk.Bl.b_insns;
  rejects "defined twice" body

let test_missing_terminator () =
  let body = mk_body () in
  body.Bl.blocks.(1).Bl.b_term <- None;
  rejects "no terminator" body

let test_phi_arity () =
  let body = mk_body () in
  let m = body.Bl.blocks.(3) in
  (match m.Bl.b_phis with
  | phi :: _ -> phi.Bl.phi_args <- [ List.hd phi.Bl.phi_args ]
  | [] -> Alcotest.fail "expected a phi");
  rejects "predecessors" body

let test_phi_on_label_block () =
  let body = mk_body () in
  let l1 = body.Bl.blocks.(1) in
  l1.Bl.b_phis <- [ { Bl.phi_var = Ids.Var.of_int 0; phi_args = [] } ];
  rejects "contains phis" body

let test_use_before_def_in_block () =
  (* v <- v + 1 before v is defined *)
  let body = mk_body () in
  let e = body.Bl.blocks.(0) in
  (* use a variable defined only in l1 (block 1) from the entry *)
  let l1 = body.Bl.blocks.(1) in
  let defined_in_l1 =
    List.concat_map Bl.insn_defs l1.Bl.b_insns |> List.hd
  in
  e.Bl.b_insns <-
    e.Bl.b_insns @ [ Bl.Store { recv = defined_in_l1; field = Ids.Field.of_int 0; src = defined_in_l1 } ];
  rejects "dominated" body

(* The remaining same-block cases go through the instruction-index check
   rather than dominance.  Block 1 of [mk_body] is the label block whose
   only instruction defines the constant flowing into the phi. *)
let l1_const body =
  match body.Bl.blocks.(1).Bl.b_insns with
  | [ Bl.Assign (v, Bl.Const _) ] -> v
  | _ -> Alcotest.fail "expected block 1 to be a single constant"

let use_of v = Bl.Store { recv = v; field = Ids.Field.of_int 0; src = v }

let test_same_block_use_before_def () =
  let body = mk_body () in
  let l1 = body.Bl.blocks.(1) in
  l1.Bl.b_insns <- use_of (l1_const body) :: l1.Bl.b_insns;
  rejects "before its definition" body

let test_self_use_rejected () =
  (* v <- v + v: the use sits at the defining instruction's own index *)
  let body = mk_body () in
  let v = l1_const body in
  body.Bl.blocks.(1).Bl.b_insns <- [ Bl.Assign (v, Bl.Arith (Bl.Add, v, v)) ];
  rejects "before its definition" body

let test_phi_and_param_use_at_zero () =
  let body = mk_body () in
  let entry = body.Bl.blocks.(0) and m = body.Bl.blocks.(3) in
  let param = List.hd body.Bl.params in
  let phi = (List.hd m.Bl.b_phis).Bl.phi_var in
  entry.Bl.b_insns <- use_of param :: entry.Bl.b_insns;
  m.Bl.b_insns <- use_of phi :: m.Bl.b_insns;
  match Validate.check body with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "phi / parameter use at instruction 0 rejected: %s" msg

let test_jump_to_label_rejected () =
  let body = mk_body () in
  (* retarget the merge's predecessors: make l2 jump to l1 (a label) *)
  let l2 = body.Bl.blocks.(2) in
  l2.Bl.b_term <- Some (Bl.Jump body.Bl.blocks.(1).Bl.b_id);
  rejects "not a merge block" body

let test_pred_list_consistency () =
  let body = mk_body () in
  let m = body.Bl.blocks.(3) in
  m.Bl.b_preds <- [ List.hd m.Bl.b_preds ];
  (match Validate.check body with
  | Ok () -> Alcotest.fail "expected rejection"
  | Error _ -> ())

(* ------------------------------ dominance ----------------------------- *)

let test_dominance_diamond () =
  let body = mk_body () in
  let dom = Dominance.compute body in
  let b n = body.Bl.blocks.(n).Bl.b_id in
  Alcotest.(check bool) "entry dominates all" true
    (List.for_all (fun i -> Dominance.dominates dom ~dom:(b 0) ~sub:(b i)) [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "branch does not dominate merge" false
    (Dominance.dominates dom ~dom:(b 1) ~sub:(b 3));
  Alcotest.(check bool) "merge idom is entry" true
    (match Dominance.idom dom (b 3) with
    | Some x -> Ids.Block.equal x (b 0)
    | None -> false);
  Alcotest.(check bool) "entry has no idom" true (Dominance.idom dom (b 0) = None);
  Alcotest.(check bool) "all reachable" true
    (List.for_all (fun i -> Dominance.reachable dom (b i)) [ 0; 1; 2; 3 ])

let suite =
  ( "validate",
    [
      Alcotest.test_case "valid body accepted" `Quick test_valid_accepted;
      Alcotest.test_case "double definition rejected" `Quick test_double_definition;
      Alcotest.test_case "missing terminator rejected" `Quick test_missing_terminator;
      Alcotest.test_case "phi arity mismatch rejected" `Quick test_phi_arity;
      Alcotest.test_case "phi on label block rejected" `Quick test_phi_on_label_block;
      Alcotest.test_case "undominated use rejected" `Quick test_use_before_def_in_block;
      Alcotest.test_case "same-block use before def rejected" `Quick
        test_same_block_use_before_def;
      Alcotest.test_case "use by its own definition rejected" `Quick test_self_use_rejected;
      Alcotest.test_case "phi and param use at insn 0 accepted" `Quick
        test_phi_and_param_use_at_zero;
      Alcotest.test_case "jump to label rejected" `Quick test_jump_to_label_rejected;
      Alcotest.test_case "pred list consistency" `Quick test_pred_list_consistency;
      Alcotest.test_case "dominance on diamond" `Quick test_dominance_diamond;
    ] )
