(** Independent fixed-point certification.

    Given a solved engine, re-check that the final flow states actually
    satisfy every inference rule of Figure 15 (Appendix C) — a defense in
    depth against worklist bookkeeping bugs (a missed notification would
    produce a state that is simply {e not} a fixed point, which this pass
    detects even when the result happens to look plausible):

    - {b Source/Alloc}: an enabled source's generated value is in its
      state; an enabled allocation's class is marked instantiated;
    - {b Propagate}: for every use edge [s ⤳ t] with [s] enabled,
      [VS_out(s) ≤ VS_in(t)], and [VS_out(t) ⊇ filter(VS_in(t))];
    - {b Predicate}: for every predicate edge [s ⤳ t] with [s] enabled and
      non-empty, [t] is enabled;
    - {b Invoke}: every enabled invoke has linked the resolution of every
      type in its receiver's state; for every linked callee the argument
      states are below the formal-parameter inputs and the callee's return
      state is below the invoke's input;
    - {b Load/Store}: every enabled field access has linked the [LookUp]
      of every receiver type, and values flow the right way across the
      per-field flow.

    [run] returns the list of violations (empty = certified).  The
    property-test suite certifies the fixed points of randomly generated
    programs under every configuration. *)

open Skipflow_ir

type violation = string

let check_flow_invariants ~pval prog (violations : violation list ref)
    (f : Flow.t) =
  let bad fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt in
  let name () = Format.asprintf "%a" Flow.pp f in
  (* VS_out covers the filtered VS_in *)
  if not (Vstate.leq (Flow.apply_filter ~pval f f.Flow.raw) f.Flow.state) then
    bad "%s: VS_out does not cover filter(VS_in)" (name ());
  (* Source-like rules *)
  (match f.Flow.kind with
  | Flow.Source v when f.Flow.enabled ->
      if not (Vstate.leq v f.Flow.raw) then bad "%s: source value not in VS_in" (name ())
  | Flow.Alloc c when f.Flow.enabled ->
      if not (Vstate.leq (Vstate.of_class c) f.Flow.raw) then
        bad "%s: allocated class not in VS_in" (name ())
  | Flow.Return when f.Flow.enabled -> (
      match f.Flow.meth with
      | Some m when Ty.equal (Program.meth prog m).Program.m_ret_ty Ty.Void ->
          if Vstate.is_empty f.Flow.state then
            bad "%s: enabled void return without its token" (name ())
      | _ -> ())
  | _ -> ());
  if f.Flow.enabled then begin
    (* Propagate rule *)
    List.iter
      (fun (t : Flow.t) ->
        if not (Vstate.leq f.Flow.state t.Flow.raw) then
          bad "use edge %s -> %s: VS_out(s) not ≤ VS_in(t)" (name ())
            (Format.asprintf "%a" Flow.pp t))
      f.Flow.uses;
    (* Predicate rule *)
    if not (Vstate.is_empty f.Flow.state) then
      List.iter
        (fun (t : Flow.t) ->
          if not t.Flow.enabled then
            bad "predicate edge %s -> %s: target not enabled" (name ())
              (Format.asprintf "%a" Flow.pp t))
        f.Flow.pred_out
  end

(** The type-set content a receiver state denotes for linking purposes.
    Object flows only reach [Any] in degradation mode (budget exhaustion);
    there the engine conservatively resolves against every instantiated
    type, and the certifier must demand the same. *)
let recv_typeset engine (s : Vstate.t) =
  match s with Vstate.Any -> Engine.instantiated engine | _ -> Vstate.type_set s

let check_invoke engine prog violations (f : Flow.t) =
  let bad fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt in
  match f.Flow.kind with
  | Flow.Invoke inv when f.Flow.enabled ->
      let targets =
        if inv.Flow.inv_virtual then
          match inv.Flow.inv_recv with
          | Some r ->
              Typeset.fold
                (fun ci acc ->
                  let c = Ids.Class.of_int ci in
                  if Program.is_null_class c then acc
                  else
                    match Program.resolve prog ~recv_cls:c ~target:inv.Flow.inv_target with
                    | Some m -> m :: acc
                    | None -> acc)
                (recv_typeset engine r.Flow.state)
                []
          | None -> []
        else [ Program.meth prog inv.Flow.inv_target ]
      in
      List.iter
        (fun (callee : Program.meth) ->
          if not (Ids.Meth.Set.mem callee.Program.m_id inv.Flow.inv_linked) then
            bad "invoke of %s: resolvable callee %s not linked"
              (Program.qualified_name prog inv.Flow.inv_target)
              (Program.qualified_name prog callee.Program.m_id);
          match Engine.graph_of engine callee.Program.m_id with
          | None ->
              bad "invoke: linked callee %s has no graph"
                (Program.qualified_name prog callee.Program.m_id)
          | Some cg ->
              let actuals =
                match inv.Flow.inv_recv with
                | Some r when not callee.Program.m_static -> r :: inv.Flow.inv_args
                | _ -> inv.Flow.inv_args
              in
              if
                Ids.Meth.Set.mem callee.Program.m_id inv.Flow.inv_linked
                && List.length actuals = List.length cg.Graph.g_params
              then begin
                List.iter2
                  (fun (a : Flow.t) (p : Flow.t) ->
                    if a.Flow.enabled && not (Vstate.leq a.Flow.state p.Flow.raw) then
                      bad "invoke of %s: argument state not ≤ parameter VS_in"
                        (Program.qualified_name prog callee.Program.m_id))
                  actuals cg.Graph.g_params;
                let ret = cg.Graph.g_return in
                if ret.Flow.enabled && not (Vstate.leq ret.Flow.state f.Flow.raw) then
                  bad "invoke of %s: return state not ≤ invoke VS_in"
                    (Program.qualified_name prog callee.Program.m_id)
              end)
        targets
  | _ -> ()

let check_field_access engine prog violations (f : Flow.t) =
  let bad fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt in
  match f.Flow.kind with
  | (Flow.Field_load fa | Flow.Field_store fa) when f.Flow.enabled ->
      Typeset.iter
        (fun ci ->
          let c = Ids.Class.of_int ci in
          if not (Program.is_null_class c) then
            match Program.lookup_field prog ~recv_cls:c ~field:fa.Flow.fa_field with
            | None -> ()
            | Some fld ->
                if not (Ids.Field.Set.mem fld.Program.f_id fa.Flow.fa_linked) then
                  bad "field access %s: LookUp target not linked"
                    (Program.qualified_field_name prog fa.Flow.fa_field)
                else
                  let ff = Engine.field_flow engine fld.Program.f_id in
                  let ok =
                    match f.Flow.kind with
                    | Flow.Field_load _ -> Vstate.leq ff.Flow.state f.Flow.raw
                    | _ -> Vstate.leq f.Flow.state ff.Flow.raw
                  in
                  if not ok then
                    bad "field access %s: value states inconsistent with field flow"
                      (Program.qualified_field_name prog fa.Flow.fa_field))
        (recv_typeset engine fa.Flow.fa_recv.Flow.state)
  | _ -> ()

(** [run engine] re-checks the Figure 15 rules over the engine's fixed
    point; returns all violations found (empty list = certified). *)
let run (engine : Engine.t) : violation list =
  let prog = Engine.prog_of engine in
  let violations = ref [] in
  let degraded = Engine.is_degraded engine in
  let pval = (Engine.config_of engine).Config.pval in
  List.iter
    (fun (g : Graph.method_graph) ->
      List.iter
        (fun (f : Flow.t) ->
          (* Degradation invariant: a degraded run force-enables every
             flow of every reachable method; a disabled flow would mean
             the coarse fixed point silently kept some precision — and any
             soundness argument that relied on "everything enabled" would
             be void. *)
          if degraded && not f.Flow.enabled then
            violations :=
              Format.asprintf "%a: flow disabled in a degraded run" Flow.pp f
              :: !violations;
          check_flow_invariants ~pval prog violations f;
          check_invoke engine prog violations f;
          check_field_access engine prog violations f)
        g.Graph.g_flows)
    (Engine.graphs engine);
  List.rev !violations

(** [same_fixed_point a b] is flow-by-flow equality of two solved engines,
    over one program or two identically shaped compiles of it: equal
    reachable qualified-name sets, and per method equal flow counts,
    kinds, enabled bits and value states ([state] and [raw]).  Methods
    are matched by qualified name and, within a method, flows by
    position — per-method flow lists are in construction order, which is
    deterministic for a given body.  [Error] names the first difference.
    This is the equality oracle of the dedup/reference differential, of
    pause/resume, and of incremental-versus-fresh serving. *)
let same_fixed_point (a : Engine.t) (b : Engine.t) : (unit, string) result =
  let sa = List.sort String.compare (Engine.reachable_names a)
  and sb = List.sort String.compare (Engine.reachable_names b) in
  if sa <> sb then
    Error
      (Printf.sprintf "reachable sets differ (%d vs %d methods)"
         (List.length sa) (List.length sb))
  else begin
    let prog_b = Engine.prog_of b in
    let by_name = Hashtbl.create 64 in
    List.iter
      (fun (g : Graph.method_graph) ->
        Hashtbl.replace by_name
          (Program.qualified_name prog_b g.Graph.g_meth.Program.m_id)
          g)
      (Engine.graphs b);
    let prog_a = Engine.prog_of a in
    let err = ref None in
    let fail fmt =
      Format.kasprintf (fun m -> if !err = None then err := Some m) fmt
    in
    List.iter
      (fun (ga : Graph.method_graph) ->
        let name = Program.qualified_name prog_a ga.Graph.g_meth.Program.m_id in
        match Hashtbl.find_opt by_name name with
        | None -> fail "%s: no counterpart graph" name
        | Some gb ->
            let fa = ga.Graph.g_flows and fb = gb.Graph.g_flows in
            if List.length fa <> List.length fb then
              fail "%s: %d vs %d flows" name (List.length fa) (List.length fb)
            else
              List.iteri
                (fun i ((x : Flow.t), (y : Flow.t)) ->
                  if Flow.kind_name x <> Flow.kind_name y then
                    fail "%s: flow %d kind %s vs %s" name i (Flow.kind_name x)
                      (Flow.kind_name y)
                  else if x.Flow.enabled <> y.Flow.enabled then
                    fail "%s: flow %d enabled bit differs" name i
                  else if not (Vstate.equal x.Flow.state y.Flow.state) then
                    fail "%s: flow %d value state differs: %a vs %a" name i
                      Vstate.pp x.Flow.state Vstate.pp y.Flow.state
                  else if not (Vstate.equal x.Flow.raw y.Flow.raw) then
                    fail "%s: flow %d raw state differs" name i)
                (List.combine fa fb))
      (Engine.graphs a);
    match !err with None -> Ok () | Some m -> Error m
  end
