(** Analysis configurations.

    The paper evaluates two configurations of the same framework: the
    baseline type-based flow-insensitive context-insensitive points-to
    analysis ("PTA", Wimmer et al. 2024) and SkipFlow = PTA + predicate
    edges + primitive value tracking.  We expose both feature bits
    separately, which also gives the two ablations used by the extra
    benchmarks:

    - [predicates]: when false, every flow is enabled at creation and
      predicate edges have no effect (flow-insensitive propagation);
    - [primitives]: when false, primitive constant sources produce [Any]
      instead of their constant, so comparison filters degenerate to
      pass-through (exactly the baseline's behaviour — type-check and
      null-check filtering flows are part of the baseline typeflow graphs
      and remain active).

    [saturation] optionally bounds type-set growth (after Wimmer et al.):
    a flow whose type set exceeds the cutoff is coarsened to "all
    instantiated types" and tracks the global instantiated-type flow from
    then on.  The paper's evaluated configuration runs without saturation,
    so the default is [None].

    [seed_root_params] implements the reflection/JNI root policy of
    Section 5: value states of root-method parameters contain any
    instantiated subtype of their declared type. *)

type t = {
  predicates : bool;
  primitives : bool;
  pval : Pval.mode;
      (** which primitive lattice [primitives] tracking runs on: the
          paper's flat constants ([Flat], the default) or the reduced
          product constants × intervals ([Product], {!Prim}) whose
          comparison filters narrow ranges *)
  saturation : int option;
  seed_root_params : bool;
  budget : Budget.t;
      (** resource caps for {!Engine.run}; on trip the engine degrades
          precision (never correctness) instead of aborting *)
}

let skipflow =
  {
    predicates = true;
    primitives = true;
    pval = Pval.Flat;
    saturation = None;
    seed_root_params = true;
    budget = Budget.unlimited;
  }

(** The baseline points-to analysis of the paper's evaluation. *)
let pta = { skipflow with predicates = false; primitives = false }

(** Ablation: predicate edges without primitive tracking. *)
let predicates_only = { skipflow with primitives = false }

(** Ablation: primitive tracking without predicate edges (primitive values
    still flow interprocedurally and filters still apply, but no code is
    ever considered unreachable because of them). *)
let primitives_only = { skipflow with predicates = false }

let name c =
  match (c.predicates, c.primitives) with
  | true, true -> "SkipFlow"
  | false, false -> "PTA"
  | true, false -> "SkipFlow[preds-only]"
  | false, true -> "SkipFlow[prims-only]"

let pp ppf c =
  Format.fprintf ppf "%s%s%s" (name c)
    (match c.pval with Pval.Flat -> "" | Pval.Product -> "[pval=product]")
    (match c.saturation with None -> "" | Some k -> Printf.sprintf "+sat%d" k);
  if not (Budget.is_unlimited c.budget) then
    Format.fprintf ppf "[%a]" Budget.pp c.budget
