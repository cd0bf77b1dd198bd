(** Analysis configurations: SkipFlow, the baseline PTA the paper compares
    against, and the two single-ingredient ablations.  See the module body
    for the exact semantics of each feature bit. *)

type t = {
  predicates : bool;
      (** when false every flow is enabled at creation — the
          flow-insensitive baseline behaviour *)
  primitives : bool;
      (** when false primitive constants are abstracted to [Any], so
          comparison filters degenerate to pass-through *)
  pval : Pval.mode;
      (** the primitive lattice [primitives] tracking runs on:
          [Pval.Flat] is the paper's constant lattice (the default in
          every preset); [Pval.Product] runs the reduced product
          constants × intervals, so comparison filters narrow ranges
          and arithmetic produces intervals instead of [Any] *)
  saturation : int option;
      (** optional type-set growth cutoff (Wimmer et al. 2024); [None]
          matches the paper's evaluated configuration *)
  seed_root_params : bool;
      (** seed root-method object parameters with all instantiated
          subtypes of their declared type (the Section 5 reflection/JNI
          policy) *)
  budget : Budget.t;
      (** resource caps for {!Engine.run}; when a cap trips the engine
          switches to degradation mode — saturate object flows, widen
          primitive flows to [Any], and finish at a sound but coarser
          fixed point — instead of aborting *)
}

val skipflow : t
(** The paper's contribution: predicates + primitives. *)

val pta : t
(** The baseline type-based flow-insensitive context-insensitive points-to
    analysis of the evaluation. *)

val predicates_only : t
val primitives_only : t
val name : t -> string
val pp : Format.formatter -> t -> unit
