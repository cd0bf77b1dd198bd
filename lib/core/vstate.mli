(** Value states: the combined lattice [𝕃] of Appendix B.2 (Figure 11),
    and the [Compare] filtering function of Appendix C.

    A value state conservatively over-approximates the values a base-
    language element can hold at runtime: empty (⊥), a single primitive
    constant, a non-empty set of types (with [null] as a special member),
    or the global top [Any].  All operations are monotone over the typed
    sublattices the engine uses, which with the finite lattice height
    guarantees termination of the fixed point. *)

type t =
  | Empty
  | Prim of Prim.t
      (** primitive content; invariant: the payload is proper — never
          {!Prim.bot} ([Empty] represents that) and never {!Prim.top}
          ([Any] does).  Under [--pval flat] every payload is a
          singleton constant — the paper's [Const of int], exactly. *)
  | Types of Typeset.t  (** invariant: the set is non-empty *)
  | Any  (** ⊤ = [{Any}] *)

val empty : t
val any : t

val const : int -> t
(** The fully-reduced singleton [{n}], whatever the pval mode — so
    [leq (const n) s] tests membership of [n] in [s] under either
    lattice (the fuzz oracle relies on this). *)

val of_prim : Prim.t -> t
(** Re-establish the properness invariant: {!Prim.bot} ↦ [Empty],
    {!Prim.top} ↦ [Any], proper payloads boxed as [Prim]. *)

val null : t
(** The state containing exactly the [null] reference. *)

val types : Typeset.t -> t
(** [types ts] is [Empty] when [ts] is empty, [Types ts] otherwise. *)

val of_class : Skipflow_ir.Ids.Class.t -> t
val is_empty : t -> bool
val equal : t -> t -> bool

val join : pval:Pval.mode -> t -> t -> t
(** Least upper bound.  [pval] selects the primitive sublattice: flat
    tops distinct constants out to [Any] (paper, Figure 6), product
    joins intervals ({!Prim.join}).  On singleton payloads the two
    agree, so flat reproduces the pre-product behaviour exactly. *)

val join_unshared : pval:Pval.mode -> t -> t -> t
(** Like {!join} but without the physical-sharing fast paths: the
    type-set case always materializes a fresh set.  Used by the
    reference engine to keep the baseline's historical cost profile. *)

val leq : t -> t -> bool

val type_set : t -> Typeset.t
(** The type-set content; empty for primitive states. *)

val pp : Format.formatter -> t -> unit

val pp_named :
  class_name:(Skipflow_ir.Ids.Class.t -> string) -> Format.formatter -> t -> unit
(** Like {!pp} but printing class names instead of ids. *)

(** {2 Filters} *)

val filter_instanceof : mask:Typeset.t -> negated:bool -> t -> t
(** The [TypeCheck] rule of Figure 15.  [mask] must be the subtypes of the
    checked class excluding [null]: the positive check keeps exactly those
    ([null] fails [instanceof]); the negated check keeps the complement
    including [null].  Primitive states pass through. *)

val filter_declared : mask_with_null:Typeset.t -> t -> t
(** Declared-type restriction for formal-parameter and cast flows:
    intersects object states with the subtypes of the declared type plus
    [null]; primitive states pass through. *)

(** Comparison operators of filtering flows.  Branch conditions are
    normalized to [==] and [<] (Appendix B.1); the other variants arise
    from {!inv} (else-branches) and {!flip} (mirrored operand). *)
type cmp_op = Eq | Ne | Lt | Ge | Gt | Le

val inv : cmp_op -> cmp_op
(** Logical negation (the operator of the [else] branch). *)

val flip : cmp_op -> cmp_op
(** Operand mirror: filtering [y] by [x < y] uses [flip Lt = Gt]. *)

val pp_cmp_op : Format.formatter -> cmp_op -> unit

val compare_filter : pval:Pval.mode -> cmp_op -> t -> t -> t
(** [compare_filter ~pval op vl vr] is the [Compare] function of Appendix
    C: the content of [vl] that can satisfy [op] against some value of
    [vr].  Under [--pval product] the primitive cases narrow ranges
    ({!Prim.meet} / {!Prim.narrow}) instead of the flat lattice's
    all-or-nothing answer; under [--pval flat] the result is bit-for-bit
    the paper's function.  Deviation for soundness: on type sets, ['≠']
    applies the paper's set difference only when [vr] is exactly
    [{null}] (the only type denoting a single runtime value) and passes
    [vl] through otherwise — see DESIGN.md §7. *)

val arith : Prim.binop -> t -> t -> t
(** Forward arithmetic transfer ([Arith] flows, [--pval product] only):
    {!Prim.arith} on primitive operands, [Empty] when either operand is
    still empty, conservative [Any] otherwise. *)
