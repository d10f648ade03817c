(** Availability and use-site analysis over one function — the
    transformation layer's façade over the shared {!Dataflow} analyses.

    Transformation preconditions ask two questions: "may this id be
    referenced at this program point?" (the SSA dominance rule, delegated
    to {!Dataflow.Availability}) and "where is this id used?" (use-site
    enumeration for id-replacing transformations). *)

type t

val make : Module_ir.t -> Func.t -> t
(** Build the per-function analysis record; the control-flow graph,
    dominator tree and definition sites are computed once and shared by
    every query. *)

val cfg : t -> Cfg.t
val dominance : t -> Dominance.t

val available_at : t -> block:Id.t -> index:int -> Id.t -> bool
(** May [id] be used by the instruction at position [index] of [block]?
    ([index] may be one past the last instruction to mean the terminator.)
    Follows the validator's rule, including its relaxation inside
    unreachable blocks. *)

val available_at_end : t -> block:Id.t -> Id.t -> bool
(** Availability at the block's terminator — the rule for φ incoming
    values at their predecessor. *)

val available_ids_of_type : t -> block:Id.t -> index:int -> ty:Id.t -> Id.t list
(** Ids of every value available at position [index] of [block] whose type
    id is [ty] — candidates for id-replacement transformations.  Module
    constants and globals first, then this function's parameters, then
    instruction results in block order. *)
