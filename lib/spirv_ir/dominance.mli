(** Dominator trees, via the Cooper–Harvey–Kennedy iterative-intersection
    algorithm over reverse post-order.

    Dominance underpins both the validator's SSA rules (a use must be
    dominated by its definition; a block must precede the blocks it strictly
    dominates) and the availability analysis that transformation
    preconditions rely on.  Queries about unreachable blocks answer
    [false]/[None]: SPIR-V's dominance rules are vacuous for dead code, and
    the validator treats it accordingly. *)

type t

val compute : Cfg.t -> t
[@@alert private_dominance
  "dominance is derived once, in Spirv_ir.Dataflow: use \
   Dataflow.Availability.dominance"]
(** [private_dominance] is an error everywhere (the root [dune] file):
    [Dataflow] is the one caller. *)

val idom : t -> Id.t -> Id.t option
(** Immediate dominator ([None] for the entry block and unreachable
    blocks). *)

val dominates : t -> Id.t -> Id.t -> bool
(** [dominates t a b]: every path from the entry to [b] passes through [a].
    Reflexive on reachable blocks; false if either block is unreachable. *)

val strictly_dominates : t -> Id.t -> Id.t -> bool
