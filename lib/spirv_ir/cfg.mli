(** Control-flow-graph queries over one function: successor/predecessor
    lists, reachability from the entry block, and reverse post-order. *)

type t = {
  blocks : Block.t array;
  index_of : int Id.Map.t;  (** block label -> position in [blocks] *)
  succs : int list array;   (** successor positions *)
  preds : int list array;   (** predecessor positions, in edge order *)
  reachable : bool array;   (** reachable from the entry block *)
}

val of_func : Func.t -> t
[@@alert private_cfg
  "this module consumes the shared analyses: take the CFG from \
   Dataflow.Availability.cfg"]
(** [private_cfg] is an error only in the files that ask for it with a
    floating [[@@@alert "@private_cfg"]]: validate, lint, analysis, symval. *)

val block_index : t -> Id.t -> int option
val successors : t -> Id.t -> Id.t list
(** Deduplicated: a conditional branch with equal arms yields one
    successor. *)

val predecessors : t -> Id.t -> Id.t list
val is_reachable : t -> Id.t -> bool
val reachable_labels : t -> Id.t list

val reverse_postorder : t -> int list
(** Positions of the reachable blocks in reverse post-order (the entry block
    first) — the iteration order the dominance computation wants. *)
