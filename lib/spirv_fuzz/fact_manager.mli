(** The fact manager (section 3.2): properties of the (program, input) pair
    that transformations establish and later transformations take on trust.

    - [DeadBlock b] — block [b] is never executed (its guard is a constant
      or an input value known to steer away from it);
    - [Synonymous (u@is, v@js)] — component [is] of [u] equals component
      [js] of [v] wherever both are available (empty paths: whole values);
    - [Irrelevant i] — the value of id [i] never affects the final image;
    - [IrrelevantPointee p] — data behind pointer [p] never affects it;
    - [LiveSafe f] — function [f] may be called from anywhere without
      affecting the result, provided pointer arguments are
      irrelevant-pointee. *)

open Spirv_ir

type indexed = Id.t * int list

val pp_indexed : Format.formatter -> indexed -> unit
val show_indexed : indexed -> string
val equal_indexed : indexed -> indexed -> bool

type t = {
  dead_blocks : Id.Set.t;
  synonyms : (indexed * indexed) list;
  irrelevant : Id.Set.t;
  irrelevant_pointees : Id.Set.t;
  live_safe : Id.Set.t;
}

val empty : t

val add_dead_block : t -> Id.t -> t
val is_dead_block : t -> Id.t -> bool

val add_synonym : t -> indexed -> indexed -> t
(** Record [Synonymous (a, b)] with arbitrary index paths. *)

val add_id_synonym : t -> Id.t -> Id.t -> t
(** Whole-object synonym (both paths empty). *)

val add_irrelevant : t -> Id.t -> t
val is_irrelevant : t -> Id.t -> bool

val add_irrelevant_pointee : t -> Id.t -> t
val is_irrelevant_pointee : t -> Id.t -> bool

val add_live_safe : t -> Id.t -> t
val is_live_safe : t -> Id.t -> bool

val id_synonyms : t -> Id.t -> Id.t list
(** Whole-object synonyms of an id: the symmetric-transitive closure of the
    path-free synonym facts, excluding the id itself. *)

val are_synonymous : t -> Id.t -> Id.t -> bool
(** Irreflexive: an id is not reported as a synonym of itself. *)

val component_synonyms : t -> composite:Id.t -> path:int list -> Id.t list
(** Ids recorded equal to the given component of a composite — what
    CompositeConstruct records and CompositeExtract bridges into
    whole-object synonyms. *)
