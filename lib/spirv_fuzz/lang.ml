(** Instantiation of the generic framework (Definition 2.5's [Apply]) for
    the SPIR-V-like IR. *)

module Language = struct
  type context = Context.t
  type transformation = Transformation.t

  let type_id = Transformation.type_id
  let precondition = Rules.precondition
  let apply = Rules.apply
end

module Apply = Tbct.Spec.Apply (Language)

(** Apply a recorded sequence to an original context, skipping
    transformations whose preconditions fail — the reducer's workhorse. *)
let replay ctx ts = Apply.sequence_ctx ctx ts
