(** The transformation-contract checker (debug mode).

    After every applied transformation, assert the paper's core contract
    (Definitions 2.4 and 3.1): the declared precondition held on the
    pre-application context, the module still validates, the
    {!Spirv_ir.Lint} error rules report nothing new, and the module still
    renders the image of the {e original} context the checker was created
    from.  Every transformation type is semantics-preserving, so every
    check runs for every type.

    {b RNG discipline.}  The checker consumes no randomness: every check
    is a pure function of the before/after contexts.  Campaigns therefore
    record bit-identical transformation streams with checking on or off
    (property-tested), so a hit found under [--check-contracts] reduces
    and deduplicates exactly like one found without it. *)

type violation = {
  v_transformation : string;  (** {!Transformation.type_id} of the culprit *)
  v_stage : string;  (** ["precondition"], ["validate"], ["lint"] or ["image"] *)
  v_detail : string;
}

exception Violation of violation

val violation_to_string : violation -> string

type t

val create : Context.t -> t
(** Capture the baseline: the original context's rendered image (image
    checks are skipped when the original itself traps) and its existing
    lint-error fingerprints. *)

val check : t -> before:Context.t -> Transformation.t -> after:Context.t -> unit
(** Check one applied transformation.
    @raise Violation naming the transformation type and the failed stage. *)

val checked : t -> int
(** How many transformations have passed the checks so far. *)
