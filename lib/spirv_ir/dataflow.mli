(** Generic worklist dataflow over {!Cfg}, and the standard analyses built
    on it: reaching definitions, liveness, dominance-aware availability and
    constant/uniform-value propagation.

    These are the {e shared} def-use analyses: the validator, the lint
    suite ({!Lint}), the optimizer's checked pipelines and the
    transformation layer (via {!Analysis}) all consume them rather than
    re-deriving definition sites or dominance privately.  Alerts enforce
    this: [Dominance.compute] is a compile error outside this module, and
    [Cfg.of_func] one in the validator, lint, {!Analysis} and {!Symval}. *)

(** {1 The engine} *)

type direction = Forward | Backward

type 'a lattice = {
  bottom : 'a;
      (** least element; must be the identity of [join] (for must-analyses
          whose join is intersection, this is the {e universe}) *)
  equal : 'a -> 'a -> bool;
  join : 'a -> 'a -> 'a;
}

type 'a solution = {
  block_in : 'a array;   (** state at block entry, indexed by Cfg position *)
  block_out : 'a array;  (** state at block exit, indexed by Cfg position *)
}

val solve :
  ?edge:(src:int -> dst:int -> 'a -> 'a) ->
  ?widen:(int -> old:'a -> 'a -> 'a) ->
  Cfg.t ->
  direction ->
  'a lattice ->
  boundary:'a ->
  transfer:(int -> 'a -> 'a) ->
  'a solution
(** Iterate [transfer] (given a block's Cfg position and its incoming
    state) to a fixpoint over the worklist, seeding reachable blocks in
    reverse post-order along the propagation direction.  [boundary] is the
    state at the entry block (forward) or at exit blocks (backward).
    Unreachable blocks are solved too, over whatever edges they have; a
    predecessor-less non-entry block sees [bottom].  Termination requires
    the usual monotone-transfer / finite-height conditions.

    [edge], when given, transforms each source state as it flows across a
    specific edge before joining (path-sensitive refinement; [src]/[dst]
    are Cfg positions oriented along the propagation direction).  [widen],
    when given, is applied to a block's freshly-joined incoming state
    against the previous one ([old]) — infinite-height lattices (intervals)
    use it at loop headers to force termination.  Both default to the
    identity. *)

(** {1 Analyses} *)

module Reaching_defs : sig
  type t

  val compute : Func.t -> t

  val at_entry : t -> Id.t -> Id.Set.t
  (** Definitions reaching the labelled block's entry ({e may} along some
      path; SSA has no kills).  @raise Invalid_argument on unknown labels. *)

  val at_exit : t -> Id.t -> Id.Set.t
end

module Liveness : sig
  type t

  val compute : Func.t -> t

  val live_in : t -> Id.t -> Id.Set.t
  (** Ids live at the labelled block's entry.  φ-instructions follow SSA
      convention: their value operands are uses at the end of the matching
      predecessor, not in the φ's own block. *)

  val live_out : t -> Id.t -> Id.Set.t
  (** Ids live across the block's outgoing edges, successor-φ uses
      included. *)
end

(** Dominance-aware def-use availability — {e the} shared answer to "may
    this id be referenced at this program point?", consumed by the
    validator, the lint suite and (via {!Analysis}) the transformation
    preconditions. *)
module Availability : sig
  type t

  val make : Module_ir.t -> Func.t -> t

  val module_of : t -> Module_ir.t
  val func : t -> Func.t
  val cfg : t -> Cfg.t
  val dominance : t -> Dominance.t

  val def_site : t -> Id.t -> (Id.t * int) option
  (** (block label, instruction index) of the id's definition, if it is
      defined by an instruction of this function. *)

  val is_module_level : t -> Id.t -> bool
  (** Constants, globals, or this function's parameters. *)

  val available_at : t -> block:Id.t -> index:int -> Id.t -> bool
  (** May [id] be used by the instruction at position [index] of [block]?
      ([index] may be one past the last instruction to mean the
      terminator.)  The SSA dominance rule, with the validator's relaxation
      inside unreachable blocks: uses there only need the id defined
      somewhere in the function. *)

  val available_at_end : t -> block:Id.t -> Id.t -> bool

  val must_defined_at_entry : t -> block:Id.t -> Id.Set.t
  (** The worklist (intersection-join) formulation: ids defined on {e
      every} path from entry.  On valid modules it agrees with
      [available_at] at block entries; exposed for cross-checking. *)
end

(** Constant and uniform-value propagation: ids whose value is the same
    constant on every path, seeded from the module's constant table and —
    when an input is supplied — from loads of Uniform-class globals. *)
module Constprop : sig
  type t

  val compute : ?input:Input.t -> Module_ir.t -> Func.t -> t

  val value_of : t -> Id.t -> Value.t option
  (** The id's propagated constant, if any.  φs whose incoming values agree
      on all predecessors propagate; definitions in unreachable blocks do
      not. *)

  val known : t -> (Id.t * Value.t) list
end

(** Integer intervals over the module's Int32 scalars.  [min_int]/[max_int]
    (OCaml's) are the -oo/+oo sentinels; arithmetic that could leave the
    int32 range returns {!Itv.top} because Int32 ops wrap. *)
module Itv : sig
  type t = { lo : int; hi : int }

  val top : t
  val is_top : t -> bool
  val point : int -> t
  val make : int -> int -> t
  val mem : int -> t -> bool
  val equal : t -> t -> bool
  val join : t -> t -> t

  val meet : t -> t -> t
  (** May be empty ([lo > hi]); see {!is_empty}. *)

  val is_empty : t -> bool
  val finite : t -> bool
  val singleton : t -> int option
  val widen : old:t -> t -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val neg : t -> t
  val to_string : t -> string
end

(** Interval / value-range abstract interpretation: a [solve] instance over
    per-id interval environments, with conditional-edge refinement,
    delayed widening at loop headers (and at irreducible retreating-edge
    targets) and two descending narrowing sweeps.  Tracks SSA int values
    plus unaliased function-local int cells; everything else is top.
    [Symval] consumes {!trip_bound} to unroll counted loops soundly. *)
module Ranges : sig
  type t

  val compute : Module_ir.t -> Func.t -> cfg:Cfg.t -> loops:Loops.forest -> t
  (** [cfg]/[loops] are the caller's already-derived facts (source them
      from {!Availability} and {!Loops.analyze}). *)

  val interval_of : t -> Id.t -> Itv.t
  (** Sound interval for an SSA value (its binding at its defining block's
      exit, which covers every execution), or for a constant. *)

  val interval_at : t -> block:Id.t -> Id.t -> Itv.t
  (** The id's interval in the labelled block's exit environment. *)

  val known : t -> (Id.t * Itv.t) list
  (** All function-defined ids with a non-top interval. *)

  val trip_bound : t -> header:Id.t -> int option
  (** A proven upper bound on the number of back-edge traversals of the
      loop headed at [header]: requires a single latch, a header branch on
      an ascending comparison ([var < bound] / [<=], possibly negated), a
      var that advances by a positive constant per iteration (φ-carried or
      an unaliased memory cell), a finite lower bound for [var] and a
      finite upper bound for [bound] at the header. *)

  val tracked : t -> Id.Set.t
  (** The unaliased function-local int cells the analysis tracks. *)

  val forest : t -> Loops.forest
end

val write_only_locals : Func.t -> Id.Set.t
(** Function-local variables whose every use is as a store destination (or
    that are never used at all) — their stores can never be observed.
    Shared by the optimizer's dead-store elimination and the lint rule
    [store-never-read]. *)
