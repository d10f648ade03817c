(** The spirv-fuzz reducer (section 3.4): delta debugging over the recorded
    transformation sequence, replaying candidate subsequences from the
    original context and keeping those that still satisfy the
    interestingness test; then — the spirv-reduce analog — shrinking the
    function bodies of any surviving AddFunction transformations. *)


(** {1 Checkpointed replay} *)

type checkpoints
(** A replayed sequence with, per element, the context after it.
    Replaying a sequence from checkpoints reuses the longest prefix it
    shares, element by physically equal element, with the sequence the
    checkpoints were taken for, and folds only the rest; the result is
    [Lang.replay original seq] exactly, since replay is a left fold over
    an immutable context. *)

val start : Context.t -> checkpoints
(** The checkpoints of the empty sequence on an original context. *)

val replay_from : checkpoints -> Transformation.t list -> checkpoints
(** The checkpoints of [seq], from the same original context. *)

val context : checkpoints -> Context.t
(** The context at the end of the replayed sequence. *)

(** {1 Reduction} *)

type result = {
  transformations : Transformation.t list;  (** the 1-minimal subsequence *)
  reduced : Context.t;  (** the original context with it applied *)
  stats : Tbct.Reducer.stats;
  checkpoints : checkpoints;  (** the replay of [transformations] *)
}

val reduce :
  original:Context.t ->
  is_interesting:(Context.t -> bool) ->
  Transformation.t list ->
  result
(** The full sequence must be interesting.  Soundness rests on
    Definition 2.5: skipped preconditions make every subsequence
    semantics-preserving, so the reducer may try any of them.  Each probe
    is replayed from the checkpoints of the last interesting sequence, so
    it folds only the transformations after the chunk it leaves out. *)

val shrink_add_functions :
  is_interesting:(Context.t -> bool) -> result -> result
(** "After delta debugging, the reducer applies spirv-reduce to any
    remaining AddFunction transformations": delta debugging over each
    donated function's body instructions, testing validity plus the
    interestingness test.  Each test folds the shrunk AddFunction from the
    checkpointed context in front of it and rejects the candidate unless
    the function is then present and validates
    ({!Spirv_ir.Validate.function_is_valid}); only then does it fold the
    suffix, so every context a replayed precondition sees validates. *)

val delta_size : original:Context.t -> Context.t -> int
(** Instruction-count difference — the section 4.2 reduction-quality
    metric. *)

val delta_listing : original:Context.t -> Context.t -> string
(** The textual module delta a bug report contains (cf. Figure 3). *)
