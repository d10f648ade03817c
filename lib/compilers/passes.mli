(** The optimizer passes (the spirv-opt analog).

    Every pass is semantics-preserving with {!no_bugs}; the [flags] record
    enables the optimizer-hosted injected bugs that the spirv-opt /
    spirv-opt-old / SwiftShader targets exhibit.  Correctness is covered by
    the test suite: each pass and the full pipeline preserve rendered images
    on the corpus, on random generated modules and on fuzzed variants.

    Identity contract: a pass returns its input module itself ([==]) exactly
    when its output would be {!Spirv_ir.Module_ir.equal_exact} to it, and
    otherwise rebuilds only the functions, blocks and instruction lists it
    edits.  Callers tell an unchanged step by [p m == m];
    {!Spirv_ir.Digest.of_module} then reuses the input's digest. *)

open Spirv_ir

type flags = {
  bug_fold_div_crash : bool;
      (** crash when folding an integer division/modulo by constant zero *)
  bug_keep_stale_phi_entries : bool;
      (** constant-branch folding forgets to prune the untaken target's φ
          entry — emits invalid IR (the "emits illegal SPIR-V" bug class) *)
  bug_fold_sub_zero : bool;
      (** miscompile: fold [x -. 0.0] to [0.0] instead of [x] *)
  bug_inline_swaps_const_args : bool;
      (** miscompile: the inliner swaps the first two arguments of a call
          when both are same-typed constants *)
  bug_hoist_loop_load : bool;
      (** miscompile: loop-invariant code motion hoists a load whose cell
          {e is} stored inside the loop, when every such store sits later
          in the load's own block — each iteration then reads the stale
          pre-loop value *)
  bug_forward_aliased_store : bool;
      (** miscompile: store-to-load forwarding keys access-chain pointers
          by their syntactic (base, indices) pair and forwards across an
          intervening chain store with a different key, even though a
          dynamic index may name the forwarded cell.  The translation
          validator's symbolic memory model catches it on {e every}
          module; the render oracle only where the sampled grid drives the
          dynamic index onto the forwarded cell *)
}

val no_bugs : flags

val const_fold : flags -> Module_ir.t -> Module_ir.t
val copy_prop : Module_ir.t -> Module_ir.t
val dce : Module_ir.t -> Module_ir.t
val simplify_cfg : flags -> Module_ir.t -> Module_ir.t
val phi_simplify : Module_ir.t -> Module_ir.t
val cse : Module_ir.t -> Module_ir.t
val store_forward : flags -> Module_ir.t -> Module_ir.t
val dse : Module_ir.t -> Module_ir.t

val dse_cross_check : Module_ir.t -> string list
(** Violations of the Memory-backed DSE soundness check: stores that
    [dse] would delete (their pointer is in
    {!Spirv_ir.Dataflow.write_only_locals}) but that the independent
    {!Spirv_ir.Memory} def-use analysis still finds observable.  Empty on
    every module when both analyses are sound; {!Optimizer.run_checked}
    fails the Dse step otherwise. *)

val inline : flags -> Module_ir.t -> Module_ir.t

val hoist_invariant : flags -> Module_ir.t -> Module_ir.t
(** Loop-invariant code motion over the {!Spirv_ir.Loops} forest: pure
    instructions whose operands are all defined outside the loop — and
    loads of cells that provably cannot change inside it — move to the
    loop's preheader.  Loops without a unique fall-through preheader are
    left alone.  Not part of {!Optimizer.standard}; it exists to exercise
    the loop-aware validator (and hosts [bug_hoist_loop_load]). *)
