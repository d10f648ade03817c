(** Module validator — the spirv-val analog.

    Checks the structural and typing rules of the IR (section 3.1 of the
    paper lists the SPIR-V rules these mirror):

    - id uniqueness and the module id bound;
    - well-formedness of the type, constant and global tables (declaration
      order: a declaration may only reference earlier declarations);
    - the entry point is a void, parameterless function;
    - the call graph is acyclic (no recursion, as in SPIR-V);
    - per function: the entry block comes first and has no predecessors,
      φ-instructions appear only at block starts, allocations only in the
      entry block, every block appears before all blocks it strictly
      dominates, φ-nodes have exactly one incoming value per predecessor,
      and every use is dominated by its definition;
    - full type checking of every instruction and terminator.

    Uses inside {e unreachable} blocks are only required to reference ids
    defined somewhere in the module (dominance rules are vacuous for dead
    code, as in SPIR-V) — the laxness that transformations on dead blocks
    rely on. *)

type error = {
  where : string;  (** e.g. ["function %12, block %15"] *)
  message : string;
}

val error_to_string : error -> string

val check : Module_ir.t -> (unit, error list) result
(** All validation errors, or [Ok ()] for a valid module. *)

val is_valid : Module_ir.t -> bool

val function_is_valid : Module_ir.t -> Id.t -> bool
(** [function_is_valid m fn] runs {!check}'s per-function checks on
    function [fn] alone; [false] when [m] has no such function.  It equals
    [is_valid m] whenever [m] differs from a module that [is_valid]
    accepts only inside [fn]'s blocks, with the same ids defined and the
    same calls made: the module-level checks and every other function's
    checks then see what they saw in the valid module.  CFG edits that
    reorder [fn]'s blocks or rewrite its terminators and φ-entries are
    such changes. *)
