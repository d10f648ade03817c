(** Injected compiler bugs.

    Each of the nine targets (Table 2) carries a roster of latent bugs.
    {b Crash bugs} are structural predicates over the module being compiled;
    when one fires the "compiler" aborts with a stable crash signature (what
    gfauto's signature extraction recovers from a crash report, paper
    section 3.4).  {b Miscompilation bugs} are rewrites applied to the
    optimized module before execution — wrong code emitted for particular
    program shapes.

    Triggers are chosen to be reachable from the transformations the
    fuzzers apply (dead blocks, φ-nodes, OpKill, block reordering, uniform
    obfuscation, donated functions, ...) while absent from the lowered
    reference corpus — mirroring how real driver bugs hide on paths everyday
    shaders never exercise.  The test suite checks that no crash trigger
    fires on any clean corpus program, raw or optimized. *)

open Spirv_ir

type phase =
  | Before_opt  (** checked on the module as submitted (front-end bugs) *)
  | After_opt   (** checked on the optimized module (back-end bugs) *)

type crash_spec = {
  bug_id : string;     (** ground-truth identity for the Table 4 study *)
  signature : string;  (** what the harness extracts and deduplicates *)
  phase : phase;
  trigger : Module_ir.t -> bool;
}

type miscompile_spec = {
  mc_bug_id : string;
  rewrite : Module_ir.t -> Module_ir.t;  (** identity when the shape is absent *)
}

(** {1 Structural probes} (exposed for tests and target design) *)

val has_donated_call : Module_ir.t -> bool
val has_dontinline_call : Module_ir.t -> bool
val max_phi_arity : Module_ir.t -> int
val has_kill : Module_ir.t -> bool
val max_blocks : Module_ir.t -> int
val max_params : Module_ir.t -> int
val output_store_count : Module_ir.t -> int
val max_copy_chain : Module_ir.t -> int
val has_deep_extract : Module_ir.t -> bool
val has_unreachable_block : Module_ir.t -> bool
val has_select_on_bool : Module_ir.t -> bool
val has_undef : Module_ir.t -> bool
val loop_count : Module_ir.t -> int
(** Retreating edges (branches to earlier-or-equal syntactic positions) —
    loops, whether source-level or created by block reordering. *)

val max_empty_chain : Module_ir.t -> int
val has_constant_condition : Module_ir.t -> bool
val has_uniform_fed_condition : Module_ir.t -> bool

(** {1 The catalogue} *)

val all_crash_bugs : crash_spec list
val find_crash_bug : string -> crash_spec option
val all_miscompile_bugs : miscompile_spec list
val find_miscompile_bug : string -> miscompile_spec option

(** {1 Optimizer-hosted pass bugs}

    The third bug population: bugs living {e inside} optimizer passes,
    enabled per target through {!Passes.flags}.  Unlike crash and
    miscompile specs they have a ground-truth guilty pass, which the
    translation validator ({!Optimizer.run_tv}) must recover — the Table 4
    blame-attribution experiments key on this catalogue. *)

type pass_bug_spec = {
  pb_id : string;  (** the flag's field name, e.g. ["bug_fold_sub_zero"] *)
  pb_pass : Optimizer.pass_name;  (** ground-truth guilty pass *)
  pb_enable : Passes.flags -> Passes.flags;  (** set the flag *)
  pb_enabled : Passes.flags -> bool;  (** read the flag *)
}

val all_pass_bugs : pass_bug_spec list
val find_pass_bug : string -> pass_bug_spec option
