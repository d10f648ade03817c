(** Pass pipelines for the compilers under test.

    [standard] is the [-O]-style sequence (run twice, like spirv-opt's
    iterated optimization loop); each of the nine targets combines a
    pipeline with a roster of injected bugs ({!Target}). *)

open Spirv_ir

type pass_name =
  | Const_fold      (** constant folding, incl. composite extraction *)
  | Copy_prop       (** copy propagation through [OpCopyObject] chains *)
  | Dce             (** dead pure-instruction elimination, to fixpoint *)
  | Simplify_cfg
      (** constant-branch folding, unreachable-block removal,
          straight-line block merging *)
  | Phi_simplify    (** single-entry and all-same φs become copies *)
  | Cse             (** block-local common-subexpression elimination *)
  | Inline          (** single-block callee inlining (honours DontInline) *)
  | Store_forward   (** block-local store-to-load forwarding *)
  | Dse             (** stores to never-read local variables *)
  | Hoist_invariant
      (** loop-invariant code motion to the preheader ({!Passes}); kept
          out of [standard] so the [-O] baseline is unchanged *)

val pp_pass_name : Format.formatter -> pass_name -> unit
val show_pass_name : pass_name -> string
val equal_pass_name : pass_name -> pass_name -> bool

val run_pass : Passes.flags -> Module_ir.t -> pass_name -> Module_ir.t

val run : ?flags:Passes.flags -> pass_name list -> Module_ir.t -> Module_ir.t
(** Run a pipeline.  With the default (bug-free) flags every pass is
    semantics-preserving; the test suites check this on the corpus, on
    random modules and on fuzzed variants.
    @raise Opt_util.Compiler_crash when an enabled injected bug fires. *)

val run_checked :
  ?flags:Passes.flags ->
  pass_name list ->
  Module_ir.t ->
  (Module_ir.t, (pass_name * string) list) result
(** Debug-mode pipeline: after every pass, re-validate the module and run
    the {!Spirv_ir.Lint} error rules — both built on the shared
    {!Spirv_ir.Dataflow} analyses — and report {e every} pass whose output
    is invalid or lint-dirty (the pipeline keeps going on the offending
    module; the head of the list is the original culprit).  A pass that
    crashes outright ends the run with a ["crash: ..."] entry.  With clean
    flags this always returns [Ok]; with an injected bug enabled it names
    the offending pass (tested). *)

type tv_report = {
  tv_module : Module_ir.t;  (** the pipeline's final output *)
  tv_steps : (pass_name * Tv.verdict) list;  (** one verdict per pass run *)
  tv_guilty : pass_name option;  (** the first pass with a [Mismatch] *)
}

val run_tv :
  ?flags:Passes.flags ->
  ?check:(Module_ir.t -> Module_ir.t -> Tv.verdict) ->
  pass_name list ->
  Module_ir.t ->
  (tv_report, string) result
(** Translation-validated pipeline: run every pass and validate each
    before/after pair with [check] (default {!Tv.check_pass}; the harness
    engine passes its digest-memoized variant), naming the guilty pass of
    the first mismatch.  A pass whose output is {!Module_ir.equal_exact}
    to its input is carried forward as the input value itself, so [check]
    sees a physically equal pair and digests are reused by identity;
    [check] still runs on every step.  [Error] carries a crash signature
    when an injected crash bug fires mid-pipeline. *)

val standard : pass_name list
(** The [-O] pipeline. *)

val optimize : Module_ir.t -> (Module_ir.t, string) result
(** [run standard] with clean flags, catching crashes — the "apply spirv-opt
    with the -O argument" step of the paper's test pipeline. *)
