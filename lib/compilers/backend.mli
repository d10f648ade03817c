(** Running a test case on a target — the "compile and execute" box of
    Figure 1.

    Order of play: front-end crash predicates on the module as submitted;
    the target's optimizer pipeline (possibly crashing via injected
    optimizer bugs); back-end crash predicates on the optimized module;
    validation of the optimizer's output (the "emits illegal SPIR-V" bug
    class surfaces here as a crash signature); then, for device targets,
    the target's miscompilation rewrites are applied and the result executed
    over the input's fragment grid. *)

open Spirv_ir

type run_result =
  | Rendered of Image.t  (** device targets: the image produced *)
  | Compiled_ok          (** tooling targets (spirv-opt): no execution *)
  | Crashed of string    (** a crash signature *)

val target_optimize : Target.t -> Module_ir.t -> (Module_ir.t, string) result
(** The target's optimizer pipeline under its [opt_flags]; an injected
    crash bug firing mid-pipeline gives [Error signature].  A deterministic
    function of {!Target.config_key} and the module. *)

val run :
  ?render:(Module_ir.t -> Input.t -> (Image.t, Interp.trap) result) ->
  ?optimize:(Module_ir.t -> (Module_ir.t, string) result) ->
  Target.t ->
  Module_ir.t ->
  Input.t ->
  run_result
[@@alert unmemoized_run
  "runs in the harness flow through Harness.Engine.run (memo, store and \
   compiled kernel)"]
(** [unmemoized_run] is an error in [lib/harness], where
    [Harness.Engine.run] is the one caller.

    [render] executes the post-miscompile module over the fragment grid;
    defaults to {!Interp.render}.  The harness engine substitutes the flat
    compiled kernel ({!Compile.render_batch} behind a per-digest program
    cache); any substitute must be observably bit-identical to the
    reference interpreter.

    [optimize] runs the target's optimizer on the submitted module;
    defaults to [target_optimize t].  The harness engine substitutes a
    memo keyed by {!Target.config_key} and module digest; any substitute
    must return what [target_optimize t] returns. *)
