(** Running a test case on a target — the "compile and execute" box of
    Figure 1, split into three stages.

    Order of play: the {b front end} checks its crash predicates on the
    module as submitted; the {b compile} stage runs the target's optimizer
    pipeline (possibly crashing via injected optimizer bugs), checks the
    back-end crash predicates on the optimized module and validates the
    optimizer's output (the "emits illegal SPIR-V" bug class surfaces here
    as a crash signature); then, for device targets, the {b execute} stage
    applies the target's miscompilation rewrites and executes the result
    over the input's fragment grid.  {!run} is the three in sequence.

    Each stage produces its own crash signatures: the front end only the
    signatures of the target's [Before_opt] bugs, the execute stage only
    ["device lost (...)"] ones.  {!stage_of_signature} names the one stage
    that can produce a given signature, so a caller that only asks
    whether a module crashes with that signature may stop there (DESIGN.md
    §5). *)

open Spirv_ir

type run_result =
  | Rendered of Image.t  (** device targets: the image produced *)
  | Compiled_ok          (** tooling targets (spirv-opt): no execution *)
  | Crashed of string    (** a crash signature *)

val target_optimize : Target.t -> Module_ir.t -> (Module_ir.t, string) result
(** The target's optimizer pipeline under its [opt_flags]; an injected
    crash bug firing mid-pipeline gives [Error signature].  A deterministic
    function of {!Target.config_key} and the module. *)

type stage =
  | Front_end  (** the target's [Before_opt] crash predicates *)
  | Compile  (** optimizer, [After_opt] predicates, validation *)
  | Execute  (** miscompilation rewrites and render *)

val front_end : Target.t -> Module_ir.t -> string option
[@@alert unmemoized_run
  "runs in the harness flow through Harness.Engine (memo, store and \
   compiled kernel)"]
(** The signature of the first of the target's [Before_opt] crash bugs
    (in roster order) whose trigger fires on the submitted module. *)

val compile :
  ?optimize:(Module_ir.t -> (Module_ir.t, string) result) ->
  ?validate:(Module_ir.t -> (unit, Validate.error list) result) ->
  Target.t ->
  Module_ir.t ->
  (Module_ir.t, string) result
[@@alert unmemoized_run
  "runs in the harness flow through Harness.Engine (memo, store and \
   compiled kernel)"]
(** The compile stage of a module that passed {!front_end}: the optimized
    module, or the crash signature of an optimizer crash, of the first
    [After_opt] bug whose trigger fires on the optimized module, or of
    invalid optimizer output (["optimizer emitted invalid module: ..."]).

    [optimize] defaults to [target_optimize t]; the harness engine
    substitutes a memo keyed by {!Target.config_key} and module digest,
    and any substitute must return what [target_optimize t] returns.
    [validate] defaults to {!Validate.check}; a substitute (the engine
    times it) must return what [Validate.check] returns. *)

val run :
  ?render:(Module_ir.t -> Input.t -> (Image.t, Interp.trap) result) ->
  ?validate:(Module_ir.t -> (unit, Validate.error list) result) ->
  ?optimize:(Module_ir.t -> (Module_ir.t, string) result) ->
  Target.t ->
  Module_ir.t ->
  Input.t ->
  run_result
[@@alert unmemoized_run
  "runs in the harness flow through Harness.Engine.run (memo, store and \
   compiled kernel)"]
(** {!front_end}, then {!compile} with [optimize] and [validate], then the
    execute stage: [Compiled_ok] on a tooling target; otherwise the
    target's miscompilation rewrites, then [render] over the fragment
    grid, a trap becoming a ["device lost (...)"] crash.  The first crash
    is the result.  [unmemoized_run] is an error in [lib/harness], where
    [Harness.Engine] is the one caller of this function and of the two
    stages above.

    [render] defaults to {!Interp.render}; the harness engine substitutes
    the flat compiled kernel ({!Compile.render_batch} behind a render
    memo), and any substitute must be observably bit-identical to the
    reference interpreter. *)

val stage_of_signature : Target.t -> string -> stage
(** The one stage of {!run} on the target that can produce the crash
    signature: [Front_end] for the signature of a [Before_opt] bug in the
    target's roster, [Execute] for a ["device lost (...)"] signature,
    [Compile] for any other.  Exact because the catalogue's crash
    signatures are pairwise distinct, none of them starts with
    ["device lost"] or ["optimizer emitted invalid module"], and no
    optimizer crash of a pass bug reuses a [Before_opt] one or starts with
    ["device lost"] (the test suite checks all three): [run t m i] is
    [Crashed s] iff the stages up to [stage_of_signature t s] crash with
    [s]. *)
