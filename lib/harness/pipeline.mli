(** The gfauto-analog test pipeline (section 3.2) — the harness's public
    surface for turning (tool, reference, seed) into a variant and testing
    it on a target.

    This interface is what {!Experiments}, the campaign service and the
    CLI build on: a fuzzer configuration turns (reference, seed) into a
    variant module; the pipeline runs the variant on a target, detects
    crashes by signature and miscompilations by image comparison against
    the {e original} program run on the same target, and — when no bug is
    detected — optimizes the variant with the clean [-O] pipeline and
    tries again.  Every compile-and-execute flows through an explicit
    {!Engine.t}; there is deliberately no module-level mutable state. *)

open Spirv_ir

(** {1 Tool configurations} *)

type tool = Spirv_fuzz_tool | Spirv_fuzz_simple | Glsl_fuzz_tool

val tool_name : tool -> string
(** ["spirv-fuzz"], ["spirv-fuzz-simple"], ["glsl-fuzz"] — the stable
    names used by the CLI, the campaign journal header and the service's
    wire protocol. *)

val tool_of_name : string -> tool option

(** {1 Detections} *)

type detection = {
  signature : Signature.t;
  via_opt : bool;  (** detected only on the additionally-optimized variant *)
}

val tv_signature : Engine.t -> Compilers.Target.t -> Module_ir.t -> Signature.t option
(** The translation validator's verdict on the target's own optimizer
    pipeline for a module, through {!Engine.tv_blame}:
    [Some "miscompile:<target>:<pass>"] when a pass provably miscompiles;
    [None] when no step mismatches or a pass crashes. *)

val run_variant :
  ?tv:bool ->
  Engine.t ->
  Compilers.Target.t ->
  ref_name:string ->
  original:Module_ir.t ->
  ?variant_input:Input.t ->
  variant:Module_ir.t ->
  Input.t ->
  detection option
(** Run one variant module against one target, including the
    optimize-and-retry step.  All executions go through the engine.  With
    [~tv:true] the translation validator runs alongside the image oracle:
    a dynamically-detected miscompilation is refined to a pass-granular
    signature (or blamed on the backend when the optimizer validates
    clean), and a TV mismatch with no dynamic symptom is reported as a
    detection in its own right — which is how miscompilations become
    visible on non-executing targets. *)

(** {1 Variant generation} *)

type generated = {
  gen_variant : Module_ir.t;
  gen_input : Input.t;
      (** the variant's input: transformations may extend it in sync with
          the module (AddUniform), so "execute both programs on their
          respective inputs" *)
  gen_reduce :
    is_interesting:(Module_ir.t -> Input.t -> bool) ->
    [ `Spirv of Spirv_fuzz.Transformation.t list * Spirv_fuzz.Context.t
    | `Glsl of Glsl_like.Ast.program ];
      (** reduction payload: how to replay/reduce the variant *)
  gen_transformation_count : int;
  gen_counters : (string * int * int) list;
      (** per-transformation-type (type_id, proposed, applied) tallies from
          the fuzzer's emitter; empty for the glsl-fuzz tool *)
}

val generate :
  ?check_contracts:bool ->
  ?weights:(Spirv_fuzz.Registry.family * int) list ->
  ?engine:Engine.t ->
  tool ->
  ref_source:Glsl_like.Ast.program ->
  ref_module:Module_ir.t ->
  seed:int ->
  input:Input.t ->
  generated
(** Generate the variant a tool produces for (reference, seed).  For
    spirv-fuzz the reference is the lowered module; for glsl-fuzz the
    source program is fuzzed and then lowered.  [check_contracts] (spirv
    tools only) runs the {!Spirv_fuzz.Contract} checker after every
    applied transformation; it never changes which variant is generated.
    With [engine], the spirv tools take the fuzzer's result from the
    engine's generation memo ({!Engine.fuzz}), keyed by the tool, the
    digests of [ref_module] and [input], the seed and the configuration;
    glsl-fuzz regenerates every time. *)

val warmup : unit -> unit
(** Force the lazily-lowered corpus before spawning domains: concurrently
    forcing a shared lazy from two domains raises [Lazy.Undefined]. *)

(** {1 Reduction interestingness} *)

val interestingness :
  Engine.t ->
  Compilers.Target.t ->
  ref_name:string ->
  original:Module_ir.t ->
  detection:detection ->
  Input.t ->
  Module_ir.t ->
  Input.t ->
  bool
(** Interestingness test for reductions: the variant still produces the
    same signature on the target (crash signature match, or
    still-mismatching image for miscompilations) — section 3.4.  For a
    pass-blamed TV signature the test re-validates instead of
    re-rendering: the candidate is interesting iff the translation
    validator still blames the {e same} pass.  A crash signature is
    decided by {!Engine.crashes_with} at the backend stage that can
    produce it: a front-end signature by the front-end triggers alone,
    any other compile-time signature without the render, a
    ["device lost (...)"] one by a full {!Engine.run}.  When
    [detection.via_opt], a candidate that does not hold as submitted is
    tried again after the clean [-O] step ({!Engine.optimize}). *)
