(** The gfauto-analog test pipeline (section 3.2).

    A fuzzer configuration turns (reference, seed) into a variant module; the
    pipeline runs the variant on a target, detects crashes by signature and
    miscompilations by image comparison against the {e original} program run
    on the same target, and — when no bug is detected — optimizes the variant
    with the clean [-O] pipeline and tries again ("If no bug is detected,
    gfauto applies spirv-opt with the -O argument, then runs the optimized
    test, again checking to see whether a bug is triggered"). *)

open Spirv_ir

type tool = Spirv_fuzz_tool | Spirv_fuzz_simple | Glsl_fuzz_tool

let tool_name = function
  | Spirv_fuzz_tool -> "spirv-fuzz"
  | Spirv_fuzz_simple -> "spirv-fuzz-simple"
  | Glsl_fuzz_tool -> "glsl-fuzz"

let tool_of_name = function
  | "spirv-fuzz" -> Some Spirv_fuzz_tool
  | "spirv-fuzz-simple" -> Some Spirv_fuzz_simple
  | "glsl-fuzz" -> Some Glsl_fuzz_tool
  | _ -> None

type detection = {
  signature : Signature.t;
  via_opt : bool;  (** detected only on the additionally-optimized variant *)
}

(* Every compile-and-execute below flows through an explicit [Engine.t]
   (content-addressed run cache + baseline cache + instrumentation); there
   is deliberately no module-level mutable state in this file. *)

(** Compare a variant's run against the original's run on the same target.
    Returns a detection if the variant exposes a bug.  Crashes of the
    original mask that (target, reference) pair, as in practice. *)
let compare_runs ~original ~variant : detection option =
  match (original, variant) with
  | _, Compilers.Backend.Crashed signature -> Some { signature; via_opt = false }
  | Compilers.Backend.Rendered img0, Compilers.Backend.Rendered img1 ->
      if Image.equal img0 img1 then None
      else Some { signature = Signature.miscompilation; via_opt = false }
  | (Compilers.Backend.Crashed _ | Compilers.Backend.Compiled_ok),
    Compilers.Backend.Rendered _ ->
      None
  | _, Compilers.Backend.Compiled_ok -> None

(** Translation-validate the target's own optimizer pipeline (with the
    target's injected-bug flags) on a module, via the engine's memoized
    blame.  [Some signature] when some pass provably miscompiles — the
    pass-granular ["miscompile:<target>:<pass>"] bucket; [None] when every
    step is [Equivalent] or [Abstained] (abstention is never reported as a
    bug, DESIGN.md §8) or when a pass crashes (the crash signature is the
    dynamic oracle's business). *)
let tv_signature (engine : Engine.t) (t : Compilers.Target.t)
    (m : Module_ir.t) : Signature.t option =
  match Engine.tv_blame engine t m with
  | Ok (Some p) -> Some (Signature.miscompile ~target:t ~pass:(Some p))
  | Ok None | Error _ -> None

(** Run one variant module against one target, including the
    optimize-and-retry step.  All executions go through [engine].

    With [~tv:true] the translation validator runs alongside the image
    oracle: a dynamically-detected miscompilation is refined to a
    pass-granular signature (or blamed on the backend when the optimizer
    validates clean), and a TV mismatch with {e no} dynamic symptom is
    reported as a detection in its own right — which is how
    miscompilations become visible on [executes = false] targets. *)
let run_variant ?(tv = false) (engine : Engine.t) (t : Compilers.Target.t)
    ~ref_name ~(original : Module_ir.t) ?variant_input
    ~(variant : Module_ir.t) (input : Input.t) : detection option =
  let variant_input = Option.value ~default:input variant_input in
  let refine (d : detection) (m : Module_ir.t) : detection =
    if tv && Signature.is_miscompilation d.signature then
      match tv_signature engine t m with
      | Some s -> { d with signature = s }
      | None ->
          { d with signature = Signature.miscompile ~target:t ~pass:None }
    else d
  in
  let orig_run = Engine.baseline engine t ~ref_name original input in
  let var_run = Engine.run engine t variant variant_input in
  match compare_runs ~original:orig_run ~variant:var_run with
  | Some d -> Some (refine d variant)
  | None -> (
      match (if tv then tv_signature engine t variant else None) with
      | Some signature -> Some { signature; via_opt = false }
      | None -> (
          (* no bug: optimize the variant with the (engine-memoized) clean
             -O pipeline and re-run *)
          match Engine.optimize engine variant with
          | Error _ ->
              None (* the clean optimizer never crashes in our build *)
          | Ok optimized_variant -> (
              let var_run' =
                Engine.run engine t optimized_variant variant_input
              in
              match compare_runs ~original:orig_run ~variant:var_run' with
              | Some d -> Some { (refine d optimized_variant) with via_opt = true }
              | None -> (
                  match
                    (if tv then tv_signature engine t optimized_variant
                     else None)
                  with
                  | Some signature -> Some { signature; via_opt = true }
                  | None -> None))))

(* ------------------------------------------------------------------ *)
(* Variant generation per tool                                         *)

type generated = {
  gen_variant : Module_ir.t;
  gen_input : Input.t;
      (** the variant's input: transformations may extend it in sync with
          the module (AddUniform), so "execute both programs on their
          respective inputs" *)
  (* reduction payload: how to replay/reduce the variant *)
  gen_reduce :
    is_interesting:(Module_ir.t -> Input.t -> bool) ->
    [ `Spirv of Spirv_fuzz.Transformation.t list * Spirv_fuzz.Context.t
    | `Glsl of Glsl_like.Ast.program ];
  gen_transformation_count : int;
  gen_counters : (string * int * int) list;
      (** per-transformation-type (type_id, proposed, applied) tallies from
          the fuzzer's emitter; empty for the glsl-fuzz tool *)
}

let donors = lazy (List.map snd (Lazy.force Corpus.lowered_donors))

(** Force the lazily-lowered corpus before spawning domains: concurrently
    forcing a shared lazy from two domains raises [Lazy.Undefined]. *)
let warmup () =
  ignore (Lazy.force donors);
  ignore (Lazy.force Corpus.lowered_references)

let fuzz_config ?(check_contracts = false) ?(weights = []) ~recommendations ()
    =
  {
    Spirv_fuzz.Fuzzer.default_config with
    Spirv_fuzz.Fuzzer.donors = Lazy.force donors;
    Spirv_fuzz.Fuzzer.use_recommendations = recommendations;
    Spirv_fuzz.Fuzzer.check_contracts = check_contracts;
    Spirv_fuzz.Fuzzer.weights = weights;
  }

(* the generation memo's key: everything [Fuzzer.run] depends on but the
   donors, which are the corpus's for every caller *)
let generation_key tool ~check_contracts ~weights ~ref_module ~input ~seed =
  String.concat ":"
    [
      tool_name tool; Digest.of_module ref_module; Digest.of_input input;
      string_of_int seed; string_of_bool check_contracts;
      String.concat ","
        (List.map
           (fun (f, w) -> Printf.sprintf "%s=%d" (Spirv_fuzz.Registry.family_to_string f) w)
           weights);
    ]

(** Generate the variant a tool produces for (reference, seed).  For
    spirv-fuzz the reference is the lowered module; for glsl-fuzz the source
    program is fuzzed and then lowered.  [check_contracts] (spirv tools
    only) runs the {!Spirv_fuzz.Contract} checker after every applied
    transformation; it never changes which variant is generated.  With
    [engine], the spirv tools take the fuzzer's result from its
    generation memo ({!Engine.fuzz}). *)
let generate ?(check_contracts = false) ?(weights = []) ?engine (tool : tool)
    ~(ref_source : Glsl_like.Ast.program) ~(ref_module : Module_ir.t) ~seed
    ~input : generated =
  match tool with
  | Spirv_fuzz_tool | Spirv_fuzz_simple ->
      let ctx = Spirv_fuzz.Context.make ref_module input in
      let config =
        fuzz_config ~check_contracts ~weights
          ~recommendations:(tool = Spirv_fuzz_tool) ()
      in
      let run () = Spirv_fuzz.Fuzzer.run ~config ~seed ctx in
      let result =
        match engine with
        | None -> run ()
        | Some e ->
            Engine.fuzz e
              ~key:
                (generation_key tool ~check_contracts ~weights ~ref_module
                   ~input ~seed)
              run
      in
      {
        gen_variant = result.Spirv_fuzz.Fuzzer.final.Spirv_fuzz.Context.m;
        gen_input = result.Spirv_fuzz.Fuzzer.final.Spirv_fuzz.Context.input;
        gen_transformation_count = List.length result.Spirv_fuzz.Fuzzer.transformations;
        gen_counters = result.Spirv_fuzz.Fuzzer.counters;
        gen_reduce =
          (fun ~is_interesting ->
            let test (c : Spirv_fuzz.Context.t) =
              is_interesting c.Spirv_fuzz.Context.m c.Spirv_fuzz.Context.input
            in
            let r =
              Spirv_fuzz.Reducer.reduce ~original:ctx ~is_interesting:test
                result.Spirv_fuzz.Fuzzer.transformations
              (* the spirv-reduce analog: shrink surviving AddFunction bodies *)
              |> Spirv_fuzz.Reducer.shrink_add_functions ~is_interesting:test
            in
            `Spirv (r.Spirv_fuzz.Reducer.transformations, r.Spirv_fuzz.Reducer.reduced));
      }
  | Glsl_fuzz_tool ->
      let fuzzed = Glsl_like.Source_fuzzer.fuzz ~seed ref_source in
      let program = fuzzed.Glsl_like.Source_fuzzer.program in
      {
        gen_variant = Glsl_like.Lower.lower program;
        gen_input = input;
        gen_transformation_count = fuzzed.Glsl_like.Source_fuzzer.applied;
        gen_counters = [];
        gen_reduce =
          (fun ~is_interesting ->
            let test p = is_interesting (Glsl_like.Lower.lower p) input in
            let reduced, _ = Glsl_like.Source_reducer.reduce ~is_interesting:test program in
            `Glsl reduced);
      }

(** Interestingness test for reductions: the variant still produces the same
    signature on the target (crash signature match, or still-mismatching
    image for miscompilations) — section 3.4's interestingness tests.  When
    the detection came only after the clean [-O] step, a candidate that
    does not hold as submitted is tried again optimized.

    For a pass-blamed TV signature the test re-validates instead of
    re-rendering: the candidate is interesting iff the translation
    validator still blames the {e same} pass.  That keeps the reduced test
    case tied to the optimizer bug it witnesses, and it is completely
    input-independent.

    A crash signature is decided at the backend stage that can produce it
    ({!Engine.crashes_with}): a front-end signature by the front-end
    triggers alone, another compile-time one without the render. *)
let interestingness (engine : Engine.t) (t : Compilers.Target.t) ~ref_name
    ~(original : Module_ir.t) ~(detection : detection) input (m : Module_ir.t)
    (m_input : Input.t) : bool =
  let orig_run = Engine.baseline engine t ~ref_name original input in
  let with_or_without_opt holds =
    holds m
    || detection.via_opt
       &&
       match Engine.optimize engine m with
       | Ok optimized -> holds optimized
       | Error _ -> false
  in
  if Option.is_some (Signature.blamed_pass detection.signature) then
    with_or_without_opt (fun candidate ->
        match tv_signature engine t candidate with
        | Some s -> String.equal s detection.signature
        | None -> false)
  else if Signature.is_miscompilation detection.signature then
    with_or_without_opt (fun candidate ->
        match (orig_run, Engine.run engine t candidate m_input) with
        | Compilers.Backend.Rendered img0, Compilers.Backend.Rendered img1 ->
            not (Image.equal img0 img1)
        | _ -> false)
  else
    with_or_without_opt (fun candidate ->
        Engine.crashes_with engine t candidate m_input detection.signature)
