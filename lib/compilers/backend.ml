(** Running a test case on a target: the "compile and execute" box of
    Figure 1.

    The front-end bug predicates are checked on the module as submitted;
    the optimizer pipeline runs (possibly crashing via injected optimizer
    bugs); back-end predicates are checked on the optimized module; the
    optimizer's output is validated (catching the "emits illegal SPIR-V" bug
    class); and, for device targets, the miscompilation rewrites are applied
    before executing on the fragment grid. *)

open Spirv_ir

type run_result =
  | Rendered of Image.t        (** device executed the module *)
  | Compiled_ok                (** tooling target, no execution *)
  | Crashed of string          (** crash signature *)

(** The target's optimizer pipeline with its flags, an injected crash
    turned into [Error signature]: the reference for [run]'s [optimize]. *)
let target_optimize (t : Target.t) (m : Module_ir.t) :
    (Module_ir.t, string) result =
  match Optimizer.run ~flags:t.Target.opt_flags t.Target.pipeline m with
  | optimized -> Ok optimized
  | exception Opt_util.Compiler_crash signature -> Error signature

(** Ground truth for experiments: which injected bug produced a crash
    signature (None for real faults such as validation failures, which get
    a derived signature).

    [render] is the execution kernel applied to the post-miscompile module;
    it defaults to the reference interpreter.  The harness engine passes
    the flat compiled kernel here (with its per-digest program cache) —
    any substitute must be observably bit-identical to [Interp.render].
    [optimize] likewise defaults to [target_optimize t]; the engine passes
    its memoized version. *)
let run ?(render = fun m input -> Interp.render m input) ?optimize
    (t : Target.t) (m : Module_ir.t) (input : Input.t) : run_result =
  let optimize =
    match optimize with Some f -> f | None -> target_optimize t
  in
  let check_phase phase m =
    List.find_map
      (fun id ->
        match Bug.find_crash_bug id with
        | Some spec when spec.Bug.phase = phase && spec.Bug.trigger m ->
            Some spec.Bug.signature
        | _ -> None)
      t.Target.crash_bug_ids
  in
  match check_phase Bug.Before_opt m with
  | Some signature -> Crashed signature
  | None -> (
      match optimize m with
      | Error signature -> Crashed signature
      | Ok optimized -> (
          match check_phase Bug.After_opt optimized with
          | Some signature -> Crashed signature
          | None -> (
              match Validate.check optimized with
              | Error (e :: _) ->
                  Crashed
                    ("optimizer emitted invalid module: " ^ Validate.error_to_string e)
              | Error [] -> Crashed "optimizer emitted invalid module"
              | Ok () ->
                  if not t.Target.executes then Compiled_ok
                  else begin
                    let corrupted =
                      List.fold_left
                        (fun m id ->
                          match Bug.find_miscompile_bug id with
                          | Some spec -> spec.Bug.rewrite m
                          | None -> m)
                        optimized t.Target.miscompile_bug_ids
                    in
                    match render corrupted input with
                    | Ok img -> Rendered img
                    | Error Interp.Step_limit_exceeded ->
                        Crashed "device lost (timeout)"
                    | Error (Interp.Invalid_module _) ->
                        (* wrong code emitted by a miscompilation bug can
                           fault at execution time; real drivers report this
                           as a device loss, with no more detail *)
                        Crashed "device lost (fault while executing shader)"
                    | Error (Interp.Missing_uniform u) ->
                        Crashed ("device lost (missing binding " ^ u ^ ")")
                  end)))
