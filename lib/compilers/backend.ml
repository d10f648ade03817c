(** Running a test case on a target: the "compile and execute" box of
    Figure 1, in three stages.

    The front end checks its bug predicates on the module as submitted;
    the compile stage runs the optimizer pipeline (possibly crashing via
    injected optimizer bugs), checks the back-end predicates on the
    optimized module and validates it (catching the "emits illegal SPIR-V"
    bug class); the execute stage, for device targets, applies the
    miscompilation rewrites and executes on the fragment grid.  [run] is
    the three in sequence. *)

open Spirv_ir

type run_result =
  | Rendered of Image.t        (** device executed the module *)
  | Compiled_ok                (** tooling target, no execution *)
  | Crashed of string          (** crash signature *)

type stage = Front_end | Compile | Execute

let device_lost_prefix = "device lost"

(** The target's optimizer pipeline with its flags, an injected crash
    turned into [Error signature]: the reference for [compile]'s
    [optimize]. *)
let target_optimize (t : Target.t) (m : Module_ir.t) :
    (Module_ir.t, string) result =
  match Optimizer.run ~flags:t.Target.opt_flags t.Target.pipeline m with
  | optimized -> Ok optimized
  | exception Opt_util.Compiler_crash signature -> Error signature

(* the signature of the target's first crash bug of [phase], in roster
   order, that [fires] *)
let find_phase (t : Target.t) phase fires =
  List.find_map
    (fun id ->
      match Bug.find_crash_bug id with
      | Some spec when spec.Bug.phase = phase && fires spec ->
          Some spec.Bug.signature
      | _ -> None)
    t.Target.crash_bug_ids

let check_phase t phase m = find_phase t phase (fun spec -> spec.Bug.trigger m)

let front_end t m = check_phase t Bug.Before_opt m

let compile ?optimize ?(validate = Validate.check) (t : Target.t) m =
  let optimize =
    match optimize with Some f -> f | None -> target_optimize t
  in
  match optimize m with
  | Error signature -> Error signature
  | Ok optimized -> (
      match check_phase t Bug.After_opt optimized with
      | Some signature -> Error signature
      | None -> (
          match validate optimized with
          | Error (e :: _) ->
              Error
                ("optimizer emitted invalid module: " ^ Validate.error_to_string e)
          | Error [] -> Error "optimizer emitted invalid module"
          | Ok () -> Ok optimized))

let execute ?(render = fun m input -> Interp.render m input) (t : Target.t)
    optimized input =
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
    let lost detail = Crashed (device_lost_prefix ^ " (" ^ detail ^ ")") in
    match render corrupted input with
    | Ok img -> Rendered img
    | Error Interp.Step_limit_exceeded -> lost "timeout"
    | Error (Interp.Invalid_module _) ->
        (* wrong code emitted by a miscompilation bug can fault at
           execution time; real drivers report this as a device loss, with
           no more detail *)
        lost "fault while executing shader"
    | Error (Interp.Missing_uniform u) -> lost ("missing binding " ^ u)
  end

let run ?render ?validate ?optimize (t : Target.t) (m : Module_ir.t)
    (input : Input.t) : run_result =
  match front_end t m with
  | Some signature -> Crashed signature
  | None -> (
      match compile ?optimize ?validate t m with
      | Error signature -> Crashed signature
      | Ok optimized -> execute ?render t optimized input)

let stage_of_signature (t : Target.t) signature =
  if
    Option.is_some
      (find_phase t Bug.Before_opt (fun spec ->
           String.equal spec.Bug.signature signature))
  then Front_end
  else if String.starts_with ~prefix:device_lost_prefix signature then Execute
  else Compile
