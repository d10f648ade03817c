(** The transformation-contract checker (debug mode).

    The paper's whole formulation rests on two contracts (Definitions 2.4
    and 3.1): a transformation may only be applied when its {e
    precondition} holds, and applying it must preserve the module's
    validity and rendered image.  Every transformation type promises both,
    so this module turns every fuzzing campaign into a self-test of those
    contracts: after each applied transformation it re-asserts that
    {!Rules.precondition} held on the pre-application context, that the
    module still validates, that the {!Spirv_ir.Lint} error rules report
    nothing new, and that the variant still renders the original image.

    {b The checker consumes no randomness.}  Every check is a pure function
    of the before/after contexts, so a campaign records bit-identical
    transformation streams with checking on or off — reductions and
    deduplications of a hit found under [--check-contracts] replay exactly
    without it (see DESIGN.md §6). *)

open Spirv_ir

type violation = {
  v_transformation : string;  (** {!Transformation.type_id} of the culprit *)
  v_stage : string;  (** ["precondition"], ["validate"], ["lint"] or ["image"] *)
  v_detail : string;
}

exception Violation of violation

let violation_to_string v =
  Printf.sprintf "contract violation: %s failed the %s check: %s"
    v.v_transformation v.v_stage v.v_detail

let () =
  Printexc.register_printer (function
    | Violation v -> Some (violation_to_string v)
    | _ -> None)

type t = {
  baseline_image : Image.t option;
      (* None when the original render traps; image checks are skipped *)
  baseline_lint : (string, unit) Hashtbl.t;  (* fingerprints of lint errors *)
  mutable checked : int;
}

let lint_fingerprints m =
  List.map Lint.to_string (Lint.errors (Lint.check_module m))

let create (ctx : Context.t) =
  let baseline_image =
    match Interp.render ctx.Context.m ctx.Context.input with
    | Ok img -> Some img
    | Error _ -> None
  in
  let baseline_lint = Hashtbl.create 16 in
  List.iter
    (fun fp -> Hashtbl.replace baseline_lint fp ())
    (lint_fingerprints ctx.Context.m);
  { baseline_image; baseline_lint; checked = 0 }

let checked t = t.checked

let check t ~(before : Context.t) (tr : Transformation.t)
    ~(after : Context.t) =
  let name = Transformation.type_id tr in
  let fail stage detail =
    raise (Violation { v_transformation = name; v_stage = stage; v_detail = detail })
  in
  (* 1. the declared precondition must have held on the pre-application
     context — [Pass.emit] guarantees this for fuzzer-proposed
     transformations, so a failure here means a precondition that is not a
     pure function of the context, or an apply path that bypassed it *)
  if not (Rules.precondition before tr) then
    fail "precondition" "the declared precondition does not hold on the \
                         pre-application context";
  (* 2. the transformed module must still validate *)
  (match Validate.check after.Context.m with
  | Ok () -> ()
  | Error (e :: _) -> fail "validate" (Validate.error_to_string e)
  | Error [] -> ());
  (* 3. lint (same shared Dataflow analyses) must report no new errors *)
  List.iter
    (fun fp -> if not (Hashtbl.mem t.baseline_lint fp) then fail "lint" fp)
    (lint_fingerprints after.Context.m);
  (* 4. the rendered image must be unchanged from the original — note
     [after]'s own input: AddUniform extends module and input in sync *)
  (match t.baseline_image with
  | None -> ()
  | Some base -> (
      match Interp.render after.Context.m after.Context.input with
      | Ok img ->
          if not (Image.equal base img) then
            fail "image" "the rendered image differs from the original"
      | Error trap ->
          fail "image" ("the variant render trapped: " ^ Interp.trap_to_string trap)));
  t.checked <- t.checked + 1
