(** Pass pipelines: the [-O]-style standard optimization sequence and the
    per-target pipelines. *)

open Spirv_ir

type pass_name =
  | Const_fold
  | Copy_prop
  | Dce
  | Simplify_cfg
  | Phi_simplify
  | Cse
  | Inline
  | Store_forward
  | Dse
  | Hoist_invariant
[@@deriving show { with_path = false }, eq]

let run_pass flags m = function
  | Const_fold -> Passes.const_fold flags m
  | Copy_prop -> Passes.copy_prop m
  | Dce -> Passes.dce m
  | Simplify_cfg -> Passes.simplify_cfg flags m
  | Phi_simplify -> Passes.phi_simplify m
  | Cse -> Passes.cse m
  | Inline -> Passes.inline flags m
  | Store_forward -> Passes.store_forward flags m
  | Dse -> Passes.dse m
  | Hoist_invariant -> Passes.hoist_invariant flags m

let run ?(flags = Passes.no_bugs) pipeline m =
  List.fold_left (run_pass flags) m pipeline

(* Debug-mode pipeline: after every pass, re-validate the module and lint
   it through the same shared Dataflow analyses the fuzzer's contract
   checker uses.  A pass that produces an invalid or lint-dirty module is a
   compiler bug even when no backend happens to miscompile the result.
   Validation failures are recorded and the pipeline keeps going on the
   offending module, so one run reports every failing pass (the head of the
   list is the original culprit); a pass that crashes outright ends the
   run, since there is no module left to continue with. *)
exception Checked_crash of (pass_name * string) list

let run_checked ?(flags = Passes.no_bugs) pipeline m =
  try
    let m, rev_failures =
      List.fold_left
      (fun (m, failures) pass ->
        match run_pass flags m pass with
        | m' ->
            let failure =
              match Validate.check m' with
              | Error (e :: _) ->
                  Some (pass, "validate: " ^ Validate.error_to_string e)
              | Ok () | Error [] -> (
                  match Lint.errors (Lint.check_module m') with
                  | fd :: _ -> Some (pass, "lint: " ^ Lint.to_string fd)
                  | [] -> (
                      (* Memory-backed DSE soundness: every store the pass
                         deleted must be unobservable to the independent
                         access-path def-use analysis too (checked on the
                         input module, where the stores still exist) *)
                      match pass with
                      | Dse -> (
                          match Passes.dse_cross_check m with
                          | v :: _ -> Some (pass, "memory: " ^ v)
                          | [] -> None)
                      | _ -> None))
            in
            let failures =
              match failure with Some f -> f :: failures | None -> failures
            in
            (m', failures)
          | exception Opt_util.Compiler_crash signature ->
              raise (Checked_crash ((pass, "crash: " ^ signature) :: failures)))
        (m, []) pipeline
    in
    match List.rev rev_failures with
    | [] -> Ok m
    | failures -> Error failures
  with Checked_crash failures -> Error (List.rev failures)

(** The standard [-O] pipeline, run twice like spirv-opt's iterated
    optimization loop. *)
let standard =
  let once =
    [ Inline; Const_fold; Copy_prop; Simplify_cfg; Phi_simplify; Copy_prop;
      Store_forward; Copy_prop; Cse; Copy_prop; Dse; Dce ]
  in
  once @ once

(** Optimize a module with default (bug-free) flags — the "apply spirv-opt
    with the -O argument" step of the paper's test pipeline. *)
let optimize m : (Module_ir.t, string) result =
  match run standard m with
  | m' -> Ok m'
  | exception Opt_util.Compiler_crash signature -> Error signature

(* Translation-validated pipeline: run the validator between every pair of
   consecutive pass outputs and name the guilty pass of the first
   mismatch.  [check] defaults to the unmemoized Tv.check_pass; the
   harness engine substitutes its digest-memoized variant. *)
type tv_report = {
  tv_module : Module_ir.t;
  tv_steps : (pass_name * Tv.verdict) list;
  tv_guilty : pass_name option;
}

let run_tv ?(flags = Passes.no_bugs) ?(check = Tv.check_pass) pipeline m :
    (tv_report, string) result =
  try
    let m', rev_steps =
      List.fold_left
        (fun (m, steps) pass ->
          let m' = run_pass flags m pass in
          (* carry an unchanged module forward as the very same value, so
             its digest is reused by identity (Digest.of_module) *)
          let m' = if Module_ir.equal_exact m m' then m else m' in
          (m', (pass, check m m') :: steps))
        (m, []) pipeline
    in
    let tv_steps = List.rev rev_steps in
    let tv_guilty =
      List.find_map
        (function p, Tv.Mismatch _ -> Some p | _ -> None)
        tv_steps
    in
    Ok { tv_module = m'; tv_steps; tv_guilty }
  with Opt_util.Compiler_crash signature -> Error signature
