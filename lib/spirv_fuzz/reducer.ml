(** The spirv-fuzz reducer (section 3.4): delta debugging over the recorded
    transformation sequence, replaying candidate subsequences from the
    original context and keeping those that still satisfy the
    interestingness test. *)

open Spirv_ir

(* Checkpointed replay.  Replay is a left fold over the immutable
   [Context.t] ([Lang.replay] is [Spec.Apply.sequence_ctx]), so
   [replay (p @ s) = fold s (replay p)]: a sequence that shares a prefix
   with one already replayed only folds what follows that prefix.  A
   checkpoint list holds, per element of the last replayed sequence, the
   transformation and the context after it.  A candidate's prefix is
   matched element by element by physical equality — ddmin's candidates
   are the kept sequence with one chunk left out, so they share the
   kept sequence's values — and a structurally equal but distinct value
   ends the shared prefix, which is always safe. *)
type checkpoints = {
  original : Context.t;
  steps : (Transformation.t * Context.t) list;  (** in sequence order *)
  final : Context.t;  (** the context after the last step *)
}

let start original = { original; steps = []; final = original }

let context cps = cps.final

let of_steps original steps =
  { original; steps; final = List.fold_left (fun _ (_, ctx) -> ctx) original steps }

(* fold [ts] from [ctx], recording a checkpoint after each element *)
let extend ctx ts =
  let _, rev =
    List.fold_left
      (fun (ctx, acc) t ->
        let ctx = Lang.replay ctx [ t ] in
        (ctx, (t, ctx) :: acc))
      (ctx, []) ts
  in
  List.rev rev

let replay_from cps seq =
  let rec shared ctx rev_prefix steps seq =
    match (steps, seq) with
    | (t', after) :: steps, t :: seq when t == t' ->
        shared after ((t, after) :: rev_prefix) steps seq
    | _ -> List.rev_append rev_prefix (extend ctx seq)
  in
  of_steps cps.original (shared cps.original [] cps.steps seq)

type result = {
  transformations : Transformation.t list;  (** the 1-minimal subsequence *)
  reduced : Context.t;  (** original context with the subsequence applied *)
  stats : Tbct.Reducer.stats;
  checkpoints : checkpoints;  (** for [transformations] *)
}

(** [reduce ~original ~is_interesting ts] requires that the full sequence is
    interesting (i.e. the variant it produces triggers the bug).  The
    interestingness test receives the replayed context.

    The generic reducer only ever keeps the last interesting candidate,
    so the checkpoints of that candidate are the base every later probe
    is matched against.

    The instruction-count delta between [original]'s module and
    [reduced]'s module is the reduction-quality measure of section 4.2. *)
let reduce ~(original : Context.t) ~is_interesting ts =
  let kept = ref (start original) in
  let test seq =
    let cps = replay_from !kept seq in
    let interesting = is_interesting cps.final in
    if interesting then kept := cps;
    interesting
  in
  let transformations, stats = Tbct.Reducer.reduce ~is_interesting:test ts in
  (* [transformations] is the last interesting candidate: every element
     matches, nothing is applied again *)
  let checkpoints = replay_from !kept transformations in
  { transformations; reduced = checkpoints.final; stats; checkpoints }

(* ------------------------------------------------------------------ *)
(* The spirv-reduce analog (section 3.4): "After delta debugging, the
   reducer applies spirv-reduce to any remaining AddFunction
   transformations in an attempt to simplify their associated functions".
   AddFunction is the one transformation that is hard to split into smaller
   transformations, so its donated function bodies are shrunk directly:
   delta debugging over the body's instructions, testing that the module
   still validates and the interestingness test still passes.  Each test
   folds the candidate from [before], the checkpointed context in front of
   the AddFunction, and rejects it unless the shrunk function is then
   present and validates, as spirv-fuzz's own AddFunction applicability
   check does: a body that lost a definition may not validate, and one
   that stores through a lost local variable does not apply at all.  Only
   then is the suffix folded, so every context its preconditions see
   validates, which the local validation of MoveBlockDown and
   ReplaceBranchWithKill ({!Rules.precondition}) relies on. *)

let shrink_function_payload ~is_interesting ~before ~suffix
    (p : Transformation.add_function_payload) =
  let body_blocks = p.Transformation.af_function.Func.blocks in
  (* atoms: (block index, instruction index) pairs *)
  let atoms =
    List.concat
      (List.mapi
         (fun bi (b : Block.t) -> List.mapi (fun ii _ -> (bi, ii)) b.Block.instrs)
         body_blocks)
  in
  let payload_with kept_atoms =
    let blocks =
      List.mapi
        (fun bi (b : Block.t) ->
          {
            b with
            Block.instrs =
              List.filteri (fun ii _ -> List.mem (bi, ii) kept_atoms) b.Block.instrs;
          })
        body_blocks
    in
    {
      p with
      Transformation.af_function = { p.Transformation.af_function with Func.blocks = blocks };
    }
  in
  let fn = p.Transformation.af_function.Func.id in
  let test kept_atoms =
    let candidate = payload_with kept_atoms in
    let added = Lang.replay before [ Transformation.Add_function candidate ] in
    Validate.function_is_valid added.Context.m fn
    &&
    let ctx = Lang.replay added suffix in
    Validate.is_valid ctx.Context.m && is_interesting ctx
  in
  if not (test atoms) then None (* shrinking unavailable: keep the original *)
  else
    let kept, _ = Tbct.Reducer.reduce ~is_interesting:test atoms in
    Some (payload_with kept)

(** Post-process a 1-minimal sequence, shrinking the function bodies of any
    surviving AddFunction transformations while the test keeps passing.
    The prefix in front of each AddFunction comes from the checkpoints;
    only a shrunk AddFunction and what follows it are folded again. *)
let shrink_add_functions ~is_interesting (r : result) =
  let rec go ctx rev_steps = function
    | [] -> List.rev rev_steps
    | ((Transformation.Add_function p, after) as step) :: rest -> (
        let suffix = List.map fst rest in
        match shrink_function_payload ~is_interesting ~before:ctx ~suffix p with
        | None -> go after (step :: rev_steps) rest
        | Some shrunk ->
            let t = Transformation.Add_function shrunk in
            let after = Lang.replay ctx [ t ] in
            go after ((t, after) :: rev_steps) (extend after suffix))
    | ((_, after) as step) :: rest -> go after (step :: rev_steps) rest
  in
  let steps = go r.checkpoints.original [] r.checkpoints.steps in
  let checkpoints = of_steps r.checkpoints.original steps in
  {
    r with
    transformations = List.map fst steps;
    reduced = checkpoints.final;
    checkpoints;
  }

(** Size delta (in instructions) between the original module and a reduced
    variant — "the difference between the number of instructions in the
    original SPIR-V module and the reduced variant SPIR-V module". *)
let delta_size ~(original : Context.t) (reduced : Context.t) =
  Module_ir.instruction_count reduced.Context.m
  - Module_ir.instruction_count original.Context.m

(** The textual delta (for bug reports, cf. Figure 3). *)
let delta_listing ~(original : Context.t) (reduced : Context.t) =
  Disasm.diff_to_string original.Context.m reduced.Context.m
