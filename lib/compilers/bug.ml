(** Injected compiler bugs.

    Each of the 9 targets (Table 2) carries a roster of latent bugs.  Crash
    bugs are structural predicates over the module being compiled; when one
    fires the "compiler" aborts with a stable crash signature (what gfauto's
    signature extraction would recover from a crash report).  Miscompilation
    bugs are rewrites applied to the optimized module before execution —
    wrong code emitted for particular program shapes.

    Triggers are chosen to be reachable from the transformations the fuzzers
    apply (dead blocks, φ-nodes, OpKill, block reordering, uniform
    obfuscation, ...) while being absent from the lowered reference corpus,
    mirroring how real driver bugs hide in paths that everyday shaders never
    exercise. *)

open Spirv_ir

type phase =
  | Before_opt  (** checked on the module as submitted (front-end bugs) *)
  | After_opt   (** checked on the optimized module (back-end bugs) *)

type crash_spec = {
  bug_id : string;
  signature : string;
  phase : phase;
  trigger : Module_ir.t -> bool;
}

type miscompile_spec = {
  mc_bug_id : string;
  rewrite : Module_ir.t -> Module_ir.t;
      (** the input itself ([==]) when the shape is absent *)
}

(* ------------------------------------------------------------------ *)
(* Structural probes                                                   *)

let exists_function m p = List.exists p m.Module_ir.functions

let exists_block m p =
  exists_function m (fun (f : Func.t) -> List.exists (p f) f.Func.blocks)

let exists_instr m p =
  exists_block m (fun _ (b : Block.t) -> List.exists p b.Block.instrs)

(* a call to a function transplanted from a donor module (AddFunction names
   them "*_donated"): drivers with lazy module linking mishandle such
   late-bound functions *)
let has_donated_call m =
  exists_instr m (fun (i : Instr.t) ->
      match i.Instr.op with
      | Instr.FunctionCall (callee, _) -> (
          match Module_ir.find_function m callee with
          | Some g ->
              let n = g.Func.name and suffix = "_donated" in
              String.length n >= String.length suffix
              && String.sub n (String.length n - String.length suffix)
                   (String.length suffix)
                 = suffix
          | None -> false)
      | _ -> false)

let has_dontinline_call m =
  exists_instr m (fun (i : Instr.t) ->
      match i.Instr.op with
      | Instr.FunctionCall (callee, _) -> (
          match Module_ir.find_function m callee with
          | Some g -> Func.equal_control g.Func.control Func.DontInline
          | None -> false)
      | _ -> false)

let max_phi_arity m =
  List.fold_left
    (fun acc (f : Func.t) ->
      List.fold_left
        (fun acc (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Phi inc -> max acc (List.length inc)
          | _ -> acc)
        acc (Func.all_instrs f))
    0 m.Module_ir.functions

let has_kill m =
  exists_block m (fun _ (b : Block.t) -> b.Block.terminator = Block.Kill)

let max_blocks m =
  List.fold_left
    (fun acc (f : Func.t) -> max acc (List.length f.Func.blocks))
    0 m.Module_ir.functions

let max_params m =
  List.fold_left
    (fun acc (f : Func.t) -> max acc (List.length f.Func.params))
    0 m.Module_ir.functions

let output_store_count m =
  let is_output_ptr id =
    match Module_ir.type_of_id m id with
    | Some ty -> (
        match Module_ir.find_type m ty with
        | Some (Ty.Pointer (Ty.Output, _)) -> true
        | _ -> false)
    | None -> false
  in
  List.fold_left
    (fun acc (f : Func.t) ->
      max acc
        (List.length
           (List.filter
              (fun (i : Instr.t) ->
                match i.Instr.op with
                | Instr.Store (p, _) -> is_output_ptr p
                | _ -> false)
              (Func.all_instrs f))))
    0 m.Module_ir.functions

let max_copy_chain m =
  let source = Hashtbl.create 16 in
  List.iter
    (fun (f : Func.t) ->
      List.iter
        (fun (i : Instr.t) ->
          match (i.Instr.result, i.Instr.op) with
          | Some r, Instr.CopyObject x -> Hashtbl.replace source r x
          | _ -> ())
        (Func.all_instrs f))
    m.Module_ir.functions;
  Hashtbl.fold
    (fun r _ acc ->
      let rec depth id n =
        if n > 64 then n
        else match Hashtbl.find_opt source id with Some x -> depth x (n + 1) | None -> n
      in
      max acc (depth r 0))
    source 0

let has_deep_extract m =
  exists_instr m (fun (i : Instr.t) ->
      match i.Instr.op with
      | Instr.CompositeExtract (_, path) -> List.length path >= 2
      | Instr.CompositeInsert (_, _, path) -> List.length path >= 2
      | _ -> false)

let has_unreachable_block m =
  exists_function m (fun (f : Func.t) ->
      let cfg = Cfg.of_func f in
      List.exists (fun (b : Block.t) -> not (Cfg.is_reachable cfg b.Block.label)) f.Func.blocks)

let has_select_on_bool m =
  exists_instr m (fun (i : Instr.t) ->
      match (i.Instr.op, i.Instr.ty) with
      | Instr.Select _, Some ty -> Module_ir.find_type m ty = Some Ty.Bool
      | _ -> false)

let has_undef m =
  exists_instr m (fun (i : Instr.t) -> i.Instr.op = Instr.Undef)

(* retreating edges: a branch to a block at an earlier or equal syntactic
   position — loops, whether source-level or fuzzer-created *)
let loop_count m =
  List.fold_left
    (fun acc (f : Func.t) ->
      let pos = Hashtbl.create 16 in
      List.iteri (fun i (b : Block.t) -> Hashtbl.replace pos b.Block.label i) f.Func.blocks;
      let edges =
        List.concat_map
          (fun (b : Block.t) ->
            List.map (fun t -> (b.Block.label, t)) (Block.successors b))
          f.Func.blocks
      in
      acc
      + List.length
          (List.filter
             (fun (u, v) ->
               match (Hashtbl.find_opt pos u, Hashtbl.find_opt pos v) with
               | Some pu, Some pv -> pv <= pu
               | _ -> false)
             edges))
    0 m.Module_ir.functions

(* length of the longest chain of empty, unconditionally-branching blocks:
   b1 -> b2 -> b3 with every bi instruction-free.  Reference shaders produce
   chains of at most two empty merge blocks; split/wrap transformations make
   longer ones. *)
let max_empty_chain m =
  List.fold_left
    (fun acc (f : Func.t) ->
      let is_empty_branch label =
        match Func.find_block f label with
        | Some b -> (
            match (b.Block.instrs, b.Block.terminator) with
            | [], Block.Branch next -> Some next
            | _ -> None)
        | None -> None
      in
      let rec chain label n =
        if n > 16 then n
        else
          match is_empty_branch label with
          | Some next -> chain next (n + 1)
          | None -> n
      in
      List.fold_left
        (fun acc (b : Block.t) -> max acc (chain b.Block.label 0))
        acc f.Func.blocks)
    0 m.Module_ir.functions

let has_constant_condition m =
  exists_block m (fun _ (b : Block.t) ->
      match b.Block.terminator with
      | Block.BranchConditional (c, _, _) -> Module_ir.find_constant m c <> None
      | _ -> false)

(* non-fallthrough layout: a block with successors none of which is the
   syntactically next block (the shape MoveBlockDown creates) *)
let non_fallthrough_blocks (f : Func.t) =
  let rec go acc = function
    | [] | [ _ ] -> List.rev acc
    | (b : Block.t) :: (next : Block.t) :: rest ->
        let succs = Block.successors b in
        let acc =
          if succs <> [] && not (List.mem next.Block.label succs) then b.Block.label :: acc
          else acc
        in
        go acc (next :: rest)
  in
  go [] f.Func.blocks

(* a comparison fed directly by a load from a Uniform pointer — the shape
   ReplaceConstantWithUniform produces *)
let has_uniform_fed_condition m =
  exists_function m (fun (f : Func.t) ->
      let uniform_loads =
        List.filter_map
          (fun (i : Instr.t) ->
            match (i.Instr.result, i.Instr.op) with
            | Some r, Instr.Load p -> (
                match Module_ir.type_of_id m p with
                | Some ty -> (
                    match Module_ir.find_type m ty with
                    | Some (Ty.Pointer (Ty.Uniform, _)) -> Some r
                    | _ -> None)
                | None -> None)
            | _ -> None)
          (Func.all_instrs f)
      in
      List.length uniform_loads >= 2
      && List.exists
           (fun (b : Block.t) ->
             match b.Block.terminator with
             | Block.BranchConditional (c, _, _) ->
                 List.exists
                   (fun (i : Instr.t) ->
                     i.Instr.result = Some c
                     && List.length
                          (List.filter
                             (fun u -> List.mem u uniform_loads)
                             (Instr.used_ids i))
                        >= 2)
                   b.Block.instrs
             | _ -> false)
           f.Func.blocks)

(* ------------------------------------------------------------------ *)
(* Miscompilation rewrites                                             *)

let swap_branch (b : Block.t) =
  match b.Block.terminator with
  | Block.BranchConditional (c, t, f) when not (Id.equal t f) ->
      { b with Block.terminator = Block.BranchConditional (c, f, t) }
  | _ -> b

(* The rewrites are built on {!Opt_util}'s sharing-preserving traversals:
   a function, block or instruction list none of whose parts a rewrite
   edits comes back physically, so a module without the bug's shape is
   returned itself and the engine digests and renders it as the optimized
   module it is. *)

(** Figure 8b analog: the backend mis-lowers branches in blocks laid out
    without fallthrough — conditional branches take the wrong arm, and
    unconditional branches "fall through" into the syntactically next block
    (a missing-jump code layout bug). *)
let rewrite_block_order_sensitive m =
  Opt_util.map_functions m (fun (fn : Func.t) ->
      let bad = non_fallthrough_blocks fn in
      let next_of =
        let rec pairs = function
          | (a : Block.t) :: (b : Block.t) :: rest ->
              (a.Block.label, b.Block.label) :: pairs (b :: rest)
          | _ -> []
        in
        pairs fn.Func.blocks
      in
      Opt_util.map_blocks fn (fun (b : Block.t) ->
          if not (List.mem b.Block.label bad) then b
          else
            match b.Block.terminator with
            | Block.BranchConditional _ -> swap_branch b
            | Block.Branch target -> (
                match List.assoc_opt b.Block.label next_of with
                | Some next when not (Id.equal next target) ->
                    { b with Block.terminator = Block.Branch next }
                | Some _ | None -> b)
            | Block.Return | Block.ReturnValue _ | Block.Kill
            | Block.Unreachable ->
                b))

(** Figure 8a analog: conditional branches whose condition is a φ (the shape
    PropagateInstructionUp creates) take the wrong arm. *)
let rewrite_phi_condition m =
  Opt_util.map_all_blocks m (fun (b : Block.t) ->
      match b.Block.terminator with
      | Block.BranchConditional (c, _, _) ->
          let cond_is_phi =
            List.exists
              (fun (i : Instr.t) -> i.Instr.result = Some c && Instr.is_phi i)
              b.Block.instrs
          in
          if cond_is_phi then swap_branch b else b
      | _ -> b)

(** Positional φ lowering: a 2-entry φ whose entries are not in CFG
    predecessor order reads the wrong slot (PermutePhiEntries trigger). *)
let rewrite_phi_positional m =
  Opt_util.map_functions m (fun (fn : Func.t) ->
      let cfg = lazy (Cfg.of_func fn) in
      Opt_util.map_blocks fn (fun (b : Block.t) ->
          let preds = lazy (Cfg.predecessors (Lazy.force cfg) b.Block.label) in
          Opt_util.with_instrs b
            (Opt_util.map
               (fun (i : Instr.t) ->
                 match i.Instr.op with
                 | Instr.Phi [ (v1, p1); (v2, p2) ]
                   when (not (Id.equal p1 p2))
                        && (not (Id.equal v1 v2))
                        && Lazy.force preds = [ p2; p1 ] ->
                     (* entries listed in the reverse of pred order: the
                        buggy backend reads positionally (equal values
                        read the same either way) *)
                     { i with Instr.op = Instr.Phi [ (v2, p1); (v1, p2) ] }
                 | _ -> i)
               b.Block.instrs)))

(** Component indexing off-by-one for high vector components. *)
let rewrite_extract_high m =
  Opt_util.map_instrs m (fun (i : Instr.t) ->
      match i.Instr.op with
      | Instr.CompositeExtract (src, [ k ]) when k >= 2 ->
          { i with Instr.op = Instr.CompositeExtract (src, [ k - 1 ]) }
      | _ -> i)

(** Conditions fed by direct uniform loads are evaluated inverted. *)
let rewrite_uniform_condition m =
  let uniform_load_results =
    List.concat_map
      (fun (fn : Func.t) ->
        List.filter_map
          (fun (i : Instr.t) ->
            match (i.Instr.result, i.Instr.op) with
            | Some r, Instr.Load p -> (
                match Module_ir.type_of_id m p with
                | Some ty -> (
                    match Module_ir.find_type m ty with
                    | Some (Ty.Pointer (Ty.Uniform, _)) -> Some r
                    | _ -> None)
                | None -> None)
            | _ -> None)
          (Func.all_instrs fn))
      m.Module_ir.functions
  in
  Opt_util.map_all_blocks m (fun (b : Block.t) ->
      match b.Block.terminator with
      | Block.BranchConditional (c, _, _) ->
          let fed_by_two_uniform_loads =
            List.exists
              (fun (i : Instr.t) ->
                i.Instr.result = Some c
                && List.length
                     (List.filter
                        (fun u -> List.mem u uniform_load_results)
                        (Instr.used_ids i))
                   >= 2)
              b.Block.instrs
          in
          if fed_by_two_uniform_loads then swap_branch b else b
      | _ -> b)

(* ------------------------------------------------------------------ *)
(* The catalogue                                                       *)

let crash ~id ~signature ~phase trigger =
  { bug_id = id; signature; phase; trigger }

let all_crash_bugs =
  [
    crash ~id:"donated-call"
      ~signature:"linker: unresolved import in late-bound module"
      ~phase:Before_opt has_donated_call;
    crash ~id:"dontinline-call"
      ~signature:"fatal: emitCall: callee marked noinline was not inlined"
      ~phase:After_opt has_dontinline_call;
    crash ~id:"phi-arity-3"
      ~signature:"assertion failed: phi->NumOperands() <= 2 in SsaRewriter::FinalizePhis"
      ~phase:After_opt
      (fun m -> max_phi_arity m >= 3);
    crash ~id:"phi-arity-4"
      ~signature:"backend: phi lowering register exhaustion (arity > 3)"
      ~phase:After_opt
      (fun m -> max_phi_arity m >= 4);
    crash ~id:"kill-complex-8"
      ~signature:"internal error: discard lowering in complex control flow"
      ~phase:After_opt
      (fun m -> has_kill m && max_blocks m >= 8);
    crash ~id:"kill-frontend"
      ~signature:"shader parser: OpKill outside uniform control flow"
      ~phase:Before_opt
      (fun m -> has_kill m && max_blocks m >= 16);
    crash ~id:"many-blocks-28"
      ~signature:"stack overflow in DominatorTree::Build"
      ~phase:After_opt
      (fun m -> max_blocks m >= 28);
    crash ~id:"many-blocks-40"
      ~signature:"SPIRV-Cross style structurizer: irreducible region too large"
      ~phase:Before_opt
      (fun m -> max_blocks m >= 40);
    crash ~id:"many-params-4"
      ~signature:"register allocator: cannot spill >3 formal parameters"
      ~phase:After_opt
      (fun m -> max_params m >= 4);
    crash ~id:"multi-output-store"
      ~signature:"framebuffer writeback conflict: multiple color writes"
      ~phase:After_opt
      (fun m -> output_store_count m >= 3);
    crash ~id:"copy-chain-3"
      ~signature:"value numbering diverged on OpCopyObject chain"
      ~phase:Before_opt
      (fun m -> max_copy_chain m >= 3);
    crash ~id:"deep-extract"
      ~signature:"OpCompositeExtract with multiple indices not implemented"
      ~phase:Before_opt has_deep_extract;
    crash ~id:"unreachable-block"
      ~signature:"CFGAnalysis: malformed function: unreachable basic block"
      ~phase:Before_opt has_unreachable_block;
    crash ~id:"select-bool"
      ~signature:"legalizer: OpSelect on i1 operands unsupported"
      ~phase:After_opt has_select_on_bool;
    crash ~id:"undef-isel"
      ~signature:"undef value reached instruction selection"
      ~phase:After_opt has_undef;
    crash ~id:"empty-chain-3"
      ~signature:"layout: fallthrough chain of empty basic blocks"
      ~phase:Before_opt
      (fun m -> max_empty_chain m >= 3);
    crash ~id:"loop-count-4"
      ~signature:"register pressure: natural loop budget exceeded"
      ~phase:Before_opt
      (fun m -> loop_count m >= 4);
    crash ~id:"loop-count-6"
      ~signature:"scheduler: too many back-edges in shader"
      ~phase:Before_opt
      (fun m -> loop_count m >= 6);
    crash ~id:"const-cond-frontend"
      ~signature:"shader parser: conditional branch on constant"
      ~phase:Before_opt has_constant_condition;
    crash ~id:"uniform-cond-backend"
      ~signature:"uniform analysis: branch divergence on raw descriptor load"
      ~phase:After_opt has_uniform_fed_condition;
  ]

let find_crash_bug id =
  List.find_opt (fun b -> String.equal b.bug_id id) all_crash_bugs

let all_miscompile_bugs =
  [
    { mc_bug_id = "mc-block-order"; rewrite = rewrite_block_order_sensitive };
    { mc_bug_id = "mc-phi-cond"; rewrite = rewrite_phi_condition };
    { mc_bug_id = "mc-phi-positional"; rewrite = rewrite_phi_positional };
    { mc_bug_id = "mc-extract-high"; rewrite = rewrite_extract_high };
    { mc_bug_id = "mc-uniform-cond"; rewrite = rewrite_uniform_condition };
  ]

let find_miscompile_bug id =
  List.find_opt (fun b -> String.equal b.mc_bug_id id) all_miscompile_bugs

(* ------------------------------------------------------------------ *)
(* Optimizer-hosted pass bugs                                          *)

type pass_bug_spec = {
  pb_id : string;
  pb_pass : Optimizer.pass_name;
  pb_enable : Passes.flags -> Passes.flags;
  pb_enabled : Passes.flags -> bool;
}

let pass_bug ~id ~pass enable enabled =
  { pb_id = id; pb_pass = pass; pb_enable = enable; pb_enabled = enabled }

let all_pass_bugs =
  [
    pass_bug ~id:"bug_fold_div_crash" ~pass:Optimizer.Const_fold
      (fun f -> { f with Passes.bug_fold_div_crash = true })
      (fun f -> f.Passes.bug_fold_div_crash);
    pass_bug ~id:"bug_keep_stale_phi_entries" ~pass:Optimizer.Simplify_cfg
      (fun f -> { f with Passes.bug_keep_stale_phi_entries = true })
      (fun f -> f.Passes.bug_keep_stale_phi_entries);
    pass_bug ~id:"bug_fold_sub_zero" ~pass:Optimizer.Const_fold
      (fun f -> { f with Passes.bug_fold_sub_zero = true })
      (fun f -> f.Passes.bug_fold_sub_zero);
    pass_bug ~id:"bug_inline_swaps_const_args" ~pass:Optimizer.Inline
      (fun f -> { f with Passes.bug_inline_swaps_const_args = true })
      (fun f -> f.Passes.bug_inline_swaps_const_args);
    pass_bug ~id:"bug_hoist_loop_load" ~pass:Optimizer.Hoist_invariant
      (fun f -> { f with Passes.bug_hoist_loop_load = true })
      (fun f -> f.Passes.bug_hoist_loop_load);
    pass_bug ~id:"bug_forward_aliased_store" ~pass:Optimizer.Store_forward
      (fun f -> { f with Passes.bug_forward_aliased_store = true })
      (fun f -> f.Passes.bug_forward_aliased_store);
  ]

let find_pass_bug id =
  List.find_opt (fun b -> String.equal b.pb_id id) all_pass_bugs
