(** The optimizer passes (the spirv-opt analog).

    Each pass is semantics-preserving by default; the [flags] record enables
    the injected optimizer bugs that the spirv-opt / spirv-opt-old targets
    exhibit.  Pass correctness is covered by the test suite (random modules
    and fuzzed variants must render identically before and after each
    pipeline). *)

open Spirv_ir

type flags = {
  bug_fold_div_crash : bool;
      (** crash when folding an integer division/modulo by constant zero *)
  bug_keep_stale_phi_entries : bool;
      (** when deleting unreachable blocks, forget to prune φ entries that
          referenced them — emits invalid IR (the "spirv-opt emits illegal
          SPIR-V" bug class of section 5) *)
  bug_fold_sub_zero : bool;
      (** miscompile: fold [x -. 0.0] to [0.0] instead of [x] *)
  bug_inline_swaps_const_args : bool;
      (** miscompile: the inliner swaps the first two arguments of a call
          when both are constants *)
  bug_hoist_loop_load : bool;
      (** miscompile: loop-invariant code motion treats a load as invariant
          when every in-loop store to its cell sits later in the load's own
          block — forgetting the block re-executes, so the hoisted load
          feeds every iteration the stale pre-loop value *)
  bug_forward_aliased_store : bool;
      (** miscompile: store-to-load forwarding keys access-chain pointers by
          their syntactic (base, indices) pair and forwards across an
          intervening chain store with a different key — forgetting that a
          dynamic index may alias the forwarded cell *)
}

let no_bugs =
  {
    bug_fold_div_crash = false;
    bug_keep_stale_phi_entries = false;
    bug_fold_sub_zero = false;
    bug_inline_swaps_const_args = false;
    bug_hoist_loop_load = false;
    bug_forward_aliased_store = false;
  }

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)

let constant_of m id =
  match Module_ir.find_constant m id with
  | Some _ -> Some (Module_ir.const_value m id)
  | None -> None

let const_fold flags m =
  let folded = ref m in
  let fold_instr (i : Instr.t) =
    let m = !folded in
    match (i.Instr.result, i.Instr.ty, i.Instr.op) with
    | Some r, Some ty, Instr.Binop (op, a, b) -> (
        match (constant_of m a, constant_of m b) with
        | Some va, Some vb -> (
            (if flags.bug_fold_div_crash then
               match (op, vb) with
               | (Instr.SDiv | Instr.SMod), Value.VInt 0l ->
                   Opt_util.crash
                     "constant folder: integer division by zero (fold_binary_op)"
               | _ -> ());
            if flags.bug_fold_sub_zero && op = Instr.FSub && Value.equal vb (Value.VFloat 0.0)
            then begin
              (* wrong fold: x - 0.0 ~> 0.0 *)
              let m', zero = Opt_util.intern_value m ty (Value.VFloat 0.0) in
              folded := m';
              Instr.make ~result:r ~ty (Instr.CopyObject zero)
            end
            else
              match Ops.eval_binop op va vb with
              | v ->
                  let m', c = Opt_util.intern_value m ty v in
                  folded := m';
                  Instr.make ~result:r ~ty (Instr.CopyObject c)
              | exception Ops.Type_error _ -> i)
        | _ ->
            (* identity simplifications on one constant operand *)
            if flags.bug_fold_sub_zero && op = Instr.FSub
               && constant_of m b = Some (Value.VFloat 0.0)
            then begin
              let m', zero = Opt_util.intern_value m ty (Value.VFloat 0.0) in
              folded := m';
              Instr.make ~result:r ~ty (Instr.CopyObject zero)
            end
            else i)
    | Some r, Some ty, Instr.Unop (op, a) -> (
        match constant_of m a with
        | Some va -> (
            match Ops.eval_unop op va with
            | v ->
                let m', c = Opt_util.intern_value m ty v in
                folded := m';
                Instr.make ~result:r ~ty (Instr.CopyObject c)
            | exception Ops.Type_error _ -> i)
        | None -> i)
    | Some r, Some ty, Instr.Select (c, tv, fv) -> (
        match constant_of m c with
        | Some (Value.VBool b) ->
            Instr.make ~result:r ~ty (Instr.CopyObject (if b then tv else fv))
        | _ -> i)
    | Some r, Some ty, Instr.CompositeExtract (src, path) -> (
        match constant_of m src with
        | Some v ->
            let extracted = Value.extract_at_path v path in
            let m', c = Opt_util.intern_value m ty extracted in
            folded := m';
            Instr.make ~result:r ~ty (Instr.CopyObject c)
        | None -> i)
    | _ -> i
  in
  let m' = Opt_util.map_instrs m fold_instr in
  (* map_instrs walked the original module; carry over what the folds
     interned into [!folded] *)
  let f = !folded in
  if f == m then m'
  else
    { m' with Module_ir.constants = f.Module_ir.constants;
              Module_ir.types = f.Module_ir.types;
              Module_ir.id_bound = f.Module_ir.id_bound }

(* ------------------------------------------------------------------ *)
(* Copy propagation                                                    *)

let copy_prop m =
  let table = Hashtbl.create 32 in
  List.iter
    (fun (fn : Func.t) ->
      List.iter
        (fun (i : Instr.t) ->
          match (i.Instr.result, i.Instr.op) with
          | Some r, Instr.CopyObject src -> Hashtbl.replace table r src
          | _ -> ())
        (Func.all_instrs fn))
    m.Module_ir.functions;
  (* resolve chains so a -> b -> c collapses to a -> c *)
  let resolved = Hashtbl.create 32 in
  Hashtbl.iter
    (fun r _ ->
      let rec chase id steps =
        if steps > 64 then id
        else
          match Hashtbl.find_opt table id with
          | Some next -> chase next (steps + 1)
          | None -> id
      in
      Hashtbl.replace resolved r (chase r 0))
    table;
  Opt_util.substitute_everywhere m resolved

(* ------------------------------------------------------------------ *)
(* Dead code elimination                                               *)

let removable (i : Instr.t) =
  match i.Instr.op with
  | Instr.Binop _ | Instr.Unop _ | Instr.Select _ | Instr.CompositeConstruct _
  | Instr.CompositeExtract _ | Instr.CompositeInsert _ | Instr.AccessChain _
  | Instr.Phi _ | Instr.CopyObject _ | Instr.Undef | Instr.Nop | Instr.Load _
  | Instr.Variable _ ->
      true
  | Instr.Store _ | Instr.FunctionCall _ -> false

let dce m =
  let rec iterate m =
    let used = Opt_util.used_value_ids m in
    let live (i : Instr.t) =
      match i.Instr.result with
      | Some r when removable i && not (Id.Set.mem r used) -> false
      | _ -> ( match i.Instr.op with Instr.Nop -> false | _ -> true)
    in
    let m' =
      Opt_util.map_all_blocks m (fun (b : Block.t) ->
          Opt_util.with_instrs b (Opt_util.filter live b.Block.instrs))
    in
    if m' == m then m else iterate m'
  in
  iterate m

(* ------------------------------------------------------------------ *)
(* CFG simplification                                                  *)

let remove_phi_entries_for ~pred (b : Block.t) =
  Opt_util.with_instrs b
    (Opt_util.map
       (fun (i : Instr.t) ->
         match i.Instr.op with
         | Instr.Phi inc ->
             let inc' = Opt_util.filter (fun (_, p) -> not (Id.equal p pred)) inc in
             if inc' == inc then i else { i with Instr.op = Instr.Phi inc' }
         | _ -> i)
       b.Block.instrs)

let fold_constant_branches flags m (fn : Func.t) =
  let changed = ref false in
  let blocks = ref fn.Func.blocks in
  let update_block label f =
    blocks := Opt_util.map (fun (b : Block.t) -> if Id.equal b.Block.label label then f b else b) !blocks
  in
  List.iter
    (fun (b : Block.t) ->
      match b.Block.terminator with
      | Block.BranchConditional (c, t, f) when not (Id.equal t f) -> (
          match Module_ir.find_constant m c with
          | Some { Module_ir.cd_value = Constant.Bool cond; _ } ->
              let taken, untaken = if cond then (t, f) else (f, t) in
              changed := true;
              update_block b.Block.label (fun blk ->
                  { blk with Block.terminator = Block.Branch taken });
              (* the stale-phi bug forgets to prune the untaken target's
                 φ entry for this predecessor, emitting invalid IR *)
              if not flags.bug_keep_stale_phi_entries then
                update_block untaken (remove_phi_entries_for ~pred:b.Block.label)
          | _ -> ())
      | Block.BranchConditional (c, t, f) when Id.equal t f ->
          ignore c;
          changed := true;
          update_block b.Block.label (fun blk ->
              { blk with Block.terminator = Block.Branch t })
      | _ -> ())
    fn.Func.blocks;
  (Opt_util.with_blocks fn !blocks, !changed)

let remove_unreachable_blocks flags (fn : Func.t) =
  let cfg = Cfg.of_func fn in
  let reachable = Id.Set.of_list (Cfg.reachable_labels cfg) in
  let is_reachable l = Id.Set.mem l reachable in
  let dropped =
    List.filter (fun (b : Block.t) -> not (is_reachable b.Block.label)) fn.Func.blocks
  in
  if dropped = [] then (fn, false)
  else begin
    let dropped_labels = List.map (fun (b : Block.t) -> b.Block.label) dropped in
    let blocks = List.filter (fun (b : Block.t) -> is_reachable b.Block.label) fn.Func.blocks in
    let blocks =
      if flags.bug_keep_stale_phi_entries then blocks
      else
        List.map
          (fun (b : Block.t) ->
            List.fold_left (fun b pred -> remove_phi_entries_for ~pred b) b dropped_labels)
          blocks
    in
    ({ fn with Func.blocks }, true)
  end

let merge_straight_line (fn : Func.t) =
  let cfg = Cfg.of_func fn in
  (* find b -> c with c's single pred = b, no φs in c, c not entry *)
  let entry_label = (Func.entry_block fn).Block.label in
  let candidate =
    List.find_map
      (fun (b : Block.t) ->
        match b.Block.terminator with
        | Block.Branch c when not (Id.equal c b.Block.label) -> (
            match Func.find_block fn c with
            | Some cb
              when (not (Id.equal c entry_label))
                   && Cfg.predecessors cfg c = [ b.Block.label ]
                   && Edit_light.phi_count cb = 0
                   && not
                        (List.exists
                           (fun (i : Instr.t) ->
                             match i.Instr.op with Instr.Variable _ -> true | _ -> false)
                           cb.Block.instrs) ->
                Some (b, cb)
            | _ -> None)
        | _ -> None)
      fn.Func.blocks
  in
  match candidate with
  | None -> (fn, false)
  | Some (b, cb) ->
      let merged =
        {
          b with
          Block.instrs = b.Block.instrs @ cb.Block.instrs;
          Block.terminator = cb.Block.terminator;
        }
      in
      let blocks =
        List.filter_map
          (fun (blk : Block.t) ->
            if Id.equal blk.Block.label cb.Block.label then None
            else if Id.equal blk.Block.label b.Block.label then Some merged
            else Some blk)
          fn.Func.blocks
      in
      (* φs in c's successors must rename the pred c -> b *)
      let rename (blk : Block.t) =
        {
          blk with
          Block.instrs =
            List.map
              (fun (i : Instr.t) ->
                match i.Instr.op with
                | Instr.Phi inc ->
                    {
                      i with
                      Instr.op =
                        Instr.Phi
                          (List.map
                             (fun (value, p) ->
                               if Id.equal p cb.Block.label then (value, b.Block.label)
                               else (value, p))
                             inc);
                    }
                | _ -> i)
              blk.Block.instrs;
        }
      in
      ({ fn with Func.blocks = List.map rename blocks }, true)

let simplify_cfg flags m =
  let simplify_fn (fn : Func.t) =
    let rec fix fn budget =
      if budget = 0 then fn
      else begin
        let fn, c1 = fold_constant_branches flags m fn in
        let fn, c2 = remove_unreachable_blocks flags fn in
        let fn, c3 = merge_straight_line fn in
        if c1 || c2 || c3 then fix fn (budget - 1) else fn
      end
    in
    fix fn 64
  in
  Opt_util.map_functions m simplify_fn

(* ------------------------------------------------------------------ *)
(* φ simplification                                                    *)

let phi_simplify m =
  Opt_util.map_instrs m (fun (i : Instr.t) ->
      match (i.Instr.result, i.Instr.ty, i.Instr.op) with
      | Some r, Some ty, Instr.Phi [ (v, _) ] ->
          Instr.make ~result:r ~ty (Instr.CopyObject v)
      | Some r, Some ty, Instr.Phi ((v0, _) :: rest)
        when List.for_all (fun (v, _) -> Id.equal v v0) rest ->
          Instr.make ~result:r ~ty (Instr.CopyObject v0)
      | _ -> i)

(* ------------------------------------------------------------------ *)
(* Local common subexpression elimination                              *)

(* A pure instruction is keyed by its operation and result type.
   [Instr.op] is plain data (ids, ints, enums; no floats, no closures), so
   structural equality and [Hashtbl.hash] on the pair identify exactly the
   instructions whose printed forms are equal. *)
let cse m =
  let cse_block (b : Block.t) =
    let seen : (Instr.op * Id.t, Id.t) Hashtbl.t = Hashtbl.create 16 in
    Opt_util.with_instrs b
      (Opt_util.map
         (fun (i : Instr.t) ->
           match (i.Instr.result, i.Instr.ty, i.Instr.op) with
           | ( Some r,
               Some ty,
               (( Instr.Binop _ | Instr.Unop _ | Instr.Select _
                | Instr.CompositeConstruct _ | Instr.CompositeExtract _
                | Instr.CompositeInsert _ ) as op) ) -> (
               let key = (op, ty) in
               match Hashtbl.find_opt seen key with
               | Some prior -> Instr.make ~result:r ~ty (Instr.CopyObject prior)
               | None ->
                   Hashtbl.replace seen key r;
                   i)
           | _ -> i)
         b.Block.instrs)
  in
  Opt_util.map_all_blocks m cse_block

(* ------------------------------------------------------------------ *)
(* Local store-to-load forwarding                                      *)

(* the pointers some access chain of [fn] indexes into *)
let access_chain_bases (fn : Func.t) =
  List.fold_left
    (fun acc (i : Instr.t) ->
      match i.Instr.op with
      | Instr.AccessChain (base, _) -> Id.Set.add base acc
      | _ -> acc)
    Id.Set.empty (Func.all_instrs fn)

(* Forward [Store (p, v)] to subsequent [Load p] within a block, for direct
   (non-access-chain) pointers.  Conservatively invalidated by calls, by any
   store through an access chain, and per-pointer by overwrites.

   With [bug_forward_aliased_store] the pass additionally forwards through
   access-chain pointers, keyed by the chain's syntactic (base, indices)
   pair — and an intervening chain store with a {e different} key does not
   invalidate the fact, even though a dynamic index may name the same cell.
   Storing [a[0] := x] then [a[j] := y] and loading [a[0]] forwards [x]
   where [j = 0] would have produced [y].  Exactly the alias-blindness the
   {!Spirv_ir.Memory} analysis exists to expose: the render oracle only
   catches it when the sampled grid happens to drive [j] to 0. *)
let store_forward flags m =
  let chain_bases =
    List.fold_left
      (fun acc (fn : Func.t) -> Id.Set.union acc (access_chain_bases fn))
      Id.Set.empty m.Module_ir.functions
  in
  let forward_fn (fn : Func.t) =
    (* chain-pointer results and their syntactic keys, function-wide (the
       buggy forwarder looks keys up across the defining instruction) *)
    let chain_key : (Id.t, Id.t * Id.t list) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (i : Instr.t) ->
        match (i.Instr.result, i.Instr.op) with
        | Some r, Instr.AccessChain (base, idxs) ->
            Hashtbl.replace chain_key r (base, idxs)
        | _ -> ())
      (Func.all_instrs fn);
    let forward_block (b : Block.t) =
      let known : (Id.t, Id.t) Hashtbl.t = Hashtbl.create 8 in
      let chain_known : (Id.t * Id.t list, Id.t) Hashtbl.t = Hashtbl.create 8 in
      let drop_chain_facts_for base =
        let stale =
          Hashtbl.fold
            (fun ((b', _) as k) _ acc -> if Id.equal b' base then k :: acc else acc)
            chain_known []
        in
        List.iter (Hashtbl.remove chain_known) stale
      in
      Opt_util.with_instrs b
        (Opt_util.map
          (fun (i : Instr.t) ->
            match (i.Instr.result, i.Instr.ty, i.Instr.op) with
            | _, _, Instr.Store (p, v) ->
                (if flags.bug_forward_aliased_store then
                   match Hashtbl.find_opt chain_key p with
                   | Some key ->
                       (* BUG: records the fact under the syntactic key
                          without killing the other keys on the same base *)
                       Hashtbl.replace chain_known key v
                   | None -> drop_chain_facts_for p);
                if Id.Set.mem p chain_bases then Hashtbl.reset known
                else Hashtbl.replace known p v;
                i
            | _, _, Instr.FunctionCall _ ->
                Hashtbl.reset known;
                Hashtbl.reset chain_known;
                i
            | _, _, Instr.AccessChain _ ->
                (* a fresh interior pointer: drop everything about its base *)
                Hashtbl.reset known;
                i
            | Some r, Some ty, Instr.Load p -> (
                match Hashtbl.find_opt known p with
                | Some v when not (Id.Set.mem p chain_bases) ->
                    Instr.make ~result:r ~ty (Instr.CopyObject v)
                | _ -> (
                    if not flags.bug_forward_aliased_store then i
                    else
                      match
                        Option.bind (Hashtbl.find_opt chain_key p)
                          (Hashtbl.find_opt chain_known)
                      with
                      | Some v -> Instr.make ~result:r ~ty (Instr.CopyObject v)
                      | None -> i))
            | _ -> i)
          b.Block.instrs)
    in
    Opt_util.map_blocks fn forward_block
  in
  Opt_util.map_functions m forward_fn

(* ------------------------------------------------------------------ *)
(* Dead store elimination                                              *)

(* Remove stores to function-local variables that are never read: the
   variable's pointer is used only as the destination of stores. *)
let dse m =
  let eliminate_in (fn : Func.t) =
    (* the shared store-only-locals analysis: locals whose every use is as
       a store destination *)
    let write_only = Dataflow.write_only_locals fn in
    let live (i : Instr.t) =
      match i.Instr.op with
      | Instr.Store (p, _) -> not (Id.Set.mem p write_only)
      | _ -> true
    in
    Opt_util.map_blocks fn (fun (b : Block.t) ->
        Opt_util.with_instrs b (Opt_util.filter live b.Block.instrs))
  in
  Opt_util.map_functions m eliminate_in

(* Memory-backed cross-check for DSE: every store the pass would delete —
   a store through a pointer in [write_only_locals] — must also be
   unobservable according to the independent {!Spirv_ir.Memory} def-use
   analysis ([observable_store] finds a reachable may-aliasing load).  The
   two analyses are built differently (syntactic use-scan vs. access-path
   reaching-stores), so agreement here is a real check, not a tautology;
   [Optimizer.run_checked] fails the Dse step on any violation. *)
let dse_cross_check m =
  List.concat_map
    (fun (fn : Func.t) ->
      let write_only = Dataflow.write_only_locals fn in
      if Id.Set.is_empty write_only then []
      else
        let avail = Dataflow.Availability.make m fn in
        let mem = Memory.analyze m fn ~avail in
        List.concat_map
          (fun (b : Block.t) ->
            List.concat
              (List.mapi
                 (fun idx (i : Instr.t) ->
                   match i.Instr.op with
                   | Instr.Store (p, _)
                     when Id.Set.mem p write_only
                          && Memory.observable_store mem ~block:b.Block.label
                               ~index:idx ->
                       [
                         Printf.sprintf
                           "dse would delete an observable store through %s \
                            in %s/%s"
                           (Id.to_string p)
                           (Id.to_string fn.Func.id)
                           (Id.to_string b.Block.label);
                       ]
                   | _ -> [])
                 b.Block.instrs))
          fn.Func.blocks)
    m.Module_ir.functions

(* ------------------------------------------------------------------ *)
(* Loop-invariant code motion                                          *)

(* Hoist loop-invariant instructions to the loop's preheader — the unique
   out-of-loop predecessor of the header, when it branches to the header
   unconditionally.  Pure value instructions hoist whenever every operand
   is defined outside the loop (in SSA such a definition necessarily
   dominates the preheader); loads additionally require that the cell
   provably cannot change inside the loop: a direct (never
   access-chained) pointer, no in-loop store to it, no in-loop call.  The
   loop forest and dominator tree come from the shared Dataflow analyses,
   and hoisting moves instructions without touching any terminator, so
   the CFG — and therefore the analysis — stays valid throughout. *)
let hoist_invariant flags m =
  let hoist_fn (fn : Func.t) =
    let av = Dataflow.Availability.make m fn in
    let cfg = Dataflow.Availability.cfg av in
    let dom = Dataflow.Availability.dominance av in
    let forest = Loops.analyze cfg dom in
    if forest.Loops.loops = [] then fn
    else begin
      let def_block : (Id.t, Id.t) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun (b : Block.t) ->
          List.iter
            (fun (i : Instr.t) ->
              match i.Instr.result with
              | Some r -> Hashtbl.replace def_block r b.Block.label
              | None -> ())
            b.Block.instrs)
        fn.Func.blocks;
      let chain_bases = access_chain_bases fn in
      let blocks = ref fn.Func.blocks in
      let process (l : Loops.loop) =
        let preds = Cfg.predecessors cfg l.Loops.header in
        let outside =
          List.filter (fun p -> not (Id.Set.mem p l.Loops.blocks)) preds
        in
        let preheader =
          match outside with
          | [ ph ] -> (
              match
                List.find_opt
                  (fun (b : Block.t) -> Id.equal b.Block.label ph)
                  !blocks
              with
              | Some b -> (
                  match b.Block.terminator with
                  | Block.Branch _ -> Some ph
                  | _ -> None)
              | None -> None)
          | _ -> None
        in
        match preheader with
        | None -> ()
        | Some ph ->
            let in_loop_label lbl = Id.Set.mem lbl l.Loops.blocks in
            let defined_in_loop id =
              match Hashtbl.find_opt def_block id with
              | Some b -> in_loop_label b
              | None -> false (* constant / global / parameter *)
            in
            let loop_blocks () =
              List.filter
                (fun (b : Block.t) -> in_loop_label b.Block.label)
                !blocks
            in
            let loop_has_call =
              List.exists
                (fun (b : Block.t) ->
                  List.exists
                    (fun (i : Instr.t) ->
                      match i.Instr.op with
                      | Instr.FunctionCall _ -> true
                      | _ -> false)
                    b.Block.instrs)
                (loop_blocks ())
            in
            let in_loop_stores p =
              List.concat_map
                (fun (b : Block.t) ->
                  List.mapi (fun idx (i : Instr.t) -> (idx, i)) b.Block.instrs
                  |> List.filter_map (fun (idx, (i : Instr.t)) ->
                         match i.Instr.op with
                         | Instr.Store (q, _) when Id.equal q p ->
                             Some (b.Block.label, idx)
                         | _ -> None))
                (loop_blocks ())
            in
            let hoistable (b : Block.t) idx (i : Instr.t) =
              i.Instr.result <> None
              && (not (List.exists defined_in_loop (Instr.used_ids i)))
              &&
              match i.Instr.op with
              | Instr.Binop _ | Instr.Unop _ | Instr.Select _
              | Instr.CompositeConstruct _ | Instr.CompositeExtract _
              | Instr.CompositeInsert _ | Instr.CopyObject _ ->
                  true
              | Instr.Load p ->
                  (not (Id.Set.mem p chain_bases))
                  && (not loop_has_call)
                  && (match in_loop_stores p with
                     | [] -> true
                     | stores ->
                         (* the injected bug: a float load whose in-loop
                            stores all sit later in its own block "happens
                            after" them, so it looks invariant — wrong,
                            the block re-executes and rereads the
                            accumulator.  The broken legality check lives
                            in the float path only, so integer induction
                            variables keep the loop terminating. *)
                         flags.bug_hoist_loop_load
                         && (match i.Instr.ty with
                            | Some t ->
                                Module_ir.find_type m t = Some Ty.Float
                            | None -> false)
                         && List.for_all
                              (fun (bl, si) ->
                                Id.equal bl b.Block.label && si > idx)
                              stores)
              | _ -> false
            in
            (* Rounds with a per-round snapshot of the def-site table:
               chains of invariant instructions hoist over successive
               rounds, which also appends them to the preheader in
               dependency order. *)
            let changed = ref true in
            let rounds = ref 0 in
            while !changed && !rounds < 8 do
              incr rounds;
              changed := false;
              let pending = ref [] in
              blocks :=
                Opt_util.map
                  (fun (b : Block.t) ->
                    if not (in_loop_label b.Block.label) then b
                    else begin
                      let idx = ref (-1) in
                      Opt_util.with_instrs b
                        (Opt_util.filter
                           (fun (i : Instr.t) ->
                             incr idx;
                             if hoistable b !idx i then begin
                               pending := i :: !pending;
                               false
                             end
                             else true)
                           b.Block.instrs)
                    end)
                  !blocks;
              match List.rev !pending with
              | [] -> ()
              | instrs ->
                  changed := true;
                  List.iter
                    (fun (i : Instr.t) ->
                      match i.Instr.result with
                      | Some r -> Hashtbl.replace def_block r ph
                      | None -> ())
                    instrs;
                  blocks :=
                    Opt_util.map
                      (fun (b : Block.t) ->
                        if Id.equal b.Block.label ph then
                          { b with Block.instrs = b.Block.instrs @ instrs }
                        else b)
                      !blocks
            done
      in
      List.iter process forest.Loops.loops;
      Opt_util.with_blocks fn !blocks
    end
  in
  Opt_util.map_functions m hoist_fn

(* ------------------------------------------------------------------ *)
(* Inlining                                                            *)

let inline flags m =
  let is_inlinable (g : Func.t) =
    (not (Func.equal_control g.Func.control Func.DontInline))
    &&
    match g.Func.blocks with
    | [ body ] -> (
        match body.Block.terminator with
        | Block.ReturnValue _ ->
            List.for_all
              (fun (i : Instr.t) ->
                match i.Instr.op with
                | Instr.Variable _ | Instr.Phi _ -> false
                | _ -> true)
              body.Block.instrs
        | _ -> false)
    | _ -> false
  in
  let bound = ref m.Module_ir.id_bound in
  let fresh () =
    let id = !bound in
    incr bound;
    id
  in
  let inline_into (fn : Func.t) =
    let inline_block (b : Block.t) =
      Opt_util.with_instrs b
        (Opt_util.concat_map
          (fun (i : Instr.t) ->
            match (i.Instr.result, i.Instr.op) with
            | Some call_id, Instr.FunctionCall (callee, args) -> (
                match Module_ir.find_function m callee with
                | Some g when is_inlinable g && not (Id.equal g.Func.id fn.Func.id) -> (
                    let args =
                      if
                        flags.bug_inline_swaps_const_args
                        && List.length args >= 2
                        &&
                        match args with
                        | a0 :: a1 :: _ ->
                            Module_ir.find_constant m a0 <> None
                            && Module_ir.find_constant m a1 <> None
                            && Module_ir.type_of_id m a0 = Module_ir.type_of_id m a1
                        | _ -> false
                      then
                        match args with
                        | a0 :: a1 :: rest -> a1 :: a0 :: rest
                        | _ -> args
                      else args
                    in
                    match g.Func.blocks with
                    | [ body ] -> (
                        match body.Block.terminator with
                        | Block.ReturnValue ret_val ->
                            let param_map =
                              List.map2
                                (fun (p : Func.param) a -> (p.Func.param_id, a))
                                g.Func.params args
                            in
                            let result_map =
                              List.filter_map
                                (fun (j : Instr.t) ->
                                  Option.map (fun r -> (r, fresh ())) j.Instr.result)
                                body.Block.instrs
                            in
                            let map = param_map @ result_map in
                            let remap id =
                              match List.assoc_opt id map with Some x -> x | None -> id
                            in
                            let body_instrs =
                              List.map
                                (fun (j : Instr.t) ->
                                  let j' =
                                    Instr.
                                      {
                                        result = Option.map remap j.result;
                                        ty = j.ty;
                                        op = j.op;
                                      }
                                  in
                                  (* remap operands *)
                                  List.fold_left
                                    (fun (acc : Instr.t) (old_id, new_id) ->
                                      Instr.substitute_uses ~old_id ~new_id acc)
                                    j' map)
                                body.Block.instrs
                            in
                            let epilogue =
                              {
                                Instr.result = Some call_id;
                                Instr.ty = i.Instr.ty;
                                Instr.op = Instr.CopyObject (remap ret_val);
                              }
                            in
                            body_instrs @ [ epilogue ]
                        | _ -> [ i ])
                    | _ -> [ i ])
                | _ -> [ i ])
            | _ -> [ i ])
          b.Block.instrs)
    in
    Opt_util.map_blocks fn inline_block
  in
  let m' = Opt_util.map_functions m inline_into in
  if !bound = m.Module_ir.id_bound then m' else { m' with Module_ir.id_bound = !bound }
