(** The precondition and the effect of every transformation type
    (Definition 2.4).

    {!precondition} and {!apply} are each one match over
    {!Transformation.t} with an arm per constructor and no wildcard, so a
    constructor added to the type does not compile until both of its arms
    exist.  Every consumer (the fuzzer passes, replay, the contract checker,
    the registry's opportunity generators) calls these two functions; there
    is no other dispatch.  Two CFG transformations (MoveBlockDown,
    ReplaceBranchWithKill) fold "the result still respects the dominance
    ordering rules" into the precondition by validating the one function
    they edit in the candidate module ({!Spirv_ir.Validate.function_is_valid}),
    as spirv-fuzz's IsApplicable checks do.  That equals validating the
    whole candidate because every context a precondition sees validates:
    each transformation preserves validity, and the reducer rejects a
    shrunk AddFunction whose function does not validate before anything
    is replayed after it. *)

open Spirv_ir
open Transformation

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)

let module_of (ctx : Context.t) = ctx.Context.m

let lookup_block ctx ~fn ~block = Edit.find_block_in (module_of ctx) ~fn ~block

let all_fresh ctx t = List.for_all (Context.is_fresh ctx) (fresh_ids t)

let type_of_id ctx id = Module_ir.type_of_id (module_of ctx) id

let type_struct ctx id = Option.bind (type_of_id ctx id) (Module_ir.find_type (module_of ctx))

(* Availability of [id] as an operand at [offset] of [block] in [fn]. *)
let available ctx ~fn ~block ~offset id =
  match Module_ir.find_function (module_of ctx) fn with
  | None -> false
  | Some f ->
      let a = Analysis.make (module_of ctx) f in
      Analysis.available_at a ~block ~index:offset id

let point_offset ctx ~fn ~block point =
  match lookup_block ctx ~fn ~block with
  | None -> None
  | Some (_, b) -> (
      match resolve_point b point with
      | Some o when o >= Edit.phi_count b -> Some o
      | Some _ | None -> None)

(* Is a constant with boolean value [v]? *)
let is_bool_constant ctx id v =
  match Module_ir.find_constant (module_of ctx) id with
  | Some { Module_ir.cd_value = Constant.Bool b; _ } -> Bool.equal b v
  | Some _ | None -> false

(* Find the instruction and its offset designated by a use site. *)
let resolve_use_site ctx (site : use_site) =
  match lookup_block ctx ~fn:site.us_fn ~block:site.us_block with
  | None -> None
  | Some (_, b) -> (
      match site.us_anchor with
      | Terminator ->
          let uses = Block.terminator_used_ids b.Block.terminator in
          if site.us_operand >= 0 && site.us_operand < List.length uses then
            Some (b, `Terminator)
          else None
      | Result_id r ->
          let rec go idx = function
            | [] -> None
            | (i : Instr.t) :: rest ->
                if i.Instr.result = Some r then
                  if site.us_operand >= 0 && site.us_operand < List.length (Instr.used_ids i)
                  then Some (b, `Instr (idx, i))
                  else None
                else go (idx + 1) rest
          in
          go 0 b.Block.instrs
      | Nth_instr n -> (
          match List.nth_opt b.Block.instrs n with
          | Some i when site.us_operand >= 0 && site.us_operand < List.length (Instr.used_ids i)
            ->
              Some (b, `Instr (n, i))
          | Some _ | None -> None))

(* The id currently occupying the use site's operand slot. *)
let use_site_operand ctx site =
  match resolve_use_site ctx site with
  | None -> None
  | Some (b, `Terminator) ->
      List.nth_opt (Block.terminator_used_ids b.Block.terminator) site.us_operand
  | Some (_, `Instr (_, i)) -> List.nth_opt (Instr.used_ids i) site.us_operand

(* Where availability of a replacement must be checked for a use site: at the
   instruction itself, except φ value slots, which are checked at the end of
   the corresponding predecessor block. *)
let use_site_check_position ctx site =
  match resolve_use_site ctx site with
  | None -> None
  | Some (b, `Terminator) -> Some (b.Block.label, List.length b.Block.instrs + 1)
  | Some (b, `Instr (idx, i)) -> (
      match i.Instr.op with
      | Instr.Phi incoming ->
          if site.us_operand mod 2 = 0 then
            match List.nth_opt incoming (site.us_operand / 2) with
            | Some (_, pred) -> Some (pred, max_int)
            | None -> None
          else None (* φ labels are not replaceable *)
      | _ -> Some (b.Block.label, idx))

(* Substitute the operand of a use site with [new_id]. *)
let substitute_use_site ctx site new_id =
  let m = module_of ctx in
  match resolve_use_site ctx site with
  | None -> m
  | Some (b, `Terminator) ->
      let term =
        match b.Block.terminator with
        | Block.BranchConditional (_, t, f) when site.us_operand = 0 ->
            Block.BranchConditional (new_id, t, f)
        | Block.ReturnValue _ when site.us_operand = 0 -> Block.ReturnValue new_id
        | other -> other
      in
      Edit.update_block m ~fn:site.us_fn ~block:site.us_block ~f:(fun b ->
          { b with Block.terminator = term })
  | Some (_, `Instr (idx, i)) -> (
      match Instr.substitute_nth_use ~n:site.us_operand ~new_id i with
      | Some i' -> Edit.replace_instr m ~fn:site.us_fn ~block:site.us_block ~offset:idx i'
      | None -> m)

(* Can the use-site operand be replaced at all (φ labels / call callees are
   excluded)? *)
let use_site_replaceable ctx site =
  match resolve_use_site ctx site with
  | None -> false
  | Some (_, `Terminator) -> true
  | Some (_, `Instr (_, i)) -> (
      match i.Instr.op with
      | Instr.FunctionCall _ -> site.us_operand >= 1
      | Instr.Phi _ -> site.us_operand mod 2 = 0
      | Instr.AccessChain _ ->
          (* indices may be required to be constants (struct members); only
             the base pointer slot is safely replaceable *)
          site.us_operand = 0
      | _ -> true)

(* No call path from [callee] back to [caller] (recursion guard for
   FunctionCall). *)
let call_cannot_reach m ~callee ~target =
  let rec visit seen fn_id =
    if Id.equal fn_id target then false
    else if Id.Set.mem fn_id seen then true
    else
      match Module_ir.find_function m fn_id with
      | None -> true
      | Some f ->
          let callees =
            Func.all_instrs f
            |> List.filter_map (fun (i : Instr.t) ->
                   match i.Instr.op with
                   | Instr.FunctionCall (g, _) -> Some g
                   | _ -> None)
          in
          List.for_all (visit (Id.Set.add fn_id seen)) callees
  in
  visit Id.Set.empty callee

(* Remap helper for AddFunction / InlineFunction: substitute ids through an
   association list (identity when absent). *)
let remap_id map id = match List.assoc_opt id map with Some id' -> id' | None -> id

let remap_instr map (i : Instr.t) =
  let s = remap_id map in
  let op =
    match i.Instr.op with
    | Instr.Binop (b, x, y) -> Instr.Binop (b, s x, s y)
    | Instr.Unop (u, x) -> Instr.Unop (u, s x)
    | Instr.Select (c, t, f) -> Instr.Select (s c, s t, s f)
    | Instr.CompositeConstruct xs -> Instr.CompositeConstruct (List.map s xs)
    | Instr.CompositeExtract (c, p) -> Instr.CompositeExtract (s c, p)
    | Instr.CompositeInsert (o, c, p) -> Instr.CompositeInsert (s o, s c, p)
    | Instr.Load p -> Instr.Load (s p)
    | Instr.Store (p, v) -> Instr.Store (s p, s v)
    | Instr.AccessChain (b, idxs) -> Instr.AccessChain (s b, List.map s idxs)
    | Instr.FunctionCall (f, args) -> Instr.FunctionCall (s f, List.map s args)
    | Instr.Phi inc -> Instr.Phi (List.map (fun (v, b) -> (s v, s b)) inc)
    | Instr.CopyObject x -> Instr.CopyObject (s x)
    | (Instr.Variable _ | Instr.Undef | Instr.Nop) as op -> op
  in
  {
    Instr.result = Option.map s i.Instr.result;
    Instr.ty = Option.map s i.Instr.ty;
    Instr.op;
  }

let remap_block map (b : Block.t) =
  let s = remap_id map in
  let terminator =
    match b.Block.terminator with
    | Block.Branch t -> Block.Branch (s t)
    | Block.BranchConditional (c, t, f) -> Block.BranchConditional (s c, s t, s f)
    | Block.ReturnValue v -> Block.ReturnValue (s v)
    | (Block.Return | Block.Kill | Block.Unreachable) as t -> t
  in
  { Block.label = s b.Block.label; instrs = List.map (remap_instr map) b.Block.instrs; terminator }

let has_syntactic_successor (f : Func.t) block =
  let rec go = function
    | [] | [ _ ] -> false
    | (b : Block.t) :: next :: rest ->
        Id.equal b.Block.label block || go (next :: rest)
  in
  go f.Func.blocks

(* ------------------------------------------------------------------ *)
(* Module-level effect helpers shared between a precondition (which
   validates the edited function of the candidate module) and the
   corresponding apply                                                   *)

let replace_branch_with_kill_m ctx ~fn ~block =
  let m = module_of ctx in
  match lookup_block ctx ~fn ~block with
  | None -> m
  | Some (f, b) ->
      let succs = Block.successors b in
      (* remove this block's φ entries from former successors *)
      let f =
        List.fold_left
          (fun f succ ->
            match Func.find_block f succ with
            | None -> f
            | Some sb ->
                let instrs =
                  List.map
                    (fun (i : Instr.t) ->
                      match i.Instr.op with
                      | Instr.Phi inc ->
                          {
                            i with
                            Instr.op =
                              Instr.Phi
                                (List.filter (fun (_, blk) -> not (Id.equal blk block)) inc);
                          }
                      | _ -> i)
                    sb.Block.instrs
                in
                Func.replace_block f { sb with Block.instrs })
          f succs
      in
      let f = Func.replace_block f { b with Block.terminator = Block.Kill } in
      Module_ir.replace_function m f

let move_block_down_m ctx ~fn ~block =
  let m = module_of ctx in
  Edit.update_function m ~fn ~f:(fun f ->
      let rec swap = function
        | (b : Block.t) :: next :: rest when Id.equal b.Block.label block ->
            next :: b :: rest
        | b :: rest -> b :: swap rest
        | [] -> []
      in
      { f with Func.blocks = swap f.Func.blocks })

(* ------------------------------------------------------------------ *)
(* Preconditions                                                       *)

(** Whether [t] applies to [ctx]: every id it introduces is fresh, and its
    type's own condition holds. *)
let precondition ctx t =
  all_fresh ctx t
  &&
  match t with
  | Add_type { ty; fresh = _ } -> (
      let m = module_of ctx in
      Module_ir.find_type_id m ty = None
      &&
      (* component ids must already be declared *)
      match ty with
      | Ty.Void | Ty.Bool | Ty.Int | Ty.Float -> true
      | Ty.Vector (c, n) -> Module_ir.find_type m c <> None && n >= 2 && n <= 4
      | Ty.Matrix (c, n) -> Module_ir.find_type m c <> None && n >= 2 && n <= 4
      | Ty.Struct ms -> List.for_all (fun c -> Module_ir.find_type m c <> None) ms
      | Ty.Array (c, n) -> Module_ir.find_type m c <> None && n >= 1
      | Ty.Pointer (_, p) -> Module_ir.find_type m p <> None
      | Ty.Func (r, ps) ->
          Module_ir.find_type m r <> None
          && List.for_all (fun c -> Module_ir.find_type m c <> None) ps)
  | Add_constant { ty; value; fresh = _ } -> (
      let m = module_of ctx in
      Module_ir.find_constant_id m ~ty ~value = None
      &&
      match (Module_ir.find_type m ty, value) with
      | Some Ty.Bool, Constant.Bool _ -> true
      | Some Ty.Int, Constant.Int _ -> true
      | Some Ty.Float, Constant.Float _ -> true
      | Some tystruct, Constant.Null -> (
          match tystruct with Ty.Void | Ty.Func _ | Ty.Pointer _ -> false | _ -> true)
      | Some _, Constant.Composite parts -> (
          match Module_ir.composite_arity m ty with
          | Some n when List.length parts = n ->
              List.for_all
                (fun (idx, part) ->
                  match (Module_ir.find_constant m part, Module_ir.component_ty m ty idx) with
                  | Some c, Some expected -> Id.equal c.Module_ir.cd_ty expected
                  | _ -> false)
                (List.mapi (fun idx p -> (idx, p)) parts)
          | Some _ | None -> false)
      | _ -> false)
  | Add_global_variable { pointee; _ } -> (
      match Module_ir.find_type (module_of ctx) pointee with
      | Some (Ty.Void | Ty.Func _ | Ty.Pointer _) | None -> false
      | Some _ -> true)
  | Add_uniform { pointee; name; value; _ } -> (
      let m = module_of ctx in
      (* the name must be unused in both the module and the input, and the
         recorded value must inhabit the pointee type *)
      (not
         (List.exists
            (fun (g : Module_ir.global_decl) -> String.equal g.Module_ir.gd_name name)
            m.Module_ir.globals))
      && Input.find_uniform ctx.Context.input name = None
      &&
      match (Module_ir.find_type m pointee, value) with
      | Some Ty.Bool, Value.VBool _ -> true
      | Some Ty.Int, Value.VInt _ -> true
      | Some Ty.Float, Value.VFloat _ -> true
      | _ -> false)
  | Add_local_variable { fn; pointee; _ } -> (
      let m = module_of ctx in
      Module_ir.find_function m fn <> None
      &&
      match Module_ir.find_type m pointee with
      | Some (Ty.Void | Ty.Func _ | Ty.Pointer _) | None -> false
      | Some _ -> true)
  | Add_nop { fn; block; point } -> point_offset ctx ~fn ~block point <> None
  | Split_block { fn; block; point; fresh = _ } -> (
      match lookup_block ctx ~fn ~block with
      | None -> false
      | Some (f, b) -> (
          match resolve_point b point with
          | None -> false
          | Some o ->
              (* cannot split in the φ region *)
              o >= Edit.phi_count b
              (* in the entry block, allocations must stay put *)
              && (not (Id.equal (Func.entry_block f).Block.label block)
                 || List.for_all
                      (fun (i : Instr.t) ->
                        match i.Instr.op with Instr.Variable _ -> false | _ -> true)
                      (List.filteri (fun idx _ -> idx >= o) b.Block.instrs))))
  | Add_dead_block { fn; existing; fresh = _; cond } -> (
      is_bool_constant ctx cond true
      &&
      match lookup_block ctx ~fn ~block:existing with
      | None -> false
      | Some (f, b) -> (
          match b.Block.terminator with
          | Block.Branch succ -> (
              match Func.find_block f succ with
              | Some s -> Edit.phi_count s = 0
              | None -> false)
          | _ -> false))
  | Replace_branch_with_kill { fn; block } ->
      Fact_manager.is_dead_block ctx.Context.facts block
      && (match lookup_block ctx ~fn ~block with
         | Some (_, b) -> Block.successors b <> []
         | None -> false)
      && Validate.function_is_valid (replace_branch_with_kill_m ctx ~fn ~block) fn
  | Move_block_down { fn; block } -> (
      match Module_ir.find_function (module_of ctx) fn with
      | None -> false
      | Some f -> (
          match f.Func.blocks with
          | [] -> false
          | entry :: _ ->
              (not (Id.equal entry.Block.label block))
              && has_syntactic_successor f block
              && Validate.function_is_valid (move_block_down_m ctx ~fn ~block) fn))
  | Wrap_region_in_selection { fn; block; cond; branch_on_true; _ } -> (
      is_bool_constant ctx cond branch_on_true
      &&
      match lookup_block ctx ~fn ~block with
      | None -> false
      | Some (f, b) ->
          let cfg = Cfg.of_func f in
          (* after wrapping, the untaken header->merge edge means [block] no
             longer dominates its former successors, so nothing defined in
             [block] may be used outside it — not even by its own
             terminator, which moves to the merge block *)
          let defined_in_block =
            List.filter_map (fun (i : Instr.t) -> i.Instr.result) b.Block.instrs
          in
          let used_outside =
            List.exists
              (fun id ->
                List.mem id (Block.terminator_used_ids b.Block.terminator)
                || List.exists
                     (fun (b' : Block.t) ->
                       (not (Id.equal b'.Block.label block))
                       && (List.exists
                             (fun (i : Instr.t) -> List.mem id (Instr.used_ids i))
                             b'.Block.instrs
                          || List.mem id (Block.terminator_used_ids b'.Block.terminator)))
                     f.Func.blocks)
              defined_in_block
          in
          (not used_outside)
          && (not (Id.equal (Func.entry_block f).Block.label block))
          && List.length (Cfg.predecessors cfg block) = 1
          && (not (List.mem block (Cfg.predecessors cfg block)))
          && Edit.phi_count b = 0
          && List.for_all
               (fun (i : Instr.t) ->
                 match i.Instr.op with Instr.Variable _ -> false | _ -> true)
               b.Block.instrs)
  | Invert_branch_condition { fn; block; fresh = _ } -> (
      match lookup_block ctx ~fn ~block with
      | Some (_, b) -> (
          match b.Block.terminator with
          | Block.BranchConditional _ -> true
          | _ -> false)
      | None -> false)
  | Propagate_instruction_up { fn; block; fresh_per_pred } -> (
      let m = module_of ctx in
      match lookup_block ctx ~fn ~block with
      | None -> false
      | Some (f, b) -> (
          let cfg = Cfg.of_func f in
          let preds = Cfg.predecessors cfg block in
          let n_phis = Edit.phi_count b in
          match List.nth_opt b.Block.instrs n_phis with
          | None -> false
          | Some (i : Instr.t) -> (
              let movable =
                match i.Instr.op with
                | Instr.Binop _ | Instr.Unop _ | Instr.Select _
                | Instr.CompositeConstruct _ | Instr.CompositeExtract _
                | Instr.CompositeInsert _ | Instr.CopyObject _ | Instr.Load _ ->
                    true
                | _ -> false
              in
              movable
              && Cfg.is_reachable cfg block
              && preds <> []
              && (not (List.mem block preds))
              && List.sort_uniq Id.compare (List.map fst fresh_per_pred)
                 = List.sort_uniq Id.compare preds
              && List.length fresh_per_pred = List.length preds
              &&
              (* each operand must be available at the end of every predecessor,
                 after substituting φ values for that predecessor *)
              let analysis = Analysis.make m f in
              let phi_incoming_for pred op =
                List.find_map
                  (fun (p : Instr.t) ->
                    match (p.Instr.result, p.Instr.op) with
                    | Some r, Instr.Phi inc when Id.equal r op ->
                        List.find_map
                          (fun (v, blk) -> if Id.equal blk pred then Some v else None)
                          inc
                    | _ -> None)
                  (Block.phis b)
              in
              List.for_all
                (fun pred ->
                  List.for_all
                    (fun op ->
                      let op' = Option.value ~default:op (phi_incoming_for pred op) in
                      Analysis.available_at_end analysis ~block:pred op')
                    (Instr.used_ids i))
                preds)))
  | Permute_phi_entries { fn; block; phi; rotation } -> (
      rotation >= 0
      &&
      match lookup_block ctx ~fn ~block with
      | None -> false
      | Some (_, b) ->
          List.exists
            (fun (i : Instr.t) ->
              i.Instr.result = Some phi
              && (match i.Instr.op with Instr.Phi inc -> List.length inc >= 2 | _ -> false))
            b.Block.instrs)
  | Swap_commutative_operands { fn; block; instr } -> (
      match lookup_block ctx ~fn ~block with
      | None -> false
      | Some (_, b) ->
          List.exists
            (fun (i : Instr.t) ->
              i.Instr.result = Some instr
              &&
              match i.Instr.op with
              | Instr.Binop
                  ( ( Instr.IAdd | Instr.IMul | Instr.FAdd | Instr.FMul
                    | Instr.LogicalAnd | Instr.LogicalOr | Instr.IEqual
                    | Instr.INotEqual | Instr.FOrdEqual | Instr.FOrdNotEqual
                    | Instr.SLessThan | Instr.SLessThanEqual
                    | Instr.SGreaterThan | Instr.SGreaterThanEqual
                    | Instr.FOrdLessThan | Instr.FOrdLessThanEqual
                    | Instr.FOrdGreaterThan | Instr.FOrdGreaterThanEqual ),
                    _, _ ) ->
                  true
              | _ -> false)
            b.Block.instrs)
  | Add_load { fn; block; point; fresh = _; pointer } -> (
      match point_offset ctx ~fn ~block point with
      | None -> false
      | Some o -> (
          available ctx ~fn ~block ~offset:o pointer
          && match type_struct ctx pointer with Some (Ty.Pointer _) -> true | _ -> false))
  | Add_store { fn; block; point; pointer; value } -> (
      match point_offset ctx ~fn ~block point with
      | None -> false
      | Some o -> (
          let facts = ctx.Context.facts in
          (Fact_manager.is_dead_block facts block
          || Fact_manager.is_irrelevant_pointee facts pointer)
          && available ctx ~fn ~block ~offset:o pointer
          && available ctx ~fn ~block ~offset:o value
          &&
          match type_struct ctx pointer with
          | Some (Ty.Pointer ((Ty.Function | Ty.Private | Ty.Output), pointee)) ->
              type_of_id ctx value = Some pointee
          | _ -> false))
  | Add_copy_object { fn; block; point; fresh = _; operand } -> (
      match point_offset ctx ~fn ~block point with
      | None -> false
      | Some o ->
          available ctx ~fn ~block ~offset:o operand && type_of_id ctx operand <> None)
  | Add_arithmetic_synonym { fn; block; point; fresh = _; operand; kind; identity } -> (
      match point_offset ctx ~fn ~block point with
      | None -> false
      | Some o -> (
          available ctx ~fn ~block ~offset:o operand
          &&
          let operand_is tyv = type_struct ctx operand = Some tyv in
          let identity_is value =
            match Module_ir.find_constant (module_of ctx) identity with
            | Some { Module_ir.cd_value; _ } -> Constant.equal cd_value value
            | None -> false
          in
          match kind with
          | Add_zero_int | Mul_one_int ->
              operand_is Ty.Int
              && identity_is (Constant.Int (if kind = Add_zero_int then 0l else 1l))
          | Mul_one_float -> operand_is Ty.Float && identity_is (Constant.Float 1.0)
          | Sub_zero_float -> operand_is Ty.Float && identity_is (Constant.Float 0.0)
          | Or_false -> operand_is Ty.Bool && identity_is (Constant.Bool false)
          | And_true -> operand_is Ty.Bool && identity_is (Constant.Bool true)))
  | Add_select_synonym { fn; block; point; fresh = _; cond; operand } -> (
      match point_offset ctx ~fn ~block point with
      | None -> false
      | Some o -> (
          available ctx ~fn ~block ~offset:o cond
          && available ctx ~fn ~block ~offset:o operand
          && type_struct ctx cond = Some Ty.Bool
          &&
          match type_struct ctx operand with
          | Some (Ty.Pointer _) | None -> false
          | Some _ -> true))
  | Replace_id_with_synonym { site; synonym } -> (
      use_site_replaceable ctx site
      &&
      match (use_site_operand ctx site, use_site_check_position ctx site) with
      | Some current, Some (check_block, check_idx) ->
          Fact_manager.are_synonymous ctx.Context.facts current synonym
          && type_of_id ctx current = type_of_id ctx synonym
          && type_of_id ctx current <> None
          && available ctx ~fn:site.us_fn ~block:check_block ~offset:check_idx synonym
      | _ -> false)
  | Replace_bool_constant_with_binary { site; fresh = _; operand } -> (
      use_site_replaceable ctx site
      &&
      (* the current operand must be a boolean constant, the helper operand
         an available integer, and the site not a φ (the comparison is
         inserted right before the using instruction) *)
      (match resolve_use_site ctx site with
      | Some (_, `Instr (_, i)) -> not (Instr.is_phi i)
      | Some (_, `Terminator) -> true
      | None -> false)
      &&
      match (use_site_operand ctx site, use_site_check_position ctx site) with
      | Some current, Some (check_block, check_idx) -> (
          (match Module_ir.find_constant (module_of ctx) current with
          | Some { Module_ir.cd_value = Constant.Bool _; _ } -> true
          | Some _ | None -> false)
          && available ctx ~fn:site.us_fn ~block:check_block ~offset:check_idx operand
          && type_struct ctx operand = Some Ty.Int)
      | _ -> false)
  | Replace_irrelevant_id { site; replacement } -> (
      let m = module_of ctx in
      let facts = ctx.Context.facts in
      use_site_replaceable ctx site
      &&
      (* the slot is replaceable either because the id currently used is
         irrelevant, or because the slot feeds a function parameter that is
         irrelevant (the way AddParameter's fresh parameters are exploited,
         section 3.3) *)
      let slot_feeds_irrelevant_param =
        match resolve_use_site ctx site with
        | Some (_, `Instr (_, { Instr.op = Instr.FunctionCall (callee, _); _ })) -> (
            match Module_ir.find_function m callee with
            | Some g -> (
                match List.nth_opt g.Func.params (site.us_operand - 1) with
                | Some pa -> Fact_manager.is_irrelevant facts pa.Func.param_id
                | None -> false)
            | None -> false)
        | _ -> false
      in
      match (use_site_operand ctx site, use_site_check_position ctx site) with
      | Some current, Some (check_block, check_idx) -> (
          (Fact_manager.is_irrelevant facts current || slot_feeds_irrelevant_param)
          && type_of_id ctx current = type_of_id ctx replacement
          && type_of_id ctx current <> None
          && available ctx ~fn:site.us_fn ~block:check_block ~offset:check_idx replacement
          &&
          (* do not put pointers in arbitrary slots *)
          match type_struct ctx replacement with
          | Some (Ty.Pointer _) -> false
          | Some _ -> true
          | None -> false)
      | _ -> false)
  | Replace_constant_with_uniform { site; fresh_load = _; uniform } -> (
      use_site_replaceable ctx site
      &&
      match resolve_use_site ctx site with
      | None -> false
      | Some (_, `Instr (_, i)) when Instr.is_phi i ->
          false (* would need the load in the predecessor; keep it simple *)
      | Some _ -> (
          match use_site_operand ctx site with
          | None -> false
          | Some current -> (
              match Edit.constant_value (module_of ctx) current with
              | None -> false
              | Some cv -> (
                  match
                    List.find_opt
                      (fun (gid, _, _) -> Id.equal gid uniform)
                      (Context.known_uniforms ctx)
                  with
                  | Some (_, pointee, uv) ->
                      Value.equal cv uv
                      && type_of_id ctx current = Some pointee
                  | None -> false))))
  | Composite_construct { fn; block; point; fresh = _; ty; parts } -> (
      let m = module_of ctx in
      match point_offset ctx ~fn ~block point with
      | None -> false
      | Some o -> (
          match Module_ir.composite_arity m ty with
          | Some n when List.length parts = n ->
              List.for_all
                (fun (idx, part) ->
                  available ctx ~fn ~block ~offset:o part
                  && type_of_id ctx part = Module_ir.component_ty m ty idx)
                (List.mapi (fun idx p -> (idx, p)) parts)
          | Some _ | None -> false))
  | Composite_extract { fn; block; point; fresh = _; composite; path } -> (
      match point_offset ctx ~fn ~block point with
      | None -> false
      | Some o -> (
          path <> []
          && available ctx ~fn ~block ~offset:o composite
          &&
          match type_of_id ctx composite with
          | Some cty -> Module_ir.ty_at_path (module_of ctx) cty path <> None
          | None -> false))
  | Set_function_control { fn; control } -> (
      match Module_ir.find_function (module_of ctx) fn with
      | Some f -> not (Func.equal_control f.Func.control control)
      | None -> false)
  | Function_call { fn; block; point; fresh = _; callee; args } -> (
      let m = module_of ctx in
      match point_offset ctx ~fn ~block point with
      | None -> false
      | Some o -> (
          match Module_ir.find_function m callee with
          | None -> false
          | Some g -> (
              (not (Id.equal fn callee))
              && call_cannot_reach m ~callee ~target:fn
              &&
              match Module_ir.find_type m g.Func.fn_ty with
              | Some (Ty.Func (ret, param_tys)) -> (
                  (match Module_ir.find_type m ret with
                  | Some Ty.Void -> false (* keep calls value-producing *)
                  | Some _ -> true
                  | None -> false)
                  && List.length args = List.length param_tys
                  && List.for_all2
                       (fun arg pty ->
                         available ctx ~fn ~block ~offset:o arg
                         && type_of_id ctx arg = Some pty)
                       args param_tys
                  &&
                  (* live-safe callees may be called from anywhere provided
                     pointer arguments are irrelevant; any callee may be
                     called from a dead block *)
                  let pointer_args_irrelevant =
                    List.for_all
                      (fun arg ->
                        match type_struct ctx arg with
                        | Some (Ty.Pointer _) ->
                            Fact_manager.is_irrelevant_pointee ctx.Context.facts arg
                        | Some _ -> true
                        | None -> false)
                      args
                  in
                  (Fact_manager.is_live_safe ctx.Context.facts callee
                   && pointer_args_irrelevant)
                  || Fact_manager.is_dead_block ctx.Context.facts block)
              | Some _ | None -> false)))
  | Add_parameter { fn; fresh_param = _; fresh_fn_ty = _; default } -> (
      let m = module_of ctx in
      match Module_ir.find_function m fn with
      | None -> false
      | Some _ ->
          (not (Id.equal fn m.Module_ir.entry))
          && Module_ir.find_constant m default <> None)
  | Add_function p ->
      let m = module_of ctx in
      (* the donor must be self-contained and manifestly safe: no calls, no
         kills, no stores outside its own locals *)
      let f = p.af_function in
      let structurally_safe =
        List.for_all
          (fun (b : Block.t) ->
            (match b.Block.terminator with Block.Kill -> false | _ -> true)
            && List.for_all
                 (fun (i : Instr.t) ->
                   match i.Instr.op with
                   | Instr.FunctionCall _ -> false
                   | Instr.Store (ptr, _) ->
                       (* the pointer must be a local of this function (its
                          definition appears among the donor's instructions) *)
                       List.exists
                         (fun (j : Instr.t) -> j.Instr.result = Some ptr)
                         (Func.all_instrs f)
                       || List.exists
                            (fun (j : Instr.t) ->
                              match j.Instr.op with
                              | Instr.AccessChain _ -> j.Instr.result = Some ptr
                              | _ -> false)
                            (Func.all_instrs f)
                   | _ -> true)
                 b.Block.instrs)
          f.Func.blocks
      in
      structurally_safe && f.Func.blocks <> [] && Module_ir.find_function m f.Func.id = None
  | Inline_function { fn; block; call_id; id_map } -> (
      let m = module_of ctx in
      match lookup_block ctx ~fn ~block with
      | None -> false
      | Some (_, b) -> (
          let call_instr =
            List.find_opt (fun (i : Instr.t) -> i.Instr.result = Some call_id) b.Block.instrs
          in
          match call_instr with
          | Some { Instr.op = Instr.FunctionCall (callee, _args); _ } -> (
              match Module_ir.find_function m callee with
              | None -> false
              | Some g -> (
                  (not (Func.equal_control g.Func.control Func.DontInline))
                  &&
                  match g.Func.blocks with
                  | [ body ] -> (
                      match body.Block.terminator with
                      | Block.ReturnValue _ ->
                          (* no allocations, no φs in a single-block callee *)
                          List.for_all
                            (fun (i : Instr.t) ->
                              match i.Instr.op with
                              | Instr.Variable _ | Instr.Phi _ -> false
                              | _ -> true)
                            body.Block.instrs
                          && (* the id map must cover exactly the callee's results *)
                          (let result_ids =
                             List.filter_map
                               (fun (i : Instr.t) -> i.Instr.result)
                               body.Block.instrs
                           in
                           List.sort_uniq Id.compare (List.map fst id_map)
                           = List.sort_uniq Id.compare result_ids)
                      | _ -> false)
                  | _ -> false))
          | Some _ | None -> false))

(* ------------------------------------------------------------------ *)
(* Effects                                                             *)

(** Apply a transformation whose precondition holds: claim its fresh ids,
    then perform its type's effect. *)
let apply ctx t =
  let ctx = Context.claim ctx (fresh_ids t) in
  match t with
  | Add_type { fresh; ty } ->
      let m = module_of ctx in
      {
        ctx with
        Context.m =
          { m with Module_ir.types = m.Module_ir.types @ [ { Module_ir.td_id = fresh; td_ty = ty } ] };
      }
  | Add_constant { fresh; ty; value } ->
      let m = module_of ctx in
      {
        ctx with
        Context.m =
          {
            m with
            Module_ir.constants =
              m.Module_ir.constants @ [ { Module_ir.cd_id = fresh; cd_ty = ty; cd_value = value } ];
          };
      }
  | Add_global_variable { fresh; fresh_ptr_ty; pointee } ->
      let m = module_of ctx in
      let m, ptr_ty = Edit.intern_type_with m ~fresh:fresh_ptr_ty (Ty.Pointer (Ty.Private, pointee)) in
      let m =
        {
          m with
          Module_ir.globals =
            m.Module_ir.globals
            @ [ { Module_ir.gd_id = fresh; gd_ty = ptr_ty;
                  gd_name = Printf.sprintf "_g%d" fresh; gd_init = None } ];
        }
      in
      {
        ctx with
        Context.m = m;
        Context.facts = Fact_manager.add_irrelevant_pointee ctx.Context.facts fresh;
      }
  | Add_uniform { fresh; fresh_ptr_ty; pointee; name; value } ->
      let m = module_of ctx in
      let m, ptr_ty = Edit.intern_type_with m ~fresh:fresh_ptr_ty (Ty.Pointer (Ty.Uniform, pointee)) in
      let m =
        {
          m with
          Module_ir.globals =
            m.Module_ir.globals
            @ [ { Module_ir.gd_id = fresh; gd_ty = ptr_ty; gd_name = name; gd_init = None } ];
        }
      in
      let input =
        {
          ctx.Context.input with
          Input.uniforms = ctx.Context.input.Input.uniforms @ [ (name, value) ];
        }
      in
      { ctx with Context.m = m; Context.input = input }
  | Add_local_variable { fresh; fresh_ptr_ty; fn; pointee } ->
      let m = module_of ctx in
      let m, ptr_ty = Edit.intern_type_with m ~fresh:fresh_ptr_ty (Ty.Pointer (Ty.Function, pointee)) in
      let m =
        Edit.update_function m ~fn ~f:(fun f ->
            match f.Func.blocks with
            | [] -> f
            | entry :: rest ->
                let var = Instr.make ~result:fresh ~ty:ptr_ty (Instr.Variable Ty.Function) in
                { f with Func.blocks = { entry with Block.instrs = var :: entry.Block.instrs } :: rest })
      in
      {
        ctx with
        Context.m = m;
        Context.facts = Fact_manager.add_irrelevant_pointee ctx.Context.facts fresh;
      }
  | Add_nop { fn; block; point } -> (
      match point_offset ctx ~fn ~block point with
      | None -> ctx
      | Some o ->
          Context.with_module ctx
            (Edit.insert_instr (module_of ctx) ~fn ~block ~offset:o (Instr.make_void Instr.Nop)))
  | Split_block { fn; block; point; fresh } -> (
      let m = module_of ctx in
      let facts = ctx.Context.facts in
      match lookup_block ctx ~fn ~block with
      | None -> ctx
      | Some (f, b) -> (
          match resolve_point b point with
          | None -> ctx
          | Some o ->
              let before = List.filteri (fun i _ -> i < o) b.Block.instrs in
              let after = List.filteri (fun i _ -> i >= o) b.Block.instrs in
              let new_block =
                { Block.label = fresh; instrs = after; terminator = b.Block.terminator }
              in
              let f =
                Func.replace_block f
                  { b with Block.instrs = before; terminator = Block.Branch fresh }
              in
              let f = Func.insert_block_after f ~after:block new_block in
              (* successors' φ entries must now name the new block *)
              let f =
                List.fold_left
                  (fun f succ ->
                    match Func.find_block f succ with
                    | None -> f
                    | Some sb ->
                        let instrs =
                          List.map
                            (fun (i : Instr.t) ->
                              match i.Instr.op with
                              | Instr.Phi inc ->
                                  {
                                    i with
                                    Instr.op =
                                      Instr.Phi
                                        (List.map
                                           (fun (v, blk) ->
                                             if Id.equal blk block then (v, fresh) else (v, blk))
                                           inc);
                                  }
                              | _ -> i)
                            sb.Block.instrs
                        in
                        Func.replace_block f { sb with Block.instrs })
                  f
                  (Block.successors new_block)
              in
              let facts =
                if Fact_manager.is_dead_block facts block then
                  Fact_manager.add_dead_block facts fresh
                else facts
              in
              { ctx with Context.m = Module_ir.replace_function m f; Context.facts = facts }))
  | Add_dead_block { fn; existing; fresh; cond } -> (
      let m = module_of ctx in
      match lookup_block ctx ~fn ~block:existing with
      | None -> ctx
      | Some (f, b) -> (
          match b.Block.terminator with
          | Block.Branch succ ->
              let dead = { Block.label = fresh; instrs = []; terminator = Block.Branch succ } in
              let f =
                Func.replace_block f
                  { b with Block.terminator = Block.BranchConditional (cond, succ, fresh) }
              in
              let f = Func.insert_block_after f ~after:existing dead in
              {
                ctx with
                Context.m = Module_ir.replace_function m f;
                Context.facts = Fact_manager.add_dead_block ctx.Context.facts fresh;
              }
          | _ -> ctx))
  | Replace_branch_with_kill { fn; block } ->
      Context.with_module ctx (replace_branch_with_kill_m ctx ~fn ~block)
  | Move_block_down { fn; block } ->
      Context.with_module ctx (move_block_down_m ctx ~fn ~block)
  | Wrap_region_in_selection { fn; block; fresh_header; fresh_merge; cond; branch_on_true } -> (
      let m = module_of ctx in
      match lookup_block ctx ~fn ~block with
      | None -> ctx
      | Some (f, b) ->
          let header_term =
            if branch_on_true then Block.BranchConditional (cond, block, fresh_merge)
            else Block.BranchConditional (cond, fresh_merge, block)
          in
          let header = { Block.label = fresh_header; instrs = []; terminator = header_term } in
          let merge =
            { Block.label = fresh_merge; instrs = []; terminator = b.Block.terminator }
          in
          let b' = { b with Block.terminator = Block.Branch fresh_merge } in
          (* redirect all edges into [block] to the header *)
          let f =
            {
              f with
              Func.blocks =
                List.map
                  (fun (blk : Block.t) ->
                    if Id.equal blk.Block.label block then blk
                    else Block.redirect_target ~old_target:block ~new_target:fresh_header blk)
                  f.Func.blocks;
            }
          in
          (* install header before [block], merge right after *)
          let f = Func.replace_block f b' in
          let f =
            {
              f with
              Func.blocks =
                List.concat_map
                  (fun (blk : Block.t) ->
                    if Id.equal blk.Block.label block then [ header; blk ] else [ blk ])
                  f.Func.blocks;
            }
          in
          let f = Func.insert_block_after f ~after:block merge in
          (* φs in the original successors must now name the merge block *)
          let f =
            List.fold_left
              (fun f succ ->
                match Func.find_block f succ with
                | None -> f
                | Some sb ->
                    let instrs =
                      List.map
                        (fun (i : Instr.t) ->
                          match i.Instr.op with
                          | Instr.Phi inc ->
                              {
                                i with
                                Instr.op =
                                  Instr.Phi
                                    (List.map
                                       (fun (v, blk) ->
                                         if Id.equal blk block then (v, fresh_merge) else (v, blk))
                                       inc);
                              }
                          | _ -> i)
                        sb.Block.instrs
                    in
                    Func.replace_block f { sb with Block.instrs })
              f (Block.successors merge)
          in
          Context.with_module ctx (Module_ir.replace_function m f))
  | Invert_branch_condition { fn; block; fresh } -> (
      let m = module_of ctx in
      match lookup_block ctx ~fn ~block with
      | None -> ctx
      | Some (f, b) -> (
          match b.Block.terminator with
          | Block.BranchConditional (c, tt, ff) ->
              let bool_ty =
                match Module_ir.type_of_id m c with Some t -> t | None -> 0
              in
              let neg = Instr.make ~result:fresh ~ty:bool_ty (Instr.Unop (Instr.LogicalNot, c)) in
              let b =
                {
                  b with
                  Block.instrs = b.Block.instrs @ [ neg ];
                  Block.terminator = Block.BranchConditional (fresh, ff, tt);
                }
              in
              Context.with_module ctx (Module_ir.replace_function m (Func.replace_block f b))
          | _ -> ctx))
  | Propagate_instruction_up { fn; block; fresh_per_pred } -> (
      let m = module_of ctx in
      match lookup_block ctx ~fn ~block with
      | None -> ctx
      | Some (f, b) -> (
          let n_phis = Edit.phi_count b in
          match List.nth_opt b.Block.instrs n_phis with
          | None -> ctx
          | Some (i : Instr.t) ->
              let phi_incoming_for pred op =
                List.find_map
                  (fun (p : Instr.t) ->
                    match (p.Instr.result, p.Instr.op) with
                    | Some r, Instr.Phi inc when Id.equal r op ->
                        List.find_map
                          (fun (v, blk) -> if Id.equal blk pred then Some v else None)
                          inc
                    | _ -> None)
                  (Block.phis b)
              in
              (* copy [i] (with φ substitution) at the end of each pred *)
              let f =
                List.fold_left
                  (fun f (pred, fresh) ->
                    match Func.find_block f pred with
                    | None -> f
                    | Some pb ->
                        let subst =
                          List.filter_map
                            (fun op ->
                              match phi_incoming_for pred op with
                              | Some v -> Some (op, v)
                              | None -> None)
                            (Instr.used_ids i)
                        in
                        let copied = remap_instr subst { i with Instr.result = i.Instr.result } in
                        let copied = { copied with Instr.result = Some fresh } in
                        Func.replace_block f
                          { pb with Block.instrs = pb.Block.instrs @ [ copied ] })
                  f fresh_per_pred
              in
              (* replace [i] with a φ over the copies *)
              let phi =
                {
                  i with
                  Instr.op = Instr.Phi (List.map (fun (pred, fresh) -> (fresh, pred)) fresh_per_pred);
                }
              in
              let f =
                Edit.update_block_in_function f ~block ~f:(fun b ->
                    {
                      b with
                      Block.instrs =
                        List.mapi (fun idx x -> if idx = n_phis then phi else x) b.Block.instrs;
                    })
              in
              Context.with_module ctx (Module_ir.replace_function m f)))
  | Swap_commutative_operands { fn; block; instr } ->
      Context.with_module ctx
        (Edit.update_block (module_of ctx) ~fn ~block ~f:(fun b ->
             {
               b with
               Block.instrs =
                 List.map
                   (fun (i : Instr.t) ->
                     if i.Instr.result <> Some instr then i
                     else
                       let mirror op x y =
                         { i with Instr.op = Instr.Binop (op, y, x) }
                       in
                       match i.Instr.op with
                       | Instr.Binop
                           ( ( Instr.IAdd | Instr.IMul | Instr.FAdd | Instr.FMul
                             | Instr.LogicalAnd | Instr.LogicalOr | Instr.IEqual
                             | Instr.INotEqual | Instr.FOrdEqual | Instr.FOrdNotEqual )
                             as op, x, y ) ->
                           mirror op x y
                       | Instr.Binop (Instr.SLessThan, x, y) ->
                           mirror Instr.SGreaterThan x y
                       | Instr.Binop (Instr.SLessThanEqual, x, y) ->
                           mirror Instr.SGreaterThanEqual x y
                       | Instr.Binop (Instr.SGreaterThan, x, y) ->
                           mirror Instr.SLessThan x y
                       | Instr.Binop (Instr.SGreaterThanEqual, x, y) ->
                           mirror Instr.SLessThanEqual x y
                       | Instr.Binop (Instr.FOrdLessThan, x, y) ->
                           mirror Instr.FOrdGreaterThan x y
                       | Instr.Binop (Instr.FOrdLessThanEqual, x, y) ->
                           mirror Instr.FOrdGreaterThanEqual x y
                       | Instr.Binop (Instr.FOrdGreaterThan, x, y) ->
                           mirror Instr.FOrdLessThan x y
                       | Instr.Binop (Instr.FOrdGreaterThanEqual, x, y) ->
                           mirror Instr.FOrdLessThanEqual x y
                       | _ -> i)
                   b.Block.instrs;
             }))
  | Permute_phi_entries { fn; block; phi; rotation } ->
      let rotate n xs =
        let len = List.length xs in
        if len = 0 then xs
        else
          let k = n mod len in
          List.filteri (fun i _ -> i >= k) xs @ List.filteri (fun i _ -> i < k) xs
      in
      Context.with_module ctx
        (Edit.update_block (module_of ctx) ~fn ~block ~f:(fun b ->
             {
               b with
               Block.instrs =
                 List.map
                   (fun (i : Instr.t) ->
                     if i.Instr.result = Some phi then
                       match i.Instr.op with
                       | Instr.Phi inc -> { i with Instr.op = Instr.Phi (rotate rotation inc) }
                       | _ -> i
                     else i)
                   b.Block.instrs;
             }))
  | Add_load { fn; block; point; fresh; pointer } -> (
      match point_offset ctx ~fn ~block point with
      | None -> ctx
      | Some o ->
          let pointee =
            match type_struct ctx pointer with
            | Some (Ty.Pointer (_, p)) -> p
            | _ -> 0
          in
          Context.with_module ctx
            (Edit.insert_instr (module_of ctx) ~fn ~block ~offset:o
               (Instr.make ~result:fresh ~ty:pointee (Instr.Load pointer))))
  | Add_store { fn; block; point; pointer; value } -> (
      match point_offset ctx ~fn ~block point with
      | None -> ctx
      | Some o ->
          Context.with_module ctx
            (Edit.insert_instr (module_of ctx) ~fn ~block ~offset:o
               (Instr.make_void (Instr.Store (pointer, value)))))
  | Add_copy_object { fn; block; point; fresh; operand } -> (
      match point_offset ctx ~fn ~block point with
      | None -> ctx
      | Some o ->
          let ty = Option.value ~default:0 (type_of_id ctx operand) in
          let m =
            Edit.insert_instr (module_of ctx) ~fn ~block ~offset:o
              (Instr.make ~result:fresh ~ty (Instr.CopyObject operand))
          in
          {
            ctx with
            Context.m = m;
            Context.facts = Fact_manager.add_id_synonym ctx.Context.facts fresh operand;
          })
  | Add_arithmetic_synonym { fn; block; point; fresh; operand; kind; identity } -> (
      match point_offset ctx ~fn ~block point with
      | None -> ctx
      | Some o ->
          let ty = Option.value ~default:0 (type_of_id ctx operand) in
          let op =
            match kind with
            | Add_zero_int -> Instr.Binop (Instr.IAdd, operand, identity)
            | Mul_one_int -> Instr.Binop (Instr.IMul, operand, identity)
            | Mul_one_float -> Instr.Binop (Instr.FMul, operand, identity)
            | Sub_zero_float -> Instr.Binop (Instr.FSub, operand, identity)
            | Or_false -> Instr.Binop (Instr.LogicalOr, operand, identity)
            | And_true -> Instr.Binop (Instr.LogicalAnd, operand, identity)
          in
          let m =
            Edit.insert_instr (module_of ctx) ~fn ~block ~offset:o (Instr.make ~result:fresh ~ty op)
          in
          {
            ctx with
            Context.m = m;
            Context.facts = Fact_manager.add_id_synonym ctx.Context.facts fresh operand;
          })
  | Add_select_synonym { fn; block; point; fresh; cond; operand } -> (
      match point_offset ctx ~fn ~block point with
      | None -> ctx
      | Some o ->
          let ty = Option.value ~default:0 (type_of_id ctx operand) in
          let m =
            Edit.insert_instr (module_of ctx) ~fn ~block ~offset:o
              (Instr.make ~result:fresh ~ty (Instr.Select (cond, operand, operand)))
          in
          {
            ctx with
            Context.m = m;
            Context.facts = Fact_manager.add_id_synonym ctx.Context.facts fresh operand;
          })
  | Replace_id_with_synonym { site; synonym } ->
      Context.with_module ctx (substitute_use_site ctx site synonym)
  | Replace_bool_constant_with_binary { site; fresh; operand } -> (
      let m = module_of ctx in
      match resolve_use_site ctx site with
      | None -> ctx
      | Some (b, where) ->
          let value =
            match use_site_operand ctx site with
            | Some current -> (
                match Module_ir.find_constant m current with
                | Some { Module_ir.cd_value = Constant.Bool v; _ } -> v
                | Some _ | None -> true)
            | None -> true
          in
          let bool_ty =
            match Module_ir.find_type_id m Ty.Bool with Some t -> t | None -> 0
          in
          let cmp_op = if value then Instr.IEqual else Instr.INotEqual in
          let cmp =
            Instr.make ~result:fresh ~ty:bool_ty (Instr.Binop (cmp_op, operand, operand))
          in
          let insert_offset =
            match where with
            | `Terminator -> List.length b.Block.instrs
            | `Instr (idx, _) -> idx
          in
          let m =
            Edit.insert_instr m ~fn:site.us_fn ~block:site.us_block ~offset:insert_offset cmp
          in
          let site' =
            match site.us_anchor with
            | Nth_instr n -> { site with us_anchor = Nth_instr (n + 1) }
            | Result_id _ | Terminator -> site
          in
          let ctx = Context.with_module ctx m in
          Context.with_module ctx (substitute_use_site ctx site' fresh))
  | Replace_irrelevant_id { site; replacement } ->
      Context.with_module ctx (substitute_use_site ctx site replacement)
  | Replace_constant_with_uniform { site; fresh_load; uniform } -> (
      match resolve_use_site ctx site with
      | None -> ctx
      | Some (b, where) ->
          let pointee =
            match type_struct ctx uniform with
            | Some (Ty.Pointer (_, p)) -> p
            | _ -> 0
          in
          let load = Instr.make ~result:fresh_load ~ty:pointee (Instr.Load uniform) in
          let insert_offset =
            match where with
            | `Terminator -> List.length b.Block.instrs
            | `Instr (idx, _) -> idx
          in
          let m =
            Edit.insert_instr (module_of ctx) ~fn:site.us_fn ~block:site.us_block
              ~offset:insert_offset load
          in
          (* re-resolve in the updated module; Nth_instr anchors shifted *)
          let site' =
            match site.us_anchor with
            | Nth_instr n -> { site with us_anchor = Nth_instr (n + 1) }
            | Result_id _ | Terminator -> site
          in
          let ctx = Context.with_module ctx m in
          Context.with_module ctx (substitute_use_site ctx site' fresh_load))
  | Composite_construct { fn; block; point; fresh; ty; parts } -> (
      match point_offset ctx ~fn ~block point with
      | None -> ctx
      | Some o ->
          let m =
            Edit.insert_instr (module_of ctx) ~fn ~block ~offset:o
              (Instr.make ~result:fresh ~ty (Instr.CompositeConstruct parts))
          in
          let facts =
            List.fold_left
              (fun facts (idx, part) ->
                Fact_manager.add_synonym facts (fresh, [ idx ]) (part, []))
              ctx.Context.facts
              (List.mapi (fun idx p -> (idx, p)) parts)
          in
          { ctx with Context.m = m; Context.facts = facts })
  | Composite_extract { fn; block; point; fresh; composite; path } -> (
      let m = module_of ctx in
      match point_offset ctx ~fn ~block point with
      | None -> ctx
      | Some o ->
          let result_ty =
            match type_of_id ctx composite with
            | Some cty -> Option.value ~default:0 (Module_ir.ty_at_path m cty path)
            | None -> 0
          in
          let m =
            Edit.insert_instr m ~fn ~block ~offset:o
              (Instr.make ~result:fresh ~ty:result_ty (Instr.CompositeExtract (composite, path)))
          in
          let facts = Fact_manager.add_synonym ctx.Context.facts (fresh, []) (composite, path) in
          (* bridge to whole-object synonyms where the component is known *)
          let facts =
            List.fold_left
              (fun facts other -> Fact_manager.add_id_synonym facts fresh other)
              facts
              (Fact_manager.component_synonyms facts ~composite ~path)
          in
          { ctx with Context.m = m; Context.facts = facts })
  | Set_function_control { fn; control } ->
      Context.with_module ctx
        (Edit.update_function (module_of ctx) ~fn ~f:(fun f -> { f with Func.control }))
  | Function_call { fn; block; point; fresh; callee; args } -> (
      let m = module_of ctx in
      match point_offset ctx ~fn ~block point with
      | None -> ctx
      | Some o ->
          let ret_ty =
            match Module_ir.find_function m callee with
            | Some g -> (
                match Module_ir.find_type m g.Func.fn_ty with
                | Some (Ty.Func (ret, _)) -> ret
                | Some _ | None -> 0)
            | None -> 0
          in
          Context.with_module ctx
            (Edit.insert_instr m ~fn ~block ~offset:o
               (Instr.make ~result:fresh ~ty:ret_ty (Instr.FunctionCall (callee, args)))))
  | Add_parameter { fn; fresh_param; fresh_fn_ty; default } -> (
      let m = module_of ctx in
      match Module_ir.find_function m fn with
      | None -> ctx
      | Some f -> (
          let param_ty =
            match Module_ir.find_constant m default with
            | Some c -> c.Module_ir.cd_ty
            | None -> 0
          in
          match Module_ir.find_type m f.Func.fn_ty with
          | Some (Ty.Func (ret, param_tys)) ->
              let m, new_fn_ty =
                Edit.intern_type_with m ~fresh:fresh_fn_ty
                  (Ty.Func (ret, param_tys @ [ param_ty ]))
              in
              let f =
                {
                  f with
                  Func.fn_ty = new_fn_ty;
                  Func.params =
                    f.Func.params @ [ { Func.param_id = fresh_param; Func.param_ty = param_ty } ];
                }
              in
              let m = Module_ir.replace_function m f in
              (* extend every call site with the default constant *)
              let extend_calls (g : Func.t) =
                {
                  g with
                  Func.blocks =
                    List.map
                      (fun (b : Block.t) ->
                        {
                          b with
                          Block.instrs =
                            List.map
                              (fun (i : Instr.t) ->
                                match i.Instr.op with
                                | Instr.FunctionCall (callee, args) when Id.equal callee fn ->
                                    { i with Instr.op = Instr.FunctionCall (callee, args @ [ default ]) }
                                | _ -> i)
                              b.Block.instrs;
                        })
                      g.Func.blocks;
                }
              in
              let m = { m with Module_ir.functions = List.map extend_calls m.Module_ir.functions } in
              {
                ctx with
                Context.m = m;
                Context.facts = Fact_manager.add_irrelevant ctx.Context.facts fresh_param;
              }
          | Some _ | None -> ctx))
  | Add_function p ->
      let m = module_of ctx in
      (* intern donated types with structural dedupe, building a remap *)
      let m, ty_map =
        List.fold_left
          (fun (m, map) (id, ty) ->
            let ty_remapped =
              match ty with
              | Ty.Vector (c, n) -> Ty.Vector (remap_id map c, n)
              | Ty.Matrix (c, n) -> Ty.Matrix (remap_id map c, n)
              | Ty.Struct ms -> Ty.Struct (List.map (remap_id map) ms)
              | Ty.Array (c, n) -> Ty.Array (remap_id map c, n)
              | Ty.Pointer (sc, pt) -> Ty.Pointer (sc, remap_id map pt)
              | Ty.Func (r, ps) -> Ty.Func (remap_id map r, List.map (remap_id map) ps)
              | (Ty.Void | Ty.Bool | Ty.Int | Ty.Float) as s -> s
            in
            let m, actual = Edit.intern_type_with m ~fresh:id ty_remapped in
            (m, if Id.equal actual id then map else (id, actual) :: map))
          (m, []) p.af_types
      in
      (* intern donated constants likewise *)
      let m, full_map =
        List.fold_left
          (fun (m, map) (id, ty, value) ->
            let value_remapped =
              match value with
              | Constant.Composite parts -> Constant.Composite (List.map (remap_id map) parts)
              | (Constant.Bool _ | Constant.Int _ | Constant.Float _ | Constant.Null) as v -> v
            in
            let m, actual =
              Edit.intern_constant_with m ~fresh:id ~ty:(remap_id map ty) value_remapped
            in
            (m, if Id.equal actual id then map else (id, actual) :: map))
          (m, ty_map) p.af_constants
      in
      let f =
        {
          p.af_function with
          Func.fn_ty = remap_id full_map p.af_function.Func.fn_ty;
          Func.params =
            List.map
              (fun (pa : Func.param) -> { pa with Func.param_ty = remap_id full_map pa.Func.param_ty })
              p.af_function.Func.params;
          Func.blocks = List.map (remap_block full_map) p.af_function.Func.blocks;
        }
      in
      let m = { m with Module_ir.functions = m.Module_ir.functions @ [ f ] } in
      let facts =
        if p.af_live_safe then Fact_manager.add_live_safe ctx.Context.facts f.Func.id
        else ctx.Context.facts
      in
      { ctx with Context.m = m; Context.facts = facts }
  | Inline_function { fn; block; call_id; id_map } -> (
      let m = module_of ctx in
      match lookup_block ctx ~fn ~block with
      | None -> ctx
      | Some (f, b) -> (
          let call_instr =
            List.find_opt (fun (i : Instr.t) -> i.Instr.result = Some call_id) b.Block.instrs
          in
          match call_instr with
          | Some ({ Instr.op = Instr.FunctionCall (callee, args); _ } as ci) -> (
              match Module_ir.find_function m callee with
              | Some ({ Func.blocks = [ body ]; _ } as g) -> (
                  match body.Block.terminator with
                  | Block.ReturnValue ret_val ->
                      let param_map =
                        List.map2
                          (fun (pa : Func.param) arg -> (pa.Func.param_id, arg))
                          g.Func.params args
                      in
                      let full_map = param_map @ id_map in
                      let inlined =
                        List.map (remap_instr full_map) body.Block.instrs
                      in
                      let epilogue =
                        {
                          Instr.result = Some call_id;
                          Instr.ty = ci.Instr.ty;
                          Instr.op = Instr.CopyObject (remap_id full_map ret_val);
                        }
                      in
                      let instrs =
                        List.concat_map
                          (fun (i : Instr.t) ->
                            if i.Instr.result = Some call_id then inlined @ [ epilogue ]
                            else [ i ])
                          b.Block.instrs
                      in
                      Context.with_module ctx
                        (Module_ir.replace_function m
                           (Func.replace_block f { b with Block.instrs = instrs }))
                  | _ -> ctx)
              | Some _ | None -> ctx)
          | Some _ | None -> ctx))
