(** The transformation registry: the metadata of every transformation
    type, one record per {!Transformation.kind}.

    An {!entry} holds the stable [type_id] (deduplication, section 3.5),
    the family the type belongs to, the sweep pass that proposes it
    (section 3.2), whether it takes part in Figure 6 dedup signatures, and
    an opportunity generator used by the property suites to manufacture
    valid instances on demand.  The precondition and effect are not here:
    {!Rules.precondition} and {!Rules.apply} dispatch on the constructor.

    {!entry} is one match over {!Transformation.kind} with no wildcard, and
    {!all} maps it over {!Transformation.kinds}, so the table is complete
    by construction.  {!Fuzzer.run} samples passes by {!pass_weight},
    {!Dedup} reads the flags, and the [tbct transformations] CLI renders
    the table.

    Determinism: with no weight overrides every pass weighs 1 and the
    weighted sampler degenerates to a uniform draw over {!Pass.all} (one
    RNG call, same index arithmetic as [Rng.choose]), so default-weight
    campaigns reproduce the historical streams bit-for-bit.  The
    opportunity generators below are used only by tests and the CLI, never
    by the fuzzing loop, so they may consume randomness freely. *)

open Spirv_ir

(* ------------------------------------------------------------------ *)
(* Families and entries                                                *)

type family =
  | Supporting    (** id/type/constant/variable plumbing; dedup-ignored *)
  | Control_flow  (** block splitting, dead blocks, selection wrapping, ... *)
  | Data          (** loads/stores, synonyms, composites *)
  | Function_ops  (** outlining, calls, parameters, inlining *)
  | Obfuscation   (** constants via uniforms / tautological comparisons *)

let family_to_string = function
  | Supporting -> "supporting"
  | Control_flow -> "control_flow"
  | Data -> "data"
  | Function_ops -> "function"
  | Obfuscation -> "obfuscation"

let family_of_string = function
  | "supporting" -> Some Supporting
  | "control_flow" -> Some Control_flow
  | "data" -> Some Data
  | "function" -> Some Function_ops
  | "obfuscation" -> Some Obfuscation
  | _ -> None

let families = [ Supporting; Control_flow; Data; Function_ops; Obfuscation ]

type gen = Context.t -> Tbct.Rng.t -> (Context.t * Transformation.t) option

type entry = {
  type_id : string;        (** stable name, equal to {!Transformation.type_id} *)
  family : family;
  pass : Pass.t option;    (** the sweep pass proposing this type, if any *)
  dedup_relevant : bool;   (** participates in Figure 6 signature sets *)
  gen : gen;               (** opportunity generator for the property suites *)
}

(* ------------------------------------------------------------------ *)
(* Generator helpers                                                   *)

let fresh2 ctx =
  let ctx, a = Pass.fresh_id ctx in
  let ctx, b = Pass.fresh_id ctx in
  (ctx, a, b)

let freshn ctx n =
  let m, ids = Module_ir.fresh_many ctx.Context.m n in
  (Context.with_module ctx m, ids)

let blocks_of ctx =
  List.concat_map
    (fun (f : Func.t) -> List.map (fun (b : Block.t) -> (f, b)) f.Func.blocks)
    ctx.Context.m.Module_ir.functions

let scalar_type_ids ctx =
  List.filter_map
    (fun (d : Module_ir.type_decl) ->
      match d.Module_ir.td_ty with
      | Ty.Int | Ty.Float | Ty.Bool -> Some d.Module_ir.td_id
      | _ -> None)
    ctx.Context.m.Module_ir.types

let cap n xs = List.filteri (fun i _ -> i < n) xs

(* Try the candidate thunks starting at a random rotation; accept the first
   whose result clears both the fresh-id discipline and the precondition. *)
let search rng cands =
  let n = List.length cands in
  if n = 0 then None
  else
    let start = Tbct.Rng.int rng n in
    let rec go k =
      if k >= n then None
      else
        match (List.nth cands ((start + k) mod n)) () with
        | Some (ctx, t) when Rules.precondition ctx t -> Some (ctx, t)
        | _ -> go (k + 1)
    in
    go 0

(* ------------------------------------------------------------------ *)
(* Opportunity generators, one per transformation type                 *)

let gen_add_type ctx rng =
  let m = ctx.Context.m in
  let missing_scalars =
    List.filter (fun ty -> Module_ir.find_type_id m ty = None) [ Ty.Bool; Ty.Int; Ty.Float ]
  in
  let built =
    List.concat_map
      (fun c -> [ Ty.Vector (c, 2); Ty.Array (c, 2); Ty.Pointer (Ty.Function, c) ])
      (scalar_type_ids ctx)
  in
  let cands =
    List.map
      (fun ty () ->
        let ctx, fresh = Pass.fresh_id ctx in
        Some (ctx, Transformation.Add_type { fresh; ty }))
      (missing_scalars @ built)
  in
  search rng cands

let gen_add_constant ctx rng =
  let m = ctx.Context.m in
  let k = Tbct.Rng.int rng 1000 in
  let cands =
    List.filter_map
      (fun (d : Module_ir.type_decl) ->
        let value =
          match d.Module_ir.td_ty with
          | Ty.Int -> Some (Constant.Int (Int32.of_int k))
          | Ty.Float -> Some (Constant.Float (float_of_int k /. 8.0))
          | Ty.Bool -> Some (Constant.Bool (k mod 2 = 0))
          | _ -> None
        in
        Option.map
          (fun value () ->
            let ctx, fresh = Pass.fresh_id ctx in
            Some (ctx, Transformation.Add_constant { fresh; ty = d.Module_ir.td_id; value }))
          value)
      m.Module_ir.types
  in
  search rng cands

let gen_add_global_variable ctx rng =
  let cands =
    List.map
      (fun pointee () ->
        let ctx, fresh, fresh_ptr_ty = fresh2 ctx in
        Some (ctx, Transformation.Add_global_variable { fresh; fresh_ptr_ty; pointee }))
      (scalar_type_ids ctx)
  in
  search rng cands

let gen_add_uniform ctx rng =
  let m = ctx.Context.m in
  let k = Tbct.Rng.int rng 100 in
  let cands =
    List.filter_map
      (fun (d : Module_ir.type_decl) ->
        let value =
          match d.Module_ir.td_ty with
          | Ty.Int -> Some (Value.VInt (Int32.of_int k))
          | Ty.Float -> Some (Value.VFloat (float_of_int k))
          | Ty.Bool -> Some (Value.VBool (k mod 2 = 0))
          | _ -> None
        in
        Option.map
          (fun value () ->
            let ctx, fresh, fresh_ptr_ty = fresh2 ctx in
            Some
              ( ctx,
                Transformation.Add_uniform
                  {
                    fresh;
                    fresh_ptr_ty;
                    pointee = d.Module_ir.td_id;
                    name = Printf.sprintf "_u%d" fresh;
                    value;
                  } ))
          value)
      m.Module_ir.types
  in
  search rng cands

let gen_add_local_variable ctx rng =
  let cands =
    List.concat_map
      (fun (f : Func.t) ->
        List.map
          (fun pointee () ->
            let ctx, fresh, fresh_ptr_ty = fresh2 ctx in
            Some
              ( ctx,
                Transformation.Add_local_variable
                  { fresh; fresh_ptr_ty; fn = f.Func.id; pointee } ))
          (scalar_type_ids ctx))
      ctx.Context.m.Module_ir.functions
  in
  search rng cands

let gen_add_nop ctx rng =
  let cands =
    List.map
      (fun ((f : Func.t), (b : Block.t)) () ->
        Some
          ( ctx,
            Transformation.Add_nop
              { fn = f.Func.id; block = b.Block.label; point = Transformation.At_end } ))
      (blocks_of ctx)
  in
  search rng cands

let gen_split_block ctx rng =
  let cands =
    List.map
      (fun ((f : Func.t), (b : Block.t)) () ->
        let ctx, fresh = Pass.fresh_id ctx in
        Some
          ( ctx,
            Transformation.Split_block
              { fn = f.Func.id; block = b.Block.label; point = Transformation.At_end; fresh }
          ))
      (blocks_of ctx)
  in
  search rng cands

let gen_add_dead_block ctx rng =
  match Edit.find_true_constant ctx.Context.m with
  | None -> None
  | Some cond ->
      let cands =
        List.map
          (fun ((f : Func.t), (b : Block.t)) () ->
            let ctx, fresh = Pass.fresh_id ctx in
            Some
              ( ctx,
                Transformation.Add_dead_block
                  { fn = f.Func.id; existing = b.Block.label; fresh; cond } ))
          (blocks_of ctx)
      in
      search rng cands

let gen_replace_branch_with_kill ctx rng =
  let facts = ctx.Context.facts in
  let cands =
    List.filter_map
      (fun ((f : Func.t), (b : Block.t)) ->
        if Fact_manager.is_dead_block facts b.Block.label then
          Some
            (fun () ->
              Some
                ( ctx,
                  Transformation.Replace_branch_with_kill
                    { fn = f.Func.id; block = b.Block.label } ))
        else None)
      (blocks_of ctx)
  in
  search rng cands

let gen_move_block_down ctx rng =
  let cands =
    List.map
      (fun ((f : Func.t), (b : Block.t)) () ->
        Some (ctx, Transformation.Move_block_down { fn = f.Func.id; block = b.Block.label }))
      (blocks_of ctx)
  in
  search rng cands

let gen_wrap_region_in_selection ctx rng =
  let m = ctx.Context.m in
  let conds =
    List.filter_map
      (fun branch_on_true ->
        Option.map
          (fun cond -> (cond, branch_on_true))
          (Edit.find_bool_constant m branch_on_true))
      [ true; false ]
  in
  let cands =
    List.concat_map
      (fun ((f : Func.t), (b : Block.t)) ->
        List.map
          (fun (cond, branch_on_true) () ->
            let ctx, fresh_header, fresh_merge = fresh2 ctx in
            Some
              ( ctx,
                Transformation.Wrap_region_in_selection
                  {
                    fn = f.Func.id;
                    block = b.Block.label;
                    fresh_header;
                    fresh_merge;
                    cond;
                    branch_on_true;
                  } ))
          conds)
      (blocks_of ctx)
  in
  search rng cands

let gen_invert_branch_condition ctx rng =
  let cands =
    List.map
      (fun ((f : Func.t), (b : Block.t)) () ->
        let ctx, fresh = Pass.fresh_id ctx in
        Some
          ( ctx,
            Transformation.Invert_branch_condition
              { fn = f.Func.id; block = b.Block.label; fresh } ))
      (blocks_of ctx)
  in
  search rng cands

let gen_propagate_instruction_up ctx rng =
  let cands =
    List.map
      (fun ((f : Func.t), (b : Block.t)) () ->
        let cfg = Cfg.of_func f in
        match Cfg.predecessors cfg b.Block.label with
        | [] -> None
        | preds ->
            let ctx, ids = freshn ctx (List.length preds) in
            Some
              ( ctx,
                Transformation.Propagate_instruction_up
                  {
                    fn = f.Func.id;
                    block = b.Block.label;
                    fresh_per_pred = List.combine preds ids;
                  } ))
      (blocks_of ctx)
  in
  search rng cands

let gen_permute_phi_entries ctx rng =
  let cands =
    List.concat_map
      (fun ((f : Func.t), (b : Block.t)) ->
        List.filter_map
          (fun (i : Instr.t) ->
            match (i.Instr.result, i.Instr.op) with
            | Some phi, Instr.Phi inc when List.length inc >= 2 ->
                Some
                  (fun () ->
                    Some
                      ( ctx,
                        Transformation.Permute_phi_entries
                          { fn = f.Func.id; block = b.Block.label; phi; rotation = 1 } ))
            | _ -> None)
          b.Block.instrs)
      (blocks_of ctx)
  in
  search rng cands

let gen_swap_commutative_operands ctx rng =
  let cands =
    List.concat_map
      (fun ((f : Func.t), (b : Block.t)) ->
        List.filter_map
          (fun (i : Instr.t) ->
            match (i.Instr.result, i.Instr.op) with
            | Some instr, Instr.Binop _ ->
                Some
                  (fun () ->
                    Some
                      ( ctx,
                        Transformation.Swap_commutative_operands
                          { fn = f.Func.id; block = b.Block.label; instr } ))
            | _ -> None)
          b.Block.instrs)
      (blocks_of ctx)
  in
  search rng cands

let gen_add_load ctx rng =
  let cands =
    List.concat_map
      (fun ((f : Func.t), (b : Block.t)) ->
        List.map
          (fun (pointer, _) () ->
            let ctx, fresh = Pass.fresh_id ctx in
            Some
              ( ctx,
                Transformation.Add_load
                  {
                    fn = f.Func.id;
                    block = b.Block.label;
                    point = Transformation.At_end;
                    fresh;
                    pointer;
                  } ))
          (Pass.candidate_pointers ctx f))
      (blocks_of ctx)
  in
  search rng (cap 256 cands)

let gen_add_store ctx rng =
  let m = ctx.Context.m in
  let cands =
    List.concat_map
      (fun ((f : Func.t), (b : Block.t)) ->
        let values = Pass.candidate_values ctx f in
        List.concat_map
          (fun (pointer, ptr_ty) ->
            match Module_ir.find_type m ptr_ty with
            | Some (Ty.Pointer (_, pointee)) ->
                List.filter_map
                  (fun (value, ty) ->
                    if Id.equal ty pointee then
                      Some
                        (fun () ->
                          Some
                            ( ctx,
                              Transformation.Add_store
                                {
                                  fn = f.Func.id;
                                  block = b.Block.label;
                                  point = Transformation.At_end;
                                  pointer;
                                  value;
                                } ))
                    else None)
                  values
            | _ -> [])
          (Pass.candidate_pointers ctx f))
      (blocks_of ctx)
  in
  search rng (cap 256 cands)

let gen_add_copy_object ctx rng =
  let cands =
    List.concat_map
      (fun ((f : Func.t), (b : Block.t)) ->
        List.map
          (fun (operand, _) () ->
            let ctx, fresh = Pass.fresh_id ctx in
            Some
              ( ctx,
                Transformation.Add_copy_object
                  {
                    fn = f.Func.id;
                    block = b.Block.label;
                    point = Transformation.At_end;
                    fresh;
                    operand;
                  } ))
          (Pass.candidate_values ctx f))
      (blocks_of ctx)
  in
  search rng (cap 256 cands)

let gen_add_arithmetic_synonym ctx rng =
  let m = ctx.Context.m in
  let kind, want_ty, id_value =
    match Tbct.Rng.int rng 6 with
    | 0 -> (Transformation.Add_zero_int, Ty.Int, Constant.Int 0l)
    | 1 -> (Transformation.Mul_one_int, Ty.Int, Constant.Int 1l)
    | 2 -> (Transformation.Mul_one_float, Ty.Float, Constant.Float 1.0)
    | 3 -> (Transformation.Sub_zero_float, Ty.Float, Constant.Float 0.0)
    | 4 -> (Transformation.Or_false, Ty.Bool, Constant.Bool false)
    | _ -> (Transformation.And_true, Ty.Bool, Constant.Bool true)
  in
  match Module_ir.find_type_id m want_ty with
  | None -> None
  | Some tid -> (
      match Module_ir.find_constant_id m ~ty:tid ~value:id_value with
      | None -> None
      | Some identity ->
          let cands =
            List.concat_map
              (fun ((f : Func.t), (b : Block.t)) ->
                List.filter_map
                  (fun (operand, ty) ->
                    if Id.equal ty tid then
                      Some
                        (fun () ->
                          let ctx, fresh = Pass.fresh_id ctx in
                          Some
                            ( ctx,
                              Transformation.Add_arithmetic_synonym
                                {
                                  fn = f.Func.id;
                                  block = b.Block.label;
                                  point = Transformation.At_end;
                                  fresh;
                                  operand;
                                  kind;
                                  identity;
                                } ))
                    else None)
                  (Pass.candidate_values ctx f))
              (blocks_of ctx)
          in
          search rng (cap 256 cands))

let gen_add_select_synonym ctx rng =
  let m = ctx.Context.m in
  let cands =
    List.concat_map
      (fun ((f : Func.t), (b : Block.t)) ->
        let values = Pass.candidate_values ctx f in
        let bools =
          List.filter (fun (_, ty) -> Module_ir.find_type m ty = Some Ty.Bool) values
        in
        List.concat_map
          (fun (cond, _) ->
            List.map
              (fun (operand, _) () ->
                let ctx, fresh = Pass.fresh_id ctx in
                Some
                  ( ctx,
                    Transformation.Add_select_synonym
                      {
                        fn = f.Func.id;
                        block = b.Block.label;
                        point = Transformation.At_end;
                        fresh;
                        cond;
                        operand;
                      } ))
              values)
          bools)
      (blocks_of ctx)
  in
  search rng (cap 256 cands)

let gen_replace_id_with_synonym ctx rng =
  let facts = ctx.Context.facts in
  let cands =
    List.concat_map
      (fun (f : Func.t) ->
        List.concat_map
          (fun (id, _) ->
            match Fact_manager.id_synonyms facts id with
            | [] -> []
            | syns ->
                List.concat_map
                  (fun site ->
                    List.map
                      (fun synonym () ->
                        Some (ctx, Transformation.Replace_id_with_synonym { site; synonym }))
                      syns)
                  (Pass.use_sites_of f id))
          (Pass.candidate_values ctx f))
      ctx.Context.m.Module_ir.functions
  in
  search rng (cap 256 cands)

let gen_replace_bool_constant_with_binary ctx rng =
  let m = ctx.Context.m in
  let bool_constants =
    List.filter_map
      (fun (d : Module_ir.const_decl) ->
        match d.Module_ir.cd_value with
        | Constant.Bool _ -> Some d.Module_ir.cd_id
        | _ -> None)
      m.Module_ir.constants
  in
  let cands =
    List.concat_map
      (fun (f : Func.t) ->
        let ints =
          List.filter
            (fun (_, ty) -> Module_ir.find_type m ty = Some Ty.Int)
            (Pass.candidate_values ctx f)
        in
        List.concat_map
          (fun c ->
            List.concat_map
              (fun site ->
                List.map
                  (fun (operand, _) () ->
                    let ctx, fresh = Pass.fresh_id ctx in
                    Some
                      ( ctx,
                        Transformation.Replace_bool_constant_with_binary
                          { site; fresh; operand } ))
                  ints)
              (Pass.use_sites_of f c))
          bool_constants)
      m.Module_ir.functions
  in
  search rng (cap 256 cands)

let gen_replace_irrelevant_id ctx rng =
  let facts = ctx.Context.facts in
  let cands =
    List.concat_map
      (fun (f : Func.t) ->
        let values = Pass.candidate_values ctx f in
        List.concat_map
          (fun (id, ty) ->
            if Fact_manager.is_irrelevant facts id then
              List.concat_map
                (fun site ->
                  List.filter_map
                    (fun (replacement, rty) ->
                      if Id.equal rty ty && not (Id.equal replacement id) then
                        Some
                          (fun () ->
                            Some
                              ( ctx,
                                Transformation.Replace_irrelevant_id { site; replacement }
                              ))
                      else None)
                    values)
                (Pass.use_sites_of f id)
            else [])
          values)
      ctx.Context.m.Module_ir.functions
  in
  search rng (cap 256 cands)

let gen_replace_constant_with_uniform ctx rng =
  let m = ctx.Context.m in
  let cands =
    List.concat_map
      (fun (gid, pointee, uv) ->
        let matching =
          List.filter_map
            (fun (d : Module_ir.const_decl) ->
              if
                Id.equal d.Module_ir.cd_ty pointee
                && Value.equal (Module_ir.const_value m d.Module_ir.cd_id) uv
              then Some d.Module_ir.cd_id
              else None)
            m.Module_ir.constants
        in
        List.concat_map
          (fun (f : Func.t) ->
            List.concat_map
              (fun c ->
                List.map
                  (fun site () ->
                    let ctx, fresh_load = Pass.fresh_id ctx in
                    Some
                      ( ctx,
                        Transformation.Replace_constant_with_uniform
                          { site; fresh_load; uniform = gid } ))
                  (Pass.use_sites_of f c))
              matching)
          m.Module_ir.functions)
      (Context.known_uniforms ctx)
  in
  search rng (cap 256 cands)

let gen_composite_construct ctx rng =
  let m = ctx.Context.m in
  let composite_tys =
    List.filter_map
      (fun (d : Module_ir.type_decl) ->
        match d.Module_ir.td_ty with
        | Ty.Vector _ | Ty.Struct _ | Ty.Array _ -> Some d.Module_ir.td_id
        | _ -> None)
      m.Module_ir.types
  in
  let cands =
    List.concat_map
      (fun ((f : Func.t), (b : Block.t)) ->
        let values = Pass.candidate_values ctx f in
        List.filter_map
          (fun ty ->
            match Module_ir.composite_arity m ty with
            | None -> None
            | Some n ->
                let parts =
                  List.init n (fun idx ->
                      match Module_ir.component_ty m ty idx with
                      | None -> None
                      | Some want ->
                          List.find_map
                            (fun (v, t) -> if Id.equal t want then Some v else None)
                            values)
                in
                if List.for_all Option.is_some parts then
                  Some
                    (fun () ->
                      let ctx, fresh = Pass.fresh_id ctx in
                      Some
                        ( ctx,
                          Transformation.Composite_construct
                            {
                              fn = f.Func.id;
                              block = b.Block.label;
                              point = Transformation.At_end;
                              fresh;
                              ty;
                              parts = List.map Option.get parts;
                            } ))
                else None)
          composite_tys)
      (blocks_of ctx)
  in
  search rng (cap 256 cands)

let gen_composite_extract ctx rng =
  let m = ctx.Context.m in
  let cands =
    List.concat_map
      (fun ((f : Func.t), (b : Block.t)) ->
        List.filter_map
          (fun (composite, ty) ->
            if Module_ir.ty_at_path m ty [ 0 ] <> None then
              Some
                (fun () ->
                  let ctx, fresh = Pass.fresh_id ctx in
                  Some
                    ( ctx,
                      Transformation.Composite_extract
                        {
                          fn = f.Func.id;
                          block = b.Block.label;
                          point = Transformation.At_end;
                          fresh;
                          composite;
                          path = [ 0 ];
                        } ))
            else None)
          (Pass.candidate_values ctx f))
      (blocks_of ctx)
  in
  search rng (cap 256 cands)

let gen_set_function_control ctx rng =
  let cands =
    List.concat_map
      (fun (f : Func.t) ->
        List.filter_map
          (fun control ->
            if Func.equal_control f.Func.control control then None
            else
              Some
                (fun () ->
                  Some (ctx, Transformation.Set_function_control { fn = f.Func.id; control })))
          [ Func.CNone; Func.DontInline; Func.AlwaysInline ])
      ctx.Context.m.Module_ir.functions
  in
  search rng cands

let gen_function_call ctx rng =
  let m = ctx.Context.m in
  let cands =
    List.concat_map
      (fun ((f : Func.t), (b : Block.t)) ->
        let values = Pass.candidate_values ctx f in
        List.filter_map
          (fun (g : Func.t) ->
            if Id.equal g.Func.id f.Func.id then None
            else
              match Module_ir.find_type m g.Func.fn_ty with
              | Some (Ty.Func (_, param_tys)) ->
                  let args =
                    List.map
                      (fun pty ->
                        List.find_map
                          (fun (v, t) -> if Id.equal t pty then Some v else None)
                          values)
                      param_tys
                  in
                  if List.for_all Option.is_some args then
                    Some
                      (fun () ->
                        let ctx, fresh = Pass.fresh_id ctx in
                        Some
                          ( ctx,
                            Transformation.Function_call
                              {
                                fn = f.Func.id;
                                block = b.Block.label;
                                point = Transformation.At_end;
                                fresh;
                                callee = g.Func.id;
                                args = List.map Option.get args;
                              } ))
                  else None
              | _ -> None)
          m.Module_ir.functions)
      (blocks_of ctx)
  in
  search rng (cap 256 cands)

let gen_add_parameter ctx rng =
  let m = ctx.Context.m in
  let cands =
    List.concat_map
      (fun (f : Func.t) ->
        List.map
          (fun (d : Module_ir.const_decl) () ->
            let ctx, fresh_param, fresh_fn_ty = fresh2 ctx in
            Some
              ( ctx,
                Transformation.Add_parameter
                  { fn = f.Func.id; fresh_param; fresh_fn_ty; default = d.Module_ir.cd_id }
              ))
          m.Module_ir.constants)
      m.Module_ir.functions
  in
  search rng (cap 128 cands)

(* a minimal donor-free payload: a one-block function returning an int
   constant; all declarations carry fresh ids and are interned on apply *)
let gen_add_function ctx rng =
  let cand () =
    let ctx, ids = freshn ctx 5 in
    match ids with
    | [ int_ty; fn_ty; c; fn_id; lbl ] ->
        Some
          ( ctx,
            Transformation.Add_function
              {
                Transformation.af_function =
                  {
                    Func.id = fn_id;
                    Func.name = Printf.sprintf "_reg_donor%d" fn_id;
                    Func.fn_ty = fn_ty;
                    Func.control = Func.CNone;
                    Func.params = [];
                    Func.blocks =
                      [
                        {
                          Block.label = lbl;
                          Block.instrs = [];
                          Block.terminator = Block.ReturnValue c;
                        };
                      ];
                  };
                af_types = [ (int_ty, Ty.Int); (fn_ty, Ty.Func (int_ty, [])) ];
                af_constants = [ (c, int_ty, Constant.Int 7l) ];
                af_live_safe = true;
              } )
    | _ -> None
  in
  search rng [ cand ]

let gen_inline_function ctx rng =
  let m = ctx.Context.m in
  let cands =
    List.concat_map
      (fun ((f : Func.t), (b : Block.t)) ->
        List.filter_map
          (fun (i : Instr.t) ->
            match (i.Instr.result, i.Instr.op) with
            | Some call_id, Instr.FunctionCall (callee, _) -> (
                match Module_ir.find_function m callee with
                | Some { Func.blocks = [ body ]; _ } ->
                    let result_ids =
                      List.filter_map (fun (j : Instr.t) -> j.Instr.result) body.Block.instrs
                    in
                    Some
                      (fun () ->
                        let ctx, ids = freshn ctx (List.length result_ids) in
                        Some
                          ( ctx,
                            Transformation.Inline_function
                              {
                                fn = f.Func.id;
                                block = b.Block.label;
                                call_id;
                                id_map = List.combine result_ids ids;
                              } ))
                | _ -> None)
            | _ -> None)
          b.Block.instrs)
      (blocks_of ctx)
  in
  search rng cands

(* ------------------------------------------------------------------ *)
(* The table                                                           *)

let entry (k : Transformation.kind) =
  let e family pass ~dedup gen =
    { type_id = Transformation.kind_id k; family; pass; dedup_relevant = dedup; gen }
  in
  match k with
  | AddType -> e Supporting None ~dedup:false gen_add_type
  | AddConstant -> e Supporting None ~dedup:false gen_add_constant
  | AddNop -> e Supporting None ~dedup:false gen_add_nop
  | SplitBlock ->
      e Control_flow (Some Pass.pass_split_blocks) ~dedup:false gen_split_block
  | AddDeadBlock ->
      e Control_flow (Some Pass.pass_add_dead_blocks) ~dedup:true gen_add_dead_block
  | AddLoad -> e Data (Some Pass.pass_add_loads) ~dedup:true gen_add_load
  | AddStore -> e Data (Some Pass.pass_add_stores) ~dedup:true gen_add_store
  | AddCopyObject ->
      e Data (Some Pass.pass_add_copy_objects) ~dedup:true gen_add_copy_object
  | AddArithmeticSynonym ->
      e Data (Some Pass.pass_add_arithmetic_synonyms) ~dedup:true gen_add_arithmetic_synonym
  | AddSelectSynonym ->
      e Data (Some Pass.pass_add_select_synonyms) ~dedup:true gen_add_select_synonym
  | ReplaceIdWithSynonym ->
      e Data (Some Pass.pass_apply_synonyms) ~dedup:false gen_replace_id_with_synonym
  | ReplaceConstantWithUniform ->
      e Obfuscation (Some Pass.pass_obfuscate_constants) ~dedup:true
        gen_replace_constant_with_uniform
  | CompositeConstruct ->
      e Data (Some Pass.pass_add_composites) ~dedup:true gen_composite_construct
  | CompositeExtract ->
      e Data (Some Pass.pass_add_composites) ~dedup:true gen_composite_extract
  | AddFunction ->
      e Function_ops (Some Pass.pass_add_functions) ~dedup:false gen_add_function
  | FunctionCall ->
      e Function_ops (Some Pass.pass_function_calls) ~dedup:true gen_function_call
  | InlineFunction ->
      e Function_ops (Some Pass.pass_inline_functions) ~dedup:true gen_inline_function
  | AddParameter ->
      e Function_ops (Some Pass.pass_add_parameters) ~dedup:true gen_add_parameter
  | ReplaceIrrelevantId ->
      e Obfuscation (Some Pass.pass_replace_irrelevant_ids) ~dedup:true
        gen_replace_irrelevant_id
  | SwapCommutativeOperands ->
      e Data (Some Pass.pass_swap_commutative_operands) ~dedup:true
        gen_swap_commutative_operands
  | ReplaceBooleanConstantWithBinary ->
      e Obfuscation (Some Pass.pass_obfuscate_bool_constants) ~dedup:true
        gen_replace_bool_constant_with_binary
  | MoveBlockDown ->
      e Control_flow (Some Pass.pass_move_blocks_down) ~dedup:true gen_move_block_down
  | WrapRegionInSelection ->
      e Control_flow (Some Pass.pass_wrap_regions) ~dedup:true gen_wrap_region_in_selection
  | InvertBranchCondition ->
      e Control_flow (Some Pass.pass_invert_conditions) ~dedup:true gen_invert_branch_condition
  | PropagateInstructionUp ->
      e Control_flow (Some Pass.pass_propagate_instructions_up) ~dedup:true
        gen_propagate_instruction_up
  | ReplaceBranchWithKill ->
      e Control_flow (Some Pass.pass_replace_branches_with_kill) ~dedup:true
        gen_replace_branch_with_kill
  | SetFunctionControl ->
      e Function_ops (Some Pass.pass_set_function_controls) ~dedup:true gen_set_function_control
  | PermutePhiEntries ->
      e Control_flow (Some Pass.pass_permute_phis) ~dedup:true gen_permute_phi_entries
  | AddGlobalVariable ->
      e Supporting (Some Pass.pass_add_variables) ~dedup:false gen_add_global_variable
  | AddLocalVariable ->
      e Supporting (Some Pass.pass_add_variables) ~dedup:false gen_add_local_variable
  | AddUniform -> e Supporting (Some Pass.pass_add_uniforms) ~dedup:false gen_add_uniform

(** Every entry, in {!Transformation.kinds} order. *)
let all : entry list = List.map entry Transformation.kinds

(** Types excluded from Figure 6 dedup signatures, derived from the
    [dedup_relevant] flags. *)
let dedup_ignored =
  Tbct.Dedup.String_set.of_list
    (List.filter_map (fun e -> if e.dedup_relevant then None else Some e.type_id) all)

(** Follow-on recommendations (section 3.2): after running a pass, a random
    subset of these is pushed onto the recommendation queue. *)
let follow_ons = function
  | "add_functions" -> [ "function_calls" ]
  | "function_calls" -> [ "inline_functions"; "add_parameters" ]
  | "add_dead_blocks" ->
      [ "add_stores"; "replace_branches_with_kill"; "function_calls";
        "split_blocks"; "obfuscate_constants"; "obfuscate_bool_constants" ]
  | "add_copy_objects" | "add_arithmetic_synonyms" | "add_select_synonyms" ->
      [ "apply_synonyms" ]
  | "add_composites" -> [ "apply_synonyms" ]
  | "add_parameters" -> [ "replace_irrelevant_ids" ]
  | "add_variables" -> [ "add_stores"; "add_loads" ]
  | "add_uniforms" -> [ "obfuscate_constants" ]
  | "split_blocks" -> [ "add_dead_blocks" ]
  | "wrap_regions" -> [ "split_blocks"; "move_blocks_down" ]
  | "propagate_instructions_up" -> [ "move_blocks_down"; "permute_phis" ]
  | "move_blocks_down" -> [ "move_blocks_down" ]
  | "invert_conditions" -> [ "apply_synonyms" ]
  | "obfuscate_constants" -> [ "apply_synonyms" ]
  | "obfuscate_bool_constants" -> [ "replace_branches_with_kill"; "add_stores" ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Injected optimizer pass bugs                                        *)

(** The optimizer-hosted injected bugs, as (flag id, hosting pass,
    bug kind) string triples.  Metadata only: the authoritative catalogue
    with the enable/probe closures is [Compilers.Bug.all_pass_bugs] (a
    test keeps the two aligned), and keeping this table dependency-free —
    no [compilers] import, no {!entry} in {!all} — means campaign RNG
    streams and golden counts stay byte-identical while the CLI and the
    experiment reports can still render the roster from the registry
    alone. *)
let injected_pass_bugs =
  [
    ("bug_fold_div_crash", "Const_fold", "crash");
    ("bug_keep_stale_phi_entries", "Simplify_cfg", "invalid-ir");
    ("bug_fold_sub_zero", "Const_fold", "miscompile");
    ("bug_inline_swaps_const_args", "Inline", "miscompile");
    ("bug_hoist_loop_load", "Hoist_invariant", "miscompile");
    ("bug_forward_aliased_store", "Store_forward", "miscompile");
  ]

(* ------------------------------------------------------------------ *)
(* Weights                                                             *)

(** The effective sampling weight of a pass: the largest family multiplier
    among its member entries, [0] for a pass no entry names.  With no
    overrides every pass weighs 1 and the scheduler's draw is uniform. *)
let pass_weight ?(weights = []) name =
  let mult fam =
    match List.assoc_opt fam weights with Some n -> n | None -> 1
  in
  List.fold_left
    (fun acc e ->
      match e.pass with
      | Some p when String.equal p.Pass.name name -> max acc (mult e.family)
      | _ -> acc)
    0 all

(** Parse a ["FAMILY=N,FAMILY=N"] weight override list (the [--weights]
    CLI syntax).  Weights must be non-negative; a weight of 0 disables the
    family's passes entirely, and at least one pass must keep a positive
    weight. *)
let parse_weights s =
  let items =
    List.filter
      (fun item -> String.trim item <> "")
      (String.split_on_char ',' s)
  in
  let parsed =
    List.fold_left
      (fun acc item ->
        Result.bind acc (fun ws ->
            match String.index_opt item '=' with
            | None -> Error (Printf.sprintf "expected FAMILY=N, got %S" item)
            | Some i -> (
                let fam_s = String.trim (String.sub item 0 i) in
                let n_s =
                  String.trim (String.sub item (i + 1) (String.length item - i - 1))
                in
                match (family_of_string fam_s, int_of_string_opt n_s) with
                | Some fam, Some n when n >= 0 -> Ok (ws @ [ (fam, n) ])
                | None, _ ->
                    Error
                      (Printf.sprintf "unknown family %S (expected %s)" fam_s
                         (String.concat "|" (List.map family_to_string families)))
                | Some _, _ -> Error (Printf.sprintf "bad weight %S" n_s))))
      (Ok []) items
  in
  Result.bind parsed (fun weights ->
      if List.exists (fun (p : Pass.t) -> pass_weight ~weights p.Pass.name > 0) Pass.all
      then Ok weights
      else Error "every pass has weight 0; at least one family needs a positive weight")
