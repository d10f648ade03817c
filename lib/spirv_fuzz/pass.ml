(** Fuzzer passes (section 3.2): each pass sweeps the module looking for
    opportunities to apply one kind of transformation, probabilistically
    deciding which opportunities to take.

    Passes work propose-and-filter: they construct candidate transformations
    from the current context and submit them through {!emit}, which applies
    a candidate only when its precondition holds.  This keeps every pass
    simple while guaranteeing that the recorded sequence replays exactly. *)

open Spirv_ir

type emitter = {
  mutable ctx : Context.t;
  mutable emitted : Transformation.t list;  (* reversed *)
  rng : Tbct.Rng.t;
  donors : Module_ir.t list;
  contracts : Contract.t option;
      (* debug mode: check the transformation contract after every emit.
         The checker consumes no randomness, so the recorded stream is
         identical with or without it. *)
  counters : (string, int * int) Hashtbl.t;
      (* per-type (proposed, applied) tallies; bookkeeping only, consumes
         no randomness *)
}

let make_emitter ?(donors = []) ?contracts ~rng ctx =
  { ctx; emitted = []; rng; donors; contracts; counters = Hashtbl.create 64 }

let bump_counter em t ~applied =
  let id = Transformation.type_id t in
  let p, a = Option.value ~default:(0, 0) (Hashtbl.find_opt em.counters id) in
  Hashtbl.replace em.counters id (p + 1, if applied then a + 1 else a)

(** Per-type (type_id, proposed, applied) tallies, sorted by type_id. *)
let counters_list em =
  List.sort compare
    (Hashtbl.fold (fun id (p, a) acc -> (id, p, a) :: acc) em.counters [])

let emit em t =
  if Rules.precondition em.ctx t then begin
    let before = em.ctx in
    em.ctx <- Rules.apply em.ctx t;
    (match em.contracts with
    | Some checker -> Contract.check checker ~before t ~after:em.ctx
    | None -> ());
    em.emitted <- t :: em.emitted;
    bump_counter em t ~applied:true;
    true
  end
  else begin
    bump_counter em t ~applied:false;
    false
  end

let fresh_id ctx =
  let m, id = Module_ir.fresh ctx.Context.m in
  (Context.with_module ctx m, id)

let fresh em =
  let ctx, id = fresh_id em.ctx in
  em.ctx <- ctx;
  id

let chance em ~num ~den = Tbct.Rng.chance em.rng ~num ~den

(* ------------------------------------------------------------------ *)
(* Context queries shared by passes                                    *)

let functions em = em.ctx.Context.m.Module_ir.functions

let random_block em (f : Func.t) =
  Tbct.Rng.choose_opt em.rng f.Func.blocks

(* a random insertion point within a block *)
let random_point em (b : Block.t) =
  let anchors =
    List.filter_map
      (fun (i : Instr.t) -> if Instr.is_phi i then None else i.Instr.result)
      b.Block.instrs
  in
  match anchors with
  | [] -> Transformation.At_end
  | _ ->
      if Tbct.Rng.chance em.rng ~num:1 ~den:4 then Transformation.At_end
      else Transformation.Before (Tbct.Rng.choose em.rng anchors)

(* ids with their type ids that are plausibly available near [point]; the
   precondition re-checks real availability, so over-approximation is fine *)
let candidate_values ctx (f : Func.t) =
  let m = ctx.Context.m in
  let consts =
    List.map (fun (d : Module_ir.const_decl) -> (d.Module_ir.cd_id, d.Module_ir.cd_ty)) m.Module_ir.constants
  in
  let params = List.map (fun (p : Func.param) -> (p.Func.param_id, p.Func.param_ty)) f.Func.params in
  let results =
    List.filter_map
      (fun (i : Instr.t) ->
        match (i.Instr.result, i.Instr.ty) with Some r, Some t -> Some (r, t) | _ -> None)
      (Func.all_instrs f)
  in
  consts @ params @ results

let candidate_pointers ctx (f : Func.t) =
  let m = ctx.Context.m in
  let is_ptr ty = match Module_ir.find_type m ty with Some (Ty.Pointer _) -> true | _ -> false in
  let globals = List.map (fun (g : Module_ir.global_decl) -> (g.Module_ir.gd_id, g.Module_ir.gd_ty)) m.Module_ir.globals in
  List.filter (fun (_, ty) -> is_ptr ty) (globals @ candidate_values ctx f)

let ensure_bool_constant em value =
  match Edit.find_bool_constant em.ctx.Context.m value with
  | Some id -> Some id
  | None -> (
      if Module_ir.find_type_id em.ctx.Context.m Ty.Bool = None then begin
        let t = fresh em in
        ignore (emit em (Transformation.Add_type { fresh = t; ty = Ty.Bool }))
      end;
      match Module_ir.find_type_id em.ctx.Context.m Ty.Bool with
      | None -> None
      | Some ty ->
          let c = fresh em in
          if emit em (Transformation.Add_constant { fresh = c; ty; value = Constant.Bool value })
          then Some c
          else None)

let ensure_constant em ty value =
  match Module_ir.find_constant_id em.ctx.Context.m ~ty ~value with
  | Some id -> Some id
  | None ->
      let c = fresh em in
      if emit em (Transformation.Add_constant { fresh = c; ty; value }) then Some c
      else None

(* ------------------------------------------------------------------ *)
(* The passes                                                          *)

type t = { name : string; run : emitter -> unit }

let for_random_blocks em ~num ~den f_block =
  List.iter
    (fun (f : Func.t) ->
      List.iter
        (fun (b : Block.t) -> if chance em ~num ~den then f_block f b)
        f.Func.blocks)
    (functions em)

let pass_split_blocks =
  {
    name = "split_blocks";
    run =
      (fun em ->
        for_random_blocks em ~num:1 ~den:8 (fun f b ->
            ignore f;
            let point = random_point em b in
            ignore
              (emit em
                 (Transformation.Split_block
                    { fn = f.Func.id; block = b.Block.label; point; fresh = fresh em }))));
  }

let pass_add_dead_blocks =
  {
    name = "add_dead_blocks";
    run =
      (fun em ->
        for_random_blocks em ~num:1 ~den:8 (fun f b ->
            match ensure_bool_constant em true with
            | None -> ()
            | Some cond ->
                ignore
                  (emit em
                     (Transformation.Add_dead_block
                        { fn = f.Func.id; existing = b.Block.label; fresh = fresh em; cond }))));
  }

let pass_add_loads =
  {
    name = "add_loads";
    run =
      (fun em ->
        for_random_blocks em ~num:1 ~den:8 (fun f b ->
            match Tbct.Rng.choose_opt em.rng (candidate_pointers em.ctx f) with
            | None -> ()
            | Some (pointer, _) ->
                ignore
                  (emit em
                     (Transformation.Add_load
                        {
                          fn = f.Func.id;
                          block = b.Block.label;
                          point = random_point em b;
                          fresh = fresh em;
                          pointer;
                        }))));
  }

let pass_add_stores =
  {
    name = "add_stores";
    run =
      (fun em ->
        for_random_blocks em ~num:1 ~den:6 (fun f b ->
            match Tbct.Rng.choose_opt em.rng (candidate_pointers em.ctx f) with
            | None -> ()
            | Some (pointer, ptr_ty) -> (
                let m = em.ctx.Context.m in
                match Module_ir.find_type m ptr_ty with
                | Some (Ty.Pointer (_, pointee)) -> (
                    let values =
                      List.filter (fun (_, ty) -> Id.equal ty pointee) (candidate_values em.ctx f)
                    in
                    match Tbct.Rng.choose_opt em.rng values with
                    | None -> ()
                    | Some (value, _) ->
                        ignore
                          (emit em
                             (Transformation.Add_store
                                {
                                  fn = f.Func.id;
                                  block = b.Block.label;
                                  point = random_point em b;
                                  pointer;
                                  value;
                                })))
                | Some _ | None -> ())));
  }

let pass_add_copy_objects =
  {
    name = "add_copy_objects";
    run =
      (fun em ->
        for_random_blocks em ~num:1 ~den:8 (fun f b ->
            match Tbct.Rng.choose_opt em.rng (candidate_values em.ctx f) with
            | None -> ()
            | Some (operand, _) ->
                ignore
                  (emit em
                     (Transformation.Add_copy_object
                        {
                          fn = f.Func.id;
                          block = b.Block.label;
                          point = random_point em b;
                          fresh = fresh em;
                          operand;
                        }))));
  }

let pass_add_arithmetic_synonyms =
  {
    name = "add_arithmetic_synonyms";
    run =
      (fun em ->
        for_random_blocks em ~num:1 ~den:8 (fun f b ->
            let m = em.ctx.Context.m in
            match Tbct.Rng.choose_opt em.rng (candidate_values em.ctx f) with
            | None -> ()
            | Some (operand, ty) -> (
                let with_kind kind id_ty id_value =
                  match Module_ir.find_type_id m id_ty with
                  | None -> ()
                  | Some tid -> (
                      match ensure_constant em tid id_value with
                      | None -> ()
                      | Some identity ->
                          ignore
                            (emit em
                               (Transformation.Add_arithmetic_synonym
                                  {
                                    fn = f.Func.id;
                                    block = b.Block.label;
                                    point = random_point em b;
                                    fresh = fresh em;
                                    operand;
                                    kind;
                                    identity;
                                  })))
                in
                match Module_ir.find_type m ty with
                | Some Ty.Int ->
                    if Tbct.Rng.bool em.rng then
                      with_kind Transformation.Add_zero_int Ty.Int (Constant.Int 0l)
                    else with_kind Transformation.Mul_one_int Ty.Int (Constant.Int 1l)
                | Some Ty.Float ->
                    if Tbct.Rng.bool em.rng then
                      with_kind Transformation.Mul_one_float Ty.Float (Constant.Float 1.0)
                    else with_kind Transformation.Sub_zero_float Ty.Float (Constant.Float 0.0)
                | Some Ty.Bool ->
                    if Tbct.Rng.bool em.rng then
                      with_kind Transformation.Or_false Ty.Bool (Constant.Bool false)
                    else with_kind Transformation.And_true Ty.Bool (Constant.Bool true)
                | Some _ | None -> ())));
  }

let pass_add_select_synonyms =
  {
    name = "add_select_synonyms";
    run =
      (fun em ->
        for_random_blocks em ~num:1 ~den:8 (fun f b ->
            let m = em.ctx.Context.m in
            let bools =
              List.filter
                (fun (_, ty) -> Module_ir.find_type m ty = Some Ty.Bool)
                (candidate_values em.ctx f)
            in
            match
              (Tbct.Rng.choose_opt em.rng bools, Tbct.Rng.choose_opt em.rng (candidate_values em.ctx f))
            with
            | Some (cond, _), Some (operand, _) ->
                ignore
                  (emit em
                     (Transformation.Add_select_synonym
                        {
                          fn = f.Func.id;
                          block = b.Block.label;
                          point = random_point em b;
                          fresh = fresh em;
                          cond;
                          operand;
                        }))
            | _ -> ()));
  }

(* enumerate use sites of an id in a function *)
let use_sites_of (f : Func.t) id =
  let sites = ref [] in
  List.iter
    (fun (b : Block.t) ->
      List.iteri
        (fun idx (i : Instr.t) ->
          List.iteri
            (fun op_idx u ->
              if Id.equal u id then
                let anchor =
                  match i.Instr.result with
                  | Some r -> Transformation.Result_id r
                  | None -> Transformation.Nth_instr idx
                in
                sites :=
                  {
                    Transformation.us_fn = f.Func.id;
                    us_block = b.Block.label;
                    us_anchor = anchor;
                    us_operand = op_idx;
                  }
                  :: !sites)
            (Instr.used_ids i))
        b.Block.instrs;
      List.iteri
        (fun op_idx u ->
          if Id.equal u id then
            sites :=
              {
                Transformation.us_fn = f.Func.id;
                us_block = b.Block.label;
                us_anchor = Transformation.Terminator;
                us_operand = op_idx;
              }
              :: !sites)
        (Block.terminator_used_ids b.Block.terminator))
    f.Func.blocks;
  !sites

let pass_apply_synonyms =
  {
    name = "apply_synonyms";
    run =
      (fun em ->
        let facts = em.ctx.Context.facts in
        List.iter
          (fun (f : Func.t) ->
            let values = candidate_values em.ctx f in
            List.iter
              (fun (id, _) ->
                match Fact_manager.id_synonyms facts id with
                | [] -> ()
                | syns ->
                    if chance em ~num:1 ~den:3 then begin
                      let synonym = Tbct.Rng.choose em.rng syns in
                      match Tbct.Rng.choose_opt em.rng (use_sites_of f id) with
                      | Some site ->
                          ignore
                            (emit em (Transformation.Replace_id_with_synonym { site; synonym }))
                      | None -> ()
                    end)
              values)
          (functions em));
  }

let pass_obfuscate_constants =
  {
    name = "obfuscate_constants";
    run =
      (fun em ->
        let uniforms = Context.known_uniforms em.ctx in
        List.iter
          (fun (f : Func.t) ->
            List.iter
              (fun (gid, pointee, uv) ->
                (* constants equal to this uniform's value *)
                let matching =
                  List.filter_map
                    (fun (d : Module_ir.const_decl) ->
                      if
                        Id.equal d.Module_ir.cd_ty pointee
                        && Value.equal (Module_ir.const_value em.ctx.Context.m d.Module_ir.cd_id) uv
                      then Some d.Module_ir.cd_id
                      else None)
                    em.ctx.Context.m.Module_ir.constants
                in
                List.iter
                  (fun c ->
                    List.iter
                      (fun site ->
                        if chance em ~num:1 ~den:3 then
                          ignore
                            (emit em
                               (Transformation.Replace_constant_with_uniform
                                  { site; fresh_load = fresh em; uniform = gid })))
                      (use_sites_of f c))
                  matching)
              uniforms)
          (functions em));
  }

let pass_add_composites =
  {
    name = "add_composites";
    run =
      (fun em ->
        for_random_blocks em ~num:1 ~den:8 (fun f b ->
            let m = em.ctx.Context.m in
            let values = candidate_values em.ctx f in
            (* pick a composite type we can build from available scalars *)
            let composite_tys =
              List.filter_map
                (fun (d : Module_ir.type_decl) ->
                  match d.Module_ir.td_ty with
                  | Ty.Vector _ | Ty.Struct _ | Ty.Array _ -> Some d.Module_ir.td_id
                  | _ -> None)
                m.Module_ir.types
            in
            match Tbct.Rng.choose_opt em.rng composite_tys with
            | None -> ()
            | Some ty -> (
                match Module_ir.composite_arity m ty with
                | None -> ()
                | Some n -> (
                    let parts =
                      List.init n (fun idx ->
                          match Module_ir.component_ty m ty idx with
                          | None -> None
                          | Some want ->
                              Tbct.Rng.choose_opt em.rng
                                (List.filter (fun (_, t) -> Id.equal t want) values)
                              |> Option.map fst)
                    in
                    if List.for_all Option.is_some parts then begin
                      let parts = List.map Option.get parts in
                      let point = random_point em b in
                      let cc = fresh em in
                      if
                        emit em
                          (Transformation.Composite_construct
                             { fn = f.Func.id; block = b.Block.label; point; fresh = cc; ty; parts })
                      then begin
                        (* follow up with an extraction that creates a
                           whole-object synonym *)
                        let idx = Tbct.Rng.int em.rng (List.length parts) in
                        ignore
                          (emit em
                             (Transformation.Composite_extract
                                {
                                  fn = f.Func.id;
                                  block = b.Block.label;
                                  point = Transformation.At_end;
                                  fresh = fresh em;
                                  composite = cc;
                                  path = [ idx ];
                                }));
                        (* occasionally nest the fresh composite in a struct
                           and extract through both levels *)
                        if chance em ~num:1 ~den:6 then begin
                          let m = em.ctx.Context.m in
                          let struct_ty = Ty.Struct [ ty ] in
                          (match Module_ir.find_type_id m struct_ty with
                          | Some _ -> ()
                          | None ->
                              ignore
                                (emit em
                                   (Transformation.Add_type
                                      { fresh = fresh em; ty = struct_ty })));
                          match Module_ir.find_type_id em.ctx.Context.m struct_ty with
                          | None -> ()
                          | Some sty ->
                              let sc = fresh em in
                              if
                                emit em
                                  (Transformation.Composite_construct
                                     {
                                       fn = f.Func.id;
                                       block = b.Block.label;
                                       point = Transformation.At_end;
                                       fresh = sc;
                                       ty = sty;
                                       parts = [ cc ];
                                     })
                              then
                                ignore
                                  (emit em
                                     (Transformation.Composite_extract
                                        {
                                          fn = f.Func.id;
                                          block = b.Block.label;
                                          point = Transformation.At_end;
                                          fresh = fresh em;
                                          composite = sc;
                                          path = [ 0; Tbct.Rng.int em.rng (List.length parts) ];
                                        }))
                        end
                      end
                    end))));
  }

let pass_add_functions =
  {
    name = "add_functions";
    run =
      (fun em ->
        match em.donors with
        | [] -> ()
        | donors ->
            if chance em ~num:1 ~den:2 then begin
              let donor = Tbct.Rng.choose em.rng donors in
              match Tbct.Rng.choose_opt em.rng (Donor.eligible_functions donor) with
              | None -> ()
              | Some f -> (
                  match Donor.encode em.ctx donor f with
                  | None -> ()
                  | Some (ctx, payload) ->
                      em.ctx <- ctx;
                      ignore (emit em (Transformation.Add_function payload)))
            end);
  }

let pass_function_calls =
  {
    name = "function_calls";
    run =
      (fun em ->
        for_random_blocks em ~num:1 ~den:8 (fun f b ->
            let m = em.ctx.Context.m in
            let callees =
              List.filter
                (fun (g : Func.t) ->
                  Fact_manager.is_live_safe em.ctx.Context.facts g.Func.id
                  || Fact_manager.is_dead_block em.ctx.Context.facts b.Block.label)
                m.Module_ir.functions
            in
            match Tbct.Rng.choose_opt em.rng callees with
            | None -> ()
            | Some g -> (
                match Module_ir.find_type m g.Func.fn_ty with
                | Some (Ty.Func (_, param_tys)) -> (
                    let values = candidate_values em.ctx f in
                    let args =
                      List.map
                        (fun pty ->
                          Tbct.Rng.choose_opt em.rng
                            (List.filter (fun (_, t) -> Id.equal t pty) values)
                          |> Option.map fst)
                        param_tys
                    in
                    if List.for_all Option.is_some args then
                      ignore
                        (emit em
                           (Transformation.Function_call
                              {
                                fn = f.Func.id;
                                block = b.Block.label;
                                point = random_point em b;
                                fresh = fresh em;
                                callee = g.Func.id;
                                args = List.map Option.get args;
                              })))
                | Some _ | None -> ())));
  }

let pass_inline_functions =
  {
    name = "inline_functions";
    run =
      (fun em ->
        List.iter
          (fun (f : Func.t) ->
            List.iter
              (fun (b : Block.t) ->
                List.iter
                  (fun (i : Instr.t) ->
                    match (i.Instr.result, i.Instr.op) with
                    | Some call_id, Instr.FunctionCall (callee, _) when chance em ~num:1 ~den:3
                      -> (
                        match Module_ir.find_function em.ctx.Context.m callee with
                        | Some { Func.blocks = [ body ]; _ } ->
                            let result_ids =
                              List.filter_map
                                (fun (j : Instr.t) -> j.Instr.result)
                                body.Block.instrs
                            in
                            let id_map = List.map (fun r -> (r, fresh em)) result_ids in
                            ignore
                              (emit em
                                 (Transformation.Inline_function
                                    { fn = f.Func.id; block = b.Block.label; call_id; id_map }))
                        | Some _ | None -> ())
                    | _ -> ())
                  b.Block.instrs)
              f.Func.blocks)
          (functions em));
  }

let pass_add_parameters =
  {
    name = "add_parameters";
    run =
      (fun em ->
        List.iter
          (fun (f : Func.t) ->
            if chance em ~num:1 ~den:3 then begin
              let m = em.ctx.Context.m in
              match Tbct.Rng.choose_opt em.rng m.Module_ir.constants with
              | None -> ()
              | Some d ->
                  ignore
                    (emit em
                       (Transformation.Add_parameter
                          {
                            fn = f.Func.id;
                            fresh_param = fresh em;
                            fresh_fn_ty = fresh em;
                            default = d.Module_ir.cd_id;
                          }))
            end)
          (functions em));
  }

let pass_replace_irrelevant_ids =
  {
    name = "replace_irrelevant_ids";
    run =
      (fun em ->
        List.iter
          (fun (f : Func.t) ->
            let m = em.ctx.Context.m in
            (* call sites whose argument slots feed irrelevant parameters *)
            List.iter
              (fun (b : Block.t) ->
                List.iteri
                  (fun idx (i : Instr.t) ->
                    match i.Instr.op with
                    | Instr.FunctionCall (callee, args) -> (
                        match Module_ir.find_function m callee with
                        | None -> ()
                        | Some g ->
                            List.iteri
                              (fun k _arg ->
                                match List.nth_opt g.Func.params k with
                                | Some pa
                                  when Fact_manager.is_irrelevant em.ctx.Context.facts
                                         pa.Func.param_id
                                       && chance em ~num:1 ~den:2 -> (
                                    let anchor =
                                      match i.Instr.result with
                                      | Some r -> Transformation.Result_id r
                                      | None -> Transformation.Nth_instr idx
                                    in
                                    let site =
                                      {
                                        Transformation.us_fn = f.Func.id;
                                        us_block = b.Block.label;
                                        us_anchor = anchor;
                                        us_operand = k + 1;
                                      }
                                    in
                                    let values =
                                      List.filter
                                        (fun (_, t) -> Id.equal t pa.Func.param_ty)
                                        (candidate_values em.ctx f)
                                    in
                                    match Tbct.Rng.choose_opt em.rng values with
                                    | Some (replacement, _) ->
                                        ignore
                                          (emit em
                                             (Transformation.Replace_irrelevant_id
                                                { site; replacement }))
                                    | None -> ())
                                | _ -> ())
                              args)
                    | _ -> ())
                  b.Block.instrs)
              f.Func.blocks)
          (functions em));
  }

let pass_swap_commutative_operands =
  {
    name = "swap_commutative_operands";
    run =
      (fun em ->
        for_random_blocks em ~num:1 ~den:8 (fun f b ->
            let candidates =
              List.filter_map
                (fun (i : Instr.t) ->
                  match (i.Instr.result, i.Instr.op) with
                  | Some r, Instr.Binop (_, _, _) -> Some r
                  | _ -> None)
                b.Block.instrs
            in
            match Tbct.Rng.choose_opt em.rng candidates with
            | None -> ()
            | Some instr ->
                ignore
                  (emit em
                     (Transformation.Swap_commutative_operands
                        { fn = f.Func.id; block = b.Block.label; instr }))));
  }

let pass_obfuscate_bool_constants =
  {
    name = "obfuscate_bool_constants";
    run =
      (fun em ->
        let m = em.ctx.Context.m in
        let bool_constants =
          List.filter_map
            (fun (d : Module_ir.const_decl) ->
              match d.Module_ir.cd_value with
              | Constant.Bool _ -> Some d.Module_ir.cd_id
              | _ -> None)
            m.Module_ir.constants
        in
        List.iter
          (fun (f : Func.t) ->
            let ints =
              List.filter
                (fun (_, ty) -> Module_ir.find_type m ty = Some Ty.Int)
                (candidate_values em.ctx f)
            in
            List.iter
              (fun c ->
                List.iter
                  (fun site ->
                    if chance em ~num:1 ~den:3 then begin
                      match Tbct.Rng.choose_opt em.rng ints with
                      | Some (operand, _) ->
                          ignore
                            (emit em
                               (Transformation.Replace_bool_constant_with_binary
                                  { site; fresh = fresh em; operand }))
                      | None -> ()
                    end)
                  (use_sites_of f c))
              bool_constants)
          (functions em));
  }

let pass_move_blocks_down =
  {
    name = "move_blocks_down";
    run =
      (fun em ->
        for_random_blocks em ~num:1 ~den:6 (fun f b ->
            ignore
              (emit em (Transformation.Move_block_down { fn = f.Func.id; block = b.Block.label }))));
  }

let pass_wrap_regions =
  {
    name = "wrap_regions";
    run =
      (fun em ->
        for_random_blocks em ~num:1 ~den:10 (fun f b ->
            let branch_on_true = Tbct.Rng.bool em.rng in
            match ensure_bool_constant em branch_on_true with
            | None -> ()
            | Some cond ->
                ignore
                  (emit em
                     (Transformation.Wrap_region_in_selection
                        {
                          fn = f.Func.id;
                          block = b.Block.label;
                          fresh_header = fresh em;
                          fresh_merge = fresh em;
                          cond;
                          branch_on_true;
                        }))));
  }

let pass_invert_conditions =
  {
    name = "invert_conditions";
    run =
      (fun em ->
        for_random_blocks em ~num:1 ~den:6 (fun f b ->
            ignore
              (emit em
                 (Transformation.Invert_branch_condition
                    { fn = f.Func.id; block = b.Block.label; fresh = fresh em }))));
  }

let pass_propagate_instructions_up =
  {
    name = "propagate_instructions_up";
    run =
      (fun em ->
        for_random_blocks em ~num:1 ~den:8 (fun f b ->
            let cfg = Cfg.of_func f in
            let preds = Cfg.predecessors cfg b.Block.label in
            if preds <> [] then begin
              let fresh_per_pred = List.map (fun p -> (p, fresh em)) preds in
              ignore
                (emit em
                   (Transformation.Propagate_instruction_up
                      { fn = f.Func.id; block = b.Block.label; fresh_per_pred }))
            end));
  }

let pass_replace_branches_with_kill =
  {
    name = "replace_branches_with_kill";
    run =
      (fun em ->
        (* only in the entry-point's call-free reachable world does OpKill
           make sense; the precondition restricts to dead blocks *)
        for_random_blocks em ~num:1 ~den:6 (fun f b ->
            if Fact_manager.is_dead_block em.ctx.Context.facts b.Block.label then
              ignore
                (emit em
                   (Transformation.Replace_branch_with_kill
                      { fn = f.Func.id; block = b.Block.label }))));
  }

let pass_set_function_controls =
  {
    name = "set_function_controls";
    run =
      (fun em ->
        (* functions with call sites are the interesting targets: inlining
           attributes only matter where calls exist *)
        let called =
          List.concat_map
            (fun (f : Func.t) ->
              List.filter_map
                (fun (i : Instr.t) ->
                  match i.Instr.op with
                  | Instr.FunctionCall (callee, _) -> Some callee
                  | _ -> None)
                (Func.all_instrs f))
            (functions em)
        in
        List.iter
          (fun (f : Func.t) ->
            let is_called = List.mem f.Func.id called in
            let den = if is_called then 2 else 6 in
            if chance em ~num:1 ~den then begin
              let control =
                Tbct.Rng.choose em.rng
                  (if is_called then
                     [ Func.DontInline; Func.DontInline; Func.CNone; Func.AlwaysInline ]
                   else [ Func.CNone; Func.DontInline; Func.AlwaysInline ])
              in
              ignore (emit em (Transformation.Set_function_control { fn = f.Func.id; control }))
            end)
          (functions em));
  }

let pass_permute_phis =
  {
    name = "permute_phis";
    run =
      (fun em ->
        List.iter
          (fun (f : Func.t) ->
            List.iter
              (fun (b : Block.t) ->
                List.iter
                  (fun (i : Instr.t) ->
                    match (i.Instr.result, i.Instr.op) with
                    | Some phi, Instr.Phi inc
                      when List.length inc >= 2 && chance em ~num:1 ~den:2 ->
                        ignore
                          (emit em
                             (Transformation.Permute_phi_entries
                                {
                                  fn = f.Func.id;
                                  block = b.Block.label;
                                  phi;
                                  rotation = 1 + Tbct.Rng.int em.rng (List.length inc - 1);
                                }))
                    | _ -> ())
                  b.Block.instrs)
              f.Func.blocks)
          (functions em));
  }

let pass_add_uniforms =
  {
    name = "add_uniforms";
    run =
      (fun em ->
        (* declare fresh uniforms whose recorded input values equal existing
           scalar constants, creating obfuscation targets *)
        let m = em.ctx.Context.m in
        let scalar_constants =
          List.filter_map
            (fun (d : Module_ir.const_decl) ->
              match d.Module_ir.cd_value with
              | Constant.Bool b -> Some (d.Module_ir.cd_ty, Value.VBool b)
              | Constant.Int i -> Some (d.Module_ir.cd_ty, Value.VInt i)
              | Constant.Float f -> Some (d.Module_ir.cd_ty, Value.VFloat f)
              | Constant.Composite _ | Constant.Null -> None)
            m.Module_ir.constants
        in
        match Tbct.Rng.choose_opt em.rng scalar_constants with
        | None -> ()
        | Some (pointee, value) ->
            if chance em ~num:1 ~den:2 then begin
              let fresh_id = fresh em in
              let ptr = fresh em in
              ignore
                (emit em
                   (Transformation.Add_uniform
                      {
                        fresh = fresh_id;
                        fresh_ptr_ty = ptr;
                        pointee;
                        name = Printf.sprintf "_u%d" fresh_id;
                        value;
                      }))
            end);
  }

let pass_add_variables =
  {
    name = "add_variables";
    run =
      (fun em ->
        let m = em.ctx.Context.m in
        let scalar_tys =
          List.filter_map
            (fun (d : Module_ir.type_decl) ->
              match d.Module_ir.td_ty with
              | Ty.Int | Ty.Float | Ty.Bool -> Some d.Module_ir.td_id
              | _ -> None)
            m.Module_ir.types
        in
        match Tbct.Rng.choose_opt em.rng scalar_tys with
        | None -> ()
        | Some pointee ->
            if Tbct.Rng.bool em.rng then
              ignore
                (emit em
                   (Transformation.Add_global_variable
                      { fresh = fresh em; fresh_ptr_ty = fresh em; pointee }))
            else begin
              match Tbct.Rng.choose_opt em.rng (functions em) with
              | None -> ()
              | Some f ->
                  ignore
                    (emit em
                       (Transformation.Add_local_variable
                          { fresh = fresh em; fresh_ptr_ty = fresh em; fn = f.Func.id; pointee }))
            end);
  }

(* ------------------------------------------------------------------ *)
(* The sweep list                                                      *)

(* Order is load-bearing for determinism: the scheduler draws an index into
   this list, so reordering it changes every campaign's RNG stream. *)
let all : t list =
  [
    pass_split_blocks;
    pass_add_dead_blocks;
    pass_add_loads;
    pass_add_stores;
    pass_add_copy_objects;
    pass_add_arithmetic_synonyms;
    pass_add_select_synonyms;
    pass_apply_synonyms;
    pass_obfuscate_constants;
    pass_add_composites;
    pass_add_functions;
    pass_function_calls;
    pass_inline_functions;
    pass_add_parameters;
    pass_replace_irrelevant_ids;
    pass_swap_commutative_operands;
    pass_obfuscate_bool_constants;
    pass_move_blocks_down;
    pass_wrap_regions;
    pass_invert_conditions;
    pass_propagate_instructions_up;
    pass_replace_branches_with_kill;
    pass_set_function_controls;
    pass_permute_phis;
    pass_add_variables;
    pass_add_uniforms;
  ]

let find name = List.find_opt (fun p -> String.equal p.name name) all
