(* Per-transformation unit tests: for every transformation type in the
   catalogue, a crafted scenario where the precondition holds, checks that
   apply yields a valid module with no new lint errors, unchanged
   semantics and the expected structural effect, plus negative cases
   where the precondition must fail. *)

open Spirv_ir

let input = Input.make ~width:4 ~height:4 [ ("u_flag", Value.VBool true) ]

(* A small fixture with known handles: main has a straight block, a diamond
   and a merge; a single-block helper is called once. *)
type fixture = {
  m : Module_ir.t;
  ctx : Spirv_fuzz.Context.t;
  main : Id.t;
  helper : Id.t;
  l_entry : Id.t;
  l_then : Id.t;
  l_else : Id.t;
  l_merge : Id.t;
  x : Id.t;        (* float: frag x *)
  cond : Id.t;     (* bool: x < 2.0 *)
  call_id : Id.t;  (* result of the helper call *)
  out : Id.t;
}

let fixture () =
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let float_t = Builder.float_ty b in
  let frag = Builder.frag_coord b in
  let out = Builder.output_color b in
  let _flag = Builder.uniform b ~pointee:(Builder.bool_ty b) ~name:"u_flag" in
  (* helper: f(a) = a * 0.5 + 0.25, single block *)
  let fb, helper, params =
    Builder.begin_function b ~name:"scale" ~ret:float_t ~params:[ float_t ]
  in
  let p = List.hd params in
  let lh = Builder.new_label fb in
  Builder.start_block fb lh;
  let t1 = Builder.fmul fb p (Builder.cfloat b 0.5) in
  let t2 = Builder.fadd fb t1 (Builder.cfloat b 0.25) in
  Builder.ret_value fb t2;
  ignore (Builder.end_function fb);
  (* main *)
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let l_entry = Builder.new_label fb in
  let l_then = Builder.new_label fb in
  let l_else = Builder.new_label fb in
  let l_merge = Builder.new_label fb in
  Builder.start_block fb l_entry;
  let fc = Builder.load fb frag in
  let x = Builder.extract fb fc [ 0 ] in
  let cond = Builder.flt fb x (Builder.cfloat b 2.0) in
  let call_id = Builder.call fb helper [ x ] in
  Builder.branch_cond fb cond l_then l_else;
  Builder.start_block fb l_then;
  let vt = Builder.fadd fb call_id (Builder.cfloat b 0.125) in
  Builder.branch fb l_merge;
  Builder.start_block fb l_else;
  let ve = Builder.fmul fb call_id (Builder.cfloat b 0.75) in
  Builder.branch fb l_merge;
  Builder.start_block fb l_merge;
  let phi = Builder.phi fb ~ty:float_t [ (vt, l_then); (ve, l_else) ] in
  let one = Builder.cfloat b 1.0 in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ phi; x; one; one ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  let m = Builder.finish b ~entry:main in
  (match Validate.check m with
  | Ok () -> ()
  | Error (e :: _) -> Alcotest.failf "fixture invalid: %s" (Validate.error_to_string e)
  | Error [] -> Alcotest.fail "fixture invalid");
  {
    m;
    ctx = Spirv_fuzz.Context.make m input;
    main;
    helper;
    l_entry;
    l_then;
    l_else;
    l_merge;
    x;
    cond;
    call_id;
    out;
  }

let render_exn m =
  match Interp.render m input with
  | Ok img -> img
  | Error t -> Alcotest.failf "render: %s" (Interp.trap_to_string t)

(* Check the transformation triple: precondition holds, applying preserves
   validity and the image, and replaying is deterministic.  Returns the new
   context for structural assertions. *)
let check_applies ?(also = []) (fx : fixture) (t : Spirv_fuzz.Transformation.t) =
  let ctx =
    List.fold_left
      (fun ctx t ->
        Alcotest.(check bool)
          ("enabler precondition: " ^ Spirv_fuzz.Transformation.type_id t)
          true
          (Spirv_fuzz.Rules.precondition ctx t);
        Spirv_fuzz.Rules.apply ctx t)
      fx.ctx also
  in
  Alcotest.(check bool)
    ("precondition: " ^ Spirv_fuzz.Transformation.type_id t)
    true
    (Spirv_fuzz.Rules.precondition ctx t);
  let ctx' = Spirv_fuzz.Rules.apply ctx t in
  (match Validate.check ctx'.Spirv_fuzz.Context.m with
  | Ok () -> ()
  | Error (e :: _) ->
      Alcotest.failf "%s produced invalid module: %s"
        (Spirv_fuzz.Transformation.type_id t)
        (Validate.error_to_string e)
  | Error [] -> Alcotest.fail "invalid");
  Alcotest.(check bool)
    (Spirv_fuzz.Transformation.type_id t ^ " adds no lint errors")
    true
    (Lint.error_count (Lint.check_module ctx'.Spirv_fuzz.Context.m)
    <= Lint.error_count (Lint.check_module ctx.Spirv_fuzz.Context.m));
  let before = render_exn fx.m in
  let after = render_exn ctx'.Spirv_fuzz.Context.m in
  Alcotest.(check bool)
    (Spirv_fuzz.Transformation.type_id t ^ " preserves the image")
    true (Image.equal before after);
  ctx'

let check_rejected ?(also = []) (fx : fixture) (t : Spirv_fuzz.Transformation.t) =
  let ctx = List.fold_left Spirv_fuzz.Rules.apply fx.ctx also in
  Alcotest.(check bool)
    ("precondition must fail: " ^ Spirv_fuzz.Transformation.type_id t)
    false
    (Spirv_fuzz.Rules.precondition ctx t)

let fresh2 fx =
  let m, a = Module_ir.fresh fx.m in
  let m, b = Module_ir.fresh m in
  (* keep ctx and m in sync: draws only raise the bound *)
  ({ fx with m; ctx = { fx.ctx with Spirv_fuzz.Context.m = m } }, a, b)

let fresh1 fx =
  let fx, a, _ = fresh2 fx in
  (fx, a)

(* find an existing bool-true constant or make room for one *)
let true_const fx =
  match Spirv_fuzz.Edit.find_true_constant fx.m with
  | Some c -> (fx, c, [])
  | None ->
      let fx, c = fresh1 fx in
      let ty = Option.get (Module_ir.find_type_id fx.m Ty.Bool) in
      ( fx,
        c,
        [ Spirv_fuzz.Transformation.Add_constant { fresh = c; ty; value = Constant.Bool true } ] )

(* ------------------------------------------------------------------ *)

let test_add_type () =
  let fx = fixture () in
  let fx, fresh = fresh1 fx in
  let float_id = Option.get (Module_ir.find_type_id fx.m Ty.Float) in
  let ctx' =
    check_applies fx (Spirv_fuzz.Transformation.Add_type { fresh; ty = Ty.Array (float_id, 3) })
  in
  Alcotest.(check bool) "type present" true
    (Module_ir.find_type ctx'.Spirv_fuzz.Context.m fresh = Some (Ty.Array (float_id, 3)));
  (* duplicate structural type rejected *)
  let fx2, fresh2a = fresh1 fx in
  check_rejected fx2 (Spirv_fuzz.Transformation.Add_type { fresh = fresh2a; ty = Ty.Float })

let test_add_constant () =
  let fx = fixture () in
  let fx, fresh = fresh1 fx in
  (* the fixture has no Int type: add it first (an enabler, exactly the
     supporting-transformation pattern of section 3.2) *)
  let fx, int_id = fresh1 fx in
  let add_int = Spirv_fuzz.Transformation.Add_type { fresh = int_id; ty = Ty.Int } in
  let ctx' =
    check_applies ~also:[ add_int ] fx
      (Spirv_fuzz.Transformation.Add_constant
         { fresh; ty = int_id; value = Constant.Int 42l })
  in
  Alcotest.(check bool) "constant present" true
    (Module_ir.find_constant ctx'.Spirv_fuzz.Context.m fresh <> None);
  (* ill-typed constant rejected *)
  let fx2, f2 = fresh1 fx in
  check_rejected fx2
    (Spirv_fuzz.Transformation.Add_constant { fresh = f2; ty = int_id; value = Constant.Bool true })

let test_add_global_and_local_variable () =
  let fx = fixture () in
  let float_id = Option.get (Module_ir.find_type_id fx.m Ty.Float) in
  let fx, g, gp = fresh2 fx in
  let ctx' =
    check_applies fx
      (Spirv_fuzz.Transformation.Add_global_variable
         { fresh = g; fresh_ptr_ty = gp; pointee = float_id })
  in
  Alcotest.(check bool) "global registered irrelevant-pointee" true
    (Spirv_fuzz.Fact_manager.is_irrelevant_pointee ctx'.Spirv_fuzz.Context.facts g);
  let fx, v, vp = fresh2 fx in
  let ctx'' =
    check_applies fx
      (Spirv_fuzz.Transformation.Add_local_variable
         { fresh = v; fresh_ptr_ty = vp; fn = fx.main; pointee = float_id })
  in
  (* the variable must sit in the entry block *)
  let f = Module_ir.function_exn ctx''.Spirv_fuzz.Context.m fx.main in
  let entry = Func.entry_block f in
  Alcotest.(check bool) "variable in entry block" true
    (List.exists (fun (i : Instr.t) -> i.Instr.result = Some v) entry.Block.instrs)

let test_add_nop () =
  let fx = fixture () in
  let ctx' =
    check_applies fx
      (Spirv_fuzz.Transformation.Add_nop
         { fn = fx.main; block = fx.l_then; point = Spirv_fuzz.Transformation.At_end })
  in
  ignore ctx';
  check_rejected fx
    (Spirv_fuzz.Transformation.Add_nop
       { fn = fx.main; block = 99999; point = Spirv_fuzz.Transformation.At_end })

let test_split_block () =
  let fx = fixture () in
  let fx, fresh = fresh1 fx in
  let ctx' =
    check_applies fx
      (Spirv_fuzz.Transformation.Split_block
         {
           fn = fx.main;
           block = fx.l_entry;
           point = Spirv_fuzz.Transformation.Before fx.cond;
           fresh;
         })
  in
  let f = Module_ir.function_exn ctx'.Spirv_fuzz.Context.m fx.main in
  Alcotest.(check int) "five blocks now" 5 (List.length f.Func.blocks);
  (* splitting before a φ is rejected *)
  let fx2 = fixture () in
  let fx2, f2 = fresh1 fx2 in
  let phi_id =
    let f = Module_ir.function_exn fx2.m fx2.main in
    let merge = Func.block_exn f fx2.l_merge in
    Option.get (List.hd merge.Block.instrs).Instr.result
  in
  check_rejected fx2
    (Spirv_fuzz.Transformation.Split_block
       {
         fn = fx2.main;
         block = fx2.l_merge;
         point = Spirv_fuzz.Transformation.Before phi_id;
         fresh = f2;
       })

let test_add_dead_block_and_kill () =
  let fx = fixture () in
  let fx, cond, enablers = true_const fx in
  (* l_then's successor (l_merge) has φs, so first split l_then at its end:
     l_then then branches to a fresh φ-free block *)
  let fx, tail = fresh1 fx in
  let split =
    Spirv_fuzz.Transformation.Split_block
      {
        fn = fx.main;
        block = fx.l_then;
        point = Spirv_fuzz.Transformation.At_end;
        fresh = tail;
      }
  in
  let fx, fresh = fresh1 fx in
  let t =
    Spirv_fuzz.Transformation.Add_dead_block
      { fn = fx.main; existing = fx.l_then; fresh; cond }
  in
  let ctx' = check_applies ~also:(split :: enablers) fx t in
  Alcotest.(check bool) "dead fact recorded" true
    (Spirv_fuzz.Fact_manager.is_dead_block ctx'.Spirv_fuzz.Context.facts fresh);
  (* the new block is statically reachable (that is the point: only the
     always-true guard makes it dynamically dead) *)
  let f = Module_ir.function_exn ctx'.Spirv_fuzz.Context.m fx.main in
  let cfg = Cfg.of_func f in
  Alcotest.(check bool) "statically reachable" true (Cfg.is_reachable cfg fresh);
  (match (Func.block_exn f fx.l_then).Block.terminator with
  | Block.BranchConditional (c, _, dead_target) ->
      Alcotest.(check int) "guarded by the true constant" cond c;
      Alcotest.(check int) "false arm is the dead block" fresh dead_target
  | _ -> Alcotest.fail "l_then should end in a conditional branch");
  (* ReplaceBranchWithKill applies to the dead block *)
  let t_kill = Spirv_fuzz.Transformation.Replace_branch_with_kill { fn = fx.main; block = fresh } in
  Alcotest.(check bool) "kill pre" true (Spirv_fuzz.Rules.precondition ctx' t_kill);
  let ctx'' = Spirv_fuzz.Rules.apply ctx' t_kill in
  Alcotest.(check bool) "valid after kill" true (Validate.is_valid ctx''.Spirv_fuzz.Context.m);
  Alcotest.(check bool) "image unchanged" true
    (Image.equal (render_exn fx.m) (render_exn ctx''.Spirv_fuzz.Context.m));
  (* but kill on a live block is rejected *)
  check_rejected fx
    (Spirv_fuzz.Transformation.Replace_branch_with_kill { fn = fx.main; block = fx.l_then })

let test_add_dead_block_requires_phi_free_successor () =
  let fx = fixture () in
  (* l_then branches to l_merge which has a φ: must be rejected *)
  let fx, cond, enablers = true_const fx in
  let ctx = List.fold_left Spirv_fuzz.Rules.apply fx.ctx enablers in
  let fx = { fx with ctx } in
  let fx, fresh = fresh1 fx in
  check_rejected fx
    (Spirv_fuzz.Transformation.Add_dead_block
       { fn = fx.main; existing = fx.l_then; fresh; cond })
  |> ignore

let test_move_block_down () =
  let fx = fixture () in
  (* l_then and l_else are order-independent siblings *)
  let ctx' =
    check_applies fx (Spirv_fuzz.Transformation.Move_block_down { fn = fx.main; block = fx.l_then })
  in
  let f = Module_ir.function_exn ctx'.Spirv_fuzz.Context.m fx.main in
  let order = List.map (fun (b : Block.t) -> b.Block.label) f.Func.blocks in
  Alcotest.(check (list int)) "swapped" [ fx.l_entry; fx.l_else; fx.l_then; fx.l_merge ] order;
  (* moving the entry block is rejected *)
  check_rejected fx (Spirv_fuzz.Transformation.Move_block_down { fn = fx.main; block = fx.l_entry });
  (* moving a block past one it dominates is rejected (entry dominates then) *)
  check_rejected fx (Spirv_fuzz.Transformation.Move_block_down { fn = fx.main; block = fx.l_merge })

let test_wrap_region_in_selection () =
  (* wrap l_then (single pred, no φs, defines vt used in the merge φ — so
     the fixture's l_then is NOT wrappable; build a block whose values stay
     local) *)
  let fx = fixture () in
  let fx, cond, enablers = true_const fx in
  let fx, h, mrg = fresh2 fx in
  check_rejected ~also:enablers fx
    (Spirv_fuzz.Transformation.Wrap_region_in_selection
       {
         fn = fx.main;
         block = fx.l_then;
         fresh_header = h;
         fresh_merge = mrg;
         cond;
         branch_on_true = true;
       });
  (* split the merge block after the store: the tail block (store already
     inside l_merge...) — instead wrap a freshly split store-only block *)
  let fx2 = fixture () in
  let fx2, split_fresh = fresh1 fx2 in
  let store_block_split =
    Spirv_fuzz.Transformation.Split_block
      {
        fn = fx2.main;
        block = fx2.l_merge;
        point = Spirv_fuzz.Transformation.At_end;
        fresh = split_fresh;
      }
  in
  let fx2, cond2, enablers2 = true_const fx2 in
  let fx2, h2, m2 = fresh2 fx2 in
  let ctx' =
    check_applies
      ~also:(store_block_split :: enablers2)
      fx2
      (Spirv_fuzz.Transformation.Wrap_region_in_selection
         {
           fn = fx2.main;
           block = split_fresh;
           fresh_header = h2;
           fresh_merge = m2;
           cond = cond2;
           branch_on_true = true;
         })
  in
  let f = Module_ir.function_exn ctx'.Spirv_fuzz.Context.m fx2.main in
  Alcotest.(check bool) "header exists" true (Func.find_block f h2 <> None);
  Alcotest.(check bool) "merge exists" true (Func.find_block f m2 <> None)

let test_invert_branch_condition () =
  let fx = fixture () in
  let fx, fresh = fresh1 fx in
  let ctx' =
    check_applies fx
      (Spirv_fuzz.Transformation.Invert_branch_condition
         { fn = fx.main; block = fx.l_entry; fresh })
  in
  let f = Module_ir.function_exn ctx'.Spirv_fuzz.Context.m fx.main in
  let entry = Func.block_exn f fx.l_entry in
  (match entry.Block.terminator with
  | Block.BranchConditional (c, t, e) ->
      Alcotest.(check int) "negated id" fresh c;
      Alcotest.(check int) "targets swapped (then)" fx.l_else t;
      Alcotest.(check int) "targets swapped (else)" fx.l_then e
  | _ -> Alcotest.fail "terminator changed shape");
  (* blocks with unconditional terminators are rejected *)
  let fx2, f2 = fresh1 fx in
  check_rejected fx2
    (Spirv_fuzz.Transformation.Invert_branch_condition
       { fn = fx2.main; block = fx2.l_then; fresh = f2 })

let test_propagate_instruction_up () =
  let fx = fixture () in
  let fx, fa = fresh1 fx in
  let fx, fb = fresh1 fx in
  let ctx' =
    check_applies fx
      (Spirv_fuzz.Transformation.Propagate_instruction_up
         {
           fn = fx.main;
           block = fx.l_merge;
           fresh_per_pred = [ (fx.l_then, fa); (fx.l_else, fb) ];
         })
  in
  (* the φ count in the merge block grows by one (the moved instruction
     became a φ) *)
  let f = Module_ir.function_exn ctx'.Spirv_fuzz.Context.m fx.main in
  let merge = Func.block_exn f fx.l_merge in
  let phis = List.filter Instr.is_phi merge.Block.instrs in
  Alcotest.(check int) "two phis now" 2 (List.length phis);
  (* mismatched pred map is rejected *)
  let fx2 = fixture () in
  let fx2, g = fresh1 fx2 in
  check_rejected fx2
    (Spirv_fuzz.Transformation.Propagate_instruction_up
       { fn = fx2.main; block = fx2.l_merge; fresh_per_pred = [ (fx2.l_then, g) ] })

let test_permute_phi_entries () =
  let fx = fixture () in
  let phi_id =
    let f = Module_ir.function_exn fx.m fx.main in
    Option.get (List.hd (Func.block_exn f fx.l_merge).Block.instrs).Instr.result
  in
  let ctx' =
    check_applies fx
      (Spirv_fuzz.Transformation.Permute_phi_entries
         { fn = fx.main; block = fx.l_merge; phi = phi_id; rotation = 1 })
  in
  let f = Module_ir.function_exn ctx'.Spirv_fuzz.Context.m fx.main in
  (match (List.hd (Func.block_exn f fx.l_merge).Block.instrs).Instr.op with
  | Instr.Phi ((_, first_pred) :: _) ->
      Alcotest.(check int) "rotated: else first" fx.l_else first_pred
  | _ -> Alcotest.fail "phi vanished");
  check_rejected fx
    (Spirv_fuzz.Transformation.Permute_phi_entries
       { fn = fx.main; block = fx.l_merge; phi = 99999; rotation = 1 })

let test_swap_commutative_operands () =
  let fx = fixture () in
  (* swap the comparison x < 2.0: becomes 2.0 > x *)
  let ctx' =
    check_applies fx
      (Spirv_fuzz.Transformation.Swap_commutative_operands
         { fn = fx.main; block = fx.l_entry; instr = fx.cond })
  in
  let f = Module_ir.function_exn ctx'.Spirv_fuzz.Context.m fx.main in
  let entry = Func.block_exn f fx.l_entry in
  let swapped =
    List.exists
      (fun (i : Instr.t) ->
        i.Instr.result = Some fx.cond
        && match i.Instr.op with
           | Instr.Binop (Instr.FOrdGreaterThan, _, x) -> Id.equal x fx.x
           | _ -> false)
      entry.Block.instrs
  in
  Alcotest.(check bool) "mirrored comparison" true swapped;
  (* unknown instruction rejected *)
  check_rejected fx
    (Spirv_fuzz.Transformation.Swap_commutative_operands
       { fn = fx.main; block = fx.l_entry; instr = 99999 })

let test_replace_bool_constant_with_binary () =
  let fx = fixture () in
  (* create a dead block guarded by a true constant, then obfuscate the
     guard with a tautological integer comparison *)
  let fx, cond, enablers = true_const fx in
  let fx, tail = fresh1 fx in
  let split =
    Spirv_fuzz.Transformation.Split_block
      { fn = fx.main; block = fx.l_then; point = Spirv_fuzz.Transformation.At_end; fresh = tail }
  in
  let fx, dead = fresh1 fx in
  let mk_dead =
    Spirv_fuzz.Transformation.Add_dead_block
      { fn = fx.main; existing = fx.l_then; fresh = dead; cond }
  in
  (* a DYNAMIC int operand for the tautology (a constant would be folded
     right back by the optimizer): an int local loaded in l_then *)
  let fx, int_ty_id = fresh1 fx in
  let add_int = Spirv_fuzz.Transformation.Add_type { fresh = int_ty_id; ty = Ty.Int } in
  let fx, var, var_ptr_ty = fresh2 fx in
  let add_var =
    Spirv_fuzz.Transformation.Add_local_variable
      { fresh = var; fresh_ptr_ty = var_ptr_ty; fn = fx.main; pointee = int_ty_id }
  in
  let fx, loaded = fresh1 fx in
  let add_load =
    Spirv_fuzz.Transformation.Add_load
      {
        fn = fx.main;
        block = fx.l_then;
        point = Spirv_fuzz.Transformation.At_end;
        fresh = loaded;
        pointer = var;
      }
  in
  let site =
    {
      Spirv_fuzz.Transformation.us_fn = fx.main;
      us_block = fx.l_then;
      us_anchor = Spirv_fuzz.Transformation.Terminator;
      us_operand = 0;
    }
  in
  let fx, cmp = fresh1 fx in
  let ctx' =
    check_applies
      ~also:(split :: enablers @ [ mk_dead; add_int; add_var; add_load ])
      fx
      (Spirv_fuzz.Transformation.Replace_bool_constant_with_binary
         { site; fresh = cmp; operand = loaded })
  in
  (* the branch condition is now the comparison, not the constant *)
  let f = Module_ir.function_exn ctx'.Spirv_fuzz.Context.m fx.main in
  (match (Func.block_exn f fx.l_then).Block.terminator with
  | Block.BranchConditional (c, _, _) -> Alcotest.(check int) "obfuscated guard" cmp c
  | _ -> Alcotest.fail "terminator shape");
  (* the dead block must now survive the clean optimizer (it cannot see
     through 7 == 7) while the image stays intact *)
  let optimized =
    Compilers.Optimizer.run Compilers.Optimizer.standard ctx'.Spirv_fuzz.Context.m
  in
  Alcotest.(check bool) "dead block survives -O" true
    (List.exists
       (fun (fn : Func.t) -> Func.find_block fn dead <> None)
       optimized.Module_ir.functions)

let test_add_load_store () =
  let fx = fixture () in
  let fx, fresh = fresh1 fx in
  (* loads are allowed anywhere *)
  let ctx' =
    check_applies fx
      (Spirv_fuzz.Transformation.Add_load
         {
           fn = fx.main;
           block = fx.l_then;
           point = Spirv_fuzz.Transformation.At_end;
           fresh;
           pointer = fx.out;
         })
  in
  ignore ctx';
  (* stores to a live block without facts are rejected *)
  check_rejected fx
    (Spirv_fuzz.Transformation.Add_store
       {
         fn = fx.main;
         block = fx.l_then;
         point = Spirv_fuzz.Transformation.At_end;
         pointer = fx.out;
         value = fx.call_id;
       });
  (* but stores to an irrelevant-pointee variable are fine *)
  let float_id = Option.get (Module_ir.find_type_id fx.m Ty.Float) in
  let fx, g, gp = fresh2 fx in
  let add_gv =
    Spirv_fuzz.Transformation.Add_global_variable
      { fresh = g; fresh_ptr_ty = gp; pointee = float_id }
  in
  let ctx'' =
    check_applies ~also:[ add_gv ] fx
      (Spirv_fuzz.Transformation.Add_store
         {
           fn = fx.main;
           block = fx.l_then;
           point = Spirv_fuzz.Transformation.At_end;
           pointer = g;
           value = fx.x;
         })
  in
  ignore ctx''

let test_synonym_family () =
  let fx = fixture () in
  (* CopyObject *)
  let fx, c1 = fresh1 fx in
  let t_copy =
    Spirv_fuzz.Transformation.Add_copy_object
      {
        fn = fx.main;
        block = fx.l_entry;
        point = Spirv_fuzz.Transformation.Before fx.cond;
        fresh = c1;
        operand = fx.x;
      }
  in
  let ctx1 = check_applies fx t_copy in
  Alcotest.(check bool) "synonym fact" true
    (Spirv_fuzz.Fact_manager.are_synonymous ctx1.Spirv_fuzz.Context.facts c1 fx.x);
  (* arithmetic synonym via x * 1.0; the 1.0 constant already exists *)
  let float_id = Option.get (Module_ir.find_type_id fx.m Ty.Float) in
  let one = Option.get (Module_ir.find_constant_id fx.m ~ty:float_id ~value:(Constant.Float 1.0)) in
  let fx, c2 = fresh1 fx in
  let t_arith =
    Spirv_fuzz.Transformation.Add_arithmetic_synonym
      {
        fn = fx.main;
        block = fx.l_entry;
        point = Spirv_fuzz.Transformation.Before fx.cond;
        fresh = c2;
        operand = fx.x;
        kind = Spirv_fuzz.Transformation.Mul_one_float;
        identity = one;
      }
  in
  ignore (check_applies fx t_arith);
  (* select synonym *)
  let fx, c3 = fresh1 fx in
  let t_select =
    Spirv_fuzz.Transformation.Add_select_synonym
      {
        fn = fx.main;
        block = fx.l_then;
        point = Spirv_fuzz.Transformation.At_end;
        fresh = c3;
        cond = fx.cond;
        operand = fx.call_id;
      }
  in
  ignore (check_applies fx t_select);
  (* now replace a use with the copy synonym: x used in the color composite *)
  let composite_result =
    let f = Module_ir.function_exn ctx1.Spirv_fuzz.Context.m fx.main in
    Func.all_instrs f
    |> List.find_map (fun (i : Instr.t) ->
           match i.Instr.op with
           | Instr.CompositeConstruct _ -> i.Instr.result
           | _ -> None)
    |> Option.get
  in
  let site =
    {
      Spirv_fuzz.Transformation.us_fn = fx.main;
      us_block = fx.l_merge;
      us_anchor = Spirv_fuzz.Transformation.Result_id composite_result;
      us_operand = 1 (* the x slot *);
    }
  in
  let t_replace = Spirv_fuzz.Transformation.Replace_id_with_synonym { site; synonym = c1 } in
  Alcotest.(check bool) "replace pre" true (Spirv_fuzz.Rules.precondition ctx1 t_replace);
  let ctx2 = Spirv_fuzz.Rules.apply ctx1 t_replace in
  Alcotest.(check bool) "valid" true (Validate.is_valid ctx2.Spirv_fuzz.Context.m);
  Alcotest.(check bool) "image preserved" true
    (Image.equal (render_exn fx.m) (render_exn ctx2.Spirv_fuzz.Context.m));
  (* replacing with a non-synonym is rejected *)
  check_rejected fx
    (Spirv_fuzz.Transformation.Replace_id_with_synonym { site; synonym = fx.call_id })

let test_replace_constant_with_uniform () =
  let fx = fixture () in
  (* add a float uniform equal to the 2.0 used in the comparison *)
  let m = fx.m in
  let float_id = Option.get (Module_ir.find_type_id m Ty.Float) in
  let b_ptr = Ty.Pointer (Ty.Uniform, float_id) in
  let m, ptr_ty = Module_ir.intern_type m b_ptr in
  let m, uni = Module_ir.add_global m ~ty:ptr_ty ~name:"u_two" ~init:None in
  let input' = Input.make ~width:4 ~height:4
      [ ("u_flag", Value.VBool true); ("u_two", Value.VFloat 2.0) ] in
  let ctx = Spirv_fuzz.Context.make m input' in
  let fx = { fx with m; ctx } in
  let two = Option.get (Module_ir.find_constant_id m ~ty:float_id ~value:(Constant.Float 2.0)) in
  ignore two;
  let fx, load_id = fresh1 fx in
  let site =
    {
      Spirv_fuzz.Transformation.us_fn = fx.main;
      us_block = fx.l_entry;
      us_anchor = Spirv_fuzz.Transformation.Result_id fx.cond;
      us_operand = 1 (* the 2.0 constant in x < 2.0 *);
    }
  in
  let t =
    Spirv_fuzz.Transformation.Replace_constant_with_uniform
      { site; fresh_load = load_id; uniform = uni }
  in
  Alcotest.(check bool) "pre" true (Spirv_fuzz.Rules.precondition fx.ctx t);
  let ctx' = Spirv_fuzz.Rules.apply fx.ctx t in
  Alcotest.(check bool) "valid" true (Validate.is_valid ctx'.Spirv_fuzz.Context.m);
  let before =
    match Interp.render fx.m input' with Ok i -> i | Error _ -> Alcotest.fail "render"
  in
  let after =
    match Interp.render ctx'.Spirv_fuzz.Context.m input' with
    | Ok i -> i
    | Error _ -> Alcotest.fail "render"
  in
  Alcotest.(check bool) "image preserved" true (Image.equal before after);
  (* a uniform with a different value is rejected *)
  let m2, uni2 =
    let m2, pt = Module_ir.intern_type ctx'.Spirv_fuzz.Context.m (Ty.Pointer (Ty.Uniform, float_id)) in
    ignore pt;
    Module_ir.add_global m2
      ~ty:(snd (Module_ir.intern_type m2 (Ty.Pointer (Ty.Uniform, float_id))))
      ~name:"u_other" ~init:None
  in
  let input'' = Input.make [ ("u_flag", Value.VBool true); ("u_two", Value.VFloat 2.0); ("u_other", Value.VFloat 3.0) ] in
  let ctx2 = Spirv_fuzz.Context.make m2 input'' in
  let m3, load2 = Module_ir.fresh ctx2.Spirv_fuzz.Context.m in
  let ctx2 = { ctx2 with Spirv_fuzz.Context.m = m3 } in
  Alcotest.(check bool) "wrong value rejected" false
    (Spirv_fuzz.Rules.precondition ctx2
       (Spirv_fuzz.Transformation.Replace_constant_with_uniform
          { site; fresh_load = load2; uniform = uni2 }))

let test_composites () =
  let fx = fixture () in
  let float_id = Option.get (Module_ir.find_type_id fx.m Ty.Float) in
  let vec2 =
    match Module_ir.find_type_id fx.m (Ty.Vector (float_id, 2)) with
    | Some t -> t
    | None -> Alcotest.fail "fixture has vec2 (frag coord)"
  in
  let fx, cc = fresh1 fx in
  let t_construct =
    Spirv_fuzz.Transformation.Composite_construct
      {
        fn = fx.main;
        block = fx.l_entry;
        point = Spirv_fuzz.Transformation.Before fx.cond;
        fresh = cc;
        ty = vec2;
        parts = [ fx.x; fx.x ];
      }
  in
  let ctx1 = check_applies fx t_construct in
  (* indexed synonym facts for each part *)
  Alcotest.(check (list int)) "component fact" [ fx.x ]
    (Spirv_fuzz.Fact_manager.component_synonyms ctx1.Spirv_fuzz.Context.facts ~composite:cc
       ~path:[ 0 ]);
  (* extract bridges to a whole-object synonym *)
  let fx1 = { fx with ctx = ctx1; m = ctx1.Spirv_fuzz.Context.m } in
  let fx1, ex = fresh1 fx1 in
  let t_extract =
    Spirv_fuzz.Transformation.Composite_extract
      {
        fn = fx1.main;
        block = fx1.l_entry;
        point = Spirv_fuzz.Transformation.Before fx1.cond;
        fresh = ex;
        composite = cc;
        path = [ 0 ];
      }
  in
  Alcotest.(check bool) "extract pre" true (Spirv_fuzz.Rules.precondition fx1.ctx t_extract);
  let ctx2 = Spirv_fuzz.Rules.apply fx1.ctx t_extract in
  Alcotest.(check bool) "extract synonym bridged" true
    (Spirv_fuzz.Fact_manager.are_synonymous ctx2.Spirv_fuzz.Context.facts ex fx.x);
  (* arity mismatch rejected *)
  let fx2, c2 = fresh1 fx in
  check_rejected fx2
    (Spirv_fuzz.Transformation.Composite_construct
       {
         fn = fx2.main;
         block = fx2.l_entry;
         point = Spirv_fuzz.Transformation.Before fx2.cond;
         fresh = c2;
         ty = vec2;
         parts = [ fx2.x ];
       })

let test_set_function_control () =
  let fx = fixture () in
  let ctx' =
    check_applies fx
      (Spirv_fuzz.Transformation.Set_function_control
         { fn = fx.helper; control = Func.DontInline })
  in
  let g = Module_ir.function_exn ctx'.Spirv_fuzz.Context.m fx.helper in
  Alcotest.(check bool) "control set" true (g.Func.control = Func.DontInline);
  (* setting the same control again is a no-op and rejected *)
  let fx' = { fx with ctx = ctx'; m = ctx'.Spirv_fuzz.Context.m } in
  check_rejected fx'
    (Spirv_fuzz.Transformation.Set_function_control { fn = fx.helper; control = Func.DontInline })

let test_function_call_and_inline () =
  let fx = fixture () in
  (* a call to the (not live-safe) helper from a live block is rejected *)
  let fx, r1 = fresh1 fx in
  check_rejected fx
    (Spirv_fuzz.Transformation.Function_call
       {
         fn = fx.main;
         block = fx.l_then;
         point = Spirv_fuzz.Transformation.At_end;
         fresh = r1;
         callee = fx.helper;
         args = [ fx.x ];
       });
  (* but allowed from a dead block *)
  let fx, cond, enablers = true_const fx in
  let fx, dead = fresh1 fx in
  let fx, r2 = fresh1 fx in
  let mk_dead =
    Spirv_fuzz.Transformation.Add_dead_block
      { fn = fx.main; existing = fx.l_then; fresh = dead; cond }
  in
  (* AddDeadBlock needs φ-free successor; split l_merge's φ away first:
     instead target the helper's straight-line... simplest: split l_then at
     end so its successor is the fresh empty block *)
  let fx, tail = fresh1 fx in
  let split =
    Spirv_fuzz.Transformation.Split_block
      {
        fn = fx.main;
        block = fx.l_then;
        point = Spirv_fuzz.Transformation.At_end;
        fresh = tail;
      }
  in
  let ctx' =
    check_applies
      ~also:(split :: enablers @ [ mk_dead ])
      fx
      (Spirv_fuzz.Transformation.Function_call
         {
           fn = fx.main;
           block = dead;
           point = Spirv_fuzz.Transformation.At_end;
           fresh = r2;
           callee = fx.helper;
           args = [ fx.x ];
         })
  in
  ignore ctx';
  (* inline the original call in the entry block *)
  let fx2 = fixture () in
  let helper_results =
    let g = Module_ir.function_exn fx2.m fx2.helper in
    List.filter_map (fun (i : Instr.t) -> i.Instr.result) (Func.all_instrs g)
  in
  let fx2, fresh_ids =
    List.fold_left
      (fun (fx, acc) _ ->
        let fx, id = fresh1 fx in
        (fx, acc @ [ id ]))
      (fx2, []) helper_results
  in
  let id_map = List.combine helper_results fresh_ids in
  let ctx'' =
    check_applies fx2
      (Spirv_fuzz.Transformation.Inline_function
         { fn = fx2.main; block = fx2.l_entry; call_id = fx2.call_id; id_map })
  in
  (* no call remains in main *)
  let f = Module_ir.function_exn ctx''.Spirv_fuzz.Context.m fx2.main in
  Alcotest.(check bool) "call gone" false
    (List.exists
       (fun (i : Instr.t) ->
         match i.Instr.op with Instr.FunctionCall _ -> true | _ -> false)
       (Func.all_instrs f));
  (* DontInline blocks inlining *)
  let fx3 = fixture () in
  let ctx3 =
    Spirv_fuzz.Rules.apply fx3.ctx
      (Spirv_fuzz.Transformation.Set_function_control
         { fn = fx3.helper; control = Func.DontInline })
  in
  let fx3 = { fx3 with ctx = ctx3; m = ctx3.Spirv_fuzz.Context.m } in
  let fx3, fresh_ids3 =
    List.fold_left
      (fun (fx, acc) _ ->
        let fx, id = fresh1 fx in
        (fx, acc @ [ id ]))
      (fx3, []) helper_results
  in
  check_rejected fx3
    (Spirv_fuzz.Transformation.Inline_function
       {
         fn = fx3.main;
         block = fx3.l_entry;
         call_id = fx3.call_id;
         id_map = List.combine helper_results fresh_ids3;
       })

let test_add_parameter () =
  let fx = fixture () in
  let float_id = Option.get (Module_ir.find_type_id fx.m Ty.Float) in
  let half =
    Option.get (Module_ir.find_constant_id fx.m ~ty:float_id ~value:(Constant.Float 0.5))
  in
  let fx, p, fnty = fresh2 fx in
  let ctx' =
    check_applies fx
      (Spirv_fuzz.Transformation.Add_parameter
         { fn = fx.helper; fresh_param = p; fresh_fn_ty = fnty; default = half })
  in
  let g = Module_ir.function_exn ctx'.Spirv_fuzz.Context.m fx.helper in
  Alcotest.(check int) "two params now" 2 (List.length g.Func.params);
  Alcotest.(check bool) "param irrelevant" true
    (Spirv_fuzz.Fact_manager.is_irrelevant ctx'.Spirv_fuzz.Context.facts p);
  (* every call site extended *)
  let f = Module_ir.function_exn ctx'.Spirv_fuzz.Context.m fx.main in
  let ok =
    List.exists
      (fun (i : Instr.t) ->
        match i.Instr.op with
        | Instr.FunctionCall (callee, args) ->
            Id.equal callee fx.helper && List.length args = 2
        | _ -> false)
      (Func.all_instrs f)
  in
  Alcotest.(check bool) "call site extended" true ok;
  (* the entry point cannot gain parameters *)
  let fx2, p2, ft2 = fresh2 fx in
  check_rejected fx2
    (Spirv_fuzz.Transformation.Add_parameter
       { fn = fx2.main; fresh_param = p2; fresh_fn_ty = ft2; default = half })

let test_replace_irrelevant_id () =
  let fx = fixture () in
  let float_id = Option.get (Module_ir.find_type_id fx.m Ty.Float) in
  let half =
    Option.get (Module_ir.find_constant_id fx.m ~ty:float_id ~value:(Constant.Float 0.5))
  in
  let fx, p, fnty = fresh2 fx in
  let add_param =
    Spirv_fuzz.Transformation.Add_parameter
      { fn = fx.helper; fresh_param = p; fresh_fn_ty = fnty; default = half }
  in
  (* after AddParameter, the call's new final argument slot feeds an
     irrelevant parameter; replace it with x *)
  let site =
    {
      Spirv_fuzz.Transformation.us_fn = fx.main;
      us_block = fx.l_entry;
      us_anchor = Spirv_fuzz.Transformation.Result_id fx.call_id;
      us_operand = 2 (* callee is slot 0, original arg slot 1, new arg slot 2 *);
    }
  in
  let ctx' =
    check_applies ~also:[ add_param ] fx
      (Spirv_fuzz.Transformation.Replace_irrelevant_id { site; replacement = fx.x })
  in
  ignore ctx';
  (* a non-irrelevant slot is rejected *)
  let site_bad = { site with Spirv_fuzz.Transformation.us_operand = 1 } in
  let ctx_with_param = Spirv_fuzz.Rules.apply fx.ctx add_param in
  Alcotest.(check bool) "relevant slot rejected" false
    (Spirv_fuzz.Rules.precondition ctx_with_param
       (Spirv_fuzz.Transformation.Replace_irrelevant_id { site = site_bad; replacement = fx.x }))

let test_add_uniform () =
  let fx = fixture () in
  let float_id = Option.get (Module_ir.find_type_id fx.m Ty.Float) in
  let fx, u, up = fresh2 fx in
  let t =
    Spirv_fuzz.Transformation.Add_uniform
      { fresh = u; fresh_ptr_ty = up; pointee = float_id; name = "_u_extra";
        value = Value.VFloat 2.0 }
  in
  Alcotest.(check bool) "pre" true (Spirv_fuzz.Rules.precondition fx.ctx t);
  let ctx' = Spirv_fuzz.Rules.apply fx.ctx t in
  Alcotest.(check bool) "valid" true (Validate.is_valid ctx'.Spirv_fuzz.Context.m);
  (* the input was extended in sync with the module *)
  Alcotest.(check bool) "input extended" true
    (Input.find_uniform ctx'.Spirv_fuzz.Context.input "_u_extra" = Some (Value.VFloat 2.0));
  (* the variant renders the same image on its own input *)
  let before = render_exn fx.m in
  let after =
    match Interp.render ctx'.Spirv_fuzz.Context.m ctx'.Spirv_fuzz.Context.input with
    | Ok img -> img
    | Error e -> Alcotest.failf "render: %s" (Interp.trap_to_string e)
  in
  Alcotest.(check bool) "image preserved" true (Image.equal before after);
  (* the new uniform is now a ReplaceConstantWithUniform target *)
  Alcotest.(check bool) "known uniform" true
    (List.exists (fun (gid, _, _) -> Id.equal gid u)
       (Spirv_fuzz.Context.known_uniforms ctx'));
  (* duplicate names are rejected *)
  let fx2 = { fx with ctx = ctx'; m = ctx'.Spirv_fuzz.Context.m } in
  let fx2, u2, up2 = fresh2 fx2 in
  check_rejected fx2
    (Spirv_fuzz.Transformation.Add_uniform
       { fresh = u2; fresh_ptr_ty = up2; pointee = float_id; name = "_u_extra";
         value = Value.VFloat 2.0 });
  (* value/type mismatches are rejected *)
  let fx3, u3, up3 = fresh2 fx in
  check_rejected fx3
    (Spirv_fuzz.Transformation.Add_uniform
       { fresh = u3; fresh_ptr_ty = up3; pointee = float_id; name = "_u_other";
         value = Value.VBool true })

let test_add_function_from_donor () =
  let fx = fixture () in
  let donor = Generator.generate (Tbct.Rng.make 77) in
  match Spirv_fuzz.Donor.eligible_functions donor with
  | [] -> () (* donor has no helpers at this seed: acceptable *)
  | g :: _ -> (
      match Spirv_fuzz.Donor.encode fx.ctx donor g with
      | None -> Alcotest.fail "donor encoding failed"
      | Some (ctx, payload) ->
          let fx = { fx with ctx; m = ctx.Spirv_fuzz.Context.m } in
          let ctx' = check_applies fx (Spirv_fuzz.Transformation.Add_function payload) in
          let fn_id = payload.Spirv_fuzz.Transformation.af_function.Func.id in
          Alcotest.(check bool) "function present" true
            (Module_ir.find_function ctx'.Spirv_fuzz.Context.m fn_id <> None);
          Alcotest.(check bool) "live-safe fact" true
            (Spirv_fuzz.Fact_manager.is_live_safe ctx'.Spirv_fuzz.Context.facts fn_id))

(* replaying any prefix of a recorded sequence from the fixture is safe *)
let prop_fixture_prefixes =
  QCheck.Test.make ~name:"prefixes of recorded sequences preserve the fixture image"
    ~count:15
    QCheck.(int_bound 10_000)
    (fun seed ->
      let fx = fixture () in
      let config =
        { Spirv_fuzz.Fuzzer.default_config with Spirv_fuzz.Fuzzer.max_transformations = 60 }
      in
      let result = Spirv_fuzz.Fuzzer.run ~config ~seed fx.ctx in
      let ts = result.Spirv_fuzz.Fuzzer.transformations in
      let before = render_exn fx.m in
      List.for_all
        (fun k ->
          let prefix = List.filteri (fun i _ -> i < k) ts in
          let ctx = Spirv_fuzz.Lang.replay fx.ctx prefix in
          Validate.is_valid ctx.Spirv_fuzz.Context.m
          && (match Interp.render ctx.Spirv_fuzz.Context.m ctx.Spirv_fuzz.Context.input with
             | Ok img -> Image.equal before img
             | Error _ -> false))
        [ 1; List.length ts / 2; List.length ts ])

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "transformations"
    [
      ( "supporting",
        [
          Alcotest.test_case "AddType" `Quick test_add_type;
          Alcotest.test_case "AddConstant" `Quick test_add_constant;
          Alcotest.test_case "AddGlobal/LocalVariable" `Quick test_add_global_and_local_variable;
          Alcotest.test_case "AddNop" `Quick test_add_nop;
        ] );
      ( "control-flow",
        [
          Alcotest.test_case "SplitBlock" `Quick test_split_block;
          Alcotest.test_case "AddDeadBlock + ReplaceBranchWithKill" `Quick
            test_add_dead_block_and_kill;
          Alcotest.test_case "AddDeadBlock needs phi-free successor" `Quick
            test_add_dead_block_requires_phi_free_successor;
          Alcotest.test_case "MoveBlockDown" `Quick test_move_block_down;
          Alcotest.test_case "WrapRegionInSelection" `Quick test_wrap_region_in_selection;
          Alcotest.test_case "InvertBranchCondition" `Quick test_invert_branch_condition;
          Alcotest.test_case "PropagateInstructionUp" `Quick test_propagate_instruction_up;
          Alcotest.test_case "PermutePhiEntries" `Quick test_permute_phi_entries;
          Alcotest.test_case "SwapCommutativeOperands" `Quick test_swap_commutative_operands;
          Alcotest.test_case "ReplaceBooleanConstantWithBinary" `Quick
            test_replace_bool_constant_with_binary;
        ] );
      ( "data",
        [
          Alcotest.test_case "AddLoad / AddStore" `Quick test_add_load_store;
          Alcotest.test_case "synonym family" `Quick test_synonym_family;
          Alcotest.test_case "ReplaceConstantWithUniform" `Quick
            test_replace_constant_with_uniform;
          Alcotest.test_case "CompositeConstruct / Extract" `Quick test_composites;
        ] );
      ( "functions",
        [
          Alcotest.test_case "SetFunctionControl" `Quick test_set_function_control;
          Alcotest.test_case "FunctionCall / InlineFunction" `Quick
            test_function_call_and_inline;
          Alcotest.test_case "AddParameter" `Quick test_add_parameter;
          Alcotest.test_case "ReplaceIrrelevantId" `Quick test_replace_irrelevant_id;
          Alcotest.test_case "AddUniform (module+input co-transformation)" `Quick
            test_add_uniform;
          Alcotest.test_case "AddFunction from donor" `Quick test_add_function_from_donor;
        ] );
      ("properties", qcheck [ prop_fixture_prefixes ]);
    ]
