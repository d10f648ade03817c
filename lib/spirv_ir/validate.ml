(* a CFG of its own is a compile error here: use Dataflow.Availability *)
[@@@alert "@private_cfg"]

type error = { where : string; message : string }

let error_to_string e = Printf.sprintf "%s: %s" e.where e.message

type ctx = {
  m : Module_ir.t;
  errors : error Queue.t;  (* appended in source order *)
}

let err ctx where fmt =
  Printf.ksprintf (fun message -> Queue.add { where; message } ctx.errors) fmt

(* ------------------------------------------------------------------ *)
(* Ids                                                                 *)

let check_ids ctx =
  let m = ctx.m in
  let seen = Hashtbl.create 64 in
  let declare where id =
    if id <= 0 || id >= m.Module_ir.id_bound then
      err ctx where "id %s out of bounds (bound %d)" (Id.to_string id) m.Module_ir.id_bound;
    if Hashtbl.mem seen id then err ctx where "duplicate definition of %s" (Id.to_string id)
    else Hashtbl.add seen id ()
  in
  List.iter (fun (d : Module_ir.type_decl) -> declare "types" d.Module_ir.td_id) m.Module_ir.types;
  List.iter (fun (d : Module_ir.const_decl) -> declare "constants" d.Module_ir.cd_id) m.Module_ir.constants;
  List.iter (fun (d : Module_ir.global_decl) -> declare "globals" d.Module_ir.gd_id) m.Module_ir.globals;
  List.iter
    (fun (f : Func.t) ->
      let where = "function " ^ Id.to_string f.Func.id in
      declare where f.Func.id;
      List.iter (fun (p : Func.param) -> declare where p.Func.param_id) f.Func.params;
      List.iter
        (fun (b : Block.t) ->
          declare where b.Block.label;
          List.iter
            (fun (i : Instr.t) ->
              match i.Instr.result with Some r -> declare where r | None -> ())
            b.Block.instrs)
        f.Func.blocks)
    m.Module_ir.functions

(* ------------------------------------------------------------------ *)
(* Type table                                                          *)

let check_types ctx =
  let m = ctx.m in
  let declared = Hashtbl.create 16 in
  let is_declared id = Hashtbl.mem declared id in
  let kind_of id = Hashtbl.find_opt declared id in
  List.iter
    (fun (d : Module_ir.type_decl) ->
      let where = "type " ^ Id.to_string d.Module_ir.td_id in
      let need_declared id =
        if not (is_declared id) then
          err ctx where "component type %s not declared earlier" (Id.to_string id)
      in
      (match d.Module_ir.td_ty with
      | Ty.Void | Ty.Bool | Ty.Int | Ty.Float -> ()
      | Ty.Vector (c, n) ->
          need_declared c;
          (match kind_of c with
          | Some (Ty.Bool | Ty.Int | Ty.Float) -> ()
          | Some _ -> err ctx where "vector component must be a scalar"
          | None -> ());
          if n < 2 || n > 4 then err ctx where "vector size %d out of range 2..4" n
      | Ty.Matrix (col, n) ->
          need_declared col;
          (match kind_of col with
          | Some (Ty.Vector (c, _)) -> (
              match kind_of c with
              | Some Ty.Float -> ()
              | Some _ | None -> err ctx where "matrix column must be a float vector")
          | Some _ -> err ctx where "matrix column must be a vector"
          | None -> ());
          if n < 2 || n > 4 then err ctx where "matrix column count %d out of range 2..4" n
      | Ty.Struct members ->
          List.iter
            (fun mem ->
              need_declared mem;
              match kind_of mem with
              | Some (Ty.Void | Ty.Func _ | Ty.Pointer _) ->
                  err ctx where "struct member may not be void/function/pointer"
              | Some _ | None -> ())
            members
      | Ty.Array (c, n) ->
          need_declared c;
          (match kind_of c with
          | Some (Ty.Void | Ty.Func _ | Ty.Pointer _) ->
              err ctx where "array element may not be void/function/pointer"
          | Some _ | None -> ());
          if n < 1 then err ctx where "array length %d must be positive" n
      | Ty.Pointer (_, p) ->
          need_declared p;
          (match kind_of p with
          | Some (Ty.Void | Ty.Func _) ->
              err ctx where "pointer pointee may not be void/function"
          | Some _ | None -> ())
      | Ty.Func (ret, params) ->
          need_declared ret;
          List.iter
            (fun p ->
              need_declared p;
              match kind_of p with
              | Some (Ty.Void | Ty.Func _) ->
                  err ctx where "parameter type may not be void/function"
              | Some _ | None -> ())
            params);
      Hashtbl.replace declared d.Module_ir.td_id d.Module_ir.td_ty)
    m.Module_ir.types

(* ------------------------------------------------------------------ *)
(* Constants                                                           *)

let check_constants ctx =
  let m = ctx.m in
  let declared = Hashtbl.create 16 in
  List.iter
    (fun (d : Module_ir.const_decl) ->
      let where = "constant " ^ Id.to_string d.Module_ir.cd_id in
      (match Module_ir.find_type m d.Module_ir.cd_ty with
      | None -> err ctx where "unknown type %s" (Id.to_string d.Module_ir.cd_ty)
      | Some ty -> (
          match (d.Module_ir.cd_value, ty) with
          | Constant.Bool _, Ty.Bool -> ()
          | Constant.Int _, Ty.Int -> ()
          | Constant.Float _, Ty.Float -> ()
          | Constant.Null, (Ty.Void | Ty.Func _ | Ty.Pointer _) ->
              err ctx where "null constant of non-data type"
          | Constant.Null, _ -> ()
          | Constant.Composite parts, composite_ty -> (
              if not (Ty.is_composite composite_ty) then
                err ctx where "composite constant of non-composite type";
              match Module_ir.composite_arity m d.Module_ir.cd_ty with
              | Some n when List.length parts = n ->
                  List.iteri
                    (fun i part ->
                      if not (Hashtbl.mem declared part) then
                        err ctx where "constituent %s not declared earlier" (Id.to_string part)
                      else begin
                        match (Hashtbl.find_opt declared part,
                               Module_ir.component_ty m d.Module_ir.cd_ty i) with
                        | Some part_ty, Some expected when not (Id.equal part_ty expected) ->
                            err ctx where "constituent %d has type %s, expected %s" i
                              (Id.to_string part_ty) (Id.to_string expected)
                        | _ -> ()
                      end)
                    parts
              | Some n ->
                  err ctx where "composite arity %d, expected %d" (List.length parts) n
              | None -> ())
          | Constant.Bool _, _ | Constant.Int _, _ | Constant.Float _, _ ->
              err ctx where "constant value does not match its type"));
      Hashtbl.replace declared d.Module_ir.cd_id d.Module_ir.cd_ty)
    m.Module_ir.constants

(* ------------------------------------------------------------------ *)
(* Globals                                                             *)

let check_globals ctx =
  let m = ctx.m in
  List.iter
    (fun (g : Module_ir.global_decl) ->
      let where = "global " ^ Id.to_string g.Module_ir.gd_id in
      match Module_ir.find_type m g.Module_ir.gd_ty with
      | Some (Ty.Pointer (sc, pointee)) -> (
          (match sc with
          | Ty.Function -> err ctx where "global with Function storage class"
          | Ty.Input -> (
              match Module_ir.find_type m pointee with
              | Some (Ty.Vector (c, 2)) when
                  (match Module_ir.find_type m c with Some Ty.Float -> true | _ -> false) ->
                  ()
              | Some _ | None -> err ctx where "Input global must be a float vec2")
          | Ty.Private | Ty.Uniform | Ty.Output -> ());
          match g.Module_ir.gd_init with
          | None -> ()
          | Some init -> (
              if sc = Ty.Uniform || sc = Ty.Input then
                err ctx where "Uniform/Input global may not have an initializer";
              match Module_ir.find_constant m init with
              | Some c ->
                  if not (Id.equal c.Module_ir.cd_ty pointee) then
                    err ctx where "initializer type mismatch"
              | None -> err ctx where "initializer %s is not a constant" (Id.to_string init)))
      | Some _ -> err ctx where "global type must be a pointer"
      | None -> err ctx where "unknown type %s" (Id.to_string g.Module_ir.gd_ty))
    m.Module_ir.globals

(* ------------------------------------------------------------------ *)
(* Call graph                                                          *)

let check_call_graph ctx =
  let m = ctx.m in
  let callees (f : Func.t) =
    Func.all_instrs f
    |> List.filter_map (fun (i : Instr.t) ->
           match i.Instr.op with Instr.FunctionCall (g, _) -> Some g | _ -> None)
  in
  (* DFS cycle detection: 0 = unvisited, 1 = on stack, 2 = done *)
  let state = Hashtbl.create 8 in
  let rec visit (f : Func.t) =
    match Hashtbl.find_opt state f.Func.id with
    | Some 1 -> err ctx ("function " ^ Id.to_string f.Func.id) "recursive call cycle"
    | Some _ -> ()
    | None ->
        Hashtbl.replace state f.Func.id 1;
        List.iter
          (fun g ->
            match Module_ir.find_function m g with
            | Some gf -> visit gf
            | None -> ())
          (callees f);
        Hashtbl.replace state f.Func.id 2
  in
  List.iter visit m.Module_ir.functions

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let check_entry ctx =
  let m = ctx.m in
  match Module_ir.find_function m m.Module_ir.entry with
  | None -> err ctx "entry point" "entry function %s not found" (Id.to_string m.Module_ir.entry)
  | Some f -> (
      if f.Func.params <> [] then err ctx "entry point" "entry function must have no parameters";
      match Module_ir.find_type m f.Func.fn_ty with
      | Some (Ty.Func (ret, _)) -> (
          match Module_ir.find_type m ret with
          | Some Ty.Void -> ()
          | Some _ | None -> err ctx "entry point" "entry function must return void")
      | Some _ | None -> err ctx "entry point" "entry function has a non-function type")

(* ------------------------------------------------------------------ *)
(* Functions                                                           *)

(* Expected result type of an instruction, or None when the instruction is
   ill-typed (an error is recorded).  [ty_of] maps an id to its type id. *)
let check_instr ctx (f : Func.t) where ~ty_of (i : Instr.t) =
  let m = ctx.m in
  let tid id = ty_of id in
  let ty_struct id = Option.bind (tid id) (Module_ir.find_type m) in
  let expect_result expected =
    match (i.Instr.result, i.Instr.ty) with
    | Some _, Some actual ->
        if not (Id.equal actual expected) then
          err ctx where "result type %s, expected %s" (Id.to_string actual)
            (Id.to_string expected)
    | _ -> err ctx where "instruction must have a result"
  in
  let operand_ty name id =
    match tid id with
    | Some t -> Some t
    | None ->
        err ctx where "%s operand %s has no type" name (Id.to_string id);
        None
  in
  let scalar_kind t =
    match Module_ir.find_type m t with
    | Some Ty.Int -> Some `Int
    | Some Ty.Float -> Some `Float
    | Some Ty.Bool -> Some `Bool
    | Some (Ty.Vector (c, _)) -> (
        match Module_ir.find_type m c with
        | Some Ty.Int -> Some `IntVec
        | Some Ty.Float -> Some `FloatVec
        | Some Ty.Bool -> Some `BoolVec
        | Some _ | None -> None)
    | Some _ | None -> None
  in
  match i.Instr.op with
  | Instr.Nop ->
      if i.Instr.result <> None then err ctx where "OpNop has no result"
  | Instr.Binop (op, a, b) -> (
      match (operand_ty "left" a, operand_ty "right" b) with
      | Some ta, Some tb ->
          if not (Id.equal ta tb) then
            err ctx where "binop operand types differ (%s vs %s)" (Id.to_string ta)
              (Id.to_string tb)
          else begin
            let kind = scalar_kind ta in
            let arith_ok kinds = List.exists (fun k -> kind = Some k) kinds in
            let is_cmp =
              match op with
              | Instr.IEqual | Instr.INotEqual | Instr.SLessThan
              | Instr.SLessThanEqual | Instr.SGreaterThan | Instr.SGreaterThanEqual
              | Instr.FOrdEqual | Instr.FOrdNotEqual | Instr.FOrdLessThan
              | Instr.FOrdLessThanEqual | Instr.FOrdGreaterThan
              | Instr.FOrdGreaterThanEqual ->
                  true
              | _ -> false
            in
            let int_op =
              match op with
              | Instr.IAdd | Instr.ISub | Instr.IMul | Instr.SDiv | Instr.SMod -> true
              | _ -> false
            in
            let float_op =
              match op with
              | Instr.FAdd | Instr.FSub | Instr.FMul | Instr.FDiv -> true
              | _ -> false
            in
            let bool_op =
              match op with Instr.LogicalAnd | Instr.LogicalOr -> true | _ -> false
            in
            let int_cmp =
              match op with
              | Instr.IEqual | Instr.INotEqual | Instr.SLessThan
              | Instr.SLessThanEqual | Instr.SGreaterThan | Instr.SGreaterThanEqual ->
                  true
              | _ -> false
            in
            if is_cmp then begin
              (* comparisons: scalar only, result Bool *)
              let ok =
                if int_cmp then arith_ok [ `Int ] else arith_ok [ `Float ]
              in
              if not ok then
                err ctx where "comparison %s on wrong operand type" (Instr.binop_name op);
              match Module_ir.find_type_id m Ty.Bool with
              | Some bool_ty -> expect_result bool_ty
              | None -> err ctx where "module lacks Bool type for comparison"
            end
            else begin
              let ok =
                (int_op && arith_ok [ `Int; `IntVec ])
                || (float_op && arith_ok [ `Float; `FloatVec ])
                || (bool_op && arith_ok [ `Bool ])
              in
              if not ok then
                err ctx where "binop %s on wrong operand type" (Instr.binop_name op);
              expect_result ta
            end
          end
      | _ -> ())
  | Instr.Unop (op, a) -> (
      match operand_ty "operand" a with
      | None -> ()
      | Some ta -> (
          let kind = scalar_kind ta in
          match op with
          | Instr.SNegate ->
              if kind <> Some `Int && kind <> Some `IntVec then
                err ctx where "SNegate on non-int";
              expect_result ta
          | Instr.FNegate ->
              if kind <> Some `Float && kind <> Some `FloatVec then
                err ctx where "FNegate on non-float";
              expect_result ta
          | Instr.LogicalNot ->
              if kind <> Some `Bool then err ctx where "LogicalNot on non-bool";
              expect_result ta
          | Instr.ConvertSToF -> (
              match (kind, i.Instr.ty) with
              | Some `Int, Some rt ->
                  if Module_ir.find_type m rt <> Some Ty.Float then
                    err ctx where "ConvertSToF must produce float"
              | Some `IntVec, Some rt -> (
                  match (Module_ir.find_type m ta, Module_ir.find_type m rt) with
                  | Some (Ty.Vector (_, n)), Some (Ty.Vector (c, n'))
                    when n = n' && Module_ir.find_type m c = Some Ty.Float ->
                      ()
                  | _ -> err ctx where "ConvertSToF vector shape mismatch")
              | _ -> err ctx where "ConvertSToF on non-int")
          | Instr.ConvertFToS -> (
              match (kind, i.Instr.ty) with
              | Some `Float, Some rt ->
                  if Module_ir.find_type m rt <> Some Ty.Int then
                    err ctx where "ConvertFToS must produce int"
              | Some `FloatVec, Some rt -> (
                  match (Module_ir.find_type m ta, Module_ir.find_type m rt) with
                  | Some (Ty.Vector (_, n)), Some (Ty.Vector (c, n'))
                    when n = n' && Module_ir.find_type m c = Some Ty.Int ->
                      ()
                  | _ -> err ctx where "ConvertFToS vector shape mismatch")
              | _ -> err ctx where "ConvertFToS on non-float")))
  | Instr.Select (c, tv, fv) -> (
      (match ty_struct c with
      | Some Ty.Bool -> ()
      | Some _ | None -> err ctx where "select condition must be scalar bool");
      match (tid tv, tid fv) with
      | Some t1, Some t2 ->
          if not (Id.equal t1 t2) then err ctx where "select arms have different types"
          else begin
            (match Module_ir.find_type m t1 with
            | Some (Ty.Pointer _) -> err ctx where "select on pointers is not allowed"
            | Some _ | None -> ());
            expect_result t1
          end
      | _ -> err ctx where "select arm has no type")
  | Instr.CompositeConstruct parts -> (
      match i.Instr.ty with
      | None -> err ctx where "CompositeConstruct must have a result type"
      | Some rt -> (
          match Module_ir.composite_arity m rt with
          | None -> err ctx where "CompositeConstruct of non-composite type"
          | Some n ->
              if List.length parts <> n then
                err ctx where "CompositeConstruct arity %d, expected %d"
                  (List.length parts) n
              else
                List.iteri
                  (fun idx part ->
                    match (tid part, Module_ir.component_ty m rt idx) with
                    | Some pt, Some expected when not (Id.equal pt expected) ->
                        err ctx where "constituent %d type mismatch" idx
                    | None, _ -> err ctx where "constituent %d has no type" idx
                    | _ -> ())
                  parts;
              expect_result rt))
  | Instr.CompositeExtract (c, path) -> (
      if path = [] then err ctx where "CompositeExtract needs at least one index";
      match tid c with
      | None -> err ctx where "CompositeExtract source has no type"
      | Some ct -> (
          match Module_ir.ty_at_path m ct path with
          | Some expected -> expect_result expected
          | None -> err ctx where "CompositeExtract index path invalid"))
  | Instr.CompositeInsert (obj, c, path) -> (
      if path = [] then err ctx where "CompositeInsert needs at least one index";
      match (tid obj, tid c) with
      | Some ot, Some ct -> (
          match Module_ir.ty_at_path m ct path with
          | Some at_path ->
              if not (Id.equal ot at_path) then
                err ctx where "CompositeInsert object type mismatch";
              expect_result ct
          | None -> err ctx where "CompositeInsert index path invalid")
      | _ -> err ctx where "CompositeInsert operand has no type")
  | Instr.Load p -> (
      match ty_struct p with
      | Some (Ty.Pointer (_, pointee)) -> expect_result pointee
      | Some _ | None -> err ctx where "load source is not a pointer")
  | Instr.Store (p, v) -> (
      if i.Instr.result <> None then err ctx where "store has no result";
      match ty_struct p with
      | Some (Ty.Pointer (sc, pointee)) -> (
          (match sc with
          | Ty.Uniform | Ty.Input -> err ctx where "store to read-only storage class"
          | Ty.Function | Ty.Private | Ty.Output -> ());
          match tid v with
          | Some vt when not (Id.equal vt pointee) ->
              err ctx where "store value type mismatch"
          | Some _ -> ()
          | None -> err ctx where "store value has no type")
      | Some _ | None -> err ctx where "store destination is not a pointer")
  | Instr.AccessChain (base, idxs) -> (
      if idxs = [] then err ctx where "access chain needs at least one index";
      match ty_struct base with
      | Some (Ty.Pointer (sc, pointee)) -> (
          let rec walk t = function
            | [] -> Some t
            | idx :: rest -> (
                (match ty_struct idx with
                | Some Ty.Int -> ()
                | Some _ | None -> err ctx where "access chain index must be int");
                match Module_ir.find_type m t with
                | Some (Ty.Struct members) -> (
                    (* struct index must be a compile-time constant *)
                    match Module_ir.find_constant m idx with
                    | Some { Module_ir.cd_value = Constant.Int k; _ } -> (
                        match List.nth_opt members (Int32.to_int k) with
                        | Some mem -> walk mem rest
                        | None ->
                            err ctx where "struct index out of range";
                            None)
                    | Some _ | None ->
                        err ctx where "struct index must be an int constant";
                        None)
                | Some (Ty.Vector (c, _)) -> walk c rest
                | Some (Ty.Array (c, _)) -> walk c rest
                | Some (Ty.Matrix (col, _)) -> walk col rest
                | Some _ | None ->
                    err ctx where "access chain into non-composite";
                    None)
          in
          match walk pointee idxs with
          | Some final -> (
              match Module_ir.find_type_id m (Ty.Pointer (sc, final)) with
              | Some expected -> expect_result expected
              | None ->
                  err ctx where "module lacks pointer type for access chain result")
          | None -> ())
      | Some _ | None -> err ctx where "access chain base is not a pointer")
  | Instr.FunctionCall (callee, args) -> (
      match Module_ir.find_function m callee with
      | None -> err ctx where "call to unknown function %s" (Id.to_string callee)
      | Some g -> (
          match Module_ir.find_type m g.Func.fn_ty with
          | Some (Ty.Func (ret, param_tys)) -> (
              if List.length args <> List.length param_tys then
                err ctx where "call arity mismatch"
              else
                List.iteri
                  (fun idx (arg, expected) ->
                    match tid arg with
                    | Some at when not (Id.equal at expected) ->
                        err ctx where "call argument %d type mismatch" idx
                    | Some _ -> ()
                    | None -> err ctx where "call argument %d has no type" idx)
                  (List.combine args param_tys);
              match Module_ir.find_type m ret with
              | Some Ty.Void ->
                  if i.Instr.result <> None then
                    (* calling a void function with a result id: we model it
                       as a unit value; SPIR-V instead requires a result of
                       void type.  Accept a result typed with the void id. *)
                    expect_result ret
              | Some _ | None -> expect_result ret)
          | Some _ | None -> err ctx where "callee has a non-function type"))
  | Instr.Phi incoming ->
      List.iter
        (fun (v, _) ->
          match (tid v, i.Instr.ty) with
          | Some vt, Some rt when not (Id.equal vt rt) ->
              err ctx where "phi incoming value type mismatch"
          | None, _ -> err ctx where "phi incoming value has no type"
          | _ -> ())
        incoming;
      (match i.Instr.ty with
      | Some rt -> expect_result rt
      | None -> err ctx where "phi must have a type")
  | Instr.CopyObject x -> (
      match tid x with
      | Some t -> expect_result t
      | None -> err ctx where "CopyObject source has no type")
  | Instr.Variable sc -> (
      (match sc with
      | Ty.Function -> ()
      | _ -> err ctx where "function-scope variable must have Function storage");
      match i.Instr.ty with
      | Some t -> (
          match Module_ir.find_type m t with
          | Some (Ty.Pointer (Ty.Function, _)) -> ()
          | Some _ | None -> err ctx where "variable type must be a Function pointer")
      | None -> err ctx where "variable must have a type");
      (* entry-block placement is enforced by the block checks *)
      ignore f
  | Instr.Undef -> (
      match i.Instr.ty with
      | Some t -> (
          match Module_ir.find_type m t with
          | Some (Ty.Void | Ty.Func _) -> err ctx where "undef of void/function type"
          | Some _ -> ()
          | None -> err ctx where "undef of unknown type")
      | None -> err ctx where "undef must have a type")

let check_function ctx (f : Func.t) =
  let m = ctx.m in
  let fname = Printf.sprintf "function %s(%s)" (Id.to_string f.Func.id) f.Func.name in
  (* function type matches parameters *)
  (match Module_ir.find_type m f.Func.fn_ty with
  | Some (Ty.Func (_, param_tys)) ->
      if List.length param_tys <> List.length f.Func.params then
        err ctx fname "parameter count does not match function type"
      else
        List.iteri
          (fun i ((p : Func.param), expected) ->
            if not (Id.equal p.Func.param_ty expected) then
              err ctx fname "parameter %d type mismatch" i)
          (List.combine f.Func.params param_tys)
  | Some _ | None -> err ctx fname "function type is not a function type");
  match f.Func.blocks with
  | [] -> err ctx fname "function has no blocks"
  | entry_b :: _ ->
      (* the shared analyses: control-flow graph, dominator tree and
         definition sites all come from Dataflow.Availability (via
         Analysis), never re-derived here *)
      let an = Analysis.make m f in
      let cfg = Analysis.cfg an in
      let dom = Analysis.dominance an in
      (* entry block must have no predecessors *)
      if Cfg.predecessors cfg entry_b.Block.label <> [] then
        err ctx fname "entry block has predecessors";
      (* all branch targets exist *)
      List.iter
        (fun (b : Block.t) ->
          List.iter
            (fun target ->
              if Func.find_block f target = None then
                err ctx fname "branch to unknown block %s" (Id.to_string target))
            (Block.successors b))
        f.Func.blocks;
      (* block order: a block precedes all blocks it strictly dominates *)
      let positions = Hashtbl.create 16 in
      List.iteri (fun i (b : Block.t) -> Hashtbl.replace positions b.Block.label i) f.Func.blocks;
      List.iter
        (fun (b : Block.t) ->
          List.iter
            (fun (b' : Block.t) ->
              if
                (not (Id.equal b.Block.label b'.Block.label))
                && Dominance.strictly_dominates dom b.Block.label b'.Block.label
                && Hashtbl.find positions b.Block.label > Hashtbl.find positions b'.Block.label
              then
                err ctx fname "block %s appears after a block it dominates (%s)"
                  (Id.to_string b.Block.label) (Id.to_string b'.Block.label))
            f.Func.blocks)
        f.Func.blocks;
      (* id typing environment for this function *)
      let local_types =
        let tbl = Hashtbl.create 64 in
        List.iter (fun (p : Func.param) -> Hashtbl.replace tbl p.Func.param_id p.Func.param_ty) f.Func.params;
        List.iter
          (fun (b : Block.t) ->
            List.iter
              (fun (i : Instr.t) ->
                match (i.Instr.result, i.Instr.ty) with
                | Some r, Some t -> Hashtbl.replace tbl r t
                | _ -> ())
              b.Block.instrs)
          f.Func.blocks;
        tbl
      in
      let ty_of id =
        match Hashtbl.find_opt local_types id with
        | Some t -> Some t
        | None -> (
            match Module_ir.find_constant m id with
            | Some c -> Some c.Module_ir.cd_ty
            | None -> (
                match Module_ir.find_global m id with
                | Some g -> Some g.Module_ir.gd_ty
                | None -> None))
      in
      (* availability (definition sites + the dominance rule, with its
         relaxation in unreachable code) is the shared analysis *)
      let available ~in_block ~at_index id =
        Analysis.available_at an ~block:in_block ~index:at_index id
      in
      (* per-block checks *)
      List.iteri
        (fun block_pos (b : Block.t) ->
          let where =
            Printf.sprintf "%s, block %s" fname (Id.to_string b.Block.label)
          in
          (* phis only at the start *)
          let seen_non_phi = ref false in
          List.iter
            (fun (i : Instr.t) ->
              if Instr.is_phi i then begin
                if !seen_non_phi then err ctx where "phi after non-phi instruction"
              end
              else seen_non_phi := true)
            b.Block.instrs;
          (* variables only in the entry block *)
          if block_pos > 0 then
            List.iter
              (fun (i : Instr.t) ->
                match i.Instr.op with
                | Instr.Variable _ -> err ctx where "variable outside the entry block"
                | _ -> ())
              b.Block.instrs;
          (* entry block may not have phis *)
          if block_pos = 0 then
            List.iter
              (fun (i : Instr.t) ->
                if Instr.is_phi i then err ctx where "phi in entry block")
              b.Block.instrs;
          (* phi incoming blocks = predecessors, when reachable *)
          let preds = Cfg.predecessors cfg b.Block.label in
          List.iter
            (fun (i : Instr.t) ->
              match i.Instr.op with
              | Instr.Phi incoming ->
                  if Cfg.is_reachable cfg b.Block.label then begin
                    let incoming_blocks = List.map snd incoming in
                    let sorted_inc = List.sort_uniq Id.compare incoming_blocks in
                    let sorted_preds = List.sort_uniq Id.compare preds in
                    if List.length incoming_blocks <> List.length sorted_inc then
                      err ctx where "phi has duplicate predecessor entries";
                    if sorted_inc <> sorted_preds then
                      err ctx where "phi predecessors do not match block predecessors";
                    (* each incoming value must be available at the end of its
                       predecessor *)
                    List.iter
                      (fun (v, pred) ->
                        if not (available ~in_block:pred ~at_index:max_int v) then
                          err ctx where "phi value %s unavailable at predecessor %s"
                            (Id.to_string v) (Id.to_string pred))
                      incoming
                  end
              | _ -> ())
            b.Block.instrs;
          (* operand availability and instruction typing *)
          List.iteri
            (fun idx (i : Instr.t) ->
              (match i.Instr.op with
              | Instr.Phi _ -> () (* availability handled above *)
              | Instr.FunctionCall (_, args) ->
                  List.iter
                    (fun u ->
                      if not (available ~in_block:b.Block.label ~at_index:idx u) then
                        err ctx where "use of unavailable id %s" (Id.to_string u))
                    args
              | _ ->
                  List.iter
                    (fun u ->
                      if not (available ~in_block:b.Block.label ~at_index:idx u) then
                        err ctx where "use of unavailable id %s" (Id.to_string u))
                    (Instr.used_ids i));
              check_instr ctx f where ~ty_of i)
            b.Block.instrs;
          (* terminator *)
          (match b.Block.terminator with
          | Block.BranchConditional (c, _, _) -> (
              if not (available ~in_block:b.Block.label ~at_index:max_int c) then
                err ctx where "branch condition %s unavailable" (Id.to_string c);
              match Option.bind (ty_of c) (Module_ir.find_type m) with
              | Some Ty.Bool -> ()
              | Some _ | None -> err ctx where "branch condition must be bool")
          | Block.ReturnValue v -> (
              if not (available ~in_block:b.Block.label ~at_index:max_int v) then
                err ctx where "returned id %s unavailable" (Id.to_string v);
              match Module_ir.find_type m f.Func.fn_ty with
              | Some (Ty.Func (ret, _)) -> (
                  match ty_of v with
                  | Some vt when not (Id.equal vt ret) ->
                      err ctx where "return value type mismatch"
                  | Some _ -> ()
                  | None -> err ctx where "return value has no type")
              | Some _ | None -> ())
          | Block.Return -> (
              match Module_ir.find_type m f.Func.fn_ty with
              | Some (Ty.Func (ret, _)) -> (
                  match Module_ir.find_type m ret with
                  | Some Ty.Void -> ()
                  | Some _ | None -> err ctx where "plain return from non-void function")
              | Some _ | None -> ())
          | Block.Branch _ | Block.Kill | Block.Unreachable -> ());
          (* branch targets may not be the entry block *)
          List.iter
            (fun target ->
              if Id.equal target entry_b.Block.label then
                err ctx where "branch targets the entry block")
            (Block.successors b))
        f.Func.blocks

let check m =
  let ctx = { m; errors = Queue.create () } in
  check_ids ctx;
  check_types ctx;
  check_constants ctx;
  check_globals ctx;
  check_entry ctx;
  check_call_graph ctx;
  List.iter (check_function ctx) m.Module_ir.functions;
  (* the queue is appended in check order, so errors come out in source
     order by construction (regression-tested) *)
  match List.of_seq (Queue.to_seq ctx.errors) with
  | [] -> Ok ()
  | errors -> Error errors

let is_valid m = match check m with Ok () -> true | Error _ -> false

let function_is_valid m fn =
  match Module_ir.find_function m fn with
  | None -> false
  | Some f ->
      let ctx = { m; errors = Queue.create () } in
      check_function ctx f;
      Queue.is_empty ctx.errors
