(** Shared helpers for the optimizer passes. *)

open Spirv_ir

exception Compiler_crash of string
(** Raised by injected crash bugs; the signature string is what the harness
    extracts (section 3.4: "a crash signature associated with the bug"). *)

let crash fmt = Printf.ksprintf (fun s -> raise (Compiler_crash s)) fmt

(** Intern a runtime value as a constant of the given type, creating
    constituent constants as needed. *)
let rec intern_value m ty (v : Value.t) =
  match (Module_ir.find_type m ty, v) with
  | Some Ty.Bool, Value.VBool b -> Module_ir.intern_constant m ~ty (Constant.Bool b)
  | Some Ty.Int, Value.VInt i -> Module_ir.intern_constant m ~ty (Constant.Int i)
  | Some Ty.Float, Value.VFloat f -> Module_ir.intern_constant m ~ty (Constant.Float f)
  | Some _, Value.VComposite parts ->
      let m, part_ids =
        Array.to_list parts
        |> List.mapi (fun i p -> (i, p))
        |> List.fold_left
             (fun (m, acc) (i, p) ->
               match Module_ir.component_ty m ty i with
               | Some cty ->
                   let m, id = intern_value m cty p in
                   (m, acc @ [ id ])
               | None -> (m, acc))
             (m, [])
      in
      Module_ir.intern_constant m ~ty (Constant.Composite part_ids)
  | _ -> invalid_arg "intern_value: type/value mismatch"

(* Sharing-preserving traversals.  A pass that changes nothing must hand
   back its input physically ([==]), and rebuild only the functions,
   blocks and instruction lists it edits: the pipeline then tells an
   unchanged step from a changed one by identity, and
   {!Spirv_ir.Digest.of_module} reuses the input's digest.  [map] and
   [filter] apply [f] / [p] head first, like their [List] namesakes, and
   return their argument itself when every element is kept unchanged. *)

let rec map f l =
  match l with
  | [] -> l
  | x :: rest ->
      let y = f x in
      let rest' = map f rest in
      if y == x && rest' == rest then l else y :: rest'

let rec filter p l =
  match l with
  | [] -> l
  | x :: rest ->
      let keep = p x in
      let rest' = filter p rest in
      if not keep then rest' else if rest' == rest then l else x :: rest'

(* [List.concat_map], sharing [l] when [f] maps every element to the
   singleton of itself *)
let rec concat_map f l =
  match l with
  | [] -> l
  | x :: rest -> (
      let ys = f x in
      let rest' = concat_map f rest in
      match ys with
      | [ y ] when y == x && rest' == rest -> l
      | _ -> ys @ rest')

let with_blocks (fn : Func.t) blocks =
  if blocks == fn.Func.blocks then fn else { fn with Func.blocks }

let with_instrs (b : Block.t) instrs =
  if instrs == b.Block.instrs then b else { b with Block.instrs }

let map_functions m f =
  let functions = map f m.Module_ir.functions in
  if functions == m.Module_ir.functions then m else { m with Module_ir.functions }

let map_blocks (fn : Func.t) f = with_blocks fn (map f fn.Func.blocks)

(** Map every block of every function. *)
let map_all_blocks m f = map_functions m (fun fn -> map_blocks fn f)

(** Map every instruction of every block of every function. *)
let map_instrs m f = map_all_blocks m (fun b -> with_instrs b (map f b.Block.instrs))

(** Substitute ids (via an association table) in all operand positions,
    terminators included.  An instruction or terminator none of whose
    operands the table moves is kept as it is. *)
let substitute_everywhere m table =
  if Hashtbl.length table = 0 then m
  else
    let moved = ref false in
    let s id =
      match Hashtbl.find_opt table id with
      | Some id' when not (Id.equal id' id) ->
          moved := true;
          id'
      | _ -> id
    in
    let subst_instr (i : Instr.t) =
      moved := false;
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
        | Instr.FunctionCall (f, args) -> Instr.FunctionCall (f, List.map s args)
        | Instr.Phi inc -> Instr.Phi (List.map (fun (v, b) -> (s v, b)) inc)
        | Instr.CopyObject x -> Instr.CopyObject (s x)
        | (Instr.Variable _ | Instr.Undef | Instr.Nop) as op -> op
      in
      if !moved then { i with Instr.op } else i
    in
    let subst_term t =
      moved := false;
      let t' =
        match t with
        | Block.BranchConditional (c, l, r) -> Block.BranchConditional (s c, l, r)
        | Block.ReturnValue v -> Block.ReturnValue (s v)
        | Block.Branch _ | Block.Return | Block.Kill | Block.Unreachable -> t
      in
      if !moved then t' else t
    in
    map_all_blocks m (fun (b : Block.t) ->
        let instrs = map subst_instr b.Block.instrs in
        let terminator = subst_term b.Block.terminator in
        if instrs == b.Block.instrs && terminator == b.Block.terminator then b
        else { b with Block.instrs; terminator })

(** All ids used as operands anywhere in the module (terminator conditions
    and return values included, branch targets and φ labels excluded). *)
let used_value_ids m =
  let used = ref Id.Set.empty in
  List.iter
    (fun (fn : Func.t) ->
      List.iter
        (fun (b : Block.t) ->
          List.iter
            (fun (i : Instr.t) ->
              List.iter (fun u -> used := Id.Set.add u !used) (Instr.used_ids i))
            b.Block.instrs;
          List.iter
            (fun u -> used := Id.Set.add u !used)
            (Block.terminator_used_ids b.Block.terminator))
        fn.Func.blocks)
    m.Module_ir.functions;
  !used
