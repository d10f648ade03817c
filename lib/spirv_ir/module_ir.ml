(** SPIR-V-like modules: a type table, a constant table, global variables,
    functions, and a designated entry-point function.

    Ids are allocated from a module-wide [id_bound]; all transformations that
    need fresh ids take them as explicit parameters drawn via {!fresh} at
    transformation-construction time, so re-applying a recorded
    transformation during reduction reuses exactly the same ids. *)

type type_decl = { td_id : Id.t; td_ty : Ty.t }
[@@deriving show { with_path = false }, eq]

type const_decl = { cd_id : Id.t; cd_ty : Id.t; cd_value : Constant.t }
[@@deriving show { with_path = false }, eq]

type global_decl = {
  gd_id : Id.t;
  gd_ty : Id.t;  (** a [Ty.Pointer] type id *)
  gd_name : string;  (** used to bind [Uniform]/[Input]/[Output] variables *)
  gd_init : Id.t option;  (** optional constant initializer *)
}
[@@deriving show { with_path = false }, eq]

type t = {
  id_bound : int;
  types : type_decl list;
  constants : const_decl list;
  globals : global_decl list;
  functions : Func.t list;
  entry : Id.t;
}
[@@deriving show { with_path = false }, eq]

(* ------------------------------------------------------------------ *)
(* Fresh ids                                                           *)

let fresh m = ({ m with id_bound = m.id_bound + 1 }, m.id_bound)

let fresh_many m n =
  let rec go m acc n = if n = 0 then (m, List.rev acc) else
    let m, id = fresh m in
    go m (id :: acc) (n - 1)
  in
  go m [] n

(* ------------------------------------------------------------------ *)
(* Lookups                                                             *)

let find_type m id =
  List.find_map (fun d -> if Id.equal d.td_id id then Some d.td_ty else None) m.types

let type_exn m id =
  match find_type m id with
  | Some ty -> ty
  | None -> invalid_arg ("Module_ir.type_exn: unknown type id " ^ Id.to_string id)

let find_type_id m ty =
  List.find_map (fun d -> if Ty.equal d.td_ty ty then Some d.td_id else None) m.types

let find_constant m id =
  List.find_opt (fun d -> Id.equal d.cd_id id) m.constants

let find_constant_id m ~ty ~value =
  List.find_map
    (fun d ->
      if Id.equal d.cd_ty ty && Constant.equal d.cd_value value then Some d.cd_id
      else None)
    m.constants

let find_global m id = List.find_opt (fun d -> Id.equal d.gd_id id) m.globals

let find_function m id =
  List.find_opt (fun (f : Func.t) -> Id.equal f.Func.id id) m.functions

let function_exn m id =
  match find_function m id with
  | Some f -> f
  | None ->
      invalid_arg ("Module_ir.function_exn: unknown function " ^ Id.to_string id)

let entry_function m = function_exn m m.entry

let replace_function m (f : Func.t) =
  {
    m with
    functions =
      List.map (fun (g : Func.t) -> if Id.equal g.Func.id f.Func.id then f else g) m.functions;
  }

(* ------------------------------------------------------------------ *)
(* Interning                                                           *)

(** Get-or-create a type declaration.  Component type ids must already be
    declared. *)
let intern_type m ty =
  match find_type_id m ty with
  | Some id -> (m, id)
  | None ->
      let m, id = fresh m in
      ({ m with types = m.types @ [ { td_id = id; td_ty = ty } ] }, id)

(** Get-or-create a constant declaration of type [ty]. *)
let intern_constant m ~ty value =
  match find_constant_id m ~ty ~value with
  | Some id -> (m, id)
  | None ->
      let m, id = fresh m in
      ( { m with constants = m.constants @ [ { cd_id = id; cd_ty = ty; cd_value = value } ] },
        id )

let add_global m ~ty ~name ~init =
  let m, id = fresh m in
  ( { m with globals = m.globals @ [ { gd_id = id; gd_ty = ty; gd_name = name; gd_init = init } ] },
    id )

(* Common scalar shortcuts. *)
let bool_ty m = intern_type m Ty.Bool
let int_ty m = intern_type m Ty.Int
let float_ty m = intern_type m Ty.Float
let void_ty m = intern_type m Ty.Void

let const_bool m b =
  let m, ty = bool_ty m in
  intern_constant m ~ty (Constant.Bool b)

let const_int m i =
  let m, ty = int_ty m in
  intern_constant m ~ty (Constant.Int (Int32.of_int i))

let const_float m f =
  let m, ty = float_ty m in
  intern_constant m ~ty (Constant.Float f)

(* ------------------------------------------------------------------ *)
(* Typing of ids                                                       *)

(** The declared/derived result type id of any id in the module, if it has
    one: types themselves have no type; constants, globals, functions,
    parameters and instruction results do. *)
let type_of_id m id =
  match find_constant m id with
  | Some c -> Some c.cd_ty
  | None -> (
      match find_global m id with
      | Some g -> Some g.gd_ty
      | None ->
          List.find_map
            (fun (f : Func.t) ->
              if Id.equal f.Func.id id then Some f.Func.fn_ty
              else
                match
                  List.find_map
                    (fun (p : Func.param) ->
                      if Id.equal p.Func.param_id id then Some p.Func.param_ty else None)
                    f.Func.params
                with
                | Some ty -> Some ty
                | None ->
                    List.find_map
                      (fun (b : Block.t) ->
                        List.find_map
                          (fun (i : Instr.t) ->
                            match (i.result, i.ty) with
                            | Some r, Some ty when Id.equal r id -> Some ty
                            | _ -> None)
                          b.Block.instrs)
                      f.Func.blocks)
            m.functions)

(* ------------------------------------------------------------------ *)
(* Constant evaluation                                                 *)

let rec zero_value m ty_id =
  match type_exn m ty_id with
  | Ty.Void -> Value.VComposite [||]
  | Ty.Bool -> Value.VBool false
  | Ty.Int -> Value.VInt 0l
  | Ty.Float -> Value.VFloat 0.0
  | Ty.Vector (c, n) | Ty.Array (c, n) ->
      Value.VComposite (Array.init n (fun _ -> zero_value m c))
  | Ty.Matrix (col, n) ->
      Value.VComposite (Array.init n (fun _ -> zero_value m col))
  | Ty.Struct members ->
      Value.VComposite (Array.of_list (List.map (zero_value m) members))
  | Ty.Pointer (_, pointee) -> zero_value m pointee
  | Ty.Func _ -> Value.VComposite [||]

let rec const_value m id =
  match find_constant m id with
  | None -> invalid_arg ("Module_ir.const_value: not a constant: " ^ Id.to_string id)
  | Some { cd_ty; cd_value; _ } -> (
      match cd_value with
      | Constant.Bool b -> Value.VBool b
      | Constant.Int i -> Value.VInt i
      | Constant.Float f -> Value.VFloat f
      | Constant.Null -> zero_value m cd_ty
      | Constant.Composite parts ->
          Value.VComposite (Array.of_list (List.map (const_value m) parts)))

(* ------------------------------------------------------------------ *)
(* Aggregate structure helpers                                         *)

(** Number of immediate components of a composite type, if composite.
    Total: unknown type ids yield [None] (preconditions probe types that may
    have been removed from a reduced transformation sequence). *)
let composite_arity m ty_id =
  match find_type m ty_id with
  | Some (Ty.Vector (_, n) | Ty.Matrix (_, n) | Ty.Array (_, n)) -> Some n
  | Some (Ty.Struct members) -> Some (List.length members)
  | Some (Ty.Void | Ty.Bool | Ty.Int | Ty.Float | Ty.Pointer _ | Ty.Func _) | None -> None

(** Type id of component [i] of a composite type; total like
    {!composite_arity}. *)
let component_ty m ty_id i =
  match find_type m ty_id with
  | Some (Ty.Vector (c, n)) when i >= 0 && i < n -> Some c
  | Some (Ty.Matrix (col, n)) when i >= 0 && i < n -> Some col
  | Some (Ty.Array (c, n)) when i >= 0 && i < n -> Some c
  | Some (Ty.Struct members) -> List.nth_opt members i
  | Some (Ty.Vector _ | Ty.Matrix _ | Ty.Array _)
  | Some (Ty.Void | Ty.Bool | Ty.Int | Ty.Float | Ty.Pointer _ | Ty.Func _)
  | None ->
      None

(** Type reached by following a literal index path from [ty_id]. *)
let rec ty_at_path m ty_id path =
  match path with
  | [] -> Some ty_id
  | i :: rest -> (
      match component_ty m ty_id i with
      | Some c -> ty_at_path m c rest
      | None -> None)

(** Count of instructions across all functions — the size metric used when
    reporting reduction quality (section 4.2 measures instruction-count
    deltas). Terminators count as instructions, as in SPIR-V. *)
let instruction_count m =
  List.fold_left
    (fun acc (f : Func.t) ->
      List.fold_left
        (fun acc (b : Block.t) -> acc + List.length b.Block.instrs + 1)
        acc f.Func.blocks)
    0 m.functions

(** All ids defined anywhere in the module. *)
let defined_ids m =
  let tbl = ref Id.Set.empty in
  let add id = tbl := Id.Set.add id !tbl in
  List.iter (fun d -> add d.td_id) m.types;
  List.iter (fun d -> add d.cd_id) m.constants;
  List.iter (fun d -> add d.gd_id) m.globals;
  List.iter
    (fun (f : Func.t) ->
      add f.Func.id;
      List.iter (fun (p : Func.param) -> add p.Func.param_id) f.Func.params;
      List.iter
        (fun (b : Block.t) ->
          add b.Block.label;
          List.iter
            (fun (i : Instr.t) -> match i.Instr.result with Some r -> add r | None -> ())
            b.Block.instrs)
        f.Func.blocks)
    m.functions;
  !tbl

(** Equality up to the id bound.  The bound over-approximates the used ids
    (fuzzers burn ids on proposals that fail their preconditions), so
    replaying a recorded transformation sequence reproduces a variant's
    contents but may end with a smaller bound. *)
let equal_ignoring_bound a b = equal { a with id_bound = 0 } { b with id_bound = 0 }

(* Physical equality short-circuits every list and function: a pass that
   leaves a function alone usually hands the same value back, so an
   unchanged module compares in time proportional to what was rebuilt. *)
let rec equal_list eq xs ys =
  xs == ys
  ||
  match (xs, ys) with
  | x :: xs, y :: ys -> eq x y && equal_list eq xs ys
  | [], [] -> true
  | _ :: _, [] | [], _ :: _ -> false

(* Floats compare by bit pattern: [0.0] and [-0.0] disassemble (and so
   digest) differently, and a NaN equals an identical NaN. *)
let equal_value_exact (x : Constant.t) (y : Constant.t) =
  match (x, y) with
  | Float f, Float g -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
  | _ -> Constant.equal x y

let equal_exact a b =
  a == b
  || a.id_bound = b.id_bound
     && Id.equal a.entry b.entry
     && equal_list equal_type_decl a.types b.types
     && equal_list
          (fun c d ->
            Id.equal c.cd_id d.cd_id && Id.equal c.cd_ty d.cd_ty
            && equal_value_exact c.cd_value d.cd_value)
          a.constants b.constants
     && equal_list equal_global_decl a.globals b.globals
     && equal_list (fun f g -> f == g || Func.equal f g) a.functions b.functions

let empty =
  { id_bound = 1; types = []; constants = []; globals = []; functions = []; entry = 0 }
