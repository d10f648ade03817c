(** The transformation catalogue (sections 3.2–3.3).

    Every transformation is a record of explicit parameters — including
    every fresh id it will introduce — so that re-applying a recorded
    transformation during reduction is deterministic and independent of
    which other transformations survived (the "maximizing independence"
    principle of section 3.3; see InlineFunction's explicit id map).
    Positions inside blocks are expressed as insertion points anchored to
    instruction result ids rather than numeric offsets, the fix section 2.3
    prescribes for SplitBlock.

    Each transformation has a [type_id] (used by deduplication), a
    precondition over contexts and an effect that must preserve the
    module's rendered image when the precondition holds — the contract of
    Definition 2.4 ({!Rules.precondition}, {!Rules.apply}), tested
    exhaustively by the property suites. *)

open Spirv_ir

(* ------------------------------------------------------------------ *)
(* Insertion points                                                    *)

(** Where to insert a new non-φ instruction within a block. *)
type point =
  | Before of Id.t  (** before the (non-φ) instruction with this result id *)
  | At_end          (** after the last instruction, before the terminator *)
[@@deriving show { with_path = false }, eq]

(** Resolve a point to an instruction offset, or [None] if invalid. *)
let resolve_point (b : Block.t) = function
  | At_end -> Some (List.length b.Block.instrs)
  | Before anchor ->
      let rec go idx = function
        | [] -> None
        | (i : Instr.t) :: rest -> (
            match i.Instr.result with
            | Some r when Id.equal r anchor ->
                if Instr.is_phi i then None else Some idx
            | _ -> go (idx + 1) rest)
      in
      go 0 b.Block.instrs

(* ------------------------------------------------------------------ *)
(* Use sites                                                           *)

(** How to find the instruction containing a use. *)
type use_anchor =
  | Result_id of Id.t  (** the instruction producing this result *)
  | Nth_instr of int   (** for result-less instructions (stores) *)
  | Terminator
[@@deriving show { with_path = false }, eq]

type use_site = {
  us_fn : Id.t;
  us_block : Id.t;
  us_anchor : use_anchor;
  us_operand : int;  (** position within {!Instr.used_ids} *)
}
[@@deriving show { with_path = false }, eq]

(* ------------------------------------------------------------------ *)
(* The catalogue                                                       *)

type arith_kind =
  | Add_zero_int   (** x + 0 *)
  | Mul_one_int    (** x * 1 *)
  | Mul_one_float  (** x * 1.0 *)
  | Sub_zero_float (** x - 0.0 *)
  | Or_false       (** x || false *)
  | And_true       (** x && true *)
[@@deriving show { with_path = false }, eq]

type add_function_payload = {
  af_function : Func.t;
  af_types : (Id.t * Ty.t) list;           (** fresh type decls, topological *)
  af_constants : (Id.t * Id.t * Constant.t) list;  (** (id, type id, value) *)
  af_live_safe : bool;
}

type t =
  (* supporting transformations (ignored by deduplication, section 3.5) *)
  | Add_type of { fresh : Id.t; ty : Ty.t }
  | Add_constant of { fresh : Id.t; ty : Id.t; value : Constant.t }
  | Add_global_variable of { fresh : Id.t; fresh_ptr_ty : Id.t; pointee : Id.t }
  | Add_uniform of {
      fresh : Id.t;
      fresh_ptr_ty : Id.t;
      pointee : Id.t;
      name : string;
      value : Value.t;
    }
      (** The section 7 future-work extension: a transformation that
          modifies the module {e and its input} in sync — a new uniform is
          declared and the input is extended with its value.  Obfuscation
          transformations (ReplaceConstantWithUniform) then gain targets. *)
  | Add_local_variable of { fresh : Id.t; fresh_ptr_ty : Id.t; fn : Id.t; pointee : Id.t }
  | Add_nop of { fn : Id.t; block : Id.t; point : point }
  (* control flow *)
  | Split_block of { fn : Id.t; block : Id.t; point : point; fresh : Id.t }
  | Add_dead_block of { fn : Id.t; existing : Id.t; fresh : Id.t; cond : Id.t }
  | Replace_branch_with_kill of { fn : Id.t; block : Id.t }
  | Move_block_down of { fn : Id.t; block : Id.t }
  | Wrap_region_in_selection of {
      fn : Id.t;
      block : Id.t;
      fresh_header : Id.t;
      fresh_merge : Id.t;
      cond : Id.t;
      branch_on_true : bool;
    }
  | Invert_branch_condition of { fn : Id.t; block : Id.t; fresh : Id.t }
  | Propagate_instruction_up of { fn : Id.t; block : Id.t; fresh_per_pred : (Id.t * Id.t) list }
  | Permute_phi_entries of { fn : Id.t; block : Id.t; phi : Id.t; rotation : int }
  | Swap_commutative_operands of { fn : Id.t; block : Id.t; instr : Id.t }
      (** swap the operands of a commutative operation ([x+y] to [y+x]); for
          comparisons the operator is mirrored as well *)
  (* data *)
  | Add_load of { fn : Id.t; block : Id.t; point : point; fresh : Id.t; pointer : Id.t }
  | Add_store of { fn : Id.t; block : Id.t; point : point; pointer : Id.t; value : Id.t }
  | Add_copy_object of { fn : Id.t; block : Id.t; point : point; fresh : Id.t; operand : Id.t }
  | Add_arithmetic_synonym of {
      fn : Id.t;
      block : Id.t;
      point : point;
      fresh : Id.t;
      operand : Id.t;
      kind : arith_kind;
      identity : Id.t;  (** the id of the 0/1/false/true constant used *)
    }
  | Add_select_synonym of {
      fn : Id.t;
      block : Id.t;
      point : point;
      fresh : Id.t;
      cond : Id.t;  (** any available boolean id *)
      operand : Id.t;
    }  (** [fresh = OpSelect cond operand operand]: a synonym of [operand] *)
  | Replace_id_with_synonym of { site : use_site; synonym : Id.t }
  | Replace_bool_constant_with_binary of { site : use_site; fresh : Id.t; operand : Id.t }
      (** replace a use of a boolean constant with a freshly inserted
          tautological/contradictory integer comparison ([a == a] for true,
          [a != a] for false) — obfuscation that needs no uniform, the
          spirv-fuzz TransformationReplaceBooleanConstantWithConstantBinary *)
  | Replace_irrelevant_id of { site : use_site; replacement : Id.t }
  | Replace_constant_with_uniform of { site : use_site; fresh_load : Id.t; uniform : Id.t }
  | Composite_construct of {
      fn : Id.t;
      block : Id.t;
      point : point;
      fresh : Id.t;
      ty : Id.t;
      parts : Id.t list;
    }
  | Composite_extract of {
      fn : Id.t;
      block : Id.t;
      point : point;
      fresh : Id.t;
      composite : Id.t;
      path : int list;
    }
  (* functions *)
  | Set_function_control of { fn : Id.t; control : Func.control }
  | Function_call of {
      fn : Id.t;
      block : Id.t;
      point : point;
      fresh : Id.t;
      callee : Id.t;
      args : Id.t list;
    }
  | Add_parameter of { fn : Id.t; fresh_param : Id.t; fresh_fn_ty : Id.t; default : Id.t }
  | Add_function of add_function_payload
  | Inline_function of { fn : Id.t; block : Id.t; call_id : Id.t; id_map : (Id.t * Id.t) list }

(** A transformation's type: its constructor without the parameters
    (Definition 2.4), named exactly as its [type_id].  Declared in the order
    the [tbct transformations] listing shows the registry. *)
type kind =
  | AddType
  | AddConstant
  | AddNop
  | SplitBlock
  | AddDeadBlock
  | AddLoad
  | AddStore
  | AddCopyObject
  | AddArithmeticSynonym
  | AddSelectSynonym
  | ReplaceIdWithSynonym
  | ReplaceConstantWithUniform
  | CompositeConstruct
  | CompositeExtract
  | AddFunction
  | FunctionCall
  | InlineFunction
  | AddParameter
  | ReplaceIrrelevantId
  | SwapCommutativeOperands
  | ReplaceBooleanConstantWithBinary
  | MoveBlockDown
  | WrapRegionInSelection
  | InvertBranchCondition
  | PropagateInstructionUp
  | ReplaceBranchWithKill
  | SetFunctionControl
  | PermutePhiEntries
  | AddGlobalVariable
  | AddLocalVariable
  | AddUniform
[@@deriving show { with_path = false }, enum]

(** Every kind, in declaration order. *)
let kinds =
  List.init (max_kind - min_kind + 1) (fun i -> Option.get (kind_of_enum (min_kind + i)))

let kind = function
  | Add_type _ -> AddType
  | Add_constant _ -> AddConstant
  | Add_global_variable _ -> AddGlobalVariable
  | Add_uniform _ -> AddUniform
  | Add_local_variable _ -> AddLocalVariable
  | Add_nop _ -> AddNop
  | Split_block _ -> SplitBlock
  | Add_dead_block _ -> AddDeadBlock
  | Replace_branch_with_kill _ -> ReplaceBranchWithKill
  | Move_block_down _ -> MoveBlockDown
  | Wrap_region_in_selection _ -> WrapRegionInSelection
  | Invert_branch_condition _ -> InvertBranchCondition
  | Propagate_instruction_up _ -> PropagateInstructionUp
  | Permute_phi_entries _ -> PermutePhiEntries
  | Swap_commutative_operands _ -> SwapCommutativeOperands
  | Add_load _ -> AddLoad
  | Add_store _ -> AddStore
  | Add_copy_object _ -> AddCopyObject
  | Add_arithmetic_synonym _ -> AddArithmeticSynonym
  | Add_select_synonym _ -> AddSelectSynonym
  | Replace_id_with_synonym _ -> ReplaceIdWithSynonym
  | Replace_bool_constant_with_binary _ -> ReplaceBooleanConstantWithBinary
  | Replace_irrelevant_id _ -> ReplaceIrrelevantId
  | Replace_constant_with_uniform _ -> ReplaceConstantWithUniform
  | Composite_construct _ -> CompositeConstruct
  | Composite_extract _ -> CompositeExtract
  | Set_function_control _ -> SetFunctionControl
  | Function_call _ -> FunctionCall
  | Add_parameter _ -> AddParameter
  | Add_function _ -> AddFunction
  | Inline_function _ -> InlineFunction

(* one string per kind, built once: [type_id] runs on every emit *)
let kind_ids = Array.of_list (List.map show_kind kinds)

(** The stable name of a kind, used by deduplication (section 3.5). *)
let kind_id k = kind_ids.(kind_to_enum k - min_kind)

let type_id t = kind_id (kind t)

(** All the fresh ids a transformation introduces (for tests and audits). *)
let fresh_ids = function
  | Add_type { fresh; _ } | Add_constant { fresh; _ } -> [ fresh ]
  | Add_global_variable { fresh; fresh_ptr_ty; _ }
  | Add_uniform { fresh; fresh_ptr_ty; _ }
  | Add_local_variable { fresh; fresh_ptr_ty; _ } ->
      [ fresh; fresh_ptr_ty ]
  | Add_nop _ -> []
  | Split_block { fresh; _ } -> [ fresh ]
  | Add_dead_block { fresh; _ } -> [ fresh ]
  | Replace_branch_with_kill _ | Move_block_down _ -> []
  | Wrap_region_in_selection { fresh_header; fresh_merge; _ } -> [ fresh_header; fresh_merge ]
  | Invert_branch_condition { fresh; _ } -> [ fresh ]
  | Propagate_instruction_up { fresh_per_pred; _ } -> List.map snd fresh_per_pred
  | Permute_phi_entries _ | Swap_commutative_operands _ -> []
  | Add_load { fresh; _ } -> [ fresh ]
  | Add_store _ -> []
  | Add_copy_object { fresh; _ } -> [ fresh ]
  | Add_arithmetic_synonym { fresh; _ } -> [ fresh ]
  | Add_select_synonym { fresh; _ } -> [ fresh ]
  | Replace_id_with_synonym _ | Replace_irrelevant_id _ -> []
  | Replace_bool_constant_with_binary { fresh; _ } -> [ fresh ]
  | Replace_constant_with_uniform { fresh_load; _ } -> [ fresh_load ]
  | Composite_construct { fresh; _ } -> [ fresh ]
  | Composite_extract { fresh; _ } -> [ fresh ]
  | Set_function_control _ -> []
  | Function_call { fresh; _ } -> [ fresh ]
  | Add_parameter { fresh_param; fresh_fn_ty; _ } -> [ fresh_param; fresh_fn_ty ]
  | Add_function p ->
      List.map fst p.af_types
      @ List.map (fun (id, _, _) -> id) p.af_constants
      @ p.af_function.Func.id
        :: List.map (fun (pa : Func.param) -> pa.Func.param_id) p.af_function.Func.params
      @ List.concat_map
          (fun (b : Block.t) ->
            b.Block.label
            :: List.filter_map (fun (i : Instr.t) -> i.Instr.result) b.Block.instrs)
          p.af_function.Func.blocks
  | Inline_function { id_map; _ } -> List.map snd id_map
