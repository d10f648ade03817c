(** The transformation registry: the metadata of every transformation
    type, one record per {!Transformation.kind}.

    An {!entry} holds the stable [type_id] (deduplication, section 3.5),
    the family the type belongs to, the sweep pass that proposes it
    (section 3.2) and whether it takes part in Figure 6 dedup signatures.
    The precondition and effect are not here: {!Rules.precondition} and
    {!Rules.apply} dispatch on the constructor.  The pass is the type's
    only proposer; test_registry checks the contract on what the passes
    propose, by running the fuzzer with the {!Contract} checker on.

    {!entry} is one match over {!Transformation.kind} with no wildcard, and
    {!all} maps it over {!Transformation.kinds}, so the table is complete
    by construction.  {!Fuzzer.run} samples passes by {!pass_weight},
    {!Dedup} reads the flags, and the [tbct transformations] CLI renders
    the table.

    Determinism: with no weight overrides every pass weighs 1 and the
    weighted sampler degenerates to a uniform draw over {!Pass.all} (one
    RNG call, same index arithmetic as [Rng.choose]), so default-weight
    campaigns reproduce the historical streams bit-for-bit. *)

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

type entry = {
  type_id : string;        (** stable name, equal to {!Transformation.type_id} *)
  family : family;
  pass : Pass.t option;    (** the sweep pass proposing this type, if any *)
  dedup_relevant : bool;   (** participates in Figure 6 signature sets *)
}

(* ------------------------------------------------------------------ *)
(* The table                                                           *)

let entry (k : Transformation.kind) =
  let e family pass ~dedup =
    { type_id = Transformation.kind_id k; family; pass; dedup_relevant = dedup }
  in
  match k with
  | AddType -> e Supporting None ~dedup:false
  | AddConstant -> e Supporting None ~dedup:false
  | AddNop -> e Supporting None ~dedup:false
  | SplitBlock -> e Control_flow (Some Pass.pass_split_blocks) ~dedup:false
  | AddDeadBlock -> e Control_flow (Some Pass.pass_add_dead_blocks) ~dedup:true
  | AddLoad -> e Data (Some Pass.pass_add_loads) ~dedup:true
  | AddStore -> e Data (Some Pass.pass_add_stores) ~dedup:true
  | AddCopyObject -> e Data (Some Pass.pass_add_copy_objects) ~dedup:true
  | AddArithmeticSynonym -> e Data (Some Pass.pass_add_arithmetic_synonyms) ~dedup:true
  | AddSelectSynonym -> e Data (Some Pass.pass_add_select_synonyms) ~dedup:true
  | ReplaceIdWithSynonym -> e Data (Some Pass.pass_apply_synonyms) ~dedup:false
  | ReplaceConstantWithUniform ->
      e Obfuscation (Some Pass.pass_obfuscate_constants) ~dedup:true
  | CompositeConstruct -> e Data (Some Pass.pass_add_composites) ~dedup:true
  | CompositeExtract -> e Data (Some Pass.pass_add_composites) ~dedup:true
  | AddFunction -> e Function_ops (Some Pass.pass_add_functions) ~dedup:false
  | FunctionCall -> e Function_ops (Some Pass.pass_function_calls) ~dedup:true
  | InlineFunction -> e Function_ops (Some Pass.pass_inline_functions) ~dedup:true
  | AddParameter -> e Function_ops (Some Pass.pass_add_parameters) ~dedup:true
  | ReplaceIrrelevantId ->
      e Obfuscation (Some Pass.pass_replace_irrelevant_ids) ~dedup:true
  | SwapCommutativeOperands ->
      e Data (Some Pass.pass_swap_commutative_operands) ~dedup:true
  | ReplaceBooleanConstantWithBinary ->
      e Obfuscation (Some Pass.pass_obfuscate_bool_constants) ~dedup:true
  | MoveBlockDown -> e Control_flow (Some Pass.pass_move_blocks_down) ~dedup:true
  | WrapRegionInSelection -> e Control_flow (Some Pass.pass_wrap_regions) ~dedup:true
  | InvertBranchCondition -> e Control_flow (Some Pass.pass_invert_conditions) ~dedup:true
  | PropagateInstructionUp ->
      e Control_flow (Some Pass.pass_propagate_instructions_up) ~dedup:true
  | ReplaceBranchWithKill ->
      e Control_flow (Some Pass.pass_replace_branches_with_kill) ~dedup:true
  | SetFunctionControl -> e Function_ops (Some Pass.pass_set_function_controls) ~dedup:true
  | PermutePhiEntries -> e Control_flow (Some Pass.pass_permute_phis) ~dedup:true
  | AddGlobalVariable -> e Supporting (Some Pass.pass_add_variables) ~dedup:false
  | AddLocalVariable -> e Supporting (Some Pass.pass_add_variables) ~dedup:false
  | AddUniform -> e Supporting (Some Pass.pass_add_uniforms) ~dedup:false

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
