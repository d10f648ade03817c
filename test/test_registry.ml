(* Registry properties: the table in Spirv_fuzz.Registry holds one
   distinct entry per transformation kind, the sweep list keeps its
   historical order, and the dedup ignore set matches the one the
   consumers used to hard-code.  The paper's contract is checked on the
   fuzzer's own proposals: campaigns run with the Contract checker on
   until the passes have applied every type, so each applied
   transformation met its precondition and kept the module valid, lint
   clean and rendering the same image.  Also pins the zero-drift
   guarantee: uniform weights reproduce the historical RNG stream bit for
   bit, and non-uniform weights really shift sampling. *)

module Registry = Spirv_fuzz.Registry

module Transformation = Spirv_fuzz.Transformation

let kinds = Transformation.kinds
let entry_ids = List.map (fun (e : Registry.entry) -> e.Registry.type_id) Registry.all
let pass_names = List.map (fun (p : Spirv_fuzz.Pass.t) -> p.Spirv_fuzz.Pass.name) Spirv_fuzz.Pass.all

(* ------------------------------------------------------------------ *)
(* completeness: one distinct entry per kind                           *)

let test_completeness () =
  Alcotest.(check int) "31 transformation kinds" 31 (List.length kinds);
  Alcotest.(check int)
    "one entry per transformation kind" (List.length kinds)
    (List.length entry_ids);
  List.iter2
    (fun k (e : Registry.entry) ->
      Alcotest.(check string)
        ("entry of " ^ Transformation.kind_id k)
        (Transformation.kind_id k) e.Registry.type_id;
      Alcotest.(check string)
        ("Registry.entry agrees with Registry.all for " ^ e.Registry.type_id)
        e.Registry.type_id (Registry.entry k).Registry.type_id)
    kinds Registry.all;
  let sorted = List.sort_uniq String.compare entry_ids in
  Alcotest.(check int) "no duplicate entries" (List.length entry_ids)
    (List.length sorted)

(* ------------------------------------------------------------------ *)
(* derived consumers: pass list and dedup ignore set                   *)

(* the historical sweep order: the scheduler draws an index into Pass.all,
   so any reordering changes every campaign's RNG stream *)
let historical_sweep =
  [
    "split_blocks"; "add_dead_blocks"; "add_loads"; "add_stores";
    "add_copy_objects"; "add_arithmetic_synonyms"; "add_select_synonyms";
    "apply_synonyms"; "obfuscate_constants"; "add_composites";
    "add_functions"; "function_calls"; "inline_functions"; "add_parameters";
    "replace_irrelevant_ids"; "swap_commutative_operands";
    "obfuscate_bool_constants"; "move_blocks_down"; "wrap_regions";
    "invert_conditions"; "propagate_instructions_up";
    "replace_branches_with_kill"; "set_function_controls"; "permute_phis";
    "add_variables"; "add_uniforms";
  ]

let test_pass_names () =
  Alcotest.(check (list string)) "Pass.all keeps the historical sweep order"
    historical_sweep pass_names;
  (* every pass proposes at least one entry, and every entry's pass is
     swept *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " proposes an entry") true
        (List.exists
           (fun (e : Registry.entry) ->
             match e.Registry.pass with
             | Some p -> String.equal p.Spirv_fuzz.Pass.name name
             | None -> false)
           Registry.all))
    pass_names;
  List.iter
    (fun (e : Registry.entry) ->
      match e.Registry.pass with
      | Some p ->
          Alcotest.(check bool) (e.Registry.type_id ^ "'s pass is swept") true
            (List.memq p Spirv_fuzz.Pass.all)
      | None -> ())
    Registry.all

let test_dedup_ignored () =
  (* the section 3.5 ignore list the consumers used to hard-code *)
  let expected =
    [
      "AddType"; "AddConstant"; "AddNop"; "SplitBlock"; "ReplaceIdWithSynonym";
      "AddFunction"; "AddGlobalVariable"; "AddLocalVariable"; "AddUniform";
    ]
  in
  Alcotest.(check (list string)) "dedup ignore set from the dedup_relevant flags"
    (List.sort String.compare expected)
    (Spirv_fuzz.Dedup.String_set.elements Registry.dedup_ignored);
  List.iter
    (fun (e : Registry.entry) ->
      Alcotest.(check bool)
        (e.Registry.type_id ^ " flag matches the ignore set")
        (not e.Registry.dedup_relevant)
        (Spirv_fuzz.Dedup.String_set.mem e.Registry.type_id Registry.dedup_ignored))
    Registry.all

(* ------------------------------------------------------------------ *)
(* weights                                                             *)

let test_parse_weights () =
  (match Registry.parse_weights "control_flow=5, data=2" with
  | Ok w ->
      Alcotest.(check int) "two overrides parsed" 2 (List.length w);
      Alcotest.(check bool) "control_flow=5" true
        (List.mem (Registry.Control_flow, 5) w)
  | Error e -> Alcotest.failf "parse_weights rejected valid input: %s" e);
  (match Registry.parse_weights "obfuscation=0" with
  | Ok [ (Registry.Obfuscation, 0) ] -> ()
  | Ok _ -> Alcotest.fail "unexpected parse"
  | Error e -> Alcotest.failf "zero weight must parse: %s" e);
  Alcotest.(check bool) "unknown family rejected" true
    (Result.is_error (Registry.parse_weights "nonsense=3"));
  Alcotest.(check bool) "negative weight rejected" true
    (Result.is_error (Registry.parse_weights "data=-1"));
  Alcotest.(check bool) "malformed pair rejected" true
    (Result.is_error (Registry.parse_weights "data"))

let all_zero = "supporting=0,control_flow=0,data=0,function=0,obfuscation=0"

let test_all_zero_weights () =
  Alcotest.(check bool) "all-zero weights rejected" true
    (Result.is_error (Registry.parse_weights all_zero));
  Alcotest.(check bool) "one positive family suffices" true
    (Result.is_ok (Registry.parse_weights "supporting=0,control_flow=0,data=0,function=0"));
  let _, m = List.hd (Lazy.force Corpus.lowered_references) in
  let ctx = Spirv_fuzz.Context.make m Corpus.default_input in
  let config =
    {
      Spirv_fuzz.Fuzzer.default_config with
      Spirv_fuzz.Fuzzer.weights = List.map (fun f -> (f, 0)) Registry.families;
    }
  in
  match Spirv_fuzz.Fuzzer.run ~config ~seed:1 ctx with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Fuzzer.run drew a pass with every weight at 0"

let test_pass_weight () =
  List.iter
    (fun name ->
      Alcotest.(check int) ("uniform weight of " ^ name) 1
        (Registry.pass_weight name))
    pass_names;
  Alcotest.(check int) "unknown pass weighs 0" 0
    (Registry.pass_weight "no_such_pass");
  let w = [ (Registry.Control_flow, 7) ] in
  Alcotest.(check int) "family multiplier applies" 7
    (Registry.pass_weight ~weights:w "split_blocks");
  Alcotest.(check int) "other families keep weight 1" 1
    (Registry.pass_weight ~weights:w "add_loads")

(* ------------------------------------------------------------------ *)
(* contract: the passes' own proposals, checked as they apply          *)

(* a corpus seed as `tbct transformations --seeds` fuzzes it: reference
   [seed mod n], corpus donors *)
let corpus_run config seed =
  let refs = Lazy.force Corpus.lowered_references in
  let donors = List.map snd (Lazy.force Corpus.lowered_donors) in
  let _, m = List.nth refs (seed mod List.length refs) in
  let ctx = Spirv_fuzz.Context.make m Corpus.default_input in
  Spirv_fuzz.Fuzzer.run ~config:{ config with Spirv_fuzz.Fuzzer.donors } ~seed ctx

(* the types no campaign applies *)
let never_applied =
  [
    (* no pass proposes it; test_transformations applies hand-built cases *)
    "AddNop";
    (* inline_functions proposes only callees whose block declares an
       OpVariable or an OpPhi, and the precondition rejects both *)
    "InlineFunction";
  ]

let max_seeds = 400

(* Seeds from 0 upward with the Contract checker on, until every type
   outside [never_applied] has been applied.  The checker raises on the
   first breach, so every applied transformation passed its precondition,
   validate, lint and image checks. *)
let test_every_type_applied_under_checker () =
  let config =
    { Spirv_fuzz.Fuzzer.default_config with Spirv_fuzz.Fuzzer.check_contracts = true }
  in
  let applied = Hashtbl.create 32 in
  let missing () =
    List.filter
      (fun id -> not (List.mem id never_applied || Hashtbl.mem applied id))
      entry_ids
  in
  let rec go seed =
    match missing () with
    | [] -> ()
    | left when seed >= max_seeds ->
        Alcotest.failf "no pass applied %s in seeds 0-%d"
          (String.concat ", " left) (max_seeds - 1)
    | _ ->
        (match corpus_run config seed with
        | r ->
            List.iter
              (fun (ty, _, n) -> if n > 0 then Hashtbl.replace applied ty ())
              r.Spirv_fuzz.Fuzzer.counters
        | exception Spirv_fuzz.Contract.Violation v ->
            Alcotest.failf "seed %d: %s" seed
              (Spirv_fuzz.Contract.violation_to_string v));
        go (seed + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* scheduling: zero drift at uniform weights, real drift otherwise     *)

let run_with weights seed =
  corpus_run { Spirv_fuzz.Fuzzer.default_config with Spirv_fuzz.Fuzzer.weights } seed

let uniform =
  List.map (fun f -> (f, 1)) Registry.families

let prop_uniform_stream_equality =
  QCheck.Test.make
    ~name:"explicit uniform weights reproduce the default stream bit for bit"
    ~count:8
    QCheck.(int_bound 1_000)
    (fun seed ->
      let a = run_with [] seed in
      let b = run_with uniform seed in
      a.Spirv_fuzz.Fuzzer.transformations = b.Spirv_fuzz.Fuzzer.transformations
      && a.Spirv_fuzz.Fuzzer.passes_run = b.Spirv_fuzz.Fuzzer.passes_run
      && a.Spirv_fuzz.Fuzzer.counters = b.Spirv_fuzz.Fuzzer.counters)

let test_nonuniform_changes_sampling () =
  let differs seed =
    let a = run_with [] seed in
    let b = run_with [ (Registry.Control_flow, 10) ] seed in
    a.Spirv_fuzz.Fuzzer.passes_run <> b.Spirv_fuzz.Fuzzer.passes_run
  in
  Alcotest.(check bool) "control_flow=10 shifts the pass stream" true
    (List.exists differs [ 0; 1; 2; 3; 4 ])

let test_zero_weight_family () =
  (* a family weighted 0 contributes nothing to the random draw: without
     recommendations its passes can never run *)
  let refs = Lazy.force Corpus.lowered_references in
  let _, m = List.nth refs 0 in
  let ctx = Spirv_fuzz.Context.make m Corpus.default_input in
  let config =
    {
      Spirv_fuzz.Fuzzer.default_config with
      Spirv_fuzz.Fuzzer.use_recommendations = false;
      Spirv_fuzz.Fuzzer.weights =
        List.map
          (fun f -> (f, if f = Registry.Control_flow then 0 else 1))
          Registry.families;
    }
  in
  let control_flow_passes =
    List.filter_map
      (fun (e : Registry.entry) ->
        if e.Registry.family = Registry.Control_flow then
          Option.map (fun (p : Spirv_fuzz.Pass.t) -> p.Spirv_fuzz.Pass.name) e.Registry.pass
        else None)
      Registry.all
  in
  List.iter
    (fun seed ->
      let r = Spirv_fuzz.Fuzzer.run ~config ~seed ctx in
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (p ^ " never drawn at weight 0")
            false
            (List.mem p r.Spirv_fuzz.Fuzzer.passes_run))
        control_flow_passes)
    [ 3; 7; 9 ]

(* counters bookkeeping: proposed >= applied, applied sums to the recorded
   sequence length *)
let prop_counters_consistent =
  QCheck.Test.make ~name:"emitter counters tally the recorded stream"
    ~count:10
    QCheck.(int_bound 1_000)
    (fun seed ->
      let r = run_with [] seed in
      let applied_total =
        List.fold_left (fun acc (_, _, a) -> acc + a) 0
          r.Spirv_fuzz.Fuzzer.counters
      in
      List.for_all (fun (_, p, a) -> p >= a && a >= 0) r.Spirv_fuzz.Fuzzer.counters
      && applied_total = List.length r.Spirv_fuzz.Fuzzer.transformations)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "registry"
    [
      ( "table",
        [
          Alcotest.test_case "catalogue bijection" `Quick test_completeness;
          Alcotest.test_case "pass list derivation" `Quick test_pass_names;
          Alcotest.test_case "dedup ignore derivation" `Quick test_dedup_ignored;
        ] );
      ( "weights",
        [
          Alcotest.test_case "parse_weights" `Quick test_parse_weights;
          Alcotest.test_case "all-zero weights rejected" `Quick test_all_zero_weights;
          Alcotest.test_case "pass_weight" `Quick test_pass_weight;
          Alcotest.test_case "non-uniform shifts sampling" `Quick
            test_nonuniform_changes_sampling;
          Alcotest.test_case "zero-weight family never drawn" `Quick
            test_zero_weight_family;
        ] );
      ( "contract",
        Alcotest.test_case "passes apply every type under the checker" `Slow
          test_every_type_applied_under_checker
        :: qcheck [ prop_uniform_stream_equality; prop_counters_consistent ] );
    ]
