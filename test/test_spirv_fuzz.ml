(* Tests for the spirv-fuzz instantiation: fact manager, individual
   transformations, fuzzer, replay stability, reducer and dedup. *)

open Spirv_ir

let default_input = Generator.default_input

let render_exn m input =
  match Interp.render m input with
  | Ok img -> img
  | Error t -> Alcotest.failf "render failed: %s" (Interp.trap_to_string t)

let check_valid name m =
  match Validate.check m with
  | Ok () -> ()
  | Error (e :: _) -> Alcotest.failf "%s: %s" name (Validate.error_to_string e)
  | Error [] -> Alcotest.failf "%s: invalid" name

let gen_ctx seed =
  let m = Generator.generate (Tbct.Rng.make seed) in
  Spirv_fuzz.Context.make m default_input

(* ------------------------------------------------------------------ *)
(* Fact manager *)

let test_facts_dead_blocks () =
  let f = Spirv_fuzz.Fact_manager.empty in
  let f = Spirv_fuzz.Fact_manager.add_dead_block f 7 in
  Alcotest.(check bool) "added" true (Spirv_fuzz.Fact_manager.is_dead_block f 7);
  Alcotest.(check bool) "other" false (Spirv_fuzz.Fact_manager.is_dead_block f 8)

let test_facts_synonym_closure () =
  let f = Spirv_fuzz.Fact_manager.empty in
  let f = Spirv_fuzz.Fact_manager.add_id_synonym f 1 2 in
  let f = Spirv_fuzz.Fact_manager.add_id_synonym f 2 3 in
  Alcotest.(check bool) "transitive" true (Spirv_fuzz.Fact_manager.are_synonymous f 1 3);
  Alcotest.(check bool) "symmetric" true (Spirv_fuzz.Fact_manager.are_synonymous f 3 1);
  Alcotest.(check bool) "not related" false (Spirv_fuzz.Fact_manager.are_synonymous f 1 9);
  Alcotest.(check bool) "not self" false (Spirv_fuzz.Fact_manager.are_synonymous f 1 1)

let test_facts_component_synonyms () =
  let f = Spirv_fuzz.Fact_manager.empty in
  let f = Spirv_fuzz.Fact_manager.add_synonym f (10, [ 1 ]) (5, []) in
  Alcotest.(check (list int)) "component lookup" [ 5 ]
    (Spirv_fuzz.Fact_manager.component_synonyms f ~composite:10 ~path:[ 1 ]);
  Alcotest.(check (list int)) "wrong path" []
    (Spirv_fuzz.Fact_manager.component_synonyms f ~composite:10 ~path:[ 0 ])

let test_context_freshness_discipline () =
  let ctx = gen_ctx 1 in
  let bound = ctx.Spirv_fuzz.Context.m.Module_ir.id_bound in
  (* ids at/beyond the bound are fresh; defined ids are not *)
  Alcotest.(check bool) "bound is fresh" true (Spirv_fuzz.Context.is_fresh ctx bound);
  Alcotest.(check bool) "bound+5 is fresh" true (Spirv_fuzz.Context.is_fresh ctx (bound + 5));
  let some_defined = Id.Set.choose (Module_ir.defined_ids ctx.Spirv_fuzz.Context.m) in
  Alcotest.(check bool) "defined id is not fresh" false
    (Spirv_fuzz.Context.is_fresh ctx some_defined);
  (* claim raises the bound past the claimed ids *)
  let ctx' = Spirv_fuzz.Context.claim ctx [ bound + 10; bound + 3 ] in
  Alcotest.(check int) "bound raised" (bound + 11)
    ctx'.Spirv_fuzz.Context.m.Module_ir.id_bound

(* ------------------------------------------------------------------ *)
(* Individual transformations on a generated module *)

(* run one pass deterministically and check: module valid, image unchanged,
   and replaying the emitted sequence from the original reproduces the
   final module *)
let exercise_pass pass_name seed =
  match Spirv_fuzz.Pass.find pass_name with
  | None -> Alcotest.failf "unknown pass %s" pass_name
  | Some pass ->
      let ctx = gen_ctx seed in
      let reference = render_exn ctx.Spirv_fuzz.Context.m default_input in
      let donors = [ Generator.generate (Tbct.Rng.make (seed + 1)) ] in
      let em =
        Spirv_fuzz.Pass.make_emitter ~donors
          ~rng:(Tbct.Rng.make (seed * 3 + 1))
          ctx
      in
      (* enablers so data-dependent passes have something to chew on *)
      Spirv_fuzz.Pass.pass_add_dead_blocks.Spirv_fuzz.Pass.run em;
      Spirv_fuzz.Pass.pass_add_variables.Spirv_fuzz.Pass.run em;
      Spirv_fuzz.Pass.pass_add_copy_objects.Spirv_fuzz.Pass.run em;
      Spirv_fuzz.Pass.pass_add_functions.Spirv_fuzz.Pass.run em;
      Spirv_fuzz.Pass.pass_add_parameters.Spirv_fuzz.Pass.run em;
      pass.Spirv_fuzz.Pass.run em;
      let final = em.Spirv_fuzz.Pass.ctx in
      check_valid (pass_name ^ " result") final.Spirv_fuzz.Context.m;
      (* variants run on their own input: AddUniform extends it in sync *)
      let image = render_exn final.Spirv_fuzz.Context.m final.Spirv_fuzz.Context.input in
      if not (Image.equal reference image) then
        Alcotest.failf "pass %s changed the image" pass_name;
      (* replay stability *)
      let replayed =
        Spirv_fuzz.Lang.replay ctx (List.rev em.Spirv_fuzz.Pass.emitted)
      in
      if not (Module_ir.equal_ignoring_bound replayed.Spirv_fuzz.Context.m final.Spirv_fuzz.Context.m) then
        Alcotest.failf "pass %s: replay diverged" pass_name;
      List.length em.Spirv_fuzz.Pass.emitted

let test_pass pass_name () =
  let total = ref 0 in
  for seed = 1 to 5 do
    total := !total + exercise_pass pass_name seed
  done;
  if !total = 0 then Alcotest.failf "pass %s never applied anything" pass_name

(* ------------------------------------------------------------------ *)
(* Whole-fuzzer properties *)

let fuzz_once ?(config = Spirv_fuzz.Fuzzer.default_config) seed =
  let ctx = gen_ctx seed in
  let donors = [ Generator.generate (Tbct.Rng.make (seed + 7919)) ] in
  let config = { config with Spirv_fuzz.Fuzzer.donors } in
  (ctx, Spirv_fuzz.Fuzzer.run ~config ~seed:(seed * 2 + 1) ctx)

let prop_fuzzer_preserves_semantics =
  QCheck.Test.make ~name:"fuzzed variants render the same image" ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let ctx, result = fuzz_once seed in
      let reference = render_exn ctx.Spirv_fuzz.Context.m default_input in
      let final = result.Spirv_fuzz.Fuzzer.final in
      let image = render_exn final.Spirv_fuzz.Context.m final.Spirv_fuzz.Context.input in
      Image.equal reference image)

let prop_fuzzer_produces_valid_modules =
  QCheck.Test.make ~name:"fuzzed variants validate" ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let _, result = fuzz_once seed in
      Validate.is_valid result.Spirv_fuzz.Fuzzer.final.Spirv_fuzz.Context.m)

let prop_fuzzer_deterministic =
  QCheck.Test.make ~name:"fuzzing is deterministic in the seed" ~count:10
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let _, r1 = fuzz_once seed in
      let _, r2 = fuzz_once seed in
      Module_ir.equal r1.Spirv_fuzz.Fuzzer.final.Spirv_fuzz.Context.m
        r2.Spirv_fuzz.Fuzzer.final.Spirv_fuzz.Context.m)

let prop_replay_reproduces_fuzzer_output =
  QCheck.Test.make ~name:"replaying the recorded sequence reproduces the variant"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let ctx, result = fuzz_once seed in
      let replayed = Spirv_fuzz.Lang.replay ctx result.Spirv_fuzz.Fuzzer.transformations in
      Module_ir.equal_ignoring_bound replayed.Spirv_fuzz.Context.m
        result.Spirv_fuzz.Fuzzer.final.Spirv_fuzz.Context.m)

let prop_subsequences_preserve_semantics =
  QCheck.Test.make
    ~name:"random subsequences of recorded transformations preserve the image"
    ~count:40
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed, subseed) ->
      let ctx, result = fuzz_once seed in
      let reference = render_exn ctx.Spirv_fuzz.Context.m default_input in
      let rng = Tbct.Rng.make subseed in
      let subseq =
        List.filter (fun _ -> Tbct.Rng.bool rng) result.Spirv_fuzz.Fuzzer.transformations
      in
      let replayed = Spirv_fuzz.Lang.replay ctx subseq in
      Validate.is_valid replayed.Spirv_fuzz.Context.m
      && Image.equal reference
           (render_exn replayed.Spirv_fuzz.Context.m replayed.Spirv_fuzz.Context.input))

(* Checkpointed replay against a full replay from the original: a chain of
   random subsequences, each replayed from the previous one's checkpoints
   as ddmin does.  The chain mixes candidates that share a prefix with
   their base, the empty sequence, one that drops the base's first
   element and subsequences of a second fuzz run of the same seed, whose
   transformations are equal but physically distinct and so share no
   prefix with any base. *)
let same_context (a : Spirv_fuzz.Context.t) (b : Spirv_fuzz.Context.t) =
  let fa = a.Spirv_fuzz.Context.facts and fb = b.Spirv_fuzz.Context.facts in
  Module_ir.equal_exact a.Spirv_fuzz.Context.m b.Spirv_fuzz.Context.m
  && String.equal
       (Digest.of_input a.Spirv_fuzz.Context.input)
       (Digest.of_input b.Spirv_fuzz.Context.input)
  && Id.Set.equal fa.Spirv_fuzz.Fact_manager.dead_blocks
       fb.Spirv_fuzz.Fact_manager.dead_blocks
  && fa.Spirv_fuzz.Fact_manager.synonyms = fb.Spirv_fuzz.Fact_manager.synonyms
  && Id.Set.equal fa.Spirv_fuzz.Fact_manager.irrelevant
       fb.Spirv_fuzz.Fact_manager.irrelevant
  && Id.Set.equal fa.Spirv_fuzz.Fact_manager.irrelevant_pointees
       fb.Spirv_fuzz.Fact_manager.irrelevant_pointees
  && Id.Set.equal fa.Spirv_fuzz.Fact_manager.live_safe
       fb.Spirv_fuzz.Fact_manager.live_safe

let prop_checkpointed_replay_is_replay =
  QCheck.Test.make ~name:"checkpointed replay equals full replay" ~count:30
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed, subseed) ->
      let ctx, result = fuzz_once seed in
      let _, again = fuzz_once seed in
      let ts = result.Spirv_fuzz.Fuzzer.transformations in
      let rng = Tbct.Rng.make subseed in
      let sub xs = List.filter (fun _ -> Tbct.Rng.bool rng) xs in
      let candidates =
        [ ts; sub ts; sub ts; []; sub ts;
          (match ts with [] -> [] | _ :: rest -> rest);
          sub again.Spirv_fuzz.Fuzzer.transformations; sub ts; ts ]
      in
      let _, ok =
        List.fold_left
          (fun (cps, ok) seq ->
            let cps = Spirv_fuzz.Reducer.replay_from cps seq in
            ( cps,
              ok
              && same_context (Spirv_fuzz.Reducer.context cps)
                   (Spirv_fuzz.Lang.replay ctx seq) ))
          (Spirv_fuzz.Reducer.start ctx, true)
          candidates
      in
      ok)

let prop_variants_roundtrip_assembler =
  QCheck.Test.make
    ~name:"fuzzed variants round-trip the assembler (dead blocks, kills, donations)"
    ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let _, result = fuzz_once seed in
      let m = result.Spirv_fuzz.Fuzzer.final.Spirv_fuzz.Context.m in
      Module_ir.equal m (Asm.of_string (Disasm.to_string m)))

let test_fuzzer_emits_transformations () =
  let config =
    { Spirv_fuzz.Fuzzer.default_config with Spirv_fuzz.Fuzzer.continue_probability = 100 }
  in
  let _, result = fuzz_once ~config 42 in
  Alcotest.(check bool) "emitted some" true
    (List.length result.Spirv_fuzz.Fuzzer.transformations > 10)

let test_fuzzer_respects_cap () =
  let config = { Spirv_fuzz.Fuzzer.default_config with Spirv_fuzz.Fuzzer.max_transformations = 5 } in
  let ctx = gen_ctx 3 in
  let result = Spirv_fuzz.Fuzzer.run ~config ~seed:9 ctx in
  (* the cap is checked between passes, so a single pass may overshoot a
     little; it must stay within one pass's worth of the cap *)
  Alcotest.(check bool) "bounded" true
    (List.length result.Spirv_fuzz.Fuzzer.transformations < 200)

(* ------------------------------------------------------------------ *)
(* Reducer *)

let test_reducer_finds_kill_culprit () =
  (* interestingness: the variant contains an OpKill; 1-minimal sequences
     should be small (the enabling AddDeadBlock chain + the kill) *)
  let found = ref false in
  let seed = ref 0 in
  let config =
    { Spirv_fuzz.Fuzzer.default_config with Spirv_fuzz.Fuzzer.continue_probability = 100 }
  in
  while (not !found) && !seed < 100 do
    incr seed;
    let ctx, result = fuzz_once ~config !seed in
    let has_kill (c : Spirv_fuzz.Context.t) =
      List.exists
        (fun (f : Func.t) ->
          List.exists
            (fun (b : Block.t) -> b.Block.terminator = Block.Kill)
            f.Func.blocks)
        c.Spirv_fuzz.Context.m.Module_ir.functions
    in
    if has_kill result.Spirv_fuzz.Fuzzer.final then begin
      found := true;
      let r =
        Spirv_fuzz.Reducer.reduce ~original:ctx ~is_interesting:has_kill
          result.Spirv_fuzz.Fuzzer.transformations
      in
      (* must keep the bug triggering *)
      Alcotest.(check bool) "reduced still interesting" true
        (has_kill r.Spirv_fuzz.Reducer.reduced);
      (* 1-minimality *)
      List.iteri
        (fun i _ ->
          let without =
            List.filteri (fun j _ -> j <> i) r.Spirv_fuzz.Reducer.transformations
          in
          Alcotest.(check bool)
            (Printf.sprintf "dropping %d breaks it" i)
            false
            (has_kill (Spirv_fuzz.Lang.replay ctx without)))
        r.Spirv_fuzz.Reducer.transformations;
      (* the kept sequence should be much shorter than the full one *)
      Alcotest.(check bool) "substantial reduction" true
        (List.length r.Spirv_fuzz.Reducer.transformations
        <= List.length result.Spirv_fuzz.Fuzzer.transformations)
    end
  done;
  if not !found then Alcotest.fail "no seed produced an OpKill variant"

let test_shrink_add_functions () =
  (* donate a function, then shrink its body while keeping "a donated
     function exists and the module is valid" interesting *)
  let ctx = gen_ctx 21 in
  let donor = Generator.generate (Tbct.Rng.make 2222) in
  match Spirv_fuzz.Donor.eligible_functions donor with
  | [] -> Alcotest.fail "donor has no eligible functions at this seed"
  | g :: _ -> (
      match Spirv_fuzz.Donor.encode ctx donor g with
      | None -> Alcotest.fail "donor encoding failed"
      | Some (ctx, payload) ->
          let fn_id = payload.Spirv_fuzz.Transformation.af_function.Func.id in
          let seq = [ Spirv_fuzz.Transformation.Add_function payload ] in
          let is_interesting (c : Spirv_fuzz.Context.t) =
            Module_ir.find_function c.Spirv_fuzz.Context.m fn_id <> None
          in
          let before_size =
            List.fold_left
              (fun acc (b : Block.t) -> acc + List.length b.Block.instrs)
              0 payload.Spirv_fuzz.Transformation.af_function.Func.blocks
          in
          let r =
            Spirv_fuzz.Reducer.reduce ~original:ctx ~is_interesting seq
            |> Spirv_fuzz.Reducer.shrink_add_functions ~is_interesting
          in
          let shrunk = r.Spirv_fuzz.Reducer.transformations in
          (match shrunk with
          | [ Spirv_fuzz.Transformation.Add_function p' ] ->
              let after_size =
                List.fold_left
                  (fun acc (b : Block.t) -> acc + List.length b.Block.instrs)
                  0 p'.Spirv_fuzz.Transformation.af_function.Func.blocks
              in
              Alcotest.(check bool) "body shrank or held" true (after_size <= before_size);
              (* the shrunk payload must still apply to a valid module *)
              let ctx' = Spirv_fuzz.Lang.replay ctx shrunk in
              Alcotest.(check bool) "still valid" true
                (Validate.is_valid ctx'.Spirv_fuzz.Context.m);
              Alcotest.(check bool) "still interesting" true (is_interesting ctx');
              Alcotest.(check bool) "the result's context is the replay" true
                (Module_ir.equal_exact ctx'.Spirv_fuzz.Context.m
                   r.Spirv_fuzz.Reducer.reduced.Spirv_fuzz.Context.m)
          | _ -> Alcotest.fail "sequence shape changed"))

(* A shrink candidate that drops the local variable a store writes
   through no longer applies: the AddFunction precondition wants the
   store's pointer defined in the body.  The candidate is rejected before
   the suffix replays and before the interestingness test, so no test
   sees a module without the added function. *)
let test_shrink_rejects_unapplied_add_function () =
  let ctx = gen_ctx 21 in
  let id k = ctx.Spirv_fuzz.Context.m.Module_ir.id_bound + k in
  let t_void = id 0 and t_fn = id 1 and t_int = id 2 and t_ptr = id 3 in
  let one = id 4 and fn = id 5 and label = id 6 and var = id 7 in
  let payload =
    {
      Spirv_fuzz.Transformation.af_function =
        {
          Func.id = fn;
          name = "stores_local";
          fn_ty = t_fn;
          control = Func.CNone;
          params = [];
          blocks =
            [
              {
                Block.label;
                instrs =
                  [
                    Instr.make ~result:var ~ty:t_ptr (Instr.Variable Ty.Function);
                    Instr.make_void (Instr.Store (var, one));
                  ];
                terminator = Block.Return;
              };
            ];
        };
      af_types =
        [
          (t_void, Ty.Void); (t_fn, Ty.Func (t_void, [])); (t_int, Ty.Int);
          (t_ptr, Ty.Pointer (Ty.Function, t_int));
        ];
      af_constants = [ (one, t_int, Constant.Int 1l) ];
      af_live_safe = false;
    }
  in
  let present (c : Spirv_fuzz.Context.t) =
    Module_ir.find_function c.Spirv_fuzz.Context.m fn <> None
  in
  let r =
    Spirv_fuzz.Reducer.reduce ~original:ctx ~is_interesting:present
      [ Spirv_fuzz.Transformation.Add_function payload ]
  in
  Alcotest.(check int) "the AddFunction is kept" 1
    (List.length r.Spirv_fuzz.Reducer.transformations);
  (* interesting while the added function still stores: the empty body,
     which ddmin tries first, is not *)
  let stores (c : Spirv_fuzz.Context.t) =
    match Module_ir.find_function c.Spirv_fuzz.Context.m fn with
    | Some f ->
        List.exists
          (fun (i : Instr.t) ->
            match i.Instr.op with Instr.Store _ -> true | _ -> false)
          (Func.all_instrs f)
    | None -> false
  in
  let probes = ref 0 and absent = ref 0 in
  let r =
    Spirv_fuzz.Reducer.shrink_add_functions
      ~is_interesting:(fun c ->
        incr probes;
        if not (present c) then incr absent;
        stores c)
      r
  in
  Alcotest.(check bool) "shrinking probed" true (!probes > 0);
  Alcotest.(check int) "no probe without the added function" 0 !absent;
  Alcotest.(check bool) "the shrunk function still stores" true
    (stores r.Spirv_fuzz.Reducer.reduced);
  check_valid "shrunk" r.Spirv_fuzz.Reducer.reduced.Spirv_fuzz.Context.m

(* ------------------------------------------------------------------ *)
(* Local validation of MoveBlockDown and ReplaceBranchWithKill          *)

(* the two preconditions as they were when they validated the whole
   candidate module: the oracle of the local check *)
let whole_module_precondition (ctx : Spirv_fuzz.Context.t)
    (t : Spirv_fuzz.Transformation.t) =
  let m = ctx.Spirv_fuzz.Context.m in
  match t with
  | Spirv_fuzz.Transformation.Replace_branch_with_kill { fn; block } ->
      Spirv_fuzz.Fact_manager.is_dead_block ctx.Spirv_fuzz.Context.facts block
      && (match Spirv_fuzz.Edit.find_block_in m ~fn ~block with
         | Some (_, b) -> Block.successors b <> []
         | None -> false)
      && Validate.is_valid (Spirv_fuzz.Rules.replace_branch_with_kill_m ctx ~fn ~block)
  | Spirv_fuzz.Transformation.Move_block_down { fn; block } -> (
      match Module_ir.find_function m fn with
      | Some ({ Func.blocks = entry :: _; _ } as f) ->
          (not (Id.equal entry.Block.label block))
          && Spirv_fuzz.Rules.has_syntactic_successor f block
          && Validate.is_valid (Spirv_fuzz.Rules.move_block_down_m ctx ~fn ~block)
      | Some _ | None -> false)
  | _ -> invalid_arg "whole_module_precondition"

(* On every block of a context: both preconditions equal the oracle, and
   the local verdict on the ReplaceBranchWithKill candidate equals the
   whole-module one (the oracle validates that candidate only for a dead
   block).  Exact only when the context validates. *)
let local_checks_agree (ctx : Spirv_fuzz.Context.t) =
  List.for_all
    (fun (f : Func.t) ->
      let fn = f.Func.id in
      List.for_all
        (fun (b : Block.t) ->
          let block = b.Block.label in
          List.for_all
            (fun t ->
              Bool.equal (Spirv_fuzz.Rules.precondition ctx t)
                (whole_module_precondition ctx t))
            [
              Spirv_fuzz.Transformation.Move_block_down { fn; block };
              Spirv_fuzz.Transformation.Replace_branch_with_kill { fn; block };
            ]
          &&
          let m = Spirv_fuzz.Rules.replace_branch_with_kill_m ctx ~fn ~block in
          Bool.equal (Validate.function_is_valid m fn) (Validate.is_valid m))
        f.Func.blocks)
    ctx.Spirv_fuzz.Context.m.Module_ir.functions

(* the contexts after six evenly spaced elements of [ts], the last
   included, replayed from [ctx]: every context costs a validation per
   block, so a long sequence is sampled *)
let replay_steps ctx ts =
  let n = List.length ts in
  let every = max 1 (n / 6) in
  List.rev
    (snd
       (List.fold_left
          (fun (c, acc) (i, t) ->
            let c = Spirv_fuzz.Lang.replay c [ t ] in
            (c, if (n - 1 - i) mod every = 0 then c :: acc else acc))
          (ctx, [])
          (List.mapi (fun i t -> (i, t)) ts)))

(* fuzzed contexts, step by step, and the prefixes of ddmin-style
   candidates: the recorded sequence with one random chunk left out *)
let prop_local_validation_fuzzed =
  QCheck.Test.make
    ~name:"fuzzed and ddmin contexts agree"
    ~count:6
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed, subseed) ->
      let ctx, result = fuzz_once seed in
      let ts = result.Spirv_fuzz.Fuzzer.transformations in
      let n = List.length ts in
      let rng = Tbct.Rng.make subseed in
      let chunk = 1 + Tbct.Rng.int rng (max 1 (n / 2)) in
      let lo = Tbct.Rng.int rng (max 1 n) in
      let candidate = List.filteri (fun i _ -> i < lo || i >= lo + chunk) ts in
      List.for_all local_checks_agree
        ((ctx :: replay_steps ctx ts) @ replay_steps ctx candidate))

(* shrink candidates that pass the AddFunction rejection: every context
   the shrink's interestingness test receives, for the first seeds whose
   fuzzed sequence keeps an AddFunction through ddmin *)
let test_local_validation_shrink_candidates () =
  let config =
    { Spirv_fuzz.Fuzzer.default_config with Spirv_fuzz.Fuzzer.continue_probability = 100 }
  in
  let candidates = ref 0 and seeds = ref 0 and seed = ref 0 in
  while !seeds < 3 && !seed < 200 do
    incr seed;
    let ctx, result = fuzz_once ~config !seed in
    let added =
      List.filter_map
        (function
          | Spirv_fuzz.Transformation.Add_function p ->
              Some p.Spirv_fuzz.Transformation.af_function.Func.id
          | _ -> None)
        result.Spirv_fuzz.Fuzzer.transformations
    in
    match added with
    | [] -> ()
    | fn :: _ ->
        incr seeds;
        let has_fn (c : Spirv_fuzz.Context.t) =
          Module_ir.find_function c.Spirv_fuzz.Context.m fn <> None
        in
        let r =
          Spirv_fuzz.Reducer.reduce ~original:ctx ~is_interesting:has_fn
            result.Spirv_fuzz.Fuzzer.transformations
        in
        ignore
          (Spirv_fuzz.Reducer.shrink_add_functions
             ~is_interesting:(fun c ->
               incr candidates;
               if not (local_checks_agree c) then
                 Alcotest.failf "seed %d: a shrink candidate disagrees" !seed;
               has_fn c)
             r)
  done;
  Alcotest.(check int) "three seeds keep an AddFunction" 3 !seeds;
  Alcotest.(check bool) "shrink candidates were checked" true (!candidates > 0)

let test_delta_size_zero_for_empty_sequence () =
  let ctx = gen_ctx 5 in
  Alcotest.(check int) "no delta" 0 (Spirv_fuzz.Reducer.delta_size ~original:ctx ctx)

(* ------------------------------------------------------------------ *)
(* Dedup *)

let mk_case label tys =
  (* build dummy transformations of the named types for dedup testing *)
  let of_ty = function
    | "AddLoad" ->
        Spirv_fuzz.Transformation.Add_load
          { fn = 0; block = 0; point = Spirv_fuzz.Transformation.At_end; fresh = 0; pointer = 0 }
    | "AddStore" ->
        Spirv_fuzz.Transformation.Add_store
          { fn = 0; block = 0; point = Spirv_fuzz.Transformation.At_end; pointer = 0; value = 0 }
    | "SplitBlock" ->
        Spirv_fuzz.Transformation.Split_block
          { fn = 0; block = 0; point = Spirv_fuzz.Transformation.At_end; fresh = 0 }
    | "AddDeadBlock" ->
        Spirv_fuzz.Transformation.Add_dead_block { fn = 0; existing = 0; fresh = 0; cond = 0 }
    | "MoveBlockDown" -> Spirv_fuzz.Transformation.Move_block_down { fn = 0; block = 0 }
    | "AddType" -> Spirv_fuzz.Transformation.Add_type { fresh = 0; ty = Ty.Bool }
    | other -> Alcotest.failf "unknown type %s" other
  in
  { Spirv_fuzz.Dedup.label; Spirv_fuzz.Dedup.transformations = List.map of_ty tys }

let test_dedup_ignores_supporting_types () =
  let tests =
    [
      mk_case "a" [ "AddType"; "SplitBlock"; "AddLoad" ];
      mk_case "b" [ "AddType"; "SplitBlock"; "AddStore" ];
    ]
  in
  let selected = Spirv_fuzz.Dedup.select tests in
  (* AddType and SplitBlock are ignored, so the effective sets {AddLoad} and
     {AddStore} are disjoint: both selected *)
  Alcotest.(check int) "both selected" 2 (List.length selected)

let test_dedup_conflicting_types () =
  let tests =
    [ mk_case "a" [ "AddLoad"; "MoveBlockDown" ]; mk_case "b" [ "AddLoad" ] ] in
  let selected = Spirv_fuzz.Dedup.select tests in
  Alcotest.(check int) "one selected" 1 (List.length selected);
  Alcotest.(check string) "the smaller set wins" "b"
    (List.hd selected).Spirv_fuzz.Dedup.label

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Contract checker (debug mode) *)

(* a full fuzz run with contract checking on: every applied transformation
   passes precondition/validate/lint/image checks *)
let test_contracts_pass_on_fuzz () =
  let config =
    { Spirv_fuzz.Fuzzer.default_config with Spirv_fuzz.Fuzzer.check_contracts = true }
  in
  let total = ref 0 in
  for seed = 1 to 5 do
    let _, result = fuzz_once ~config seed in
    total := !total + List.length result.Spirv_fuzz.Fuzzer.transformations
  done;
  Alcotest.(check bool) "some transformations applied" true (!total > 0)

(* the checker consumes no randomness: the recorded stream is bit-identical
   with checking on or off *)
let prop_contracts_do_not_disturb_rng =
  QCheck.Test.make ~name:"contract checking never changes the stream" ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let on =
        { Spirv_fuzz.Fuzzer.default_config with Spirv_fuzz.Fuzzer.check_contracts = true }
      in
      let _, plain = fuzz_once seed in
      let _, checked = fuzz_once ~config:on seed in
      plain.Spirv_fuzz.Fuzzer.transformations
      = checked.Spirv_fuzz.Fuzzer.transformations
      && Module_ir.equal plain.Spirv_fuzz.Fuzzer.final.Spirv_fuzz.Context.m
           checked.Spirv_fuzz.Fuzzer.final.Spirv_fuzz.Context.m)

(* inject a transformation whose precondition is deliberately violated
   (Add_type for an already-declared type) and apply it anyway: the checker
   must flag the precondition stage *)
let test_contracts_catch_bad_transformation () =
  let ctx = gen_ctx 3 in
  let bad =
    Spirv_fuzz.Transformation.Add_type
      { fresh = ctx.Spirv_fuzz.Context.m.Module_ir.id_bound; ty = Ty.Float }
  in
  Alcotest.(check bool) "precondition is indeed false" false
    (Spirv_fuzz.Rules.precondition ctx bad);
  let after = Spirv_fuzz.Rules.apply ctx bad in
  let checker = Spirv_fuzz.Contract.create ctx in
  match Spirv_fuzz.Contract.check checker ~before:ctx bad ~after with
  | () -> Alcotest.fail "violated precondition not caught"
  | exception Spirv_fuzz.Contract.Violation v ->
      Alcotest.(check string) "stage" "precondition" v.Spirv_fuzz.Contract.v_stage;
      Alcotest.(check string) "culprit" "AddType"
        v.Spirv_fuzz.Contract.v_transformation

(* a transformation that silently breaks the module (a use that its
   definition does not dominate) is caught by the validate stage *)
let test_contracts_catch_invalid_module () =
  let ctx = gen_ctx 4 in
  let checker = Spirv_fuzz.Contract.create ctx in
  let m = ctx.Spirv_fuzz.Context.m in
  let nop =
    Spirv_fuzz.Transformation.Add_constant
      {
        fresh = m.Module_ir.id_bound;
        ty = Option.get (Module_ir.find_type_id m Ty.Float);
        value = Constant.Float 1234.5;
      }
  in
  Alcotest.(check bool) "harmless precondition holds" true
    (Spirv_fuzz.Rules.precondition ctx nop);
  (* pretend the transformation was applied but hand the checker a broken
     module: entry function retyped to a dangling type id *)
  let broken =
    {
      m with
      Module_ir.constants =
        m.Module_ir.constants
        @ [
            {
              Module_ir.cd_id = m.Module_ir.id_bound;
              cd_ty = 99999;
              cd_value = Constant.Float 1234.5;
            };
          ];
      Module_ir.id_bound = m.Module_ir.id_bound + 1;
    }
  in
  let after = { ctx with Spirv_fuzz.Context.m = broken } in
  match Spirv_fuzz.Contract.check checker ~before:ctx nop ~after with
  | () -> Alcotest.fail "invalid module not caught"
  | exception Spirv_fuzz.Contract.Violation v ->
      Alcotest.(check string) "stage" "validate" v.Spirv_fuzz.Contract.v_stage

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let pass_tests =
  List.map
    (fun (p : Spirv_fuzz.Pass.t) ->
      Alcotest.test_case ("pass " ^ p.Spirv_fuzz.Pass.name) `Quick
        (test_pass p.Spirv_fuzz.Pass.name))
    Spirv_fuzz.Pass.all

let () =
  Alcotest.run "spirv_fuzz"
    [
      ( "facts",
        [
          Alcotest.test_case "dead blocks" `Quick test_facts_dead_blocks;
          Alcotest.test_case "synonym closure" `Quick test_facts_synonym_closure;
          Alcotest.test_case "component synonyms" `Quick test_facts_component_synonyms;
          Alcotest.test_case "context freshness discipline" `Quick
            test_context_freshness_discipline;
        ] );
      ("passes", pass_tests);
      ( "fuzzer",
        [
          Alcotest.test_case "emits transformations" `Quick test_fuzzer_emits_transformations;
          Alcotest.test_case "respects the cap" `Quick test_fuzzer_respects_cap;
        ]
        @ qcheck
            [
              prop_fuzzer_preserves_semantics;
              prop_fuzzer_produces_valid_modules;
              prop_fuzzer_deterministic;
              prop_replay_reproduces_fuzzer_output;
              prop_subsequences_preserve_semantics;
              prop_checkpointed_replay_is_replay;
              prop_variants_roundtrip_assembler;
            ] );
      ( "contracts",
        [
          Alcotest.test_case "checked fuzz run passes" `Quick
            test_contracts_pass_on_fuzz;
          Alcotest.test_case "violated precondition caught" `Quick
            test_contracts_catch_bad_transformation;
          Alcotest.test_case "invalid module caught" `Quick
            test_contracts_catch_invalid_module;
        ]
        @ qcheck [ prop_contracts_do_not_disturb_rng ] );
      ( "reducer",
        [
          Alcotest.test_case "finds the kill culprit chain" `Quick
            test_reducer_finds_kill_culprit;
          Alcotest.test_case "delta size zero on empty" `Quick
            test_delta_size_zero_for_empty_sequence;
          Alcotest.test_case "shrink AddFunction bodies (spirv-reduce analog)" `Quick
            test_shrink_add_functions;
          Alcotest.test_case "rejects unapplied AddFunction" `Quick
            test_shrink_rejects_unapplied_add_function;
        ] );
      ( "local",
        Alcotest.test_case "shrink candidates agree" `Quick
          test_local_validation_shrink_candidates
        :: qcheck [ prop_local_validation_fuzzed ] );
      ( "dedup",
        [
          Alcotest.test_case "ignores supporting types" `Quick test_dedup_ignores_supporting_types;
          Alcotest.test_case "conflicting types" `Quick test_dedup_conflicting_types;
        ] );
    ]
