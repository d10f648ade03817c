(* Tests for the execution engine: content digests, the content-addressed
   run cache, and domain-parallel campaigns.

   The load-bearing properties are (a) memoization is invisible — cached
   and uncached campaigns produce identical hit lists — and (b) the
   domain-parallel campaign merge is bit-identical to the sequential
   order. *)

let scale = { Harness.Experiments.default_scale with Harness.Experiments.seeds = 30 }
let tool = Harness.Pipeline.Spirv_fuzz_tool

(* the sequential, fresh-engine baseline every other campaign is compared to *)
let baseline_hits = lazy (Harness.Experiments.run_campaign ~scale tool)

let check_same_hits msg expected actual =
  Alcotest.(check int) (msg ^ ": count") (List.length expected) (List.length actual);
  Alcotest.(check bool) (msg ^ ": identical hits in identical order") true
    (expected = actual)

(* ------------------------------------------------------------------ *)
(* Digests *)

let test_digest_asm_roundtrip () =
  List.iter
    (fun (name, m) ->
      let d = Spirv_ir.Digest.of_module m in
      match Spirv_ir.Asm.of_string_result (Spirv_ir.Disasm.to_string m) with
      | Error e -> Alcotest.failf "%s does not re-assemble: %s" name e
      | Ok m' ->
          Alcotest.(check string)
            (name ^ ": digest stable across disasm/asm round trip") d
            (Spirv_ir.Digest.of_module m'))
    (Lazy.force Corpus.lowered_references)

let test_digest_distinguishes_modules () =
  let refs = Lazy.force Corpus.lowered_references in
  let digests = List.map (fun (_, m) -> Spirv_ir.Digest.of_module m) refs in
  Alcotest.(check int) "corpus references all digest differently"
    (List.length refs)
    (List.length (List.sort_uniq String.compare digests))

let test_digest_input () =
  let i1 = Spirv_ir.Input.make ~width:8 ~height:8 [] in
  let i2 = Spirv_ir.Input.make ~width:8 ~height:8 [] in
  let i3 = Spirv_ir.Input.make ~width:4 ~height:8 [] in
  Alcotest.(check string) "equal inputs digest equally"
    (Spirv_ir.Digest.of_input i1) (Spirv_ir.Digest.of_input i2);
  Alcotest.(check bool) "different grids digest differently" false
    (String.equal (Spirv_ir.Digest.of_input i1) (Spirv_ir.Digest.of_input i3))

(* ------------------------------------------------------------------ *)
(* Exact equality and digest reuse by identity *)

(* a digest computed from scratch, past the identity cache *)
let recomputed m =
  Stdlib.Digest.to_hex (Stdlib.Digest.string (Spirv_ir.Disasm.to_string m))

(* a physically distinct, structurally identical copy *)
let deep_copy (m : Spirv_ir.Module_ir.t) : Spirv_ir.Module_ir.t =
  Marshal.from_string (Marshal.to_string m []) 0

let with_float_constant m f =
  let open Spirv_ir.Module_ir in
  let m, ty = float_ty m in
  let id = m.id_bound in
  {
    m with
    id_bound = id + 1;
    constants =
      m.constants
      @ [ { cd_id = id; cd_ty = ty; cd_value = Spirv_ir.Constant.Float f } ];
  }

let test_equal_exact_cases () =
  let m = List.assoc "gradient" (Lazy.force Corpus.lowered_references) in
  let eq = Spirv_ir.Module_ir.equal_exact in
  let zero = with_float_constant m 0.0 in
  let neg_zero = with_float_constant m (-0.0) in
  Alcotest.(check bool) "0.0 vs -0.0" false (eq zero neg_zero);
  Alcotest.(check bool) "0.0 and -0.0 digest differently" false
    (String.equal (recomputed zero) (recomputed neg_zero));
  let nan = with_float_constant m (Int64.float_of_bits 0x7FF8_0000_0000_0000L) in
  let neg_nan =
    with_float_constant m (Int64.float_of_bits 0xFFF8_0000_0000_0000L)
  in
  Alcotest.(check bool) "NaN vs its sign flip" false (eq nan neg_nan);
  Alcotest.(check bool) "NaN module vs its rebuilt copy" true
    (eq nan (deep_copy nan));
  Alcotest.(check bool) "id_bound + 1" false
    (eq m { m with Spirv_ir.Module_ir.id_bound = m.Spirv_ir.Module_ir.id_bound + 1 });
  Alcotest.(check bool) "structurally rebuilt copy" true (eq m (deep_copy m))

(* every module a target's pipeline passes through, up to a crash *)
let pipeline_intermediates (t : Compilers.Target.t) m =
  let rec go m acc = function
    | [] -> List.rev acc
    | pass :: rest -> (
        match
          Compilers.Optimizer.run_pass t.Compilers.Target.opt_flags m pass
        with
        | m' -> go m' (m' :: acc) rest
        | exception Compilers.Opt_util.Compiler_crash _ -> List.rev acc)
  in
  go m [ m ] t.Compilers.Target.pipeline

let rec consecutive = function
  | a :: (b :: _ as rest) -> (a, b) :: consecutive rest
  | [ _ ] | [] -> []

let prop_equal_exact_refines_digest =
  let refs = Lazy.force Corpus.lowered_references in
  QCheck.Test.make ~count:12 ~name:"equal_exact a b implies equal digests"
    QCheck.(pair (int_bound (List.length refs - 1)) (int_bound 10_000))
    (fun (i, seed) ->
      let m = snd (List.nth refs i) in
      let ctx = Spirv_fuzz.Context.make m Corpus.default_input in
      let variant =
        (Spirv_fuzz.Fuzzer.run ~seed ctx).Spirv_fuzz.Fuzzer.final
          .Spirv_fuzz.Context.m
      in
      List.for_all
        (fun m0 ->
          List.for_all
            (fun t ->
              let ms = pipeline_intermediates t m0 in
              List.for_all
                (fun (a, b) ->
                  (not (Spirv_ir.Module_ir.equal_exact a b))
                  || String.equal (recomputed a) (recomputed b))
                (consecutive ms @ List.map (fun m -> (m, deep_copy m)) ms))
            Compilers.Target.all)
        [ m; variant ])

(* more distinct modules than the cache has slots, digested in orders
   that evict and revisit *)
let distinct_modules () =
  let refs = List.map snd (Lazy.force Corpus.lowered_references) in
  Array.of_list (refs @ List.map deep_copy refs)

let test_digest_reuse_interleaved () =
  let ms = distinct_modules () in
  let n = Array.length ms in
  Alcotest.(check bool) "more modules than cache slots" true (n > 16);
  let want = Array.map recomputed ms in
  let forward = List.init n Fun.id in
  let orders =
    [
      forward;
      List.rev forward;
      List.concat_map (fun i -> [ i; i * 7 mod n; i ]) forward;
      forward;
    ]
  in
  List.iter
    (List.iter (fun i ->
         Alcotest.(check string)
           (Printf.sprintf "module %d" i)
           want.(i)
           (Spirv_ir.Digest.of_module ms.(i))))
    orders;
  (* a repeat is served from the cache: the very same string comes back *)
  let d = Spirv_ir.Digest.of_module ms.(0) in
  Alcotest.(check bool) "repeat reuses the digest" true
    (d == Spirv_ir.Digest.of_module ms.(0))

let test_digest_reuse_across_workers () =
  let ms = distinct_modules () in
  let n = Array.length ms in
  let order = Array.init 600 (fun k -> k * 7 mod n) in
  let digest k = Spirv_ir.Digest.of_module ms.(order.(k)) in
  let seq = Array.init (Array.length order) digest in
  Harness.Pool.with_pool ~workers:4 (fun pool ->
      let par = Harness.Pool.map pool (Array.length order) digest in
      Alcotest.(check (array string)) "4 workers = sequential" seq par)

(* digest a fresh module, keeping only a weak handle on it *)
let digest_fresh_copy probe m =
  let fresh = deep_copy m in
  ignore (Spirv_ir.Digest.of_module fresh : string);
  Weak.set probe 0 (Some fresh)
[@@inline never]

let test_digest_cache_retains_nothing () =
  let m = List.assoc "gradient" (Lazy.force Corpus.lowered_references) in
  let probe = Weak.create 1 in
  digest_fresh_copy probe m;
  Gc.full_major ();
  Alcotest.(check bool) "module referenced only by the cache is collected"
    false (Weak.check probe 0)

(* ------------------------------------------------------------------ *)
(* Engine cache semantics *)

let test_engine_memoizes () =
  let engine = Harness.Engine.create () in
  let m = List.assoc "gradient" (Lazy.force Corpus.lowered_references) in
  let t = Compilers.Target.swiftshader in
  let r1 = Harness.Engine.run engine t m Corpus.default_input in
  let r2 = Harness.Engine.run engine t m Corpus.default_input in
  Alcotest.(check bool) "memoized result identical" true (r1 = r2);
  let s = Harness.Engine.stats engine in
  Alcotest.(check int) "one execution" 1 s.Harness.Engine.runs_executed;
  Alcotest.(check int) "one memo hit" 1 s.Harness.Engine.cache_hits;
  Harness.Engine.reset engine;
  let s' = Harness.Engine.stats engine in
  Alcotest.(check int) "reset clears counters" 0 s'.Harness.Engine.runs_executed

let test_cached_campaign_identical () =
  let expected = Lazy.force baseline_hits in
  let engine = Harness.Engine.create () in
  let cold = Harness.Experiments.run_campaign ~scale ~engine tool in
  check_same_hits "cold shared-engine campaign" expected cold;
  let after_cold = Harness.Engine.stats engine in
  Alcotest.(check bool) "campaign saves runs via the baseline cache" true
    (after_cold.Harness.Engine.runs_saved > 0);
  (* rerun on the warm engine: served from cache, still identical *)
  let warm = Harness.Experiments.run_campaign ~scale ~engine tool in
  check_same_hits "warm-cache campaign" expected warm;
  let after_warm = Harness.Engine.stats engine in
  Alcotest.(check bool) "warm rerun hits the content-addressed memo" true
    (after_warm.Harness.Engine.cache_hits > after_cold.Harness.Engine.cache_hits);
  Alcotest.(check int) "warm rerun executes nothing new"
    after_cold.Harness.Engine.runs_executed
    after_warm.Harness.Engine.runs_executed

let test_reduction_hits_cache () =
  match
    List.find_opt
      (fun (h : Harness.Experiments.hit) ->
        not
          (Harness.Signature.is_miscompilation
             h.Harness.Experiments.hit_detection.Harness.Pipeline.signature))
      (Lazy.force baseline_hits)
  with
  | None -> Alcotest.fail "no crash hit in the campaign"
  | Some h -> (
      let engine = Harness.Engine.create () in
      match Harness.Experiments.reduce_hit engine h with
      | None -> Alcotest.fail "hit did not reproduce"
      | Some _ ->
          let s = Harness.Engine.stats engine in
          Alcotest.(check bool)
            "ddmin's replayed prefixes hit the content-addressed cache" true
            (s.Harness.Engine.cache_hits > 0);
          Alcotest.(check bool) "baseline cache used during reduction" true
            (s.Harness.Engine.baseline_hits > 0))

(* ------------------------------------------------------------------ *)
(* Domain-parallel campaigns *)

let test_parallel_campaign domains () =
  let expected = Lazy.force baseline_hits in
  let par = Harness.Experiments.run_campaign ~scale ~domains tool in
  check_same_hits (Printf.sprintf "%d-domain campaign" domains) expected par

let test_parallel_shared_engine () =
  (* domains share one mutex-guarded engine and the merge stays canonical *)
  let expected = Lazy.force baseline_hits in
  let engine = Harness.Engine.create () in
  let par = Harness.Experiments.run_campaign ~scale ~domains:3 ~engine tool in
  check_same_hits "3-domain shared-engine campaign" expected par;
  let s = Harness.Engine.stats engine in
  Alcotest.(check bool) "parallel campaign executed runs" true
    (s.Harness.Engine.runs_executed > 0);
  (* per-domain accounting: the breakdown partitions runs_executed, and a
     3-worker pool really did spread executions over several domains *)
  Alcotest.(check int) "per-domain runs sum to runs_executed"
    s.Harness.Engine.runs_executed
    (List.fold_left (fun acc (_, n) -> acc + n) 0
       s.Harness.Engine.per_domain_runs);
  Alcotest.(check bool) "more than one domain executed runs" true
    (List.length s.Harness.Engine.per_domain_runs > 1)

let test_domains_exceed_seeds () =
  (* regression: --domains beyond the seed count used to spawn domains
     with empty ranges; the pool clamp must keep the hit list identical *)
  let small = { scale with Harness.Experiments.seeds = 5 } in
  let expected = Harness.Experiments.run_campaign ~scale:small tool in
  let par = Harness.Experiments.run_campaign ~scale:small ~domains:16 tool in
  check_same_hits "16 domains over 5 seeds" expected par

let test_caller_pool_both_phases () =
  (* one caller-owned pool serving campaign then reduction, as the CLI
     does; both phases must match their sequential runs *)
  let expected = Lazy.force baseline_hits in
  let seq_engine = Harness.Engine.create () in
  let eligible =
    Harness.Experiments.cap_hits
      ~per_signature:scale.Harness.Experiments.max_reductions_per_signature
      expected
  in
  let seq_outcomes = Harness.Experiments.reduce_hits seq_engine eligible in
  Harness.Pool.with_pool ~workers:4 (fun pool ->
      let engine = Harness.Engine.create () in
      let hits = Harness.Experiments.run_campaign ~scale ~pool ~engine tool in
      check_same_hits "campaign through a caller-owned pool" expected hits;
      let outcomes = Harness.Experiments.reduce_hits ~pool engine eligible in
      Alcotest.(check bool)
        "parallel reduction outcomes identical to sequential" true
        (outcomes = seq_outcomes));
  Alcotest.(check bool) "reduction outcomes non-trivial" true
    (List.exists Option.is_some seq_outcomes)

let test_parallel_reduce_hits workers () =
  let hits = Lazy.force baseline_hits in
  let eligible =
    Harness.Experiments.cap_hits
      ~per_signature:scale.Harness.Experiments.max_reductions_per_signature
      hits
  in
  let seq = Harness.Experiments.reduce_hits (Harness.Engine.create ()) eligible in
  Harness.Pool.with_pool ~workers (fun pool ->
      let par =
        Harness.Experiments.reduce_hits ~pool (Harness.Engine.create ()) eligible
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d-worker reduce_hits identical to sequential" workers)
        true (par = seq))

exception Hook_failure

let test_raising_on_seed_propagates () =
  (* a raising on_seed hook must surface from the parallel campaign (the
     pool drains, then re-raises) rather than deadlocking or vanishing *)
  match
    Harness.Experiments.run_campaign ~scale ~domains:3
      ~on_seed:(fun seed _ -> if seed = 7 then raise Hook_failure)
      tool
  with
  | _ -> Alcotest.fail "raising on_seed did not propagate"
  | exception Hook_failure -> ()

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "engine"
    [
      ( "digest",
        [
          Alcotest.test_case "stable across disasm/asm round trip" `Quick
            test_digest_asm_roundtrip;
          Alcotest.test_case "distinguishes corpus modules" `Quick
            test_digest_distinguishes_modules;
          Alcotest.test_case "input digests" `Quick test_digest_input;
          Alcotest.test_case "equal_exact: floats by bits, id_bound, copies"
            `Quick test_equal_exact_cases;
          Alcotest.test_case "reuse matches recomputation, interleaved"
            `Quick test_digest_reuse_interleaved;
          Alcotest.test_case "reuse: 4 workers = sequential" `Quick
            test_digest_reuse_across_workers;
          Alcotest.test_case "reuse retains no module" `Quick
            test_digest_cache_retains_nothing;
        ]
        @ [ QCheck_alcotest.to_alcotest prop_equal_exact_refines_digest ] );
      ( "cache",
        [
          Alcotest.test_case "memoizes backend runs" `Quick test_engine_memoizes;
          Alcotest.test_case "cached campaign identical to uncached" `Slow
            test_cached_campaign_identical;
          Alcotest.test_case "reduction hits the cache" `Slow
            test_reduction_hits_cache;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "2 domains = sequential" `Slow
            (test_parallel_campaign 2);
          Alcotest.test_case "3 domains = sequential" `Slow
            (test_parallel_campaign 3);
          Alcotest.test_case "4 domains = sequential" `Slow
            (test_parallel_campaign 4);
          Alcotest.test_case "8 domains = sequential" `Slow
            (test_parallel_campaign 8);
          Alcotest.test_case "shared engine across domains" `Slow
            test_parallel_shared_engine;
          Alcotest.test_case "domains > seeds (clamped)" `Slow
            test_domains_exceed_seeds;
          Alcotest.test_case "one pool, both phases" `Slow
            test_caller_pool_both_phases;
          Alcotest.test_case "2-worker reduction = sequential" `Slow
            (test_parallel_reduce_hits 2);
          Alcotest.test_case "4-worker reduction = sequential" `Slow
            (test_parallel_reduce_hits 4);
          Alcotest.test_case "raising on_seed propagates" `Slow
            test_raising_on_seed_propagates;
        ] );
    ]
