(* Tests for the execution engine: content digests, the content-addressed
   run cache, and domain-parallel campaigns.

   The load-bearing properties are (a) memoization is invisible — cached
   and uncached campaigns produce identical hit lists — and (b) the
   domain-parallel campaign merge is bit-identical to the sequential
   order. *)

let scale = { Harness.Experiments.default_scale with Harness.Experiments.seeds = 30 }
let tool = Harness.Pipeline.Spirv_fuzz_tool

(* the sequential, fresh-engine baseline every other campaign is compared to *)
let baseline_hits =
  lazy
    (Harness.Experiments.run_campaign ~engine:(Harness.Engine.create ())
       ~scale tool)

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

(* inputs that agree to 12 significant digits, and NaNs that differ only in
   sign or payload: a lossy input key merges them *)
let input_with_u x =
  let input = Corpus.default_input in
  {
    input with
    Spirv_ir.Input.uniforms =
      List.map
        (fun (name, v) ->
          (name, if String.equal name "u_half" then Spirv_ir.Value.VFloat x else v))
        input.Spirv_ir.Input.uniforms;
  }

let close_floats = [ 1.0000000000001; 1.0000000000002 ]

let nans =
  [ Float.nan; Float.neg Float.nan; Int64.float_of_bits 0x7ff0000000000123L ]

let test_digest_input () =
  let i1 = Spirv_ir.Input.make ~width:8 ~height:8 [] in
  let i2 = Spirv_ir.Input.make ~width:8 ~height:8 [] in
  let i3 = Spirv_ir.Input.make ~width:4 ~height:8 [] in
  Alcotest.(check string) "equal inputs digest equally"
    (Spirv_ir.Digest.of_input i1) (Spirv_ir.Digest.of_input i2);
  Alcotest.(check bool) "different grids digest differently" false
    (String.equal (Spirv_ir.Digest.of_input i1) (Spirv_ir.Digest.of_input i3));
  let distinct what xs =
    let ds = List.map (fun x -> Spirv_ir.Digest.of_input (input_with_u x)) xs in
    Alcotest.(check int) (what ^ " digest pairwise differently") (List.length xs)
      (List.length (List.sort_uniq String.compare ds))
  in
  distinct "floats equal to 12 digits" close_floats;
  distinct "NaN, -NaN and a NaN with a payload" nans;
  (* unprefixed, both would be the bytes "a" 0 "b" 1 *)
  Alcotest.(check bool) "uniform names are length-prefixed" false
    (String.equal
       (Spirv_ir.Digest.of_input
          (Spirv_ir.Input.make
             [ ("a", Spirv_ir.Value.VBool false); ("b", Spirv_ir.Value.VBool true) ]))
       (Spirv_ir.Digest.of_input
          (Spirv_ir.Input.make [ ("a\000b", Spirv_ir.Value.VBool true) ])))

(* gradient's image is (x, y, u_half): its output depends on every bit of
   the uniform, so two inputs sharing a memo key would share an image *)
let test_engine_run_exact_inputs () =
  let m = List.assoc "gradient" (Lazy.force Corpus.lowered_references) in
  let t = Compilers.Target.swiftshader in
  let e = Harness.Engine.create () in
  (* bit for bit: [Image.equal]'s tolerance would hide the last digit *)
  let same_run a b =
    match (a, b) with
    | Compilers.Backend.Rendered i, Compilers.Backend.Rendered j ->
        Array.length i.Spirv_ir.Image.pixels = Array.length j.Spirv_ir.Image.pixels
        && Array.for_all2
             (fun (p : Spirv_ir.Image.pixel) (q : Spirv_ir.Image.pixel) ->
               match (p, q) with
               | Spirv_ir.Image.Color u, Spirv_ir.Image.Color v -> Spirv_ir.Value.equal u v
               | _ -> p = q)
             i.Spirv_ir.Image.pixels j.Spirv_ir.Image.pixels
    | _ -> a = b
  in
  List.iter
    (fun x ->
      let input = input_with_u x in
      Alcotest.(check bool) (Printf.sprintf "u_half = %h renders" x) true
        (match Compilers.Backend.run t m input with
         | Compilers.Backend.Rendered _ -> true
         | _ -> false);
      Alcotest.(check bool)
        (Printf.sprintf "u_half = %h: the engine's run is the backend's" x)
        true
        (same_run (Harness.Engine.run e t m input) (Compilers.Backend.run t m input)))
    (close_floats @ nans)

(* Every module digest and CAS module key hashes the listing, so its bytes
   are frozen: these constants pin them over the 46 spirv-fuzz references,
   two seeds of variants of each, and one diff. *)
let test_listing_bytes_pinned () =
  let tool = Harness.Pipeline.Spirv_fuzz_tool in
  let refs = Harness.Experiments.references_for tool in
  let b = Buffer.create (1 lsl 19) in
  List.iter (fun (_, _, m) -> Buffer.add_string b (Spirv_ir.Disasm.to_string m)) refs;
  let variant (_, ref_source, ref_module) seed =
    (Harness.Pipeline.generate tool ~ref_source ~ref_module ~seed
       ~input:Corpus.default_input).Harness.Pipeline.gen_variant
  in
  List.iter
    (fun seed ->
      List.iter
        (fun r -> Buffer.add_string b (Spirv_ir.Disasm.to_string (variant r seed)))
        refs)
    [ 7; 42 ];
  Alcotest.(check int) "references" 46 (List.length refs);
  Alcotest.(check int) "listing length" 336130 (Buffer.length b);
  Alcotest.(check string) "listing MD5" "4600ea0c8a6894fecda3fdf2bc67eb07"
    (Stdlib.Digest.to_hex (Stdlib.Digest.string (Buffer.contents b)));
  let ((name, _, ref_module) as r) = List.hd refs in
  let d = Spirv_ir.Disasm.diff_to_string ref_module (variant r 7) in
  Alcotest.(check string) "first reference" "gradient" name;
  Alcotest.(check int) "diff length" 207 (String.length d);
  Alcotest.(check string) "diff MD5" "945e2122962667241d6c37b0d4424b8d"
    (Stdlib.Digest.to_hex (Stdlib.Digest.string d))

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
(* The pipeline memo: one target-optimizer outcome per (configuration,
   module digest), shared by Engine.run and the TV blame and across
   targets.  Every result must equal a reference engine's, which runs
   Backend.run's default optimizer and Optimizer.run_tv every time. *)

let reference_engine () = Harness.Engine.create ~compiled:false ()

(* both consumers of the memo, on one target *)
let run_and_blame ~tv_first e (t : Compilers.Target.t) m =
  let run () = Harness.Engine.run e t m Corpus.default_input in
  let blame () = Harness.Pipeline.tv_signature e t m in
  if tv_first then
    let b = blame () in
    (run (), b)
  else
    let r = run () in
    (r, blame ())

let run_result_t =
  Alcotest.testable
    (fun fmt -> function
      | Compilers.Backend.Rendered _ -> Format.pp_print_string fmt "Rendered"
      | Compilers.Backend.Compiled_ok -> Format.pp_print_string fmt "Compiled_ok"
      | Compilers.Backend.Crashed s -> Format.fprintf fmt "Crashed %S" s)
    ( = )

(* the memo engine twice, so the second answers come from its entries *)
let check_against_reference ~tv_first e reference label t m =
  let r', b' = run_and_blame ~tv_first reference t m in
  let label = label ^ " on " ^ t.Compilers.Target.name in
  List.iter
    (fun pass ->
      let r, b = run_and_blame ~tv_first e t m in
      Alcotest.check run_result_t (label ^ pass ^ ": run") r' r;
      Alcotest.(check (option string)) (label ^ pass ^ ": tv signature") b' b)
    [ ""; " again" ]

(* a call with two same-typed constant arguments: SwiftShader's
   bug_inline_swaps_const_args swaps them while inlining, and the TV
   blame names Inline *)
let inline_swap_module () =
  let open Spirv_ir in
  let b = Builder.create () in
  let void_t = Builder.void_ty b and float_t = Builder.float_ty b in
  let out = Builder.output_color b in
  let hb, h, params =
    Builder.begin_function b ~name:"h" ~ret:float_t ~params:[ float_t; float_t ]
  in
  Builder.start_block hb (Builder.new_label hb);
  (match params with
  | [ p0; p1 ] -> Builder.ret_value hb (Builder.fsub hb p0 p1)
  | _ -> assert false);
  ignore (Builder.end_function hb);
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  Builder.start_block fb (Builder.new_label fb);
  let v = Builder.call fb h [ Builder.cfloat b 0.25; Builder.cfloat b 0.75 ] in
  let one = Builder.cfloat b 1.0 in
  Builder.store fb out
    (Builder.composite fb ~ty:(Builder.vec4f b) [ v; one; one; one ]);
  Builder.ret fb;
  ignore (Builder.end_function fb);
  Builder.finish b ~entry:main

(* a copy whose id_bound leaves a gap: Inline allocates fresh ids from
   id_bound, so the copy optimizes to a different module *)
let with_larger_id_bound (m : Spirv_ir.Module_ir.t) =
  { m with Spirv_ir.Module_ir.id_bound = m.Spirv_ir.Module_ir.id_bound + 37 }

let memo_sweep_modules () =
  let refs = Lazy.force Corpus.lowered_references in
  let fuzzed =
    List.filteri (fun i _ -> i mod 4 = 0) refs
    |> List.mapi (fun i (name, m) ->
           let ctx = Spirv_fuzz.Context.make m Corpus.default_input in
           ( name ^ " fuzzed",
             (Spirv_fuzz.Fuzzer.run ~seed:(i + 3) ctx).Spirv_fuzz.Fuzzer.final
               .Spirv_fuzz.Context.m ))
  in
  let ms = refs @ fuzzed @ [ ("inline-swap trigger", inline_swap_module ()) ] in
  (* each copy right after its original, whose entries it must not be
     served *)
  List.concat_map
    (fun (name, m) ->
      [ (name, m); (name ^ " +id_bound", with_larger_id_bound m) ])
    ms

let test_pipeline_memo_matches_reference ~tv_first () =
  let e = Harness.Engine.create () in
  let reference = reference_engine () in
  let modules = memo_sweep_modules () in
  List.iter
    (fun (name, m) ->
      List.iter
        (fun t -> check_against_reference ~tv_first e reference name t m)
        Compilers.Target.all)
    modules;
  let s = Harness.Engine.stats e in
  Alcotest.(check bool) "targets shared pipeline outcomes" true
    (Harness.Engine.pipeline_hits s > 0);
  Alcotest.(check (option string)) "the sweep has a blame to serve"
    (Some "miscompile:SwiftShader:Inline")
    (Harness.Pipeline.tv_signature reference Compilers.Target.swiftshader
       (inline_swap_module ()));
  Alcotest.(check int) "the reference engine uses no pipeline memo" 0
    (Harness.Engine.pipeline_runs (Harness.Engine.stats reference)
    + Harness.Engine.pipeline_hits (Harness.Engine.stats reference))

(* the listing starts with OpIdBound, so the memo keys never share an
   entry between modules that differ only in id_bound *)
let test_id_bound_in_digest () =
  List.iter
    (fun (name, m) ->
      Alcotest.(check bool) (name ^ ": copy digests differently") false
        (String.equal
           (Spirv_ir.Digest.of_module m)
           (Spirv_ir.Digest.of_module (with_larger_id_bound m))))
    (Lazy.force Corpus.lowered_references)

(* a one-block main writing [build]'s float to the red channel *)
let mk_module build =
  let open Spirv_ir in
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let out = Builder.output_color b in
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  Builder.start_block fb (Builder.new_label fb);
  let v = build b fb in
  let one = Builder.cfloat b 1.0 in
  Builder.store fb out
    (Builder.composite fb ~ty:(Builder.vec4f b) [ v; one; one; one ]);
  Builder.ret fb;
  ignore (Builder.end_function fb);
  let m = Builder.finish b ~entry:main in
  (match Validate.check m with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "crafted module invalid");
  m

(* an integer division by constant zero: spirv-opt's bug_fold_div_crash
   crashes on it; AMD-LLPC runs the same passes with clean flags *)
let div_zero_module () =
  mk_module (fun b fb ->
      let open Spirv_ir in
      let q = Builder.sdiv fb (Builder.cint b 7) (Builder.cint b 0) in
      let c = Builder.ieq fb q (Builder.cint b 1) in
      Builder.select fb c (Builder.cfloat b 0.0) (Builder.cfloat b 1.0))

(* a select on bools whose condition is a local variable holding [true]:
   the full pipeline forwards the store and folds the select away, the
   light one (no Store_forward) leaves it for Mesa-Old's select-bool
   back-end crash *)
let bool_select_module () =
  mk_module (fun b fb ->
      let open Spirv_ir in
      let v = Builder.local_var fb ~pointee:(Builder.bool_ty b) in
      Builder.store fb v (Builder.cbool b true);
      let c = Builder.load fb v in
      let x =
        Builder.extract fb (Builder.load fb (Builder.frag_coord b)) [ 0 ]
      in
      let dynamic = Builder.flt fb x (Builder.cfloat b 4.0) in
      let s = Builder.select fb c dynamic (Builder.cbool b false) in
      Builder.select fb s (Builder.cfloat b 0.0) (Builder.cfloat b 1.0))

let is_crash = function Compilers.Backend.Crashed _ -> true | _ -> false

let test_key_separates_flags () =
  let m = div_zero_module () in
  let amd = Compilers.Target.amd_llpc and spv = Compilers.Target.spirv_opt in
  Alcotest.(check bool) "same pipeline" true
    (amd.Compilers.Target.pipeline = spv.Compilers.Target.pipeline);
  let reference = reference_engine () in
  let run e t = Harness.Engine.run e t m Corpus.default_input in
  Alcotest.(check bool) "spirv-opt crashes (reference)" true
    (is_crash (run reference spv));
  Alcotest.(check bool) "AMD-LLPC does not crash (reference)" false
    (is_crash (run reference amd));
  (* either target first: the second must not be served the first's
     entry *)
  List.iter
    (fun order ->
      let e = Harness.Engine.create () in
      List.iter
        (fun (t : Compilers.Target.t) ->
          Alcotest.check run_result_t t.Compilers.Target.name (run reference t)
            (run e t);
          Alcotest.(check bool) (t.Compilers.Target.name ^ ": blame") true
            (Harness.Engine.tv_blame e t m
            = Harness.Engine.tv_blame reference t m))
        order;
      (* AMD-LLPC's run and its blame, spirv-opt's run; spirv-opt's
         blame is its stored crash *)
      Alcotest.(check int) "pipeline runs" 3
        (Harness.Engine.pipeline_runs (Harness.Engine.stats e)))
    [ [ amd; spv ]; [ spv; amd ] ]

(* Mesa runs the full pipeline, Mesa-Old the light one, both with clean
   flags.  On the witness Mesa-Old's result changes when it is handed the
   full pipeline's output, which a key without the pipeline would give
   it. *)
let test_key_separates_pipeline () =
  let mesa = Compilers.Target.mesa and old = Compilers.Target.mesa_old in
  Alcotest.(check bool) "same flags" true
    (mesa.Compilers.Target.opt_flags = old.Compilers.Target.opt_flags);
  let m = bool_select_module () in
  let input = Corpus.default_input in
  Alcotest.(check bool) "the witness tells the pipelines apart" true
    (Compilers.Backend.run old m input
    <> Compilers.Backend.run
         ~optimize:(Compilers.Backend.target_optimize mesa)
         old m input);
  let reference = reference_engine () in
  List.iter
    (fun order ->
      let e = Harness.Engine.create () in
      List.iter
        (fun t ->
          check_against_reference ~tv_first:false e reference "witness" t m)
        order)
    [ [ mesa; old ]; [ old; mesa ] ]

let test_pipeline_memo_accounting () =
  let m = List.assoc "gradient" (Lazy.force Corpus.lowered_references) in
  let m2 = List.assoc "helper_distance" (Lazy.force Corpus.lowered_references) in
  (* AMD-LLPC compiles without executing: no render, so a run fills the
     run memo, the pipeline memo and the verdict memo only *)
  let amd = Compilers.Target.amd_llpc in
  let run e m = ignore (Harness.Engine.run e amd m Corpus.default_input) in
  let e = Harness.Engine.create ~memo_capacity:1 () in
  let reference = Harness.Engine.create ~memo_capacity:1 ~compiled:false () in
  run e m;
  run reference m;
  let s = Harness.Engine.stats e and r = Harness.Engine.stats reference in
  Alcotest.(check int) "memo_entries counts the pipeline and verdict tables"
    (r.Harness.Engine.memo_entries + 2) s.Harness.Engine.memo_entries;
  run e m2;
  run reference m2;
  let s = Harness.Engine.stats e and r = Harness.Engine.stats reference in
  Alcotest.(check int) "memo_evictions counts the pipeline and verdict tables"
    (r.Harness.Engine.memo_evictions + 2) s.Harness.Engine.memo_evictions;
  (* a blame on the same configuration reuses nothing of a plain run's
     entry but the module; a second one is a hit *)
  let mesa = Compilers.Target.mesa in
  let blame () = ignore (Harness.Engine.tv_blame e mesa m2) in
  blame ();
  blame ();
  let s = Harness.Engine.stats e in
  Alcotest.(check (pair int int)) "pipeline runs and hits" (3, 1)
    (Harness.Engine.pipeline_runs s, Harness.Engine.pipeline_hits s);
  Harness.Engine.reset e;
  Alcotest.(check int) "reset empties every table" 0
    (Harness.Engine.stats e).Harness.Engine.memo_entries;
  run e m2;
  Alcotest.(check (pair int int)) "a run after reset runs the pipeline" (1, 0)
    (let s = Harness.Engine.stats e in
     (Harness.Engine.pipeline_runs s, Harness.Engine.pipeline_hits s))

let stage_clock (s : Harness.Engine.stats) k =
  Option.value ~default:0.0 (List.assoc_opt k s.Harness.Engine.stages)

(* The validator's verdict is a function of the optimized module, so it
   is memoized by that module's digest: AMD-LLPC and Mesa share a
   configuration, and the second target's run validates nothing. *)
let test_validation_once_per_entry () =
  let m = List.assoc "gradient" (Lazy.force Corpus.lowered_references) in
  let e = Harness.Engine.create () in
  let run (t : Compilers.Target.t) =
    match Harness.Engine.run e t m Corpus.default_input with
    | Compilers.Backend.Crashed s ->
        Alcotest.failf "%s crashes: %s" t.Compilers.Target.name s
    | Compilers.Backend.Rendered _ | Compilers.Backend.Compiled_ok ->
        Harness.Engine.stats e
  in
  Alcotest.(check string) "one configuration"
    (Compilers.Target.config_key Compilers.Target.amd_llpc)
    (Compilers.Target.config_key Compilers.Target.mesa);
  let s1 = run Compilers.Target.amd_llpc in
  let s2 = run Compilers.Target.mesa in
  Alcotest.(check bool) "the first run validates" true
    (stage_clock s1 "execute/validate" > 0.0);
  Alcotest.(check (float 0.0)) "the second run validates nothing"
    (stage_clock s1 "execute/validate") (stage_clock s2 "execute/validate");
  Alcotest.(check int) "two runs" 2 s2.Harness.Engine.runs_executed

(* Two configurations that optimize a module to the same value share its
   verdict too: Mesa's clean flags and SwiftShader's inline bug agree on
   a module whose calls take no constant arguments. *)
let test_validation_once_per_module () =
  let m = List.assoc "gradient" (Lazy.force Corpus.lowered_references) in
  let mesa, swift = Compilers.Target.(mesa, swiftshader) in
  Alcotest.(check bool) "two configurations" false
    (String.equal
       (Compilers.Target.config_key mesa)
       (Compilers.Target.config_key swift));
  (match
     Compilers.Backend.(target_optimize mesa m, target_optimize swift m)
   with
  | Ok a, Ok b ->
      Alcotest.(check bool) "one optimized module" true
        (Spirv_ir.Module_ir.equal_exact a b)
  | _ -> Alcotest.fail "an optimizer crashed");
  let e = Harness.Engine.create () in
  let run t = ignore (Harness.Engine.run e t m Corpus.default_input) in
  run mesa;
  let s1 = Harness.Engine.stats e in
  run swift;
  let s2 = Harness.Engine.stats e in
  Alcotest.(check int) "each configuration runs its optimizer" 2
    (Harness.Engine.pipeline_runs s2);
  Alcotest.(check bool) "the first run validates" true
    (stage_clock s1 "execute/validate" > 0.0);
  Alcotest.(check (float 0.0)) "the second configuration validates nothing"
    (stage_clock s1 "execute/validate") (stage_clock s2 "execute/validate")

(* ------------------------------------------------------------------ *)
(* Domain-parallel campaigns *)

let test_parallel_campaign domains () =
  let expected = Lazy.force baseline_hits in
  let par =
    Harness.Experiments.run_campaign ~engine:(Harness.Engine.create ())
      ~scale ~domains tool
  in
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
  let expected =
    Harness.Experiments.run_campaign ~engine:(Harness.Engine.create ())
      ~scale:small tool
  in
  let par =
    Harness.Experiments.run_campaign ~engine:(Harness.Engine.create ())
      ~scale:small ~domains:16 tool
  in
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
    Harness.Experiments.run_campaign ~engine:(Harness.Engine.create ())
      ~scale ~domains:3
      ~on_seed:(fun seed _ -> if seed = 7 then raise Hook_failure)
      tool
  with
  | _ -> Alcotest.fail "raising on_seed did not propagate"
  | exception Hook_failure -> ()

(* ------------------------------------------------------------------ *)
(* Staged crash probes.  The engine decides a crash-signature probe at the
   backend stage that can produce the signature; the oracle is the
   unstaged formulation it replaced: Engine.run on a reference engine,
   signature equality, and the clean -O retry when the detection came
   via_opt. *)

let oracle_crashes e (t : Compilers.Target.t)
    (d : Harness.Pipeline.detection) m input =
  let crashes m =
    match Harness.Engine.run e t m input with
    | Compilers.Backend.Crashed s -> String.equal s d.Harness.Pipeline.signature
    | Compilers.Backend.Rendered _ | Compilers.Backend.Compiled_ok -> false
  in
  crashes m
  || d.Harness.Pipeline.via_opt
     &&
     match Harness.Engine.optimize e m with
     | Ok optimized -> crashes optimized
     | Error _ -> false

let is_crash (h : Harness.Experiments.hit) =
  not
    (Harness.Signature.is_miscompilation
       h.Harness.Experiments.hit_detection.Harness.Pipeline.signature)

(* crash hits of two small campaigns: spirv-fuzz-simple seeds 0-59 give
   front-end, after-opt, invalid-output and device-lost signatures, and
   spirv-fuzz seeds 0-210 add the phi-arity bugs (seed 210) *)
let staged_hits =
  lazy
    (List.concat_map
       (fun (tool, seeds) ->
         Harness.Experiments.run_campaign ~engine:(Harness.Engine.create ())
           ~scale:{ scale with Harness.Experiments.seeds } tool)
       [ (Harness.Pipeline.Spirv_fuzz_simple, 60); (tool, 211) ]
    |> List.filter is_crash)

let target_of (h : Harness.Experiments.hit) =
  Option.get (Compilers.Target.find h.Harness.Experiments.hit_target)

let regenerate (h : Harness.Experiments.hit) =
  let ((_, ref_source, ref_module) as r) =
    List.find
      (fun (n, _, _) -> String.equal n h.Harness.Experiments.hit_ref)
      (Harness.Experiments.references_for h.Harness.Experiments.hit_tool)
  in
  ( r,
    Harness.Pipeline.generate h.Harness.Experiments.hit_tool ~ref_source
      ~ref_module ~seed:h.Harness.Experiments.hit_seed
      ~input:Corpus.default_input )

(* a module's crash on the target, from [Backend.run], with the first of
   the backend's stages that already produces it: the front end alone,
   then the front end and compile stage, else the execute stage *)
let reported_crash (t : Compilers.Target.t) m input =
  match Compilers.Backend.run t m input with
  | Compilers.Backend.Rendered _ | Compilers.Backend.Compiled_ok -> None
  | Compilers.Backend.Crashed s ->
      let stage =
        if Compilers.Backend.front_end t m = Some s then Compilers.Backend.Front_end
        else if Compilers.Backend.compile t m = Error s then Compilers.Backend.Compile
        else Compilers.Backend.Execute
      in
      Some (stage, s)

let stage_name = function
  | Compilers.Backend.Front_end -> "front end"
  | Compilers.Backend.Compile -> "compile"
  | Compilers.Backend.Execute -> "execute"

(* The catalogue facts [Backend.stage_of_signature] rests on, and its
   agreement with the stage the backend reports on every campaign hit.
   Optimizer crashes come from pass bugs, not from the crash catalogue:
   every one a pass bug raises on the division-by-zero witness or on a
   hit's variant must classify as a compile-stage signature on every
   target. *)
let test_stage_catalogue_guard () =
  let sigs =
    List.map (fun (b : Compilers.Bug.crash_spec) -> b.Compilers.Bug.signature)
      Compilers.Bug.all_crash_bugs
  in
  Alcotest.(check int) "crash signatures pairwise distinct"
    (List.length sigs)
    (List.length (List.sort_uniq String.compare sigs));
  List.iter
    (fun s ->
      List.iter
        (fun prefix ->
          if String.starts_with ~prefix s then
            Alcotest.failf "crash signature %S starts with %S" s prefix)
        [ "device lost"; "miscompil"; "optimizer emitted invalid module" ])
    sigs;
  let hits = Lazy.force staged_hits in
  Alcotest.(check bool) "the campaigns have crash hits" true (hits <> []);
  let variants = ref [ div_zero_module (); bool_select_module () ] in
  List.iter
    (fun (h : Harness.Experiments.hit) ->
      let t = target_of h in
      let d = h.Harness.Experiments.hit_detection in
      let _, g = regenerate h in
      variants := g.Harness.Pipeline.gen_variant :: !variants;
      let m =
        if d.Harness.Pipeline.via_opt then
          Result.get_ok (Compilers.Optimizer.optimize g.Harness.Pipeline.gen_variant)
        else g.Harness.Pipeline.gen_variant
      in
      match reported_crash t m g.Harness.Pipeline.gen_input with
      | None ->
          Alcotest.failf "seed %d on %s: no crash" h.Harness.Experiments.hit_seed
            t.Compilers.Target.name
      | Some (stage, s) ->
          Alcotest.(check string) "the backend reports the hit's signature"
            d.Harness.Pipeline.signature s;
          Alcotest.(check string)
            (Printf.sprintf "seed %d on %s: classifier = reported stage of %S"
               h.Harness.Experiments.hit_seed t.Compilers.Target.name s)
            (stage_name stage)
            (stage_name (Compilers.Backend.stage_of_signature t s)))
    hits;
  let optimizer_crashes =
    List.concat_map
      (fun (pb : Compilers.Bug.pass_bug_spec) ->
        let t =
          {
            Compilers.Target.spirv_opt with
            Compilers.Target.opt_flags =
              pb.Compilers.Bug.pb_enable Compilers.Passes.no_bugs;
          }
        in
        List.filter_map
          (fun m ->
            match Compilers.Backend.target_optimize t m with
            | Error s -> Some s
            | Ok _ -> None)
          !variants)
      Compilers.Bug.all_pass_bugs
    |> List.sort_uniq String.compare
  in
  Alcotest.(check bool) "a pass bug crashes the optimizer" true
    (optimizer_crashes <> []);
  List.iter
    (fun s ->
      List.iter
        (fun (t : Compilers.Target.t) ->
          Alcotest.(check string)
            (Printf.sprintf "optimizer crash %S on %s" s t.Compilers.Target.name)
            "compile"
            (stage_name (Compilers.Backend.stage_of_signature t s)))
        Compilers.Target.all)
    optimizer_crashes

(* For the first hit of every signature, the staged interestingness
   verdict equals the oracle's on every ddmin candidate.  Two hits are
   also checked with via_opt forced on, since no crash hit of these
   campaigns comes via_opt. *)
let test_staged_probes_exact () =
  let hits = Lazy.force staged_hits in
  let firsts =
    List.fold_left
      (fun acc (h : Harness.Experiments.hit) ->
        let s = h.Harness.Experiments.hit_detection.Harness.Pipeline.signature in
        if
          List.exists
            (fun (g : Harness.Experiments.hit) ->
              String.equal s g.Harness.Experiments.hit_detection.Harness.Pipeline.signature)
            acc
        then acc
        else h :: acc)
      [] hits
    |> List.rev
  in
  let stage_of (h : Harness.Experiments.hit) =
    Compilers.Backend.stage_of_signature (target_of h)
      h.Harness.Experiments.hit_detection.Harness.Pipeline.signature
  in
  let covers pred what =
    Alcotest.(check bool) ("covers " ^ what) true (List.exists pred firsts)
  in
  let sig_of (h : Harness.Experiments.hit) =
    h.Harness.Experiments.hit_detection.Harness.Pipeline.signature
  in
  covers (fun h -> stage_of h = Compilers.Backend.Front_end) "a front-end signature";
  covers
    (fun h ->
      List.exists
        (fun (b : Compilers.Bug.crash_spec) ->
          b.Compilers.Bug.phase = Compilers.Bug.After_opt
          && String.equal b.Compilers.Bug.signature (sig_of h))
        Compilers.Bug.all_crash_bugs)
    "an after-opt signature";
  covers
    (fun h -> String.starts_with ~prefix:"optimizer emitted invalid module" (sig_of h))
    "an invalid-output signature";
  covers (fun h -> stage_of h = Compilers.Backend.Execute) "a device-lost signature";
  let forced =
    List.filter_map
      (fun stage ->
        Option.map
          (fun (h : Harness.Experiments.hit) ->
            {
              h with
              Harness.Experiments.hit_detection =
                { h.Harness.Experiments.hit_detection with Harness.Pipeline.via_opt = true };
            })
          (List.find_opt (fun h -> stage_of h = stage) firsts))
      [ Compilers.Backend.Front_end; Compilers.Backend.Compile ]
  in
  let checked = ref 0 in
  List.iter
    (fun (h : Harness.Experiments.hit) ->
      let t = target_of h in
      let d = h.Harness.Experiments.hit_detection in
      let (ref_name, _, ref_module), g = regenerate h in
      let staged =
        Harness.Pipeline.interestingness (Harness.Engine.create ()) t ~ref_name
          ~original:ref_module ~detection:d Corpus.default_input
      in
      let reference = Harness.Engine.create ~compiled:false () in
      let is_interesting m input =
        let verdict = staged m input in
        incr checked;
        if verdict <> oracle_crashes reference t d m input then
          Alcotest.failf "seed %d on %s (%S, via_opt %b): staged says %b"
            h.Harness.Experiments.hit_seed t.Compilers.Target.name
            d.Harness.Pipeline.signature d.Harness.Pipeline.via_opt verdict;
        verdict
      in
      Alcotest.(check bool) "the hit reproduces" true
        (is_interesting g.Harness.Pipeline.gen_variant g.Harness.Pipeline.gen_input);
      ignore (g.Harness.Pipeline.gen_reduce ~is_interesting))
    (firsts @ forced);
  Alcotest.(check bool) "ddmin candidates checked" true (!checked > 100)

(* A front-end probe runs no later stage: no backend run, no target
   optimizer, no lowering; only the front-end counters move. *)
let test_front_end_probe_runs_front_end_only () =
  let h =
    List.find
      (fun h ->
        Compilers.Backend.stage_of_signature (target_of h)
          h.Harness.Experiments.hit_detection.Harness.Pipeline.signature
        = Compilers.Backend.Front_end)
      (Lazy.force staged_hits)
  in
  let t = target_of h in
  let (ref_name, _, ref_module), g = regenerate h in
  let e = Harness.Engine.create () in
  ignore (Harness.Engine.baseline e t ~ref_name ref_module Corpus.default_input);
  let probe () =
    Harness.Pipeline.interestingness e t ~ref_name ~original:ref_module
      ~detection:h.Harness.Experiments.hit_detection Corpus.default_input
      g.Harness.Pipeline.gen_variant g.Harness.Pipeline.gen_input
  in
  let counter (s : Harness.Engine.stats) k =
    Option.value ~default:0 (List.assoc_opt k s.Harness.Engine.counters)
  in
  let s0 = Harness.Engine.stats e in
  Alcotest.(check bool) "interesting" true (probe ());
  let s1 = Harness.Engine.stats e in
  Alcotest.(check bool) "interesting again" true (probe ());
  let s2 = Harness.Engine.stats e in
  List.iter
    (fun (what, f) ->
      Alcotest.(check int) (what ^ " unchanged") (f s0) (f s2))
    [
      ("runs_executed", fun s -> s.Harness.Engine.runs_executed);
      ("pipeline-runs", Harness.Engine.pipeline_runs);
      ("compiles", fun s -> s.Harness.Engine.compiles);
      ("store_writes", fun s -> s.Harness.Engine.store_writes);
    ];
  List.iter
    (fun k ->
      Alcotest.(check (float 0.0)) (k ^ " clock unchanged") (stage_clock s0 k)
        (stage_clock s2 k))
    [ "execute/optimize"; "execute/validate"; "execute/render" ];
  Alcotest.(check int) "one front-end miss" 1
    (counter s1 "stage-memo:front-misses" - counter s0 "stage-memo:front-misses");
  Alcotest.(check bool) "the front-end clock ran" true
    (stage_clock s1 "execute/front" > stage_clock s0 "execute/front");
  Alcotest.(check int) "the repeat is a front-end hit" 1
    (counter s2 "stage-memo:front-hits" - counter s1 "stage-memo:front-hits");
  Alcotest.(check int) "counted as a memo hit" 1
    (s2.Harness.Engine.cache_hits - s1.Harness.Engine.cache_hits);
  Harness.Engine.reset e;
  let s3 = Harness.Engine.stats e in
  Alcotest.(check int) "reset empties every memo" 0 s3.Harness.Engine.memo_entries;
  Alcotest.(check int) "reset clears the stage counters" 0
    (counter s3 "stage-memo:front-hits")

(* A replayed staged reduction does no backend work at all: for a
   front-end and a compile-stage hit, reducing it again on the same engine
   adds no full run and no stage-memo miss, only hits. *)
let test_staged_replay_runs_no_stage () =
  let counter (s : Harness.Engine.stats) k =
    Option.value ~default:0 (List.assoc_opt k s.Harness.Engine.counters)
  in
  let misses s = counter s "stage-memo:front-misses" in
  List.iter
    (fun stage ->
      let h =
        List.find
          (fun h ->
            Compilers.Backend.stage_of_signature (target_of h)
              h.Harness.Experiments.hit_detection.Harness.Pipeline.signature
            = stage)
          (Lazy.force staged_hits)
      in
      let e = Harness.Engine.create () in
      let first = Harness.Experiments.reduce_hit e h in
      let s1 = Harness.Engine.stats e in
      let second = Harness.Experiments.reduce_hit e h in
      let s2 = Harness.Engine.stats e in
      let what = stage_name stage in
      Alcotest.(check bool) (what ^ ": the hit reduces") true (Option.is_some first);
      Alcotest.(check bool) (what ^ ": same outcome") true (first = second);
      Alcotest.(check bool) (what ^ ": the first reduction probes stages") true
        (misses s1 > 0);
      Alcotest.(check int) (what ^ ": the replay adds no stage-memo miss")
        (misses s1) (misses s2);
      Alcotest.(check int) (what ^ ": the replay adds no full run")
        s1.Harness.Engine.runs_executed s2.Harness.Engine.runs_executed;
      Alcotest.(check bool) (what ^ ": hit rate below 1 after misses") true
        (s2.Harness.Engine.hit_rate < 1.0))
    [ Compilers.Backend.Front_end; Compilers.Backend.Compile ]

(* A compile-stage probe on a module that a run has already compiled is
   answered by the pipeline entry the run filled: its optimized module and
   its verdict.  The invalid-output signature is the validator's own. *)
let test_compile_probe_after_run () =
  let h =
    List.find
      (fun (h : Harness.Experiments.hit) ->
        String.starts_with ~prefix:"optimizer emitted invalid module"
          h.Harness.Experiments.hit_detection.Harness.Pipeline.signature)
      (Lazy.force staged_hits)
  in
  let t = target_of h in
  let signature = h.Harness.Experiments.hit_detection.Harness.Pipeline.signature in
  let _, g = regenerate h in
  let m = g.Harness.Pipeline.gen_variant and input = g.Harness.Pipeline.gen_input in
  let e = Harness.Engine.create () in
  Alcotest.(check bool) "the run crashes with the signature" true
    (Harness.Engine.run e t m input = Compilers.Backend.Crashed signature);
  let s1 = Harness.Engine.stats e in
  Alcotest.(check bool) "the probe answers true" true
    (Harness.Engine.crashes_with e t m input signature);
  let s2 = Harness.Engine.stats e in
  Alcotest.(check int) "no optimizer run" (Harness.Engine.pipeline_runs s1)
    (Harness.Engine.pipeline_runs s2);
  Alcotest.(check (float 0.0)) "no validation"
    (stage_clock s1 "execute/validate") (stage_clock s2 "execute/validate");
  Alcotest.(check int) "no full run" s1.Harness.Engine.runs_executed
    s2.Harness.Engine.runs_executed

(* The reduction output itself, pinned: every reduced crash test of the
   30-seed campaign, by target, transformation types and the minimized
   module's listing.  The byte-equality gates compare two settings of the
   same code; this constant holds across changes. *)
let test_reduced_crash_tests_pinned () =
  let tests =
    Harness.Experiments.reduced_crash_tests ~scale
      ~engine:(Harness.Engine.create ()) ~hits:(Lazy.force baseline_hits) ()
  in
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun (target, (d : Harness.Experiments.dedup_test)) ->
      Buffer.add_string b target;
      Buffer.add_char b '\n';
      Buffer.add_string b (String.concat " " d.Harness.Experiments.dd_types);
      Buffer.add_char b '\n';
      Buffer.add_string b (Spirv_ir.Disasm.to_string d.Harness.Experiments.dd_module))
    tests;
  Alcotest.(check int) "reduced tests" 15 (List.length tests);
  Alcotest.(check string) "reduced tests MD5" "9067fe44c4df29ae9c985b1f1e56ed60"
    (Stdlib.Digest.to_hex (Stdlib.Digest.string (Buffer.contents b)))

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
          Alcotest.test_case "engine runs on bit-distinct inputs" `Quick
            test_engine_run_exact_inputs;
          Alcotest.test_case "listing bytes pinned" `Quick
            test_listing_bytes_pinned;
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
      ( "pipeline",
        [
          Alcotest.test_case "memo = reference, run first" `Slow
            (test_pipeline_memo_matches_reference ~tv_first:false);
          Alcotest.test_case "memo = reference, TV first" `Slow
            (test_pipeline_memo_matches_reference ~tv_first:true);
          Alcotest.test_case "id_bound is part of the digest" `Quick
            test_id_bound_in_digest;
          Alcotest.test_case "key separates flags" `Quick
            test_key_separates_flags;
          Alcotest.test_case "key separates pipelines" `Slow
            test_key_separates_pipeline;
          Alcotest.test_case "accounting and reset" `Quick
            test_pipeline_memo_accounting;
          Alcotest.test_case "validation once per config entry" `Quick
            test_validation_once_per_entry;
          Alcotest.test_case "validation once per optimized module" `Quick
            test_validation_once_per_module;
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
      ( "staged",
        [
          Alcotest.test_case "catalogue guard" `Slow test_stage_catalogue_guard;
          Alcotest.test_case "probes = unstaged oracle" `Slow
            test_staged_probes_exact;
          Alcotest.test_case "front-end probe runs no later stage" `Slow
            test_front_end_probe_runs_front_end_only;
          Alcotest.test_case "staged replay runs no stage" `Slow
            test_staged_replay_runs_no_stage;
          Alcotest.test_case "compile probe reuses the run's entry" `Slow
            test_compile_probe_after_run;
          Alcotest.test_case "reduced crash tests pinned" `Slow
            test_reduced_crash_tests_pinned;
        ] );
    ]
