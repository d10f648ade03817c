(* Tests for the gfauto-analog harness: statistics, Venn partitions,
   signatures, the test pipeline and small-scale experiment drivers. *)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_median () =
  Alcotest.(check (float 1e-9)) "odd" 3.0 (Harness.Stats.median [ 1.0; 5.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "even" 2.5 (Harness.Stats.median [ 1.0; 2.0; 3.0; 4.0 ]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Harness.Stats.median []))

let test_normal_cdf () =
  Alcotest.(check (float 1e-3)) "cdf(0)" 0.5 (Harness.Stats.normal_cdf 0.0);
  Alcotest.(check (float 1e-3)) "cdf(1.96)" 0.975 (Harness.Stats.normal_cdf 1.96);
  Alcotest.(check (float 1e-3)) "cdf(-1.96)" 0.025 (Harness.Stats.normal_cdf (-1.96))

let test_mwu_clear_separation () =
  let a = [ 10.0; 11.0; 12.0; 13.0; 14.0; 15.0; 16.0; 17.0; 18.0; 19.0 ] in
  let b = [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0; 9.5 ] in
  let r = Harness.Stats.mann_whitney_u a b in
  Alcotest.(check bool) "A clearly greater" true (r.Harness.Stats.confidence_a_greater > 0.99);
  let r' = Harness.Stats.mann_whitney_u b a in
  Alcotest.(check bool) "B clearly smaller" true (r'.Harness.Stats.confidence_a_greater < 0.01)

let test_mwu_identical_samples () =
  let a = [ 5.0; 5.0; 5.0; 5.0 ] in
  let r = Harness.Stats.mann_whitney_u a a in
  Alcotest.(check (float 0.02)) "all ties -> 50%" 0.5 r.Harness.Stats.confidence_a_greater

let test_mwu_known_value () =
  (* hand-computable example: A = [3;4], B = [1;2]; U_A = 4, mu = 2,
     sigma = sqrt(4*5/12) ~ 1.29, z ~ 1.549 -> ~0.939 *)
  let r = Harness.Stats.mann_whitney_u [ 3.0; 4.0 ] [ 1.0; 2.0 ] in
  Alcotest.(check (float 1e-9)) "U statistic" 4.0 r.Harness.Stats.u_statistic;
  Alcotest.(check (float 0.01)) "confidence" 0.939 r.Harness.Stats.confidence_a_greater

let test_verdict_formatting () =
  Alcotest.(check string) "yes" "Yes (99.98%)" (Harness.Stats.verdict 0.9998);
  Alcotest.(check string) "no" "No (14.99%)" (Harness.Stats.verdict 0.1499)

(* ------------------------------------------------------------------ *)
(* Venn *)

module SS = Harness.Venn.String_set

let test_venn_partition () =
  let a = SS.of_list [ "x"; "y"; "z"; "w" ] in
  let b = SS.of_list [ "y"; "z"; "q" ] in
  let c = SS.of_list [ "z"; "w"; "q"; "r" ] in
  let v = Harness.Venn.partition ~a ~b ~c in
  Alcotest.(check int) "only a" 1 v.Harness.Venn.only_a;     (* x *)
  Alcotest.(check int) "only b" 0 v.Harness.Venn.only_b;
  Alcotest.(check int) "only c" 1 v.Harness.Venn.only_c;     (* r *)
  Alcotest.(check int) "ab" 1 v.Harness.Venn.ab;             (* y *)
  Alcotest.(check int) "ac" 1 v.Harness.Venn.ac;             (* w *)
  Alcotest.(check int) "bc" 1 v.Harness.Venn.bc;             (* q *)
  Alcotest.(check int) "abc" 1 v.Harness.Venn.abc;           (* z *)
  Alcotest.(check int) "total = |union|" 6 (Harness.Venn.total v)

let prop_venn_total =
  QCheck.Test.make ~name:"venn total equals union cardinality" ~count:200
    QCheck.(triple (small_list (int_bound 20)) (small_list (int_bound 20)) (small_list (int_bound 20)))
    (fun (xa, xb, xc) ->
      let s xs = SS.of_list (List.map string_of_int xs) in
      let a = s xa and b = s xb and c = s xc in
      Harness.Venn.total (Harness.Venn.partition ~a ~b ~c)
      = SS.cardinal (SS.union a (SS.union b c)))

(* ------------------------------------------------------------------ *)
(* Signatures *)

let test_signature_roundtrip () =
  List.iter
    (fun (spec : Compilers.Bug.crash_spec) ->
      Alcotest.(check string)
        ("bug id for " ^ spec.Compilers.Bug.bug_id)
        spec.Compilers.Bug.bug_id
        (Harness.Signature.bug_id_of_signature spec.Compilers.Bug.signature))
    Compilers.Bug.all_crash_bugs

let test_signature_derived () =
  Alcotest.(check string) "invalid output" "opt-invalid-output"
    (Harness.Signature.bug_id_of_signature
       "optimizer emitted invalid module: function %3, block %5: boom");
  Alcotest.(check string) "device lost" "device-lost"
    (Harness.Signature.bug_id_of_signature "device lost (timeout)");
  Alcotest.(check string) "miscompilation" "miscompilation"
    (Harness.Signature.bug_id_of_signature Harness.Signature.miscompilation)

(* ------------------------------------------------------------------ *)
(* Pipeline *)

let swiftshader = Compilers.Target.swiftshader

let dontinline_variant () =
  let m = List.assoc "helper_distance" (Lazy.force Corpus.lowered_references) in
  {
    m with
    Spirv_ir.Module_ir.functions =
      List.map
        (fun (f : Spirv_ir.Func.t) ->
          if not (Spirv_ir.Id.equal f.Spirv_ir.Func.id m.Spirv_ir.Module_ir.entry) then
            { f with Spirv_ir.Func.control = Spirv_ir.Func.DontInline }
          else f)
        m.Spirv_ir.Module_ir.functions;
  }

let test_pipeline_detects_crash () =
  let original = List.assoc "helper_distance" (Lazy.force Corpus.lowered_references) in
  let variant = dontinline_variant () in
  match
    Harness.Pipeline.run_variant (Harness.Engine.create ()) swiftshader
      ~ref_name:"helper_distance" ~original ~variant Corpus.default_input
  with
  | Some d ->
      Alcotest.(check string) "bug id" "dontinline-call"
        (Harness.Signature.bug_id_of_signature d.Harness.Pipeline.signature)
  | None -> Alcotest.fail "pipeline missed the crash"

let test_pipeline_no_detection_on_identity () =
  let original = List.assoc "gradient" (Lazy.force Corpus.lowered_references) in
  match
    Harness.Pipeline.run_variant (Harness.Engine.create ()) swiftshader
      ~ref_name:"gradient" ~original ~variant:original Corpus.default_input
  with
  | None -> ()
  | Some d -> Alcotest.failf "spurious detection: %s" d.Harness.Pipeline.signature

let test_interestingness_reproduces () =
  let engine = Harness.Engine.create () in
  let original = List.assoc "helper_distance" (Lazy.force Corpus.lowered_references) in
  let variant = dontinline_variant () in
  match
    Harness.Pipeline.run_variant engine swiftshader ~ref_name:"helper_distance"
      ~original ~variant Corpus.default_input
  with
  | None -> Alcotest.fail "no detection"
  | Some detection ->
      let test =
        Harness.Pipeline.interestingness engine swiftshader
          ~ref_name:"helper_distance" ~original ~detection Corpus.default_input
      in
      Alcotest.(check bool) "variant interesting" true
        (test variant Corpus.default_input);
      Alcotest.(check bool) "original boring" false
        (test original Corpus.default_input)

(* ------------------------------------------------------------------ *)
(* Small campaign smoke (deterministic) *)

let small_scale = { Harness.Experiments.default_scale with Harness.Experiments.seeds = 40 }

let campaign =
  lazy
    (Harness.Experiments.run_campaign ~engine:(Harness.Engine.create ())
       ~scale:small_scale Harness.Pipeline.Spirv_fuzz_tool)

let test_campaign_is_deterministic () =
  let a = Lazy.force campaign in
  let b =
    Harness.Experiments.run_campaign ~engine:(Harness.Engine.create ())
      ~scale:small_scale Harness.Pipeline.Spirv_fuzz_tool
  in
  Alcotest.(check int) "same size" (List.length a) (List.length b);
  List.iter2
    (fun (x : Harness.Experiments.hit) (y : Harness.Experiments.hit) ->
      Alcotest.(check string) "same signature"
        x.Harness.Experiments.hit_detection.Harness.Pipeline.signature
        y.Harness.Experiments.hit_detection.Harness.Pipeline.signature)
    a b

let test_campaign_finds_something () =
  Alcotest.(check bool) "some detections" true (Lazy.force campaign <> [])

let test_reduce_miscompilation_hit () =
  (* reductions must also work for image-mismatch detections, where the
     interestingness test compares images rather than signatures *)
  match
    List.find_opt
      (fun (h : Harness.Experiments.hit) ->
        Harness.Signature.is_miscompilation
          h.Harness.Experiments.hit_detection.Harness.Pipeline.signature)
      (Lazy.force campaign)
  with
  | None -> () (* no miscompilation at this small scale: acceptable *)
  | Some h -> (
      match Harness.Experiments.reduce_hit (Harness.Engine.create ()) h with
      | None -> Alcotest.fail "miscompilation did not reproduce under reduction"
      | Some outcome ->
          Alcotest.(check string) "signature" "miscompilation"
            outcome.Harness.Experiments.red_signature;
          Alcotest.(check bool) "kept at least one transformation" true
            (outcome.Harness.Experiments.red_kept >= 1))

let test_reduce_hit_reproduces () =
  match
    List.find_opt
      (fun (h : Harness.Experiments.hit) ->
        not
          (Harness.Signature.is_miscompilation
             h.Harness.Experiments.hit_detection.Harness.Pipeline.signature))
      (Lazy.force campaign)
  with
  | None -> Alcotest.fail "no crash hit in the small campaign"
  | Some h -> (
      match Harness.Experiments.reduce_hit (Harness.Engine.create ()) h with
      | None -> Alcotest.fail "reduction did not reproduce the detection"
      | Some outcome ->
          Alcotest.(check bool) "kept <= initial" true
            (outcome.Harness.Experiments.red_kept
            <= outcome.Harness.Experiments.red_initial);
          Alcotest.(check bool) "delta nonnegative" true
            (outcome.Harness.Experiments.red_delta >= 0))

(* a crash hit of the dedup study on the tool's first reference, found by
   the campaign's own generate-and-run over successive seeds *)
let head_ref_crash_hit engine =
  let tool = Harness.Pipeline.Spirv_fuzz_tool in
  let ref_name, ref_source, ref_module =
    List.hd (Harness.Experiments.references_for tool)
  in
  let hit_on seed =
    let g =
      Harness.Pipeline.generate tool ~ref_source ~ref_module ~seed
        ~input:Corpus.default_input
    in
    List.find_map
      (fun (t : Compilers.Target.t) ->
        match
          Harness.Pipeline.run_variant engine t ~ref_name ~original:ref_module
            ~variant_input:g.Harness.Pipeline.gen_input
            ~variant:g.Harness.Pipeline.gen_variant Corpus.default_input
        with
        | Some d
          when not (Harness.Signature.is_miscompilation d.Harness.Pipeline.signature)
          ->
            Some
              {
                Harness.Experiments.hit_tool = tool;
                Harness.Experiments.hit_seed = seed;
                Harness.Experiments.hit_ref = ref_name;
                Harness.Experiments.hit_target = t.Compilers.Target.name;
                Harness.Experiments.hit_detection = d;
              }
        | _ -> None)
      Compilers.Target.dedup_study
  in
  let rec search seed =
    if seed >= 200 then Alcotest.fail "no crash hit on the first reference"
    else match hit_on seed with Some h -> h | None -> search (seed + 1)
  in
  search 0

let test_unknown_ref_is_not_reduced () =
  (* a hit decoded from a journal written against a different corpus names
     a reference this corpus lacks; it must not be reduced against another
     shader, such as the first reference *)
  let engine = Harness.Engine.create () in
  let h = head_ref_crash_hit engine in
  Alcotest.(check bool) "the real hit reduces" true
    (Harness.Experiments.reduce_hit engine h <> None);
  let renamed = { h with Harness.Experiments.hit_ref = "no-such-ref" } in
  Alcotest.(check bool) "reduce_hit gives None" true
    (Harness.Experiments.reduce_hit engine renamed = None);
  Alcotest.(check int) "reduced_crash_tests drops it" 0
    (List.length
       (Harness.Experiments.reduced_crash_tests ~engine ~hits:[ renamed ] ()))

let test_table3_structure () =
  let hits = [| Lazy.force campaign; []; [] |] in
  let t3 = Harness.Experiments.table3 ~scale:small_scale ~hits () in
  Alcotest.(check int) "nine target rows" 9 (List.length t3.Harness.Experiments.rows);
  List.iter
    (fun (r : Harness.Experiments.table3_row) ->
      Alcotest.(check bool) "empty tools have zero totals" true
        (r.Harness.Experiments.t3_total.(1) = 0 && r.Harness.Experiments.t3_total.(2) = 0))
    t3.Harness.Experiments.rows

let mk_hit target signature seed =
  {
    Harness.Experiments.hit_tool = Harness.Pipeline.Spirv_fuzz_tool;
    Harness.Experiments.hit_seed = seed;
    Harness.Experiments.hit_ref = "r";
    Harness.Experiments.hit_target = target;
    Harness.Experiments.hit_detection =
      { Harness.Pipeline.signature; Harness.Pipeline.via_opt = false };
  }

(* Table 3 on a hand-made hit list: 4 seeds in 2 groups (seeds 0-1 and
   2-3).  A target row counts its distinct signatures; the All row counts
   signatures qualified by target, so NVIDIA's "a" is not Mesa's "a" and
   its totals and per-group counts are the sums of the target rows'. *)
let test_table3_hand_made () =
  let scale = { Harness.Experiments.seeds = 4; groups = 2; max_reductions_per_signature = 1 } in
  let spirv =
    [ mk_hit "Mesa" "a" 0; mk_hit "Mesa" "a" 1; mk_hit "Mesa" "b" 1;
      mk_hit "Mesa" "a" 2; mk_hit "NVIDIA" "a" 3; mk_hit "NVIDIA" "c" 3 ]
  in
  let t3 =
    Harness.Experiments.table3 ~scale ~hits:[| spirv; [ mk_hit "Mesa" "a" 0 ]; [] |] ()
  in
  let verdict a b =
    Harness.Stats.verdict (Harness.Stats.mann_whitney_u a b).Harness.Stats.confidence_a_greater
  in
  let check (r : Harness.Experiments.table3_row) ~totals ~medians ~groups =
    let name = r.Harness.Experiments.t3_target in
    Alcotest.(check (array int)) (name ^ " totals") totals r.Harness.Experiments.t3_total;
    Alcotest.(check (array (float 0.0))) (name ^ " medians") medians
      r.Harness.Experiments.t3_median;
    let g0, g1, g2 = groups in
    Alcotest.(check string) (name ^ " beats simple?") (verdict g0 g1)
      r.Harness.Experiments.t3_vs_simple;
    Alcotest.(check string) (name ^ " beats glsl?") (verdict g0 g2)
      r.Harness.Experiments.t3_vs_glsl
  in
  let row name =
    List.find
      (fun r -> String.equal r.Harness.Experiments.t3_target name)
      t3.Harness.Experiments.rows
  in
  check (row "Mesa") ~totals:[| 2; 1; 0 |] ~medians:[| 1.5; 0.5; 0.0 |]
    ~groups:([ 2.; 1. ], [ 1.; 0. ], [ 0.; 0. ]);
  check (row "NVIDIA") ~totals:[| 2; 0; 0 |] ~medians:[| 1.0; 0.0; 0.0 |]
    ~groups:([ 0.; 2. ], [ 0.; 0. ], [ 0.; 0. ]);
  check (row "SwiftShader") ~totals:[| 0; 0; 0 |] ~medians:[| 0.0; 0.0; 0.0 |]
    ~groups:([ 0.; 0. ], [ 0.; 0. ], [ 0.; 0. ]);
  check t3.Harness.Experiments.all_row ~totals:[| 4; 1; 0 |]
    ~medians:[| 2.5; 0.5; 0.0 |]
    ~groups:([ 2.; 3. ], [ 1.; 0. ], [ 0.; 0. ])

let test_cap_hits () =
  let hits = List.init 10 (mk_hit "T" "sig-a") @ List.init 3 (mk_hit "T" "sig-b") in
  let capped = Harness.Experiments.cap_hits ~per_signature:2 hits in
  Alcotest.(check int) "2 + 2" 4 (List.length capped)

let test_figure3 () =
  match Harness.Experiments.figure3 () with
  | None -> Alcotest.fail "the DontInline scenario did not reproduce"
  | Some f ->
      Alcotest.(check int) "single surviving transformation" 1
        (List.length f.Harness.Experiments.fig3_kept);
      Alcotest.(check int) "reduced variant has the original's size"
        f.Harness.Experiments.fig3_original_size f.Harness.Experiments.fig3_reduced_size;
      (* the delta is a single changed line pair *)
      let lines =
        String.split_on_char '\n' f.Harness.Experiments.fig3_delta
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "one-line-pair delta" 2 (List.length lines)

let test_figure8 () =
  let f = Harness.Experiments.figure8 () in
  Alcotest.(check bool) "8a images differ" true f.Harness.Experiments.fig8a_images_differ;
  Alcotest.(check bool) "8b images differ" true f.Harness.Experiments.fig8b_images_differ

(* ------------------------------------------------------------------ *)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "harness"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "normal cdf" `Quick test_normal_cdf;
          Alcotest.test_case "MWU clear separation" `Quick test_mwu_clear_separation;
          Alcotest.test_case "MWU identical samples" `Quick test_mwu_identical_samples;
          Alcotest.test_case "MWU known value" `Quick test_mwu_known_value;
          Alcotest.test_case "verdict formatting" `Quick test_verdict_formatting;
        ] );
      ("venn", Alcotest.test_case "partition" `Quick test_venn_partition :: qcheck [ prop_venn_total ]);
      ( "signature",
        [
          Alcotest.test_case "crash signatures round trip" `Quick test_signature_roundtrip;
          Alcotest.test_case "derived signatures" `Quick test_signature_derived;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "detects a crash" `Quick test_pipeline_detects_crash;
          Alcotest.test_case "no detection on identity variant" `Quick
            test_pipeline_no_detection_on_identity;
          Alcotest.test_case "interestingness reproduces" `Quick test_interestingness_reproduces;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "campaign deterministic" `Slow test_campaign_is_deterministic;
          Alcotest.test_case "campaign finds something" `Slow test_campaign_finds_something;
          Alcotest.test_case "reduce_hit reproduces" `Slow test_reduce_hit_reproduces;
          Alcotest.test_case "miscompilation hits reduce too" `Slow
            test_reduce_miscompilation_hit;
          Alcotest.test_case "table3 structure" `Slow test_table3_structure;
          Alcotest.test_case "cap_hits" `Quick test_cap_hits;
          Alcotest.test_case "figure 3 reproduces" `Slow test_figure3;
          Alcotest.test_case "figure 8 reproduces" `Slow test_figure8;
          Alcotest.test_case "unknown hit_ref is not reduced" `Slow
            test_unknown_ref_is_not_reduced;
          Alcotest.test_case "table3 on hand-made hits" `Quick test_table3_hand_made;
        ] );
    ]
