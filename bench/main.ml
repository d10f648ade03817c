(* Paper reproduction harness.

   Regenerates every table and figure of the paper's evaluation (section 4)
   at a configurable scale and prints them in the paper's layout;
   `--ablate` also runs the design-choice ablations called out in
   DESIGN.md.  Performance is measured by perfbench/ alone. *)

let line = String.make 78 '-'

let section title =
  Printf.printf "\n%s\n%s\n%s\n" line title line

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)

let print_table2 () =
  section "Table 2: the SPIR-V targets under test";
  Printf.printf "%-14s %-22s %-10s %s\n" "Target" "Version" "GPU type" "Latent bugs";
  List.iter
    (fun (t : Compilers.Target.t) ->
      Printf.printf "%-14s %-22s %-10s %d crash + %d miscompile\n"
        t.Compilers.Target.name t.Compilers.Target.version
        (Compilers.Target.gpu_type_to_string t.Compilers.Target.gpu)
        (List.length t.Compilers.Target.crash_bug_ids)
        (List.length t.Compilers.Target.miscompile_bug_ids))
    Compilers.Target.all

(* ------------------------------------------------------------------ *)
(* Figures 4 and 5 (the basic-blocks walkthrough)                      *)

let print_figures_4_5 () =
  section "Figures 4-5: the basic-blocks walkthrough (section 2.1)";
  let ctx0 = Bb_lang.Figures.initial_context () in
  Printf.printf "Original program (prints 6 on i=1, j=2, k=true):\n%s\n\n"
    (Bb_lang.Syntax.to_string Bb_lang.Figures.original);
  let ctx5 = Bb_lang.Transform.Apply.sequence_ctx ctx0 Bb_lang.Figures.sequence in
  Printf.printf "After T1..T5 (Figure 4):\n%s\n\n"
    (Bb_lang.Syntax.to_string ctx5.Bb_lang.Transform.program);
  let exhibits seq =
    let ctx = Bb_lang.Transform.Apply.sequence_ctx ctx0 seq in
    Bb_lang.Compiler.exhibits_bug ~impl:Bb_lang.Compiler.run_buggy ctx
  in
  let reduced, stats = Tbct.Reducer.reduce ~is_interesting:exhibits Bb_lang.Figures.sequence in
  Printf.printf "Reduction against the buggy compiler (%d queries): kept %s\n"
    stats.Tbct.Reducer.queries
    (String.concat ", " (List.map Bb_lang.Transform.type_id reduced));
  let ctx_min = Bb_lang.Transform.Apply.sequence_ctx ctx0 reduced in
  Printf.printf "\nMinimized variant P3 (Figure 5):\n%s\n"
    (Bb_lang.Syntax.to_string ctx_min.Bb_lang.Transform.program);
  Printf.printf "\nExpected minimized sequence [SplitBlock; AddDeadBlock; ChangeRHS]: %s\n"
    (if reduced = Bb_lang.Figures.minimized then "reproduced" else "NOT reproduced")

(* ------------------------------------------------------------------ *)
(* Table 3 / Figure 7                                                  *)

let tool_labels = [| "spirv-fuzz"; "spirv-fuzz-simple"; "glsl-fuzz" |]

let run_campaigns ~scale ~engine =
  let t0 = Unix.gettimeofday () in
  let hits =
    Array.map
      (fun tool ->
        let h = Harness.Experiments.run_campaign ~scale ~engine tool in
        Printf.printf "  campaign %-18s %4d detections\n%!"
          (Harness.Pipeline.tool_name tool) (List.length h);
        h)
      Harness.Experiments.tools
  in
  Printf.printf "  (campaigns took %.1fs at %d seeds per configuration)\n%!"
    (Unix.gettimeofday () -. t0) scale.Harness.Experiments.seeds;
  hits

let print_table3 ~scale ~hits =
  section "Table 3: bug-finding ability (distinct bug signatures)";
  let t3 = Harness.Experiments.table3 ~scale ~hits () in
  Printf.printf "%-14s | %-11s | %-11s | %-11s | %-14s | %s\n" "Target"
    "spirv-fuzz" "fuzz-simple" "glsl-fuzz" "beats simple?" "beats glsl?";
  Printf.printf "%-14s | %-11s | %-11s | %-11s |\n" "" "Tot  Median" "Tot  Median"
    "Tot  Median";
  let print_row (r : Harness.Experiments.table3_row) =
    Printf.printf "%-14s | %3d  %5.1f  | %3d  %5.1f  | %3d  %5.1f  | %-14s | %s\n"
      r.Harness.Experiments.t3_target
      r.Harness.Experiments.t3_total.(0) r.Harness.Experiments.t3_median.(0)
      r.Harness.Experiments.t3_total.(1) r.Harness.Experiments.t3_median.(1)
      r.Harness.Experiments.t3_total.(2) r.Harness.Experiments.t3_median.(2)
      r.Harness.Experiments.t3_vs_simple r.Harness.Experiments.t3_vs_glsl
  in
  List.iter print_row t3.Harness.Experiments.rows;
  print_row t3.Harness.Experiments.all_row;
  Printf.printf
    "\nPaper shape: spirv-fuzz >= spirv-fuzz-simple >= glsl-fuzz on totals, with\n\
     glsl-fuzz nearly blind on the tooling targets (spirv-opt*).\n"

let print_figure7 ~hits =
  section "Figure 7: complementarity of the three configurations";
  let per_target, all = Harness.Experiments.figure7 ~hits () in
  List.iter
    (fun (name, venn) ->
      Printf.printf "%s:\n%s\n" name
        (Harness.Venn.to_string ~label_a:tool_labels.(0) ~label_b:tool_labels.(1)
           ~label_c:tool_labels.(2) venn))
    per_target;
  Printf.printf "All targets (signatures qualified by target):\n%s\n"
    (Harness.Venn.to_string ~label_a:tool_labels.(0) ~label_b:tool_labels.(1)
       ~label_c:tool_labels.(2) all);
  Printf.printf "total distinct: %d\n" (Harness.Venn.total all)

(* ------------------------------------------------------------------ *)
(* RQ2 / Table 4                                                       *)

let print_rq2 ~scale ~engine ~hits =
  section "RQ2 (section 4.2): reduction quality";
  let r = Harness.Experiments.rq2 ~scale ~engine ~hits () in
  Printf.printf "reductions run: spirv-fuzz %d, glsl-fuzz %d\n"
    (List.length r.Harness.Experiments.rq2_spirv)
    (List.length r.Harness.Experiments.rq2_glsl);
  Printf.printf "median instruction-count delta (original vs reduced variant):\n";
  Printf.printf "  spirv-fuzz : %.1f   (paper: 8)\n" r.Harness.Experiments.rq2_median_spirv;
  Printf.printf "  glsl-fuzz  : %.1f   (paper: 29)\n" r.Harness.Experiments.rq2_median_glsl;
  let kept xs =
    Harness.Stats.median
      (List.map (fun (o : Harness.Experiments.reduction_outcome) ->
           float_of_int o.Harness.Experiments.red_kept) xs)
  in
  let initial xs =
    Harness.Stats.median
      (List.map (fun (o : Harness.Experiments.reduction_outcome) ->
           float_of_int o.Harness.Experiments.red_initial) xs)
  in
  Printf.printf "median surviving transformations: spirv-fuzz %.1f of %.1f; glsl-fuzz %.1f of %.1f\n"
    (kept r.Harness.Experiments.rq2_spirv) (initial r.Harness.Experiments.rq2_spirv)
    (kept r.Harness.Experiments.rq2_glsl) (initial r.Harness.Experiments.rq2_glsl);
  let queries xs =
    List.map (fun (o : Harness.Experiments.reduction_outcome) ->
        o.Harness.Experiments.red_queries) xs
  in
  Printf.printf "interestingness queries (total, median per reduction):\n";
  List.iter
    (fun (label, xs) ->
      let qs = queries xs in
      Printf.printf "  %-10s : %d, %.1f\n" label (List.fold_left ( + ) 0 qs)
        (Harness.Stats.median (List.map float_of_int qs)))
    [ ("spirv-fuzz", r.Harness.Experiments.rq2_spirv);
      ("glsl-fuzz", r.Harness.Experiments.rq2_glsl) ]

let print_table4 ~scale ~engine ~hits =
  section "Table 4: deduplication effectiveness (crash bugs, spirv-fuzz tests)";
  let rows, total = Harness.Experiments.table4 ~scale ~engine ~hits () in
  Printf.printf "%-14s %6s %6s %8s %9s %6s\n" "Target" "Tests" "Sigs" "Reports"
    "Distinct" "Dups";
  List.iter
    (fun (r : Harness.Experiments.table4_row) ->
      Printf.printf "%-14s %6d %6d %8d %9d %6d\n" r.Harness.Experiments.t4_target
        r.Harness.Experiments.t4_tests r.Harness.Experiments.t4_sigs
        r.Harness.Experiments.t4_reports r.Harness.Experiments.t4_distinct
        r.Harness.Experiments.t4_dups)
    (rows @ [ total ]);
  Printf.printf
    "\nPaper shape: more than half the distinct bugs covered, low duplicate rate\n\
     (paper: 1467 tests / 78 sigs -> 49 reports, 41 distinct, 8 dups).\n"

(* ------------------------------------------------------------------ *)
(* Figures 3 and 8                                                     *)

let print_figure3 () =
  section "Figure 3: a one-instruction delta (DontInline) crashing SwiftShader";
  match Harness.Experiments.figure3 () with
  | None -> print_endline "no seed triggered the DontInline bug at this scale"
  | Some f ->
      Printf.printf "original: %d instructions; fuzzed variant: %d; reduced variant: %d\n"
        f.Harness.Experiments.fig3_original_size f.Harness.Experiments.fig3_variant_size
        f.Harness.Experiments.fig3_reduced_size;
      Printf.printf "crash signature: %s\n" f.Harness.Experiments.fig3_signature;
      Printf.printf "minimized transformation sequence (%d):\n"
        (List.length f.Harness.Experiments.fig3_kept);
      List.iter
        (fun t -> Printf.printf "  %s\n" (Spirv_fuzz.Transformation.type_id t))
        f.Harness.Experiments.fig3_kept;
      Printf.printf "module-level delta between original and reduced variant:\n%s\n"
        f.Harness.Experiments.fig3_delta

let print_figure8 () =
  section "Figure 8: the Mesa and Pixel-5 miscompilation walkthroughs";
  let f = Harness.Experiments.figure8 () in
  Printf.printf
    "8a (Mesa, PropagateInstructionUp makes the loop condition a phi):\n";
  Printf.printf "  images differ: %b\n" f.Harness.Experiments.fig8a_images_differ;
  Printf.printf "  original image:\n%s  variant image:\n%s"
    f.Harness.Experiments.fig8a_original_ascii f.Harness.Experiments.fig8a_variant_ascii;
  Printf.printf "\n8b (Pixel-5, MoveBlockDown breaks fallthrough layout):\n";
  Printf.printf "  images differ: %b\n" f.Harness.Experiments.fig8b_images_differ;
  Printf.printf "  original image:\n%s  variant image:\n%s"
    f.Harness.Experiments.fig8b_original_ascii f.Harness.Experiments.fig8b_variant_ascii

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let print_ablations ~scale ~engine ~hits =
  section "Ablation: dedup ignore-list (section 3.5) on vs off";
  let totals ?ignored () =
    let _, total = Harness.Experiments.table4 ~scale ?ignored ~engine ~hits () in
    total
  in
  let on = totals () in
  let off = totals ~ignored:Tbct.Dedup.String_set.empty () in
  Printf.printf "%-24s %8s %9s %6s\n" "" "Reports" "Distinct" "Dups";
  Printf.printf "%-24s %8d %9d %6d\n" "with ignore list" on.Harness.Experiments.t4_reports
    on.Harness.Experiments.t4_distinct on.Harness.Experiments.t4_dups;
  Printf.printf "%-24s %8d %9d %6d\n" "without ignore list"
    off.Harness.Experiments.t4_reports off.Harness.Experiments.t4_distinct
    off.Harness.Experiments.t4_dups;
  Printf.printf
    "(ignoring supporting/enabler types should keep coverage while reducing\n\
     \ the chance that two tests conflict on an uninteresting shared type)\n";

  section "Ablation: chunked delta debugging vs one-at-a-time removal";
  (* compare interestingness-query counts on the deterministic Figure 3
     scenario, scaled over several seeds *)
  let ref_module =
    List.assoc "helper_distance" (Lazy.force Corpus.lowered_references)
  in
  let input = Corpus.default_input in
  let target = Compilers.Target.swiftshader in
  let config =
    {
      Spirv_fuzz.Fuzzer.default_config with
      Spirv_fuzz.Fuzzer.donors = List.map snd (Lazy.force Corpus.lowered_donors);
    }
  in
  let chunked_q = ref 0 and linear_q = ref 0 and runs = ref 0 in
  for seed = 0 to 19 do
    let ctx = Spirv_fuzz.Context.make ref_module input in
    let result = Spirv_fuzz.Fuzzer.run ~config ~seed ctx in
    match
      Compilers.Backend.run target result.Spirv_fuzz.Fuzzer.final.Spirv_fuzz.Context.m input
    with
    | Compilers.Backend.Crashed signature ->
        let is_interesting seq =
          let c = Spirv_fuzz.Lang.replay ctx seq in
          match Compilers.Backend.run target c.Spirv_fuzz.Context.m input with
          | Compilers.Backend.Crashed s -> String.equal s signature
          | _ -> false
        in
        let _, s1 =
          Tbct.Reducer.reduce ~is_interesting result.Spirv_fuzz.Fuzzer.transformations
        in
        let _, s2 =
          Tbct.Reducer.reduce_linear ~is_interesting
            result.Spirv_fuzz.Fuzzer.transformations
        in
        chunked_q := !chunked_q + s1.Tbct.Reducer.queries;
        linear_q := !linear_q + s2.Tbct.Reducer.queries;
        incr runs
    | _ -> ()
  done;
  if !runs = 0 then print_endline "no crashing seeds in the ablation window"
  else
    Printf.printf
      "over %d reductions: chunked ddmin used %d interestingness queries,\n\
       one-at-a-time used %d (%.1fx more)\n"
      !runs !chunked_q !linear_q
      (float_of_int !linear_q /. float_of_int (max 1 !chunked_q));

  section "Ablation: recommendations strategy (spirv-fuzz vs spirv-fuzz-simple)";
  let t3 = Harness.Experiments.table3 ~scale ~hits () in
  let r = t3.Harness.Experiments.all_row in
  Printf.printf
    "all-targets totals: with recommendations %d, without %d (MWU: %s)\n"
    r.Harness.Experiments.t3_total.(0) r.Harness.Experiments.t3_total.(1)
    r.Harness.Experiments.t3_vs_simple

(* ------------------------------------------------------------------ *)

let () =
  let seeds = ref Harness.Experiments.default_scale.Harness.Experiments.seeds in
  let ablate = ref false in
  let skip_campaign = ref false in
  Arg.parse
    [
      ( "--seeds",
        Arg.Set_int seeds,
        Printf.sprintf "tests per tool configuration (default %d)" !seeds );
      ("--ablate", Arg.Set ablate, "also run the design ablations");
      ("--quick", Arg.Unit (fun () -> seeds := 60), "small quick run");
      ("--no-campaign", Arg.Set skip_campaign, "only the deterministic figures");
    ]
    (fun _ -> ())
    "bench: regenerate the paper's tables and figures";
  let scale = { Harness.Experiments.default_scale with Harness.Experiments.seeds = !seeds } in
  print_table2 ();
  print_figures_4_5 ();
  print_figure3 ();
  print_figure8 ();
  if not !skip_campaign then begin
    section (Printf.sprintf "Campaigns (%d seeds per tool configuration)" !seeds);
    let engine = Harness.Engine.create () in
    let hits = run_campaigns ~scale ~engine in
    print_table3 ~scale ~hits;
    print_figure7 ~hits;
    print_rq2 ~scale ~engine ~hits;
    print_table4 ~scale ~engine ~hits;
    if !ablate then print_ablations ~scale ~engine ~hits;
    Printf.printf "\n%s\n"
      (Harness.Engine.stats_to_string (Harness.Engine.stats engine))
  end;
  print_newline ()
