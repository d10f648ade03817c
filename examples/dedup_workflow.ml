(* The "weekend of fuzzing" deduplication workflow (sections 2.1 and 3.5):
   run a campaign, reduce every crash-triggering test, then let the Figure 6
   algorithm pick which reduced tests a developer should actually look at.

   Run with:  dune exec examples/dedup_workflow.exe *)

let () =
  let scale =
    { Harness.Experiments.default_scale with Harness.Experiments.seeds = 120 }
  in
  Printf.printf "fuzzing %d seeds against every target...\n%!"
    scale.Harness.Experiments.seeds;
  (* one engine for the whole workflow: reductions reuse the campaign's
     memoized runs *)
  let engine = Harness.Engine.create () in
  let hits =
    Harness.Experiments.run_campaign ~scale ~engine
      Harness.Pipeline.Spirv_fuzz_tool
  in
  let crashes =
    List.filter
      (fun (h : Harness.Experiments.hit) ->
        not
          (Harness.Signature.is_miscompilation
             h.Harness.Experiments.hit_detection.Harness.Pipeline.signature))
      hits
  in
  Printf.printf "%d detections, %d of them crashes\n%!" (List.length hits)
    (List.length crashes);

  (* reduce each crash (capped per signature), collect the minimized
     transformation sequences, and run the Figure 6 selection — the Table 4
     plumbing does exactly this end to end *)
  let rows, total =
    Harness.Experiments.table4 ~scale ~engine ~hits:[| hits; []; [] |] ()
  in
  Printf.printf "\n%-14s %6s %6s %8s %9s %6s\n" "Target" "Tests" "Sigs" "Reports"
    "Distinct" "Dups";
  List.iter
    (fun (r : Harness.Experiments.table4_row) ->
      if r.Harness.Experiments.t4_tests > 0 then
        Printf.printf "%-14s %6d %6d %8d %9d %6d\n" r.Harness.Experiments.t4_target
          r.Harness.Experiments.t4_tests r.Harness.Experiments.t4_sigs
          r.Harness.Experiments.t4_reports r.Harness.Experiments.t4_distinct
          r.Harness.Experiments.t4_dups)
    rows;
  Printf.printf "%-14s %6d %6d %8d %9d %6d\n" total.Harness.Experiments.t4_target
    total.Harness.Experiments.t4_tests total.Harness.Experiments.t4_sigs
    total.Harness.Experiments.t4_reports total.Harness.Experiments.t4_distinct
    total.Harness.Experiments.t4_dups;
  Printf.printf
    "\nReports is what a developer is asked to look at; Dups counts wasted looks.\n"
