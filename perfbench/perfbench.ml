(* The repository benchmark: four workloads (find, find_tv, reduce, serve)
   built from one workload seed.  See README.md in this directory for the
   metric definitions, the layer map and why each workload exists.

   One invocation is one run:
     perfbench.exe --workload W --seed N --seconds S --trace 0|1 --tbct EXE
   It prints human-readable detail on stderr and, as the last line of
   stdout, one JSON object {correct, attempted, failed, metrics}. *)

open Harness
module Json = Tbct_service.Json

(* ------------------------------------------------------------------ *)
(* Seed discipline                                                      *)

(* splitmix64: the program only ever sees values derived from the
   workload seed through this function, never the seed itself *)
let derive ~seed ~stream i =
  let open Int64 in
  let z = ref (add (mul (of_int seed) 0x9E3779B97F4A7C15L)
                 (of_int ((stream lsl 32) lor i))) in
  z := mul (logxor !z (shift_right_logical !z 30)) 0xBF58476D1CE4E5B9L;
  z := mul (logxor !z (shift_right_logical !z 27)) 0x94D049BB133111EBL;
  z := logxor !z (shift_right_logical !z 31);
  to_int (logand !z 0x3fffffffL)

open Metric

(* ------------------------------------------------------------------ *)
(* Set-up: the corpus, the -O references, a fresh engine and every     *)
(* (target, reference) baseline                                         *)

let tool = Pipeline.Spirv_fuzz_tool

let setup () =
  Pipeline.warmup ();
  let refs = Array.of_list (Experiments.references_for tool) in
  let engine = Engine.create () in
  Array.iter
    (fun (ref_name, _, m) ->
      List.iter
        (fun t ->
          ignore (Engine.baseline engine t ~ref_name m Corpus.default_input
                  : Compilers.Backend.run_result))
        Compilers.Target.all)
    refs;
  (engine, refs)

(* probes a set-up process runs before and after its set-up *)
let setup_probes = 24

(* the set-up process: its CPU time from exec to ready, less the probes
   before set-up, rescaled to the reference host speed *)
let setup_process () =
  let calib = Calib.create () in
  for _ = 1 to setup_probes do Calib.probe calib done;
  ignore (setup ());
  let setup_cpu = cpu () -. calib.Calib.probe_s in
  for _ = 1 to setup_probes do Calib.probe calib done;
  Printf.printf "ready %.17g\n" (setup_cpu *. Calib.factor calib)

(* one set-up sample, from a fresh process, so the process-global lazies
   are forced every time *)
let setup_sample () =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--setup-only" |]
  in
  let line = try input_line ic with End_of_file -> "" in
  match (Unix.close_process_in ic, String.split_on_char ' ' line) with
  | Unix.WEXITED 0, [ "ready"; s ] -> float_of_string s
  | _ -> failwith "set-up process failed"

(* Untraced runs do their timed work in [blocks] blocks.  Before each
   block, untimed, they take one set-up sample, and after it, untimed, they
   check the block's outputs and collect the checks' garbage.  The timed
   work is thus spread over the whole run: the host's speed moves in regimes
   of 10 to 20 s, and work timed over a longer stretch averages more of
   them.  [setup_s] is the median of the samples.

   In an untraced run [work] follows each unit with calibration probes
   ([calib]) and records the unit's CPU time in [latencies]; each block's
   CPU time and latencies are rescaled by the block's own calibration
   factor.  Traced runs report no [setup_s] and run no probes: they do the
   work in one block, take no samples and leave the checks to the caller,
   so that the root span holds only timed work. *)
let blocks = 7

type paced = {
  timed_s : float;  (** CPU seconds at the reference host speed *)
  samples : float array;  (** set-up samples *)
  calib : Calib.t;
}

let paced ~trace ~blocks ~units ~latencies ~work ~check =
  let nb = if trace then 1 else max 1 (min blocks units) in
  let calib = Calib.create () in
  let timed = ref 0.0 and samples = ref [] in
  for b = 0 to nb - 1 do
    let lo = b * units / nb and hi = (b + 1) * units / nb in
    if not trace then samples := setup_sample () :: !samples;
    let since = Calib.copy calib and c0 = cpu () in
    work (if trace then None else Some calib) lo hi;
    let raw = cpu () -. c0 -. (calib.Calib.probe_s -. since.Calib.probe_s) in
    let f = if trace then 1.0 else Calib.factor ~since calib in
    timed := !timed +. (raw *. f);
    for i = lo to hi - 1 do
      latencies.(i) <- latencies.(i) *. f
    done;
    if not trace then check lo hi
  done;
  { timed_s = !timed; samples = Array.of_list !samples; calib }

(* ------------------------------------------------------------------ *)
(* find / find_tv: the per-seed body of Experiments.run_campaign       *)

let hit_lines hits = List.map Persist.hit_line hits

let untraced = Trace.create ~enabled:false ~run_id:0 (fun () -> assert false)

let find_seed tr engine ~tv (ref_name, ref_source, ref_module) seed =
  let generated =
    Trace.span tr ~name:"Pipeline.generate" ~layer:"spirv_fuzz" (fun () ->
        Engine.timed engine ~stage:"generate" (fun () ->
            Pipeline.generate tool ~ref_source ~ref_module ~seed
              ~input:Corpus.default_input))
  in
  List.iter
    (fun (type_id, proposed, applied) ->
      if proposed > 0 then
        Engine.bump_counter engine ("proposed/" ^ type_id) proposed;
      if applied > 0 then
        Engine.bump_counter engine ("applied/" ^ type_id) applied)
    generated.Pipeline.gen_counters;
  List.filter_map
    (fun (t : Compilers.Target.t) ->
      Trace.span tr ~name:"Pipeline.run_variant" ~layer:"" (fun () ->
          Pipeline.run_variant ~tv engine t ~ref_name ~original:ref_module
            ~variant_input:generated.Pipeline.gen_input
            ~variant:generated.Pipeline.gen_variant Corpus.default_input)
      |> Option.map (fun detection ->
             {
               Experiments.hit_tool = tool;
               hit_seed = seed;
               hit_ref = ref_name;
               hit_target = t.Compilers.Target.name;
               hit_detection = detection;
             }))
    Compilers.Target.all

type campaign = {
  seed_hits : Experiments.hit list option array;  (** [None]: raised *)
  seed_latency : float array;
}

let new_campaign seeds =
  let n = Array.length seeds in
  { seed_hits = Array.make n None; seed_latency = Array.make n 0.0 }

(* seeds [lo, hi) of [seeds], each followed by calibration probes when
   [calib] is given *)
let campaign_range tr engine refs ~tv seeds c calib lo hi =
  for i = lo to hi - 1 do
    let seed = seeds.(i) in
    let s0 = cpu () in
    c.seed_hits.(i) <-
      (try
         Some
           (Trace.span tr ~name:"seed" ~layer:"harness" (fun () ->
                find_seed tr engine ~tv refs.(i mod Array.length refs) seed))
       with e ->
         Printf.eprintf "seed %d raised %s\n%!" seed (Printexc.to_string e);
         None);
    c.seed_latency.(i) <- cpu () -. s0;
    Option.iter (Calib.after ~work_s:c.seed_latency.(i)) calib
  done

(* the campaign's seeds: round-robin over the references, so every run
   covers each reference equally, with fuzz seeds drawn from the workload
   seed *)
let campaign_seeds ~seed ~stream ~refs ~per_ref =
  Array.init (per_ref * Array.length refs) (derive ~seed ~stream)

(* seeds [lo, hi): hits equal the reference interpreter's on the same
   seeds; returns the number of mismatching (or raising) seeds.  Checks run
   on two domains: they are outside every timing, and the engine is
   domain-safe. *)
let check_workers = 2

let check_against_reference refs ~tv seeds (c : campaign) lo hi =
  let reference = Engine.create ~compiled:false () in
  Pool.with_pool ~workers:check_workers (fun pool ->
      Pool.map pool (hi - lo) (fun k ->
          let i = lo + k in
          match c.seed_hits.(i) with
          | None -> false
          | Some hits ->
              let expected =
                find_seed untraced reference ~tv refs.(i mod Array.length refs) seeds.(i)
              in
              hit_lines expected = hit_lines hits))
  |> Array.to_list
  |> List.mapi (fun k ok ->
         if not ok then
           Printf.eprintf "seed %d: hits differ from the reference interpreter\n%!"
             seeds.(lo + k);
         ok)
  |> List.filter not |> List.length

(* ------------------------------------------------------------------ *)
(* Per-layer metrics from engine statistics and the trace               *)

(* the layers a self time can be measured for from outside the program;
   store and service are seen through their counts only *)
let layers = [ "spirv_fuzz"; "spirv_ir"; "compilers"; "harness"; "core" ]

(* spans of one name: count and p50/p90 duration *)
let span_stats tr name =
  let ds =
    Trace.spans tr
    |> List.filter (fun (s : Trace.span) -> s.Trace.name = name)
    |> List.map (fun (s : Trace.span) -> s.Trace.t1 -. s.Trace.t0)
    |> Array.of_list
  in
  (Array.length ds, percentile ds 0.5, percentile ds 0.9)

let trace_metrics tr =
  let a = Trace.attribute tr in
  let get xs k = Option.value ~default:0.0 (List.assoc_opt k xs) in
  let calls, p50, p90 = span_stats tr "Pipeline.run_variant" in
  List.map (fun l -> m ("layer." ^ l ^ ".self_s") "s" (get a.Trace.layer_self l)) layers
  @ [
      m "execute.self_s" "s" (get a.Trace.stage_self "execute");
      ratio "execute.share" (get a.Trace.stage_self "execute") a.Trace.root_s;
      m "optimize.self_s" "s" (get a.Trace.stage_self "optimize");
      m "tv.self_s" "s" (get a.Trace.stage_self "tv");
      m "generate.self_s" "s" (get a.Trace.name_self "Pipeline.generate");
      count "run_variant.calls" calls;
      m "run_variant.p50_ms" "ms" (1000.0 *. p50);
      m "run_variant.p90_ms" "ms" (1000.0 *. p90);
      m "trace.root_s" "s" a.Trace.root_s;
      m "unattributed_s" "s" a.Trace.unattributed_s;
      ratio "unattributed_share" a.Trace.unattributed_s a.Trace.root_s;
      ratio "trace.overhead_share" tr.Trace.overhead a.Trace.root_s;
    ]

type gc_mark = { minor_words : float; major : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major = s.Gc.major_collections }

let gc_metrics g0 =
  let g1 = gc_mark () in
  [
    m "gc.minor_mb" "MB"
      ((g1.minor_words -. g0.minor_words) *. float_of_int (Sys.word_size / 8) /. 1e6);
    count "gc.major_collections" (g1.major - g0.major);
  ]

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

(* fixed work per run, sized so one run measures about [seconds] on a
   2-core x86 box at the commit that defined the benchmark; the work never
   depends on the clock, so every count repeats exactly for a given
   (seed, seconds) *)
let per_ref ~seconds ~per_second refs =
  max 1
    (int_of_float
       (Float.round (float_of_int seconds *. per_second /. float_of_int (Array.length refs))))

let new_trace ~trace ~seed engine =
  Trace.create ~enabled:trace ~run_id:seed (fun () -> Trace.snapshot (Engine.stats engine))

let write_trace tr name =
  if tr.Trace.enabled then
    Trace.write tr (work_path (Printf.sprintf "trace-%s-%d.jsonl" name tr.Trace.run_id))

let find_workload ~tv ~seed ~seconds ~trace =
  let engine, refs = setup () in
  let tr = new_trace ~trace ~seed engine in
  let seeds =
    campaign_seeds ~seed ~stream:(if tv then 2 else 1) ~refs
      ~per_ref:(per_ref ~seconds ~per_second:(if tv then 28.0 else 140.0) refs)
  in
  let n = Array.length seeds in
  let c = new_campaign seeds and failed = ref 0 in
  let check lo hi =
    failed := !failed + check_against_reference refs ~tv seeds c lo hi;
    (* the check's garbage is collected now, not during the next block *)
    Gc.full_major ()
  in
  let s0 = Engine.stats engine and g0 = gc_mark () in
  let p =
    Trace.span tr ~name:"workload" ~layer:"" (fun () ->
        paced ~trace ~blocks ~units:n ~latencies:c.seed_latency
          ~work:(campaign_range tr engine refs ~tv seeds c) ~check)
  in
  let s1 = Engine.stats engine and gc = gc_metrics g0 in
  let peak_rss = peak_rss_mb "self" in
  write_trace tr (if tv then "find_tv" else "find");
  if trace then check 0 n;
  let hits =
    Array.fold_left (fun acc h -> acc + List.length (Option.value ~default:[] h)) 0 c.seed_hits
  in
  Printf.eprintf "%s: %d seeds, %d hits in %.3f CPU s; %d seed(s) failed\n%!"
    (if tv then "find_tv" else "find") n hits p.timed_s !failed;
  {
    attempted = n;
    failed = !failed;
    setup_s = percentile p.samples 0.5;
    throughput = float_of_int n /. p.timed_s;
    latencies = c.seed_latency;
    peak_rss;
    per_layer =
      engine_metrics (stats_delta s0 s1) @ gc
      @ [ count "latency.samples" n ]
      @ (if trace then trace_metrics tr else []);
  }

(* ---- reduce ---- *)

type reduced = {
  rd_kept : int;  (** transformations the minimized test keeps *)
  rd_initial : int;  (** transformations the variant had *)
  rd_test : Experiments.dedup_test option;  (** crash hits: Figure 6's input *)
  rd_min : (Spirv_ir.Module_ir.t * Spirv_ir.Input.t) option;
      (** the minimized test and its input, from the composed path *)
}

let is_crash (h : Experiments.hit) =
  not (Signature.is_miscompilation h.Experiments.hit_detection.Pipeline.signature)

let reference_of refs (h : Experiments.hit) =
  match
    Array.find_opt (fun (n, _, _) -> String.equal n h.Experiments.hit_ref) refs
  with
  | Some r -> r
  | None -> invalid_arg ("unknown reference " ^ h.Experiments.hit_ref)

let target_of (h : Experiments.hit) =
  Option.get (Compilers.Target.find h.Experiments.hit_target)

(* regenerate, re-check and reduce one hit as Experiments.reduce_hit does,
   composed from the public pieces so that each ddmin probe can be
   wrapped in a span *)
let compose_reduce tr engine refs (h : Experiments.hit) =
  let ref_name, ref_source, ref_module = reference_of refs h in
  let generated =
    Trace.span tr ~name:"Pipeline.generate" ~layer:"spirv_fuzz" (fun () ->
        Engine.timed engine ~stage:"generate" (fun () ->
            Pipeline.generate tool ~ref_source ~ref_module
              ~seed:h.Experiments.hit_seed ~input:Corpus.default_input))
  in
  let test =
    Pipeline.interestingness engine (target_of h) ~ref_name ~original:ref_module
      ~detection:h.Experiments.hit_detection Corpus.default_input
  in
  let reproduces =
    Trace.span tr ~name:"Pipeline.interestingness" ~layer:"" (fun () ->
        test generated.Pipeline.gen_variant generated.Pipeline.gen_input)
  in
  if not reproduces then None
  else
    let probe m i = Trace.span tr ~name:"ddmin.probe" ~layer:"" (fun () -> test m i) in
    match
      Trace.span tr ~name:"ddmin" ~layer:"core" (fun () ->
          generated.Pipeline.gen_reduce ~is_interesting:probe)
    with
    | `Spirv (kept, ctx) ->
        let m = ctx.Spirv_fuzz.Context.m in
        Some
          {
            rd_kept = List.length kept;
            rd_initial = generated.Pipeline.gen_transformation_count;
            rd_test =
              (if is_crash h then
                 Some
                   {
                     Experiments.dd_bug_id =
                       Signature.bug_id_of_signature
                         h.Experiments.hit_detection.Pipeline.signature;
                     dd_types = List.map Spirv_fuzz.Transformation.type_id kept;
                     dd_module = m;
                   }
               else None);
            rd_min = Some (m, ctx.Spirv_fuzz.Context.input);
          }
    | `Glsl _ -> None

(* the paper's cap: at most 100 reductions per (target, signature) *)
let scale = { Experiments.default_scale with max_reductions_per_signature = 100 }

(* one hit through the library calls the CLI's dedup command makes *)
let reduce_via_experiments engine (h : Experiments.hit) =
  if is_crash h then
    match Experiments.reduced_crash_tests ~scale ~engine ~hits:[ h ] () with
    | [ (_, d) ] ->
        Some
          { rd_kept = List.length d.Experiments.dd_types; rd_initial = 0;
            rd_test = Some d; rd_min = None }
    | _ -> None
  else
    match Experiments.reduce_hits engine [ h ] with
    | [ Some o ] ->
        Some
          { rd_kept = o.Experiments.red_kept; rd_initial = o.Experiments.red_initial;
            rd_test = None; rd_min = None }
    | _ -> None

let dedup_config =
  {
    Tbct.Dedup.types_of = (fun (d : Experiments.dedup_test) ->
        Tbct.Dedup.String_set.of_list d.Experiments.dd_types);
    ignored = Spirv_fuzz.Dedup.default_ignored;
  }

(* each minimized test is still interesting on a fresh
   reference-interpreter engine, and the composed path, run on [engine],
   keeps exactly what the timed path kept.  The checks run on the timed
   engine once the timed phase is over: its memo tables answer most of the
   composed path's probes, which on a cold engine cost as much as the
   reductions themselves. *)
let check_reduced engine refs (h : Experiments.hit) (r : reduced) =
  let recomputed =
    match r.rd_min with
    | Some _ -> Some r
    | None -> compose_reduce untraced engine refs h
  in
  match recomputed with
  | None | Some { rd_min = None; _ } -> false
  | Some ({ rd_min = Some (m, input); _ } as c) ->
      let _, _, ref_module = reference_of refs h in
      let types (x : reduced) =
        Option.map (fun (d : Experiments.dedup_test) -> d.Experiments.dd_types) x.rd_test
      in
      c.rd_kept = r.rd_kept && types c = types r
      && Pipeline.interestingness (Engine.create ~compiled:false ()) (target_of h)
           ~ref_name:h.Experiments.hit_ref ~original:ref_module
           ~detection:h.Experiments.hit_detection Corpus.default_input m input

(* blocks per study: an untraced run makes four studies, so it takes 8
   set-up samples, about as many as find's 7 *)
let study_blocks = 2

(* one study: a campaign on a fresh engine, then every capped hit reduced
   and Figure 6 on that engine; returns the result with the reductions
   that succeeded, the timed CPU seconds and the set-up samples, for
   merging *)
let reduce_study ~stream ~seed ~seconds ~trace =
  let engine, refs = setup () in
  let tr = new_trace ~trace ~seed engine in
  (* the find phase; its CPU time is the denominator of the paper's cost
     ratio.  An untraced run's four studies together run the traced one's
     campaign size. *)
  let seeds =
    campaign_seeds ~seed ~stream ~refs
      ~per_ref:(per_ref ~seconds ~per_second:(if trace then 100.0 else 50.0) refs)
  in
  let c = new_campaign seeds in
  let t0 = cpu () in
  campaign_range untraced engine refs ~tv:false seeds c None 0 (Array.length seeds);
  let find_s = cpu () -. t0 in
  let raised = Array.fold_left (fun acc h -> if h = None then acc + 1 else acc) 0 c.seed_hits in
  let hits = List.concat_map (Option.value ~default:[]) (Array.to_list c.seed_hits) in
  let dedup_study =
    List.map (fun (t : Compilers.Target.t) -> t.Compilers.Target.name)
      Compilers.Target.dedup_study
  in
  let crash_hits =
    List.filter (fun h -> is_crash h && List.mem h.Experiments.hit_target dedup_study) hits
    |> Experiments.cap_hits ~per_signature:100
  in
  let misc_hits =
    List.filter (fun h -> not (is_crash h)) hits |> Experiments.cap_hits ~per_signature:100
  in
  let work = Array.of_list (crash_hits @ misc_hits) in
  let n = Array.length work in
  let latency = Array.make n 0.0 and reduced = Array.make n None in
  let bad = ref raised in
  let check lo hi =
    Pool.with_pool ~workers:check_workers (fun pool ->
        Pool.map pool (hi - lo) (fun k ->
            match reduced.(lo + k) with
            | None -> false
            | Some r -> check_reduced engine refs work.(lo + k) r))
    |> Array.iteri (fun k ok ->
           if not ok then begin
             let h = work.(lo + k) in
             Printf.eprintf "seed %d on %s: reduction failed its check\n%!"
               h.Experiments.hit_seed h.Experiments.hit_target;
             incr bad
           end)
  in
  let reduce_range calib lo hi =
    for i = lo to hi - 1 do
      let h = work.(i) in
      let h0 = cpu () in
      reduced.(i) <-
        (try
           if trace then
             Trace.span tr ~name:"Experiments.reduce_hit" ~layer:"harness" (fun () ->
                 compose_reduce tr engine refs h)
           else reduce_via_experiments engine h
         with e ->
           Printf.eprintf "reducing seed %d raised %s\n%!" h.Experiments.hit_seed
             (Printexc.to_string e);
           None);
      latency.(i) <- cpu () -. h0;
      Option.iter (Calib.after ~work_s:latency.(i)) calib
    done
  in
  let s0 = Engine.stats engine and g0 = gc_mark () in
  let p, tests, (rows, total), select_s =
    Trace.span tr ~name:"workload" ~layer:"" (fun () ->
        let p =
          paced ~trace ~blocks:study_blocks ~units:n ~latencies:latency ~work:reduce_range
            ~check:(fun _ _ -> ())
        in
        let t0 = cpu () in
        let tests =
          List.concat
            (List.mapi
               (fun i r ->
                 match r with
                 | Some { rd_test = Some d; _ } -> [ (work.(i).Experiments.hit_target, d) ]
                 | _ -> [])
               (Array.to_list reduced))
        in
        let table4 =
          Trace.span tr ~name:"Tbct.Dedup.select" ~layer:"core" (fun () ->
              Experiments.table4 ~scale ~engine ~tests ~hits:[| crash_hits; []; [] |] ())
        in
        (p, tests, table4, cpu () -. t0))
  in
  (* Figure 6 at the study's mean calibration factor *)
  let select_s = if trace then select_s else select_s *. Calib.factor p.calib in
  (* the timed phase: every reduction, then Figure 6 *)
  let timed_s = p.timed_s +. select_s in
  let s1 = Engine.stats engine and gc = gc_metrics g0 in
  let peak_rss = peak_rss_mb "self" in
  write_trace tr "reduce";
  check 0 n;
  List.iter
    (fun (row : Experiments.table4_row) ->
      let mine =
        List.filter_map
          (fun (t, d) -> if t = row.Experiments.t4_target then Some d else None)
          tests
      in
      let selected = Tbct.Dedup.select dedup_config mine in
      if
        (not (Tbct.Dedup.pairwise_disjoint dedup_config selected))
        || List.length selected <> row.Experiments.t4_reports
      then begin
        Printf.eprintf "Figure 6 output on %s fails its check\n%!" row.Experiments.t4_target;
        incr bad
      end)
    rows;
  let reduced_ok = Array.fold_left (fun acc r -> if r = None then acc else acc + 1) 0 reduced in
  Printf.eprintf
    "reduce: %d seeds found %d hits in %.3f CPU s; reduced %d crash + %d miscompilation \
     hits in %.3f CPU s; Figure 6: %d tests -> %d reports, %d distinct of %d bugs\n%!"
    (Array.length seeds) (List.length hits) find_s (List.length crash_hits)
    (List.length misc_hits) timed_s total.Experiments.t4_tests total.Experiments.t4_reports
    total.Experiments.t4_distinct total.Experiments.t4_sigs;
  let f = float_of_int in
  let ddmin_metrics =
    if not trace then []
    else
      let probes =
        List.filter (fun (s : Trace.span) -> s.Trace.name = "ddmin.probe") (Trace.spans tr)
      in
      (* a probe answered from the memo tables: no run and no optimization *)
      let memo_only =
        List.length
          (List.filter
             (fun (s : Trace.span) -> s.Trace.counter_delta.(0) = 0 && s.Trace.counter_delta.(3) = 0)
             probes)
      in
      let a = Trace.attribute tr in
      let get xs k = Option.value ~default:0.0 (List.assoc_opt k xs) in
      let kept, initial =
        Array.fold_left
          (fun (k, i) r ->
            match r with Some r -> (k + r.rd_kept, i + r.rd_initial) | None -> (k, i))
          (0, 0) reduced
      in
      [
        count "ddmin.probes" (List.length probes);
        m "ddmin.probe_self_s" "s" (get a.Trace.name_self "ddmin.probe");
        ratio "ddmin.probe_memo_share" (f memo_only) (f (List.length probes));
        m "ddmin.bookkeeping_s" "s" (get a.Trace.name_self "ddmin");
        ratio "ddmin.kept_share" (f kept) (f initial);
        m "dedup.select_ms" "ms" (1000.0 *. get a.Trace.name_self "Tbct.Dedup.select");
      ]
  in
  let result =
    {
      attempted = Array.length seeds + n + List.length rows;
      failed = !bad;
      setup_s = percentile p.samples 0.5;
      throughput = f reduced_ok /. timed_s;
      latencies = latency;
      peak_rss;
      per_layer =
        engine_metrics (stats_delta s0 s1) @ gc
        @ [
            count "latency.samples" n;
            count "dedup.reports" total.Experiments.t4_reports;
            ratio "dedup.precision" (f total.Experiments.t4_distinct) (f total.Experiments.t4_reports);
            ratio "dedup.recall" (f total.Experiments.t4_distinct) (f total.Experiments.t4_sigs);
            ratio "reduce.free_ratio" timed_s find_s;
          ]
        @ ddmin_metrics
        @ (if trace then trace_metrics tr else []);
    }
  in
  (result, reduced_ok, timed_s, p.samples)

(* An untraced run makes four studies from four seed streams and merges
   them.  The paper's cap keeps the first 100 hits of each frequent
   (target, signature), and the per-hit reduction cost is heavy-tailed, so
   which hits a seed keeps set a study's mean: one study's throughput
   spread by 0.27 over ten seeds, while one seed repeated within 0.05.  A
   larger campaign keeps the same first hits; another study keeps others.
   Two studies spread by 0.13 over five seeds, four of half the size by
   0.05.  The traced run makes one study, so its counts and spans come
   from one engine. *)
let reduce_workload ~seed ~seconds ~trace =
  if trace then
    let r, _, _, _ = reduce_study ~stream:3 ~seed ~seconds ~trace in
    r
  else
    let studies =
      List.map (fun stream -> reduce_study ~stream ~seed ~seconds ~trace) [ 3; 6; 7; 8 ]
    in
    let sum f = List.fold_left (fun acc x -> acc + f x) 0 studies in
    let timed = List.fold_left (fun acc (_, _, w, _) -> acc +. w) 0.0 studies in
    {
      attempted = sum (fun (r, _, _, _) -> r.attempted);
      failed = sum (fun (r, _, _, _) -> r.failed);
      setup_s = percentile (Array.concat (List.map (fun (_, _, _, s) -> s) studies)) 0.5;
      throughput = float_of_int (sum (fun (_, ok, _, _) -> ok)) /. timed;
      latencies = Array.concat (List.map (fun (r, _, _, _) -> r.latencies) studies);
      peak_rss = List.fold_left (fun acc (r, _, _, _) -> Float.max acc r.peak_rss) 0.0 studies;
      per_layer = [];
    }

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)

(* every per-layer name appears in every workload's traced output; a
   workload that does not exercise a layer reports 0 for it *)
let per_layer_names =
  List.map (fun l -> ("layer." ^ l ^ ".self_s", "s")) layers
  @ [
      ("execute.self_s", "s"); ("execute.share", "ratio");
      ("compile.lowered", "count"); ("compile.hit_rate", "ratio");
      ("engine.runs_executed", "count"); ("engine.memo_hits", "count");
      ("engine.baseline_hits", "count"); ("engine.hit_rate", "ratio");
      ("engine.memo_evictions", "count");
      ("generate.self_s", "s"); ("generate.applied", "count");
      ("generate.applied_share", "ratio");
      ("optimize.self_s", "s"); ("optimize.runs", "count");
      ("optimize.hit_rate", "ratio");
      ("tv.self_s", "s"); ("tv.checks", "count"); ("tv.hit_rate", "ratio");
      ("tv.abstains", "count"); ("tv.mem_proofs", "count");
      ("run_variant.calls", "count"); ("run_variant.p50_ms", "ms");
      ("run_variant.p90_ms", "ms");
      ("ddmin.probes", "count"); ("ddmin.probe_self_s", "s");
      ("ddmin.probe_memo_share", "ratio"); ("ddmin.bookkeeping_s", "s");
      ("ddmin.kept_share", "ratio");
      ("dedup.select_ms", "ms"); ("dedup.reports", "count");
      ("dedup.precision", "ratio"); ("dedup.recall", "ratio");
      ("reduce.free_ratio", "ratio");
      ("store.writes", "count"); ("store.bytes", "B");
      ("journal.records", "count"); ("serve.slices", "count");
      ("serve.cross_job_memo_hits", "count"); ("serve.jobs_done", "count");
      ("serve.generator_late_ms", "ms");
      ("gc.minor_mb", "MB"); ("gc.major_collections", "count");
      ("latency.samples", "count"); ("peak_rss_mb", "MB"); ("trace.root_s", "s");
      ("unattributed_s", "s"); ("unattributed_share", "ratio");
      ("trace.overhead_share", "ratio");
    ]

let complete_per_layer ms =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) ms with
      | Some x -> x
      | None -> m name unit_ 0.0)
    per_layer_names

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0
  and setup_only = ref false and tbct = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "find|find_tv|reduce|serve");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_int seconds, "nominal run length");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--setup-only", Arg.Set setup_only, "set up, print ready, exit");
      ("--tbct", Arg.Set_string tbct, "the tbct executable (serve workload)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  if !setup_only then setup_process ()
  else begin
    let trace = !trace = 1 and seed = !seed and seconds = max 1 !seconds in
    let r =
      match !workload with
      | "find" -> find_workload ~tv:false ~seed ~seconds ~trace
      | "find_tv" -> find_workload ~tv:true ~seed ~seconds ~trace
      | "reduce" -> reduce_workload ~seed ~seconds ~trace
      | "serve" -> Serve.workload ~derive ~tbct:!tbct ~seed ~seconds ~trace
      | w ->
          prerr_endline ("unknown workload " ^ w);
          exit 2
    in
    let metrics =
      if trace then complete_per_layer (m "peak_rss_mb" "MB" r.peak_rss :: r.per_layer)
      else end_to_end r
    in
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("correct", Json.Bool (r.failed = 0));
              ("attempted", Json.Int r.attempted);
              ("failed", Json.Int r.failed);
              ("metrics", to_json metrics);
            ]))
  end
