(* Tests for the translation validator (Symval + Tv + Optimizer.run_tv):
   zero false positives on clean-flag runs over the corpus and fuzzed
   variants, correct per-pass blame for the TV-visible injected
   miscompilation bugs, and per-target attribution of every optimizer-hosted
   bug to its documented pass. *)

open Spirv_ir

let std = Compilers.Optimizer.standard
let clean = Compilers.Passes.no_bugs

let pass_t =
  Alcotest.testable Compilers.Optimizer.pp_pass_name
    Compilers.Optimizer.equal_pass_name

(* ------------------------------------------------------------------ *)
(* Trigger modules: the smallest shapes each injected optimizer bug
   fires on *)

let mk_module build =
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let out = Builder.output_color b in
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let l = Builder.new_label fb in
  Builder.start_block fb l;
  let result = build b fb in
  let one = Builder.cfloat b 1.0 in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ result; one; one; one ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  let m = Builder.finish b ~entry:main in
  (match Validate.check m with
  | Ok () -> ()
  | Error (e :: _) ->
      Alcotest.failf "crafted module invalid: %s" (Validate.error_to_string e)
  | Error [] -> Alcotest.fail "invalid");
  m

(* a dynamic x - 0.0: bug_fold_sub_zero rewrites it to 0.0 *)
let sub_zero_trigger () =
  mk_module (fun b fb ->
      let frag = Builder.load fb (Builder.frag_coord b) in
      let x = Builder.extract fb frag [ 0 ] in
      Builder.fsub fb x (Builder.cfloat b 0.0))

(* a call with two same-typed constant arguments:
   bug_inline_swaps_const_args swaps them while inlining *)
let inline_swap_trigger () =
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let float_t = Builder.float_ty b in
  let out = Builder.output_color b in
  let hb, h, params =
    Builder.begin_function b ~name:"h" ~ret:float_t ~params:[ float_t; float_t ]
  in
  let lh = Builder.new_label hb in
  Builder.start_block hb lh;
  (match params with
  | [ p0; p1 ] -> Builder.ret_value hb (Builder.fsub hb p0 p1)
  | _ -> assert false);
  ignore (Builder.end_function hb);
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let l0 = Builder.new_label fb in
  Builder.start_block fb l0;
  let v = Builder.call fb h [ Builder.cfloat b 0.25; Builder.cfloat b 0.75 ] in
  let one = Builder.cfloat b 1.0 in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ v; one; one; one ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  let m = Builder.finish b ~entry:main in
  (match Validate.check m with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "inline-swap trigger invalid");
  m

(* an integer division by constant zero: bug_fold_div_crash crashes on it;
   the clean folder's total semantics folds it to 0 *)
let div_zero_trigger () =
  mk_module (fun b fb ->
      let q = Builder.sdiv fb (Builder.cint b 7) (Builder.cint b 0) in
      let c = Builder.ieq fb q (Builder.cint b 1) in
      Builder.select fb c (Builder.cfloat b 0.0) (Builder.cfloat b 1.0))

(* a constant branch into a join φ: bug_keep_stale_phi_entries leaves the
   untaken predecessor's φ entry behind — invalid IR *)
let stale_phi_trigger () =
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let out = Builder.output_color b in
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let l0 = Builder.new_label fb in
  let lt = Builder.new_label fb in
  let le = Builder.new_label fb in
  let lm = Builder.new_label fb in
  Builder.start_block fb l0;
  let c = Builder.cbool b true in
  let one = Builder.cfloat b 1.0 in
  let half = Builder.cfloat b 0.5 in
  Builder.branch_cond fb c lt le;
  Builder.start_block fb lt;
  let vt = Builder.fadd fb one half in
  Builder.branch fb lm;
  Builder.start_block fb le;
  let ve = Builder.fmul fb one half in
  Builder.branch fb lm;
  Builder.start_block fb lm;
  let p = Builder.phi fb ~ty:(Builder.float_ty b) [ (vt, lt); (ve, le) ] in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ p; p; p; p ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  Builder.finish b ~entry:main

(* ------------------------------------------------------------------ *)
(* Clean-flag runs: zero Mismatch (and, today, zero abstentions) *)

let assert_clean ?(allow_abstain = false) name
    (report : Compilers.Optimizer.tv_report) =
  (match report.Compilers.Optimizer.tv_guilty with
  | None -> ()
  | Some p ->
      Alcotest.failf "%s: clean pipeline blamed %s" name
        (Compilers.Optimizer.show_pass_name p));
  List.iter
    (fun (p, v) ->
      match v with
      | Compilers.Tv.Mismatch w ->
          Alcotest.failf "%s: false positive in %s: %s vs %s" name
            (Compilers.Optimizer.show_pass_name p)
            w.Compilers.Tv.w_before w.Compilers.Tv.w_after
      | Compilers.Tv.Abstained r ->
          (* abstention is always sound — but the corpus and generator
             shapes are all within Symval's fragment, so for those a new
             abstention is a precision regression worth failing loudly on.
             Fuzzed variants may blow the evaluation budget legitimately. *)
          if not allow_abstain then
            Alcotest.failf "%s: %s abstained: %s" name
              (Compilers.Optimizer.show_pass_name p)
              r
      | Compilers.Tv.Equivalent -> ())
    report.Compilers.Optimizer.tv_steps

let test_corpus_clean () =
  List.iter
    (fun (name, m) ->
      match Compilers.Optimizer.run_tv std m with
      | Ok report -> assert_clean name report
      | Error e -> Alcotest.failf "%s: clean pipeline crashed: %s" name e)
    (Lazy.force Corpus.lowered_references)

(* the acceptance bar: >= 100 fuzzed/generated variants, zero Mismatch *)
let test_generated_clean () =
  for seed = 0 to 109 do
    let m = Generator.generate (Tbct.Rng.make seed) in
    match Compilers.Optimizer.run_tv std m with
    | Ok report -> assert_clean (Printf.sprintf "generated seed %d" seed) report
    | Error e -> Alcotest.failf "seed %d: clean pipeline crashed: %s" seed e
  done

let test_fuzzed_clean () =
  for seed = 1 to 8 do
    let m = Generator.generate (Tbct.Rng.make seed) in
    let ctx = Spirv_fuzz.Context.make m Generator.default_input in
    let result = Spirv_fuzz.Fuzzer.run ~seed:(seed * 13 + 1) ctx in
    let variant = result.Spirv_fuzz.Fuzzer.final.Spirv_fuzz.Context.m in
    match Compilers.Optimizer.run_tv std variant with
    | Ok report ->
        assert_clean ~allow_abstain:true
          (Printf.sprintf "fuzzed seed %d" seed)
          report
    | Error e -> Alcotest.failf "fuzzed seed %d: crashed: %s" seed e
  done

(* ------------------------------------------------------------------ *)
(* Blame: each TV-visible injected miscompilation is pinned on its pass *)

let guilty_of name flags pipeline m =
  match Compilers.Optimizer.run_tv ~flags pipeline m with
  | Error e -> Alcotest.failf "%s: pipeline crashed: %s" name e
  | Ok report -> report.Compilers.Optimizer.tv_guilty

let test_blames_const_fold () =
  let m = sub_zero_trigger () in
  let buggy = { clean with Compilers.Passes.bug_fold_sub_zero = true } in
  (match guilty_of "sub-zero" buggy std m with
  | Some p -> Alcotest.check pass_t "guilty pass" Compilers.Optimizer.Const_fold p
  | None -> Alcotest.fail "fold_sub_zero miscompilation not detected");
  (* the same module with clean flags validates *)
  Alcotest.(check bool) "clean run not blamed" true
    (guilty_of "sub-zero clean" clean std m = None)

let test_blames_inline () =
  let m = inline_swap_trigger () in
  let buggy = { clean with Compilers.Passes.bug_inline_swaps_const_args = true } in
  (match guilty_of "inline-swap" buggy std m with
  | Some p -> Alcotest.check pass_t "guilty pass" Compilers.Optimizer.Inline p
  | None -> Alcotest.fail "inline_swaps_const_args miscompilation not detected");
  Alcotest.(check bool) "clean run not blamed" true
    (guilty_of "inline-swap clean" clean std m = None)

(* every mismatch witness names a slot and both symbolic values *)
let test_witness_shape () =
  let m = sub_zero_trigger () in
  let buggy = { clean with Compilers.Passes.bug_fold_sub_zero = true } in
  match Compilers.Optimizer.run_tv ~flags:buggy std m with
  | Error e -> Alcotest.failf "crashed: %s" e
  | Ok report -> (
      match
        List.find_opt
          (fun (_, v) -> match v with Compilers.Tv.Mismatch _ -> true | _ -> false)
          report.Compilers.Optimizer.tv_steps
      with
      | Some (_, Compilers.Tv.Mismatch w) ->
          Alcotest.(check string) "slot" "output" w.Compilers.Tv.w_slot;
          Alcotest.(check bool) "witness values differ" false
            (String.equal w.Compilers.Tv.w_before w.Compilers.Tv.w_after)
      | _ -> Alcotest.fail "no mismatch step recorded")

(* ------------------------------------------------------------------ *)
(* Satellite: every target's optimizer-hosted bugs attribute to the
   documented pass (and bug-free targets validate everything clean) *)

let test_target_attribution () =
  List.iter
    (fun (t : Compilers.Target.t) ->
      let name = t.Compilers.Target.name in
      let flags = t.Compilers.Target.opt_flags in
      let pipeline = t.Compilers.Target.pipeline in
      (* bug_fold_sub_zero -> Const_fold (documented in Passes) *)
      if flags.Compilers.Passes.bug_fold_sub_zero then
        (match guilty_of name flags pipeline (sub_zero_trigger ()) with
        | Some p -> Alcotest.check pass_t (name ^ ": sub-zero blame") Compilers.Optimizer.Const_fold p
        | None -> Alcotest.failf "%s: fold_sub_zero not blamed" name);
      (* bug_inline_swaps_const_args -> Inline *)
      if flags.Compilers.Passes.bug_inline_swaps_const_args then
        (match guilty_of name flags pipeline (inline_swap_trigger ()) with
        | Some p -> Alcotest.check pass_t (name ^ ": inline blame") Compilers.Optimizer.Inline p
        | None -> Alcotest.failf "%s: inline_swaps_const_args not blamed" name);
      (* bug_fold_div_crash -> a crash attributed to Const_fold *)
      if flags.Compilers.Passes.bug_fold_div_crash then
        (match
           Compilers.Optimizer.run_checked ~flags pipeline (div_zero_trigger ())
         with
        | Ok _ -> Alcotest.failf "%s: fold_div_crash did not fire" name
        | Error [] -> Alcotest.failf "%s: empty failure list" name
        | Error ((p, detail) :: _) ->
            Alcotest.check pass_t (name ^ ": div-crash blame") Compilers.Optimizer.Const_fold p;
            Alcotest.(check bool) (name ^ ": crash entry") true
              (String.length detail >= 6 && String.sub detail 0 6 = "crash:"));
      (* bug_keep_stale_phi_entries -> invalid IR out of Simplify_cfg *)
      if flags.Compilers.Passes.bug_keep_stale_phi_entries then
        (match
           Compilers.Optimizer.run_checked ~flags
             [ Compilers.Optimizer.Simplify_cfg ]
             (stale_phi_trigger ())
         with
        | Ok _ -> Alcotest.failf "%s: stale-phi bug not caught" name
        | Error [] -> Alcotest.failf "%s: empty failure list" name
        | Error ((p, _) :: _) ->
            Alcotest.check pass_t (name ^ ": stale-phi blame") Compilers.Optimizer.Simplify_cfg p);
      (* bug-free optimizers validate both triggers clean: no false blame *)
      if
        flags = clean
      then begin
        Alcotest.(check bool) (name ^ ": sub-zero clean") true
          (guilty_of name flags pipeline (sub_zero_trigger ()) = None);
        Alcotest.(check bool) (name ^ ": inline clean") true
          (guilty_of name flags pipeline (inline_swap_trigger ()) = None)
      end)
    Compilers.Target.all

(* ------------------------------------------------------------------ *)
(* Satellite: run_checked reports every failing pass, not the first *)

let test_run_checked_reports_all_failures () =
  let m = stale_phi_trigger () in
  let buggy = { clean with Compilers.Passes.bug_keep_stale_phi_entries = true } in
  match
    Compilers.Optimizer.run_checked ~flags:buggy
      [ Compilers.Optimizer.Simplify_cfg; Compilers.Optimizer.Dce ]
      m
  with
  | Ok _ -> Alcotest.fail "stale-phi bug not caught"
  | Error failures ->
      Alcotest.(check bool) "more than one failing pass" true
        (List.length failures >= 2);
      (match failures with
      | (p, _) :: _ ->
          Alcotest.check pass_t "original culprit first" Compilers.Optimizer.Simplify_cfg p
      | [] -> Alcotest.fail "empty");
      (* every recorded pass is from the pipeline, in order *)
      Alcotest.(check (list pass_t)) "downstream passes also flagged"
        [ Compilers.Optimizer.Simplify_cfg; Compilers.Optimizer.Dce ]
        (List.map fst failures)

(* ------------------------------------------------------------------ *)
(* TV-aware harness: the pipeline refines miscompilation signatures *)

let test_pipeline_tv_detects_on_non_executing_target () =
  (* a tooling-style target that cannot render but hosts the inline bug:
     only the TV oracle can see the miscompilation *)
  let t =
    {
      Compilers.Target.name = "tv-tooling";
      version = "-";
      gpu = Compilers.Target.Tooling;
      pipeline = std;
      opt_flags = { clean with Compilers.Passes.bug_inline_swaps_const_args = true };
      crash_bug_ids = [];
      miscompile_bug_ids = [];
      executes = false;
    }
  in
  let m = inline_swap_trigger () in
  let engine = Harness.Engine.create () in
  (match
     Harness.Pipeline.run_variant ~tv:true engine t ~ref_name:"trigger"
       ~original:m ~variant:m Corpus.default_input
   with
  | Some d ->
      Alcotest.(check string) "pass-granular signature"
        "miscompile:tv-tooling:Inline" d.Harness.Pipeline.signature;
      Alcotest.(check bool) "is a miscompilation" true
        (Harness.Signature.is_miscompilation d.Harness.Pipeline.signature);
      Alcotest.(check (option string)) "blamed pass" (Some "Inline")
        (Harness.Signature.blamed_pass d.Harness.Pipeline.signature)
  | None -> Alcotest.fail "TV oracle missed the miscompilation");
  (* without TV the non-executing target reports nothing *)
  Alcotest.(check bool) "invisible without TV" true
    (Harness.Pipeline.run_variant engine t ~ref_name:"trigger" ~original:m
       ~variant:m Corpus.default_input
    = None);
  (* the TV interestingness test holds on the very module that witnessed it *)
  let detection =
    { Harness.Pipeline.signature = "miscompile:tv-tooling:Inline"; via_opt = false }
  in
  Alcotest.(check bool) "interesting on the witness" true
    (Harness.Pipeline.interestingness engine t ~ref_name:"trigger" ~original:m
       ~detection Corpus.default_input m Corpus.default_input);
  Alcotest.(check bool) "not interesting on a clean module" false
    (Harness.Pipeline.interestingness engine t ~ref_name:"trigger" ~original:m
       ~detection Corpus.default_input (sub_zero_trigger ()) Corpus.default_input)

let test_signature_helpers () =
  let t = List.hd Compilers.Target.all in
  let s =
    Harness.Signature.miscompile ~target:t
      ~pass:(Some Compilers.Optimizer.Const_fold)
  in
  Alcotest.(check string) "pass signature"
    ("miscompile:" ^ t.Compilers.Target.name ^ ":Const_fold") s;
  Alcotest.(check bool) "prefix-aware is_miscompilation" true
    (Harness.Signature.is_miscompilation s);
  Alcotest.(check bool) "legacy signature still recognised" true
    (Harness.Signature.is_miscompilation Harness.Signature.miscompilation);
  Alcotest.(check string) "ground-truth bug id" "miscompilation"
    (Harness.Signature.bug_id_of_signature s);
  let backend = Harness.Signature.miscompile ~target:t ~pass:None in
  Alcotest.(check (option string)) "backend blame has no pass" None
    (Harness.Signature.blamed_pass backend);
  Alcotest.(check (option string)) "pass blame extracted" (Some "Const_fold")
    (Harness.Signature.blamed_pass s)

(* ------------------------------------------------------------------ *)
(* QCheck: soundness on the adversarial corner — check_pass never
   mismatches when the two modules are Interp-equivalent on the grid *)

let tv_soundness_prop seed =
  let m = Generator.generate (Tbct.Rng.make seed) in
  let input = Generator.default_input in
  let _final =
    List.fold_left
      (fun before p ->
        let after = Compilers.Optimizer.run_pass clean before p in
        (match Compilers.Tv.check_pass before after with
        | Compilers.Tv.Mismatch w ->
            (* only a genuine semantic divergence excuses a mismatch; a
               clean pass is Interp-equivalent, so this is a false
               positive *)
            let equivalent =
              match (Interp.render before input, Interp.render after input) with
              | Ok a, Ok b -> Image.equal a b
              | _ -> false
            in
            if equivalent then
              QCheck.Test.fail_reportf
                "seed %d: false positive in %s (%s slot): %s vs %s" seed
                (Compilers.Optimizer.show_pass_name p)
                w.Compilers.Tv.w_slot w.Compilers.Tv.w_before
                w.Compilers.Tv.w_after
        | Compilers.Tv.Equivalent | Compilers.Tv.Abstained _ ->
            (* abstention is always allowed; only Mismatch needs excusing *)
            ());
        after)
      m std
  in
  true

let qcheck_tv_sound =
  QCheck.Test.make ~count:40 ~name:"check_pass sound vs Interp on clean passes"
    QCheck.(int_bound 1_000_000)
    tv_soundness_prop

(* ------------------------------------------------------------------ *)
(* Carry-forward: a pass that changes nothing returns the input value
   itself, and run_tv hands it on as is.  It must change no TV result and
   no engine counter, so it is compared against a report built from
   Optimizer.run on each prefix of the pipeline.

   The same sweep checks the invariant the engine's pipeline memo rests
   on: run_tv optimizes exactly as Optimizer.run does, so one stored
   outcome can serve both Backend.run and the TV blame. *)

(* [Optimizer.run] with a crash as [Error signature], as Backend.run
   reads it *)
let plain_run ~flags pipeline m =
  match Compilers.Optimizer.run ~flags pipeline m with
  | m' -> Ok m'
  | exception Compilers.Opt_util.Compiler_crash signature -> Error signature

let check_agrees_with_run label got plain =
  match (got, plain) with
  | Ok r, Ok m' ->
      Alcotest.(check bool)
        (label ^ ": tv_module equal_exact to Optimizer.run") true
        (Spirv_ir.Module_ir.equal_exact r.Compilers.Optimizer.tv_module m')
  | Error s, Error s' ->
      Alcotest.(check string) (label ^ ": crash signature") s' s
  | Ok _, Error s' ->
      Alcotest.failf "%s: run_tv finished, Optimizer.run crashed (%s)" label s'
  | Error s, Ok _ ->
      Alcotest.failf "%s: run_tv crashed (%s), Optimizer.run finished" label s

(* The reference report, built from [Optimizer.run] alone: step [i]
   checks the output of the pipeline's first [i - 1] passes against the
   output of its first [i], each optimized from [m] afresh.  No module is
   handed from one pass to the next as [run_tv] hands it, so a step
   [run_tv] pairs with the wrong [before] shows up as a different
   verdict, blame or counter. *)
let reference_run_tv ~flags ~check pipeline m =
  let rec steps i before acc = function
    | [] -> (before, List.rev acc)
    | pass :: rest ->
        let prefix = List.filteri (fun j _ -> j <= i) pipeline in
        let after = Compilers.Optimizer.run ~flags prefix m in
        steps (i + 1) after ((pass, check before after) :: acc) rest
  in
  match steps 0 m [] pipeline with
  | tv_module, tv_steps ->
      Ok
        {
          Compilers.Optimizer.tv_module;
          tv_steps;
          tv_guilty =
            List.find_map
              (function p, Compilers.Tv.Mismatch _ -> Some p | _ -> None)
              tv_steps;
        }
  | exception Compilers.Opt_util.Compiler_crash signature -> Error signature

(* the clean flags, each injected bug alone, and every target's roster *)
let bug_flag_sets =
  let c = clean in
  List.sort_uniq compare
    ([
       c;
       { c with Compilers.Passes.bug_fold_div_crash = true };
       { c with Compilers.Passes.bug_keep_stale_phi_entries = true };
       { c with Compilers.Passes.bug_fold_sub_zero = true };
       { c with Compilers.Passes.bug_inline_swaps_const_args = true };
       { c with Compilers.Passes.bug_hoist_loop_load = true };
       { c with Compilers.Passes.bug_forward_aliased_store = true };
     ]
    @ List.map
        (fun (t : Compilers.Target.t) -> t.Compilers.Target.opt_flags)
        Compilers.Target.all)

let carry_forward_modules () =
  let corpus = Lazy.force Corpus.lowered_references in
  let fuzzed =
    List.filteri (fun i _ -> i mod 6 = 0) corpus
    |> List.mapi (fun i (name, m) ->
           let ctx = Spirv_fuzz.Context.make m Corpus.default_input in
           let result = Spirv_fuzz.Fuzzer.run ~seed:(i + 1) ctx in
           ( name ^ " fuzzed",
             result.Spirv_fuzz.Fuzzer.final.Spirv_fuzz.Context.m ))
  in
  corpus @ fuzzed
  @ [
      ("sub-zero trigger", sub_zero_trigger ());
      ("inline-swap trigger", inline_swap_trigger ());
      ("div-zero trigger", div_zero_trigger ());
      ("stale-phi trigger", stale_phi_trigger ());
    ]

let report_summary = function
  | Error signature -> "crash: " ^ signature
  | Ok r ->
      String.concat "; "
        (List.map
           (fun (p, v) ->
             Compilers.Optimizer.show_pass_name p ^ " "
             ^ Compilers.Tv.show_verdict v)
           r.Compilers.Optimizer.tv_steps)
      ^ " | guilty "
      ^ Option.fold ~none:"-" ~some:Compilers.Optimizer.show_pass_name
          r.Compilers.Optimizer.tv_guilty
      ^ " | module " ^ Digest.of_module r.Compilers.Optimizer.tv_module

let tv_counters e =
  let s = Harness.Engine.stats e in
  let named =
    List.filter
      (fun (k, _) ->
        k = "mem-proofs" || String.starts_with ~prefix:"tv-abstain:" k)
      s.Harness.Engine.counters
  in
  (s.Harness.Engine.tv_checks, s.Harness.Engine.tv_hits, named)

let test_carry_forward_changes_nothing () =
  let modules = carry_forward_modules () in
  let carried = Harness.Engine.create () in
  let reference = Harness.Engine.create () in
  let check e before after = Harness.Engine.tv_check e ~before ~after in
  let blamed = ref 0 and crashed = ref 0 in
  List.iter
    (fun (t : Compilers.Target.t) ->
      let pipeline = t.Compilers.Target.pipeline in
      List.iter
        (fun flags ->
          List.iter
            (fun (name, m) ->
              let got =
                Compilers.Optimizer.run_tv ~flags ~check:(check carried)
                  pipeline m
              in
              let want =
                reference_run_tv ~flags ~check:(check reference) pipeline m
              in
              let label =
                Printf.sprintf "%s on %s" name t.Compilers.Target.name
              in
              Alcotest.(check string) label (report_summary want)
                (report_summary got);
              check_agrees_with_run label got (plain_run ~flags pipeline m);
              match want with
              | Ok { Compilers.Optimizer.tv_guilty = Some _; _ } -> incr blamed
              | Ok _ -> ()
              | Error _ -> incr crashed)
            modules)
        bug_flag_sets)
    Compilers.Target.all;
  let checks, hits, named = tv_counters reference in
  let checks', hits', named' = tv_counters carried in
  Alcotest.(check int) "tv_checks" checks checks';
  Alcotest.(check int) "tv_hits" hits hits';
  Alcotest.(check (list (pair string int))) "tv-abstain and mem-proofs" named
    named';
  Alcotest.(check bool) "the sweep blamed a pass" true (!blamed > 0);
  Alcotest.(check bool) "the sweep crashed a pass" true (!crashed > 0)

(* ------------------------------------------------------------------ *)
(* Pinned TV bytes: every verdict, witness string, abstention reason and
   mem-proof count of a fixed sweep, folded into one MD5.  The evaluator's
   node ids decide commutative operand order and so the witness text, and
   its budgets decide which checks abstain; a change to how Symval interns,
   visits or summarizes loops must leave all of it byte-identical.  The
   constant was recomputed, on an unchanged evaluator, when the loop
   references joined the sweep. *)

let pinned_sweep_md5 = "7c088d7179936939e97fb8cb497d053d"

(* each distinct (pipeline, flags) configuration of the nine targets, with
   clean and with target flags *)
let pinned_configs =
  List.concat_map
    (fun (t : Compilers.Target.t) ->
      [
        (t.Compilers.Target.pipeline, clean);
        (t.Compilers.Target.pipeline, t.Compilers.Target.opt_flags);
      ])
    Compilers.Target.all
  |> List.sort_uniq compare

(* seed 6 exhausts the block-visit budget on two variants *)
let pinned_fuzz_seed = 6

let pinned_modules () =
  let corpus = Lazy.force Corpus.lowered_references in
  let config =
    {
      Spirv_fuzz.Fuzzer.default_config with
      Spirv_fuzz.Fuzzer.donors = List.map snd (Lazy.force Corpus.lowered_donors);
      use_recommendations = true;
    }
  in
  let fuzzed =
    List.map
      (fun (name, m) ->
        let ctx = Spirv_fuzz.Context.make m Corpus.default_input in
        let r = Spirv_fuzz.Fuzzer.run ~config ~seed:pinned_fuzz_seed ctx in
        ( Printf.sprintf "%s/%d" name pinned_fuzz_seed,
          r.Spirv_fuzz.Fuzzer.final.Spirv_fuzz.Context.m ))
      corpus
  in
  (* fuzzed variants never trip a TV-visible bug, so the triggers supply
     the mismatch witnesses; the loop references reach the summarizer's
     trip bounds, which no corpus reference or seed-6 variant does *)
  corpus @ Lazy.force Corpus.lowered_loop_references @ fuzzed
  @ [
      ("sub-zero trigger", sub_zero_trigger ());
      ("inline-swap trigger", inline_swap_trigger ());
    ]

let test_pinned_verdicts () =
  let modules = pinned_modules () in
  let buf = Buffer.create 65536 in
  let kinds = Hashtbl.create 8 in
  List.iter
    (fun (pipeline, flags) ->
      List.iter
        (fun (name, m) ->
          Buffer.add_string buf name;
          Buffer.add_char buf '\n';
          let check before after =
            let v, proofs = Compilers.Tv.check_pass_counted before after in
            let kind =
              match v with
              | Compilers.Tv.Equivalent -> "equivalent"
              | Compilers.Tv.Mismatch _ -> "mismatch"
              | Compilers.Tv.Abstained _ ->
                  Option.value ~default:"?" (Compilers.Tv.abstain_label v)
            in
            Hashtbl.replace kinds kind ();
            Printf.bprintf buf "%s %d\n" (Compilers.Tv.show_verdict v) proofs;
            v
          in
          match Compilers.Optimizer.run_tv ~flags ~check pipeline m with
          | Ok _ -> ()
          | Error signature -> Printf.bprintf buf "crash %s\n" signature)
        modules)
    pinned_configs;
  List.iter
    (fun kind ->
      Alcotest.(check bool) ("the sweep has a " ^ kind) true (Hashtbl.mem kinds kind))
    [ "mismatch"; "budget"; "loop-unbounded" ];
  Alcotest.(check string) "verdict bytes" pinned_sweep_md5
    (Stdlib.Digest.to_hex (Stdlib.Digest.string (Buffer.contents buf)))

(* ------------------------------------------------------------------ *)
(* Interning: Symval once keyed its hash-consing table by a string
   spelled from the desc.  Structural interning must identify exactly the
   descs whose string keys were equal, so this keeps a copy of that key. *)

let rec old_value_key = function
  | Value.VBool b -> if b then "T" else "F"
  | Value.VInt i -> "i" ^ Int32.to_string i
  | Value.VFloat f -> "f" ^ Int64.to_string (Int64.bits_of_float f)
  | Value.VComposite xs ->
      let parts = Array.to_list (Array.map old_value_key xs) in
      "(" ^ String.concat "," parts ^ ")"

let old_path_key path = String.concat "." (List.map string_of_int path)

let old_desc_key =
  let id n = string_of_int (Symval.node_id n) in
  function
  | Symval.Const v -> "c:" ^ old_value_key v
  | Symval.Source s -> "s:" ^ s
  | Symval.Dead -> "d"
  | Symval.App (tag, args) -> "a:" ^ tag ^ ":" ^ String.concat "," (List.map id args)
  | Symval.Extract (base, path) -> "x:" ^ id base ^ ":" ^ old_path_key path
  | Symval.Insert (v, base, path) ->
      "n:" ^ id v ^ ":" ^ id base ^ ":" ^ old_path_key path

(* a desc whose children are indices into the nodes interned so far *)
type desc_spec =
  | S_const of Value.t
  | S_source of string
  | S_dead
  | S_app of string * int list
  | S_extract of int * int list
  | S_insert of int * int * int list

let spec_gen =
  let open QCheck.Gen in
  (* ±0.0, NaNs with distinct sign and payload, and floats whose bits
     equal a small VInt *)
  let float_g =
    oneofl
      [ 0.0; -0.0; Float.nan; Int64.float_of_bits 0x7FF8000000000001L;
        Int64.float_of_bits 0xFFF8000000000000L; 1.0; Float.infinity;
        Int64.float_of_bits 1L; Int64.float_of_bits 5L ]
  in
  let int_g = oneofl [ 0l; 1l; 5l; -1l; 0x3F800000l ] in
  let value_g =
    sized_size (int_bound 2)
    @@ fix (fun self n ->
           if n = 0 then
             frequency
               [ (1, map (fun b -> Value.VBool b) bool);
                 (2, map (fun i -> Value.VInt i) int_g);
                 (3, map (fun f -> Value.VFloat f) float_g) ]
           else
             frequency
               [ (1, self 0);
                 (2,
                   map
                     (fun xs -> Value.VComposite (Array.of_list xs))
                     (list_size (int_bound 3) (self (n - 1)))) ])
  in
  let path_g = list_size (int_range 1 3) (oneofl [ -1; 0; 1; 2; 12 ]) in
  let child = int_bound 1000 in
  frequency
    [ (3, map (fun v -> S_const v) value_g);
      (1, map (fun s -> S_source s) (oneofl [ "uniform:u"; "uniform:v"; "frag-coord" ]));
      (1, return S_dead);
      (3,
        map2
          (fun tag args -> S_app (tag, args))
          (oneofl [ "IAdd"; "FMul"; "select"; "construct" ])
          (list_size (int_bound 3) child));
      (2, map2 (fun b p -> S_extract (b, p)) child path_g);
      (2, map3 (fun v b p -> S_insert (v, b, p)) child child path_g) ]

let rec spec_value_str = function
  | Value.VBool b -> string_of_bool b
  | Value.VInt i -> Int32.to_string i ^ "l"
  | Value.VFloat f -> Printf.sprintf "0x%Lx" (Int64.bits_of_float f)
  | Value.VComposite xs ->
      "[" ^ String.concat ";" (Array.to_list (Array.map spec_value_str xs)) ^ "]"

let spec_str =
  let ints xs = "[" ^ String.concat ";" (List.map string_of_int xs) ^ "]" in
  function
  | S_const v -> "const " ^ spec_value_str v
  | S_source s -> "source " ^ s
  | S_dead -> "dead"
  | S_app (t, args) -> "app " ^ t ^ " " ^ ints args
  | S_extract (b, p) -> Printf.sprintf "extract %d %s" b (ints p)
  | S_insert (v, b, p) -> Printf.sprintf "insert %d %d %s" v b (ints p)

let interning_prop specs =
  let ctx = Symval.create () in
  let nodes = ref [||] in
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun spec ->
      let node k = !nodes.(k mod Array.length !nodes) in
      let desc =
        match spec with
        | S_const v -> Some (Symval.Const v)
        | S_source s -> Some (Symval.Source s)
        | S_dead -> Some Symval.Dead
        | _ when !nodes = [||] -> None
        | S_app (tag, args) -> Some (Symval.App (tag, List.map node args))
        | S_extract (b, p) -> Some (Symval.Extract (node b, p))
        | S_insert (v, b, p) -> Some (Symval.Insert (node v, node b, p))
      in
      Option.iter
        (fun desc ->
          let n = Symval.intern ctx desc in
          let key = old_desc_key desc in
          (match Hashtbl.find_opt by_key key with
          | Some m ->
              if not (Symval.equal_node m n) then
                QCheck.Test.fail_reportf "equal keys %S interned apart" key
          | None ->
              (* node ids count up from 0, so a new key must get the next
                 id — any other id is a node some other key already owns *)
              if Symval.node_id n <> Hashtbl.length by_key then
                QCheck.Test.fail_reportf "key %S shares node %d" key
                  (Symval.node_id n);
              Hashtbl.add by_key key n);
          nodes := Array.append !nodes [| n |])
        desc)
    specs;
  true

let qcheck_interning =
  QCheck.Test.make ~count:500
    ~name:"intern: same node exactly when the old string keys are equal"
    (QCheck.make
       ~print:(fun specs -> String.concat "\n" (List.map spec_str specs))
       QCheck.Gen.(list_size (int_range 1 60) spec_gen))
    interning_prop

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "tv"
    [
      ( "clean",
        [
          Alcotest.test_case "corpus validates through -O" `Quick test_corpus_clean;
          Alcotest.test_case "110 generated modules validate" `Slow test_generated_clean;
          Alcotest.test_case "fuzzed variants validate" `Slow test_fuzzed_clean;
        ] );
      ( "blame",
        [
          Alcotest.test_case "fold_sub_zero blamed on Const_fold" `Quick test_blames_const_fold;
          Alcotest.test_case "inline swap blamed on Inline" `Quick test_blames_inline;
          Alcotest.test_case "mismatch witness names slot and values" `Quick test_witness_shape;
          Alcotest.test_case "every target's bugs attribute to the documented pass" `Quick
            test_target_attribution;
          Alcotest.test_case "run_checked reports all failing passes" `Quick
            test_run_checked_reports_all_failures;
        ] );
      ( "harness",
        [
          Alcotest.test_case "TV oracle detects on non-executing targets" `Quick
            test_pipeline_tv_detects_on_non_executing_target;
          Alcotest.test_case "signature refinement helpers" `Quick test_signature_helpers;
        ] );
      ("soundness", [ QCheck_alcotest.to_alcotest qcheck_tv_sound ]);
      ( "carry",
        [
          Alcotest.test_case "run_tv = plain fold: verdicts, blame, counters"
            `Slow test_carry_forward_changes_nothing;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "sweep verdicts, witnesses and proofs" `Quick
            test_pinned_verdicts;
        ] );
      ("interning", [ QCheck_alcotest.to_alcotest qcheck_interning ]);
    ]
