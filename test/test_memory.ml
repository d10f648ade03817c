(* Tests for the memory/alias static-analysis layer: access-path
   resolution with in-bounds proofs (Spirv_ir.Memory), alias-verdict
   soundness against the interpreter's memory trace, the symbolic memory
   model that folds proven-finite dynamic indices instead of abstaining,
   the four memory lint rules, the optimizer's DSE cross-check, the
   injected store-forwarding bug and its blame attribution, and the
   per-reason abstention counter codec of the jobs journal. *)

open Spirv_ir

let main_fn (m : Module_ir.t) : Func.t =
  List.find
    (fun (f : Func.t) -> Id.equal f.Func.id m.Module_ir.entry)
    m.Module_ir.functions

let analyze m (fn : Func.t) =
  Memory.analyze m fn ~avail:(Dataflow.Availability.make m fn)

let mem_corpus = Corpus.memory_references
let mem_module name = List.assoc name mem_corpus

let full_corpus () =
  Lazy.force Corpus.lowered_references
  @ Lazy.force Corpus.lowered_loop_references
  @ mem_corpus

(* ------------------------------------------------------------------ *)
(* Access-path resolution and in-bounds proofs                         *)

(* every access of the memory corpus resolves and proves in-bounds, even
   though the indices are computed at runtime *)
let test_corpus_fully_resolved () =
  List.iter
    (fun (name, m) ->
      let mem = analyze m (main_fn m) in
      let s = Memory.stats mem in
      Alcotest.(check int)
        (name ^ " all resolved")
        (s.Memory.n_loads + s.Memory.n_stores)
        s.Memory.n_resolved;
      Alcotest.(check int)
        (name ^ " all in-bounds")
        s.Memory.n_resolved s.Memory.n_in_bounds;
      Alcotest.(check bool)
        (name ^ " classified pairs") true (s.Memory.n_pairs > 0))
    mem_corpus

(* dynamic same-array accesses are May_alias, distinct allocations are
   No_alias, and a repeated constant chain is Must_alias *)
let test_verdict_families () =
  let m = mem_module "mem_swizzle" in
  let mem = analyze m (main_fn m) in
  let s = Memory.stats mem in
  Alcotest.(check bool) "has no-alias" true (s.Memory.n_no_alias > 0);
  Alcotest.(check bool) "has may-alias" true (s.Memory.n_may_alias > 0);
  Alcotest.(check bool) "has must-alias" true (s.Memory.n_must_alias > 0)

(* ------------------------------------------------------------------ *)
(* Alias soundness against the interpreter                             *)

(* Run every fragment with the memory trace on, recording the concrete
   (root, path) cells each pointer id touches.  A [No_alias] verdict
   claims its two accesses touch disjoint cells in every execution; any
   overlap is an unsoundness.  An [in_bounds] proof claims every concrete
   index lies inside the composite; any out-of-range component is too. *)
let check_memory_sound name (m : Module_ir.t) (input : Input.t) =
  let funcs =
    List.filter (fun (f : Func.t) -> f.Func.blocks <> []) m.Module_ir.functions
  in
  let mems = List.map (fun f -> analyze m f) funcs in
  let no_alias_pairs =
    List.concat_map
      (fun mem ->
        let accs = Memory.accesses mem in
        List.concat_map
          (fun (a : Memory.access) ->
            List.filter_map
              (fun (b : Memory.access) ->
                if
                  a.Memory.ord < b.Memory.ord
                  && Memory.alias mem a b = Memory.No_alias
                then Some (a.Memory.a_ptr, b.Memory.a_ptr)
                else None)
              accs)
          accs)
      mems
  in
  let bounds_of =
    (* ptr id -> seg lengths, for accesses carrying an in-bounds proof *)
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun mem ->
        List.iter
          (fun (a : Memory.access) ->
            match a.Memory.a_path with
            | Some p when a.Memory.in_bounds ->
                Hashtbl.replace tbl a.Memory.a_ptr
                  (List.map (fun (s : Memory.seg) -> s.Memory.seg_len) p.Memory.segs)
            | _ -> ())
          (Memory.accesses mem))
      mems;
    tbl
  in
  let touched : (Id.t, (Id.t * int list, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let bad = ref None in
  let mem_trace ~kind:_ ~ptr ~root ~path =
    (match Hashtbl.find_opt bounds_of ptr with
    | Some lens when List.length lens = List.length path ->
        List.iter2
          (fun len i ->
            if (i < 0 || i >= len) && Option.is_none !bad then
              bad := Some (Printf.sprintf "in-bounds access %s hit index %d of %d"
                             (Id.to_string ptr) i len))
          lens path
    | _ -> ());
    let cells =
      match Hashtbl.find_opt touched ptr with
      | Some c -> c
      | None ->
          let c = Hashtbl.create 4 in
          Hashtbl.replace touched ptr c;
          c
    in
    Hashtbl.replace cells (root, path) ()
  in
  for y = 0 to input.Input.height - 1 do
    for x = 0 to input.Input.width - 1 do
      ignore (Interp.run_fragment ~mem_trace m input ~frag_x:x ~frag_y:y)
    done
  done;
  (match !bad with
  | Some msg -> Alcotest.failf "%s: %s" name msg
  | None -> ());
  List.iter
    (fun (p, q) ->
      match (Hashtbl.find_opt touched p, Hashtbl.find_opt touched q) with
      | Some cp, Some cq ->
          Hashtbl.iter
            (fun (root, path) () ->
              if Hashtbl.mem cq (root, path) then
                Alcotest.failf
                  "%s: no-alias pair %s / %s both touched %s[%s]" name
                  (Id.to_string p) (Id.to_string q) (Id.to_string root)
                  (String.concat "," (List.map string_of_int path)))
            cp
      | _ -> ())
    no_alias_pairs

let test_alias_sound_on_corpus () =
  List.iter
    (fun (name, m) -> check_memory_sound name m Corpus.default_input)
    (full_corpus ())

let prop_alias_sound_on_generated =
  QCheck.Test.make ~count:30
    ~name:"memory analysis sound vs Interp on generated modules"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let m = Generator.generate (Tbct.Rng.make seed) in
      check_memory_sound
        (Printf.sprintf "seed %d" seed)
        m Generator.default_input;
      true)

(* the memory corpus clamps every index into range, so the in-bounds
   proofs and alias verdicts must survive arbitrary uniform values *)
let prop_alias_sound_on_hostile_uniforms =
  QCheck.Test.make ~count:25
    ~name:"memory corpus sound under arbitrary uniforms"
    QCheck.(pair small_signed_int (float_range (-64.) 64.))
    (fun (mode, scale) ->
      let input =
        Input.make ~width:4 ~height:4
          [
            ("u_zero", Value.VFloat 0.0);
            ("u_one", Value.VFloat 1.0);
            ("u_half", Value.VFloat 0.5);
            ("u_scale", Value.VFloat scale);
            ("u_steps", Value.VInt 4l);
            ("u_mode", Value.VInt (Int32.of_int mode));
            ("u_true", Value.VBool true);
            ("u_false", Value.VBool false);
          ]
      in
      List.iter
        (fun (name, m) ->
          Alcotest.(check bool) (name ^ " well-defined") true
            (Interp.well_defined m input);
          check_memory_sound name m input)
        mem_corpus;
      true)

(* ------------------------------------------------------------------ *)
(* The symbolic memory model                                           *)

(* TV covers the memory corpus completely: no pass is blamed and no step
   abstains — the dynamic indices are folded, not given up on *)
let test_tv_memory_corpus_covered () =
  List.iter
    (fun (name, m) ->
      match Compilers.Optimizer.(run_tv standard) m with
      | Error s -> Alcotest.failf "%s: pipeline crashed: %s" name s
      | Ok report ->
          List.iter
            (fun (p, v) ->
              match v with
              | Compilers.Tv.Equivalent -> ()
              | Compilers.Tv.Mismatch _ ->
                  Alcotest.failf "%s: mismatch in %s" name
                    (Compilers.Optimizer.show_pass_name p)
              | Compilers.Tv.Abstained r ->
                  Alcotest.failf "%s: %s abstained: %s" name
                    (Compilers.Optimizer.show_pass_name p)
                    r)
            report.Compilers.Optimizer.tv_steps)
    mem_corpus

(* and the folds are counted: the counted checker reports the proofs the
   memory analysis licensed *)
let test_mem_proofs_counted () =
  let m = mem_module "mem_rotate" in
  let m' = Compilers.Optimizer.(run standard) m in
  let v, proofs = Compilers.Tv.check_pass_counted m m' in
  (match v with
  | Compilers.Tv.Equivalent -> ()
  | _ -> Alcotest.fail "expected equivalence on mem_rotate");
  Alcotest.(check bool) "proofs counted" true (proofs > 0)

(* an unclamped dynamic index has no finite proven range, so Symval still
   abstains — with the dynamic-index reason, not a wrong verdict.
   [extra] plants a dead pure instruction: same semantics, different
   digest, so the engine cannot short-circuit the TV check. *)
let unclamped_index_module ?(extra = false) () =
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let out = Builder.output_color b in
  let fc = Builder.frag_coord b in
  let arr_t = Builder.array_ty b ~elem:(Builder.float_ty b) ~len:4 in
  let fb, main, _ =
    Builder.begin_function b ~name:"main" ~ret:void_t ~params:[]
  in
  let l0 = Builder.new_label fb in
  Builder.start_block fb l0;
  if extra then ignore (Builder.iadd fb (Builder.cint b 1) (Builder.cint b 2));
  let a = Builder.hoisted_var fb ~pointee:arr_t in
  List.iteri
    (fun j v ->
      Builder.store fb
        (Builder.access_chain fb a [ Builder.cint b j ])
        (Builder.cfloat b v))
    [ 0.1; 0.2; 0.3; 0.4 ];
  let xy = Builder.load fb fc in
  let x = Builder.extract fb xy [ 0 ] in
  let j = Builder.f_to_s fb x in
  (* j is whatever the fragment coordinate converts to: no clamp, no
     proven range, so the fold is not licensed *)
  let r = Builder.load fb (Builder.access_chain fb a [ j ]) in
  let one = Builder.cfloat b 1.0 in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ r; r; r; one ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  (Builder.finish b ~entry:main, main, l0)

let test_unclamped_index_abstains () =
  let m, _, _ = unclamped_index_module () in
  let ctx = Symval.create () in
  match Symval.summarize ctx m with
  | _ -> Alcotest.fail "expected a dynamic-index abstention"
  | exception Symval.Abstain (`Dynamic_index, _) -> ()

(* the per-reason label list is the engine's counter vocabulary *)
let test_reason_labels_stable () =
  Alcotest.(check (list string)) "labels"
    [ "loop-unbounded"; "budget"; "dynamic-index"; "forced-unroll";
      "unsupported"; "internal" ]
    Symval.reason_labels

(* ------------------------------------------------------------------ *)
(* Memory lint rules                                                   *)

let scaffold () =
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let out = Builder.output_color b in
  let fb, main, _ =
    Builder.begin_function b ~name:"main" ~ret:void_t ~params:[]
  in
  let l0 = Builder.new_label fb in
  Builder.start_block fb l0;
  (b, fb, main, l0, out)

let finish_color (b : Builder.t) fb main ~out r =
  let one = Builder.cfloat b 1.0 in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ r; r; r; one ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  Builder.finish b ~entry:main

let find_rule rule findings =
  List.find_opt (fun (f : Lint.finding) -> String.equal f.Lint.rule rule)
    findings

let test_lint_out_of_bounds () =
  let b, fb, main, l0, out = scaffold () in
  let arr_t = Builder.array_ty b ~elem:(Builder.float_ty b) ~len:4 in
  let a = Builder.hoisted_var fb ~pointee:arr_t in
  Builder.store fb
    (Builder.access_chain fb a [ Builder.cint b 0 ])
    (Builder.cfloat b 0.5);
  (* constant index 7 into a length-4 array: resolved, provably out *)
  let r = Builder.load fb (Builder.access_chain fb a [ Builder.cint b 7 ]) in
  let m = finish_color b fb main ~out r in
  match find_rule "possible-out-of-bounds" (Lint.check_module m) with
  | None -> Alcotest.fail "possible-out-of-bounds not reported"
  | Some f ->
      Alcotest.(check bool) "is an error" true (f.Lint.severity = Lint.Error);
      (* golden line format: severity[rule] fn/block: message *)
      Alcotest.(check string) "pp line"
        (Printf.sprintf "error[possible-out-of-bounds] %s/%s: %s"
           (Id.to_string main) (Id.to_string l0) f.Lint.message)
        (Lint.to_string f)

let test_lint_uninitialized_load () =
  let b, fb, main, _, out = scaffold () in
  let arr_t = Builder.array_ty b ~elem:(Builder.float_ty b) ~len:2 in
  let a = Builder.hoisted_var fb ~pointee:arr_t in
  let r = Builder.load fb (Builder.access_chain fb a [ Builder.cint b 1 ]) in
  let m = finish_color b fb main ~out r in
  match find_rule "uninitialized-load" (Lint.check_module m) with
  | None -> Alcotest.fail "uninitialized-load not reported"
  | Some f ->
      Alcotest.(check bool) "is a warning" true (f.Lint.severity = Lint.Warning)

let test_lint_dead_store () =
  let b, fb, main, _, out = scaffold () in
  let arr_t = Builder.array_ty b ~elem:(Builder.float_ty b) ~len:2 in
  let a = Builder.hoisted_var fb ~pointee:arr_t in
  (* a[0] is stored but only a[1] is ever loaded *)
  Builder.store fb
    (Builder.access_chain fb a [ Builder.cint b 0 ])
    (Builder.cfloat b 0.25);
  Builder.store fb
    (Builder.access_chain fb a [ Builder.cint b 1 ])
    (Builder.cfloat b 0.75);
  let r = Builder.load fb (Builder.access_chain fb a [ Builder.cint b 1 ]) in
  let m = finish_color b fb main ~out r in
  match find_rule "dead-store" (Lint.check_module m) with
  | None -> Alcotest.fail "dead-store not reported"
  | Some f ->
      Alcotest.(check bool) "is a warning" true (f.Lint.severity = Lint.Warning)

let test_lint_redundant_load () =
  let b, fb, main, _, out = scaffold () in
  let arr_t = Builder.array_ty b ~elem:(Builder.float_ty b) ~len:2 in
  let a = Builder.hoisted_var fb ~pointee:arr_t in
  Builder.store fb
    (Builder.access_chain fb a [ Builder.cint b 0 ])
    (Builder.cfloat b 0.25);
  let r1 = Builder.load fb (Builder.access_chain fb a [ Builder.cint b 0 ]) in
  let r2 = Builder.load fb (Builder.access_chain fb a [ Builder.cint b 0 ]) in
  let r = Builder.fadd fb r1 r2 in
  let m = finish_color b fb main ~out r in
  match find_rule "redundant-load" (Lint.check_module m) with
  | None -> Alcotest.fail "redundant-load not reported"
  | Some f ->
      Alcotest.(check bool) "is a warning" true (f.Lint.severity = Lint.Warning)

(* the whole corpus, memory family included, is clean under all four
   rules (a CI gate repeats this through the CLI) *)
let test_corpus_lint_clean () =
  let mem_rules =
    [ "possible-out-of-bounds"; "uninitialized-load"; "dead-store";
      "redundant-load" ]
  in
  List.iter
    (fun (name, m) ->
      List.iter
        (fun (f : Lint.finding) ->
          if List.mem f.Lint.rule mem_rules then
            Alcotest.failf "%s: %s" name (Lint.to_string f))
        (Lint.check_module m))
    (full_corpus ())

(* ------------------------------------------------------------------ *)
(* DSE cross-check                                                     *)

let test_dse_cross_check_clean () =
  List.iter
    (fun (name, m) ->
      match Compilers.Passes.dse_cross_check m with
      | [] -> ()
      | v :: _ -> Alcotest.failf "%s: %s" name v)
    (full_corpus ())

(* ------------------------------------------------------------------ *)
(* The injected store-forwarding bug                                   *)

let aliased_flags flags =
  { flags with Compilers.Passes.bug_forward_aliased_store = true }

(* with the bug off, store forwarding preserves the memory corpus *)
let test_store_forward_clean () =
  List.iter
    (fun (name, m) ->
      let m' =
        Compilers.Passes.store_forward Compilers.Passes.no_bugs m
      in
      match
        ( Interp.render m Corpus.default_input,
          Interp.render m' Corpus.default_input )
      with
      | Ok a, Ok b ->
          Alcotest.(check bool) (name ^ " image unchanged") true
            (Image.equal a b)
      | _ -> Alcotest.failf "%s: render failed" name)
    (full_corpus ())

(* the bug is a real miscompilation: forwarding a[0] across the
   may-aliasing dynamic store changes the rendered image *)
let test_bug_miscompiles () =
  let m = mem_module "mem_mask" in
  let m' =
    Compilers.Passes.store_forward
      (aliased_flags Compilers.Passes.no_bugs)
      m
  in
  match
    ( Interp.render m Corpus.default_input,
      Interp.render m' Corpus.default_input )
  with
  | Ok a, Ok b ->
      Alcotest.(check bool) "images differ" false (Image.equal a b)
  | _ -> Alcotest.fail "render failed"

(* Table-4-style blame attribution: on every target's flag roster with
   the bug enabled, the memory-aware TV oracle names Store_forward as the
   guilty pass — the render oracle alone could only say "wrong image" *)
let test_bug_blamed_on_all_targets () =
  let m = mem_module "mem_mask" in
  List.iter
    (fun (t : Compilers.Target.t) ->
      match
        Compilers.Optimizer.run_tv
          ~flags:(aliased_flags t.Compilers.Target.opt_flags)
          Compilers.Optimizer.standard m
      with
      | Error s ->
          Alcotest.failf "%s: pipeline crashed: %s" t.Compilers.Target.name s
      | Ok report ->
          Alcotest.(check bool)
            (t.Compilers.Target.name ^ " blames Store_forward")
            true
            (report.Compilers.Optimizer.tv_guilty
            = Some Compilers.Optimizer.Store_forward))
    Compilers.Target.all

(* no target ships the bug by default (the campaign hit lists of the
   earlier experiments must stay byte-identical) *)
let test_bug_latent_by_default () =
  let spec =
    match Compilers.Bug.find_pass_bug "bug_forward_aliased_store" with
    | Some s -> s
    | None -> Alcotest.fail "bug_forward_aliased_store not registered"
  in
  List.iter
    (fun (t : Compilers.Target.t) ->
      Alcotest.(check bool)
        (t.Compilers.Target.name ^ " latent")
        false
        (spec.Compilers.Bug.pb_enabled t.Compilers.Target.opt_flags))
    Compilers.Target.all

(* ------------------------------------------------------------------ *)
(* Abstention counters: codec round-trip                               *)

(* every reason label survives the jobs-journal counter codec across a
   close/reopen — the path `tbct serve` uses to persist per-job
   tv-abstain buckets and `store stats --json` uses to report them *)
let test_counter_codec_round_trip () =
  let dir = Filename.temp_file "tbct_mem_test" "" in
  Sys.remove dir;
  let record =
    {
      Tbct_store.Jobs.id = "job-1";
      tool = "tbct";
      seeds = 4;
      targets = [];
      weights = "";
      tv = true;
    }
  in
  let counters =
    List.mapi
      (fun i label -> ("tv-abstain:" ^ label, i + 1))
      Symval.reason_labels
  in
  let t = Tbct_store.Jobs.open_ ~dir () in
  Tbct_store.Jobs.add t record;
  Tbct_store.Jobs.set_counters t ~id:"job-1" counters;
  Tbct_store.Jobs.close t;
  let t = Tbct_store.Jobs.open_ ~dir () in
  let restored = Tbct_store.Jobs.counters t ~id:"job-1" in
  Tbct_store.Jobs.close t;
  Alcotest.(check (list (pair string int)))
    "restored after reopen"
    (List.sort compare counters)
    restored

(* a clamped-index twin of the corpus rotate module; [extra] as above *)
let clamped_index_module ?(extra = false) () =
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let out = Builder.output_color b in
  let fc = Builder.frag_coord b in
  let arr_t = Builder.array_ty b ~elem:(Builder.float_ty b) ~len:4 in
  let fb, main, _ =
    Builder.begin_function b ~name:"main" ~ret:void_t ~params:[]
  in
  let l0 = Builder.new_label fb in
  Builder.start_block fb l0;
  if extra then ignore (Builder.iadd fb (Builder.cint b 1) (Builder.cint b 2));
  let a = Builder.hoisted_var fb ~pointee:arr_t in
  List.iteri
    (fun j v ->
      Builder.store fb
        (Builder.access_chain fb a [ Builder.cint b j ])
        (Builder.cfloat b v))
    [ 0.1; 0.2; 0.3; 0.4 ];
  let xy = Builder.load fb fc in
  let x = Builder.extract fb xy [ 0 ] in
  let four = Builder.cint b 4 in
  let j =
    Builder.smod fb
      (Builder.iadd fb (Builder.smod fb (Builder.f_to_s fb x) four) four)
      four
  in
  let r = Builder.load fb (Builder.access_chain fb a [ j ]) in
  let one = Builder.cfloat b 1.0 in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ r; r; r; one ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  Builder.finish b ~entry:main

(* a fresh engine bumps the per-reason counter that the scheduler
   attributes to jobs *)
let test_engine_dynamic_index_counter () =
  let e = Harness.Engine.create () in
  let m, _, _ = unclamped_index_module () in
  let m', _, _ = unclamped_index_module ~extra:true () in
  if String.equal (Digest.of_module m) (Digest.of_module m') then
    Alcotest.fail "module pair is digest-identical";
  (match Harness.Engine.tv_check e ~before:m ~after:m' with
  | Compilers.Tv.Abstained _ -> ()
  | _ -> Alcotest.fail "expected a dynamic-index abstention");
  let stats = Harness.Engine.stats e in
  Alcotest.(check (option int)) "counter bumped" (Some 1)
    (List.assoc_opt "tv-abstain:dynamic-index" stats.Harness.Engine.counters)

(* and a proven-in-bounds dynamic index bumps mem-proofs, not an abstain
   bucket *)
let test_engine_mem_proofs_counter () =
  let e = Harness.Engine.create () in
  let m = clamped_index_module () in
  let m' = clamped_index_module ~extra:true () in
  if String.equal (Digest.of_module m) (Digest.of_module m') then
    Alcotest.fail "module pair is digest-identical";
  (match Harness.Engine.tv_check e ~before:m ~after:m' with
  | Compilers.Tv.Equivalent -> ()
  | _ -> Alcotest.fail "expected equivalence");
  let stats = Harness.Engine.stats e in
  Alcotest.(check bool) "mem-proofs counted" true
    (match List.assoc_opt "mem-proofs" stats.Harness.Engine.counters with
    | Some n -> n > 0
    | None -> false);
  Alcotest.(check (option int)) "no dynamic-index abstention" None
    (List.assoc_opt "tv-abstain:dynamic-index" stats.Harness.Engine.counters)

(* ------------------------------------------------------------------ *)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "memory"
    [
      ( "paths",
        [
          Alcotest.test_case "memory corpus fully resolved" `Quick
            test_corpus_fully_resolved;
          Alcotest.test_case "verdict families present" `Quick
            test_verdict_families;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "sound on the corpus" `Quick
            test_alias_sound_on_corpus;
        ]
        @ qcheck
            [
              prop_alias_sound_on_generated;
              prop_alias_sound_on_hostile_uniforms;
            ] );
      ( "symval",
        [
          Alcotest.test_case "memory corpus fully covered" `Quick
            test_tv_memory_corpus_covered;
          Alcotest.test_case "mem proofs counted" `Quick
            test_mem_proofs_counted;
          Alcotest.test_case "unclamped index abstains" `Quick
            test_unclamped_index_abstains;
          Alcotest.test_case "reason labels stable" `Quick
            test_reason_labels_stable;
        ] );
      ( "lint",
        [
          Alcotest.test_case "possible-out-of-bounds" `Quick
            test_lint_out_of_bounds;
          Alcotest.test_case "uninitialized-load" `Quick
            test_lint_uninitialized_load;
          Alcotest.test_case "dead-store" `Quick test_lint_dead_store;
          Alcotest.test_case "redundant-load" `Quick test_lint_redundant_load;
          Alcotest.test_case "corpus clean" `Quick test_corpus_lint_clean;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "dse cross-check clean" `Quick
            test_dse_cross_check_clean;
          Alcotest.test_case "store-forward clean" `Quick
            test_store_forward_clean;
          Alcotest.test_case "bug miscompiles" `Quick test_bug_miscompiles;
          Alcotest.test_case "bug blamed on all targets" `Quick
            test_bug_blamed_on_all_targets;
          Alcotest.test_case "bug latent by default" `Quick
            test_bug_latent_by_default;
        ] );
      ( "counters",
        [
          Alcotest.test_case "codec round-trip" `Quick
            test_counter_codec_round_trip;
          Alcotest.test_case "engine dynamic-index counter" `Quick
            test_engine_dynamic_index_counter;
          Alcotest.test_case "engine mem-proofs counter" `Quick
            test_engine_mem_proofs_counter;
        ] );
    ]
