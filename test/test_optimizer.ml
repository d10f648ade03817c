(* Focused unit tests for individual optimizer passes: each pass's intended
   rewrite is checked structurally on a crafted module (semantics
   preservation is covered separately in test_compilers). *)

open Spirv_ir

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
  | Error (e :: _) -> Alcotest.failf "crafted module invalid: %s" (Validate.error_to_string e)
  | Error [] -> Alcotest.fail "invalid");
  m

let count_op m pred =
  List.fold_left
    (fun acc (f : Func.t) ->
      acc + List.length (List.filter pred (Func.all_instrs f)))
    0 m.Module_ir.functions

let is_binop (i : Instr.t) = match i.Instr.op with Instr.Binop _ -> true | _ -> false
let is_copy (i : Instr.t) = match i.Instr.op with Instr.CopyObject _ -> true | _ -> false
let is_load (i : Instr.t) = match i.Instr.op with Instr.Load _ -> true | _ -> false
let is_store (i : Instr.t) = match i.Instr.op with Instr.Store _ -> true | _ -> false
let is_call (i : Instr.t) = match i.Instr.op with Instr.FunctionCall _ -> true | _ -> false

let run1 pass m = Compilers.Optimizer.run [ pass ] m

(* ------------------------------------------------------------------ *)

let test_const_fold_folds_constants () =
  let m =
    mk_module (fun b fb ->
        (* 1.5 + 2.5 on constants *)
        Builder.fadd fb (Builder.cfloat b 1.5) (Builder.cfloat b 2.5))
  in
  let m' = run1 Compilers.Optimizer.Const_fold m in
  Alcotest.(check int) "binop replaced" 0 (count_op m' is_binop);
  (* the folded 4.0 constant exists *)
  let float_id = Option.get (Module_ir.find_type_id m' Ty.Float) in
  Alcotest.(check bool) "4.0 interned" true
    (Module_ir.find_constant_id m' ~ty:float_id ~value:(Constant.Float 4.0) <> None)

let test_const_fold_leaves_dynamic_alone () =
  let m =
    mk_module (fun b fb ->
        let frag = Builder.frag_coord b in
        ignore frag;
        (* dynamic value: no folding possible *)
        Builder.fadd fb (Builder.cfloat b 1.5) (Builder.cfloat b 2.5))
  in
  (* add a dynamic add on top *)
  let m_dyn =
    mk_module (fun b fb ->
        let frag = Builder.frag_coord b in
        let fc = Builder.load fb frag in
        let x = Builder.extract fb fc [ 0 ] in
        Builder.fadd fb x (Builder.cfloat b 2.5))
  in
  ignore m;
  let m' = run1 Compilers.Optimizer.Const_fold m_dyn in
  Alcotest.(check int) "dynamic binop kept" 1 (count_op m' is_binop)

let test_copy_prop_collapses_chains () =
  let m =
    mk_module (fun b fb ->
        let v = Builder.fadd fb (Builder.cfloat b 0.25) (Builder.cfloat b 0.5) in
        let c1 = Builder.copy fb v in
        let c2 = Builder.copy fb c1 in
        let c3 = Builder.copy fb c2 in
        c3)
  in
  let m' = run1 Compilers.Optimizer.Copy_prop m in
  (* the color composite now references the original value directly *)
  let uses_of id =
    List.fold_left
      (fun acc (f : Func.t) ->
        acc
        + List.length
            (List.filter
               (fun (i : Instr.t) -> List.mem id (Instr.used_ids i))
               (Func.all_instrs f)))
      0 m'.Module_ir.functions
  in
  let copies =
    List.concat_map
      (fun (f : Func.t) ->
        List.filter_map
          (fun (i : Instr.t) -> if is_copy i then i.Instr.result else None)
          (Func.all_instrs f))
      m'.Module_ir.functions
  in
  List.iter
    (fun c -> Alcotest.(check int) "copy results unused" 0 (uses_of c))
    copies

let test_dce_removes_unused () =
  let m =
    mk_module (fun b fb ->
        let dead = Builder.fmul fb (Builder.cfloat b 3.0) (Builder.cfloat b 4.0) in
        ignore dead;
        Builder.cfloat b 0.5 |> fun c -> Builder.fadd fb c c)
  in
  let before = count_op m is_binop in
  let m' = run1 Compilers.Optimizer.Dce m in
  Alcotest.(check int) "dead binop removed" (before - 1) (count_op m' is_binop)

let test_dce_keeps_stores_and_calls () =
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let float_t = Builder.float_ty b in
  let out = Builder.output_color b in
  let g = Builder.global b Ty.Private ~pointee:float_t ~name:"g" () in
  (* helper writes the global: a call with a side effect *)
  let fb, helper, _ = Builder.begin_function b ~name:"w" ~ret:float_t ~params:[] in
  let l = Builder.new_label fb in
  Builder.start_block fb l;
  Builder.store fb g (Builder.cfloat b 0.75);
  Builder.ret_value fb (Builder.cfloat b 0.0);
  ignore (Builder.end_function fb);
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let l = Builder.new_label fb in
  Builder.start_block fb l;
  let unused_call = Builder.call fb helper [] in
  ignore unused_call;
  let v = Builder.load fb g in
  let one = Builder.cfloat b 1.0 in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ v; one; one; one ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  let m = Builder.finish b ~entry:main in
  let m' = run1 Compilers.Optimizer.Dce m in
  Alcotest.(check int) "call kept" 1
    (count_op m' (fun i -> is_call i && (match i.Instr.op with
         | Instr.FunctionCall (c, _) -> Id.equal c helper
         | _ -> false)))

let test_simplify_cfg_folds_constant_branch () =
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let out = Builder.output_color b in
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let l0 = Builder.new_label fb in
  let lt = Builder.new_label fb in
  let le = Builder.new_label fb in
  let lm = Builder.new_label fb in
  let t = Builder.cbool b true in
  Builder.start_block fb l0;
  Builder.branch_cond fb t lt le;
  Builder.start_block fb lt;
  Builder.branch fb lm;
  Builder.start_block fb le;
  Builder.branch fb lm;
  Builder.start_block fb lm;
  let one = Builder.cfloat b 1.0 in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ one; one; one; one ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  let m = Builder.finish b ~entry:main in
  let m' = run1 Compilers.Optimizer.Simplify_cfg m in
  let f = Module_ir.entry_function m' in
  (* the false arm is unreachable and removed; straight-line merging
     collapses the rest into a single block *)
  Alcotest.(check int) "one block remains" 1 (List.length f.Func.blocks);
  Alcotest.(check bool) "still valid" true (Validate.is_valid m')

let test_phi_simplify_single_entry () =
  (* after removing one arm, φs become single-entry; phi_simplify turns them
     into copies *)
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let out = Builder.output_color b in
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let l0 = Builder.new_label fb in
  let lt = Builder.new_label fb in
  let le = Builder.new_label fb in
  let lm = Builder.new_label fb in
  let t = Builder.cbool b true in
  Builder.start_block fb l0;
  Builder.branch_cond fb t lt le;
  Builder.start_block fb lt;
  let vt = Builder.fadd fb (Builder.cfloat b 0.25) (Builder.cfloat b 0.25) in
  Builder.branch fb lm;
  Builder.start_block fb le;
  let ve = Builder.fadd fb (Builder.cfloat b 0.5) (Builder.cfloat b 0.25) in
  Builder.branch fb lm;
  Builder.start_block fb lm;
  let phi = Builder.phi fb ~ty:(Builder.float_ty b) [ (vt, lt); (ve, le) ] in
  let one = Builder.cfloat b 1.0 in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ phi; one; one; one ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  let m = Builder.finish b ~entry:main in
  let m' =
    Compilers.Optimizer.run
      [ Compilers.Optimizer.Simplify_cfg; Compilers.Optimizer.Phi_simplify ]
      m
  in
  Alcotest.(check int) "no phis left" 0 (count_op m' Instr.is_phi);
  Alcotest.(check bool) "valid" true (Validate.is_valid m')

let test_cse_dedups_within_block () =
  let m =
    mk_module (fun b fb ->
        let x = Builder.fadd fb (Builder.cfloat b 0.25) (Builder.cfloat b 0.5) in
        let y = Builder.fadd fb (Builder.cfloat b 0.25) (Builder.cfloat b 0.5) in
        Builder.fmul fb x y)
  in
  let m' = run1 Compilers.Optimizer.Cse m in
  (* one of the two identical adds became a CopyObject *)
  Alcotest.(check int) "one add collapsed" 1 (count_op m' is_copy)

(* ------------------------------------------------------------------ *)
(* CSE keys: the pass keys pure instructions by the structural pair
   (op, result type).  It replaced a key spelled as the printed op plus
   "@" and the type id; this copy of that pass is the oracle. *)

let string_keyed_cse m =
  let cse_block (b : Block.t) =
    let seen : (string, Id.t) Hashtbl.t = Hashtbl.create 16 in
    let instrs =
      List.map
        (fun (i : Instr.t) ->
          match (i.Instr.result, i.Instr.ty, i.Instr.op) with
          | ( Some r,
              Some ty,
              (( Instr.Binop _ | Instr.Unop _ | Instr.Select _
               | Instr.CompositeConstruct _ | Instr.CompositeExtract _
               | Instr.CompositeInsert _ ) as op) ) -> (
              let key = Instr.show_op op ^ "@" ^ Id.to_string ty in
              match Hashtbl.find_opt seen key with
              | Some prior -> Instr.make ~result:r ~ty (Instr.CopyObject prior)
              | None ->
                  Hashtbl.replace seen key r;
                  i)
          | _ -> i)
        b.Block.instrs
    in
    { b with Block.instrs }
  in
  {
    m with
    Module_ir.functions =
      List.map
        (fun (fn : Func.t) -> { fn with Func.blocks = List.map cse_block fn.Func.blocks })
        m.Module_ir.functions;
  }

(* two instructions that agree in everything the CSE key sees except one
   component must both survive, and agree with the oracle *)
let check_cse_keeps_apart name m =
  let m' = Compilers.Passes.cse m in
  Alcotest.(check int) (name ^ ": nothing merged") 0 (count_op m' is_copy);
  Alcotest.(check bool) (name ^ ": the input comes back") true (m' == m);
  Alcotest.(check bool) (name ^ ": the string-keyed oracle agrees") true
    (Module_ir.equal_exact (string_keyed_cse m) m')

let test_cse_keeps_result_types_apart () =
  check_cse_keeps_apart "result type"
    (mk_module (fun b fb ->
         let x = Builder.cfloat b 0.25 and y = Builder.cfloat b 0.5 in
         let arr = Builder.array_ty b ~elem:(Builder.float_ty b) ~len:2 in
         (* the same CompositeConstruct [x; y], typed vec2 and float[2] *)
         let v = Builder.composite fb ~ty:(Builder.vec2f b) [ x; y ] in
         let a = Builder.composite fb ~ty:arr [ x; y ] in
         Builder.fadd fb (Builder.extract fb v [ 0 ]) (Builder.extract fb a [ 1 ])))

let test_cse_keeps_index_paths_apart () =
  check_cse_keeps_apart "index path"
    (mk_module (fun b fb ->
         let vec2 = Builder.vec2f b in
         let mat = Builder.matrix_ty b ~column:vec2 ~count:2 in
         let c =
           Builder.composite fb ~ty:mat
             [ Builder.cvec2f b 0.25 0.5; Builder.cvec2f b 0.75 1.0 ]
         in
         Builder.fadd fb (Builder.extract fb c [ 0; 1 ]) (Builder.extract fb c [ 1; 0 ])))

let test_cse_keeps_binop_kinds_apart () =
  check_cse_keeps_apart "binop kind"
    (mk_module (fun b fb ->
         let x = Builder.cfloat b 0.25 and y = Builder.cfloat b 0.5 in
         Builder.fsub fb (Builder.fadd fb x y) (Builder.fmul fb x y)))

(* ------------------------------------------------------------------ *)
(* Properties over corpus modules, fuzzed variants and pipeline
   intermediates                                                        *)

let all_passes =
  Compilers.Optimizer.
    [ Const_fold; Copy_prop; Dce; Simplify_cfg; Phi_simplify; Cse; Inline;
      Store_forward; Dse; Hoist_invariant ]

(* every target's pipeline, under clean flags and under its own *)
let configs =
  List.concat_map
    (fun (t : Compilers.Target.t) ->
      [
        (t.Compilers.Target.pipeline, Compilers.Passes.no_bugs);
        (t.Compilers.Target.pipeline, t.Compilers.Target.opt_flags);
      ])
    Compilers.Target.all
  |> List.sort_uniq compare

(* [m] and every module the pipeline passes through, up to a crash; a step
   that returned its input is not listed again *)
let intermediates flags pipeline m =
  let rec go m acc = function
    | [] -> List.rev acc
    | pass :: rest -> (
        match Compilers.Optimizer.run_pass flags m pass with
        | m' when m' == m -> go m acc rest
        | m' -> go m' (m' :: acc) rest
        | exception Compilers.Opt_util.Compiler_crash _ -> List.rev acc)
  in
  go m [ m ] pipeline

let sample_modules =
  lazy (Lazy.force Corpus.lowered_references @ Lazy.force Corpus.lowered_loop_references)

(* a corpus module and one fuzzed variant of it *)
let sample_arb =
  let n = List.length (Lazy.force sample_modules) in
  QCheck.(pair (int_bound (n - 1)) (int_bound 10_000))

let sample (i, seed) =
  let name, m = List.nth (Lazy.force sample_modules) i in
  let config =
    {
      Spirv_fuzz.Fuzzer.default_config with
      Spirv_fuzz.Fuzzer.donors = List.map snd (Lazy.force Corpus.lowered_donors);
    }
  in
  let ctx = Spirv_fuzz.Context.make m Corpus.default_input in
  let variant =
    (Spirv_fuzz.Fuzzer.run ~config ~seed ctx).Spirv_fuzz.Fuzzer.final
      .Spirv_fuzz.Context.m
  in
  [ (name, m); (Printf.sprintf "%s/%d" name seed, variant) ]

let prop_cse_matches_string_key =
  QCheck.Test.make ~count:40 ~name:"cse equals the string-keyed oracle" sample_arb
    (fun s ->
      List.for_all
        (fun (name, m0) ->
          List.for_all
            (fun (pipeline, flags) ->
              List.for_all
                (fun m ->
                  Module_ir.equal_exact (Compilers.Passes.cse m) (string_keyed_cse m)
                  || QCheck.Test.fail_reportf "%s: cse differs from the oracle" name)
                (intermediates flags pipeline m0))
            configs)
        (sample s))

(* A pass hands its input back physically exactly when it changes nothing
   (Passes' identity contract): [p m == m] iff [equal_exact m (p m)]. *)
let prop_unchanged_is_identity =
  QCheck.Test.make ~count:40 ~name:"pass returns input iff unchanged"
    sample_arb (fun s ->
      List.for_all
        (fun (name, m0) ->
          List.for_all
            (fun (pipeline, flags) ->
              List.for_all
                (fun m ->
                  List.for_all
                    (fun pass ->
                      match Compilers.Optimizer.run_pass flags m pass with
                      | exception Compilers.Opt_util.Compiler_crash _ -> true
                      | m' ->
                          m' == m = Module_ir.equal_exact m m'
                          || QCheck.Test.fail_reportf "%s: %s: returned input %b, unchanged %b"
                               name
                               (Compilers.Optimizer.show_pass_name pass)
                               (m' == m) (Module_ir.equal_exact m m'))
                    all_passes)
                (intermediates flags pipeline m0))
            configs)
        (sample s))

(* A miscompile rewrite hands its input back physically exactly when the
   bug's shape is absent (Bug's identity contract), on corpus modules,
   fuzzed variants and every configuration's optimized output — the
   modules a device target rewrites. *)
let prop_rewrite_unchanged_is_identity =
  QCheck.Test.make ~count:40 ~name:"rewrite returns input iff unchanged"
    sample_arb (fun s ->
      List.for_all
        (fun (name, m0) ->
          let optimized =
            List.filter_map
              (fun (pipeline, flags) ->
                match Compilers.Optimizer.run ~flags pipeline m0 with
                | m -> Some m
                | exception Compilers.Opt_util.Compiler_crash _ -> None)
              configs
          in
          List.for_all
            (fun m ->
              List.for_all
                (fun (bug : Compilers.Bug.miscompile_spec) ->
                  let m' = bug.Compilers.Bug.rewrite m in
                  m' == m = Module_ir.equal_exact m m'
                  || QCheck.Test.fail_reportf
                       "%s: %s: returned input %b, unchanged %b" name
                       bug.Compilers.Bug.mc_bug_id (m' == m)
                       (Module_ir.equal_exact m m'))
                Compilers.Bug.all_miscompile_bugs)
            (m0 :: optimized))
        (sample s))

let test_inline_replaces_call () =
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let float_t = Builder.float_ty b in
  let out = Builder.output_color b in
  let fb, helper, params = Builder.begin_function b ~name:"h" ~ret:float_t ~params:[ float_t ] in
  let p = List.hd params in
  let l = Builder.new_label fb in
  Builder.start_block fb l;
  let r = Builder.fmul fb p (Builder.cfloat b 2.0) in
  Builder.ret_value fb r;
  ignore (Builder.end_function fb);
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let l = Builder.new_label fb in
  Builder.start_block fb l;
  let v = Builder.call fb helper [ Builder.cfloat b 0.25 ] in
  let one = Builder.cfloat b 1.0 in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ v; one; one; one ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  let m = Builder.finish b ~entry:main in
  let m' = run1 Compilers.Optimizer.Inline m in
  Alcotest.(check int) "no calls left" 0 (count_op m' is_call);
  Alcotest.(check bool) "valid" true (Validate.is_valid m');
  (* DontInline prevents it *)
  let m_ni =
    {
      m with
      Module_ir.functions =
        List.map
          (fun (f : Func.t) ->
            if Id.equal f.Func.id helper then { f with Func.control = Func.DontInline }
            else f)
          m.Module_ir.functions;
    }
  in
  let m_ni' = run1 Compilers.Optimizer.Inline m_ni in
  Alcotest.(check int) "DontInline call kept" 1 (count_op m_ni' is_call)

let test_store_forward_and_dse () =
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let float_t = Builder.float_ty b in
  let out = Builder.output_color b in
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let l = Builder.new_label fb in
  Builder.start_block fb l;
  let var = Builder.local_var fb ~pointee:float_t in
  Builder.store fb var (Builder.cfloat b 0.75);
  let v = Builder.load fb var in
  let one = Builder.cfloat b 1.0 in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ v; one; one; one ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  let m = Builder.finish b ~entry:main in
  let m' =
    Compilers.Optimizer.run
      Compilers.Optimizer.
        [ Store_forward; Copy_prop; Dse; Dce ]
      m
  in
  (* the local variable, its store and its load are all gone *)
  Alcotest.(check int) "no loads" 0 (count_op m' is_load);
  Alcotest.(check int) "one store (the output)" 1 (count_op m' is_store);
  Alcotest.(check int) "no variables" 0
    (count_op m' (fun i -> match i.Instr.op with Instr.Variable _ -> true | _ -> false))

let test_store_forward_blocked_by_call () =
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let float_t = Builder.float_ty b in
  let out = Builder.output_color b in
  let g = Builder.global b Ty.Private ~pointee:float_t ~name:"g" () in
  let fb, writer, _ = Builder.begin_function b ~name:"w" ~ret:float_t ~params:[] in
  let l = Builder.new_label fb in
  Builder.start_block fb l;
  Builder.store fb g (Builder.cfloat b 0.5);
  Builder.ret_value fb (Builder.cfloat b 0.0);
  ignore (Builder.end_function fb);
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let l = Builder.new_label fb in
  Builder.start_block fb l;
  Builder.store fb g (Builder.cfloat b 0.25);
  let _call = Builder.call fb writer [] in
  let v = Builder.load fb g in
  let one = Builder.cfloat b 1.0 in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ v; one; one; one ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  let m = Builder.finish b ~entry:main in
  let m' = run1 Compilers.Optimizer.Store_forward m in
  (* the load must NOT be forwarded to 0.25: the call wrote 0.5 *)
  Alcotest.(check int) "load survives" 1 (count_op m' is_load);
  (* and the whole pipeline still renders 0.5 in the red channel *)
  let input = Input.make ~width:1 ~height:1 [] in
  match Interp.render (Compilers.Optimizer.run Compilers.Optimizer.standard m) input with
  | Ok img -> (
      match Image.get img ~x:0 ~y:0 with
      | Image.Color (Value.VComposite [| Value.VFloat r; _; _; _ |]) ->
          Alcotest.(check (float 1e-9)) "red is the callee's write" 0.5 r
      | _ -> Alcotest.fail "pixel shape")
  | Error t -> Alcotest.failf "trap: %s" (Interp.trap_to_string t)

let test_optimizer_idempotent_on_corpus () =
  List.iter
    (fun (name, m) ->
      let once = Compilers.Optimizer.run Compilers.Optimizer.standard m in
      let twice = Compilers.Optimizer.run Compilers.Optimizer.standard once in
      if Module_ir.instruction_count twice > Module_ir.instruction_count once then
        Alcotest.failf "%s grows on re-optimization" name)
    (Lazy.force Corpus.lowered_references)

(* ------------------------------------------------------------------ *)
(* Checked pipelines: validate + lint as a post-pass oracle             *)

let test_run_checked_clean () =
  List.iter
    (fun (name, m) ->
      match Compilers.Optimizer.run_checked Compilers.Optimizer.standard m with
      | Ok m' ->
          let plain = Compilers.Optimizer.run Compilers.Optimizer.standard m in
          Alcotest.(check bool)
            (name ^ ": checked run produces the same module") true
            (Module_ir.equal m' plain)
      | Error ((pass, detail) :: _) ->
          Alcotest.failf "%s: clean pipeline flagged at %s: %s" name
            (Compilers.Optimizer.show_pass_name pass)
            detail
      | Error [] -> Alcotest.failf "%s: empty failure list" name)
    (Lazy.force Corpus.lowered_references)

(* the stale-phi optimizer bug leaves a phi entry for a deleted block; the
   checked pipeline must catch it at the offending pass *)
let test_run_checked_catches_stale_phi () =
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
  let m = Builder.finish b ~entry:main in
  let buggy =
    { Compilers.Passes.no_bugs with Compilers.Passes.bug_keep_stale_phi_entries = true }
  in
  (match
     Compilers.Optimizer.run_checked ~flags:buggy
       [ Compilers.Optimizer.Simplify_cfg ] m
   with
  | Ok _ -> Alcotest.fail "stale-phi bug not caught"
  | Error [] -> Alcotest.fail "empty failure list"
  | Error ((pass, _) :: _) ->
      Alcotest.(check bool) "flagged at simplify_cfg" true
        (Compilers.Optimizer.equal_pass_name pass Compilers.Optimizer.Simplify_cfg));
  (* the same pipeline without the bug passes the checks *)
  match Compilers.Optimizer.run_checked [ Compilers.Optimizer.Simplify_cfg ] m with
  | Ok _ -> ()
  | Error [] -> Alcotest.fail "empty failure list"
  | Error ((pass, detail) :: _) ->
      Alcotest.failf "clean simplify_cfg flagged: %s: %s"
        (Compilers.Optimizer.show_pass_name pass)
        detail

let () =
  Alcotest.run "optimizer"
    [
      ( "passes",
        [
          Alcotest.test_case "const_fold folds constants" `Quick test_const_fold_folds_constants;
          Alcotest.test_case "const_fold leaves dynamic ops" `Quick
            test_const_fold_leaves_dynamic_alone;
          Alcotest.test_case "copy_prop collapses chains" `Quick test_copy_prop_collapses_chains;
          Alcotest.test_case "dce removes unused" `Quick test_dce_removes_unused;
          Alcotest.test_case "dce keeps stores and calls" `Quick test_dce_keeps_stores_and_calls;
          Alcotest.test_case "simplify_cfg folds constant branches" `Quick
            test_simplify_cfg_folds_constant_branch;
          Alcotest.test_case "phi_simplify" `Quick test_phi_simplify_single_entry;
          Alcotest.test_case "cse dedups within block" `Quick test_cse_dedups_within_block;
          Alcotest.test_case "cse keeps result types apart" `Quick
            test_cse_keeps_result_types_apart;
          Alcotest.test_case "cse keeps index paths apart" `Quick
            test_cse_keeps_index_paths_apart;
          Alcotest.test_case "cse keeps binop kinds apart" `Quick
            test_cse_keeps_binop_kinds_apart;
          Alcotest.test_case "inline replaces calls (honors DontInline)" `Quick
            test_inline_replaces_call;
          Alcotest.test_case "store forwarding + DSE" `Quick test_store_forward_and_dse;
          Alcotest.test_case "store forwarding blocked by calls" `Quick
            test_store_forward_blocked_by_call;
          Alcotest.test_case "idempotent on corpus" `Quick test_optimizer_idempotent_on_corpus;
          Alcotest.test_case "run_checked clean on corpus" `Quick test_run_checked_clean;
          Alcotest.test_case "run_checked catches stale-phi bug" `Quick
            test_run_checked_catches_stale_phi;
        ] );
      (* the group name is no wider than "passes", so Alcotest's name
         column keeps the longest case names whole *)
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_cse_matches_string_key;
            prop_unchanged_is_identity;
            prop_rewrite_unchanged_is_identity;
          ] );
    ]
