(* Tests for the flat compiled execution kernel (Spirv_ir.Compile).

   The kernel's contract is golden bit-equality with the reference
   interpreter: same images (Value bit-for-bit, NaNs included), same traps
   with the same messages, same trap ordering and step accounting.  These
   tests drive both engines over the corpus, generated modules, corrupted
   modules (the engine executes post-miscompile modules that need not
   validate), step-limit sweeps and a trap-at-fragment-k regression —
   plus the render memo in Harness.Engine and the binary run codec in
   Tbct_store. *)

open Spirv_ir

(* ------------------------------------------------------------------ *)
(* Bit-exact comparison (Image.equal has a numeric tolerance; here we
   want exact bits — Value.equal compares floats by Int64.bits_of_float) *)

let pixel_eq a b =
  match (a, b) with
  | Image.Killed, Image.Killed -> true
  | Image.Color u, Image.Color v -> Value.equal u v
  | Image.Killed, Image.Color _ | Image.Color _, Image.Killed -> false

let image_eq (a : Image.t) (b : Image.t) =
  a.Image.width = b.Image.width
  && a.Image.height = b.Image.height
  && Array.for_all2 pixel_eq a.Image.pixels b.Image.pixels

let render_result_eq a b =
  match (a, b) with
  | Ok x, Ok y -> image_eq x y
  | Error (s : Interp.trap), Error t -> s = t
  | Ok _, Error _ | Error _, Ok _ -> false

let pp_render_result fmt = function
  | Ok img -> Format.fprintf fmt "Ok:@,%s" (Image.to_ascii img)
  | Error t -> Format.fprintf fmt "Error (%s)" (Interp.trap_to_string t)

let outcome_eq (a : Interp.outcome) (b : Interp.outcome) =
  match (a, b) with
  | Ok x, Ok y -> pixel_eq x y
  | Error s, Error t -> s = t
  | Ok _, Error _ | Error _, Ok _ -> false

let pp_outcome fmt = function
  | Ok px -> Format.fprintf fmt "Ok (%s)" (Image.show_pixel px)
  | Error t -> Format.fprintf fmt "Error (%s)" (Interp.trap_to_string t)

(* Renders can also end in an escaping exception on corrupt modules (e.g. a
   constant that fails to materialize); the kernel must reproduce those
   exceptions too, so compare under a catch-all. *)
let observe f =
  match f () with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

let check_same_render name m input =
  let ref_r = observe (fun () -> Interp.render m input) in
  let com_r = observe (fun () -> Compile.render_batch (Compile.lower m) input) in
  let same =
    match (ref_r, com_r) with
    | Ok a, Ok b -> render_result_eq a b
    | Error a, Error b -> String.equal a b
    | Ok _, Error _ | Error _, Ok _ -> false
  in
  if not same then
    Alcotest.failf "%s: compiled execution diverges from the interpreter@.ref: %a@.com: %a"
      name
      (Format.pp_print_result ~ok:pp_render_result ~error:Format.pp_print_string)
      ref_r
      (Format.pp_print_result ~ok:pp_render_result ~error:Format.pp_print_string)
      com_r

let all_corpus () =
  Lazy.force Corpus.lowered_references
  @ Lazy.force Corpus.lowered_loop_references
  @ List.map (fun (n, m) -> ("mem_" ^ n, m)) Corpus.memory_references

(* ------------------------------------------------------------------ *)
(* Corpus bit-equality *)

let test_corpus_bit_equality () =
  List.iter
    (fun (name, m) -> check_same_render name m Corpus.default_input)
    (all_corpus ())

let test_corpus_hostile_inputs () =
  let base = Corpus.default_input in
  let inputs =
    [
      ("no-uniforms", Input.make ~width:3 ~height:2 []);
      ("1x1", { base with Input.width = 1; height = 1 });
      ("wide", { base with Input.width = 16; height = 1 });
    ]
  in
  List.iter
    (fun (iname, input) ->
      List.iter
        (fun (name, m) -> check_same_render (name ^ "/" ^ iname) m input)
        (all_corpus ()))
    inputs

let test_corpus_run_fragment () =
  List.iter
    (fun (name, m) ->
      let prog = Compile.lower m in
      List.iter
        (fun (x, y) ->
          let a =
            Interp.run_fragment m Corpus.default_input ~frag_x:x ~frag_y:y
          in
          let b =
            Compile.run_fragment prog Corpus.default_input ~frag_x:x ~frag_y:y
          in
          if not (outcome_eq a b) then
            Alcotest.failf "%s (%d,%d): %a vs %a" name x y pp_outcome a
              pp_outcome b)
        [ (0, 0); (3, 1); (7, 7) ])
    (all_corpus ())

(* ------------------------------------------------------------------ *)
(* Fragment throughput: the compiled kernel earns its place only if it is
   much faster than the interpreter it must match bit for bit.  Both sides
   render the full default grid of every corpus module (each program
   lowered once, outside the clock)
   for the same number of sweeps, timed in process CPU time so a loaded
   machine does not skew the ratio; the best of three trials counts. *)

let test_kernel_speedup () =
  let corpus = all_corpus () in
  let programs = List.map (fun (_, m) -> Compile.lower m) corpus in
  let input = Corpus.default_input in
  let sweeps = 5 in
  let cpu_time f =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Sys.time () in
      for _ = 1 to sweeps do
        f ()
      done;
      best := Float.min !best (Sys.time () -. t0)
    done;
    !best
  in
  let interp =
    cpu_time (fun () ->
        List.iter (fun (_, m) -> ignore (Interp.render m input)) corpus)
  in
  let compiled =
    cpu_time (fun () ->
        List.iter (fun p -> ignore (Compile.render_batch p input)) programs)
  in
  let speedup = interp /. Float.max compiled 1e-6 in
  if speedup < 3.0 then
    Alcotest.failf
      "compiled kernel is %.2fx the interpreter's fragment throughput \
       (interpreter %.3fs, compiled %.3fs CPU for %d sweeps); the gate is 3.0x"
      speedup interp compiled sweeps

(* ------------------------------------------------------------------ *)
(* Step-limit parity: the tick accounting must match exactly, so a sweep
   of tight limits over a loopy module must trap at the same budgets. *)

let test_step_limit_parity () =
  let mods =
    List.filter
      (fun (n, _) -> n = "loop_sum" || n = "nested_loops" || n = "kitchen_sink")
      (Lazy.force Corpus.lowered_references)
  in
  Alcotest.(check bool) "sweep modules found" true (mods <> []);
  List.iter
    (fun (name, m) ->
      let prog = Compile.lower m in
      for k = 0 to 120 do
        let a = Interp.render ~step_limit:k m Corpus.default_input in
        let b = Compile.render_batch ~step_limit:k prog Corpus.default_input in
        if not (render_result_eq a b) then
          Alcotest.failf "%s at step_limit %d: %a vs %a" name k
            pp_render_result a pp_render_result b
      done)
    mods

(* ------------------------------------------------------------------ *)
(* Generated and corrupted modules.  The engine executes modules after
   optimizer passes and miscompile rewrites, which need not validate, so
   the kernel must agree with the interpreter on arbitrarily broken
   modules: unbound ids, type confusion, bad branch targets, bad entries. *)

let corrupt rng (m : Module_ir.t) : Module_ir.t =
  let pick_id () = 1 + Tbct.Rng.int rng (m.Module_ir.id_bound + 4) in
  match Tbct.Rng.int rng 4 with
  | 0 ->
      (* rewire every use of one id to another (possibly unbound) id *)
      let old_id = pick_id () and new_id = pick_id () in
      {
        m with
        Module_ir.functions =
          List.map (Func.substitute_uses ~old_id ~new_id) m.Module_ir.functions;
      }
  | 1 ->
      (* drop a constant out from under its uses *)
      let cs = m.Module_ir.constants in
      if cs = [] then m
      else
        let k = Tbct.Rng.int rng (List.length cs) in
        { m with Module_ir.constants = List.filteri (fun i _ -> i <> k) cs }
  | 2 ->
      (* retarget the entry point at a random id *)
      { m with Module_ir.entry = pick_id () }
  | _ ->
      (* drop a global out from under its uses *)
      let gs = m.Module_ir.globals in
      if gs = [] then m
      else
        let k = Tbct.Rng.int rng (List.length gs) in
        { m with Module_ir.globals = List.filteri (fun i _ -> i <> k) gs }

let test_generated_bit_equality =
  QCheck.Test.make ~count:150 ~name:"generated modules: compiled == interp"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let m = Generator.generate (Tbct.Rng.make seed) in
      check_same_render (Printf.sprintf "gen %d" seed) m Generator.default_input;
      true)

let test_corrupted_bit_equality =
  QCheck.Test.make ~count:300 ~name:"corrupted modules: compiled == interp"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Tbct.Rng.make (seed * 2 + 1) in
      let m = Generator.generate rng in
      let rounds = 1 + Tbct.Rng.int rng 3 in
      let m = ref m in
      for _ = 1 to rounds do
        m := corrupt rng !m
      done;
      check_same_render
        (Printf.sprintf "corrupt %d" seed)
        !m Generator.default_input;
      true)

(* ------------------------------------------------------------------ *)
(* Trap-at-fragment-k regression: a module that traps only on fragments
   with x >= 3.  Both engines must abort the render with the identical
   trap (no partial image can escape on the Error path), and agree
   fragment-by-fragment on exactly which fragments trap. *)

let frag_trap_module () =
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let frag = Builder.frag_coord b in
  let out = Builder.output_color b in
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let l = Builder.new_label fb in
  Builder.start_block fb l;
  let fc = Builder.load fb frag in
  let x = Builder.extract fb fc [ 0 ] in
  let limit = Builder.cfloat b 2.9 in
  let cond = Builder.flt fb x limit in
  let good = Builder.cfloat b 1.0 in
  let bad = Builder.cfloat b 2.0 in
  let sel = Builder.select fb cond good bad in
  let color =
    Builder.composite fb ~ty:(Builder.vec4f b) [ sel; sel; sel; sel ]
  in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  let m = Builder.finish b ~entry:main in
  (* Corrupt the else-arm of the select: its constant becomes an unbound
     id, so only fragments with x >= 3 (cond false) evaluate it and trap. *)
  let unbound = m.Module_ir.id_bound + 1 in
  ( {
      m with
      Module_ir.functions =
        List.map
          (Func.substitute_uses ~old_id:bad ~new_id:unbound)
          m.Module_ir.functions;
    },
    unbound )

let test_trap_at_fragment_k () =
  let m, unbound = frag_trap_module () in
  let input = Input.make ~width:8 ~height:4 [] in
  let expected_trap =
    Interp.Invalid_module (Printf.sprintf "unbound id %s" (Id.to_string unbound))
  in
  let prog = Compile.lower m in
  (* whole-grid render: both must abort with the same trap — an Ok here
     would mean a partially-written image escaped the Error path *)
  let ref_r = Interp.render m input in
  let com_r = Compile.render_batch prog input in
  (match ref_r with
  | Error t -> Alcotest.(check bool) "interp trap" true (t = expected_trap)
  | Ok _ -> Alcotest.fail "interpreter leaked a partial image on a trapping render");
  (match com_r with
  | Error t -> Alcotest.(check bool) "compiled trap" true (t = expected_trap)
  | Ok _ -> Alcotest.fail "compiled kernel leaked a partial image on a trapping render");
  (* fragment-by-fragment: traps exactly on x >= 3, identically on both *)
  for y = 0 to 3 do
    for x = 0 to 7 do
      let a = Interp.run_fragment m input ~frag_x:x ~frag_y:y in
      let b = Compile.run_fragment prog input ~frag_x:x ~frag_y:y in
      if not (outcome_eq a b) then
        Alcotest.failf "fragment (%d,%d): %a vs %a" x y pp_outcome a pp_outcome b;
      match a with
      | Ok _ when x < 3 -> ()
      | Error t when x >= 3 ->
          Alcotest.(check bool)
            (Printf.sprintf "trap at (%d,%d)" x y)
            true (t = expected_trap)
      | _ -> Alcotest.failf "fragment (%d,%d): wrong trap boundary" x y
    done
  done

(* The first Error a render reports must belong to the first trapping
   fragment in y-major order, for both engines: tighten the step budget so
   different fragments exhaust it at different times. *)
let test_trap_order_is_y_major () =
  let name, m =
    List.find (fun (n, _) -> n = "loop_sum") (Lazy.force Corpus.lowered_references)
  in
  ignore name;
  let prog = Compile.lower m in
  for k = 0 to 200 do
    let a = Interp.render ~step_limit:k m Corpus.default_input in
    let b = Compile.render_batch ~step_limit:k prog Corpus.default_input in
    if not (render_result_eq a b) then
      Alcotest.failf "loop_sum budget %d: %a vs %a" k pp_render_result a
        pp_render_result b
  done

(* ------------------------------------------------------------------ *)
(* Harness.Engine: the render memo, keyed by (post-miscompile module
   digest, input digest) *)

let run_eq (a : Compilers.Backend.run_result) (b : Compilers.Backend.run_result) =
  match (a, b) with
  | Compilers.Backend.Compiled_ok, Compilers.Backend.Compiled_ok -> true
  | Compilers.Backend.Crashed s, Compilers.Backend.Crashed t -> String.equal s t
  | Compilers.Backend.Rendered x, Compilers.Backend.Rendered y -> image_eq x y
  | _, _ -> false

let rendered what = function
  | Compilers.Backend.Rendered img -> img
  | Compilers.Backend.Compiled_ok | Compilers.Backend.Crashed _ ->
      Alcotest.failf "%s: not rendered" what

(* Mesa and Pixel-5 share an optimizer configuration and no miscompile
   rewrite fires on a corpus module, so both render the same
   post-miscompile module *)
let test_engine_render_memo () =
  let m = snd (List.hd (Lazy.force Corpus.lowered_references)) in
  let mesa, pixel = Compilers.Target.(mesa, pixel5) in
  let in1 = Corpus.default_input in
  let in2 = { in1 with Input.width = in1.Input.width + 1 } in
  let engine = Harness.Engine.create () in
  let counts () =
    let s = Harness.Engine.stats engine in
    (s.Harness.Engine.compiles, s.Harness.Engine.compile_hits)
  in
  let r1 = Harness.Engine.run engine mesa m in1 in
  Alcotest.(check (pair int int)) "the first render lowers the module" (1, 0)
    (counts ());
  (* another target, the same post-miscompile module and input: the run
     memo misses (its key names the target), the render memo answers *)
  let r2 = Harness.Engine.run engine pixel m in1 in
  Alcotest.(check (pair int int)) "the second target renders nothing" (1, 1)
    (counts ());
  Alcotest.(check bool) "both runs share one image" true
    (rendered "Mesa" r1 == rendered "Pixel-5" r2);
  Alcotest.(check int) "two runs executed" 2
    (Harness.Engine.stats engine).Harness.Engine.runs_executed;
  (* a second input is a different render *)
  ignore (Harness.Engine.run engine mesa m in2);
  Alcotest.(check (pair int int)) "a second input renders again" (2, 1)
    (counts ());
  (* the reference-interpreter engine never lowers and agrees bit-exactly *)
  let ref_engine = Harness.Engine.create ~compiled:false () in
  List.iter
    (fun ((t : Compilers.Target.t), r) ->
      Alcotest.(check bool)
        (t.Compilers.Target.name ^ ": compiled engine == reference engine")
        true
        (run_eq r (Harness.Engine.run ref_engine t m in1)))
    [ (mesa, r1); (pixel, r2) ];
  let sr = Harness.Engine.stats ref_engine in
  Alcotest.(check (pair int int)) "reference engine never lowers" (0, 0)
    (sr.Harness.Engine.compiles, sr.Harness.Engine.compile_hits);
  (* reset clears the render memo and its counters *)
  Harness.Engine.reset engine;
  Alcotest.(check (pair int int)) "reset zeroes compiles and compile_hits"
    (0, 0) (counts ());
  ignore (Harness.Engine.run engine pixel m in1);
  Alcotest.(check (pair int int)) "a run after reset renders" (1, 0)
    (counts ())

let test_engine_render_eviction () =
  let refs = Lazy.force Corpus.lowered_references in
  let m1 = snd (List.nth refs 0) and m2 = snd (List.nth refs 1) in
  let mesa, pixel = Compilers.Target.(mesa, pixel5) in
  let input = Corpus.default_input in
  let engine = Harness.Engine.create ~memo_capacity:1 () in
  ignore (Harness.Engine.run engine mesa m1 input);
  ignore (Harness.Engine.run engine mesa m2 input) (* evicts m1's render *);
  ignore (Harness.Engine.run engine pixel m1 input) (* must re-render *);
  let s = Harness.Engine.stats engine in
  Alcotest.(check int) "capacity 1 re-renders the evicted key" 3
    s.Harness.Engine.compiles;
  Alcotest.(check int) "no hit survives eviction" 0
    s.Harness.Engine.compile_hits;
  Alcotest.(check bool) "evictions are counted" true
    (s.Harness.Engine.memo_evictions > 0)

(* ------------------------------------------------------------------ *)
(* Run codec: binary format, hostile floats, legacy-store read-back *)

let hostile_floats =
  [
    0.; -0.; 1.5; -1.; 1e-310 (* denormal *); -1e300; infinity; neg_infinity;
    nan;
    Int64.float_of_bits 0x7ff8000000000001L (* quiet NaN, payload bit 0 *);
    Int64.float_of_bits 0x7ff0000000000001L (* signalling NaN *);
    Int64.float_of_bits 0xfff7deadbeef0001L (* negative NaN, wide payload *);
    Int64.float_of_bits 1L (* smallest denormal *);
  ]

let hostile_image () =
  let w = List.length hostile_floats in
  let img = Image.create ~width:w ~height:2 in
  List.iteri
    (fun i f ->
      img.Image.pixels.(i) <- Image.Color (Value.VFloat f);
      img.Image.pixels.(w + i) <-
        (if i mod 5 = 4 then Image.Killed
         else
           Image.Color
             (Value.VComposite
                [|
                  Value.VFloat f;
                  Value.VInt (Int32.of_int i);
                  Value.VBool (i mod 2 = 0);
                |])))
    hostile_floats;
  img

let hostile_runs () =
  [
    Compilers.Backend.Compiled_ok;
    Compilers.Backend.Crashed "sig with\nnewline\tand \x00 byte";
    Compilers.Backend.Rendered (hostile_image ());
  ]

let test_codec_hostile_floats () =
  List.iter
    (fun r ->
      match Tbct_store.Run_codec.(decode_run (encode_run r)) with
      | Some r' when run_eq r r' -> ()
      | Some _ -> Alcotest.fail "binary codec: decoded to a different run"
      | None -> Alcotest.fail "binary codec: failed to decode")
    (hostile_runs ())

let round_trips r =
  match Tbct_store.Run_codec.(decode_run (encode_run r)) with
  | Some r' -> run_eq r r'
  | None -> false

(* values travel inside run results: a one-pixel image carries one *)
let value_round_trips v =
  let img = Image.create ~width:1 ~height:1 in
  img.Image.pixels.(0) <- Image.Color v;
  round_trips (Compilers.Backend.Rendered img)

let test_value_codec_hostile_floats () =
  List.iter
    (fun f ->
      if not (value_round_trips (Value.VFloat f)) then
        Alcotest.failf "value codec lost bits of %h (%Lx)" f
          (Int64.bits_of_float f))
    hostile_floats

let hostile_value_gen =
  let open QCheck.Gen in
  let hostile_float =
    oneof [ oneofl hostile_floats; float ]
  in
  let base =
    oneof
      [
        map (fun b -> Value.VBool b) bool;
        map (fun i -> Value.VInt (Int32.of_int i)) int;
        map (fun f -> Value.VFloat f) hostile_float;
      ]
  in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then base
          else
            frequency
              [
                (3, base);
                ( 1,
                  map
                    (fun vs -> Value.VComposite (Array.of_list vs))
                    (list_size (int_range 0 4) (self (n / 2))) );
              ])
        (min n 8))

let hostile_run_gen =
  let open QCheck.Gen in
  let image =
    int_range 1 5 >>= fun width ->
    int_range 1 5 >>= fun height ->
    list_repeat (width * height)
      (oneof
         [
           return Image.Killed;
           map (fun v -> Image.Color v) hostile_value_gen;
         ])
    >|= fun pixels ->
    let img = Image.create ~width ~height in
    List.iteri (fun i p -> img.Image.pixels.(i) <- p) pixels;
    img
  in
  oneof
    [
      return Compilers.Backend.Compiled_ok;
      map (fun s -> Compilers.Backend.Crashed s) (string_size (int_range 0 40));
      map (fun img -> Compilers.Backend.Rendered img) image;
    ]

let test_codec_hostile_qcheck =
  QCheck.Test.make ~count:300
    ~name:"hostile-float run results round-trip in both codecs"
    (QCheck.make hostile_run_gen)
    round_trips

let test_binary_codec_rejects_truncation () =
  List.iter
    (fun r ->
      let enc = Tbct_store.Run_codec.encode_run r in
      Alcotest.(check char) "binary version byte" '\001' enc.[0];
      (* every strict prefix (past the version byte) is corrupt, never a
         misdecode *)
      for i = 1 to String.length enc - 1 do
        if Tbct_store.Run_codec.decode_run (String.sub enc 0 i) <> None then
          Alcotest.failf "truncation at byte %d still decoded" i
      done)
    (hostile_runs ())

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "compile"
    [
      ( "bit-equality",
        [
          Alcotest.test_case "corpus default input" `Quick
            test_corpus_bit_equality;
          Alcotest.test_case "corpus hostile inputs" `Quick
            test_corpus_hostile_inputs;
          Alcotest.test_case "corpus run_fragment" `Quick
            test_corpus_run_fragment;
          Alcotest.test_case "step-limit parity" `Quick test_step_limit_parity;
          QCheck_alcotest.to_alcotest test_generated_bit_equality;
          QCheck_alcotest.to_alcotest test_corrupted_bit_equality;
        ] );
      ( "throughput",
        [ Alcotest.test_case "kernel >= 3x interpreter" `Slow test_kernel_speedup ]
      );
      ( "trap-ordering",
        [
          Alcotest.test_case "trap at fragment k" `Quick test_trap_at_fragment_k;
          Alcotest.test_case "trap order y-major" `Quick
            test_trap_order_is_y_major;
        ] );
      ( "engine-cache",
        [
          Alcotest.test_case "render memo hits" `Quick
            test_engine_render_memo;
          Alcotest.test_case "render memo eviction" `Quick
            test_engine_render_eviction;
        ] );
      ( "run-codec",
        [
          Alcotest.test_case "hostile floats round-trip" `Quick
            test_codec_hostile_floats;
          Alcotest.test_case "value codec hostile floats" `Quick
            test_value_codec_hostile_floats;
          Alcotest.test_case "binary truncation rejected" `Quick
            test_binary_codec_rejects_truncation;
          QCheck_alcotest.to_alcotest test_codec_hostile_qcheck;
        ] );
    ]
