(* Tests for the IR substrate: builder, validator, interpreter, dominance,
   disassembler/assembler round trips, and generator properties. *)

open Spirv_ir

let check_valid name m =
  match Validate.check m with
  | Ok () -> ()
  | Error (e :: _) -> Alcotest.failf "%s: %s" name (Validate.error_to_string e)
  | Error [] -> Alcotest.failf "%s: invalid with no errors?" name

(* A minimal module: main stores vec4(x/8, y/8, u, 1) to the output. *)
let simple_module () =
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let frag = Builder.frag_coord b in
  let out = Builder.output_color b in
  let u = Builder.uniform b ~pointee:(Builder.float_ty b) ~name:"u" in
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let l = Builder.new_label fb in
  Builder.start_block fb l;
  let fc = Builder.load fb frag in
  let x = Builder.extract fb fc [ 0 ] in
  let y = Builder.extract fb fc [ 1 ] in
  let eighth = Builder.cfloat b 0.125 in
  let r = Builder.fmul fb x eighth in
  let g = Builder.fmul fb y eighth in
  let uv = Builder.load fb u in
  let one = Builder.cfloat b 1.0 in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ r; g; uv; one ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  Builder.finish b ~entry:main

let simple_input = Input.make ~width:4 ~height:4 [ ("u", Value.VFloat 0.5) ]

(* ------------------------------------------------------------------ *)
(* Builder + validator *)

let test_simple_module_valid () = check_valid "simple module" (simple_module ())

let test_validator_rejects_bad_entry () =
  let m = simple_module () in
  let m = { m with Module_ir.entry = 9999 } in
  Alcotest.(check bool) "invalid entry" false (Validate.is_valid m)

let test_validator_rejects_duplicate_ids () =
  let m = simple_module () in
  let m =
    { m with Module_ir.constants = m.Module_ir.constants @ m.Module_ir.constants }
  in
  Alcotest.(check bool) "duplicate constants" false (Validate.is_valid m)

let test_validator_rejects_use_before_def () =
  (* build main where an instruction uses an id defined later in the block *)
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let out = Builder.output_color b in
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let l = Builder.new_label fb in
  Builder.start_block fb l;
  let one = Builder.cfloat b 1.0 in
  let v = Builder.fadd fb one one in
  let w = Builder.fadd fb v one in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ v; w; one; one ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  let m = Builder.finish b ~entry:main in
  check_valid "in-order module" m;
  (* now swap the two adds so that [w] uses [v] before its definition *)
  let swap_adds (f : Func.t) =
    let blocks =
      List.map
        (fun (blk : Block.t) ->
          match blk.Block.instrs with
          | i1 :: i2 :: rest when not (Instr.is_phi i1) ->
              { blk with Block.instrs = (i2 :: i1 :: rest) }
          | _ -> blk)
        f.Func.blocks
    in
    { f with Func.blocks = blocks }
  in
  let m_bad =
    { m with Module_ir.functions = List.map swap_adds m.Module_ir.functions }
  in
  Alcotest.(check bool) "use before def rejected" false (Validate.is_valid m_bad)

let test_validator_rejects_type_mismatch () =
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let out = Builder.output_color b in
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let l = Builder.new_label fb in
  Builder.start_block fb l;
  let i1 = Builder.cint b 1 in
  (* manually emit a float add over ints *)
  let bad = Builder.instr fb ~ty:(Builder.int_ty b) (Instr.Binop (Instr.FAdd, i1, i1)) in
  ignore bad;
  let one = Builder.cfloat b 1.0 in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ one; one; one; one ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  let m = Builder.finish b ~entry:main in
  Alcotest.(check bool) "FAdd on ints rejected" false (Validate.is_valid m)

let test_validator_rejects_store_to_uniform () =
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let out = Builder.output_color b in
  let u = Builder.uniform b ~pointee:(Builder.float_ty b) ~name:"u" in
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let l = Builder.new_label fb in
  Builder.start_block fb l;
  let one = Builder.cfloat b 1.0 in
  Builder.store fb u one;
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ one; one; one; one ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  let m = Builder.finish b ~entry:main in
  Alcotest.(check bool) "store to uniform rejected" false (Validate.is_valid m)

let test_validator_rejects_recursion () =
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let float_t = Builder.float_ty b in
  let out = Builder.output_color b in
  (* f calls itself *)
  let fb, f_id, _ = Builder.begin_function b ~name:"f" ~ret:float_t ~params:[] in
  let l = Builder.new_label fb in
  Builder.start_block fb l;
  let r = Builder.call fb f_id [] in
  Builder.ret_value fb r;
  ignore (Builder.end_function fb);
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let l = Builder.new_label fb in
  Builder.start_block fb l;
  let one = Builder.cfloat b 1.0 in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ one; one; one; one ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  let m = Builder.finish b ~entry:main in
  Alcotest.(check bool) "recursion rejected" false (Validate.is_valid m)

(* ------------------------------------------------------------------ *)
(* Interpreter *)

let test_render_simple () =
  let m = simple_module () in
  match Interp.render m simple_input with
  | Error t -> Alcotest.failf "render failed: %s" (Interp.trap_to_string t)
  | Ok img -> (
      match Image.get img ~x:2 ~y:1 with
      | Image.Color (Value.VComposite [| Value.VFloat r; Value.VFloat g; Value.VFloat u; Value.VFloat a |]) ->
          Alcotest.(check (float 1e-12)) "r = (2+0.5)/8" 0.3125 r;
          Alcotest.(check (float 1e-12)) "g = (1+0.5)/8" 0.1875 g;
          Alcotest.(check (float 1e-12)) "u uniform" 0.5 u;
          Alcotest.(check (float 1e-12)) "alpha" 1.0 a
      | _ -> Alcotest.fail "unexpected pixel shape")

let test_render_missing_uniform () =
  let m = simple_module () in
  match Interp.render m (Input.make ~width:2 ~height:2 []) with
  | Error (Interp.Missing_uniform "u") -> ()
  | Error t -> Alcotest.failf "wrong trap: %s" (Interp.trap_to_string t)
  | Ok _ -> Alcotest.fail "expected a trap"

let test_render_deterministic () =
  let m = simple_module () in
  match (Interp.render m simple_input, Interp.render m simple_input) with
  | Ok a, Ok b -> Alcotest.(check bool) "same image" true (Image.equal a b)
  | _ -> Alcotest.fail "render failed"

(* a module with an infinite loop must hit the step limit *)
let test_step_limit () =
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let out = Builder.output_color b in
  ignore out;
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let l0 = Builder.new_label fb in
  let l1 = Builder.new_label fb in
  Builder.start_block fb l0;
  Builder.branch fb l1;
  Builder.start_block fb l1;
  Builder.branch fb l1;
  ignore (Builder.end_function fb);
  let m = Builder.finish b ~entry:main in
  (* note: branch-to-self from l1 is a loop; validator accepts it (l1
     dominates itself) *)
  match Interp.render ~step_limit:1000 m (Input.make ~width:1 ~height:1 []) with
  | Error Interp.Step_limit_exceeded -> ()
  | Error t -> Alcotest.failf "wrong trap: %s" (Interp.trap_to_string t)
  | Ok _ -> Alcotest.fail "expected step-limit trap"

let test_kill_pixel () =
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let frag = Builder.frag_coord b in
  let out = Builder.output_color b in
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let l0 = Builder.new_label fb in
  let l_kill = Builder.new_label fb in
  let l_color = Builder.new_label fb in
  Builder.start_block fb l0;
  let fc = Builder.load fb frag in
  let x = Builder.extract fb fc [ 0 ] in
  let half = Builder.cfloat b 2.0 in
  let c = Builder.flt fb x half in
  Builder.branch_cond fb c l_kill l_color;
  Builder.start_block fb l_kill;
  Builder.kill fb;
  Builder.start_block fb l_color;
  let one = Builder.cfloat b 1.0 in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ one; one; one; one ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  let m = Builder.finish b ~entry:main in
  check_valid "kill module" m;
  match Interp.render m (Input.make ~width:4 ~height:1 []) with
  | Error t -> Alcotest.failf "render failed: %s" (Interp.trap_to_string t)
  | Ok img ->
      (* x = 0.5, 1.5 are < 2.0 -> killed; x = 2.5, 3.5 -> white *)
      Alcotest.(check bool) "pixel 0 killed" true (Image.get img ~x:0 ~y:0 = Image.Killed);
      Alcotest.(check bool) "pixel 1 killed" true (Image.get img ~x:1 ~y:0 = Image.Killed);
      Alcotest.(check bool) "pixel 2 colored" true (Image.get img ~x:2 ~y:0 <> Image.Killed);
      Alcotest.(check bool) "pixel 3 colored" true (Image.get img ~x:3 ~y:0 <> Image.Killed)

(* loop: sum 0..4 via phi, check function result *)
let test_loop_phi_function () =
  let b = Builder.create () in
  let int_t = Builder.int_ty b in
  let void_t = Builder.void_ty b in
  let out = Builder.output_color b in
  (* fn sum(n) = 0+1+...+(n-1) *)
  let fb, sum_id, params = Builder.begin_function b ~name:"sum" ~ret:int_t ~params:[ int_t ] in
  let n = List.hd params in
  let zero = Builder.cint b 0 in
  let one = Builder.cint b 1 in
  let l0 = Builder.new_label fb in
  let header = Builder.new_label fb in
  let body = Builder.new_label fb in
  let exit = Builder.new_label fb in
  Builder.start_block fb l0;
  Builder.branch fb header;
  Builder.start_block fb header;
  let i = Builder.phi fb ~ty:int_t [ (zero, l0); (0, body) ] in
  let acc = Builder.phi fb ~ty:int_t [ (zero, l0); (0, body) ] in
  let c = Builder.slt fb i n in
  Builder.branch_cond fb c body exit;
  Builder.start_block fb body;
  let acc' = Builder.iadd fb acc i in
  let i' = Builder.iadd fb i one in
  Builder.patch_phi fb ~phi:i ~pred:body ~value:i';
  Builder.patch_phi fb ~phi:acc ~pred:body ~value:acc';
  Builder.branch fb header;
  Builder.start_block fb exit;
  Builder.ret_value fb acc;
  ignore (Builder.end_function fb);
  (* main: required for a well-formed module *)
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let l = Builder.new_label fb in
  Builder.start_block fb l;
  let one_f = Builder.cfloat b 1.0 in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ one_f; one_f; one_f; one_f ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  let m = Builder.finish b ~entry:main in
  check_valid "loop module" m;
  match Interp.run_function m ~fn:sum_id ~args:[ Value.VInt 5l ] with
  | Ok (Some (Value.VInt r)) -> Alcotest.(check int32) "sum 0..4" 10l r
  | Ok _ -> Alcotest.fail "unexpected result shape"
  | Error t -> Alcotest.failf "trap: %s" (Interp.trap_to_string t)

let test_division_by_zero_is_total () =
  let b = Builder.create () in
  let int_t = Builder.int_ty b in
  let void_t = Builder.void_ty b in
  let out = Builder.output_color b in
  let fb, div_id, params = Builder.begin_function b ~name:"divz" ~ret:int_t ~params:[ int_t ] in
  let n = List.hd params in
  let zero = Builder.cint b 0 in
  let l = Builder.new_label fb in
  Builder.start_block fb l;
  let q = Builder.sdiv fb n zero in
  Builder.ret_value fb q;
  ignore (Builder.end_function fb);
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let l = Builder.new_label fb in
  Builder.start_block fb l;
  let one_f = Builder.cfloat b 1.0 in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ one_f; one_f; one_f; one_f ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  let m = Builder.finish b ~entry:main in
  match Interp.run_function m ~fn:div_id ~args:[ Value.VInt 17l ] with
  | Ok (Some (Value.VInt r)) -> Alcotest.(check int32) "17/0 = 0" 0l r
  | _ -> Alcotest.fail "division by zero must be total"

(* ------------------------------------------------------------------ *)
(* Dominance *)

(* diamond: a -> {b, c} -> d *)
let diamond_func () =
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let out = Builder.output_color b in
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let la = Builder.new_label fb in
  let lb = Builder.new_label fb in
  let lc = Builder.new_label fb in
  let ld = Builder.new_label fb in
  let t = Builder.cbool b true in
  Builder.start_block fb la;
  Builder.branch_cond fb t lb lc;
  Builder.start_block fb lb;
  Builder.branch fb ld;
  Builder.start_block fb lc;
  Builder.branch fb ld;
  Builder.start_block fb ld;
  let one = Builder.cfloat b 1.0 in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ one; one; one; one ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  let m = Builder.finish b ~entry:main in
  (m, Module_ir.entry_function m, (la, lb, lc, ld))

let test_dominance_diamond () =
  let _, f, (la, lb, lc, ld) = diamond_func () in
  let dom = (Dominance.compute [@alert "-private_dominance"]) (Cfg.of_func f) in
  Alcotest.(check bool) "a dom b" true (Dominance.dominates dom la lb);
  Alcotest.(check bool) "a dom d" true (Dominance.dominates dom la ld);
  Alcotest.(check bool) "b not dom d" false (Dominance.dominates dom lb ld);
  Alcotest.(check bool) "c not dom d" false (Dominance.dominates dom lc ld);
  Alcotest.(check bool) "reflexive" true (Dominance.dominates dom lb lb);
  Alcotest.(check (option int)) "idom d = a" (Some la) (Dominance.idom dom ld);
  Alcotest.(check (option int)) "idom b = a" (Some la) (Dominance.idom dom lb)

let test_cfg_preds_succs () =
  let _, f, (la, lb, lc, ld) = diamond_func () in
  let cfg = Cfg.of_func f in
  Alcotest.(check (list int)) "succs a" [ lb; lc ] (Cfg.successors cfg la);
  Alcotest.(check (list int)) "preds d" [ lb; lc ]
    (List.sort compare (Cfg.predecessors cfg ld));
  Alcotest.(check (list int)) "preds a" [] (Cfg.predecessors cfg la)

let test_unreachable_block_not_reachable () =
  let _, f, _ = diamond_func () in
  let cfg = Cfg.of_func f in
  Alcotest.(check int) "all four reachable" 4 (List.length (Cfg.reachable_labels cfg))

(* loop: entry -> header <-> body, header -> exit *)
let loop_func () =
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let out = Builder.output_color b in
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let l0 = Builder.new_label fb in
  let header = Builder.new_label fb in
  let body = Builder.new_label fb in
  let exit = Builder.new_label fb in
  let zero = Builder.cint b 0 in
  let limit = Builder.cint b 3 in
  let one_i = Builder.cint b 1 in
  Builder.start_block fb l0;
  Builder.branch fb header;
  Builder.start_block fb header;
  let i = Builder.phi fb ~ty:(Builder.int_ty b) [ (zero, l0); (0, body) ] in
  let c = Builder.slt fb i limit in
  Builder.branch_cond fb c body exit;
  Builder.start_block fb body;
  let i' = Builder.iadd fb i one_i in
  Builder.patch_phi fb ~phi:i ~pred:body ~value:i';
  Builder.branch fb header;
  Builder.start_block fb exit;
  let one = Builder.cfloat b 1.0 in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ one; one; one; one ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  let m = Builder.finish b ~entry:main in
  (m, Module_ir.entry_function m, (l0, header, body, exit))

let test_dominance_loop () =
  let m, f, (l0, header, body, exit) = loop_func () in
  check_valid "loop module" m;
  let dom = (Dominance.compute [@alert "-private_dominance"]) (Cfg.of_func f) in
  (* the header dominates the body and the exit; the body dominates nothing
     else (the back edge does not make it dominate the header) *)
  Alcotest.(check bool) "header dom body" true (Dominance.dominates dom header body);
  Alcotest.(check bool) "header dom exit" true (Dominance.dominates dom header exit);
  Alcotest.(check bool) "body not dom header" false
    (Dominance.strictly_dominates dom body header);
  Alcotest.(check bool) "body not dom exit" false (Dominance.dominates dom body exit);
  Alcotest.(check (option int)) "idom body = header" (Some header) (Dominance.idom dom body);
  Alcotest.(check (option int)) "idom exit = header" (Some header) (Dominance.idom dom exit);
  Alcotest.(check (option int)) "idom header = entry" (Some l0) (Dominance.idom dom header);
  Alcotest.(check (option int)) "entry has no idom" None (Dominance.idom dom l0)

let test_dominance_unreachable_block () =
  let m, f, _ = diamond_func () in
  ignore m;
  (* graft an unreachable block onto the function *)
  let orphan =
    { Block.label = 99999; Block.instrs = []; Block.terminator = Block.Return }
  in
  let f = { f with Func.blocks = f.Func.blocks @ [ orphan ] } in
  let cfg = Cfg.of_func f in
  let dom = (Dominance.compute [@alert "-private_dominance"]) cfg in
  Alcotest.(check bool) "orphan unreachable" false (Cfg.is_reachable cfg 99999);
  Alcotest.(check bool) "nothing dominates the orphan" false
    (Dominance.dominates dom (Func.entry_block f).Block.label 99999);
  Alcotest.(check bool) "the orphan dominates nothing" false
    (Dominance.dominates dom 99999 (Func.entry_block f).Block.label);
  Alcotest.(check (option int)) "no idom" None (Dominance.idom dom 99999)

(* ------------------------------------------------------------------ *)
(* substitute_nth_use properties *)

let prop_substitute_nth_use =
  (* over a few representative shapes: substitution hits exactly the
     requested operand slot and nothing else *)
  let shapes =
    [
      Instr.make ~result:100 ~ty:1 (Instr.Binop (Instr.IAdd, 10, 11));
      Instr.make ~result:100 ~ty:1 (Instr.Select (10, 11, 12));
      Instr.make ~result:100 ~ty:1 (Instr.CompositeConstruct [ 10; 11; 12; 13 ]);
      Instr.make_void (Instr.Store (10, 11));
      Instr.make ~result:100 ~ty:1 (Instr.AccessChain (10, [ 11; 12 ]));
      Instr.make ~result:100 ~ty:1 (Instr.FunctionCall (9, [ 10; 11 ]));
      Instr.make ~result:100 ~ty:1 (Instr.Phi [ (10, 20); (11, 21) ]);
    ]
  in
  QCheck.Test.make ~name:"substitute_nth_use hits exactly one slot" ~count:200
    QCheck.(pair (int_bound (List.length shapes - 1)) (int_bound 12))
    (fun (which, n) ->
      let i = List.nth shapes which in
      let uses = Instr.used_ids i in
      match Instr.substitute_nth_use ~n ~new_id:777 i with
      | None ->
          (* out of range, a φ label slot, or a call callee slot *)
          n >= List.length uses
          || (match i.Instr.op with
             | Instr.Phi _ -> n mod 2 = 1
             | Instr.FunctionCall _ -> n = 0
             | _ -> false)
      | Some i' ->
          let uses' = Instr.used_ids i' in
          List.length uses = List.length uses'
          && List.for_all2
               (fun k (u, u') -> if k = n then u' = 777 else u = u')
               (List.init (List.length uses) Fun.id)
               (List.combine uses uses'))

(* ------------------------------------------------------------------ *)
(* Disasm / Asm round trip *)

let test_roundtrip_simple () =
  let m = simple_module () in
  let text = Disasm.to_string m in
  let m' = Asm.of_string text in
  Alcotest.(check bool) "round trip equal" true (Module_ir.equal m m')

let test_roundtrip_generated () =
  let rng = Tbct.Rng.make 12345 in
  for _ = 1 to 20 do
    let m = Generator.generate rng in
    let text = Disasm.to_string m in
    let m' = Asm.of_string text in
    if not (Module_ir.equal m m') then begin
      print_string text;
      Alcotest.fail "generated module did not round trip"
    end
  done

let test_asm_rejects_garbage () =
  match Asm.of_string_result "this is not assembly" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"

let test_asm_rejects_unterminated_function () =
  let m = simple_module () in
  let text = Disasm.to_string m in
  (* drop the final OpFunctionEnd *)
  let lines = String.split_on_char '\n' text in
  let truncated =
    List.filter (fun l -> not (String.equal l "OpFunctionEnd")) lines
  in
  match Asm.of_string_result (String.concat "\n" truncated) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated function accepted"

let test_diff_empty_on_equal () =
  let m = simple_module () in
  let removed, added = Disasm.diff m m in
  Alcotest.(check int) "no removals" 0 (List.length removed);
  Alcotest.(check int) "no additions" 0 (List.length added)

(* ------------------------------------------------------------------ *)
(* Generator properties *)

let prop_generated_valid =
  QCheck.Test.make ~name:"generated modules validate" ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let m = Generator.generate (Tbct.Rng.make seed) in
      Validate.is_valid m)

let prop_generated_well_defined =
  QCheck.Test.make ~name:"generated modules are well-defined on the default input"
    ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let m = Generator.generate (Tbct.Rng.make seed) in
      Interp.well_defined m Generator.default_input)

let prop_render_deterministic =
  QCheck.Test.make ~name:"rendering is deterministic" ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let m = Generator.generate (Tbct.Rng.make seed) in
      match (Interp.render m Generator.default_input, Interp.render m Generator.default_input) with
      | Ok a, Ok b -> Image.equal a b
      | _ -> false)

let prop_roundtrip =
  QCheck.Test.make ~name:"disasm/asm round trip" ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let m = Generator.generate (Tbct.Rng.make seed) in
      Module_ir.equal m (Asm.of_string (Disasm.to_string m)))

(* ------------------------------------------------------------------ *)
(* Input parsing *)

let test_input_parsing () =
  match Input.of_string "width=4, height=2, u=0.5, n=3, flag=true, v=(1.0; 2.0)" with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok input ->
      Alcotest.(check int) "width" 4 input.Input.width;
      Alcotest.(check int) "height" 2 input.Input.height;
      Alcotest.(check bool) "u" true
        (Input.find_uniform input "u" = Some (Value.VFloat 0.5));
      Alcotest.(check bool) "n" true
        (Input.find_uniform input "n" = Some (Value.VInt 3l));
      Alcotest.(check bool) "flag" true
        (Input.find_uniform input "flag" = Some (Value.VBool true));
      Alcotest.(check bool) "vec" true
        (match Input.find_uniform input "v" with
        | Some (Value.VComposite [| Value.VFloat 1.0; Value.VFloat 2.0 |]) -> true
        | _ -> false)

let test_input_parsing_newlines_and_comments () =
  match Input.of_string "# grid\nwidth=2\n\nu=1.5" with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok input ->
      Alcotest.(check int) "width" 2 input.Input.width;
      Alcotest.(check bool) "u" true
        (Input.find_uniform input "u" = Some (Value.VFloat 1.5))

let test_input_parsing_errors () =
  (match Input.of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing = accepted");
  (match Input.of_string "u=notavalue" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad value accepted");
  match Input.of_string "width=-3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative width accepted"

(* ------------------------------------------------------------------ *)
(* Value / ops *)

let test_value_update_extract () =
  let v = Value.VComposite [| Value.VInt 1l; Value.VComposite [| Value.VInt 2l; Value.VInt 3l |] |] in
  let v' = Value.update_at_path v [ 1; 0 ] (Value.VInt 9l) in
  Alcotest.(check bool) "updated" true
    (Value.equal (Value.extract_at_path v' [ 1; 0 ]) (Value.VInt 9l));
  Alcotest.(check bool) "other leaf untouched" true
    (Value.equal (Value.extract_at_path v' [ 1; 1 ]) (Value.VInt 3l));
  Alcotest.(check bool) "original immutable" true
    (Value.equal (Value.extract_at_path v [ 1; 0 ]) (Value.VInt 2l))

let test_ops_vector_componentwise () =
  let vec a b = Value.VComposite [| Value.VFloat a; Value.VFloat b |] in
  let r = Ops.eval_binop Instr.FAdd (vec 1.0 2.0) (vec 10.0 20.0) in
  Alcotest.(check bool) "componentwise add" true (Value.equal r (vec 11.0 22.0))

let test_ops_nan_sanitized () =
  let r = Ops.eval_binop Instr.FDiv (Value.VFloat 0.0) (Value.VFloat 0.0) in
  Alcotest.(check bool) "0/0 = 0" true (Value.equal r (Value.VFloat 0.0));
  let big = Value.VFloat 1e308 in
  let r2 = Ops.eval_binop Instr.FMul big big in
  Alcotest.(check bool) "overflow sanitized" true (Value.equal r2 (Value.VFloat 0.0))

let test_ops_convert_clamps () =
  let r = Ops.eval_unop Instr.ConvertFToS (Value.VFloat 1e300) in
  Alcotest.(check bool) "clamped to max_int32" true (Value.equal r (Value.VInt Int32.max_int))

(* ------------------------------------------------------------------ *)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "spirv_ir"
    [
      ( "validate",
        [
          Alcotest.test_case "simple module valid" `Quick test_simple_module_valid;
          Alcotest.test_case "bad entry rejected" `Quick test_validator_rejects_bad_entry;
          Alcotest.test_case "duplicate ids rejected" `Quick test_validator_rejects_duplicate_ids;
          Alcotest.test_case "use before def rejected" `Quick test_validator_rejects_use_before_def;
          Alcotest.test_case "type mismatch rejected" `Quick test_validator_rejects_type_mismatch;
          Alcotest.test_case "store to uniform rejected" `Quick
            test_validator_rejects_store_to_uniform;
          Alcotest.test_case "recursion rejected" `Quick test_validator_rejects_recursion;
        ] );
      ( "interp",
        [
          Alcotest.test_case "render simple" `Quick test_render_simple;
          Alcotest.test_case "missing uniform traps" `Quick test_render_missing_uniform;
          Alcotest.test_case "render deterministic" `Quick test_render_deterministic;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "kill leaves pixel unwritten" `Quick test_kill_pixel;
          Alcotest.test_case "loop with phis" `Quick test_loop_phi_function;
          Alcotest.test_case "division by zero total" `Quick test_division_by_zero_is_total;
        ] );
      ( "dominance",
        [
          Alcotest.test_case "diamond" `Quick test_dominance_diamond;
          Alcotest.test_case "cfg preds/succs" `Quick test_cfg_preds_succs;
          Alcotest.test_case "reachability" `Quick test_unreachable_block_not_reachable;
          Alcotest.test_case "loop dominators" `Quick test_dominance_loop;
          Alcotest.test_case "unreachable orphan block" `Quick
            test_dominance_unreachable_block;
        ]
        @ qcheck [ prop_substitute_nth_use ] );
      ( "asm",
        [
          Alcotest.test_case "round trip simple" `Quick test_roundtrip_simple;
          Alcotest.test_case "round trip generated" `Quick test_roundtrip_generated;
          Alcotest.test_case "rejects garbage" `Quick test_asm_rejects_garbage;
          Alcotest.test_case "rejects unterminated function" `Quick
            test_asm_rejects_unterminated_function;
          Alcotest.test_case "diff empty on equal" `Quick test_diff_empty_on_equal;
        ] );
      ( "input",
        [
          Alcotest.test_case "parsing" `Quick test_input_parsing;
          Alcotest.test_case "newlines and comments" `Quick
            test_input_parsing_newlines_and_comments;
          Alcotest.test_case "errors" `Quick test_input_parsing_errors;
        ] );
      ( "values",
        [
          Alcotest.test_case "update/extract paths" `Quick test_value_update_extract;
          Alcotest.test_case "vector componentwise" `Quick test_ops_vector_componentwise;
          Alcotest.test_case "nan sanitized" `Quick test_ops_nan_sanitized;
          Alcotest.test_case "convert clamps" `Quick test_ops_convert_clamps;
        ] );
      ( "generator",
        qcheck
          [
            prop_generated_valid;
            prop_generated_well_defined;
            prop_render_deterministic;
            prop_roundtrip;
          ] );
    ]
