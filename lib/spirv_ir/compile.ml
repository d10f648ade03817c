(* Flat compiled execution kernel.

   [lower] translates a module once into a flat program: ids resolved to
   dense integer register slots, constants pre-materialized, blocks
   flattened into arrays of instruction records with pre-resolved φ move
   lists and jump targets.  [render_batch] then executes the whole fragment
   grid against one reused globals/locals arena, writing into one flat
   pixel array.

   The kernel is a drop-in replacement for {!Interp.render} and must be
   observably bit-identical to it: same images, same traps (message and
   all), same trap ordering, same step accounting.  Where the interpreter
   defers an error to execution time (a constant that fails to materialize,
   a branch to a missing block, a call to the entry of a block-less
   function), lowering captures the exact exception and re-raises it at the
   same execution point instead of failing eagerly.  [lower] itself never
   raises: any module the interpreter accepts or rejects at runtime lowers
   to a program that reproduces that behaviour.

   The interpreter's operand lookup falls through env → globals → constants
   per operand, so an id that names an instruction result is still visible
   as a global or constant before its defining instruction has executed.
   Register operands therefore carry a fallback consulted when the slot is
   still [RUnbound]. *)

(* What an operand compiles to.  The id is kept for exact trap messages. *)
type operand =
  | OReg of int * fallback * Id.t  (* register slot; fallback when unbound *)
  | OGlobal of int * Id.t          (* global slot *)
  | OConst of Value.t * Id.t       (* pre-materialized constant *)
  | OUnbound of Id.t               (* always traps "unbound id" *)
  | ORaise of exn * Id.t           (* constant that fails to materialize *)

and fallback =
  | FGlobal of int
  | FConst of Value.t
  | FRaise of exn
  | FUnbound

(* Runtime register contents.  [RUnbound] is the reset sentinel: reading it
   reproduces the interpreter's "unbound id" trap (modulo fallback). *)
type rv =
  | RUnbound
  | RVal of Value.t
  | RPtr of pptr

and pptr = { cell : Value.t ref; path : int list; root : Id.t }

(* A φ move on a CFG edge: destination register and source operand, or the
   trap the interpreter would raise while evaluating that φ's binding. *)
type move =
  | Move of int * operand
  | Move_trap of string

(* A resolved jump: target block index plus the edge's φ moves, or the
   exception [Func.block_exn] raises for a missing target. *)
type goto =
  | Goto of int * move array
  | Goto_raise of exn

type callsite =
  | Known of int       (* function index *)
  | Unknown_fn of Id.t (* traps "call to unknown function" before args *)

(* Pre-computed initializer for function-scope variables and Undef. *)
type vinit =
  | VOk of Value.t
  | VTrap of string
  | VRaise of exn

type cinstr =
  | CNop
  | CBinop of int * Instr.binop * operand * operand
  | CUnop of int * Instr.unop * operand
  | CSelect of int * operand * operand * operand
  | CConstruct of int * operand array
  | CExtract of int * operand * int list
  | CInsert of int * operand * operand * int list
      (* dest, object, composite, path *)
  | CLoad of int * operand
  | CStore of operand * operand
  | CChain of int * operand * operand array
  | CCall of int * callsite * operand array
  | CCallVoid of callsite * operand array
  | CCopy of int * operand
  | CVar of int * Id.t * vinit  (* fresh cell per execution; root = result id *)
  | CUndef of int * vinit
  | CTrap of string

type cterm =
  | TBranch of goto
  | TCond of operand * goto * goto
  | TReturn
  | TReturnValue of operand
  | TKill
  | TUnreachable of string

type cblock = { bi : cinstr array; bterm : cterm }

type cfun = {
  cf_name : string;
  cf_nparams : int;
  cf_nregs : int;
  cf_blocks : cblock array; (* index 0 = entry block *)
  cf_entry_trap : string option; (* "phi in entry block …" on initial entry *)
  cf_no_blocks : exn option; (* Func.entry_block's exception, deferred *)
}

(* Global slot: name and how to (re)initialize its cell. *)
type ginit =
  | GUniform               (* resolved once per render from the input *)
  | GCoord                 (* rebuilt per fragment *)
  | GValue of Value.t      (* constant / zero initializer, shared *)
  | GTrapInit of Interp.trap (* e.g. global with non-pointer type *)
  | GFail of exn           (* initializer that fails to materialize *)

type gslot = { cg_id : Id.t; cg_name : string; cg_init : ginit }

type t = {
  p_funcs : cfun array;
  p_entry : int;             (* meaningless when [p_entry_exn] is set *)
  p_entry_exn : exn option;  (* Module_ir.entry_function's exception *)
  p_globals : gslot array;
  p_output : int option;     (* slot of the first Output-class global *)
  p_max_moves : int;         (* scratch size for simultaneous φ moves *)
}

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

let split_phis instrs =
  let rec split acc = function
    | (i : Instr.t) :: tl when Instr.is_phi i -> split (i :: acc) tl
    | tl -> (List.rev acc, tl)
  in
  split [] instrs

let lower (m : Module_ir.t) : t =
  (* Globals: slot per declaration; duplicate ids resolve to the last slot,
     matching Id.Map.add in the interpreter's allocate_globals. *)
  let globals = Array.of_list m.Module_ir.globals in
  let gindex : (Id.t, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun i (g : Module_ir.global_decl) ->
      Hashtbl.replace gindex g.Module_ir.gd_id i)
    globals;
  let gslots =
    Array.map
      (fun (g : Module_ir.global_decl) ->
        let init =
          match Module_ir.find_type m g.Module_ir.gd_ty with
          | Some (Ty.Pointer (sc, pointee)) -> (
              match sc with
              | Ty.Uniform -> GUniform
              | Ty.Input -> GCoord
              | Ty.Private | Ty.Output | Ty.Function -> (
                  match g.Module_ir.gd_init with
                  | Some c -> (
                      match Module_ir.const_value m c with
                      | v -> GValue v
                      | exception e -> GFail e)
                  | None -> (
                      match Module_ir.zero_value m pointee with
                      | v -> GValue v
                      | exception e -> GFail e)))
          | Some _ | None ->
              GTrapInit
                (Interp.Invalid_module
                   ("global with non-pointer type: " ^ g.Module_ir.gd_name))
        in
        { cg_id = g.Module_ir.gd_id; cg_name = g.Module_ir.gd_name;
          cg_init = init })
      globals
  in
  let p_output =
    match
      List.find_opt
        (fun (g : Module_ir.global_decl) ->
          match Module_ir.find_type m g.Module_ir.gd_ty with
          | Some (Ty.Pointer (Ty.Output, _)) -> true
          | Some _ | None -> false)
        m.Module_ir.globals
    with
    | Some g -> Hashtbl.find_opt gindex g.Module_ir.gd_id
    | None -> None
  in
  (* Constants: first declaration wins, matching find_constant. *)
  let ctable : (Id.t, (Value.t, exn) result) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (c : Module_ir.const_decl) ->
      if not (Hashtbl.mem ctable c.Module_ir.cd_id) then
        Hashtbl.add ctable c.Module_ir.cd_id
          (match Module_ir.const_value m c.Module_ir.cd_id with
          | v -> Ok v
          | exception e -> Error e))
    m.Module_ir.constants;
  (* Functions: first declaration wins, matching find_function. *)
  let funcs = Array.of_list m.Module_ir.functions in
  let findex : (Id.t, int) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun i (f : Func.t) ->
      if not (Hashtbl.mem findex f.Func.id) then Hashtbl.add findex f.Func.id i)
    funcs;
  let max_moves = ref 0 in
  let compile_fun (f : Func.t) : cfun =
    (* Registers: params positionally first (so the caller can blit its
       argument array), then instruction results in program order.  An id
       that is redefined reuses its slot — Id.Map.add overwrite semantics. *)
    let regs : (Id.t, int) Hashtbl.t = Hashtbl.create 32 in
    let nparams = List.length f.Func.params in
    List.iteri
      (fun i (p : Func.param) -> Hashtbl.replace regs p.Func.param_id i)
      f.Func.params;
    let next = ref nparams in
    List.iter
      (fun (b : Block.t) ->
        List.iter
          (fun (i : Instr.t) ->
            match i.Instr.result with
            | Some r ->
                if not (Hashtbl.mem regs r) then begin
                  Hashtbl.add regs r !next;
                  incr next
                end
            | None -> ())
          b.Block.instrs)
      f.Func.blocks;
    let plain_of id =
      match Hashtbl.find_opt gindex id with
      | Some s -> OGlobal (s, id)
      | None -> (
          match Hashtbl.find_opt ctable id with
          | Some (Ok v) -> OConst (v, id)
          | Some (Error e) -> ORaise (e, id)
          | None -> OUnbound id)
    in
    let resolve id =
      match Hashtbl.find_opt regs id with
      | Some r ->
          let fb =
            match plain_of id with
            | OGlobal (s, _) -> FGlobal s
            | OConst (v, _) -> FConst v
            | ORaise (e, _) -> FRaise e
            | OUnbound _ | OReg _ -> FUnbound
          in
          OReg (r, fb, id)
      | None -> plain_of id
    in
    let resolve_list ids = Array.of_list (List.map resolve ids) in
    (* Block labels: first match wins, matching Func.find_block. *)
    let btbl : (Id.t, int) Hashtbl.t = Hashtbl.create 16 in
    List.iteri
      (fun i (b : Block.t) ->
        if not (Hashtbl.mem btbl b.Block.label) then
          Hashtbl.add btbl b.Block.label i)
      f.Func.blocks;
    let compile_move ~pred (i : Instr.t) =
      match (i.Instr.result, i.Instr.op) with
      | Some r, Instr.Phi incoming -> (
          match
            List.find_opt (fun (_, blk) -> Id.equal blk pred) incoming
          with
          | Some (v, _) -> Move (Hashtbl.find regs r, resolve v)
          | None ->
              Move_trap
                (Printf.sprintf "phi %s lacks an entry for predecessor %s"
                   (Id.to_string r) (Id.to_string pred)))
      | _ -> Move_trap "malformed phi"
    in
    let goto_of ~pred target =
      match Func.block_exn f target with
      | tb ->
          let phis, _ = split_phis tb.Block.instrs in
          let moves = Array.of_list (List.map (compile_move ~pred) phis) in
          if Array.length moves > !max_moves then
            max_moves := Array.length moves;
          Goto (Hashtbl.find btbl target, moves)
      | exception e -> Goto_raise e
    in
    let vinit_of_ty ty_opt ~no_ty_msg ~bad_ty_msg =
      match ty_opt with
      | Some ty_id -> (
          match Module_ir.type_exn m ty_id with
          | Ty.Pointer (_, pointee) -> (
              match Module_ir.zero_value m pointee with
              | v -> VOk v
              | exception e -> VRaise e)
          | _ -> VTrap bad_ty_msg
          | exception e -> VRaise e)
      | None -> VTrap no_ty_msg
    in
    (* Mirrors the arm order of Interp.exec_instr exactly. *)
    let compile_instr (i : Instr.t) : cinstr =
      match (i.Instr.result, i.Instr.op) with
      | _, Instr.Nop -> CNop
      | None, Instr.Store (p, v) -> CStore (resolve p, resolve v)
      | Some r, Instr.Binop (op, a, b) ->
          CBinop (Hashtbl.find regs r, op, resolve a, resolve b)
      | Some r, Instr.Unop (op, a) -> CUnop (Hashtbl.find regs r, op, resolve a)
      | Some r, Instr.Select (c, tv, fv) ->
          CSelect (Hashtbl.find regs r, resolve c, resolve tv, resolve fv)
      | Some r, Instr.CompositeConstruct parts ->
          CConstruct (Hashtbl.find regs r, resolve_list parts)
      | Some r, Instr.CompositeExtract (c, path) ->
          CExtract (Hashtbl.find regs r, resolve c, path)
      | Some r, Instr.CompositeInsert (obj, c, path) ->
          CInsert (Hashtbl.find regs r, resolve obj, resolve c, path)
      | Some r, Instr.Load p -> CLoad (Hashtbl.find regs r, resolve p)
      | Some r, Instr.AccessChain (base, idxs) ->
          CChain (Hashtbl.find regs r, resolve base, resolve_list idxs)
      | Some r, Instr.FunctionCall (callee, args) ->
          let site =
            match Hashtbl.find_opt findex callee with
            | Some i -> Known i
            | None -> Unknown_fn callee
          in
          CCall (Hashtbl.find regs r, site, resolve_list args)
      | None, Instr.FunctionCall (callee, args) ->
          let site =
            match Hashtbl.find_opt findex callee with
            | Some i -> Known i
            | None -> Unknown_fn callee
          in
          CCallVoid (site, resolve_list args)
      | Some _, Instr.Phi _ -> CTrap "phi after non-phi instruction"
      | Some r, Instr.CopyObject x -> CCopy (Hashtbl.find regs r, resolve x)
      | Some r, Instr.Variable Ty.Function ->
          CVar
            ( Hashtbl.find regs r,
              r,
              vinit_of_ty i.Instr.ty ~no_ty_msg:"variable without a type"
                ~bad_ty_msg:
                  (Printf.sprintf "variable %s has non-pointer type"
                     (Id.to_string r)) )
      | Some _, Instr.Variable _ ->
          CTrap "function-scope variable with bad storage class"
      | Some r, Instr.Undef ->
          CUndef
            ( Hashtbl.find regs r,
              vinit_of_ty i.Instr.ty ~no_ty_msg:"undef without a type"
                ~bad_ty_msg:"" )
      | None, _ -> CTrap "instruction missing a result id"
      | Some _, Instr.Store _ -> CTrap "store with a result id"
    in
    let compile_block (b : Block.t) : cblock =
      (* Leading φs execute on the incoming edge, not here. *)
      let _phis, rest = split_phis b.Block.instrs in
      let bi = Array.of_list (List.map compile_instr rest) in
      let pred = b.Block.label in
      let bterm =
        match b.Block.terminator with
        | Block.Branch target -> TBranch (goto_of ~pred target)
        | Block.BranchConditional (c, t_target, f_target) ->
            TCond (resolve c, goto_of ~pred t_target, goto_of ~pred f_target)
        | Block.Return -> TReturn
        | Block.ReturnValue v -> TReturnValue (resolve v)
        | Block.Kill -> TKill
        | Block.Unreachable ->
            TUnreachable
              (Printf.sprintf "executed OpUnreachable in %s"
                 (Id.to_string b.Block.label))
      in
      { bi; bterm }
    in
    let cf_no_blocks =
      match Func.entry_block f with _ -> None | exception e -> Some e
    in
    let cf_entry_trap =
      match f.Func.blocks with
      | [] -> None
      | entry :: _ -> (
          match split_phis entry.Block.instrs with
          | [], _ -> None
          | _ :: _, _ ->
              Some
                (Printf.sprintf "phi in entry block %s"
                   (Id.to_string entry.Block.label)))
    in
    {
      cf_name = f.Func.name;
      cf_nparams = nparams;
      cf_nregs = !next;
      cf_blocks = Array.of_list (List.map compile_block f.Func.blocks);
      cf_entry_trap;
      cf_no_blocks;
    }
  in
  let p_funcs = Array.map compile_fun funcs in
  let p_entry, p_entry_exn =
    match Module_ir.entry_function m with
    | _f -> (Hashtbl.find findex m.Module_ir.entry, None)
    | exception e -> (-1, Some e)
  in
  {
    p_funcs;
    p_entry;
    p_entry_exn;
    p_globals = gslots;
    p_output;
    p_max_moves = !max_moves;
  }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

exception Ctrap of Interp.trap
exception Ckill

let invalid fmt =
  Printf.ksprintf (fun s -> raise (Ctrap (Interp.Invalid_module s))) fmt

(* The arena: allocated once per render, reused by every fragment.  Each
   function has a primary frame; a [busy] flag guards against (invalid but
   expressible) reentrant calls, which fall back to a fresh frame. *)
type ctx = {
  prog : t;
  frames : rv array array;
  busy : bool array;
  gcells : pptr array;
  scratch : rv array;
  mutable steps : int;
  step_limit : int;
}

let make_ctx prog step_limit =
  {
    prog;
    frames =
      Array.map (fun cf -> Array.make (max cf.cf_nregs 1) RUnbound) prog.p_funcs;
    busy = Array.make (max (Array.length prog.p_funcs) 1) false;
    gcells =
      Array.map
        (fun g -> { cell = ref (Value.VComposite [||]); path = []; root = g.cg_id })
        prog.p_globals;
    scratch = Array.make (max prog.p_max_moves 1) RUnbound;
    steps = 0;
    step_limit;
  }

let tick ctx =
  ctx.steps <- ctx.steps + 1;
  if ctx.steps > ctx.step_limit then raise (Ctrap Interp.Step_limit_exceeded)

let operand_id = function
  | OReg (_, _, id) | OGlobal (_, id) | OConst (_, id)
  | OUnbound id | ORaise (_, id) ->
      id

let read_rv ctx frame = function
  | OReg (r, fb, id) -> (
      match Array.unsafe_get frame r with
      | RUnbound -> (
          match fb with
          | FGlobal s -> RPtr ctx.gcells.(s)
          | FConst v -> RVal v
          | FRaise e -> raise e
          | FUnbound -> invalid "unbound id %s" (Id.to_string id))
      | v -> v)
  | OGlobal (s, _) -> RPtr ctx.gcells.(s)
  | OConst (v, _) -> RVal v
  | OUnbound id -> invalid "unbound id %s" (Id.to_string id)
  | ORaise (e, _) -> raise e

let read_val ctx frame o =
  match read_rv ctx frame o with
  | RVal v -> v
  | RPtr _ ->
      invalid "id %s is a pointer where a value was expected"
        (Id.to_string (operand_id o))
  | RUnbound -> assert false

let read_ptr ctx frame o =
  match read_rv ctx frame o with
  | RPtr p -> p
  | RVal _ ->
      invalid "id %s is a value where a pointer was expected"
        (Id.to_string (operand_id o))
  | RUnbound -> assert false

let apply_goto ctx frame = function
  | Goto_raise e -> raise e
  | Goto (target, moves) ->
      let n = Array.length moves in
      (* φ moves are simultaneous: read everything against the pre-edge
         frame, then write. *)
      for i = 0 to n - 1 do
        ctx.scratch.(i) <-
          (match moves.(i) with
          | Move (_, src) -> read_rv ctx frame src
          | Move_trap msg -> invalid "%s" msg)
      done;
      for i = 0 to n - 1 do
        match moves.(i) with
        | Move (dst, _) -> frame.(dst) <- ctx.scratch.(i)
        | Move_trap _ -> ()
      done;
      target

let rec exec_call ctx fidx (args : rv array) : Value.t option =
  let cf = ctx.prog.p_funcs.(fidx) in
  if ctx.busy.(fidx) then
    exec_in_frame ctx cf (Array.make (max cf.cf_nregs 1) RUnbound) args
  else begin
    ctx.busy.(fidx) <- true;
    let frame = ctx.frames.(fidx) in
    Array.fill frame 0 (Array.length frame) RUnbound;
    Fun.protect
      ~finally:(fun () -> ctx.busy.(fidx) <- false)
      (fun () -> exec_in_frame ctx cf frame args)
  end

and exec_in_frame ctx cf frame args : Value.t option =
  if Array.length args <> cf.cf_nparams then
    invalid "arity mismatch calling %s" cf.cf_name;
  Array.blit args 0 frame 0 cf.cf_nparams;
  (match cf.cf_no_blocks with Some e -> raise e | None -> ());
  (match cf.cf_entry_trap with Some msg -> invalid "%s" msg | None -> ());
  let pc = ref 0 in
  let ret = ref None in
  let running = ref true in
  while !running do
    let b = Array.unsafe_get cf.cf_blocks !pc in
    let instrs = b.bi in
    for i = 0 to Array.length instrs - 1 do
      exec_instr ctx frame (Array.unsafe_get instrs i)
    done;
    tick ctx;
    match b.bterm with
    | TBranch g -> pc := apply_goto ctx frame g
    | TCond (c, gt, gf) -> (
        match read_val ctx frame c with
        | Value.VBool cond -> pc := apply_goto ctx frame (if cond then gt else gf)
        | _ ->
            invalid "branch condition %s is not a bool"
              (Id.to_string (operand_id c)))
    | TReturn -> running := false
    | TReturnValue o ->
        ret := Some (read_val ctx frame o);
        running := false
    | TKill -> raise Ckill
    | TUnreachable msg -> invalid "%s" msg
  done;
  !ret

and exec_instr ctx frame ci =
  tick ctx;
  match ci with
  | CNop -> ()
  | CBinop (dst, op, a, b) ->
      (* Operand evaluation order mirrors the interpreter's right-to-left
         application order: b's trap fires before a's. *)
      let vb = read_val ctx frame b in
      let va = read_val ctx frame a in
      let v =
        match Ops.eval_binop op va vb with
        | v -> v
        | exception Ops.Type_error msg -> invalid "%s" msg
      in
      frame.(dst) <- RVal v
  | CUnop (dst, op, a) ->
      let va = read_val ctx frame a in
      let v =
        match Ops.eval_unop op va with
        | v -> v
        | exception Ops.Type_error msg -> invalid "%s" msg
      in
      frame.(dst) <- RVal v
  | CSelect (dst, c, tv, fv) -> (
      match read_val ctx frame c with
      | Value.VBool b -> frame.(dst) <- read_rv ctx frame (if b then tv else fv)
      | _ -> invalid "select condition is not a bool")
  | CConstruct (dst, ops) ->
      let n = Array.length ops in
      let vals = Array.make n (Value.VBool false) in
      for i = 0 to n - 1 do
        vals.(i) <- read_val ctx frame ops.(i)
      done;
      frame.(dst) <- RVal (Value.VComposite vals)
  | CExtract (dst, c, path) ->
      frame.(dst) <- RVal (Value.extract_at_path (read_val ctx frame c) path)
  | CInsert (dst, obj, c, path) ->
      (* Right-to-left: the inserted object is evaluated first. *)
      let vobj = read_val ctx frame obj in
      let vc = read_val ctx frame c in
      frame.(dst) <- RVal (Value.update_at_path vc path vobj)
  | CLoad (dst, p) ->
      let ptr = read_ptr ctx frame p in
      frame.(dst) <- RVal (Value.extract_at_path !(ptr.cell) (List.rev ptr.path))
  | CStore (p, v) ->
      let ptr = read_ptr ctx frame p in
      let value = read_val ctx frame v in
      ptr.cell := Value.update_at_path !(ptr.cell) (List.rev ptr.path) value
  | CChain (dst, base, idxs) ->
      let ptr = read_ptr ctx frame base in
      let path = ref ptr.path in
      for i = 0 to Array.length idxs - 1 do
        (match read_val ctx frame idxs.(i) with
        | Value.VInt n -> path := Int32.to_int n :: !path
        | Value.VBool _ | Value.VFloat _ | Value.VComposite _ ->
            raise (Ctrap (Interp.Invalid_module "non-integer index in access chain")))
      done;
      frame.(dst) <- RPtr { cell = ptr.cell; path = !path; root = ptr.root }
  | CCall (dst, site, argops) -> (
      let fidx =
        match site with
        | Known i -> i
        | Unknown_fn id -> invalid "call to unknown function %s" (Id.to_string id)
      in
      let n = Array.length argops in
      let args = Array.make n RUnbound in
      for i = 0 to n - 1 do
        args.(i) <- read_rv ctx frame argops.(i)
      done;
      match exec_call ctx fidx args with
      | Some v -> frame.(dst) <- RVal v
      | None -> frame.(dst) <- RVal (Value.VComposite [||]))
  | CCallVoid (site, argops) ->
      let fidx =
        match site with
        | Known i -> i
        | Unknown_fn id -> invalid "call to unknown function %s" (Id.to_string id)
      in
      let n = Array.length argops in
      let args = Array.make n RUnbound in
      for i = 0 to n - 1 do
        args.(i) <- read_rv ctx frame argops.(i)
      done;
      ignore (exec_call ctx fidx args)
  | CCopy (dst, src) -> frame.(dst) <- read_rv ctx frame src
  | CVar (dst, root, init) -> (
      match init with
      | VOk v -> frame.(dst) <- RPtr { cell = ref v; path = []; root }
      | VTrap msg -> invalid "%s" msg
      | VRaise e -> raise e)
  | CUndef (dst, init) -> (
      match init with
      | VOk v -> frame.(dst) <- RVal v
      | VTrap msg -> invalid "%s" msg
      | VRaise e -> raise e)
  | CTrap msg -> invalid "%s" msg

(* Per-render global resolution: uniforms and initializer values, in
   declaration order so trap precedence matches the interpreter. *)
let resolve_globals prog (input : Input.t) : (Value.t array, Interp.trap) result =
  let n = Array.length prog.p_globals in
  let init = Array.make n (Value.VComposite [||]) in
  try
    for i = 0 to n - 1 do
      let g = prog.p_globals.(i) in
      init.(i) <-
        (match g.cg_init with
        | GTrapInit t -> raise (Ctrap t)
        | GFail e -> raise e
        | GUniform -> (
            match Input.find_uniform input g.cg_name with
            | Some v -> v
            | None -> raise (Ctrap (Interp.Missing_uniform g.cg_name)))
        | GCoord -> Value.VComposite [||] (* overwritten per fragment *)
        | GValue v -> v)
    done;
    Ok init
  with Ctrap t -> Error t

let exec_fragment ctx (rinit : Value.t array) ~frag_x ~frag_y : Image.pixel =
  ctx.steps <- 0;
  let prog = ctx.prog in
  let n = Array.length prog.p_globals in
  for i = 0 to n - 1 do
    let g = prog.p_globals.(i) in
    ctx.gcells.(i).cell :=
      (match g.cg_init with
      | GCoord ->
          Value.VComposite
            [|
              Value.VFloat (float_of_int frag_x +. 0.5);
              Value.VFloat (float_of_int frag_y +. 0.5);
            |]
      | _ -> rinit.(i))
  done;
  try
    ignore (exec_call ctx prog.p_entry [||]);
    match prog.p_output with
    | Some s -> Image.Color !(ctx.gcells.(s).cell)
    | None -> Image.Color (Value.VComposite [||])
  with Ckill -> Image.Killed

let render_batch ?(step_limit = Interp.default_step_limit) prog
    (input : Input.t) : (Image.t, Interp.trap) result =
  let width = input.Input.width and height = input.Input.height in
  let img = Image.create ~width ~height in
  if width <= 0 || height <= 0 then Ok img
  else
    match resolve_globals prog input with
    | Error t -> Error t
    | Ok rinit -> (
        (match prog.p_entry_exn with Some e -> raise e | None -> ());
        let ctx = make_ctx prog step_limit in
        try
          for y = 0 to height - 1 do
            for x = 0 to width - 1 do
              Image.set img ~x ~y (exec_fragment ctx rinit ~frag_x:x ~frag_y:y)
            done
          done;
          Ok img
        with Ctrap t -> Error t)

let run_fragment ?(step_limit = Interp.default_step_limit) prog
    (input : Input.t) ~frag_x ~frag_y : Interp.outcome =
  match resolve_globals prog input with
  | Error t -> Error t
  | Ok rinit -> (
      (match prog.p_entry_exn with Some e -> raise e | None -> ());
      let ctx = make_ctx prog step_limit in
      try Ok (exec_fragment ctx rinit ~frag_x ~frag_y) with Ctrap t -> Error t)

let render ?step_limit m input = render_batch ?step_limit (lower m) input
