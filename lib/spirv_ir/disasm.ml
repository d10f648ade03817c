(** Textual disassembler.

    The output uses SPIR-V assembly conventions ([%id = OpXxx ...]) and is
    precisely invertible by {!Asm}; floats are printed in hexadecimal float
    notation so that round-trips are exact.  The module-level delta between
    an original and a reduced variant (the artifact a bug report contains —
    Figure 3 of the paper) is computed on these listings.

    One writer appends the whole listing to a single buffer and writes
    integers digit by digit; {!to_string}, {!to_lines} and {!diff} all
    derive from it.  Module digests and CAS module keys hash these bytes,
    so the format is frozen: changing it re-keys every stored module. *)

let string_of_float_exact f = Printf.sprintf "%h" f

(* the decimal digits [string_of_int n] prints, without building a string
   for the (common) non-negative case *)
let rec add_int b n =
  if n < 0 then Buffer.add_string b (string_of_int n)
  else begin
    if n >= 10 then add_int b (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
  end

let add_id b id =
  Buffer.add_char b '%';
  add_int b id

(* [" %id"]: one operand *)
let add_operand b id =
  Buffer.add_char b ' ';
  add_id b id

(* [" n"]: one literal operand *)
let add_literal b n =
  Buffer.add_char b ' ';
  add_int b n

(* ["%id = "]: a result definition *)
let add_def b id =
  add_id b id;
  Buffer.add_string b " = "

(* what [Printf "%S"] prints: the OCaml-escaped string in double quotes *)
let add_quoted b s =
  Buffer.add_char b '"';
  Buffer.add_string b (String.escaped s);
  Buffer.add_char b '"'

let add_instr b (i : Instr.t) =
  let id = add_operand b and lit = add_literal b in
  (match (i.Instr.result, i.Instr.ty) with
  | Some r, Some t ->
      add_def b r;
      Buffer.add_string b
        (match i.Instr.op with
        | Instr.Binop (op, _, _) -> Instr.binop_name op
        | Instr.Unop (op, _) -> Instr.unop_name op
        | Instr.Select _ -> "OpSelect"
        | Instr.CompositeConstruct _ -> "OpCompositeConstruct"
        | Instr.CompositeExtract _ -> "OpCompositeExtract"
        | Instr.CompositeInsert _ -> "OpCompositeInsert"
        | Instr.Load _ -> "OpLoad"
        | Instr.AccessChain _ -> "OpAccessChain"
        | Instr.FunctionCall _ -> "OpFunctionCall"
        | Instr.Phi _ -> "OpPhi"
        | Instr.CopyObject _ -> "OpCopyObject"
        | Instr.Variable _ -> "OpVariable"
        | Instr.Undef -> "OpUndef"
        | Instr.Store _ | Instr.Nop -> "?");
      id t
  | _ ->
      Buffer.add_string b
        (match i.Instr.op with
        | Instr.Store _ -> "OpStore"
        | Instr.Nop -> "OpNop"
        | Instr.FunctionCall _ -> "OpFunctionCall"
        | _ -> "?"));
  match i.Instr.op with
  | Instr.Binop (_, x, y) -> id x; id y
  | Instr.Unop (_, x) -> id x
  | Instr.Select (c, t, f) -> id c; id t; id f
  | Instr.CompositeConstruct parts -> List.iter id parts
  | Instr.CompositeExtract (c, path) -> id c; List.iter lit path
  | Instr.CompositeInsert (obj, c, path) -> id obj; id c; List.iter lit path
  | Instr.Load p -> id p
  | Instr.Store (p, v) -> id p; id v
  | Instr.AccessChain (base, idxs) -> id base; List.iter id idxs
  | Instr.FunctionCall (f, args) -> id f; List.iter id args
  | Instr.Phi incoming -> List.iter (fun (v, blk) -> id v; id blk) incoming
  | Instr.CopyObject x -> id x
  | Instr.Variable sc ->
      Buffer.add_char b ' ';
      Buffer.add_string b (Ty.storage_class_to_string sc)
  | Instr.Undef | Instr.Nop -> ()

let add_terminator b = function
  | Block.Branch t ->
      Buffer.add_string b "OpBranch";
      add_operand b t
  | Block.BranchConditional (c, t, f) ->
      Buffer.add_string b "OpBranchConditional";
      add_operand b c;
      add_operand b t;
      add_operand b f
  | Block.Return -> Buffer.add_string b "OpReturn"
  | Block.ReturnValue v ->
      Buffer.add_string b "OpReturnValue";
      add_operand b v
  | Block.Kill -> Buffer.add_string b "OpKill"
  | Block.Unreachable -> Buffer.add_string b "OpUnreachable"

let control_to_string = function
  | Func.CNone -> "None"
  | Func.DontInline -> "DontInline"
  | Func.AlwaysInline -> "AlwaysInline"

let add_type_decl b (d : Module_ir.type_decl) =
  add_def b d.Module_ir.td_id;
  let op name = Buffer.add_string b name in
  match d.Module_ir.td_ty with
  | Ty.Void -> op "OpTypeVoid"
  | Ty.Bool -> op "OpTypeBool"
  | Ty.Int -> op "OpTypeInt"
  | Ty.Float -> op "OpTypeFloat"
  | Ty.Vector (c, n) -> op "OpTypeVector"; add_operand b c; add_literal b n
  | Ty.Matrix (c, n) -> op "OpTypeMatrix"; add_operand b c; add_literal b n
  | Ty.Struct members -> op "OpTypeStruct"; List.iter (add_operand b) members
  | Ty.Array (c, n) -> op "OpTypeArray"; add_operand b c; add_literal b n
  | Ty.Pointer (sc, p) ->
      op "OpTypePointer ";
      op (Ty.storage_class_to_string sc);
      add_operand b p
  | Ty.Func (ret, params) ->
      op "OpTypeFunction";
      add_operand b ret;
      List.iter (add_operand b) params

let add_const_decl b (d : Module_ir.const_decl) =
  add_def b d.Module_ir.cd_id;
  let op name =
    Buffer.add_string b name;
    add_operand b d.Module_ir.cd_ty
  in
  match d.Module_ir.cd_value with
  | Constant.Bool true -> op "OpConstantTrue"
  | Constant.Bool false -> op "OpConstantFalse"
  | Constant.Int i -> op "OpConstant"; add_literal b (Int32.to_int i)
  | Constant.Float f ->
      op "OpConstantFloat";
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_float_exact f)
  | Constant.Composite parts ->
      op "OpConstantComposite";
      List.iter (add_operand b) parts
  | Constant.Null -> op "OpConstantNull"

let add_global_decl b (d : Module_ir.global_decl) =
  add_def b d.Module_ir.gd_id;
  Buffer.add_string b "OpGlobalVariable";
  add_operand b d.Module_ir.gd_ty;
  Buffer.add_char b ' ';
  add_quoted b d.Module_ir.gd_name;
  Option.iter (add_operand b) d.Module_ir.gd_init

(** The writer: the listing of [m], one instruction per line, each line
    ended by ['\n'], appended to [b]. *)
let add_module b (m : Module_ir.t) =
  let line f x =
    f b x;
    Buffer.add_char b '\n'
  in
  Buffer.add_string b "OpIdBound ";
  add_int b m.Module_ir.id_bound;
  Buffer.add_string b "\nOpEntryPoint ";
  add_id b m.Module_ir.entry;
  Buffer.add_char b '\n';
  List.iter (line add_type_decl) m.Module_ir.types;
  List.iter (line add_const_decl) m.Module_ir.constants;
  List.iter (line add_global_decl) m.Module_ir.globals;
  List.iter
    (fun (f : Func.t) ->
      add_def b f.Func.id;
      Buffer.add_string b "OpFunction";
      add_operand b f.Func.fn_ty;
      Buffer.add_char b ' ';
      Buffer.add_string b (control_to_string f.Func.control);
      Buffer.add_char b ' ';
      add_quoted b f.Func.name;
      Buffer.add_char b '\n';
      List.iter
        (fun (p : Func.param) ->
          add_def b p.Func.param_id;
          Buffer.add_string b "OpFunctionParameter";
          add_operand b p.Func.param_ty;
          Buffer.add_char b '\n')
        f.Func.params;
      List.iter
        (fun (blk : Block.t) ->
          add_def b blk.Block.label;
          Buffer.add_string b "OpLabel\n";
          List.iter (line add_instr) blk.Block.instrs;
          line add_terminator blk.Block.terminator)
        f.Func.blocks;
      Buffer.add_string b "OpFunctionEnd\n")
    m.Module_ir.functions

let to_string m =
  let b = Buffer.create 4096 in
  add_module b m;
  Buffer.contents b

(* no line contains ['\n']: names are printed escaped *)
let to_lines m =
  match List.rev (String.split_on_char '\n' (to_string m)) with
  | "" :: rev_lines -> List.rev rev_lines
  | rev_lines -> List.rev rev_lines

(** Line-level delta between two modules: lines only in [a] (removed) and
    lines only in [b] (added), via a longest-common-subsequence diff.  The
    count [distance a b] is the size metric used for reduction quality. *)
let diff a b =
  let la = Array.of_list (to_lines a) and lb = Array.of_list (to_lines b) in
  let n = Array.length la and p = Array.length lb in
  (* LCS dynamic program *)
  let dp = Array.make_matrix (n + 1) (p + 1) 0 in
  for i = n - 1 downto 0 do
    for j = p - 1 downto 0 do
      dp.(i).(j) <-
        (if String.equal la.(i) lb.(j) then 1 + dp.(i + 1).(j + 1)
         else max dp.(i + 1).(j) dp.(i).(j + 1))
    done
  done;
  let removed = ref [] and added = ref [] in
  let i = ref 0 and j = ref 0 in
  while !i < n && !j < p do
    if String.equal la.(!i) lb.(!j) then begin incr i; incr j end
    else if dp.(!i + 1).(!j) >= dp.(!i).(!j + 1) then begin
      removed := la.(!i) :: !removed;
      incr i
    end
    else begin
      added := lb.(!j) :: !added;
      incr j
    end
  done;
  while !i < n do removed := la.(!i) :: !removed; incr i done;
  while !j < p do added := lb.(!j) :: !added; incr j done;
  (List.rev !removed, List.rev !added)

let diff_to_string a b =
  let removed, added = diff a b in
  String.concat "\n"
    (List.map (fun l -> "- " ^ l) removed @ List.map (fun l -> "+ " ^ l) added)
