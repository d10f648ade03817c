(* Hash-consed symbolic value graphs and the module summarizer behind the
   translation validator.  The evaluator mirrors Interp's total reference
   semantics construct for construct (same clamping, same φ-on-the-edge
   discipline, same lookup order env → globals → constants); wherever it
   cannot, it raises Abstain instead of approximating. *)

(* a CFG of its own is a compile error here: use Dataflow.Availability *)
[@@@alert "@private_cfg"]

type reason =
  [ `Loop_unbounded  (** back edge with no provable trip-count bound *)
  | `Budget  (** node / visit / call-depth / unroll budget exhausted *)
  | `Dynamic_index  (** access chain indexed by a symbolic value *)
  | `Forced_unroll  (** a mismatch reached only through forced loop exits *)
  | `Unsupported  (** construct outside the modelled fragment semantics *)
  | `Internal  (** malformed module: the evaluator's invariants broke *) ]

let reason_label : reason -> string = function
  | `Loop_unbounded -> "loop-unbounded"
  | `Budget -> "budget"
  | `Dynamic_index -> "dynamic-index"
  | `Forced_unroll -> "forced-unroll"
  | `Unsupported -> "unsupported"
  | `Internal -> "internal"

let reason_labels =
  List.map reason_label
    [ `Loop_unbounded; `Budget; `Dynamic_index; `Forced_unroll; `Unsupported;
      `Internal ]

exception Abstain of reason * string

let abstain reason fmt =
  Printf.ksprintf (fun s -> raise (Abstain (reason, s))) fmt

type desc =
  | Const of Value.t
  | Source of string  (** uniform / fragment-coordinate input, by name *)
  | Dead
      (** the value of a path that produces no value: a killed fragment's
          result, a void return.  Absorbed by [select] merges — a killed
          arm's values are unobservable. *)
  | App of string * node list  (** operator tag + normalized operands *)
  | Extract of node * int list
  | Insert of node * node * int list  (** inserted value, base, path *)

and node = { nid : int; desc : desc }

(* Structural hash-consing.  Two descs intern to the same node exactly
   when they have the same constructor, the same operator tag or source
   name, the same child nodes (by id) and the same paths; constants compare
   by Value.equal, i.e. floats by their bit pattern, so -0.0 and 0.0 (and
   distinct NaN payloads) intern to distinct constants, exactly as the
   image diff distinguishes them.  Nothing iterates the table, so its hash
   order never shows. *)
let rec value_hash = function
  | Value.VBool b -> if b then 1 else 2
  | Value.VInt i -> 3 + (Int32.to_int i * 31)
  | Value.VFloat f ->
      let bits = Int64.bits_of_float f in
      5 + (Int64.to_int bits lxor Int64.to_int (Int64.shift_right_logical bits 32))
  | Value.VComposite xs ->
      Array.fold_left
        (fun h x -> (h * 31) + value_hash x)
        (7 + Array.length xs) xs

let rec path_equal p q =
  match (p, q) with
  | [], [] -> true
  | i :: p, j :: q -> Int.equal i j && path_equal p q
  | _ :: _, [] | [], _ :: _ -> false

let rec nodes_equal xs ys =
  match (xs, ys) with
  | [], [] -> true
  | x :: xs, y :: ys -> x.nid = y.nid && nodes_equal xs ys
  | _ :: _, [] | [], _ :: _ -> false

module Desc_tbl = Hashtbl.Make (struct
  type t = desc

  let equal a b =
    match (a, b) with
    | Const x, Const y -> Value.equal x y
    | Source x, Source y -> String.equal x y
    | Dead, Dead -> true
    | App (t, xs), App (u, ys) -> String.equal t u && nodes_equal xs ys
    | Extract (b, p), Extract (c, q) -> b.nid = c.nid && path_equal p q
    | Insert (v, b, p), Insert (w, c, q) ->
        v.nid = w.nid && b.nid = c.nid && path_equal p q
    | (Const _ | Source _ | Dead | App _ | Extract _ | Insert _), _ -> false

  let mix h x = (h * 65599) + x

  let hash = function
    | Const v -> value_hash v
    | Source s -> mix 11 (Hashtbl.hash s)
    | Dead -> 13
    | App (tag, args) ->
        List.fold_left (fun h n -> mix h n.nid) (Hashtbl.hash tag) args
    | Extract (base, path) -> List.fold_left mix (mix 17 base.nid) path
    | Insert (v, base, path) -> List.fold_left mix (mix (mix 19 v.nid) base.nid) path
end)

type ctx = {
  tbl : node Desc_tbl.t;
  mutable next_id : int;
  mutable visits : int;
  mutable local_serial : int;
  mutable forced_exits : int;
  mutable mem_proofs : int;
  max_visits : int;
  max_nodes : int;
  max_unroll : int;
}

let create ?(max_visits = 20_000) ?(max_nodes = 200_000) ?(max_unroll = 64) () =
  {
    tbl = Desc_tbl.create 1024;
    next_id = 0;
    visits = 0;
    local_serial = 0;
    forced_exits = 0;
    mem_proofs = 0;
    max_visits;
    max_nodes;
    max_unroll;
  }

let forced_exits ctx = ctx.forced_exits
let mem_proofs ctx = ctx.mem_proofs

let mk ctx desc =
  match Desc_tbl.find_opt ctx.tbl desc with
  | Some n -> n
  | None ->
      if ctx.next_id >= ctx.max_nodes then
        abstain `Budget "node budget exhausted (%d nodes)" ctx.max_nodes;
      let n = { nid = ctx.next_id; desc } in
      ctx.next_id <- ctx.next_id + 1;
      Desc_tbl.add ctx.tbl desc n;
      n

let intern = mk
let node_id n = n.nid

let const ctx v = mk ctx (Const v)
let source ctx s = mk ctx (Source s)
let dead ctx = mk ctx Dead
let cbool ctx b = const ctx (Value.VBool b)
let equal_node a b = a.nid = b.nid

let is_const_true n =
  match n.desc with Const (Value.VBool true) -> true | _ -> false

let is_dead n = match n.desc with Dead -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Smart constructors: every algebraic normalization lives here, so a
   canonical form is canonical no matter which pass produced it.        *)

let commutative = function
  | Instr.IAdd | Instr.IMul | Instr.FAdd | Instr.FMul | Instr.LogicalAnd
  | Instr.LogicalOr | Instr.IEqual | Instr.INotEqual | Instr.FOrdEqual
  | Instr.FOrdNotEqual ->
      true
  | Instr.ISub | Instr.SDiv | Instr.SMod | Instr.FSub | Instr.FDiv
  | Instr.SLessThan | Instr.SLessThanEqual | Instr.SGreaterThan
  | Instr.SGreaterThanEqual | Instr.FOrdLessThan | Instr.FOrdLessThanEqual
  | Instr.FOrdGreaterThan | Instr.FOrdGreaterThanEqual ->
      false

let binop ctx op a b =
  match (a.desc, b.desc) with
  | Const va, Const vb -> (
      try const ctx (Ops.eval_binop op va vb)
      with Ops.Type_error msg -> abstain `Internal "constant fold: %s" msg)
  | _ -> (
      (* Boolean identity/absorption/idempotence: the kill flag is
         composed with LogicalOr across calls, so these folds keep it in
         the same canonical form on both sides of a pass. *)
      let folded =
        match (op, a.desc, b.desc) with
        | Instr.LogicalAnd, Const (Value.VBool true), _ -> Some b
        | Instr.LogicalAnd, _, Const (Value.VBool true) -> Some a
        | Instr.LogicalAnd, Const (Value.VBool false), _
        | Instr.LogicalAnd, _, Const (Value.VBool false) ->
            Some (cbool ctx false)
        | Instr.LogicalOr, Const (Value.VBool false), _ -> Some b
        | Instr.LogicalOr, _, Const (Value.VBool false) -> Some a
        | Instr.LogicalOr, Const (Value.VBool true), _
        | Instr.LogicalOr, _, Const (Value.VBool true) ->
            Some (cbool ctx true)
        | (Instr.LogicalAnd | Instr.LogicalOr), _, _ when a.nid = b.nid ->
            Some a
        | _ -> None
      in
      match folded with
      | Some n -> n
      | None ->
          let a, b = if commutative op && b.nid < a.nid then (b, a) else (a, b) in
          mk ctx (App (Instr.binop_name op, [ a; b ])))

let unop ctx op a =
  match a.desc with
  | Const v -> (
      try const ctx (Ops.eval_unop op v)
      with Ops.Type_error msg -> abstain `Internal "constant fold: %s" msg)
  | _ -> mk ctx (App (Instr.unop_name op, [ a ]))

let ite ctx c a b =
  match c.desc with
  | Const (Value.VBool cond) -> if cond then a else b
  | Const _ -> abstain `Internal "select condition is not a bool"
  | _ ->
      if a.nid = b.nid then a
      else if is_dead a then b
      else if is_dead b then a
      else mk ctx (App ("select", [ c; a; b ]))

let construct ctx args =
  let rec all_const acc = function
    | [] -> Some (List.rev acc)
    | { desc = Const v; _ } :: tl -> all_const (v :: acc) tl
    | _ -> None
  in
  match all_const [] args with
  | Some vs -> const ctx (Value.VComposite (Array.of_list vs))
  | None -> mk ctx (App ("construct", args))

let clamp_index len i = if i < 0 then 0 else if i >= len then len - 1 else i

let rec extract ctx n path =
  match path with
  | [] -> n
  | i :: rest -> (
      match n.desc with
      | Const v -> const ctx (Value.extract_at_path v (i :: rest))
      | App ("construct", args) ->
          let len = List.length args in
          if len = 0 then n
          else extract ctx (List.nth args (clamp_index len i)) rest
      | Extract (base, p) -> mk ctx (Extract (base, p @ (i :: rest)))
      | _ -> mk ctx (Extract (n, i :: rest)))

(* Functional update at a path, mirroring Value.update_at_path (clamped
   indices, no-op below scalars).  Constant composites decompose into
   construct nodes so that partial stores normalize to the same form
   whether or not a pass folded the surrounding constants. *)
let rec sym_update ctx base path v =
  match path with
  | [] -> v
  | i :: rest -> (
      match base.desc with
      | Const (Value.VBool _ | Value.VInt _ | Value.VFloat _) -> base
      | Const (Value.VComposite elems) ->
          let args = List.map (const ctx) (Array.to_list elems) in
          update_parts ctx args i rest v
      | App ("construct", args) -> update_parts ctx args i rest v
      | _ -> mk ctx (Insert (v, base, i :: rest)))

and update_parts ctx args i rest v =
  let len = List.length args in
  if len = 0 then construct ctx args
  else
    let i = clamp_index len i in
    construct ctx
      (List.mapi (fun j x -> if j = i then sym_update ctx x rest v else x) args)

(* ------------------------------------------------------------------ *)
(* Pretty-printing for mismatch witnesses.                             *)

let path_key path = String.concat "." (List.map string_of_int path)

let rec value_str = function
  | Value.VBool b -> string_of_bool b
  | Value.VInt i -> Int32.to_string i
  | Value.VFloat f -> Printf.sprintf "%g" f
  | Value.VComposite xs ->
      let parts = Array.to_list (Array.map value_str xs) in
      "{" ^ String.concat "," parts ^ "}"

let to_string n =
  let buf = Buffer.create 64 in
  let rec go depth n =
    if depth > 6 then Buffer.add_string buf "..."
    else
      match n.desc with
      | Const v -> Buffer.add_string buf (value_str v)
      | Source s -> Buffer.add_string buf ("<" ^ s ^ ">")
      | Dead -> Buffer.add_string buf "_|_"
      | App (tag, args) ->
          Buffer.add_string buf tag;
          Buffer.add_char buf '(';
          List.iteri
            (fun i a ->
              if i > 0 then Buffer.add_char buf ',';
              go (depth + 1) a)
            args;
          Buffer.add_char buf ')'
      | Extract (base, path) ->
          Buffer.add_string buf ("extract[" ^ path_key path ^ "](");
          go (depth + 1) base;
          Buffer.add_char buf ')'
      | Insert (v, base, path) ->
          Buffer.add_string buf ("insert[" ^ path_key path ^ "](");
          go (depth + 1) v;
          Buffer.add_string buf " into ";
          go (depth + 1) base;
          Buffer.add_char buf ')'
  in
  go 0 n;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The symbolic evaluator.                                             *)

(* Memory roots: a global variable or one function-local allocation site
   instance.  Roots never appear inside nodes — only as keys of the
   symbolic store — so their serials need not align across modules. *)
module Root = struct
  type t = Rglobal of Id.t | Rlocal of int

  (* the order of the polymorphic compare (globals first), which the store
     merge's node-creation order rests on *)
  let compare a b =
    match (a, b) with
    | Rglobal x, Rglobal y -> Id.compare x y
    | Rlocal x, Rlocal y -> Int.compare x y
    | Rglobal _, Rlocal _ -> -1
    | Rlocal _, Rglobal _ -> 1
end

module RootMap = Map.Make (Root)

(* One access-chain level of a symbolic pointer.  A [Pconst] level is a
   literal index (evaluated exactly as before the memory model existed —
   the canonical forms of chain-free and constant-chain modules must not
   move).  A [Psym] level is a dynamic index that [Memory] proved bounded:
   loads and stores through it fold into a select chain over all [len]
   cells, with the edge cells' conditions mirroring the interpreter's
   clamping ([idx <= 0] / [idx >= len-1]).  Folding over the full cell
   range — rather than the proven interval — keeps the canonical form
   independent of {e how tight} each side of a pass proves the range, so
   two modules disagree only if their cell values disagree. *)
type pseg =
  | Pconst of int
  | Psym of { idx : node; len : int }

type sptr = { base : Root.t; rpath : pseg list (* reversed, as in Interp *) }
type rv = Rnode of node | Rptr of sptr

(* Literal index path, if the chain has no symbolic level. *)
let const_psegs psegs =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | Pconst i :: tl -> go (i :: acc) tl
    | Psym _ :: _ -> None
  in
  go [] psegs

let cell_cond ctx idx ~len j =
  let ci v = const ctx (Value.VInt (Int32.of_int v)) in
  if j = 0 then binop ctx Instr.SLessThanEqual idx (ci 0)
  else if j = len - 1 then binop ctx Instr.SGreaterThanEqual idx (ci (len - 1))
  else binop ctx Instr.IEqual idx (ci j)

(* Load through a mixed literal/symbolic path: symbolic levels become a
   right-nested select chain (cell 0 first, last cell unconditional — by
   clamping, an index that matched no earlier condition lands there). *)
let rec extract_psegs ctx n = function
  | [] -> n
  | Pconst i :: rest -> extract_psegs ctx (extract ctx n [ i ]) rest
  | Psym { idx; len } :: rest ->
      if len <= 0 then n
      else
        let arm j = extract_psegs ctx (extract ctx n [ j ]) rest in
        let rec chain j =
          if j >= len - 1 then arm (len - 1)
          else ite ctx (cell_cond ctx idx ~len j) (arm j) (chain (j + 1))
        in
        chain 0

(* Store through a mixed path: each cell a symbolic level can reach is
   rebuilt as [select(idx-matches-j, updated, old)]. *)
let rec update_psegs ctx base psegs v =
  match psegs with
  | [] -> v
  | Pconst i :: [] -> sym_update ctx base [ i ] v
  | Pconst i :: rest ->
      let child = extract ctx base [ i ] in
      sym_update ctx base [ i ] (update_psegs ctx child rest v)
  | Psym { idx; len } :: rest ->
      if len <= 0 then base
      else if len = 1 then
        let child = extract ctx base [ 0 ] in
        sym_update ctx base [ 0 ] (update_psegs ctx child rest v)
      else
        let cell j =
          let old_j = extract ctx base [ j ] in
          let upd_j = update_psegs ctx old_j rest v in
          ite ctx (cell_cond ctx idx ~len j) upd_j old_j
        in
        construct ctx (List.init len cell)

(* Everything observable at a function exit: the composed kill condition,
   the return value (Dead for void / killed paths) and the store. *)
type fexit = { x_kill : node; x_ret : node; x_mem : node RootMap.t }

type menv = {
  m : Module_ir.t;
  avail : (Id.t, Dataflow.Availability.t) Hashtbl.t;
  facts : (Id.t, Loops.forest * int Id.Map.t) Hashtbl.t;
      (** per function: loop forest + proven trip bounds, keyed by header *)
  mems : (Id.t, Memory.t) Hashtbl.t;
      (** per function: the access-path / alias analysis backing the
          symbolic memory model *)
  globals : rv Id.Map.t;
  consts : (Id.t, rv) Hashtbl.t;
      (** constant id -> its interned node, filled on first use *)
  blocks : (Id.t, Func.t * Block.t) Hashtbl.t;
      (** branch target label -> (function, block), filled on first use *)
  funcs : (Id.t, Func.t) Hashtbl.t;  (** callee id -> function *)
}

let availability_for me (f : Func.t) =
  match Hashtbl.find_opt me.avail f.Func.id with
  | Some a -> a
  | None ->
      let a = Dataflow.Availability.make me.m f in
      Hashtbl.add me.avail f.Func.id a;
      a

(* Loop forest + trip bounds, from the shared Dataflow analyses (never a
   private fixpoint: the CFG and dominator tree come from Availability, the
   bounds from Dataflow.Ranges).  Computed once per function and cached. *)
let loop_facts_for me (f : Func.t) =
  match Hashtbl.find_opt me.facts f.Func.id with
  | Some x -> x
  | None ->
      let av = availability_for me f in
      let cfg = Dataflow.Availability.cfg av in
      let dom = Dataflow.Availability.dominance av in
      let forest = Loops.analyze cfg dom in
      let bounds =
        if forest.Loops.loops = [] then Id.Map.empty
        else
          let ranges = Dataflow.Ranges.compute me.m f ~cfg ~loops:forest in
          List.fold_left
            (fun acc (l : Loops.loop) ->
              match Dataflow.Ranges.trip_bound ranges ~header:l.Loops.header with
              | Some bnd -> Id.Map.add l.Loops.header bnd acc
              | None -> acc)
            Id.Map.empty forest.Loops.loops
      in
      let facts = (forest, bounds) in
      Hashtbl.add me.facts f.Func.id facts;
      facts

(* The per-function memory analysis, computed once and cached — the only
   path by which the evaluator reasons about dynamic access-chain indices
   (without it the corpus TV sweeps abstain for dynamic-index). *)
let memory_for me (f : Func.t) =
  match Hashtbl.find_opt me.mems f.Func.id with
  | Some t -> t
  | None ->
      let t = Memory.analyze me.m f ~avail:(availability_for me f) in
      Hashtbl.add me.mems f.Func.id t;
      t

let lookup ctx me env id =
  match Id.Map.find_opt id env with
  | Some rv -> rv
  | None -> (
      match Id.Map.find_opt id me.globals with
      | Some rv -> rv
      | None -> (
          match Hashtbl.find_opt me.consts id with
          | Some rv -> rv
          | None -> (
              match Module_ir.find_constant me.m id with
              | Some _ ->
                  (* a node is never dropped from the context, so every later
                     use would intern this same node again *)
                  let rv = Rnode (const ctx (Module_ir.const_value me.m id)) in
                  Hashtbl.add me.consts id rv;
                  rv
              | None -> abstain `Internal "unbound id %s" (Id.to_string id))))

(* Func.block_exn, remembered per label; the function check keeps a
   malformed module whose functions share a label exact *)
let block_for me (f : Func.t) label =
  match Hashtbl.find_opt me.blocks label with
  | Some (g, b) when g == f -> b
  | Some _ -> Func.block_exn f label
  | None ->
      let b = Func.block_exn f label in
      Hashtbl.add me.blocks label (f, b);
      b

let function_for me id =
  match Hashtbl.find_opt me.funcs id with
  | Some g -> g
  | None -> (
      match Module_ir.find_function me.m id with
      | Some g ->
          Hashtbl.add me.funcs id g;
          g
      | None -> abstain `Internal "call to unknown function %s" (Id.to_string id))

let lookup_val ctx me env id =
  match lookup ctx me env id with
  | Rnode n -> n
  | Rptr _ -> abstain `Internal "id %s is a pointer where a value was expected" (Id.to_string id)

let lookup_ptr ctx me env id =
  match lookup ctx me env id with
  | Rptr p -> p
  | Rnode _ -> abstain `Internal "id %s is a value where a pointer was expected" (Id.to_string id)

let mem_find mem base =
  match RootMap.find_opt base mem with
  | Some n -> n
  | None -> abstain `Internal "load from an unallocated root"

let max_call_depth = 64

(* Cells a single folded dynamic index may fan out over; composites in the
   modelled fragment subset are at most mat4-sized. *)
let max_fold = 16

let rec eval_function ctx me ~depth (f : Func.t) (args : rv list) mem : fexit =
  if depth > max_call_depth then abstain `Budget "call depth exceeded in %s" f.Func.name;
  let env =
    try
      List.fold_left2
        (fun env (p : Func.param) a -> Id.Map.add p.Func.param_id a env)
        Id.Map.empty f.Func.params args
    with Invalid_argument _ -> abstain `Internal "arity mismatch calling %s" f.Func.name
  in
  eval_block ctx me ~depth ~unrolls:Id.Map.empty f env ~pred:None mem
    (Func.entry_block f)

and eval_block ctx me ~depth ~unrolls f env ~pred mem (b : Block.t) : fexit =
  ctx.visits <- ctx.visits + 1;
  if ctx.visits > ctx.max_visits then
    abstain `Budget "evaluation budget exhausted (%d block visits)" ctx.max_visits;
  let phi_instrs, rest =
    let rec split acc = function
      | (i : Instr.t) :: tl when Instr.is_phi i -> split (i :: acc) tl
      | tl -> (List.rev acc, tl)
    in
    split [] b.Block.instrs
  in
  (* φs are evaluated simultaneously against the edge environment. *)
  let env =
    match pred with
    | None ->
        if phi_instrs <> [] then
          abstain `Internal "phi in entry block %s" (Id.to_string b.Block.label);
        env
    | Some pred_label ->
        let bindings =
          List.map
            (fun (i : Instr.t) ->
              match (i.Instr.result, i.Instr.op) with
              | Some r, Instr.Phi incoming -> (
                  match
                    List.find_opt
                      (fun (_, blk) -> Id.equal blk pred_label)
                      incoming
                  with
                  | Some (v, _) -> (r, lookup ctx me env v)
                  | None ->
                      abstain `Internal "phi %s lacks an entry for predecessor %s"
                        (Id.to_string r) (Id.to_string pred_label))
              | _ -> abstain `Internal "malformed phi")
            phi_instrs
        in
        List.fold_left (fun env (r, v) -> Id.Map.add r v env) env bindings
  in
  eval_instrs ctx me ~depth ~unrolls f env mem b rest

and eval_instrs ctx me ~depth ~unrolls f env mem b = function
  | [] -> eval_terminator ctx me ~depth ~unrolls f env mem b
  | (i : Instr.t) :: tl -> (
      let continue_with env mem =
        eval_instrs ctx me ~depth ~unrolls f env mem b tl
      in
      let bind r rv = Id.Map.add r rv env in
      match (i.Instr.result, i.Instr.op) with
      | _, Instr.Nop -> continue_with env mem
      | None, Instr.Store (p, v) ->
          let ptr = lookup_ptr ctx me env p in
          let cur = mem_find mem ptr.base in
          let path = List.rev ptr.rpath in
          let vn = lookup_val ctx me env v in
          let updated =
            match const_psegs path with
            | Some ints -> sym_update ctx cur ints vn
            | None -> update_psegs ctx cur path vn
          in
          continue_with env (RootMap.add ptr.base updated mem)
      | Some r, Instr.Binop (op, a, c) ->
          continue_with
            (bind r
               (Rnode
                  (binop ctx op (lookup_val ctx me env a)
                     (lookup_val ctx me env c))))
            mem
      | Some r, Instr.Unop (op, a) ->
          continue_with
            (bind r (Rnode (unop ctx op (lookup_val ctx me env a))))
            mem
      | Some r, Instr.Select (c, tv, fv) -> (
          let cn = lookup_val ctx me env c in
          match cn.desc with
          | Const (Value.VBool cond) ->
              continue_with
                (bind r (lookup ctx me env (if cond then tv else fv)))
                mem
          | Const _ -> abstain `Internal "select condition is not a bool"
          | _ -> (
              match (lookup ctx me env tv, lookup ctx me env fv) with
              | Rnode tn, Rnode fn ->
                  continue_with (bind r (Rnode (ite ctx cn tn fn))) mem
              | _ -> abstain `Unsupported "pointer select on a symbolic condition"))
      | Some r, Instr.CompositeConstruct parts ->
          continue_with
            (bind r
               (Rnode (construct ctx (List.map (lookup_val ctx me env) parts))))
            mem
      | Some r, Instr.CompositeExtract (c, path) ->
          continue_with
            (bind r (Rnode (extract ctx (lookup_val ctx me env c) path)))
            mem
      | Some r, Instr.CompositeInsert (obj, c, path) ->
          continue_with
            (bind r
               (Rnode
                  (sym_update ctx
                     (lookup_val ctx me env c)
                     path
                     (lookup_val ctx me env obj))))
            mem
      | Some r, Instr.Load p ->
          let ptr = lookup_ptr ctx me env p in
          let cur = mem_find mem ptr.base in
          let path = List.rev ptr.rpath in
          let loaded =
            match const_psegs path with
            | Some ints -> extract ctx cur ints
            | None -> extract_psegs ctx cur path
          in
          continue_with (bind r (Rnode loaded)) mem
      | Some r, Instr.AccessChain (base, idxs) ->
          let ptr = lookup_ptr ctx me env base in
          (* segments (one per index operand, with the proven interval and
             the indexed composite's arity) come from the shared memory
             analysis; a symbolic index is foldable exactly when its range
             is proven finite there *)
          let segs = lazy (Memory.chain_segs (memory_for me f) r) in
          let path =
            List.mapi
              (fun k idx ->
                match (lookup_val ctx me env idx).desc with
                | Const (Value.VInt i) -> Pconst (Int32.to_int i)
                | Const _ -> abstain `Internal "non-integer index in access chain"
                | _ -> (
                    let seg =
                      match Lazy.force segs with
                      | Some ss -> List.nth_opt ss k
                      | None -> None
                    in
                    match seg with
                    | None ->
                        abstain `Dynamic_index
                          "dynamic access-chain index through an unresolved pointer"
                    | Some s ->
                        let len = s.Memory.seg_len in
                        if not (Dataflow.Itv.finite s.Memory.seg_itv) then
                          abstain `Dynamic_index
                            "dynamic access-chain index with an unbounded range"
                        else if len > max_fold then
                          abstain `Dynamic_index
                            "dynamic access-chain index fans out over %d cells"
                            len
                        else begin
                          ctx.mem_proofs <- ctx.mem_proofs + 1;
                          if len = 1 then Pconst 0
                          else Psym { idx = lookup_val ctx me env idx; len }
                        end))
              idxs
          in
          continue_with
            (bind r (Rptr { ptr with rpath = List.rev_append path ptr.rpath }))
            mem
      | res, Instr.FunctionCall (callee, args) -> (
          let g = function_for me callee in
          let arg_values = List.map (lookup ctx me env) args in
          let sub = eval_function ctx me ~depth:(depth + 1) g arg_values mem in
          if is_const_true sub.x_kill then
            (* the callee always kills: the rest of this function never
               executes *)
            { x_kill = sub.x_kill; x_ret = dead ctx; x_mem = sub.x_mem }
          else
            let env =
              match res with
              | Some r ->
                  let ret =
                    if is_dead sub.x_ret then const ctx (Value.VComposite [||])
                    else sub.x_ret
                  in
                  bind r (Rnode ret)
              | None -> env
            in
            let rest = eval_instrs ctx me ~depth ~unrolls f env sub.x_mem b tl in
            match rest with
            | { x_kill; x_ret; x_mem } ->
                {
                  x_kill = binop ctx Instr.LogicalOr sub.x_kill x_kill;
                  x_ret;
                  x_mem;
                })
      | Some _, Instr.Phi _ -> abstain `Internal "phi after non-phi instruction"
      | Some r, Instr.CopyObject x ->
          continue_with (bind r (lookup ctx me env x)) mem
      | Some r, Instr.Variable Ty.Function -> (
          match i.Instr.ty with
          | Some ptr_ty -> (
              match Module_ir.find_type me.m ptr_ty with
              | Some (Ty.Pointer (_, pointee)) ->
                  let serial = ctx.local_serial in
                  ctx.local_serial <- serial + 1;
                  let root = Root.Rlocal serial in
                  let mem =
                    RootMap.add root
                      (const ctx (Module_ir.zero_value me.m pointee))
                      mem
                  in
                  continue_with (bind r (Rptr { base = root; rpath = [] })) mem
              | Some _ | None ->
                  abstain `Internal "variable %s has non-pointer type" (Id.to_string r))
          | None -> abstain `Internal "variable without a type")
      | Some _, Instr.Variable _ ->
          abstain `Internal "function-scope variable with bad storage class"
      | Some r, Instr.Undef -> (
          match i.Instr.ty with
          | Some ty ->
              continue_with
                (bind r (Rnode (const ctx (Module_ir.zero_value me.m ty))))
                mem
          | None -> abstain `Internal "undef without a type")
      | None, _ -> abstain `Internal "instruction missing a result id"
      | Some _, Instr.Store _ -> abstain `Internal "store with a result id")

and eval_terminator ctx me ~depth ~unrolls f env mem (b : Block.t) : fexit =
  let forest, bounds = loop_facts_for me f in
  (* Unroll counters are kept per path and keyed by loop header: every
     back-edge traversal (conditional or not) bumps the target header's
     counter; leaving a loop body resets its header's counter so the next
     entry to the loop (e.g. an outer iteration) counts afresh. *)
  let follow target =
    let unrolls =
      if forest.Loops.loops = [] then unrolls
      else
        let u =
          List.fold_left
            (fun u (l : Loops.loop) ->
              if
                Id.Set.mem b.Block.label l.Loops.blocks
                && not (Id.Set.mem target l.Loops.blocks)
              then Id.Map.remove l.Loops.header u
              else u)
            unrolls forest.Loops.loops
        in
        if
          List.exists
            (fun (l : Loops.loop) ->
              Id.equal l.Loops.header target
              && List.exists (Id.equal b.Block.label) l.Loops.latches)
            forest.Loops.loops
        then
          Id.Map.update target
            (function None -> Some 1 | Some n -> Some (n + 1))
            u
        else u
    in
    eval_block ctx me ~depth ~unrolls f env ~pred:(Some b.Block.label) mem
      (block_for me f target)
  in
  match b.Block.terminator with
  | Block.Return -> { x_kill = cbool ctx false; x_ret = dead ctx; x_mem = mem }
  | Block.ReturnValue v ->
      { x_kill = cbool ctx false; x_ret = lookup_val ctx me env v; x_mem = mem }
  | Block.Kill -> { x_kill = cbool ctx true; x_ret = dead ctx; x_mem = mem }
  | Block.Unreachable ->
      abstain `Unsupported "reached OpUnreachable in %s" (Id.to_string b.Block.label)
  | Block.Branch target -> follow target
  | Block.BranchConditional (c, t, fl) -> (
      if Id.equal t fl then follow t
      else
        let cn = lookup_val ctx me env c in
        match cn.desc with
        | Const (Value.VBool cond) ->
            (* concrete edge: this is what unrolls counted loops *)
            follow (if cond then t else fl)
        | Const _ -> abstain `Internal "branch condition is not a bool"
        | _ -> (
            (* A symbolic condition that decides whether a loop keeps
               running is gated by the range analysis: with a proven trip
               bound we fork like any other branch until the counter shows
               the continue arm is statically infeasible, then force the
               exit.  Without a bound, forking would never terminate, so we
               abstain — structurally, not by exhausting the budget. *)
            let dom = Dataflow.Availability.dominance (availability_for me f) in
            let decision =
              if Dominance.dominates dom t b.Block.label then Some (t, fl)
              else if Dominance.dominates dom fl b.Block.label then
                Some (fl, t)
              else
                match Loops.header_of forest b.Block.label with
                | Some l -> (
                    match (Loops.is_in_loop l t, Loops.is_in_loop l fl) with
                    | true, false -> Some (l.Loops.header, fl)
                    | false, true -> Some (l.Loops.header, t)
                    | true, true | false, false -> None)
                | None -> None
            in
            let fork () =
              let t_exit = follow t in
              let f_exit = follow fl in
              merge_exits ctx cn t_exit f_exit
            in
            match decision with
            | None -> fork ()
            | Some (header, exit_arm) -> (
                match Id.Map.find_opt header bounds with
                | None ->
                    abstain `Loop_unbounded
                      "no provable trip bound for the loop at %s in %s"
                      (Id.to_string header) f.Func.name
                | Some bnd ->
                    if bnd > ctx.max_unroll then
                      abstain `Budget
                        "trip bound %d at %s exceeds the unroll budget %d"
                        bnd (Id.to_string header) ctx.max_unroll
                    else if
                      Option.value ~default:0 (Id.Map.find_opt header unrolls)
                      >= bnd
                    then begin
                      (* the proven bound makes the continue arm infeasible
                         on this path: take the exit without forking *)
                      ctx.forced_exits <- ctx.forced_exits + 1;
                      follow exit_arm
                    end
                    else fork ())))

and merge_exits ctx cn t_exit f_exit =
  (* A killed arm's values are unobservable: substituting Dead lets the
     select absorb them, so "store; kill" and "kill" summarize alike. *)
  let t_killed = is_const_true t_exit.x_kill in
  let f_killed = is_const_true f_exit.x_kill in
  let masked killed n = if killed then dead ctx else n in
  let x_kill = ite ctx cn t_exit.x_kill f_exit.x_kill in
  let x_ret =
    ite ctx cn (masked t_killed t_exit.x_ret) (masked f_killed f_exit.x_ret)
  in
  let x_mem =
    RootMap.merge
      (fun _root a b ->
        match (a, b) with
        | Some a, Some b ->
            Some (ite ctx cn (masked t_killed a) (masked f_killed b))
        | Some a, None -> Some a
        | None, Some b -> Some b
        | None, None -> None)
      t_exit.x_mem f_exit.x_mem
  in
  { x_kill; x_ret; x_mem }

(* ------------------------------------------------------------------ *)
(* Whole-module summaries.                                             *)

type summary = { s_kill : node; s_out : node }

let init_globals ctx (m : Module_ir.t) =
  List.fold_left
    (fun (gmap, mem) (g : Module_ir.global_decl) ->
      let sc, pointee =
        match Module_ir.find_type m g.Module_ir.gd_ty with
        | Some (Ty.Pointer (sc, p)) -> (sc, p)
        | Some _ | None ->
            abstain `Internal "global %s has a non-pointer type" g.Module_ir.gd_name
      in
      let initial =
        match sc with
        | Ty.Uniform -> source ctx ("uniform:" ^ g.Module_ir.gd_name)
        | Ty.Input -> source ctx "frag-coord"
        | Ty.Private | Ty.Output | Ty.Function -> (
            match g.Module_ir.gd_init with
            | Some c -> const ctx (Module_ir.const_value m c)
            | None -> const ctx (Module_ir.zero_value m pointee))
      in
      ( Id.Map.add g.Module_ir.gd_id
          (Rptr { base = Root.Rglobal g.Module_ir.gd_id; rpath = [] })
          gmap,
        RootMap.add (Root.Rglobal g.Module_ir.gd_id) initial mem ))
    (Id.Map.empty, RootMap.empty) m.Module_ir.globals

let summarize ctx (m : Module_ir.t) =
  let globals, mem = init_globals ctx m in
  let me =
    {
      m;
      avail = Hashtbl.create 8;
      facts = Hashtbl.create 8;
      mems = Hashtbl.create 8;
      globals;
      consts = Hashtbl.create 64;
      blocks = Hashtbl.create 64;
      funcs = Hashtbl.create 8;
    }
  in
  let entry = Module_ir.entry_function m in
  let ex = eval_function ctx me ~depth:0 entry [] mem in
  let s_out =
    let output_global =
      List.find_opt
        (fun (g : Module_ir.global_decl) ->
          match Module_ir.find_type m g.Module_ir.gd_ty with
          | Some (Ty.Pointer (Ty.Output, _)) -> true
          | Some _ | None -> false)
        m.Module_ir.globals
    in
    match output_global with
    | Some g -> (
        match RootMap.find_opt (Root.Rglobal g.Module_ir.gd_id) ex.x_mem with
        | Some n -> n
        | None -> abstain `Internal "output global missing from the store summary")
    | None -> const ctx (Value.VComposite [||])
  in
  { s_kill = ex.x_kill; s_out }
