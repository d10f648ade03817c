(** Generic worklist dataflow over {!Cfg}, and the standard analyses built
    on it.

    The engine is parameterized by a join-semilattice (bottom, join, equal)
    and a per-block transfer function; direction selects whether states
    propagate along or against control-flow edges.  Everything downstream —
    the validator, the lint suite, the optimizer's checked pipelines and the
    transformation preconditions — consumes these shared analyses instead of
    re-deriving def-use facts privately. *)

type direction = Forward | Backward

type 'a lattice = {
  bottom : 'a;  (* must be the identity of [join] *)
  equal : 'a -> 'a -> bool;
  join : 'a -> 'a -> 'a;
}

type 'a solution = {
  block_in : 'a array;   (* state at block entry, per Cfg position *)
  block_out : 'a array;  (* state at block exit, per Cfg position *)
}

let solve ?(edge = fun ~src:_ ~dst:_ s -> s) ?(widen = fun _ ~old:_ s -> s)
    (cfg : Cfg.t) direction lat ~boundary ~transfer =
  let n = Array.length cfg.Cfg.blocks in
  let block_in = Array.make n lat.bottom in
  let block_out = Array.make n lat.bottom in
  if n > 0 then begin
    (* Seed the worklist with every block (unreachable ones included, so
       their facts exist too), in an order that converges quickly: reverse
       post-order along the direction of propagation. *)
    let rpo = Cfg.reverse_postorder cfg in
    let unreachable =
      List.filter (fun i -> not cfg.Cfg.reachable.(i)) (List.init n Fun.id)
    in
    let order =
      match direction with
      | Forward -> rpo @ unreachable
      | Backward -> List.rev rpo @ unreachable
    in
    let queue = Queue.create () in
    let queued = Array.make n false in
    let enqueue i =
      if not queued.(i) then begin
        queued.(i) <- true;
        Queue.add i queue
      end
    in
    List.iter enqueue order;
    (* under the chosen direction: the edges states flow in from, the blocks
       to revisit when a state changes, and which side of the solution each
       plays *)
    let sources, dependents, src_state =
      match direction with
      | Forward -> (cfg.Cfg.preds, cfg.Cfg.succs, block_out)
      | Backward -> (cfg.Cfg.succs, cfg.Cfg.preds, block_in)
    in
    let at_boundary i =
      match direction with
      | Forward -> i = 0
      | Backward -> cfg.Cfg.succs.(i) = []
    in
    while not (Queue.is_empty queue) do
      let i = Queue.pop queue in
      queued.(i) <- false;
      let incoming =
        let base = if at_boundary i then boundary else lat.bottom in
        List.fold_left
          (fun acc j -> lat.join acc (edge ~src:j ~dst:i src_state.(j)))
          base sources.(i)
      in
      let incoming =
        let old =
          match direction with
          | Forward -> block_in.(i)
          | Backward -> block_out.(i)
        in
        widen i ~old incoming
      in
      let out = transfer i incoming in
      let changed =
        match direction with
        | Forward ->
            block_in.(i) <- incoming;
            not (lat.equal out block_out.(i)) && (block_out.(i) <- out; true)
        | Backward ->
            block_out.(i) <- incoming;
            not (lat.equal out block_in.(i)) && (block_in.(i) <- out; true)
      in
      if changed then List.iter enqueue dependents.(i)
    done
  end;
  { block_in; block_out }

let id_set_lattice =
  { bottom = Id.Set.empty; equal = Id.Set.equal; join = Id.Set.union }

(* result ids defined by a block's instructions *)
let block_defs (b : Block.t) =
  List.fold_left
    (fun s (i : Instr.t) ->
      match i.Instr.result with Some r -> Id.Set.add r s | None -> s)
    Id.Set.empty b.Block.instrs

let all_defs (f : Func.t) =
  List.fold_left
    (fun s b -> Id.Set.union s (block_defs b))
    Id.Set.empty f.Func.blocks

let position_exn cfg label =
  match Cfg.block_index cfg label with
  | Some i -> i
  | None -> invalid_arg ("Dataflow: no block " ^ Id.to_string label)

(* ------------------------------------------------------------------ *)
(* Reaching definitions                                                *)

module Reaching_defs = struct
  type t = { cfg : Cfg.t; sol : Id.Set.t solution }

  (* SSA never redefines an id, so there are no kills: a definition reaches
     every point some path leads to from its block. *)
  let compute (f : Func.t) =
    let cfg = Cfg.of_func f in
    let defs = Array.map block_defs cfg.Cfg.blocks in
    let sol =
      solve cfg Forward id_set_lattice ~boundary:Id.Set.empty
        ~transfer:(fun i s -> Id.Set.union s defs.(i))
    in
    { cfg; sol }

  let at_entry t label = t.sol.block_in.(position_exn t.cfg label)
  let at_exit t label = t.sol.block_out.(position_exn t.cfg label)
end

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)

module Liveness = struct
  type t = {
    cfg : Cfg.t;
    sol : Id.Set.t solution;
    phi_uses_from : Id.Set.t array;  (* values feeding successor φs, per pred *)
  }

  (* φ semantics: a φ's value operands are uses at the end of the matching
     predecessor, not in the φ's own block; its block-label operands are not
     value uses at all. *)
  let instr_uses (i : Instr.t) =
    match i.Instr.op with Instr.Phi _ -> [] | _ -> Instr.used_ids i

  let transfer_block (b : Block.t) ~live_out =
    let live =
      List.fold_left
        (fun s u -> Id.Set.add u s)
        live_out
        (Block.terminator_used_ids b.Block.terminator)
    in
    List.fold_left
      (fun live (i : Instr.t) ->
        let live =
          match i.Instr.result with
          | Some r -> Id.Set.remove r live
          | None -> live
        in
        List.fold_left (fun s u -> Id.Set.add u s) live (instr_uses i))
      live
      (List.rev b.Block.instrs)

  let compute (f : Func.t) =
    let cfg = Cfg.of_func f in
    let n = Array.length cfg.Cfg.blocks in
    let phi_uses_from = Array.make n Id.Set.empty in
    Array.iteri
      (fun p succs ->
        List.iter
          (fun s ->
            let sb = cfg.Cfg.blocks.(s) in
            List.iter
              (fun (i : Instr.t) ->
                match i.Instr.op with
                | Instr.Phi incoming ->
                    List.iter
                      (fun (v, pred) ->
                        if Id.equal pred cfg.Cfg.blocks.(p).Block.label then
                          phi_uses_from.(p) <- Id.Set.add v phi_uses_from.(p))
                      incoming
                | _ -> ())
              sb.Block.instrs)
          succs)
      cfg.Cfg.succs;
    let sol =
      solve cfg Backward id_set_lattice ~boundary:Id.Set.empty
        ~transfer:(fun i out ->
          transfer_block cfg.Cfg.blocks.(i)
            ~live_out:(Id.Set.union out phi_uses_from.(i)))
    in
    { cfg; sol; phi_uses_from }

  let live_in t label = t.sol.block_in.(position_exn t.cfg label)

  (* live across the outgoing edges, successor-φ uses included *)
  let live_out t label =
    let i = position_exn t.cfg label in
    Id.Set.union t.sol.block_out.(i) t.phi_uses_from.(i)
end

(* ------------------------------------------------------------------ *)
(* Availability (the SSA dominance rule)                               *)

module Availability = struct
  type t = {
    m : Module_ir.t;
    f : Func.t;
    cfg : Cfg.t;
    dom : Dominance.t;
    def_site : (Id.t * int) Id.Map.t;  (* id -> (block label, instr index) *)
    module_level : Id.Set.t;  (* constants, globals, this function's params *)
    must_in : Id.Set.t solution Lazy.t;  (* intersection formulation *)
  }

  let make m (f : Func.t) =
    let cfg = Cfg.of_func f in
    (* the one dominator tree: every other module takes it from here *)
    let dom = (Dominance.compute [@alert "-private_dominance"]) cfg in
    let def_site =
      List.fold_left
        (fun acc (b : Block.t) ->
          let acc, _ =
            List.fold_left
              (fun (acc, idx) (i : Instr.t) ->
                let acc =
                  match i.Instr.result with
                  | Some r -> Id.Map.add r (b.Block.label, idx) acc
                  | None -> acc
                in
                (acc, idx + 1))
              (acc, 0) b.Block.instrs
          in
          acc)
        Id.Map.empty f.Func.blocks
    in
    let module_level =
      let s = ref Id.Set.empty in
      List.iter
        (fun (d : Module_ir.const_decl) -> s := Id.Set.add d.Module_ir.cd_id !s)
        m.Module_ir.constants;
      List.iter
        (fun (d : Module_ir.global_decl) -> s := Id.Set.add d.Module_ir.gd_id !s)
        m.Module_ir.globals;
      List.iter
        (fun (p : Func.param) -> s := Id.Set.add p.Func.param_id !s)
        f.Func.params;
      !s
    in
    let must_in =
      lazy
        (let universe = all_defs f in
         let defs = Array.map block_defs cfg.Cfg.blocks in
         (* must-analysis: join is intersection, so the join identity
            ("nothing known yet") is the full universe *)
         let lat =
           { bottom = universe; equal = Id.Set.equal; join = Id.Set.inter }
         in
         solve cfg Forward lat ~boundary:Id.Set.empty ~transfer:(fun i s ->
             Id.Set.union s defs.(i)))
    in
    { m; f; cfg; dom; def_site; module_level; must_in }

  let module_of t = t.m
  let func t = t.f
  let cfg t = t.cfg
  let dominance t = t.dom
  let def_site t id = Id.Map.find_opt id t.def_site
  let is_module_level t id = Id.Set.mem id t.module_level

  (* The validator's rule, including its relaxation inside unreachable
     blocks: uses there only need the id defined somewhere in the
     function. *)
  let available_at t ~block ~index id =
    if Id.Set.mem id t.module_level then true
    else
      match Id.Map.find_opt id t.def_site with
      | None -> false
      | Some (def_block, def_idx) ->
          if not (Cfg.is_reachable t.cfg block) then true
          else if Id.equal def_block block then def_idx < index
          else Dominance.strictly_dominates t.dom def_block block

  let available_at_end t ~block id = available_at t ~block ~index:max_int id

  (* ids guaranteed defined on every path from entry to [block]'s entry —
     the worklist formulation of availability; on a valid module it agrees
     with the dominance rule at block entry (property-tested). *)
  let must_defined_at_entry t ~block =
    (Lazy.force t.must_in).block_in.(position_exn t.cfg block)
end

(* ------------------------------------------------------------------ *)
(* Constant / uniform-value propagation                                *)

module Constprop = struct
  type t = { values : Value.t Id.Map.t }

  (* The environment maps ids to values known constant on all paths.  The
     lattice element is an [option]: [None] is "unvisited" (the join
     identity, top), so unreachable blocks contribute nothing. *)
  let join_env a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b ->
        Some
          (Id.Map.merge
             (fun _ va vb ->
               match (va, vb) with
               | Some x, Some y when Value.equal x y -> Some x
               | _ -> None)
             a b)

  let equal_env a b = Option.equal (Id.Map.equal Value.equal) a b

  let rec extract_path v path =
    match (path, v) with
    | [], _ -> Some v
    | i :: rest, Value.VComposite xs when i >= 0 && i < Array.length xs ->
        extract_path xs.(i) rest
    | _ -> None

  let eval_op m input env (i : Instr.t) =
    let lookup x = Id.Map.find_opt x env in
    match i.Instr.op with
    | Instr.CopyObject x -> lookup x
    | Instr.Binop (op, a, b) -> (
        match (lookup a, lookup b) with
        | Some va, Some vb -> (
            try Some (Ops.eval_binop op va vb) with _ -> None)
        | _ -> None)
    | Instr.Unop (op, a) -> (
        match lookup a with
        | Some va -> ( try Some (Ops.eval_unop op va) with _ -> None)
        | None -> None)
    | Instr.Select (c, t, f) -> (
        match lookup c with
        | Some (Value.VBool true) -> lookup t
        | Some (Value.VBool false) -> lookup f
        | _ -> None)
    | Instr.CompositeConstruct xs ->
        let vs = List.map lookup xs in
        if List.for_all Option.is_some vs then
          Some (Value.VComposite (Array.of_list (List.map Option.get vs)))
        else None
    | Instr.CompositeExtract (c, path) -> (
        match lookup c with
        | Some v -> extract_path v path
        | None -> None)
    | Instr.Phi incoming -> (
        (* conservative: the joined entry environment already requires each
           incoming value to be the same constant on every predecessor *)
        match incoming with
        | [] -> None
        | (v0, _) :: rest -> (
            match lookup v0 with
            | Some c
              when List.for_all
                     (fun (v, _) ->
                       match lookup v with
                       | Some c' -> Value.equal c c'
                       | None -> false)
                     rest ->
                Some c
            | _ -> None))
    | Instr.Load p -> (
        (* uniform propagation: loading an unwritten Uniform-class global
           yields the input's value for it *)
        match (input, Module_ir.find_global m p) with
        | Some input, Some g -> (
            match Module_ir.find_type m g.Module_ir.gd_ty with
            | Some (Ty.Pointer (Ty.Uniform, _)) ->
                Input.find_uniform input g.Module_ir.gd_name
            | _ -> None)
        | _ -> None)
    | Instr.CompositeInsert _ | Instr.Store _ | Instr.AccessChain _
    | Instr.FunctionCall _ | Instr.Variable _ | Instr.Undef | Instr.Nop ->
        None

  let transfer_block m input (b : Block.t) env =
    List.fold_left
      (fun env (i : Instr.t) ->
        match i.Instr.result with
        | None -> env
        | Some r -> (
            match eval_op m input env i with
            | Some v -> Id.Map.add r v env
            | None -> env))
      env b.Block.instrs

  let compute ?input m (f : Func.t) =
    let cfg = Cfg.of_func f in
    let initial =
      List.fold_left
        (fun acc (d : Module_ir.const_decl) ->
          match Module_ir.const_value m d.Module_ir.cd_id with
          | v -> Id.Map.add d.Module_ir.cd_id v acc
          | exception _ -> acc)
        Id.Map.empty m.Module_ir.constants
    in
    let lat = { bottom = None; equal = equal_env; join = join_env } in
    let transfer i env =
      Option.map (transfer_block m input cfg.Cfg.blocks.(i)) env
    in
    let sol = solve cfg Forward lat ~boundary:(Some initial) ~transfer in
    (* collect the fixpoint bindings: SSA defines each id once, so the
       per-block environments never disagree on instruction results *)
    let values =
      Array.fold_left
        (fun acc env ->
          match env with
          | None -> acc
          | Some env -> Id.Map.union (fun _ a _ -> Some a) env acc)
        initial sol.block_out
    in
    { values }

  let value_of t id = Id.Map.find_opt id t.values
  let known t = Id.Map.bindings t.values
end

(* ------------------------------------------------------------------ *)
(* Integer intervals                                                   *)

module Itv = struct
  (* [min_int]/[max_int] are the -oo/+oo sentinels; every finite bound lies
     in the int32 range.  Arithmetic that could leave the int32 range
     returns [top]: module semantics wrap (Int32), so a potentially
     overflowing op really can produce any value. *)
  type t = { lo : int; hi : int }

  let top = { lo = min_int; hi = max_int }
  let is_top t = t.lo = min_int && t.hi = max_int
  let point n = { lo = n; hi = n }
  let make lo hi = { lo; hi }
  let mem n t = n >= t.lo && n <= t.hi
  let equal a b = a.lo = b.lo && a.hi = b.hi
  let join a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

  (* the meet may be empty (lo > hi); callers treat that as infeasible *)
  let meet a b = { lo = max a.lo b.lo; hi = min a.hi b.hi }
  let is_empty t = t.lo > t.hi
  let finite t = t.lo > min_int && t.hi < max_int
  let singleton t = if finite t && t.lo = t.hi then Some t.lo else None

  let widen ~old nw =
    {
      lo = (if nw.lo < old.lo then min_int else old.lo);
      hi = (if nw.hi > old.hi then max_int else old.hi);
    }

  let i32_min = Int32.to_int Int32.min_int
  let i32_max = Int32.to_int Int32.max_int

  (* corners computed in 63-bit arithmetic; any corner outside the int32
     range means the Int32 op could wrap, so the result is unconstrained *)
  let of_corners = function
    | [] -> top
    | c :: cs ->
        let lo = List.fold_left min c cs and hi = List.fold_left max c cs in
        if lo >= i32_min && hi <= i32_max then { lo; hi } else top

  let add a b =
    if finite a && finite b then of_corners [ a.lo + b.lo; a.hi + b.hi ]
    else top

  let sub a b =
    if finite a && finite b then of_corners [ a.lo - b.hi; a.hi - b.lo ]
    else top

  let mul a b =
    if finite a && finite b then
      of_corners [ a.lo * b.lo; a.lo * b.hi; a.hi * b.lo; a.hi * b.hi ]
    else top

  let neg a = if finite a then of_corners [ -a.lo; -a.hi ] else top

  let to_string t =
    let b n =
      if n = min_int then "-oo"
      else if n = max_int then "+oo"
      else string_of_int n
    in
    Printf.sprintf "[%s, %s]" (b t.lo) (b t.hi)
end

(* ------------------------------------------------------------------ *)
(* Interval / value-range analysis                                     *)

module Ranges = struct
  (* The environment maps SSA value ids — and the ids of trackable
     function-local int cells — to intervals; a missing key means top.  The
     lattice element is an [option]: [None] is "unvisited" (the join
     identity), exactly as in [Constprop]. *)
  type env = Itv.t Id.Map.t

  type t = {
    m : Module_ir.t;
    f : Func.t;
    cfg : Cfg.t;
    loops : Loops.forest;
    tracked : Id.Set.t;
    def_instr : Instr.t Id.Map.t;
    def_block : Id.t Id.Map.t;
    sol : env option solution;
  }

  (* Function-local int variables whose every use is a direct [Load]/[Store]
     destination: their contents cannot be aliased (no access chains, no
     escaping into calls or φs), so a store is the only way they change. *)
  let tracked_cells m (f : Func.t) =
    let int_cells =
      List.fold_left
        (fun s (i : Instr.t) ->
          match (i.Instr.result, i.Instr.op, i.Instr.ty) with
          | Some r, Instr.Variable Ty.Function, Some ty -> (
              match Module_ir.find_type m ty with
              | Some (Ty.Pointer (_, p)) -> (
                  match Module_ir.find_type m p with
                  | Some Ty.Int -> Id.Set.add r s
                  | _ -> s)
              | _ -> s)
          | _ -> s)
        Id.Set.empty (Func.all_instrs f)
    in
    let bad = ref Id.Set.empty in
    let disqualify id =
      if Id.Set.mem id int_cells then bad := Id.Set.add id !bad
    in
    List.iter
      (fun (b : Block.t) ->
        List.iter
          (fun (i : Instr.t) ->
            match i.Instr.op with
            | Instr.Load _ -> ()
            | Instr.Store (_, v) -> disqualify v
            | _ -> List.iter disqualify (Instr.used_ids i))
          b.Block.instrs;
        List.iter disqualify (Block.terminator_used_ids b.Block.terminator))
      f.Func.blocks;
    Id.Set.diff int_cells !bad

  let def_maps (f : Func.t) =
    List.fold_left
      (fun (di, db) (b : Block.t) ->
        List.fold_left
          (fun (di, db) (i : Instr.t) ->
            match i.Instr.result with
            | Some r -> (Id.Map.add r i di, Id.Map.add r b.Block.label db)
            | None -> (di, db))
          (di, db) b.Block.instrs)
      (Id.Map.empty, Id.Map.empty) f.Func.blocks

  let lookup m env id =
    match Id.Map.find_opt id env with
    | Some itv -> itv
    | None -> (
        match Module_ir.find_constant m id with
        | Some _ -> (
            match Module_ir.const_value m id with
            | Value.VInt n -> Itv.point (Int32.to_int n)
            | Value.VBool _ | Value.VFloat _ | Value.VComposite _ -> Itv.top
            | exception _ -> Itv.top)
        | None -> Itv.top)

  (* only non-top intervals are stored, so "missing = top" stays consistent *)
  let bind env r itv =
    if Itv.is_top itv then Id.Map.remove r env else Id.Map.add r itv env

  let eval_instr m tracked env (i : Instr.t) =
    let lk x = lookup m env x in
    match (i.Instr.result, i.Instr.op) with
    | None, Instr.Store (p, v) ->
        if Id.Set.mem p tracked then bind env p (lk v) else env
    | None, _ -> env
    | Some r, Instr.Binop (op, a, b) -> (
        match op with
        | Instr.IAdd -> bind env r (Itv.add (lk a) (lk b))
        | Instr.ISub -> bind env r (Itv.sub (lk a) (lk b))
        | Instr.IMul -> bind env r (Itv.mul (lk a) (lk b))
        | Instr.SDiv | Instr.SMod -> (
            match (Itv.singleton (lk a), Itv.singleton (lk b)) with
            | Some x, Some y -> (
                match
                  Ops.eval_binop op
                    (Value.VInt (Int32.of_int x))
                    (Value.VInt (Int32.of_int y))
                with
                | Value.VInt n -> bind env r (Itv.point (Int32.to_int n))
                | Value.VBool _ | Value.VFloat _ | Value.VComposite _ -> env
                | exception Ops.Type_error _ -> env)
            | _, Some m when op = Instr.SMod ->
                (* [Ops.smod] is [Int32.rem] (dividend-signed, and 0 when the
                   divisor is 0), so with a known divisor m <> 0 the result
                   lies in [-(|m|-1), |m|-1], tightened by the dividend's
                   sign; this is what proves the
                   [((x mod n) + n) mod n] in-bounds idiom.  Soundness at
                   the int32 edge: |Int32.rem a m| < |m| for every a,
                   including min_int (rem min_int (-1) = 0). *)
                if m = 0 then bind env r (Itv.point 0)
                else
                  let bound = abs m - 1 in
                  let ia = lk a in
                  let itv =
                    if ia.Itv.lo >= 0 then Itv.make 0 (min ia.Itv.hi bound)
                    else if ia.Itv.hi <= 0 then
                      Itv.make (max ia.Itv.lo (-bound)) 0
                    else Itv.make (-bound) bound
                  in
                  bind env r itv
            | _ -> env)
        | _ -> env)
    | Some r, Instr.Unop (Instr.SNegate, a) -> bind env r (Itv.neg (lk a))
    | Some _, Instr.Unop _ -> env
    | Some r, Instr.Select (_, tv, fv) -> bind env r (Itv.join (lk tv) (lk fv))
    | Some r, Instr.CopyObject x -> bind env r (lk x)
    | Some r, Instr.Phi incoming -> (
        (* the edge transfer binds φs against each predecessor's own
           environment (where a latch-defined operand is finite even
           though it is top on the merged entry state); a binding that
           survived the entry join is exact, so keep it *)
        if Id.Map.mem r env then env
        else
          match incoming with
          | [] -> env
          | (v0, _) :: rest ->
              bind env r
                (List.fold_left (fun acc (v, _) -> Itv.join acc (lk v)) (lk v0) rest))
    | Some r, Instr.Load p ->
        if Id.Set.mem p tracked then bind env r (lk p) else bind env r Itv.top
    | Some r, Instr.Variable Ty.Function ->
        (* interp semantics: a fresh cell is zero-initialized *)
        if Id.Set.mem r tracked then bind env r (Itv.point 0) else env
    | Some _, _ -> env

  let negate_cmp = function
    | Instr.SLessThan -> Some Instr.SGreaterThanEqual
    | Instr.SLessThanEqual -> Some Instr.SGreaterThan
    | Instr.SGreaterThan -> Some Instr.SLessThanEqual
    | Instr.SGreaterThanEqual -> Some Instr.SLessThan
    | Instr.IEqual -> Some Instr.INotEqual
    | Instr.INotEqual -> Some Instr.IEqual
    | _ -> None

  (* intervals implied on x and y by  x `op` y  holding *)
  let cmp_constraints op (ix : Itv.t) (iy : Itv.t) =
    match op with
    | Instr.SLessThan ->
        ( (if iy.Itv.hi = max_int then Itv.top else Itv.make min_int (iy.Itv.hi - 1)),
          if ix.Itv.lo = min_int then Itv.top else Itv.make (ix.Itv.lo + 1) max_int )
    | Instr.SLessThanEqual ->
        (Itv.make min_int iy.Itv.hi, Itv.make ix.Itv.lo max_int)
    | Instr.SGreaterThan ->
        ( (if iy.Itv.lo = min_int then Itv.top else Itv.make (iy.Itv.lo + 1) max_int),
          if ix.Itv.hi = max_int then Itv.top else Itv.make min_int (ix.Itv.hi - 1) )
    | Instr.SGreaterThanEqual ->
        (Itv.make iy.Itv.lo max_int, Itv.make min_int ix.Itv.hi)
    | Instr.IEqual -> (iy, ix)
    | _ -> (Itv.top, Itv.top)

  let chase_copies def_instr id =
    let rec go id n =
      match Id.Map.find_opt id def_instr with
      | Some { Instr.op = Instr.CopyObject y; _ } when n > 0 -> go y (n - 1)
      | d -> d
    in
    go id 8

  (* ids/cells whose value at the end of [b] provably equals [x]'s value:
     CopyObject chains, in-block loads with no later store to their cell,
     and cells whose last in-block store stores a member of the set *)
  let equal_set tracked def_instr (b : Block.t) x =
    let instrs = Array.of_list b.Block.instrs in
    let last_store_to p =
      let r = ref None in
      Array.iteri
        (fun i (ins : Instr.t) ->
          match ins.Instr.op with
          | Instr.Store (p', _) when Id.equal p' p -> r := Some i
          | _ -> ())
        instrs;
      !r
    in
    let pos_of id =
      let r = ref None in
      Array.iteri
        (fun i (ins : Instr.t) ->
          match ins.Instr.result with
          | Some rr when Id.equal rr id -> r := Some i
          | _ -> ())
        instrs;
      !r
    in
    let set = ref (Id.Set.singleton x) in
    let changed = ref true in
    while !changed do
      changed := false;
      let add id =
        if not (Id.Set.mem id !set) then begin
          set := Id.Set.add id !set;
          changed := true
        end
      in
      Id.Set.iter
        (fun id ->
          match Id.Map.find_opt id def_instr with
          | Some { Instr.op = Instr.CopyObject y; _ } -> add y
          | Some { Instr.op = Instr.Load p; _ } when Id.Set.mem p tracked -> (
              match pos_of id with
              | Some lp
                when (match last_store_to p with
                     | Some sp -> sp < lp
                     | None -> true) ->
                  add p
              | _ -> ())
          | _ -> ())
        !set;
      Array.iteri
        (fun i (ins : Instr.t) ->
          match ins.Instr.op with
          | Instr.Store (p, v)
            when Id.Set.mem p tracked && Id.Set.mem v !set
                 && (match last_store_to p with
                    | Some sp -> sp = i
                    | None -> false) ->
              add p
          | _ -> ())
        instrs
    done;
    !set

  (* edge transfer: refine the comparison operands (and everything provably
     equal to them at the source block's exit) along conditional edges; an
     empty meet means the edge is infeasible and contributes nothing *)
  let refine_edge m tracked def_instr (cfg : Cfg.t) ~src ~dst env =
    match env with
    | None -> None
    | Some env0 -> (
        let b = cfg.Cfg.blocks.(src) in
        match b.Block.terminator with
        | Block.BranchConditional (c, tt, ff) when not (Id.equal tt ff) -> (
            let dst_label = cfg.Cfg.blocks.(dst).Block.label in
            let assume =
              if Id.equal dst_label tt then Some true
              else if Id.equal dst_label ff then Some false
              else None
            in
            match (assume, chase_copies def_instr c) with
            | Some assume, Some { Instr.op = Instr.Binop (op, x, y); _ } -> (
                let op = if assume then Some op else negate_cmp op in
                match op with
                | None -> Some env0
                | Some op ->
                    let ix = lookup m env0 x and iy = lookup m env0 y in
                    let cx, cy = cmp_constraints op ix iy in
                    let apply target itv acc =
                      match acc with
                      | None -> None
                      | Some env ->
                          Id.Set.fold
                            (fun id acc ->
                              match acc with
                              | None -> None
                              | Some env ->
                                  let r = Itv.meet (lookup m env id) itv in
                                  if Itv.is_empty r then None
                                  else Some (bind env id r))
                            (equal_set tracked def_instr b target)
                            (Some env)
                    in
                    Some env0 |> apply x cx |> apply y cy)
            | _ -> Some env0)
        | Block.Branch _ | Block.BranchConditional _ | Block.Return
        | Block.ReturnValue _ | Block.Kill | Block.Unreachable ->
            Some env0)

  (* φs evaluated per edge: bind each φ result in [dst] to its incoming
     operand's interval in the (already refined) source-edge environment.
     The merged entry state sees the pointwise join of these exact
     bindings, so a latch-carried induction variable keeps a finite lower
     bound instead of joining with top along the entry edge.  A φ with no
     entry for the edge's predecessor (malformed IR) drops to top. *)
  let eval_phis_on_edge m (cfg : Cfg.t) ~src ~dst env =
    match env with
    | None -> None
    | Some env0 ->
        let src_label = cfg.Cfg.blocks.(src).Block.label in
        let bindings =
          List.filter_map
            (fun (i : Instr.t) ->
              match (i.Instr.result, i.Instr.op) with
              | Some r, Instr.Phi incoming ->
                  let itv =
                    match
                      List.find_opt
                        (fun (_, p) -> Id.equal p src_label)
                        incoming
                    with
                    | Some (v, _) -> lookup m env0 v
                    | None -> Itv.top
                  in
                  Some (r, itv)
              | _ -> None)
            cfg.Cfg.blocks.(dst).Block.instrs
        in
        (* all φs read the pre-φ edge environment, then bind simultaneously *)
        Some (List.fold_left (fun e (r, itv) -> bind e r itv) env0 bindings)

  let join_env a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b ->
        Some
          (Id.Map.merge
             (fun _ va vb ->
               match (va, vb) with
               | Some x, Some y ->
                   let j = Itv.join x y in
                   if Itv.is_top j then None else Some j
               | _ -> None)
             a b)

  let equal_env = Option.equal (Id.Map.equal Itv.equal)

  let widen_delay = 3

  module Int_set = Set.Make (Int)

  (* Widening thresholds: the integer constants compared against in [f]
     (± 1 for strictness).  Widening an unstable bound to the nearest
     threshold instead of straight to ±oo lets an outer induction variable
     survive an inner loop's widening point — a plain widen of  i  at the
     inner header tops out  i + 1, and the descending sweeps cannot recover
     through the inner cycle.  The chain per bound is still finite. *)
  let widen_thresholds m (f : Func.t) =
    let cint v =
      match Module_ir.const_value m v with
      | Value.VInt n -> Some (Int32.to_int n)
      | Value.VBool _ | Value.VFloat _ | Value.VComposite _ -> None
      | exception _ -> None
    in
    let add s v =
      match cint v with
      | Some n -> Int_set.add (n - 1) (Int_set.add n (Int_set.add (n + 1) s))
      | None -> s
    in
    let s =
      List.fold_left
        (fun s (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Binop
              ( ( Instr.IEqual | Instr.INotEqual | Instr.SLessThan
                | Instr.SLessThanEqual | Instr.SGreaterThan
                | Instr.SGreaterThanEqual ),
                a,
                b ) ->
              add (add s a) b
          | _ -> s)
        (Int_set.singleton 0) (Func.all_instrs f)
    in
    Int_set.elements s

  let compute m (f : Func.t) ~(cfg : Cfg.t) ~(loops : Loops.forest) =
    let tracked = tracked_cells m f in
    let def_instr, def_block = def_maps f in
    let n = Array.length cfg.Cfg.blocks in
    (* widening points: loop headers plus targets of irreducible retreating
       edges — every CFG cycle passes through one, keeping chains finite *)
    let widen_at = Array.make n false in
    List.iter
      (fun (l : Loops.loop) ->
        match Cfg.block_index cfg l.Loops.header with
        | Some i -> widen_at.(i) <- true
        | None -> ())
      loops.Loops.loops;
    List.iter
      (fun (_, dst) ->
        match Cfg.block_index cfg dst with
        | Some i -> widen_at.(i) <- true
        | None -> ())
      loops.Loops.irreducible;
    let visits = Array.make n 0 in
    let thresholds = widen_thresholds m f in
    let widen_itv ~(old : Itv.t) (nw : Itv.t) =
      let lo =
        if nw.Itv.lo >= old.Itv.lo then old.Itv.lo
        else
          (* largest threshold at or below the new bound, else -oo *)
          List.fold_left
            (fun acc t -> if t <= nw.Itv.lo then t else acc)
            min_int thresholds
      in
      let hi =
        if nw.Itv.hi <= old.Itv.hi then old.Itv.hi
        else
          (* smallest threshold at or above the new bound, else +oo *)
          List.fold_left
            (fun acc t -> if t >= nw.Itv.hi && acc = max_int then t else acc)
            max_int thresholds
      in
      Itv.make lo hi
    in
    let widen i ~old nw =
      if not widen_at.(i) then nw
      else begin
        visits.(i) <- visits.(i) + 1;
        if visits.(i) <= widen_delay then nw
        else
          match (old, nw) with
          | Some o, Some nv ->
              Some
                (Id.Map.merge
                   (fun _ vo vn ->
                     match (vo, vn) with
                     | Some vo, Some vn ->
                         let w = widen_itv ~old:vo vn in
                         if Itv.is_top w then None else Some w
                     | _, _ -> None)
                   o nv)
          | _ -> nw
      end
    in
    let lat = { bottom = None; equal = equal_env; join = join_env } in
    let transfer i env =
      Option.map
        (fun env ->
          List.fold_left (eval_instr m tracked) env
            cfg.Cfg.blocks.(i).Block.instrs)
        env
    in
    let edge ~src ~dst env =
      eval_phis_on_edge m cfg ~src ~dst
        (refine_edge m tracked def_instr cfg ~src ~dst env)
    in
    let sol =
      solve ~edge ~widen cfg Forward lat ~boundary:(Some Id.Map.empty) ~transfer
    in
    (* two descending (narrowing) sweeps: re-propagate from the widened
       post-fixpoint without widening; values only shrink and stay sound *)
    let rpo = Cfg.reverse_postorder cfg in
    for _pass = 1 to 2 do
      List.iter
        (fun i ->
          let incoming =
            let base = if i = 0 then Some Id.Map.empty else None in
            List.fold_left
              (fun acc j -> join_env acc (edge ~src:j ~dst:i sol.block_out.(j)))
              base cfg.Cfg.preds.(i)
          in
          sol.block_in.(i) <- incoming;
          sol.block_out.(i) <- transfer i incoming)
        rpo
    done;
    { m; f; cfg; loops; tracked; def_instr; def_block; sol }

  let interval_at t ~block id =
    match Cfg.block_index t.cfg block with
    | Some i -> (
        match t.sol.block_out.(i) with
        | Some env -> lookup t.m env id
        | None -> Itv.top)
    | None -> Itv.top

  (* sound interval for an SSA value: its binding at its defining block's
     exit covers every execution of the definition *)
  let interval_of t id =
    match Id.Map.find_opt id t.def_block with
    | Some b -> interval_at t ~block:b id
    | None -> lookup t.m Id.Map.empty id

  let known t =
    Id.Map.fold
      (fun id _ acc ->
        let itv = interval_of t id in
        if Itv.is_top itv then acc else (id, itv) :: acc)
      t.def_block []
    |> List.rev

  let const_int t id =
    match Module_ir.find_constant t.m id with
    | Some _ -> (
        match Module_ir.const_value t.m id with
        | Value.VInt n -> Some (Int32.to_int n)
        | Value.VBool _ | Value.VFloat _ | Value.VComposite _ -> None
        | exception _ -> None)
    | None -> None

  (* does [var] advance by exactly +k (k >= 1) on every back-edge
     traversal?  Two shapes: a header φ whose latch operand is var + k, and
     a header load of a tracked cell whose single in-loop store is the
     latch increment  store p ((load p) + k). *)
  let induction_step t (l : Loops.loop) ~header ~latch var =
    let pos_const a b =
      (* a + b where one side is var-ish and the other a positive constant *)
      match const_int t b with Some k when k >= 1 -> Some (a, k) | _ -> None
    in
    match (Id.Map.find_opt var t.def_instr, Id.Map.find_opt var t.def_block) with
    | Some { Instr.op = Instr.Phi incoming; _ }, Some db when Id.equal db header
      -> (
        match List.find_opt (fun (_, p) -> Id.equal p latch) incoming with
        | Some (v_latch, _) -> (
            match chase_copies t.def_instr v_latch with
            | Some { Instr.op = Instr.Binop (Instr.IAdd, a, b); _ } -> (
                let step x k = if Id.equal x var then Some k else None in
                match pos_const a b with
                | Some (x, k) -> step x k
                | None -> (
                    match pos_const b a with
                    | Some (x, k) -> step x k
                    | None -> None))
            | _ -> None)
        | None -> None)
    | Some { Instr.op = Instr.Load p; _ }, Some db
      when Id.equal db header && Id.Set.mem p t.tracked -> (
        let in_loop_stores =
          List.concat_map
            (fun (b : Block.t) ->
              if Id.Set.mem b.Block.label l.Loops.blocks then
                List.filter_map
                  (fun (ins : Instr.t) ->
                    match ins.Instr.op with
                    | Instr.Store (p', v) when Id.equal p' p ->
                        Some (b.Block.label, v)
                    | _ -> None)
                  b.Block.instrs
              else [])
            t.f.Func.blocks
        in
        match in_loop_stores with
        | [ (sb, v) ] when Id.equal sb latch -> (
            let in_loop_load la =
              match
                (Id.Map.find_opt la t.def_instr, Id.Map.find_opt la t.def_block)
              with
              | Some { Instr.op = Instr.Load p'; _ }, Some lb ->
                  Id.equal p' p && Id.Set.mem lb l.Loops.blocks
              | _ -> false
            in
            match chase_copies t.def_instr v with
            | Some { Instr.op = Instr.Binop (Instr.IAdd, a, b); _ } -> (
                match pos_const a b with
                | Some (x, k) when in_loop_load x -> Some k
                | _ -> (
                    match pos_const b a with
                    | Some (x, k) when in_loop_load x -> Some k
                    | _ -> None))
            | _ -> None)
        | _ -> None)
    | _ -> None

  (* A sound upper bound on the number of back-edge traversals for a counted
     loop: the header branch must be an ascending comparison  var < bound
     (or <=) against operands whose header intervals pin  lo(var)  and
     hi(bound); the bound need not be loop-invariant — its header interval
     already covers every iteration. *)
  let trip_bound t ~header =
    match Loops.header_of t.loops header with
    | None -> None
    | Some l -> (
        match l.Loops.latches with
        | [ latch ] -> (
            match Cfg.block_index t.cfg header with
            | None -> None
            | Some hp -> (
                match t.sol.block_out.(hp) with
                | None -> None
                | Some henv -> (
                    match t.cfg.Cfg.blocks.(hp).Block.terminator with
                    | Block.BranchConditional (c, tt, ff) -> (
                        let t_in = Id.Set.mem tt l.Loops.blocks
                        and f_in = Id.Set.mem ff l.Loops.blocks in
                        match (t_in, f_in) with
                        | true, false | false, true -> (
                            match chase_copies t.def_instr c with
                            | Some { Instr.op = Instr.Binop (op, x, y); _ } -> (
                                let op =
                                  if t_in then Some op else negate_cmp op
                                in
                                let norm =
                                  match op with
                                  | Some Instr.SLessThan -> Some (x, y, true)
                                  | Some Instr.SLessThanEqual ->
                                      Some (x, y, false)
                                  | Some Instr.SGreaterThan -> Some (y, x, true)
                                  | Some Instr.SGreaterThanEqual ->
                                      Some (y, x, false)
                                  | Some _ | None -> None
                                in
                                match norm with
                                | None -> None
                                | Some (var, bound, strict) -> (
                                    match
                                      induction_step t l ~header ~latch var
                                    with
                                    | None -> None
                                    | Some k ->
                                        let iv = lookup t.m henv var in
                                        let ib = lookup t.m henv bound in
                                        if
                                          iv.Itv.lo = min_int
                                          || ib.Itv.hi = max_int
                                        then None
                                        else
                                          let span = ib.Itv.hi - iv.Itv.lo in
                                          let trips =
                                            if strict then
                                              if span <= 0 then 0
                                              else (span + k - 1) / k
                                            else if span < 0 then 0
                                            else (span / k) + 1
                                          in
                                          Some trips))
                            | _ -> None)
                        | _ -> None)
                    | Block.Branch _ | Block.Return | Block.ReturnValue _
                    | Block.Kill | Block.Unreachable ->
                        None)))
        | _ -> None)

  let tracked t = t.tracked
  let forest t = t.loops
end

(* ------------------------------------------------------------------ *)
(* Store-only locals                                                   *)

(* Function-local variables whose every use is as a store destination (or
   that are never used at all): their stores can never be observed.  Shared
   by the optimizer's dead-store elimination and the lint suite. *)
let write_only_locals (f : Func.t) =
  let locals =
    List.fold_left
      (fun s (i : Instr.t) ->
        match (i.Instr.result, i.Instr.op) with
        | Some r, Instr.Variable Ty.Function -> Id.Set.add r s
        | _ -> s)
      Id.Set.empty (Func.all_instrs f)
  in
  let used = ref Id.Set.empty in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Store (_, v) -> used := Id.Set.add v !used
          | _ ->
              List.iter (fun u -> used := Id.Set.add u !used) (Instr.used_ids i))
        b.Block.instrs;
      List.iter
        (fun u -> used := Id.Set.add u !used)
        (Block.terminator_used_ids b.Block.terminator))
    f.Func.blocks;
  Id.Set.filter (fun v -> not (Id.Set.mem v !used)) locals
