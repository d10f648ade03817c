(* Memory / alias analysis: access-path resolution over
   Load/Store/AccessChain, in-bounds and alias proofs from Ranges
   intervals, and a reaching-stores dataflow per function.  See the
   interface for the fact catalogue; the soundness argument throughout is
   that a base is one interpreter cell, indices clamp at runtime, and
   every interval we consume is a sound over-approximation of the index
   value, so clamped-disjoint intervals really are disjoint cells. *)

module Itv = Dataflow.Itv

type base = Global of Id.t | Local of Id.t

let base_id = function Global g -> g | Local v -> v

let base_equal a b =
  match (a, b) with
  | Global x, Global y | Local x, Local y -> Id.equal x y
  | Global _, Local _ | Local _, Global _ -> false

let base_to_string = function
  | Global g -> "global " ^ Id.to_string g
  | Local v -> "local " ^ Id.to_string v

type seg = { seg_itv : Itv.t; seg_len : int }
type path = { base : base; segs : seg list; pointee : Id.t }

let seg_to_string s =
  match Itv.singleton s.seg_itv with
  | Some i -> Printf.sprintf "[%d]" i
  | None -> Printf.sprintf "[%s/%d]" (Itv.to_string s.seg_itv) s.seg_len

let path_to_string p =
  base_to_string p.base ^ String.concat "" (List.map seg_to_string p.segs)

type kind = ALoad | AStore

type access = {
  ord : int;
  a_kind : kind;
  a_block : Id.t;
  a_index : int;
  a_ptr : Id.t;
  a_path : path option;
  in_bounds : bool;
}

(* Def tokens of the reaching-stores dataflow: store ordinals, plus the
   initial-value token and the opaque-call token. *)
let init_def = -1
let extern_def = -2

module Cell = struct
  type t = Id.t * int

  let compare (a, i) (b, j) =
    match Id.compare a b with 0 -> compare i j | c -> c
end

module CM = Map.Make (Cell)
module IS = Set.Make (Int)

type t = {
  m : Module_ir.t;
  f : Func.t;
  cfg : Cfg.t;
  ranges : Dataflow.Ranges.t;
  defs : (Id.t, Id.t * Instr.t) Hashtbl.t;  (* result id -> (block, instr) *)
  paths : (Id.t, path option) Hashtbl.t;
  escaped : (Id.t, unit) Hashtbl.t;  (* base ids *)
  accs : access array;
  acc_at : (Id.t * int, access) Hashtbl.t;  (* (block, index) -> access *)
  ncells : (Id.t, int) Hashtbl.t;  (* base id -> cell count (1 = whole) *)
  cells : Cell.t list;
  reach_in : IS.t CM.t array;  (* per Cfg position: entry state *)
}

(* ---- access-path resolution ---------------------------------------- *)

let pointee_of m ty_id =
  match Module_ir.find_type m ty_id with
  | Some (Ty.Pointer (_, p)) -> Some p
  | _ -> None

(* Immediate component count and the component type id at [idx]. *)
let level_of m ty_id =
  match Module_ir.find_type m ty_id with
  | Some (Ty.Vector (e, n)) | Some (Ty.Array (e, n)) ->
      Some (n, fun _ -> Some e)
  | Some (Ty.Matrix (c, n)) -> Some (n, fun _ -> Some c)
  | Some (Ty.Struct ms) ->
      Some (List.length ms, fun i -> List.nth_opt ms i)
  | _ -> None

let const_int m id =
  match Module_ir.find_constant m id with
  | None -> None
  | Some _ -> (
      match Module_ir.const_value m id with
      | Value.VInt i -> Some (Int32.to_int i)
      | _ -> None)

let index_interval_raw t ~block id =
  match const_int t.m id with
  | Some i -> Itv.point i
  | None ->
      let at =
        try Dataflow.Ranges.interval_at t.ranges ~block id
        with _ -> Itv.top
      in
      let anywhere =
        try Dataflow.Ranges.interval_of t.ranges id with _ -> Itv.top
      in
      let met = Itv.meet at anywhere in
      (* an empty meet can only come from an unreachable refinement;
         fall back to the defining-site binding, which is total *)
      if Itv.is_empty met then anywhere else met

let rec resolve t id =
  match Hashtbl.find_opt t.paths id with
  | Some r -> r
  | None ->
      (* cycle guard; pointer φ-cycles resolve to None anyway *)
      Hashtbl.replace t.paths id None;
      let r = resolve_fresh t id in
      Hashtbl.replace t.paths id r;
      r

and resolve_fresh t id =
  match Module_ir.find_global t.m id with
  | Some g -> (
      match pointee_of t.m g.Module_ir.gd_ty with
      | Some p -> Some { base = Global id; segs = []; pointee = p }
      | None -> None)
  | None -> (
      match Hashtbl.find_opt t.defs id with
      | None -> None (* parameter or foreign id *)
      | Some (blk, instr) -> (
          match instr.Instr.op with
          | Instr.Variable _ -> (
              match instr.Instr.ty with
              | Some pt -> (
                  match pointee_of t.m pt with
                  | Some p -> Some { base = Local id; segs = []; pointee = p }
                  | None -> None)
              | None -> None)
          | Instr.CopyObject x -> resolve t x
          | Instr.AccessChain (b, idxs) -> (
              match resolve t b with
              | None -> None
              | Some parent -> extend t parent blk idxs)
          | _ -> None))

and extend t parent blk idxs =
  let rec go cur_ty segs = function
    | [] ->
        Some { parent with segs = parent.segs @ List.rev segs; pointee = cur_ty }
    | idx :: rest -> (
        match level_of t.m cur_ty with
        | None -> None
        | Some (len, comp) -> (
            let pick i =
              match comp i with
              | None -> None
              | Some ty ->
                  go ty ({ seg_itv = index_interval_raw t ~block:blk idx; seg_len = len } :: segs) rest
            in
            match Module_ir.find_type t.m cur_ty with
            | Some (Ty.Struct _) -> (
                (* the validator requires literal struct indices *)
                match const_int t.m idx with
                | Some i when i >= 0 && i < len -> pick i
                | _ -> None)
            | _ -> pick 0))
  in
  go parent.pointee [] idxs

let in_bounds_path p =
  List.for_all
    (fun s -> s.seg_itv.Itv.lo >= 0 && s.seg_itv.Itv.hi <= s.seg_len - 1)
    p.segs

(* ---- cells and transfer -------------------------------------------- *)

(* Bases are modelled per top-level component when the pointee is a small
   composite, and as a single "whole" cell otherwise; deep paths write
   their component only partially, so only depth-1 singleton paths (and
   whole-variable stores) kill. *)
let cell_cap = 32

let cells_of_base t b =
  match Hashtbl.find_opt t.ncells b with Some n -> n | None -> 1

let clamp_to n v = max 0 (min (n - 1) v)

(* (covered cell indices, strong) *)
let footprint t p =
  let b = base_id p.base in
  let n = cells_of_base t b in
  match p.segs with
  | [] -> (List.init n (fun i -> i), true)
  | s :: deeper ->
      if n = 1 then ([ 0 ], false)
      else
        let lo = clamp_to n s.seg_itv.Itv.lo
        and hi = clamp_to n s.seg_itv.Itv.hi in
        (List.init (hi - lo + 1) (fun k -> lo + k), lo = hi && deeper = [])

let add_def state cell d =
  let cur = match CM.find_opt cell state with Some s -> s | None -> IS.empty in
  CM.add cell (IS.add d cur) state

let apply_store t state acc =
  match acc.a_path with
  | None ->
      (* a store through an unresolvable pointer may write anything *)
      List.fold_left (fun st c -> add_def st c acc.ord) state t.cells
  | Some p ->
      let b = base_id p.base in
      let covered, strong = footprint t p in
      List.fold_left
        (fun st c ->
          if strong then CM.add (b, c) (IS.singleton acc.ord) st
          else add_def st (b, c) acc.ord)
        state covered

let apply_call t state =
  (* a callee may write any global and any escaped local *)
  List.fold_left
    (fun st ((b, _) as cell) ->
      let opaque =
        Hashtbl.mem t.escaped b || Module_ir.find_global t.m b <> None
      in
      if opaque then add_def st cell extern_def else st)
    state t.cells

let transfer_instr t blk state idx (i : Instr.t) =
  match i.Instr.op with
  | Instr.Store _ -> (
      match Hashtbl.find_opt t.acc_at (blk, idx) with
      | Some acc -> apply_store t state acc
      | None -> state)
  | Instr.FunctionCall _ -> apply_call t state
  | _ -> state

(* ---- construction -------------------------------------------------- *)

(* the pointee type id of a base: its declared pointer type's target *)
let base_pointee t b =
  match Module_ir.find_global t.m b with
  | Some g -> (
      match pointee_of t.m g.Module_ir.gd_ty with Some p -> p | None -> b)
  | None -> (
      match Hashtbl.find_opt t.defs b with
      | Some (_, i) -> (
          match i.Instr.ty with
          | Some pt -> (
              match pointee_of t.m pt with Some p -> p | None -> b)
          | None -> b)
      | None -> b)

let analyze m f ~avail =
  let cfg = Dataflow.Availability.cfg avail in
  let loops = Loops.analyze cfg (Dataflow.Availability.dominance avail) in
  let ranges = Dataflow.Ranges.compute m f ~cfg ~loops in
  let defs = Hashtbl.create 64 in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          match i.Instr.result with
          | Some r -> Hashtbl.replace defs r (b.Block.label, i)
          | None -> ())
        b.Block.instrs)
    f.Func.blocks;
  let t =
    {
      m;
      f;
      cfg;
      ranges;
      defs;
      paths = Hashtbl.create 64;
      escaped = Hashtbl.create 8;
      accs = [||];
      acc_at = Hashtbl.create 64;
      ncells = Hashtbl.create 8;
      cells = [];
      reach_in = [||];
    }
  in
  (* escapes: any pointer reaching a non-memory operand position *)
  let mark id =
    match resolve t id with
    | Some p -> Hashtbl.replace t.escaped (base_id p.base) ()
    | None -> ()
  in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Store (_, v) -> mark v
          | Instr.FunctionCall (_, args) -> List.iter mark args
          | Instr.Select (_, x, y) ->
              mark x;
              mark y
          | Instr.Phi incoming -> List.iter (fun (v, _) -> mark v) incoming
          | Instr.CompositeConstruct xs -> List.iter mark xs
          | Instr.CompositeInsert (o, c, _) ->
              mark o;
              mark c
          | _ -> ())
        b.Block.instrs;
      match b.Block.terminator with
      | Block.ReturnValue v -> mark v
      | _ -> ())
    f.Func.blocks;
  (* accesses, reachable blocks only (dead blocks are the dead-block
     lint's business and have no Ranges environments) *)
  let accs = ref [] in
  let n = ref 0 in
  List.iter
    (fun (b : Block.t) ->
      if Cfg.is_reachable cfg b.Block.label then
        List.iteri
          (fun idx (i : Instr.t) ->
            let mk kind ptr =
              let p = resolve t ptr in
              let acc =
                {
                  ord = !n;
                  a_kind = kind;
                  a_block = b.Block.label;
                  a_index = idx;
                  a_ptr = ptr;
                  a_path = p;
                  in_bounds =
                    (match p with Some p -> in_bounds_path p | None -> false);
                }
              in
              incr n;
              accs := acc :: !accs;
              Hashtbl.replace t.acc_at (b.Block.label, idx) acc
            in
            match i.Instr.op with
            | Instr.Load ptr -> mk ALoad ptr
            | Instr.Store (ptr, _) -> mk AStore ptr
            | _ -> ())
          b.Block.instrs)
    f.Func.blocks;
  let t = { t with accs = Array.of_list (List.rev !accs) } in
  (* cell universe: every base any access resolves to *)
  Array.iter
    (fun a ->
      match a.a_path with
      | Some p ->
          let b = base_id p.base in
          if not (Hashtbl.mem t.ncells b) then
            let n =
              match level_of t.m (base_pointee t b) with
              | Some (k, _) when k >= 1 && k <= cell_cap -> k
              | _ -> 1
            in
            Hashtbl.replace t.ncells b n
      | None -> ())
    t.accs;
  let cells =
    Hashtbl.fold
      (fun b n acc -> List.init n (fun i -> (b, i)) @ acc)
      t.ncells []
  in
  let t = { t with cells } in
  (* reaching-stores dataflow *)
  let lattice =
    {
      Dataflow.bottom = CM.empty;
      equal = CM.equal IS.equal;
      join = CM.union (fun _ a b -> Some (IS.union a b));
    }
  in
  let boundary =
    List.fold_left
      (fun st c -> CM.add c (IS.singleton init_def) st)
      CM.empty cells
  in
  let transfer pos state =
    let b = cfg.Cfg.blocks.(pos) in
    let state = ref state in
    List.iteri
      (fun idx i -> state := transfer_instr t b.Block.label !state idx i)
      b.Block.instrs;
    !state
  in
  let sol = Dataflow.solve cfg Dataflow.Forward lattice ~boundary ~transfer in
  { t with reach_in = sol.Dataflow.block_in }

let accesses t = Array.to_list t.accs
let path_of t id = resolve t id

let chain_segs t id =
  match Hashtbl.find_opt t.defs id with
  | Some (_, { Instr.op = Instr.AccessChain (b, idxs); _ }) -> (
      match (resolve t id, resolve t b) with
      | Some whole, Some parent ->
          let skip = List.length parent.segs in
          let own =
            List.filteri (fun i _ -> i >= skip) whole.segs
          in
          if List.length own = List.length idxs then Some own else None
      | _ -> None)
  | _ -> None

let escapes t b = Hashtbl.mem t.escaped (base_id b)

(* ---- aliasing ------------------------------------------------------ *)

type verdict = Must_alias | May_alias | No_alias

let verdict_to_string = function
  | Must_alias -> "must-alias"
  | May_alias -> "may-alias"
  | No_alias -> "no-alias"

let alias _t a b =
  match (a.a_path, b.a_path) with
  | Some pa, Some pb ->
      if not (base_equal pa.base pb.base) then
        (* distinct allocations are distinct interpreter cells, escaped
           or not *)
        No_alias
      else
        let rec go sa sb must =
          match (sa, sb) with
          | [], [] -> if must then Must_alias else May_alias
          | [], _ :: _ | _ :: _, [] ->
              (* a whole composite vs one of its components: overlapping
                 but never the same cell *)
              May_alias
          | x :: ra, y :: rb ->
              let len = x.seg_len in
              let cl (i : Itv.t) =
                { Itv.lo = clamp_to len i.Itv.lo; hi = clamp_to len i.Itv.hi }
              in
              let ia = cl x.seg_itv and ib = cl y.seg_itv in
              if Itv.is_empty (Itv.meet ia ib) then No_alias
              else
                go ra rb
                  (must && Itv.equal ia ib && Itv.singleton ia <> None)
        in
        go pa.segs pb.segs true
  | _ -> May_alias

(* ---- reaching stores ----------------------------------------------- *)

let state_before t acc =
  match Cfg.block_index t.cfg acc.a_block with
  | None -> CM.empty
  | Some pos ->
      let b = t.cfg.Cfg.blocks.(pos) in
      let state = ref t.reach_in.(pos) in
      List.iteri
        (fun idx i ->
          if idx < acc.a_index then
            state := transfer_instr t b.Block.label !state idx i)
        b.Block.instrs;
      !state

let reaching_stores t acc =
  let state = state_before t acc in
  let union_cells cells =
    List.fold_left
      (fun s c ->
        match CM.find_opt c state with
        | Some d -> IS.union d s
        | None -> s)
      IS.empty cells
  in
  let defs =
    match acc.a_path with
    | None -> union_cells t.cells
    | Some p ->
        let b = base_id p.base in
        let covered, _ = footprint t p in
        union_cells (List.map (fun c -> (b, c)) covered)
  in
  IS.elements defs

let uninitialized_loads t =
  Array.to_list t.accs
  |> List.filter (fun a ->
         a.a_kind = ALoad
         &&
         match a.a_path with
         | Some { base = Local v; _ } ->
             (not (Hashtbl.mem t.escaped v))
             && List.mem init_def (reaching_stores t a)
         | _ -> false)

(* ---- dead stores / redundant loads --------------------------------- *)

(* transitive "strictly after" block reachability: [reaches i j] iff some
   path of >= 1 edge leads from block position i to j *)
let block_reaches t =
  let n = Array.length t.cfg.Cfg.blocks in
  let reach = Array.init n (fun _ -> Array.make n false) in
  for i = 0 to n - 1 do
    let seen = Array.make n false in
    let rec dfs j =
      List.iter
        (fun s ->
          if not seen.(s) then (
            seen.(s) <- true;
            reach.(i).(s) <- true;
            dfs s))
        t.cfg.Cfg.succs.(j)
    in
    dfs i
  done;
  reach

let observers t store =
  match store.a_path with
  | None -> Array.to_list t.accs |> List.filter (fun a -> a.a_kind = ALoad)
  | Some p ->
      let reach = block_reaches t in
      let spos =
        match Cfg.block_index t.cfg store.a_block with
        | Some i -> i
        | None -> 0
      in
      let b = base_id p.base in
      Array.to_list t.accs
      |> List.filter (fun a ->
             a.a_kind = ALoad
             && (match a.a_path with
                | Some lp -> Id.equal (base_id lp.base) b
                | None -> false)
             && alias t store a <> No_alias
             &&
             let lpos =
               match Cfg.block_index t.cfg a.a_block with
               | Some i -> i
               | None -> 0
             in
             if Id.equal a.a_block store.a_block then
               a.a_index > store.a_index || reach.(spos).(spos)
             else reach.(spos).(lpos))

let store_unobservable t store =
  match store.a_path with
  | None -> false
  | Some { base = Global _; _ } -> false
  | Some { base = Local v; _ } ->
      (not (Hashtbl.mem t.escaped v)) && observers t store = []

let dead_stores t =
  let has_load b =
    Array.exists
      (fun a ->
        a.a_kind = ALoad
        &&
        match a.a_path with
        | Some p -> Id.equal (base_id p.base) b
        | None -> false)
      t.accs
  in
  Array.to_list t.accs
  |> List.filter (fun a ->
         a.a_kind = AStore
         && store_unobservable t a
         &&
         match a.a_path with
         | Some { base = Local v; _ } -> has_load v
         | _ -> false)

let redundant_loads t =
  let out = ref [] in
  List.iter
    (fun (b : Block.t) ->
      if Cfg.is_reachable t.cfg b.Block.label then begin
        let avail = ref [] in
        List.iteri
          (fun idx (i : Instr.t) ->
            match i.Instr.op with
            | Instr.Load _ -> (
                match Hashtbl.find_opt t.acc_at (b.Block.label, idx) with
                | None -> ()
                | Some acc -> (
                    match acc.a_path with
                    | Some p when p.segs <> [] ->
                        (match
                           List.find_opt
                             (fun prev -> alias t prev acc = Must_alias)
                             !avail
                         with
                        | Some prev -> out := (prev, acc) :: !out
                        | None -> ());
                        avail := acc :: !avail
                    | _ -> ()))
            | Instr.Store _ -> (
                match Hashtbl.find_opt t.acc_at (b.Block.label, idx) with
                | None -> avail := []
                | Some st -> (
                    match st.a_path with
                    | None -> avail := []
                    | Some _ ->
                        avail :=
                          List.filter
                            (fun l -> alias t l st = No_alias)
                            !avail))
            | Instr.FunctionCall _ -> avail := []
            | _ -> ())
          b.Block.instrs
      end)
    t.f.Func.blocks;
  List.rev !out

let observable_store t ~block ~index =
  match Hashtbl.find_opt t.acc_at (block, index) with
  | Some ({ a_kind = AStore; _ } as acc) -> not (store_unobservable t acc)
  | _ -> true

(* ---- reporting ----------------------------------------------------- *)

type stats = {
  n_loads : int;
  n_stores : int;
  n_resolved : int;
  n_in_bounds : int;
  n_pairs : int;
  n_no_alias : int;
  n_may_alias : int;
  n_must_alias : int;
  n_uninitialized : int;
  n_dead_stores : int;
  n_redundant_loads : int;
}

let stats t =
  let accs = Array.to_list t.accs in
  let count p = List.length (List.filter p accs) in
  let no_alias = ref 0 and may = ref 0 and must = ref 0 and pairs = ref 0 in
  let n = Array.length t.accs in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      incr pairs;
      match alias t t.accs.(i) t.accs.(j) with
      | No_alias -> incr no_alias
      | May_alias -> incr may
      | Must_alias -> incr must
    done
  done;
  {
    n_loads = count (fun a -> a.a_kind = ALoad);
    n_stores = count (fun a -> a.a_kind = AStore);
    n_resolved = count (fun a -> a.a_path <> None);
    n_in_bounds = count (fun a -> a.in_bounds);
    n_pairs = !pairs;
    n_no_alias = !no_alias;
    n_may_alias = !may;
    n_must_alias = !must;
    n_uninitialized = List.length (uninitialized_loads t);
    n_dead_stores = List.length (dead_stores t);
    n_redundant_loads = List.length (redundant_loads t);
  }

let access_to_string _t acc =
  Printf.sprintf "%s %s @%s#%d: %s%s"
    (match acc.a_kind with ALoad -> "load" | AStore -> "store")
    (Id.to_string acc.a_ptr)
    (Id.to_string acc.a_block)
    acc.a_index
    (match acc.a_path with
    | Some p -> path_to_string p
    | None -> "<unresolved>")
    (if acc.in_bounds then " (in-bounds)"
     else
       match acc.a_path with
       | Some p when p.segs <> [] -> " (bounds unproven)"
       | _ -> "")
