(** IR lint: structured diagnostics over the shared {!Dataflow} analyses.

    Lint complements {!Validate}: the validator rejects modules that break
    the IR's hard rules, while lint reports both those hard breaks (as
    [Error]s, so the transformation-contract checker can ask "did this
    transformation introduce new errors?") and soft hygiene findings
    ([Warning]s — dead code, write-only locals) that are legal but suspect
    in hand-written or freshly lowered modules.  Lint never raises on
    malformed input. *)

(* a CFG of its own is a compile error here: use Dataflow.Availability *)
[@@@alert "@private_cfg"]

type severity = Error | Warning [@@deriving show { with_path = false }, eq]

type finding = {
  rule : string;  (** stable rule id, e.g. ["undominated-use"] *)
  severity : severity;
  fn : Id.t option;     (** containing function, if any *)
  block : Id.t option;  (** containing block, if any *)
  message : string;
}
[@@deriving show { with_path = false }, eq]

let severity_to_string = function Error -> "error" | Warning -> "warning"

let to_string f =
  let loc =
    match (f.fn, f.block) with
    | Some fn, Some b ->
        Printf.sprintf " %s/%s" (Id.to_string fn) (Id.to_string b)
    | Some fn, None -> " " ^ Id.to_string fn
    | None, _ -> ""
  in
  Printf.sprintf "%s[%s]%s: %s" (severity_to_string f.severity) f.rule loc
    f.message

let errors findings = List.filter (fun f -> f.severity = Error) findings
let error_count findings = List.length (errors findings)

(* ------------------------------------------------------------------ *)
(* Per-function rules                                                  *)

let check_function m (f : Func.t) : finding list =
  let av = Dataflow.Availability.make m f in
  let cfg = Dataflow.Availability.cfg av in
  let dom = Dataflow.Availability.dominance av in
  let live = Dataflow.Liveness.compute f in
  let out = ref [] in
  let report ?block rule severity fmt =
    Printf.ksprintf
      (fun message ->
        out := { rule; severity; fn = Some f.Func.id; block; message } :: !out)
      fmt
  in
  let available ~block ~index id =
    Dataflow.Availability.available_at av ~block ~index id
  in
  (* dead-block: unreachable from the entry block *)
  List.iter
    (fun (b : Block.t) ->
      if not (Cfg.is_reachable cfg b.Block.label) then
        report ~block:b.Block.label "dead-block" Warning
          "block %s is unreachable from the entry block"
          (Id.to_string b.Block.label))
    f.Func.blocks;
  (* block-order: every block must precede the blocks it strictly
     dominates (the canonical SPIR-V layout the validator also enforces) *)
  let positions = Hashtbl.create 16 in
  List.iteri
    (fun i (b : Block.t) -> Hashtbl.replace positions b.Block.label i)
    f.Func.blocks;
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (b' : Block.t) ->
          if
            (not (Id.equal b.Block.label b'.Block.label))
            && Dominance.strictly_dominates dom b.Block.label b'.Block.label
            && Hashtbl.find positions b.Block.label
               > Hashtbl.find positions b'.Block.label
          then
            report ~block:b.Block.label "block-order" Error
              "block %s appears after block %s, which it dominates"
              (Id.to_string b.Block.label) (Id.to_string b'.Block.label))
        f.Func.blocks)
    f.Func.blocks;
  List.iter
    (fun (b : Block.t) ->
      let label = b.Block.label in
      let reachable = Cfg.is_reachable cfg label in
      let preds = Cfg.predecessors cfg label in
      (* phi-arg-mismatch: incoming entries vs. actual predecessors
         (meaningful only where reachability fixes the predecessor set) *)
      List.iter
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Phi incoming when reachable ->
              let incoming_blocks = List.map snd incoming in
              let sorted_inc = List.sort_uniq Id.compare incoming_blocks in
              let sorted_preds = List.sort_uniq Id.compare preds in
              if List.length incoming_blocks <> List.length sorted_inc then
                report ~block:label "phi-arg-mismatch" Error
                  "phi %s has duplicate predecessor entries"
                  (match i.Instr.result with
                  | Some r -> Id.to_string r
                  | None -> "<no result>");
              if sorted_inc <> sorted_preds then
                report ~block:label "phi-arg-mismatch" Error
                  "phi %s incoming blocks do not match the predecessors"
                  (match i.Instr.result with
                  | Some r -> Id.to_string r
                  | None -> "<no result>")
          | _ -> ())
        b.Block.instrs;
      (* undominated-use: every value operand must be available at its use
         site (φ values at the end of their predecessor) *)
      List.iteri
        (fun idx (i : Instr.t) ->
          let check_use u =
            if not (available ~block:label ~index:idx u) then
              report ~block:label "undominated-use" Error
                "use of %s is not dominated by its definition"
                (Id.to_string u)
          in
          match i.Instr.op with
          | Instr.Phi incoming ->
              if reachable then
                List.iter
                  (fun (v, pred) ->
                    if not (available ~block:pred ~index:max_int v) then
                      report ~block:label "undominated-use" Error
                        "phi value %s is unavailable at the end of \
                         predecessor %s"
                        (Id.to_string v) (Id.to_string pred))
                  incoming
          | Instr.FunctionCall (_, args) -> List.iter check_use args
          | _ -> List.iter check_use (Instr.used_ids i))
        b.Block.instrs;
      List.iter
        (fun u ->
          if not (available ~block:label ~index:max_int u) then
            report ~block:label "undominated-use" Error
              "terminator use of %s is not dominated by its definition"
              (Id.to_string u))
        (Block.terminator_used_ids b.Block.terminator);
      (* dead-result: a side-effect-free instruction whose result is not
         live after it (reachable blocks only: unreachable ones are already
         reported whole) *)
      if reachable then begin
        let live_after =
          List.fold_left
            (fun s u -> Id.Set.add u s)
            (Dataflow.Liveness.live_out live label)
            (Block.terminator_used_ids b.Block.terminator)
        in
        let _ =
          List.fold_left
            (fun live (i : Instr.t) ->
              (match (i.Instr.result, Instr.has_side_effect i) with
              | Some r, false when not (Id.Set.mem r live) ->
                  report ~block:label "dead-result" Warning
                    "result %s is never used" (Id.to_string r)
              | _ -> ());
              let live =
                match i.Instr.result with
                | Some r -> Id.Set.remove r live
                | None -> live
              in
              let uses =
                match i.Instr.op with
                | Instr.Phi _ -> []  (* φ uses live at predecessor ends *)
                | _ -> Instr.used_ids i
              in
              List.fold_left (fun s u -> Id.Set.add u s) live uses)
            live_after
            (List.rev b.Block.instrs)
        in
        ()
      end)
    f.Func.blocks;
  (* store-never-read: function-local variables whose stores can never be
     observed *)
  Id.Set.iter
    (fun v ->
      let block =
        Option.map fst (Dataflow.Availability.def_site av v)
      in
      report ?block "store-never-read" Warning
        "local %s is stored to but never read" (Id.to_string v))
    (Dataflow.write_only_locals f);
  (* memory rules, over the shared access-path / alias analysis *)
  let mem = Memory.analyze m f ~avail:av in
  let kind_str (a : Memory.access) =
    match a.Memory.a_kind with
    | Memory.ALoad -> "load"
    | Memory.AStore -> "store"
  in
  let path_str (a : Memory.access) =
    match a.Memory.a_path with
    | Some p -> Memory.path_to_string p
    | None -> "<unresolved>"
  in
  (* possible-out-of-bounds: a resolved chain access whose index interval
     is not provably within the composite.  An Error even though the
     runtime clamps: a clamped access aliases a cell the author never
     named, which is exactly how UB-adjacent modules masquerade as
     miscompilations. *)
  List.iter
    (fun (a : Memory.access) ->
      match a.Memory.a_path with
      | Some p when p.Memory.segs <> [] && not a.Memory.in_bounds ->
          report ~block:a.Memory.a_block "possible-out-of-bounds" Error
            "%s through %s may index out of bounds: %s" (kind_str a)
            (Id.to_string a.Memory.a_ptr)
            (Memory.path_to_string p)
      | _ -> ())
    (Memory.accesses mem);
  (* uninitialized-load: the initial-value token reaches the load *)
  List.iter
    (fun (a : Memory.access) ->
      report ~block:a.Memory.a_block "uninitialized-load" Warning
        "load %s may observe the zero-initialized default of %s"
        (Id.to_string a.Memory.a_ptr) (path_str a))
    (Memory.uninitialized_loads mem);
  (* dead-store: no may-aliasing load is reachable from the store (bases
     with no loads at all belong to store-never-read above) *)
  List.iter
    (fun (a : Memory.access) ->
      report ~block:a.Memory.a_block "dead-store" Warning
        "store through %s to %s is never observed by a load"
        (Id.to_string a.Memory.a_ptr) (path_str a))
    (Memory.dead_stores mem);
  (* redundant-load: a same-block must-aliasing reload with no intervening
     may-aliasing store or call *)
  List.iter
    (fun ((first : Memory.access), (again : Memory.access)) ->
      report ~block:again.Memory.a_block "redundant-load" Warning
        "load %s of %s reloads the value of %s in the same block"
        (Id.to_string again.Memory.a_ptr) (path_str again)
        (Id.to_string first.Memory.a_ptr))
    (Memory.redundant_loads mem);
  (* loop rules, over the natural-loop forest *)
  let forest = Loops.analyze cfg dom in
  List.iter
    (fun (u, v) ->
      report ~block:u "irreducible-cfg" Warning
        "retreating edge %s -> %s whose target does not dominate its \
         source: the region is irreducible"
        (Id.to_string u) (Id.to_string v))
    forest.Loops.irreducible;
  List.iter
    (fun (l : Loops.loop) ->
      (* infinite-loop: a natural loop with no exit edge can only spin
         (Return/Kill terminators end a block outside any cycle, so a
         body without exit edges has no way out) *)
      if l.Loops.exits = [] then
        report ~block:l.Loops.header "infinite-loop" Error
          "loop headed at %s has no exit edge"
          (Id.to_string l.Loops.header);
      (* loop-invariant-code: a pure value instruction inside the loop
         whose operands are all defined outside it recomputes the same
         value every iteration *)
      let defined_in_loop id =
        match Dataflow.Availability.def_site av id with
        | Some (bl, _) -> Id.Set.mem bl l.Loops.blocks
        | None -> false
      in
      List.iter
        (fun (b : Block.t) ->
          if Id.Set.mem b.Block.label l.Loops.blocks then
            List.iter
              (fun (i : Instr.t) ->
                match (i.Instr.result, i.Instr.op) with
                | ( Some r,
                    ( Instr.Binop _ | Instr.Unop _ | Instr.Select _
                    | Instr.CompositeConstruct _ | Instr.CompositeExtract _
                    | Instr.CompositeInsert _ ) )
                  when not (List.exists defined_in_loop (Instr.used_ids i))
                  ->
                    report ~block:b.Block.label "loop-invariant-code" Warning
                      "%s is loop-invariant in the loop headed at %s"
                      (Id.to_string r)
                      (Id.to_string l.Loops.header)
                | _ -> ())
              b.Block.instrs)
        f.Func.blocks)
    forest.Loops.loops;
  List.rev !out

let check_module (m : Module_ir.t) : finding list =
  List.concat_map (check_function m) m.Module_ir.functions
