(** Availability and use-site analysis over one function — the
    transformation layer's façade over the shared {!Dataflow} analyses.

    Transformations use this to decide whether an id may be referenced at a
    given program point (the SSA dominance rule), and to enumerate the use
    sites eligible for id-replacing transformations. *)

(* a CFG of its own is a compile error here: use Dataflow.Availability *)
[@@@alert "@private_cfg"]

type t = {
  m : Module_ir.t;
  f : Func.t;
  av : Dataflow.Availability.t;
}

let make m (f : Func.t) = { m; f; av = Dataflow.Availability.make m f }

let cfg t = Dataflow.Availability.cfg t.av
let dominance t = Dataflow.Availability.dominance t.av

let available_at t ~block ~index id =
  Dataflow.Availability.available_at t.av ~block ~index id

let available_at_end t ~block id =
  Dataflow.Availability.available_at_end t.av ~block id

(** Ids of every value available at position [index] of [block] whose type
    id is [ty] — candidates for id-replacement transformations. *)
let available_ids_of_type t ~block ~index ~ty =
  let of_module =
    List.filter_map
      (fun (d : Module_ir.const_decl) ->
        if Id.equal d.Module_ir.cd_ty ty then Some d.Module_ir.cd_id else None)
      t.m.Module_ir.constants
    @ List.filter_map
        (fun (d : Module_ir.global_decl) ->
          if Id.equal d.Module_ir.gd_ty ty then Some d.Module_ir.gd_id else None)
        t.m.Module_ir.globals
    @ List.filter_map
        (fun (p : Func.param) ->
          if Id.equal p.Func.param_ty ty then Some p.Func.param_id else None)
        t.f.Func.params
  in
  let of_instrs =
    List.concat_map
      (fun (b : Block.t) ->
        List.filter_map
          (fun (i : Instr.t) ->
            match (i.Instr.result, i.Instr.ty) with
            | Some r, Some rt when Id.equal rt ty -> Some r
            | _ -> None)
          b.Block.instrs)
      t.f.Func.blocks
  in
  List.filter (available_at t ~block ~index) (of_module @ of_instrs)
