(** Flat compiled execution kernel.

    {!lower} translates a module once into a flat executable program: ids
    resolved to dense integer register slots (no [Id.Map] lookup on the hot
    path), constants pre-materialized, blocks flattened into arrays of
    instruction records with pre-resolved φ move lists and jump targets.
    {!render_batch} then executes the whole fragment grid against one
    reused globals/locals arena.

    The kernel is observably bit-identical to the reference interpreter
    {!Interp}: same images, same traps (messages included), same trap
    ordering and step accounting.  Errors the interpreter only discovers at
    execution time (constants that fail to materialize, branches to missing
    blocks, …) are captured during lowering and re-raised at the same
    execution point, so [lower] itself never raises and accepts any
    [Module_ir.t].

    A compiled program is immutable and may be shared freely across
    domains; all mutable execution state lives in an arena private to each
    {!render_batch} / {!run_fragment} call. *)

type t
(** A lowered program.  Immutable; safe to cache and share. *)

val lower : Module_ir.t -> t
(** One-time lowering.  Never raises: invalid modules lower to programs
    that reproduce the interpreter's runtime trap (or escaping exception)
    at the same execution point. *)

val render_batch :
  ?step_limit:int -> t -> Input.t -> (Image.t, Interp.trap) result
(** Execute every fragment of the grid, reusing one arena.  Bit-identical
    to {!Interp.render} on the source module: same pixels, same first trap
    in the same fragment order (y-major), and no partial image on the
    [Error] path.  Default step limit: {!Interp.default_step_limit},
    applied per fragment. *)

val run_fragment :
  ?step_limit:int -> t -> Input.t -> frag_x:int -> frag_y:int -> Interp.outcome
(** Execute a single fragment; bit-identical to {!Interp.run_fragment}. *)

val render :
  ?step_limit:int -> Module_ir.t -> Input.t -> (Image.t, Interp.trap) result
(** [lower] + [render_batch] in one step, for one-shot callers. *)
