(** Canonical content digests for modules and inputs — the keys of the
    execution engine's content-addressed run cache.

    Digests are computed over the exact textual disassembly (respectively
    the canonical input listing), so they are stable across
    disassemble/assemble round trips and ignore [id_bound] (see the
    fresh-id discipline in {!Module_ir}): a variant regenerated by
    replaying a recorded transformation sequence digests equally to the
    original generation even though replay may end with a smaller bound. *)

val of_module : Module_ir.t -> string
(** Hex digest of a module's canonical disassembly.  A module physically
    equal to one of the last few digested on the calling domain reuses
    that digest without disassembling again; the cache holds its modules
    weakly, so it keeps none of them alive. *)

val of_input : Input.t -> string
(** Hex digest of an input's canonical listing. *)

val of_run : Module_ir.t -> Input.t -> string
(** Combined digest of a (module, input) execution pair. *)
