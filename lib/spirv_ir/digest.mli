(** Canonical content digests for modules and inputs — the keys of the
    execution engine's content-addressed run cache.

    Both digests are exact.  A module's is computed over its textual
    disassembly, which {!Asm} inverts exactly, so it is stable across
    disassemble/assemble round trips.  The listing includes [OpIdBound],
    so [id_bound] is part of the digest: modules that differ only in
    their bound (fresh ids are allocated from it, see {!Module_ir}) never
    share a memo entry.  An input's is computed over a binary encoding
    with floats as their IEEE bits. *)

val of_module : Module_ir.t -> string
(** Hex digest of a module's canonical disassembly.  A module physically
    equal to one of the last few digested on the calling domain reuses
    that digest without disassembling again; the cache holds its modules
    weakly, so it keeps none of them alive. *)

val of_input : Input.t -> string
(** Hex digest of an input's exact binary encoding: grid size, then each
    uniform's name and {!Value.add_bin} encoding in order.  Inputs that
    differ in any float bit (the last digit, the sign or payload of a NaN)
    digest differently. *)
