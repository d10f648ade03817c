(** Exact codecs for store artifacts.

    Round-tripping is lossless by construction: a decoded run result is
    structurally equal to the encoded one, which is what lets the engine
    substitute disk-cached results inside interestingness tests without
    affecting what ddmin keeps (DESIGN.md §7 and §14).

    Run results use a compact length-prefixed binary format behind a
    leading version byte (floats as [Int64.bits_of_float], exact on every
    NaN payload).  Modules reuse the invertible Disasm/Asm pair, whose
    exactness the digest layer already depends on. *)

open Spirv_ir

val encode_run : Compilers.Backend.run_result -> string

val decode_run : string -> Compilers.Backend.run_result option
(** [None] on a corrupt or truncated object, and on one in the retired
    text format — {!Cas.get} drops such an object, and the engine
    recomputes the run and writes it back in binary. *)

val encode_module : Module_ir.t -> string
val decode_module : string -> Module_ir.t option

val encode_verdict : Compilers.Tv.verdict -> string
val decode_verdict : string -> Compilers.Tv.verdict option
(** Translation-validation verdicts, persisted by the engine keyed on the
    (before, after) module digest pair. *)
