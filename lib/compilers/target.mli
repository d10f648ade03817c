(** The SPIR-V targets under test (Table 2 of the paper).

    Each target is an optimizer pipeline plus a roster of latent injected
    bugs.  The paper's version relationships are reproduced: Mesa fixes some
    Mesa-Old bugs, spirv-opt fixes most spirv-opt-old bugs, the Pixel images
    share a driver lineage, and AMD-LLPC and the spirv-opt tools cannot
    render (crashes only), as in the paper's experimental setup. *)

type gpu_type = Discrete | Integrated | Mobile | Software | Tooling

val gpu_type_to_string : gpu_type -> string

type t = {
  name : string;
  version : string;  (** cosmetic, mirrors Table 2 *)
  gpu : gpu_type;
  pipeline : Optimizer.pass_name list;
  opt_flags : Passes.flags;  (** enabled optimizer-hosted bugs *)
  crash_bug_ids : string list;  (** ids into {!Bug.all_crash_bugs} *)
  miscompile_bug_ids : string list;  (** ids into {!Bug.all_miscompile_bugs} *)
  executes : bool;  (** false for pure tooling: no rendering *)
}

val amd_llpc : t
val mesa : t
val mesa_old : t
val nvidia : t
val pixel5 : t
val pixel4 : t
val spirv_opt : t
val spirv_opt_old : t
val swiftshader : t

val config_key : t -> string
(** The target's optimizer configuration: its pipeline's pass names and
    its [opt_flags] bits, and nothing else.  Targets with equal keys
    optimize every module identically, whatever their names or bug
    rosters (AMD-LLPC, Mesa and the Pixel images share one). *)

val key_of_config :
  pipeline:Optimizer.pass_name list -> flags:Passes.flags -> string
(** [config_key t] is [key_of_config ~pipeline:t.pipeline ~flags:t.opt_flags];
    the harness keys the clean [-O] step by its parts. *)

val all : t list
(** The nine targets, in Table 2 order. *)

val find : string -> t option

val reduction_study : t list
(** The four GPU-free targets used for the section 4.2 reduction-quality
    study (reductions can run massively in parallel there). *)

val dedup_study : t list
(** All targets but NVIDIA (excluded in the paper because of machine
    freezes), for the Table 4 deduplication study. *)
