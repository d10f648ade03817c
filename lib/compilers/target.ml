(** The SPIR-V targets under test (Table 2).

    Each target is a compiler pipeline plus a roster of latent bugs.  The
    version relationships of the paper are reproduced: Mesa fixes some
    Mesa-Old bugs, spirv-opt fixes most spirv-opt-old bugs, and the Pixel
    images share a driver lineage. *)

type gpu_type = Discrete | Integrated | Mobile | Software | Tooling

let gpu_type_to_string = function
  | Discrete -> "Discrete"
  | Integrated -> "Integrated"
  | Mobile -> "Mobile"
  | Software -> "Software"
  | Tooling -> "N/A"

type t = {
  name : string;
  version : string;
  gpu : gpu_type;
  pipeline : Optimizer.pass_name list;
  opt_flags : Passes.flags;
  crash_bug_ids : string list;
  miscompile_bug_ids : string list;
  executes : bool;  (** false for pure tooling (spirv-opt): no rendering *)
}

let full = Optimizer.standard
let light = Optimizer.[ Const_fold; Copy_prop; Simplify_cfg; Phi_simplify; Copy_prop; Dce ]

let amd_llpc =
  {
    name = "AMD-LLPC";
    version = "git-4781635";
    gpu = Discrete;
    pipeline = full;
    opt_flags = Passes.no_bugs;
    crash_bug_ids =
      [ "many-params-4"; "deep-extract"; "phi-arity-4"; "loop-count-6"; "select-bool";
        "many-blocks-28" ];
    miscompile_bug_ids = [ "mc-extract-high" ];
    (* the paper could not render on AMD (no device): crashes only *)
    executes = false;
  }

let mesa =
  {
    name = "Mesa";
    version = "20.2.1";
    gpu = Integrated;
    pipeline = full;
    opt_flags = Passes.no_bugs;
    crash_bug_ids =
      [ "phi-arity-4"; "kill-complex-8"; "empty-chain-3"; "copy-chain-3";
        "many-blocks-28"; "loop-count-6" ];
    miscompile_bug_ids = [ "mc-phi-cond"; "mc-phi-positional" ];
    executes = true;
  }

let mesa_old =
  {
    name = "Mesa-Old";
    version = "19.1.0";
    gpu = Integrated;
    pipeline = light;
    opt_flags = Passes.no_bugs;
    crash_bug_ids =
      [ "phi-arity-3"; "kill-complex-8"; "empty-chain-3"; "copy-chain-3";
        "many-blocks-28"; "loop-count-4"; "select-bool"; "multi-output-store";
        "unreachable-block"; "donated-call" ];
    miscompile_bug_ids = [ "mc-phi-cond"; "mc-phi-positional"; "mc-uniform-cond" ];
    executes = true;
  }

let nvidia =
  {
    name = "NVIDIA";
    version = "440.100";
    gpu = Discrete;
    pipeline = light;
    opt_flags = Passes.no_bugs;
    crash_bug_ids =
      [ "phi-arity-3"; "phi-arity-4"; "kill-frontend"; "kill-complex-8";
        "many-blocks-28"; "many-blocks-40"; "many-params-4"; "copy-chain-3";
        "deep-extract"; "select-bool"; "loop-count-4";
        "loop-count-6"; "const-cond-frontend"; "empty-chain-3"; "donated-call" ];
    miscompile_bug_ids = [ "mc-block-order"; "mc-extract-high"; "mc-uniform-cond" ];
    executes = true;
  }

let pixel5 =
  {
    name = "Pixel-5";
    version = "RD1A.201105.003.C1";
    gpu = Mobile;
    pipeline = full;
    opt_flags = Passes.no_bugs;
    crash_bug_ids =
      [ "kill-frontend"; "many-blocks-40"; "uniform-cond-backend"; "many-params-4";
        "empty-chain-3" ];
    miscompile_bug_ids = [ "mc-block-order"; "mc-uniform-cond" ];
    executes = true;
  }

let pixel4 =
  {
    name = "Pixel-4";
    version = "QD1A.190821.014.C2";
    gpu = Mobile;
    pipeline = full;
    opt_flags = Passes.no_bugs;
    crash_bug_ids =
      [ "kill-frontend"; "many-blocks-40"; "uniform-cond-backend"; "copy-chain-3";
        "loop-count-6"; "phi-arity-4" ];
    miscompile_bug_ids = [ "mc-block-order"; "mc-phi-positional" ];
    executes = true;
  }

let spirv_opt =
  {
    name = "spirv-opt";
    version = "git-02195a0";
    gpu = Tooling;
    pipeline = full;
    opt_flags = { Passes.no_bugs with Passes.bug_fold_div_crash = true };
    crash_bug_ids = [ "deep-extract"; "copy-chain-3" ];
    miscompile_bug_ids = [];
    executes = false;
  }

let spirv_opt_old =
  {
    name = "spirv-opt-old";
    version = "git-2276e59";
    gpu = Tooling;
    pipeline = full;
    opt_flags =
      {
        Passes.no_bugs with
        Passes.bug_fold_div_crash = true;
        Passes.bug_keep_stale_phi_entries = true;
      };
    crash_bug_ids =
      [ "deep-extract"; "copy-chain-3"; "unreachable-block"; "phi-arity-4";
        "empty-chain-3"; "many-params-4"; "donated-call" ];
    miscompile_bug_ids = [];
    executes = false;
  }

let swiftshader =
  {
    name = "SwiftShader";
    version = "git-b5bf826";
    gpu = Software;
    pipeline = full;
    opt_flags = { Passes.no_bugs with Passes.bug_inline_swaps_const_args = true };
    crash_bug_ids =
      [ "dontinline-call"; "copy-chain-3"; "multi-output-store"; "select-bool";
        "phi-arity-4"; "many-params-4"; "kill-frontend"; "donated-call" ];
    miscompile_bug_ids = [ "mc-extract-high" ];
    executes = true;
  }

(* Every flag is named: a new flag trips warning 9 here (an error in the
   default dev profile) until it is part of the key. *)
let key_of_config ~pipeline ~flags =
  let {
    Passes.bug_fold_div_crash;
    bug_keep_stale_phi_entries;
    bug_fold_sub_zero;
    bug_inline_swaps_const_args;
    bug_hoist_loop_load;
    bug_forward_aliased_store;
  } =
    flags
  in
  let bits =
    List.map
      (fun b -> if b then "1" else "0")
      [ bug_fold_div_crash; bug_keep_stale_phi_entries; bug_fold_sub_zero;
        bug_inline_swaps_const_args; bug_hoist_loop_load;
        bug_forward_aliased_store ]
  in
  String.concat "," (List.map Optimizer.show_pass_name pipeline)
  ^ "|" ^ String.concat "" bits

let config_key t = key_of_config ~pipeline:t.pipeline ~flags:t.opt_flags

let all =
  [ amd_llpc; mesa; mesa_old; nvidia; pixel5; pixel4; spirv_opt; spirv_opt_old; swiftshader ]

let find name = List.find_opt (fun t -> String.equal t.name name) all

(** Targets used for the reduction-quality study (section 4.2): the four
    that need no GPU, where reductions can run massively in parallel. *)
let reduction_study = [ amd_llpc; spirv_opt; spirv_opt_old; swiftshader ]

(** Targets for the deduplication study (Table 4): all but NVIDIA, which the
    paper had to exclude because of machine freezes. *)
let dedup_study =
  [ amd_llpc; mesa; mesa_old; pixel5; pixel4; spirv_opt; spirv_opt_old; swiftshader ]
