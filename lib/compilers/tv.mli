(** Translation validation: prove one optimizer pass semantics-preserving
    by comparing symbolic module summaries ({!Spirv_ir.Symval}).

    The validator is an {e input-independent} second miscompilation oracle:
    where the paper's dynamic oracle renders a fragment grid and diffs
    images (missing any miscompile that only manifests off the sampled
    grid), [check_pass] compares what the two modules compute on {e every}
    input — and, run between passes ({!Optimizer.run_tv}), it names the
    guilty pass, refining the paper's single shared miscompilation
    signature into per-pass buckets.

    Abstention discipline: [Abstained] means the analysis could not decide
    (a data-dependent loop, a dynamic index, an exhausted budget) and must
    {e never} be reported as a bug.  Only [Mismatch] is a finding. *)

open Spirv_ir

type witness = {
  w_slot : string;  (** the first diverging slot: ["kill"] or ["output"] *)
  w_before : string;  (** pretty-printed symbolic value before the pass *)
  w_after : string;
}
[@@deriving show { with_path = false }, eq]

type verdict =
  | Equivalent
  | Mismatch of witness
  | Abstained of string
[@@deriving show { with_path = false }, eq]

val check_pass : Module_ir.t -> Module_ir.t -> verdict
(** [check_pass before after] summarizes both modules in one shared
    hash-consing context and compares the kill conditions, then (when the
    fragment is not provably always killed) the output values.  Any
    internal error or analysis limit yields [Abstained], never a false
    [Mismatch].  The abstention payload is prefixed with the structured
    {!Spirv_ir.Symval.reason} label (["loop-unbounded: ..."], ["budget:
    ..."], …); a divergence witnessed only under forced loop exits
    (different proven trip bounds on the two sides) is downgraded to
    [Abstained "forced-unroll: ..."]. *)

val check_pass_counted : Module_ir.t -> Module_ir.t -> verdict * int
(** [check_pass] plus the number of dynamic access-chain indices the
    evaluator folded under a {!Spirv_ir.Memory} finite-range proof while
    building the two summaries ({!Spirv_ir.Symval.mem_proofs}) — the
    engine accumulates it as the [mem-proofs] counter on fresh (unmemoized)
    validations. *)

val abstain_label : verdict -> string option
(** The structured reason label of an abstention (the payload up to the
    first [':']), [None] for the other verdicts — the bucketing key for
    {!Harness.Engine}'s [tv-abstain:<reason>] counters ([campaign --stats])
    and perfbench's [tv.abstains]. *)

val verdict_to_string : verdict -> string
(** One-line rendering: ["equivalent"], ["mismatch at <slot>: ..."] or
    ["abstained: <reason>"]. *)
