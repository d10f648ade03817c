(** Experiment drivers for every table and figure of the paper's evaluation
    (section 4), at a configurable scale.

    The paper ran 10,000 seeds per tool configuration; the default scale is
    laptop-sized but preserves every comparison: seeds split into disjoint
    groups for the Mann-Whitney U analysis (Table 3), per-target signature
    sets (Figure 7), reduction-quality medians (RQ2) and the deduplication
    study (Table 4).  Everything is deterministic in the seeds. *)

open Spirv_ir

type scale = {
  seeds : int;   (** tests per tool configuration (paper: 10,000) *)
  groups : int;  (** disjoint groups for MWU (paper: 10) *)
  max_reductions_per_signature : int;  (** cap (paper: 100 / 20) *)
}

val default_scale : scale

(** {1 Campaigns} *)

type hit = {
  hit_tool : Pipeline.tool;
  hit_seed : int;
  hit_ref : string;
  hit_target : string;
  hit_detection : Pipeline.detection;
}

val references_for :
  Pipeline.tool -> (string * Glsl_like.Ast.program * Module_ir.t) list
(** The references a tool fuzzes: glsl-fuzz sees the source programs; the
    spirv tools additionally get [-O]-optimized copies, as in the paper. *)

val run_campaign :
  ?scale:scale ->
  ?targets:Compilers.Target.t list ->
  ?domains:int ->
  ?pool:Pool.t ->
  engine:Engine.t ->
  ?check_contracts:bool ->
  ?tv:bool ->
  ?weights:(Spirv_fuzz.Registry.family * int) list ->
  ?skip:(int -> hit list option) ->
  ?stop:(unit -> bool) ->
  ?on_seed:(int -> hit list -> unit) ->
  Pipeline.tool ->
  hit list
(** For each seed, generate one variant from a round-robin reference and
    test it against every target (with the optimize-and-retry step).  Every
    execution flows through the caller's engine, so its memo tables and
    stage clocks serve and report the whole campaign.
    Parallelism goes through {!Pool}, one task per seed: [?pool] reuses a
    caller-owned pool (so one pool serves campaign and reduction);
    otherwise [?domains] (default 1) sizes a temporary pool, clamped to
    the seed count so more domains than seeds never spawn idle workers.
    All workers share the engine; hits are merged in seed order, so the
    hit list is guaranteed identical to the sequential one at any worker
    count.  [?check_contracts]
    (default false) runs the {!Spirv_fuzz.Contract} checker after every
    applied transformation — hits are unchanged (the checker consumes no
    randomness); a contract breach raises {!Spirv_fuzz.Contract.Violation}.
    Generation is then billed to the engine stage
    ["generate+contract-check"] instead of ["generate"].  [?tv] (default
    false) runs the translation validator as a second oracle on every
    variant (see {!Pipeline.run_variant}), refining miscompilation
    signatures to per-pass buckets and detecting optimizer miscompilations
    on targets that cannot render.

    [?weights] (default [[]]) rescales the fuzzer's per-family sampling
    weights ({!Spirv_fuzz.Registry.parse_weights} parses the CLI syntax);
    the default keeps the historical uniform draw bit for bit.  Per-type
    proposed/applied tallies from every generated variant are rolled into
    the engine's named counters (["proposed/<TypeId>"],
    ["applied/<TypeId>"]), surfaced by {!Engine.stats}.

    [?skip] and [?on_seed] are the campaign-journal hooks (see {!Persist}):
    a seed with recorded hits is spliced in without re-execution, and every
    freshly computed seed is reported (from its worker domain — the hook
    must be thread-safe).  The returned list is always in canonical
    (seed-ascending) order, whatever mix of recorded and fresh seeds
    produced it.

    [?stop] (default [fun () -> false]) is the cancellation hook the
    campaign service and the batch CLI's SIGINT handler plug in: it is
    polled (possibly from worker domains) before each fresh seed, and a
    seed observed after it returns [true] is neither executed nor reported
    to [on_seed] — it contributes nothing to the returned list.  A stopped
    campaign therefore returns a {e partial} hit list; callers that
    journal through {!Persist} get an exact [completed] flag and can
    resume later, bit-identical to an uninterrupted run. *)

val tools : Pipeline.tool array
(** The three configurations, in Table 3 column order. *)

(** {1 Table 3} *)

type table3_row = {
  t3_target : string;
  t3_total : int array;     (** per tool: distinct signatures over all seeds *)
  t3_median : float array;  (** per tool: median distinct signatures per group *)
  t3_vs_simple : string;    (** MWU verdict: beats spirv-fuzz-simple? *)
  t3_vs_glsl : string;
}

type table3 = { rows : table3_row list; all_row : table3_row }

val table3 : ?scale:scale -> hits:hit list array -> unit -> table3

(** {1 Figure 7} *)

val figure7 : hits:hit list array -> unit -> (string * Venn.t) list * Venn.t
(** Per-target Venn partitions plus the all-targets panel (signatures
    qualified by target). *)

(** {1 RQ2: reduction quality} *)

type reduction_outcome = {
  red_tool : Pipeline.tool;
  red_target : string;
  red_signature : string;
  red_delta : int;    (** |instructions(reduced) - instructions(original)| *)
  red_kept : int;     (** surviving transformations / markers *)
  red_initial : int;
  red_queries : int;
      (** interestingness queries the reduction made (ddmin plus the
          AddFunction shrinking for spirv-fuzz; the marker reducer for
          glsl-fuzz) — the paper's per-tool reduction cost, as a count *)
}

val reduce_hit : Engine.t -> hit -> reduction_outcome option
(** Regenerate the hit's variant deterministically and reduce it against its
    target; [None] when its target or reference is unknown (a hit decoded
    from a journal written against a different corpus) or the detection
    does not reproduce (does not happen for campaign hits).  The engine's content-addressed cache absorbs the
    repeated prefix replays of the ddmin interestingness queries. *)

val cap_hits : per_signature:int -> hit list -> hit list
(** Keep at most N hits per (target, signature), preserving order — the
    paper's reduction caps. *)

val reduce_hits :
  ?pool:Pool.t -> Engine.t -> hit list -> reduction_outcome option list
(** {!reduce_hit} over a list of independent hits — with [?pool], one pool
    task per hit, all against the shared engine (ddmin's interestingness
    replays hit the same memo/CAS/TV layers from any worker).  Outcomes
    come back in hit order, so the list is identical to the sequential
    [List.map] at any worker count. *)

type rq2 = {
  rq2_spirv : reduction_outcome list;
  rq2_glsl : reduction_outcome list;
  rq2_median_spirv : float;
  rq2_median_glsl : float;
}

val rq2 :
  ?scale:scale -> engine:Engine.t -> ?pool:Pool.t -> hits:hit list array ->
  unit -> rq2

(** {1 Table 4: deduplication} *)

type dedup_test = {
  dd_bug_id : string;  (** ground-truth bug the reduced test triggers *)
  dd_types : string list;
      (** the minimized sequence's transformation type ids, in sequence
          order with duplicates preserved — the dedup signature's raw
          material (all the Figure 6 algorithm consumes) *)
  dd_module : Module_ir.t;
      (** the minimized module itself, so the bug bank can persist the
          reduced test case and later re-emit it without re-reducing *)
}

val reduced_crash_tests :
  ?scale:scale -> engine:Engine.t -> ?pool:Pool.t ->
  ?known:(target:string -> bug_id:string -> dedup_test option) ->
  hits:hit list ->
  unit -> (string * dedup_test) list
(** Reduce every capped crash hit of the dedup study (spirv-fuzz tests,
    crash bugs, NVIDIA excluded) to its minimized transformation sequence,
    tagged with its target.  With [?pool] the hits reduce concurrently,
    merged in hit order (same list as sequential).  [?known] is the
    bug-bank shortcut: a hit whose (target, bug id) it recalls reuses the
    banked reduced test verbatim instead of regenerating and re-reducing
    (thread-safe if a pool is supplied).  Hits that {!reduce_hit} would
    map to [None] are dropped.  This is the input of {!table4}
    and of the cross-campaign bug bank ([tbct dedup --bank]). *)

type table4_row = {
  t4_target : string;
  t4_tests : int;     (** reduced test cases fed to the algorithm *)
  t4_sigs : int;      (** distinct underlying bugs those tests trigger *)
  t4_reports : int;   (** test cases recommended for investigation *)
  t4_distinct : int;  (** distinct bugs covered by the recommendations *)
  t4_dups : int;
}

val table4 :
  ?scale:scale ->
  ?ignored:Tbct.Dedup.String_set.t ->
  engine:Engine.t ->
  ?pool:Pool.t ->
  ?tests:(string * dedup_test) list ->
  hits:hit list array ->
  unit ->
  table4_row list * table4_row
(** Crash bugs only, spirv-fuzz tests only, NVIDIA excluded — the paper's
    setup.  [?ignored] overrides the section 3.5 ignore list (used by the
    ablation); [?tests] supplies precomputed {!reduced_crash_tests} so a
    caller that also feeds the bug bank reduces each hit only once. *)

(** {1 Deterministic figures} *)

type figure3 = {
  fig3_original_size : int;
  fig3_variant_size : int;
  fig3_reduced_size : int;
  fig3_signature : string;
  fig3_kept : Spirv_fuzz.Transformation.t list;
  fig3_delta : string;
}

val figure3 : unit -> figure3 option
(** Hunt for the DontInline SwiftShader crash and reduce it — the Figure 3
    scenario, ending in a one-line-pair module delta. *)

type figure8 = {
  fig8a_images_differ : bool;
  fig8a_original_ascii : string;
  fig8a_variant_ascii : string;
  fig8b_images_differ : bool;
  fig8b_original_ascii : string;
  fig8b_variant_ascii : string;
}

val figure8 : unit -> figure8
(** The two miscompilation walkthroughs: PropagateInstructionUp vs the Mesa
    phi-condition bug (8a) and MoveBlockDown vs the Pixel-5 layout bug
    (8b). *)
