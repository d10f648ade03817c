(** The execution engine: every compile-and-execute of the harness flows
    through an explicit [Engine.t] instead of calling
    {!Compilers.Backend.run} directly (an alert on [Backend.run], an error
    in [lib/harness], leaves {!run} the one caller).

    The engine holds a content-addressed memo table mapping
    [(target, module digest, input digest)] to the backend's run result,
    plus the baseline cache for original-program runs (keyed by
    [(target, reference name)]), a memo of translation-validation verdicts
    and a pipeline memo for the optimizer configurations:
    [(config key, module digest)] -> optimized module or crash signature,
    plus the translation-validation blame once {!tv_blame} has run.  The
    key is {!Compilers.Target.config_key}, not the target name, so targets
    that share a pipeline and flags share every entry.  {!run} and
    {!tv_blame} read and fill it, and so does {!optimize}: the clean [-O]
    step is the [(Optimizer.standard, Passes.no_bugs)] configuration that
    AMD-LLPC, Mesa and the Pixel images run, so their runs hold its
    entries.  All stores are guarded by a mutex, so one
    engine may be shared by several OCaml 5 domains — the domain-parallel
    campaigns of {!Experiments} do exactly that.

    Two more memos hold execute-stage facts, each keyed by what it
    depends on: the verdict memo maps an optimized module's digest to
    {!Spirv_ir.Validate.check}'s verdict, whichever configuration
    produced the module, and the render memo (see {!create}) maps a
    post-miscompile module's digest and an input's digest to the render.

    The stage memo serves crash-signature probes ({!crashes_with}): per
    [(target name, module digest)] it holds the crash signature, if any,
    of the target's {!Compilers.Backend.front_end}, so a reduction probe
    whose signature only the front end can produce runs neither the
    optimizer nor validation nor the render (DESIGN.md §5).

    The in-memory tables are bounded: {!create}'s [memo_capacity] caps the
    entry count and least-recently-used entries are evicted past it
    (surfaced as [memo_evictions] in {!stats}), so a long-running service
    no longer grows without bound.

    With [?store] the engine becomes durable: misses read through to a
    {!Tbct_store.Cas} on disk, and fresh results are written through, so a
    later campaign — or the same one resumed after a crash — replays
    previously-executed variants at disk-read cost.  Corrupt store objects
    decode to [None] and are treated as misses.

    Memoization (memory or disk) is sound because {!Compilers.Backend.run}
    is a deterministic function of its arguments and the codecs are exact
    (see DESIGN.md §5 and §7): a cached result is structurally identical to
    a recomputed one, so the §3.4 interestingness tests — and therefore the
    set of transformations delta debugging keeps — cannot be affected by
    cache hits.

    The engine also keeps per-stage wall-clock accounting: {!run} and the
    staged probes of {!crashes_with} bill backend work to the
    ["execute"] stage, {!optimize} bills actual optimizer work to
    ["optimize"], and callers wrap other phases with {!timed}.  Inside
    ["execute"] four nested stages split the backend:
    ["execute/front"] (front-end triggers, clocked on stage-memo misses
    only, since a full run does not split them out), ["execute/optimize"]
    (the target optimizer on pipeline-memo misses), ["execute/validate"]
    ({!Spirv_ir.Validate.check} of its output, on verdict-memo misses)
    and ["execute/render"] (the render memo's lookup, and lowering and the
    fragment grid on a miss). *)

open Spirv_ir

type t

type stats = {
  runs_executed : int;
      (** full backend executions actually performed by {!run}; a
          staged probe of {!crashes_with} is not one *)
  cache_hits : int;
      (** in-memory hits of the run memo and of the stage memo *)
  baseline_hits : int;   (** baseline (target, reference) cache hits *)
  opt_runs : int;        (** clean [-O] requests the optimizer ran for *)
  opt_hits : int;
      (** clean [-O] requests served without running the optimizer: by
          the pipeline memo (whichever consumer filled the entry) or by an
          [opt:] object on disk *)
  store_hits : int;      (** run results served from the disk store *)
  store_writes : int;    (** objects written through to the disk store *)
  tv_checks : int;
      (** pass steps handed to translation validation; a blame served by
          the pipeline memo re-validates nothing and adds none *)
  tv_hits : int;         (** TV verdicts served without re-validating *)
  compiles : int;
      (** modules lowered by the flat execution kernel: the render memo's
          misses, each lowered and rendered *)
  compile_hits : int;
      (** renders served by the render memo without lowering or
          rendering *)
  memo_entries : int;    (** current entries across the memo tables *)
  memo_capacity : int;   (** the per-table LRU entry cap *)
  memo_evictions : int;  (** entries evicted by the LRU bound *)
  runs_saved : int;      (** [cache_hits + baseline_hits + store_hits] *)
  hit_rate : float;
      (** [runs_saved / (runs_saved + runs_executed + stage-memo misses)]:
          a stage-memo miss runs the front end without being a full run *)
  execute_wall : float;
      (** seconds spent inside the backend stages, pipeline memo lookups
          and misses included *)
  stages : (string * float) list;
      (** cumulative wall-clock per stage, sorted by stage name;
          ["execute"] is maintained by {!run} and {!crashes_with}, its
          nested ["execute/front"], ["execute/optimize"],
          ["execute/validate"] and ["execute/render"] by the computation
          that ran them, with its ["execute"] time, ["optimize"] by
          {!optimize}, others by {!timed} *)
  per_domain_runs : (int * int) list;
      (** backend executions per OCaml domain id, sorted by id — how
          evenly a {!Pool}'s workers shared the execute load; summed it
          equals [runs_executed].  A single entry means a sequential
          run. *)
  counters : (string * int) list;
      (** named tallies, sorted by name: caller-defined ones
          ({!bump_counter}, e.g. the per-transformation-type [proposed/*]
          and [applied/*] counts campaign drivers accumulate from fuzzer
          results) and the engine's own: [pipeline-runs] (target
          optimizer pipelines actually run, by {!run} or {!tv_blame}),
          [pipeline-hits] (optimizer outcomes and blames served by the
          pipeline memo), [stage-memo:front-hits] and
          [stage-memo:front-misses] ({!crashes_with}'s front-end lookups),
          [store-put-failures] (write-throughs the store refused), and [tv-abstain:*] and [mem-proofs], which,
          like [tv_checks], count only steps actually validated *)
}

val default_memo_capacity : int

val create :
  ?store:Tbct_store.Cas.t -> ?memo_capacity:int -> ?compiled:bool -> unit -> t
(** A fresh engine with empty caches and zeroed counters.  [store] makes
    run results, TV verdicts and the clean [-O] step read-through and
    write-through to the given on-disk CAS; [memo_capacity] (default
    {!default_memo_capacity}) bounds each in-memory table.

    [compiled] (default [true]) selects the execution kernel for the hot
    path: a post-miscompile module is lowered by
    {!Spirv_ir.Compile.lower} into a flat program and executed with
    {!Spirv_ir.Compile.render_batch} — observably bit-identical to the
    reference interpreter — and the render itself is memoized in an LRU
    keyed by (post-miscompile module digest, input digest), so targets
    that produce one module render it once per input ([compiles] /
    [compile_hits] in {!stats}).  The lowered program is not kept.
    Optimizer outcomes and validator verdicts come from the pipeline and
    verdict memos.  [~compiled:false] keeps every render on
    {!Spirv_ir.Interp.render}, uses none of the render, verdict or stage
    memos and keeps the pipeline memo for {!optimize} alone: {!run} takes
    [Backend.run]'s default optimizer and validator and {!tv_blame} runs
    [Optimizer.run_tv] every time.  It is the reference mode the CI
    byte-equality gates run campaigns under (the differential oracle for
    the kernel and the memos). *)

val run : t -> Compilers.Target.t -> Module_ir.t -> Input.t ->
  Compilers.Backend.run_result
(** Content-addressed [Backend.run]: memory memo, then the disk store,
    then execute-and-record (billing the ["execute"] stage).  The mutex is
    not held during execution, so concurrent misses proceed in parallel.
    An execution takes the target's optimizer output from the pipeline
    memo ([Backend.run]'s [?optimize] hook), the validator's verdict from
    the verdict memo ([?validate]) and the render from the render memo
    ([?render]).  A store write that
    fails with [Unix.Unix_error] or [Sys_error] is counted as
    [store-put-failures] and skipped: the result is still returned and
    kept in memory. *)

val crashes_with :
  t -> Compilers.Target.t -> Module_ir.t -> Input.t -> string -> bool
(** [crashes_with e t m input s] is [run e t m input = Crashed s], decided
    at {!Compilers.Backend.stage_of_signature}[ t s]: a [Front_end]
    signature by the stage memo (a hit counts as a [cache_hits]); a
    [Compile] one by the stage memo's "front end passed", then
    {!Compilers.Backend.compile} through the pipeline and verdict memos,
    so a module a run has compiled costs only its [After_opt] triggers;
    an [Execute] (["device lost (...)"]) one by {!run}.  A staged probe adds nothing to
    [runs_executed], renders nothing and writes nothing to the store.  A
    reference engine ([~compiled:false]) always takes {!run}, so the
    reference-interpreter gates compare staged probes against it. *)

val baseline : t -> Compilers.Target.t -> ref_name:string ->
  Module_ir.t -> Input.t -> Compilers.Backend.run_result
(** The original program's behaviour on a target, cached per
    [(target, reference name)].  Misses fall through to {!run}, so
    baselines also populate the content-addressed store. *)

val optimize : t -> Module_ir.t -> (Module_ir.t, string) result
(** The clean [-O] pipeline ({!Compilers.Optimizer.optimize}), read from
    and filled into the pipeline memo under the key of
    [(Optimizer.standard, Passes.no_bugs)], so an earlier {!run} on a
    target of that configuration answers it.  A memory miss reads the
    [opt:<module digest>] disk object; only a computed result writes one.
    Only actual optimizer work is billed to the ["optimize"] stage; errors
    are not cached.  The [pipeline-runs]/[pipeline-hits] counters do not
    count this step. *)

val tv_check : t -> before:Module_ir.t -> after:Module_ir.t ->
  Compilers.Tv.verdict
(** Translation validation ({!Compilers.Tv.check_pass}), memoized by the
    [(digest before, digest after)] pair: equal digests short-circuit to
    [Equivalent], then the in-memory LRU, then the disk store (if any),
    then symbolic validation billed to the ["tv"] stage and written
    through.  Sound for the same reason run memoization is: [check_pass]
    is a deterministic function of the two modules and the verdict codec
    is exact. *)

val tv_blame : t -> Compilers.Target.t -> Module_ir.t ->
  (Compilers.Optimizer.pass_name option, string) result
(** The translation-validation blame of the target's optimizer on a
    module: [Ok (Some pass)] names the first pass with a [Mismatch],
    [Ok None] means every step is [Equivalent] or [Abstained], [Error]
    carries the crash signature of a pipeline that crashed.  Memoized in
    the pipeline memo; a miss runs [Optimizer.run_tv] with {!tv_check}
    and also stores the optimized module, which a later {!run} on any
    target of the same configuration reuses.  An entry {!run} stored
    answers a crash without validation and supplies the module, but a
    blame still needs one [run_tv]. *)

val timed : t -> stage:string -> (unit -> 'a) -> 'a
(** Run a thunk and add its wall-clock time to the named stage. *)

val bump_counter : t -> string -> int -> unit
(** [bump_counter e name n] adds [n] to the named tally (creating it at 0).
    Mutex-guarded, so domains may bump concurrently. *)

val stats : t -> stats
(** A consistent snapshot of the engine's counters. *)

val pipeline_runs : stats -> int
(** The [pipeline-runs] counter: target optimizer pipelines actually run. *)

val pipeline_hits : stats -> int
(** The [pipeline-hits] counter: pipeline-memo lookups that ran nothing. *)

val reset : t -> unit
(** Clear every cache (the pipeline, verdict, render and stage memos
    included) and zero every counter and stage clock.  The disk store (if
    any) is left untouched. *)

val pp_stats : Format.formatter -> stats -> unit
(** Human-readable rendering of {!stats}. *)

val stats_to_string : stats -> string
