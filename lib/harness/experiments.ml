(** Experiment drivers for every table and figure of the paper's evaluation
    (section 4), at a configurable scale.

    The paper ran 10,000 seeds per tool configuration; the default scale
    here is laptop-sized but preserves the comparisons: the same seeds are
    split into disjoint groups for the Mann-Whitney U analysis, the same
    per-target bookkeeping feeds Table 3, Figure 7, the RQ2 reduction-
    quality medians and the Table 4 deduplication study. *)

open Spirv_ir

type scale = {
  seeds : int;        (** tests per tool configuration (paper: 10,000) *)
  groups : int;       (** disjoint groups for MWU (paper: 10) *)
  max_reductions_per_signature : int;  (** cap (paper: 100 / 20) *)
}

let default_scale = { seeds = 400; groups = 10; max_reductions_per_signature = 5 }

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)

type hit = {
  hit_tool : Pipeline.tool;
  hit_seed : int;
  hit_ref : string;
  hit_target : string;
  hit_detection : Pipeline.detection;
}

(** All references available to a tool: glsl-fuzz sees the source programs;
    the spirv tools see the lowered modules plus [-O]-optimized copies
    (section 4: "We also provided spirv-fuzz with an optimized version of
    each shader ... We could not provide optimized shaders to glsl-fuzz"). *)
let spirv_references =
  lazy
    (let lowered = Lazy.force Corpus.lowered_references in
     let optimized =
       List.filter_map
         (fun (name, m) ->
           match Compilers.Optimizer.optimize m with
           | Ok m' -> Some (name ^ "+opt", m')
           | Error _ -> None)
         lowered
     in
     lowered @ optimized)

(* a tool's reference list as (name, source program, module) triples; for
   optimized references the source is the unoptimized one (glsl-fuzz never
   sees them) *)
let references_for (tool : Pipeline.tool) =
  match tool with
  | Pipeline.Glsl_fuzz_tool ->
      List.map
        (fun (name, p) -> (name, p, Glsl_like.Lower.lower p))
        Corpus.references
  | Pipeline.Spirv_fuzz_tool | Pipeline.Spirv_fuzz_simple ->
      let sources = Corpus.references in
      List.map
        (fun (name, m) ->
          let base = try List.hd (String.split_on_char '+' name) with Failure _ -> name in
          let src =
            match List.assoc_opt base sources with
            | Some p -> p
            | None -> snd (List.hd sources)
          in
          (name, src, m))
        (Lazy.force spirv_references)

(* Lowering the corpus is lazy and lazies must not be forced
   concurrently: force it once before a pool's workers start. *)
let warm_up pool =
  if Pool.workers pool > 1 then begin
    Pipeline.warmup ();
    ignore (Lazy.force spirv_references)
  end

(* [f] over [hits], one pool task per hit with [?pool], results in hit
   order either way *)
let map_hits ?pool f hits =
  match pool with
  | None -> List.map f hits
  | Some pool ->
      warm_up pool;
      Pool.map_list pool f hits

(** Run a fuzzing campaign: for each seed, generate one variant from a
    round-robin reference and test it against every target.

    Parallelism goes through {!Pool}: one task per seed, so a seed whose
    targets happen to be slow no longer stalls a whole static chunk —
    idle workers steal the remaining seeds instead.  [?pool] reuses a
    caller-owned pool (the CLI shares one pool between the campaign and
    the reduction phase); otherwise [?domains] sizes a temporary pool,
    clamped to the seed count so more domains than seeds never spawn
    idle workers.  Hits are merged in seed order whatever worker ran
    which seed, so the result is bit-identical to the sequential run at
    any worker count.

    [?skip] and [?on_seed] are the persistence hooks {!Persist} plugs a
    campaign journal into: a seed for which [skip seed] returns hits is not
    re-executed (its recorded hits are spliced into the list unchanged, so
    a resumed campaign reproduces the uninterrupted hit list bit for bit),
    and every freshly computed seed is reported to [on_seed] — possibly
    from a worker domain, so the hook must be thread-safe. *)
let run_campaign ?(scale = default_scale) ?(targets = Compilers.Target.all)
    ?(domains = 1) ?pool ~engine ?(check_contracts = false) ?(tv = false)
    ?(weights = []) ?(skip = fun (_ : int) -> (None : hit list option))
    ?(stop = fun () -> false)
    ?(on_seed = fun (_ : int) (_ : hit list) -> ()) tool : hit list =
  let refs = Array.of_list (references_for tool) in
  let hits_for_seed seed =
    let ref_name, ref_source, ref_module = refs.(seed mod Array.length refs) in
    (* contract checking is billed as its own stage: generation runs under
       "generate" as always, and the checker's extra work is the delta
       [campaign --stats] shows against a campaign without contracts *)
    let stage = if check_contracts then "generate+contract-check" else "generate" in
    let generated =
      Engine.timed engine ~stage (fun () ->
          Pipeline.generate ~check_contracts ~weights tool ~ref_source
            ~ref_module ~seed ~input:Corpus.default_input)
    in
    (* per-transformation-type tallies roll up into the engine so
       [--stats] can report the campaign-wide catalogue activity *)
    List.iter
      (fun (type_id, proposed, applied) ->
        if proposed > 0 then
          Engine.bump_counter engine ("proposed/" ^ type_id) proposed;
        if applied > 0 then
          Engine.bump_counter engine ("applied/" ^ type_id) applied)
      generated.Pipeline.gen_counters;
    List.filter_map
      (fun (t : Compilers.Target.t) ->
        match
          Pipeline.run_variant ~tv engine t ~ref_name ~original:ref_module
            ~variant_input:generated.Pipeline.gen_input
            ~variant:generated.Pipeline.gen_variant Corpus.default_input
        with
        | Some detection ->
            Some
              {
                hit_tool = tool;
                hit_seed = seed;
                hit_ref = ref_name;
                hit_target = t.Compilers.Target.name;
                hit_detection = detection;
              }
        | None -> None)
      targets
  in
  let total = scale.seeds in
  let run_in pool =
    warm_up pool;
    (* honest progress: a global completion count plus per-worker seed and
       detection counters, so the log never phrases one worker's tally as
       the whole campaign's *)
    let done_seeds = Atomic.make 0 in
    let nworkers = Pool.workers pool in
    let worker_seeds = Array.init nworkers (fun _ -> Atomic.make 0) in
    let worker_hits = Array.init nworkers (fun _ -> Atomic.make 0) in
    let seed_hits =
      Pool.map_worker pool total (fun ~worker seed ->
          let hits =
            match skip seed with
            | Some recorded -> recorded
            | None ->
                (* a cancelled seed is neither executed nor reported to
                   [on_seed]: the journal records only finished seeds, so a
                   later resume recomputes exactly the missing ones *)
                if stop () then []
                else begin
                  let computed = hits_for_seed seed in
                  on_seed seed computed;
                  computed
                end
          in
          Atomic.incr worker_seeds.(worker);
          ignore
            (Atomic.fetch_and_add worker_hits.(worker) (List.length hits));
          let completed = 1 + Atomic.fetch_and_add done_seeds 1 in
          if completed mod 50 = 0 then
            Log.info (fun k ->
                k "%s: %d of %d seeds done; worker %d has run %d seed(s), %d detection(s)"
                  (Pipeline.tool_name tool) completed total worker
                  (Atomic.get worker_seeds.(worker))
                  (Atomic.get worker_hits.(worker)));
          hits)
    in
    (* seed-ordered merge: slot [i] is seed [i]'s hits whatever worker ran
       it, so the concatenation is the sequential hit list bit for bit *)
    List.concat (Array.to_list seed_hits)
  in
  match pool with
  | Some pool -> run_in pool
  | None ->
      (* clamp: more workers than seeds would only spawn domains with
         nothing to do *)
      let workers = max 1 (min domains total) in
      Pool.with_pool ~workers run_in

(* ------------------------------------------------------------------ *)
(* Table 3: bug-finding ability                                        *)

module String_set = Set.Make (String)

module Pair_set = Set.Make (struct
  type t = string * string

  let compare = compare
end)

let signatures_of hits ~target =
  List.fold_left
    (fun acc h ->
      if String.equal h.hit_target target then
        String_set.add h.hit_detection.Pipeline.signature acc
      else acc)
    String_set.empty hits

let group_of ~scale seed = seed * scale.groups / scale.seeds

type table3_row = {
  t3_target : string;
  t3_total : int array;    (** per tool: distinct signatures over all seeds *)
  t3_median : float array; (** per tool: median distinct signatures per group *)
  t3_vs_simple : string;   (** MWU verdict: spirv-fuzz beats spirv-fuzz-simple? *)
  t3_vs_glsl : string;
}

let tools = [| Pipeline.Spirv_fuzz_tool; Pipeline.Spirv_fuzz_simple; Pipeline.Glsl_fuzz_tool |]

type table3 = { rows : table3_row list; all_row : table3_row }

let table3 ?(scale = default_scale) ~(hits : hit list array) () : table3 =
  (* hits.(i) corresponds to tools.(i).  A row counts the distinct
     (target, signature) pairs of its targets: a target's own signatures,
     and for the All row signatures qualified by target, so its counts are
     the sums of the target rows' *)
  let row name in_row =
    let distinct tool_idx in_group =
      List.fold_left
        (fun acc h ->
          if in_row h.hit_target && in_group h.hit_seed then
            Pair_set.add (h.hit_target, h.hit_detection.Pipeline.signature) acc
          else acc)
        Pair_set.empty hits.(tool_idx)
      |> Pair_set.cardinal
    in
    (* distinct pairs within each seed group *)
    let groups =
      Array.init 3 (fun i ->
          List.init scale.groups (fun g ->
              float_of_int (distinct i (fun seed -> group_of ~scale seed = g))))
    in
    let verdict other =
      (Stats.mann_whitney_u groups.(0) groups.(other)).Stats.confidence_a_greater
      |> Stats.verdict
    in
    {
      t3_target = name;
      t3_total = Array.init 3 (fun i -> distinct i (fun _ -> true));
      t3_median = Array.map Stats.median groups;
      t3_vs_simple = verdict 1;
      t3_vs_glsl = verdict 2;
    }
  in
  let names =
    List.map (fun (t : Compilers.Target.t) -> t.Compilers.Target.name)
      Compilers.Target.all
  in
  {
    rows = List.map (fun name -> row name (String.equal name)) names;
    all_row = row "All" (fun target -> List.mem target names);
  }

(* ------------------------------------------------------------------ *)
(* Figure 7: complementarity                                           *)

let figure7 ~(hits : hit list array) () =
  let per_target =
    List.map
      (fun (t : Compilers.Target.t) ->
        let name = t.Compilers.Target.name in
        let set i =
          signatures_of hits.(i) ~target:name
          |> String_set.elements |> Venn.String_set.of_list
        in
        (name, Venn.partition ~a:(set 0) ~b:(set 1) ~c:(set 2)))
      Compilers.Target.all
  in
  let all =
    let qualified i =
      List.fold_left
        (fun acc h ->
          Venn.String_set.add
            (h.hit_target ^ "/" ^ h.hit_detection.Pipeline.signature)
            acc)
        Venn.String_set.empty hits.(i)
    in
    Venn.partition ~a:(qualified 0) ~b:(qualified 1) ~c:(qualified 2)
  in
  (per_target, all)

(* ------------------------------------------------------------------ *)
(* RQ2: reduction quality                                              *)

type reduction_outcome = {
  red_tool : Pipeline.tool;
  red_target : string;
  red_signature : string;
  red_delta : int;            (** |instructions(reduced) - instructions(original)| *)
  red_kept : int;             (** surviving transformations / markers *)
  red_initial : int;
  red_queries : int;          (** interestingness queries the reduction made *)
}

(* regenerate the variant for a hit and reduce it against its target: the
   shared body of [reduce_hit] and [reduce_crash_hit].  [None] when the hit's
   reference is not in the corpus (a journal written against a different
   corpus) or its recorded detection no longer reproduces; otherwise the
   reference module, the regenerated variant, ddmin's result and the
   number of interestingness queries the reduction made.  The engine
   memoizes the repeated prefix replays of ddmin's interestingness queries,
   so reduction no longer pays one full compile-and-execute per query, and
   the variant itself, so the hits of one seed on several targets run the
   fuzzer once *)
let regenerate_and_reduce (engine : Engine.t) (t : Compilers.Target.t) (h : hit) =
  match
    List.find_opt (fun (n, _, _) -> String.equal n h.hit_ref)
      (references_for h.hit_tool)
  with
  | None -> None
  | Some (ref_name, ref_source, ref_module) ->
      let generated =
        Engine.timed engine ~stage:"generate" (fun () ->
            Pipeline.generate ~engine h.hit_tool ~ref_source ~ref_module
              ~seed:h.hit_seed ~input:Corpus.default_input)
      in
      let is_interesting =
        Pipeline.interestingness engine t ~ref_name ~original:ref_module
          ~detection:h.hit_detection Corpus.default_input
      in
      (* the recorded detection must reproduce (it does, deterministically) *)
      if not (is_interesting generated.Pipeline.gen_variant generated.Pipeline.gen_input)
      then None
      else
        (* the reduction's interestingness queries, the paper's per-tool
           reduction cost: deterministic, unlike its time *)
        let queries = ref 0 in
        let counted m input =
          incr queries;
          is_interesting m input
        in
        let reduced = generated.Pipeline.gen_reduce ~is_interesting:counted in
        Some (ref_module, generated, reduced, !queries)

let reduce_hit (engine : Engine.t) (h : hit) : reduction_outcome option =
  match Compilers.Target.find h.hit_target with
  | None -> None
  | Some t ->
      Option.map
        (fun (ref_module, generated, reduced, queries) ->
          let original_size = Module_ir.instruction_count ref_module in
          let reduced_size, kept =
            match reduced with
            | `Spirv (kept, reduced_ctx) ->
                ( Module_ir.instruction_count reduced_ctx.Spirv_fuzz.Context.m,
                  List.length kept )
            | `Glsl reduced_program ->
                ( Module_ir.instruction_count (Glsl_like.Lower.lower reduced_program),
                  List.length (Glsl_like.Ast.program_markers reduced_program) )
          in
          {
            red_tool = h.hit_tool;
            red_target = h.hit_target;
            red_signature = h.hit_detection.Pipeline.signature;
            red_delta = abs (reduced_size - original_size);
            red_kept = kept;
            red_initial = generated.Pipeline.gen_transformation_count;
            red_queries = queries;
          })
        (regenerate_and_reduce engine t h)

(* cap hits per (target, signature) before reducing, as the paper does *)
let cap_hits ~per_signature hits =
  let seen = Hashtbl.create 32 in
  List.filter
    (fun h ->
      let key = (h.hit_target, h.hit_detection.Pipeline.signature) in
      let n = Option.value ~default:0 (Hashtbl.find_opt seen key) in
      if n < per_signature then begin
        Hashtbl.replace seen key (n + 1);
        true
      end
      else false)
    hits

(** Reduce a list of independent hits, one pool task per hit, against the
    shared (mutex-guarded) engine: ddmin's interestingness replays go
    through the same memo/CAS/TV layers from any worker, and since the
    backend is deterministic a memo hit returns exactly what a fresh run
    would, so outcome [i] is hit [i]'s outcome bit for bit at any worker
    count.  Slots where the hit no longer reproduces (or its target is
    unknown) are [None], mirroring the sequential [List.filter_map]. *)
let reduce_hits ?pool (engine : Engine.t) (hits : hit list) :
    reduction_outcome option list =
  map_hits ?pool (reduce_hit engine) hits

type rq2 = {
  rq2_spirv : reduction_outcome list;
  rq2_glsl : reduction_outcome list;
  rq2_median_spirv : float;
  rq2_median_glsl : float;
}

let rq2 ?(scale = default_scale) ~engine ?pool ~(hits : hit list array) () : rq2 =
  let study_targets =
    List.map (fun (t : Compilers.Target.t) -> t.Compilers.Target.name)
      Compilers.Target.reduction_study
  in
  let eligible tool_hits =
    List.filter (fun h -> List.mem h.hit_target study_targets) tool_hits
    |> cap_hits ~per_signature:scale.max_reductions_per_signature
  in
  let reduce_all tool_hits =
    List.filter_map Fun.id (reduce_hits ?pool engine (eligible tool_hits))
  in
  let spirv = reduce_all hits.(0) in
  let glsl = reduce_all hits.(2) in
  {
    rq2_spirv = spirv;
    rq2_glsl = glsl;
    rq2_median_spirv = Stats.median (List.map (fun r -> float_of_int r.red_delta) spirv);
    rq2_median_glsl = Stats.median (List.map (fun r -> float_of_int r.red_delta) glsl);
  }

(* ------------------------------------------------------------------ *)
(* Table 4: deduplication effectiveness                                *)

type table4_row = {
  t4_target : string;
  t4_tests : int;     (** reduced test cases fed to the dedup algorithm *)
  t4_sigs : int;      (** distinct underlying bugs these tests trigger *)
  t4_reports : int;   (** test cases the algorithm recommends *)
  t4_distinct : int;  (** distinct bugs covered by the recommendations *)
  t4_dups : int;
}

(* a reduced spirv-fuzz test: the minimized sequence's transformation type
   ids (ordered, duplicates preserved — all Figure 6 consumes) plus the
   minimized module itself, so callers (the CLI's bug bank) can persist the
   test case and recall it without replaying the reduction *)
type dedup_test = {
  dd_bug_id : string;
  dd_types : string list;
  dd_module : Module_ir.t;
}

(* reduce one crash hit to its minimized transformation sequence (the
   per-task body of [reduced_crash_tests]; safe to run from any pool
   worker against the shared engine).  [known] is the bug-bank shortcut: a
   test recalled for this (target, bug id) is reused verbatim instead of
   regenerating and re-reducing the hit. *)
let reduce_crash_hit ?(known = fun ~target:_ ~bug_id:_ -> None)
    (engine : Engine.t) (h : hit) : (string * dedup_test) option =
  match Compilers.Target.find h.hit_target with
  | None -> None
  | Some t -> (
      let bug_id =
        Signature.bug_id_of_signature h.hit_detection.Pipeline.signature
      in
      match known ~target:h.hit_target ~bug_id with
      | Some (d : dedup_test) -> Some (h.hit_target, d)
      | None -> (
          match regenerate_and_reduce engine t h with
          | Some (_, _, `Spirv (kept, reduced_ctx), _) ->
              Some
                ( h.hit_target,
                  {
                    dd_bug_id = bug_id;
                    dd_types = List.map Spirv_fuzz.Transformation.type_id kept;
                    dd_module = reduced_ctx.Spirv_fuzz.Context.m;
                  } )
          | Some (_, _, `Glsl _, _) | None -> None))

(** Reduce every capped crash hit of the dedup study down to its minimized
    transformation sequence — the input of Table 4, [tbct dedup] and the
    cross-campaign bug bank.  With [?pool], hits reduce concurrently (one
    task per hit, hit-ordered merge, same list as sequential).  [?known]
    short-circuits hits whose (target, bug id) already has a banked
    reduced test. *)
let reduced_crash_tests ?(scale = default_scale) ~engine ?pool ?known
    ~(hits : hit list) () : (string * dedup_test) list =
  let study =
    List.map (fun (t : Compilers.Target.t) -> t.Compilers.Target.name)
      Compilers.Target.dedup_study
  in
  (* crash bugs only (reliable signatures), spirv-fuzz tests only *)
  let crash_hits =
    List.filter
      (fun h ->
        List.mem h.hit_target study
        && not (Signature.is_miscompilation h.hit_detection.Pipeline.signature))
      hits
    |> cap_hits ~per_signature:scale.max_reductions_per_signature
  in
  map_hits ?pool (reduce_crash_hit ?known engine) crash_hits
  |> List.filter_map Fun.id

let table4 ?(scale = default_scale) ?ignored ~engine ?pool ?tests
    ~(hits : hit list array) () : table4_row list * table4_row =
  let study =
    List.map (fun (t : Compilers.Target.t) -> t.Compilers.Target.name)
      Compilers.Target.dedup_study
  in
  let reduced_tests =
    match tests with
    | Some tests -> tests
    | None -> reduced_crash_tests ~scale ~engine ?pool ~hits:hits.(0) ()
  in
  let row target =
    let tests = List.filter_map (fun (t, d) -> if String.equal t target then Some d else None) reduced_tests in
    let sigs =
      List.fold_left (fun acc d -> String_set.add d.dd_bug_id acc) String_set.empty tests
      |> String_set.cardinal
    in
    let selected =
      (* Figure 6 over the recorded type-id lists directly: reduced tests
         recalled from the bug bank carry no transformation payloads *)
      Tbct.Dedup.select
        {
          Tbct.Dedup.types_of =
            (fun d -> Tbct.Dedup.String_set.of_list d.dd_types);
          Tbct.Dedup.ignored =
            (match ignored with
            | Some s -> s
            | None -> Spirv_fuzz.Dedup.default_ignored);
        }
        tests
    in
    let distinct =
      List.fold_left
        (fun acc d -> String_set.add d.dd_bug_id acc)
        String_set.empty selected
      |> String_set.cardinal
    in
    {
      t4_target = target;
      t4_tests = List.length tests;
      t4_sigs = sigs;
      t4_reports = List.length selected;
      t4_distinct = distinct;
      t4_dups = List.length selected - distinct;
    }
  in
  let rows = List.map row study in
  let total =
    List.fold_left
      (fun acc r ->
        {
          t4_target = "Total";
          t4_tests = acc.t4_tests + r.t4_tests;
          t4_sigs = acc.t4_sigs + r.t4_sigs;
          t4_reports = acc.t4_reports + r.t4_reports;
          t4_distinct = acc.t4_distinct + r.t4_distinct;
          t4_dups = acc.t4_dups + r.t4_dups;
        })
      { t4_target = "Total"; t4_tests = 0; t4_sigs = 0; t4_reports = 0; t4_distinct = 0; t4_dups = 0 }
      rows
  in
  (rows, total)

(* ------------------------------------------------------------------ *)
(* Figure 3: the one-instruction DontInline delta                      *)

type figure3 = {
  fig3_original_size : int;
  fig3_variant_size : int;
  fig3_reduced_size : int;
  fig3_signature : string;
  fig3_kept : Spirv_fuzz.Transformation.t list;
  fig3_delta : string;
}

(** Reproduce the Figure 3 scenario deterministically: fuzz a reference that
    has helper functions until SwiftShader's DontInline bug fires, then
    reduce; the minimized sequence is the single SetFunctionControl and the
    delta one instruction. *)
let figure3 () : figure3 option =
  let _, ref_module =
    List.find
      (fun (n, _) -> String.equal n "helper_distance")
      (Lazy.force Corpus.lowered_references)
  in
  let t = Compilers.Target.swiftshader in
  let input = Corpus.default_input in
  let engine = Engine.create () in
  let rec hunt seed =
    if seed > 400 then None
    else begin
      let ctx = Spirv_fuzz.Context.make ref_module input in
      let config =
        {
          Spirv_fuzz.Fuzzer.default_config with
          Spirv_fuzz.Fuzzer.donors = List.map snd (Lazy.force Corpus.lowered_donors);
        }
      in
      let result = Spirv_fuzz.Fuzzer.run ~config ~seed ctx in
      let variant = result.Spirv_fuzz.Fuzzer.final.Spirv_fuzz.Context.m in
      match Engine.run engine t variant input with
      | Compilers.Backend.Crashed s
        when String.equal (Signature.bug_id_of_signature s) "dontinline-call" ->
          let is_interesting (c : Spirv_fuzz.Context.t) =
            match Engine.run engine t c.Spirv_fuzz.Context.m input with
            | Compilers.Backend.Crashed s' -> String.equal s s'
            | _ -> false
          in
          let r =
            Spirv_fuzz.Reducer.reduce ~original:ctx ~is_interesting
              result.Spirv_fuzz.Fuzzer.transformations
          in
          Some
            {
              fig3_original_size = Module_ir.instruction_count ref_module;
              fig3_variant_size = Module_ir.instruction_count variant;
              fig3_reduced_size =
                Module_ir.instruction_count r.Spirv_fuzz.Reducer.reduced.Spirv_fuzz.Context.m;
              fig3_signature = s;
              fig3_kept = r.Spirv_fuzz.Reducer.transformations;
              fig3_delta =
                Spirv_fuzz.Reducer.delta_listing ~original:ctx r.Spirv_fuzz.Reducer.reduced;
            }
      | _ -> hunt (seed + 1)
    end
  in
  hunt 0

(* ------------------------------------------------------------------ *)
(* Figure 8: the two miscompilation walkthroughs                       *)

type figure8 = {
  fig8a_images_differ : bool;
  fig8a_original_ascii : string;
  fig8a_variant_ascii : string;
  fig8b_images_differ : bool;
  fig8b_original_ascii : string;
  fig8b_variant_ascii : string;
}

(* Figure 8a: a counted loop whose condition ends up in a φ after
   PropagateInstructionUp; Mesa's phi-condition bug then mis-branches. *)
let fig8a_module () =
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let int_t = Builder.int_ty b in
  let frag = Builder.frag_coord b in
  let out = Builder.output_color b in
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let l0 = Builder.new_label fb in
  let header = Builder.new_label fb in
  let body = Builder.new_label fb in
  let exit = Builder.new_label fb in
  let zero = Builder.cint b 0 in
  let limit = Builder.cint b 4 in
  let one = Builder.cint b 1 in
  Builder.start_block fb l0;
  let fc = Builder.load fb frag in
  let x = Builder.extract fb fc [ 0 ] in
  Builder.branch fb header;
  Builder.start_block fb header;
  let i = Builder.phi fb ~ty:int_t [ (zero, l0); (0, body) ] in
  let acc = Builder.phi fb ~ty:(Builder.float_ty b) [ (Builder.cfloat b 0.0, l0); (0, body) ] in
  let c = Builder.sle fb i limit in
  Builder.branch_cond fb c body exit;
  Builder.start_block fb body;
  let acc' = Builder.fadd fb acc (Builder.fmul fb x (Builder.cfloat b 0.02)) in
  let i' = Builder.iadd fb i one in
  Builder.patch_phi fb ~phi:i ~pred:body ~value:i';
  Builder.patch_phi fb ~phi:acc ~pred:body ~value:acc';
  Builder.branch fb header;
  Builder.start_block fb exit;
  let onef = Builder.cfloat b 1.0 in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ acc; acc; acc; onef ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  (Builder.finish b ~entry:main, header)

let figure8 () : figure8 =
  let input = Input.make ~width:8 ~height:8 [] in
  (* 8a *)
  let m_a, header = fig8a_module () in
  let ctx = Spirv_fuzz.Context.make m_a input in
  let main_fn = (Module_ir.entry_function m_a).Func.id in
  (* propagate the loop condition computation up into the predecessors,
     exactly the Figure 8a transformation *)
  let f = Module_ir.entry_function m_a in
  let cfg = Cfg.of_func f in
  let preds = Cfg.predecessors cfg header in
  let m_tmp, fresh = Module_ir.fresh_many m_a (List.length preds) in
  let ctx = { ctx with Spirv_fuzz.Context.m = m_tmp } in
  let t =
    Spirv_fuzz.Transformation.Propagate_instruction_up
      { fn = main_fn; block = header; fresh_per_pred = List.combine preds fresh }
  in
  let ctx' =
    if Spirv_fuzz.Rules.precondition ctx t then Spirv_fuzz.Rules.apply ctx t else ctx
  in
  let variant_a = ctx'.Spirv_fuzz.Context.m in
  let engine = Engine.create () in
  let img_of t m =
    match Engine.run engine t m input with
    | Compilers.Backend.Rendered img -> Some img
    | _ -> None
  in
  let mesa = Compilers.Target.mesa in
  let orig_a = img_of mesa m_a and var_a = img_of mesa variant_a in
  (* 8b: MoveBlockDown on a diamond; Pixel-5's block-order bug mis-branches *)
  let b = Builder.create () in
  let void_t = Builder.void_ty b in
  let frag = Builder.frag_coord b in
  let out = Builder.output_color b in
  let fb, main, _ = Builder.begin_function b ~name:"main" ~ret:void_t ~params:[] in
  let la = Builder.new_label fb in
  let lb = Builder.new_label fb in
  let lc = Builder.new_label fb in
  let ld = Builder.new_label fb in
  Builder.start_block fb la;
  let fc = Builder.load fb frag in
  let x = Builder.extract fb fc [ 0 ] in
  let c = Builder.flt fb x (Builder.cfloat b 4.0) in
  Builder.branch_cond fb c lb lc;
  Builder.start_block fb lb;
  let vb = Builder.cfloat b 1.0 in
  Builder.branch fb ld;
  Builder.start_block fb lc;
  let vc = Builder.cfloat b 0.25 in
  let vc2 = Builder.fadd fb vc (Builder.cfloat b 0.0) in
  Builder.branch fb ld;
  Builder.start_block fb ld;
  let phi = Builder.phi fb ~ty:(Builder.float_ty b) [ (vb, lb); (vc2, lc) ] in
  let onef = Builder.cfloat b 1.0 in
  let color = Builder.composite fb ~ty:(Builder.vec4f b) [ phi; phi; phi; onef ] in
  Builder.store fb out color;
  Builder.ret fb;
  ignore (Builder.end_function fb);
  let m_b = Builder.finish b ~entry:main in
  let ctx_b = Spirv_fuzz.Context.make m_b input in
  let t_move = Spirv_fuzz.Transformation.Move_block_down { fn = main; block = lb } in
  let ctx_b' =
    if Spirv_fuzz.Rules.precondition ctx_b t_move then Spirv_fuzz.Rules.apply ctx_b t_move
    else ctx_b
  in
  let variant_b = ctx_b'.Spirv_fuzz.Context.m in
  let pixel5 = Compilers.Target.pixel5 in
  let orig_b = img_of pixel5 m_b and var_b = img_of pixel5 variant_b in
  let ascii = function Some img -> Image.to_ascii img | None -> "(no image)\n" in
  let differ a bimg =
    match (a, bimg) with Some x, Some y -> not (Image.equal x y) | _ -> false
  in
  {
    fig8a_images_differ = differ orig_a var_a;
    fig8a_original_ascii = ascii orig_a;
    fig8a_variant_ascii = ascii var_a;
    fig8b_images_differ = differ orig_b var_b;
    fig8b_original_ascii = ascii orig_b;
    fig8b_variant_ascii = ascii var_b;
  }
