(** The execution engine (see the interface for the full story): a
    mutex-guarded, content-addressed memo table over
    {!Compilers.Backend.run} with a bounded LRU eviction policy, an
    optional persistent {!Tbct_store.Cas} backend (read-through /
    write-through), the baseline cache, the per-configuration
    target-optimizer memo shared by runs, TV blame and the clean [-O] step,
    the validator's verdict per optimized module, the render memo, the
    stage memo of front-end crash signatures, counters and per-stage
    wall-clock accounting.  One engine may be shared across domains. *)

open Spirv_ir
module Lru = Tbct_store.Lru
module Cas = Tbct_store.Cas
module Run_codec = Tbct_store.Run_codec

let default_memo_capacity = 65536

(* The target optimizer's outcome on one module, shared by every target
   with the same configuration.  [blame] stays [None] until translation
   validation has run on the module; a crashed pipeline needs none. *)
type pipeline_entry = {
  outcome : (Module_ir.t, string) result;
  blame : Compilers.Optimizer.pass_name option option;
}

type t = {
  lock : Mutex.t;
  mutable memo :
    (string * string * string, Compilers.Backend.run_result) Lru.t;
      (* (target name, module digest, input digest) -> result *)
  mutable tv_memo : (string * string, Compilers.Tv.verdict) Lru.t;
      (* (before digest, after digest) -> translation-validation verdict *)
  mutable render_memo :
    (string * string, (Image.t, Interp.trap) result) Lru.t;
      (* (post-miscompile module digest, input digest) -> the flat
         kernel's render *)
  mutable pipeline_memo : (string * string, pipeline_entry) Lru.t;
      (* (Target.config_key, module digest) -> target optimizer outcome *)
  mutable verdict_memo : (string, (unit, Validate.error list) result) Lru.t;
      (* optimized module digest -> Validate.check verdict *)
  mutable stage_memo : (string * string, string option) Lru.t;
      (* (target name, module digest) -> front-end crash signature *)
  use_compiled : bool;
      (* false: reference-interpreter mode (the differential oracle) *)
  memo_capacity : int;
  baselines : (string * string, Compilers.Backend.run_result) Hashtbl.t;
      (* (target name, reference name) -> result *)
  store : Cas.t option;
  stage_wall : (string, float) Hashtbl.t;
  domain_runs : (int, int) Hashtbl.t;
      (* domain id -> backend executions performed by that domain; shows
         how evenly the pool's workers shared the execute load *)
  named_counters : (string, int) Hashtbl.t;
      (* caller-defined tallies, e.g. per-transformation-type
         proposed/applied counts bumped by campaign drivers *)
  mutable runs_executed : int;
  mutable cache_hits : int;
  mutable baseline_hits : int;
  mutable opt_runs : int;
  mutable opt_hits : int;
  mutable store_hits : int;
  mutable store_writes : int;
  mutable tv_checks : int;
  mutable tv_hits : int;
  mutable compiles : int;
  mutable compile_hits : int;
}

type stats = {
  runs_executed : int;
  cache_hits : int;
  baseline_hits : int;
  opt_runs : int;
  opt_hits : int;
  store_hits : int;
  store_writes : int;
  tv_checks : int;
  tv_hits : int;
  compiles : int;
  compile_hits : int;
  memo_entries : int;
  memo_capacity : int;
  memo_evictions : int;
  runs_saved : int;
  hit_rate : float;
  execute_wall : float;
  stages : (string * float) list;
  per_domain_runs : (int * int) list;
  counters : (string * int) list;
}

let create ?store ?(memo_capacity = default_memo_capacity) ?(compiled = true)
    () =
  {
    lock = Mutex.create ();
    memo = Lru.create ~capacity:memo_capacity;
    tv_memo = Lru.create ~capacity:memo_capacity;
    render_memo = Lru.create ~capacity:memo_capacity;
    pipeline_memo = Lru.create ~capacity:memo_capacity;
    verdict_memo = Lru.create ~capacity:memo_capacity;
    stage_memo = Lru.create ~capacity:memo_capacity;
    use_compiled = compiled;
    memo_capacity;
    baselines = Hashtbl.create 64;
    store;
    stage_wall = Hashtbl.create 8;
    domain_runs = Hashtbl.create 8;
    named_counters = Hashtbl.create 64;
    runs_executed = 0;
    cache_hits = 0;
    baseline_hits = 0;
    opt_runs = 0;
    opt_hits = 0;
    store_hits = 0;
    store_writes = 0;
    tv_checks = 0;
    tv_hits = 0;
    compiles = 0;
    compile_hits = 0;
  }

let bump_counter_locked e name n =
  Hashtbl.replace e.named_counters name
    (n + Option.value ~default:0 (Hashtbl.find_opt e.named_counters name))

let bump_counter e name n =
  Mutex.lock e.lock;
  bump_counter_locked e name n;
  Mutex.unlock e.lock

let locked e f =
  Mutex.lock e.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock e.lock) f

let add_stage_locked e stage dt =
  Hashtbl.replace e.stage_wall stage
    (dt +. Option.value ~default:0.0 (Hashtbl.find_opt e.stage_wall stage))

let pipeline_runs_counter = "pipeline-runs"
let pipeline_hits_counter = "pipeline-hits"
let store_put_failures_counter = "store-put-failures"
let execute_stage = "execute"
let optimize_stage = "optimize"
let tv_stage = "tv"

(* the backend's stages, nested inside [execute_stage]: the front-end
   triggers (billed by stage-memo misses only; a full run does not split
   them out), the target optimizer on pipeline-memo misses, validation of
   its output on verdict-memo misses and the render hook (the render
   memo's lookup, and lowering and the fragment grid on a miss).  They
   are named apart from [optimize_stage] and [tv_stage], which clock work
   outside [execute_stage]. *)
let front_stage = "execute/front"
let optimize_miss_stage = "execute/optimize"
let validate_stage = "execute/validate"
let render_stage = "execute/render"

let front_hits_counter = "stage-memo:front-hits"
let front_misses_counter = "stage-memo:front-misses"

(* the harness's only calls of the backend, each behind a memo below *)
let backend_run = (Compilers.Backend.run [@alert "-unmemoized_run"])
let backend_front_end = (Compilers.Backend.front_end [@alert "-unmemoized_run"])
let backend_compile = (Compilers.Backend.compile [@alert "-unmemoized_run"])

(* disk keys: the namespaced cache key digested into a CAS key *)
let run_store_key (target, mdigest, idigest) =
  Cas.key_of_string (Printf.sprintf "run:%s:%s:%s" target mdigest idigest)

let opt_store_key (_config, mdigest) = Cas.key_of_string ("opt:" ^ mdigest)
let tv_store_key (d1, d2) = Cas.key_of_string (Printf.sprintf "tv:%s:%s" d1 d2)

(* [f x], its time added to [clock], a computation's list of (stage,
   seconds) that the caller bills with [bill_locked] in the locked section
   it takes anyway: the backend stages of every run cost no lock of their
   own *)
let clock_into clock stage f x =
  let t0 = Unix.gettimeofday () in
  let r = f x in
  clock := (stage, Unix.gettimeofday () -. t0) :: !clock;
  r

let bill_locked e clock =
  List.iter (fun (stage, dt) -> add_stage_locked e stage dt) !clock

(* The render hook handed to [Backend.run], behind the render memo.  It
   receives the post-miscompile module, which is the optimized module
   itself when no rewrite fires (its digest then comes from the identity
   ring) and is digested on its own otherwise; [idigest] is the input's
   digest from [run]'s key.  Targets whose configurations and rewrites
   produce one module render it once per input.  Images are never
   mutated once rendered, so every run result may share one; the lookup
   and the store take the engine lock, the lowering and the render run
   unlocked — a racing duplicate render is harmless. *)
let compiled_render e clock idigest m input =
  clock_into clock render_stage
    (fun m ->
      let key = (Digest.of_module m, idigest) in
      let cached =
        locked e (fun () ->
            let r = Lru.find e.render_memo key in
            if Option.is_some r then e.compile_hits <- e.compile_hits + 1;
            r)
      in
      match cached with
      | Some r -> r
      | None ->
          let r = Compile.render_batch (Compile.lower m) input in
          locked e (fun () ->
              Lru.set e.render_memo key r;
              e.compiles <- e.compiles + 1);
          r)
    m

(* Store a pipeline entry, merged with the one already in the table (a
   racing domain's, or the one a later consumer learnt more about).  An
   optimized module already in the table is kept, so every consumer
   shares one value (and its digest by identity), and a blame already
   known survives an entry that lacks it. *)
let merge_pipeline_locked e key (entry : pipeline_entry) =
  let entry =
    match Lru.find e.pipeline_memo key with
    | Some { outcome = Ok m; blame } ->
        let blame = if Option.is_some entry.blame then entry.blame else blame in
        { outcome = Ok m; blame }
    | Some _ | None -> entry
  in
  Lru.set e.pipeline_memo key entry

(* a pipeline the engine ran: its outcome, and the blame if TV ran it *)
let record_pipeline e key ?blame outcome =
  locked e (fun () ->
      merge_pipeline_locked e key { outcome; blame };
      bump_counter_locked e pipeline_runs_counter 1)

let pipeline_hit e = bump_counter e pipeline_hits_counter 1

let pipeline_key (t : Compilers.Target.t) m =
  (Compilers.Target.config_key t, Digest.of_module m)

(* The optimize and validate hooks handed to [Backend.run] and
   [Backend.compile].  The optimizer's outcome on the module of [key]:
   any entry for the key answers, whichever consumer stored it.  The
   verdict is a function of the optimized module alone, so it is keyed by
   that module's digest and computed once per distinct module, whichever
   configuration, run or probe produced it first; only [Validate.check]
   on a miss is billed to [validate_stage]. *)
let memo_optimize e clock (t : Compilers.Target.t) key (m : Module_ir.t) :
    (Module_ir.t, string) result =
  let cached = locked e (fun () -> Lru.find e.pipeline_memo key) in
  match cached with
  | Some entry ->
      pipeline_hit e;
      entry.outcome
  | None ->
      let outcome =
        clock_into clock optimize_miss_stage
          (Compilers.Backend.target_optimize t)
          m
      in
      record_pipeline e key outcome;
      outcome

let memo_validate e clock (optimized : Module_ir.t) =
  let d = Digest.of_module optimized in
  match locked e (fun () -> Lru.find e.verdict_memo d) with
  | Some verdict -> verdict
  | None ->
      let verdict = clock_into clock validate_stage Validate.check optimized in
      locked e (fun () -> Lru.set e.verdict_memo d verdict);
      verdict

(* The one read-through body behind [run], [optimize] and [tv_check]: the
   in-memory LRU [memo], then the disk store under [store_key] (which drops
   an object [decode] rejects, so the write-through below replaces it),
   then [compute], billed to [stage].  [hit] counts a memory or disk hit
   and [computed] a computation, both under the lock.  [keep] picks what
   of a fresh result is cached — [None] is neither recorded nor written —
   and [cached] turns a cached value back into a result.  The mutex is
   released while decoding and computing: two domains missing on one key
   may both compute, but every [compute] is deterministic, so the first
   entry stored is kept (with whatever a pipeline entry has gained since,
   such as a TV blame) and the table stays consistent. *)
let read_through e ~memo ~store_key ~decode ~encode ~hit ~computed ~stage
    ~keep ~cached key compute =
  let in_memory =
    locked e (fun () ->
        let v = Lru.find (memo e) key in
        if Option.is_some v then hit `Memory;
        v)
  in
  let remember v =
    let memo = memo e in
    if not (Lru.mem memo key) then Lru.set memo key v
  in
  match in_memory with
  | Some v -> cached v
  | None -> (
      let from_disk =
        Option.bind e.store (fun cas ->
            Cas.get cas ~key:(store_key key) ~decode)
      in
      match from_disk with
      | Some v ->
          locked e (fun () ->
              remember v;
              hit `Disk);
          cached v
      | None ->
          let t0 = Unix.gettimeofday () in
          let r = compute () in
          let dt = Unix.gettimeofday () -. t0 in
          let kept = keep r in
          locked e (fun () ->
              Option.iter remember kept;
              computed ();
              add_stage_locked e stage dt);
          (match (e.store, kept) with
          | Some cas, Some v -> (
              match Cas.put cas ~key:(store_key key) (encode v) with
              | () -> locked e (fun () -> e.store_writes <- e.store_writes + 1)
              | exception (Unix.Unix_error _ | Sys_error _) ->
                  (* store objects are recomputable: a write that fails
                     (a full disk, a shard path that is not a directory)
                     costs a later recomputation, never this result *)
                  bump_counter e store_put_failures_counter 1)
          | _ -> ());
          r)

let run e (t : Compilers.Target.t) (m : Module_ir.t) (input : Input.t) :
    Compilers.Backend.run_result =
  let clock = ref [] in
  let idigest = Digest.of_input input in
  read_through e
    ~memo:(fun e -> e.memo)
    ~store_key:run_store_key ~decode:Run_codec.decode_run
    ~encode:Run_codec.encode_run
    ~hit:(function
      | `Memory -> e.cache_hits <- e.cache_hits + 1
      | `Disk -> e.store_hits <- e.store_hits + 1)
    ~computed:(fun () ->
      let did = (Domain.self () :> int) in
      e.runs_executed <- e.runs_executed + 1;
      Hashtbl.replace e.domain_runs did
        (1 + Option.value ~default:0 (Hashtbl.find_opt e.domain_runs did));
      bill_locked e clock)
    ~stage:execute_stage ~keep:Option.some ~cached:Fun.id
    (t.Compilers.Target.name, Digest.of_module m, idigest)
    (fun () ->
      (* the harness's one permitted backend call: everything else runs
         through here, behind the memo and the store *)
      if e.use_compiled then
        backend_run
          ~render:(compiled_render e clock idigest)
          ~validate:(memo_validate e clock)
          ~optimize:(memo_optimize e clock t (pipeline_key t m))
          t m input
      else backend_run t m input)

(* The stage memo: the crash signature, if any, of the target's front end
   on a module.  A hit counts as a [cache_hits]; a miss is billed to
   [execute_stage] and [front_stage]. *)
let front_end_crash e (t : Compilers.Target.t) m =
  let key = (t.Compilers.Target.name, Digest.of_module m) in
  match locked e (fun () -> Lru.find e.stage_memo key) with
  | Some crash ->
      locked e (fun () ->
          e.cache_hits <- e.cache_hits + 1;
          bump_counter_locked e front_hits_counter 1);
      crash
  | None ->
      let t0 = Unix.gettimeofday () in
      let crash = backend_front_end t m in
      let dt = Unix.gettimeofday () -. t0 in
      locked e (fun () ->
          Lru.set e.stage_memo key crash;
          bump_counter_locked e front_misses_counter 1;
          add_stage_locked e execute_stage dt;
          add_stage_locked e front_stage dt);
      crash

(* The compile stage's crash signature, if any, of a module that passed
   the front end, through the pipeline and verdict memos' hooks: a module
   a run has already compiled costs only its [After_opt] triggers and
   the optimized module's digest.  Billed to [execute_stage] like a
   run. *)
let compile_crash e (t : Compilers.Target.t) m =
  let clock = ref [] in
  let key = pipeline_key t m in
  let t0 = Unix.gettimeofday () in
  let compiled =
    backend_compile ~optimize:(memo_optimize e clock t key)
      ~validate:(memo_validate e clock) t m
  in
  let dt = Unix.gettimeofday () -. t0 in
  locked e (fun () ->
      add_stage_locked e execute_stage dt;
      bill_locked e clock);
  Result.fold ~ok:(fun _ -> None) ~error:Option.some compiled

(* [run]'s crash as the stages up to the signature's decide it, the front
   end's first as in [Backend.run]; a reference engine runs in full *)
let crashes_with e (t : Compilers.Target.t) m input signature =
  let stage =
    if e.use_compiled then Compilers.Backend.stage_of_signature t signature
    else Compilers.Backend.Execute
  in
  let crash =
    match stage with
    | Compilers.Backend.Front_end -> front_end_crash e t m
    | Compilers.Backend.Compile -> (
        match front_end_crash e t m with
        | Some _ as crash -> crash
        | None -> compile_crash e t m)
    | Compilers.Backend.Execute -> (
        match run e t m input with
        | Compilers.Backend.Crashed s -> Some s
        | Compilers.Backend.Rendered _ | Compilers.Backend.Compiled_ok -> None)
  in
  Option.equal String.equal crash (Some signature)

let baseline e (t : Compilers.Target.t) ~ref_name (m : Module_ir.t)
    (input : Input.t) : Compilers.Backend.run_result =
  let key = (t.Compilers.Target.name, ref_name) in
  let cached = locked e (fun () -> Hashtbl.find_opt e.baselines key) in
  match cached with
  | Some r ->
      locked e (fun () -> e.baseline_hits <- e.baseline_hits + 1);
      r
  | None ->
      let r = run e t m input in
      locked e (fun () -> Hashtbl.replace e.baselines key r);
      r

(* [Optimizer.optimize] is the standard pipeline under clean flags, the
   configuration AMD-LLPC, Mesa and the Pixel images run *)
let clean_config =
  Compilers.Target.key_of_config ~pipeline:Compilers.Optimizer.standard
    ~flags:Compilers.Passes.no_bugs

let clean_entry m = { outcome = Ok m; blame = None }

(** The clean [-O] step, in the pipeline memo under [clean_config]: an
    entry any consumer stored answers it, a memory miss reads the
    [opt:<digest>] disk object and only a computed result writes one.
    Hits count as [opt_hits] only, so [runs_saved]/[hit_rate] keep meaning
    backend executions and [pipeline-hits] the memo's work for targets.
    Errors are not cached (the clean pipeline never fails in this
    build). *)
let optimize e (m : Module_ir.t) : (Module_ir.t, string) result =
  read_through e
    ~memo:(fun e -> e.pipeline_memo)
    ~store_key:opt_store_key
    ~decode:(fun s -> Option.map clean_entry (Run_codec.decode_module s))
    ~encode:(fun entry -> Run_codec.encode_module (Result.get_ok entry.outcome))
    ~hit:(fun _ -> e.opt_hits <- e.opt_hits + 1)
    ~computed:(fun () -> e.opt_runs <- e.opt_runs + 1)
    ~stage:optimize_stage
    ~keep:(fun r -> Option.map clean_entry (Result.to_option r))
    ~cached:(fun entry -> entry.outcome)
    (clean_config, Digest.of_module m)
    (fun () -> Compilers.Optimizer.optimize m)

(** Memoized translation validation, keyed by the (before, after) module
    digest pair through memory and then the disk store.  Verdict soundness
    under memoization: {!Compilers.Tv.check_pass} is a deterministic
    function of the two modules, the codec round-trips exactly, and
    content-addressing makes the digest pair a faithful key — so a cached
    verdict is the verdict.  Equal digests short-circuit to [Equivalent]
    (a pass that changed nothing proved itself). *)
let tv_check_uncounted e ~(before : Module_ir.t) ~(after : Module_ir.t) :
    Compilers.Tv.verdict =
  let d1 = Digest.of_module before in
  let d2 = Digest.of_module after in
  locked e (fun () -> e.tv_checks <- e.tv_checks + 1);
  if String.equal d1 d2 then begin
    locked e (fun () -> e.tv_hits <- e.tv_hits + 1);
    Compilers.Tv.Equivalent
  end
  else
    let proofs = ref 0 in
    read_through e
      ~memo:(fun e -> e.tv_memo)
      ~store_key:tv_store_key ~decode:Run_codec.decode_verdict
      ~encode:Run_codec.encode_verdict
      ~hit:(fun _ -> e.tv_hits <- e.tv_hits + 1)
      ~computed:(fun () ->
        (* fresh computes only: a memoized verdict re-proves nothing *)
        if !proofs > 0 then bump_counter_locked e "mem-proofs" !proofs)
      ~stage:tv_stage ~keep:Option.some ~cached:Fun.id (d1, d2)
      (fun () ->
        let v, n = Compilers.Tv.check_pass_counted before after in
        proofs := n;
        v)

let tv_check e ~(before : Module_ir.t) ~(after : Module_ir.t) :
    Compilers.Tv.verdict =
  let v = tv_check_uncounted e ~before ~after in
  (* bucket abstentions by their structured Symval reason (the payload's
     label prefix); bump_counter takes the engine lock itself, so this
     must stay outside any [locked] block *)
  (match Compilers.Tv.abstain_label v with
  | Some label -> bump_counter e ("tv-abstain:" ^ label) 1
  | None -> ());
  v

let run_tv e (t : Compilers.Target.t) m =
  Compilers.Optimizer.run_tv ~flags:t.Compilers.Target.opt_flags
    ~check:(fun before after -> tv_check e ~before ~after)
    t.Compilers.Target.pipeline m

let tv_blame e (t : Compilers.Target.t) (m : Module_ir.t) :
    (Compilers.Optimizer.pass_name option, string) result =
  if not e.use_compiled then
    Result.map (fun r -> r.Compilers.Optimizer.tv_guilty) (run_tv e t m)
  else
    let key = pipeline_key t m in
    let cached = locked e (fun () -> Lru.find e.pipeline_memo key) in
    match cached with
    | Some { outcome = Error signature; _ } ->
        pipeline_hit e;
        Error signature
    | Some { blame = Some guilty; _ } ->
        pipeline_hit e;
        Ok guilty
    | Some { blame = None; _ } | None -> (
        match run_tv e t m with
        | Ok r ->
            let guilty = r.Compilers.Optimizer.tv_guilty in
            record_pipeline e key ~blame:guilty
              (Ok r.Compilers.Optimizer.tv_module);
            Ok guilty
        | Error signature ->
            record_pipeline e key (Error signature);
            Error signature)

let timed e ~stage f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Unix.gettimeofday () -. t0 in
      locked e (fun () -> add_stage_locked e stage dt))
    f

let stats e : stats =
  locked e (fun () ->
      let runs_saved = e.cache_hits + e.baseline_hits + e.store_hits in
      let counter k = Option.value ~default:0 (Hashtbl.find_opt e.named_counters k) in
      let looked_up = runs_saved + e.runs_executed + counter front_misses_counter in
      {
        runs_executed = e.runs_executed;
        cache_hits = e.cache_hits;
        baseline_hits = e.baseline_hits;
        opt_runs = e.opt_runs;
        opt_hits = e.opt_hits;
        store_hits = e.store_hits;
        store_writes = e.store_writes;
        tv_checks = e.tv_checks;
        tv_hits = e.tv_hits;
        compiles = e.compiles;
        compile_hits = e.compile_hits;
        memo_entries =
          Lru.length e.memo + Lru.length e.tv_memo
          + Lru.length e.render_memo + Lru.length e.pipeline_memo
          + Lru.length e.verdict_memo + Lru.length e.stage_memo;
        memo_capacity = e.memo_capacity;
        memo_evictions =
          Lru.evictions e.memo + Lru.evictions e.tv_memo
          + Lru.evictions e.render_memo + Lru.evictions e.pipeline_memo
          + Lru.evictions e.verdict_memo + Lru.evictions e.stage_memo;
        runs_saved;
        hit_rate =
          (if looked_up = 0 then 0.0
           else float_of_int runs_saved /. float_of_int looked_up);
        execute_wall =
          Option.value ~default:0.0 (Hashtbl.find_opt e.stage_wall execute_stage);
        stages =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) e.stage_wall []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b);
        per_domain_runs =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) e.domain_runs []
          |> List.sort (fun (a, _) (b, _) -> compare a b);
        counters =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) e.named_counters []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b);
      })

let counter (s : stats) name =
  Option.value ~default:0 (List.assoc_opt name s.counters)

let pipeline_runs s = counter s pipeline_runs_counter
let pipeline_hits s = counter s pipeline_hits_counter

let reset e =
  locked e (fun () ->
      e.memo <- Lru.create ~capacity:e.memo_capacity;
      e.tv_memo <- Lru.create ~capacity:e.memo_capacity;
      e.render_memo <- Lru.create ~capacity:e.memo_capacity;
      e.pipeline_memo <- Lru.create ~capacity:e.memo_capacity;
      e.verdict_memo <- Lru.create ~capacity:e.memo_capacity;
      e.stage_memo <- Lru.create ~capacity:e.memo_capacity;
      Hashtbl.reset e.baselines;
      Hashtbl.reset e.stage_wall;
      Hashtbl.reset e.domain_runs;
      Hashtbl.reset e.named_counters;
      e.runs_executed <- 0;
      e.cache_hits <- 0;
      e.baseline_hits <- 0;
      e.opt_runs <- 0;
      e.opt_hits <- 0;
      e.store_hits <- 0;
      e.store_writes <- 0;
      e.tv_checks <- 0;
      e.tv_hits <- 0;
      e.compiles <- 0;
      e.compile_hits <- 0)

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "engine: %d runs executed, %d saved by caching (%d memo + %d baseline + \
     %d store, %.1f%% hit rate)"
    s.runs_executed s.runs_saved s.cache_hits s.baseline_hits s.store_hits
    (100.0 *. s.hit_rate);
  Format.fprintf fmt
    "@\noptimize: %d executed, %d memo hits; memo tables: %d entries (cap \
     %d), %d evictions; store: %d hits, %d writes"
    s.opt_runs s.opt_hits s.memo_entries s.memo_capacity s.memo_evictions
    s.store_hits s.store_writes;
  if s.tv_checks > 0 then
    Format.fprintf fmt "@\ntv: %d checks, %d memoized (%.1f%% hit rate)"
      s.tv_checks s.tv_hits
      (100.0 *. float_of_int s.tv_hits /. float_of_int s.tv_checks);
  if s.compiles > 0 || s.compile_hits > 0 then
    Format.fprintf fmt "@\ncompile: %d modules lowered, %d render-memo hits"
      s.compiles s.compile_hits;
  if s.stages <> [] then begin
    Format.fprintf fmt "@\nstage wall-clock:";
    List.iter (fun (k, v) -> Format.fprintf fmt "@\n  %-16s %8.3fs" k v) s.stages
  end;
  (match s.per_domain_runs with
  | [] | [ _ ] -> ()  (* single-domain runs need no breakdown *)
  | per_domain ->
      Format.fprintf fmt "@\nruns per domain:";
      List.iter
        (fun (d, n) -> Format.fprintf fmt " d%d:%d" d n)
        per_domain);
  if s.counters <> [] then begin
    Format.fprintf fmt "@\ncounters:";
    List.iter (fun (k, v) -> Format.fprintf fmt "@\n  %-40s %8d" k v) s.counters
  end

let stats_to_string s = Format.asprintf "%a" pp_stats s
