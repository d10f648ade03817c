(** The execution engine: its memo tables, the one memo body behind them,
    counters and per-stage wall-clock accounting.  The interface tells the
    full story. *)

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
  memo : (string * string * string, Compilers.Backend.run_result) Lru.t;
      (* (target name, module digest, input digest) -> result *)
  tv_memo : (string * string, Compilers.Tv.verdict) Lru.t;
      (* (before digest, after digest) -> translation-validation verdict *)
  render_memo : (string * string, (Image.t, Interp.trap) result) Lru.t;
      (* (post-miscompile module digest, input digest) -> the flat
         kernel's render *)
  pipeline_memo : (string * string, pipeline_entry) Lru.t;
      (* (Target.config_key, module digest) -> target optimizer outcome *)
  verdict_memo : (string, (unit, Validate.error list) result) Lru.t;
      (* optimized module digest -> Validate.check verdict *)
  generation_memo : (string, Spirv_fuzz.Fuzzer.result) Lru.t;
      (* generation key -> the fuzzer's result (see [fuzz]) *)
  use_compiled : bool;
      (* false: reference-interpreter mode (the differential oracle) *)
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
    generation_memo = Lru.create ~capacity:memo_capacity;
    use_compiled = compiled;
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
let generation_runs_counter = "generation-runs"
let generation_hits_counter = "generation-hits"
let store_put_failures_counter = "store-put-failures"
let execute_stage = "execute"
let optimize_stage = "optimize"
let tv_stage = "tv"

(* the backend's stages, nested inside [execute_stage]: the front-end
   triggers (billed by front-end probes only; a full run does not split
   them out), the target optimizer on pipeline-memo misses, validation of
   its output on verdict-memo misses and the render hook (the render
   memo's lookup, and lowering and the fragment grid on a miss).  They
   are named apart from [optimize_stage] and [tv_stage], which clock work
   outside [execute_stage]. *)
let front_stage = "execute/front"
let optimize_miss_stage = "execute/optimize"
let validate_stage = "execute/validate"
let render_stage = "execute/render"

(* the harness's only calls of the backend: [run] behind the run memo,
   the front end and [compile] for [crashes_with]'s staged probes *)
let backend_run = (Compilers.Backend.run [@alert "-unmemoized_run"])
let backend_front_end = (Compilers.Backend.front_end [@alert "-unmemoized_run"])
let backend_compile = (Compilers.Backend.compile [@alert "-unmemoized_run"])

(* disk keys: the namespaced cache key digested into a CAS key *)
let run_store_key (target, mdigest, idigest) =
  Cas.key_of_string (Printf.sprintf "run:%s:%s:%s" target mdigest idigest)

let opt_store_key (_config, mdigest) = Cas.key_of_string ("opt:" ^ mdigest)
let tv_store_key (d1, d2) = Cas.key_of_string (Printf.sprintf "tv:%s:%s" d1 d2)

(* [f x] and the seconds it took *)
let time f x =
  let t0 = Unix.gettimeofday () in
  let r = f x in
  (r, Unix.gettimeofday () -. t0)

(* A computation's list of (stage, seconds), which the caller bills with
   [bill_locked] in the locked section it takes anyway: the backend stages
   of every run cost no lock of their own.  [clock_into] runs [f x] and
   adds its time to it. *)
let clock_into clock stage f x =
  let r, dt = time f x in
  clock := (stage, dt) :: !clock;
  r

let bill_locked e clock =
  List.iter (fun (stage, dt) -> add_stage_locked e stage dt) !clock

(* The one memo body behind every engine cache: the in-memory LRU
   [table], then, for a cache with a [disk] layer — its (store key,
   decode, encode) triple — on an engine with a store, the disk object
   (which [Cas.get] drops when [decode] rejects it, so the write-through
   below replaces it), then [compute].  [hit] counts a memory or disk hit
   and [computed] a computation, given its seconds, both under the lock.
   [keep] picks what of a fresh result is cached — [None] is neither
   recorded nor written — and [cached] turns a cached value back into a
   result.  The mutex is released while decoding and computing: two
   domains missing on one key may both compute, but every [compute] is
   deterministic, so the first entry stored wins (a pipeline entry keeps
   what [record_pipeline] adds later, such as a TV blame) and the table
   stays consistent. *)
let memo e table ?disk ~hit ~computed ~keep ~cached key compute =
  let in_memory =
    locked e (fun () ->
        let v = Lru.find table key in
        if Option.is_some v then hit `Memory;
        v)
  in
  let remember v = if not (Lru.mem table key) then Lru.set table key v in
  match in_memory with
  | Some v -> cached v
  | None -> (
      let disk =
        match (e.store, disk) with
        | Some cas, Some (store_key, decode, encode) ->
            Some (cas, store_key key, decode, encode)
        | _ -> None
      in
      let from_disk =
        Option.bind disk (fun (cas, key, decode, _) -> Cas.get cas ~key ~decode)
      in
      match from_disk with
      | Some v ->
          locked e (fun () ->
              remember v;
              hit `Disk);
          cached v
      | None ->
          let r, dt = time compute () in
          let kept = keep r in
          locked e (fun () ->
              Option.iter remember kept;
              computed dt);
          (match (disk, kept) with
          | Some (cas, key, _, encode), Some v -> (
              match Cas.put cas ~key (encode v) with
              | () -> locked e (fun () -> e.store_writes <- e.store_writes + 1)
              | exception (Unix.Unix_error _ | Sys_error _) ->
                  (* store objects are recomputable: a write that fails
                     (a full disk, a shard path that is not a directory)
                     costs a later recomputation, never this result *)
                  bump_counter e store_put_failures_counter 1)
          | _ -> ());
          r)

(* The render hook handed to [Backend.run], behind the render memo.  It
   receives the post-miscompile module, which is the optimized module
   itself when no rewrite fires (its digest then comes from the identity
   ring) and is digested on its own otherwise; [idigest] is the input's
   digest from [run]'s key.  Targets whose configurations and rewrites
   produce one module render it once per input.  Images are never
   mutated once rendered, so every run result may share one.  The lookup
   is clocked with the render. *)
let compiled_render e clock idigest m input =
  clock_into clock render_stage
    (fun m ->
      memo e e.render_memo
        ~hit:(fun _ -> e.compile_hits <- e.compile_hits + 1)
        ~computed:(fun _ -> e.compiles <- e.compiles + 1)
        ~keep:Option.some ~cached:Fun.id (Digest.of_module m, idigest)
        (fun () -> Compile.render_batch (Compile.lower m) input))
    m

(* A pipeline the engine ran under TV: its outcome, and the blame if the
   pipeline did not crash, merged with the entry already in the table (a
   racing domain's, or one a run stored).  An optimized module already in
   the table is kept, so every consumer shares one value (and its digest
   by identity), and a blame already known survives an entry that lacks
   it. *)
let record_pipeline e key ?blame outcome =
  locked e (fun () ->
      let entry =
        match Lru.find e.pipeline_memo key with
        | Some { outcome = Ok m; blame = known } ->
            let blame = if Option.is_some blame then blame else known in
            { outcome = Ok m; blame }
        | Some _ | None -> { outcome; blame }
      in
      Lru.set e.pipeline_memo key entry;
      bump_counter_locked e pipeline_runs_counter 1)

let pipeline_key (t : Compilers.Target.t) m =
  (Compilers.Target.config_key t, Digest.of_module m)

(* The optimize and validate hooks handed to [Backend.run] and
   [Backend.compile].  The optimizer's outcome on the module of [key]:
   any entry for the key answers, whichever consumer stored it.  The
   verdict is a function of the optimized module alone, so it is keyed by
   that module's digest and computed once per distinct module, whichever
   configuration, run or probe produced it first.  Only the work on a
   miss is clocked, to [optimize_miss_stage] and [validate_stage]. *)
let memo_optimize e clock (t : Compilers.Target.t) key (m : Module_ir.t) :
    (Module_ir.t, string) result =
  memo e e.pipeline_memo
    ~hit:(fun _ -> bump_counter_locked e pipeline_hits_counter 1)
    ~computed:(fun dt ->
      clock := (optimize_miss_stage, dt) :: !clock;
      bump_counter_locked e pipeline_runs_counter 1)
    ~keep:(fun outcome -> Some { outcome; blame = None })
    ~cached:(fun entry -> entry.outcome)
    key
    (fun () -> Compilers.Backend.target_optimize t m)

let memo_validate e clock (optimized : Module_ir.t) =
  memo e e.verdict_memo ~hit:ignore
    ~computed:(fun dt -> clock := (validate_stage, dt) :: !clock)
    ~keep:Option.some ~cached:Fun.id (Digest.of_module optimized)
    (fun () -> Validate.check optimized)

let run e (t : Compilers.Target.t) (m : Module_ir.t) (input : Input.t) :
    Compilers.Backend.run_result =
  let clock = ref [] in
  let idigest = Digest.of_input input in
  memo e e.memo
    ~disk:(run_store_key, Run_codec.decode_run, Run_codec.encode_run)
    ~hit:(function
      | `Memory -> e.cache_hits <- e.cache_hits + 1
      | `Disk -> e.store_hits <- e.store_hits + 1)
    ~computed:(fun dt ->
      let did = (Domain.self () :> int) in
      e.runs_executed <- e.runs_executed + 1;
      Hashtbl.replace e.domain_runs did
        (1 + Option.value ~default:0 (Hashtbl.find_opt e.domain_runs did));
      add_stage_locked e execute_stage dt;
      bill_locked e clock)
    ~keep:Option.some ~cached:Fun.id
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

(* A staged probe of [crashes_with]: [probe clock] is the crash signature,
   if any, of the stages it runs, billed to [execute_stage] like a run,
   with the nested stages its hooks put on [clock] *)
let staged_probe e probe =
  let clock = ref [] in
  let crash, dt = time probe clock in
  locked e (fun () ->
      add_stage_locked e execute_stage dt;
      bill_locked e clock);
  crash

(* The front end's crash signature, clocked to [front_stage] too.  It is
   recomputed on every probe: the front end's triggers cost less than
   digesting the probe's fresh candidate to look them up. *)
let front_end_crash e (t : Compilers.Target.t) m =
  staged_probe e (fun clock -> clock_into clock front_stage (backend_front_end t) m)

(* The compile stage's crash signature, if any, of a module that passed
   the front end, through the pipeline and verdict memos' hooks: a module
   a run has already compiled costs only its [After_opt] triggers and
   the optimized module's digest. *)
let compile_crash e (t : Compilers.Target.t) m =
  let key = pipeline_key t m in
  staged_probe e (fun clock ->
      backend_compile ~optimize:(memo_optimize e clock t key)
        ~validate:(memo_validate e clock) t m
      |> Result.fold ~ok:(fun _ -> None) ~error:Option.some)

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
  memo e e.pipeline_memo
    ~disk:
      ( opt_store_key,
        (fun s -> Option.map clean_entry (Run_codec.decode_module s)),
        fun entry -> Run_codec.encode_module (Result.get_ok entry.outcome) )
    ~hit:(fun _ -> e.opt_hits <- e.opt_hits + 1)
    ~computed:(fun dt ->
      e.opt_runs <- e.opt_runs + 1;
      add_stage_locked e optimize_stage dt)
    ~keep:(fun r -> Option.map clean_entry (Result.to_option r))
    ~cached:(fun entry -> entry.outcome)
    (clean_config, Digest.of_module m)
    (fun () -> Compilers.Optimizer.optimize m)

let count_tv_check (e : t) ~hit =
  e.tv_checks <- e.tv_checks + 1;
  if hit then e.tv_hits <- e.tv_hits + 1

(** Memoized translation validation, keyed by the (before, after) module
    digest pair through memory and then the disk store.  Verdict soundness
    under memoization: {!Compilers.Tv.check_pass} is a deterministic
    function of the two modules, the codec round-trips exactly, and
    content-addressing makes the digest pair a faithful key — so a cached
    verdict is the verdict.  Equal digests short-circuit to [Equivalent]
    (a pass that changed nothing proved itself). *)
let tv_check e ~(before : Module_ir.t) ~(after : Module_ir.t) :
    Compilers.Tv.verdict =
  let d1 = Digest.of_module before in
  let d2 = Digest.of_module after in
  if String.equal d1 d2 then begin
    locked e (fun () -> count_tv_check e ~hit:true);
    Compilers.Tv.Equivalent
  end
  else
    let proofs = ref 0 in
    let v =
      memo e e.tv_memo
        ~disk:(tv_store_key, Run_codec.decode_verdict, Run_codec.encode_verdict)
        ~hit:(fun _ -> count_tv_check e ~hit:true)
        ~computed:(fun dt ->
          count_tv_check e ~hit:false;
          add_stage_locked e tv_stage dt;
          (* fresh computes only: a memoized verdict re-proves nothing *)
          if !proofs > 0 then bump_counter_locked e "mem-proofs" !proofs)
        ~keep:Option.some ~cached:Fun.id (d1, d2)
        (fun () ->
          let v, n = Compilers.Tv.check_pass_counted before after in
          proofs := n;
          v)
    in
    (* bucket abstentions, memoized or not, by their structured Symval
       reason (the payload's label prefix) *)
    Option.iter
      (fun label -> bump_counter e ("tv-abstain:" ^ label) 1)
      (Compilers.Tv.abstain_label v);
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
        bump_counter e pipeline_hits_counter 1;
        Error signature
    | Some { blame = Some guilty; _ } ->
        bump_counter e pipeline_hits_counter 1;
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

(* The fuzzer's result for a generation key, behind the generation memo;
   the fuzzer is deterministic and its result immutable, so a racing
   duplicate run is harmless.  A reference engine keeps no result, so it
   runs the fuzzer every time. *)
let fuzz e ~key run =
  memo e e.generation_memo
    ~hit:(fun _ -> bump_counter_locked e generation_hits_counter 1)
    ~computed:(fun _ -> bump_counter_locked e generation_runs_counter 1)
    ~keep:(if e.use_compiled then Option.some else fun _ -> None)
    ~cached:Fun.id key run

let timed e ~stage f =
  let r, dt = time f () in
  locked e (fun () -> add_stage_locked e stage dt);
  r

let stats e : stats =
  locked e (fun () ->
      let runs_saved = e.cache_hits + e.baseline_hits + e.store_hits in
      let looked_up = runs_saved + e.runs_executed in
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
          + Lru.length e.verdict_memo + Lru.length e.generation_memo;
        memo_capacity = Lru.capacity e.memo;
        memo_evictions =
          Lru.evictions e.memo + Lru.evictions e.tv_memo
          + Lru.evictions e.render_memo + Lru.evictions e.pipeline_memo
          + Lru.evictions e.verdict_memo
          + Lru.evictions e.generation_memo;
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
let generation_runs s = counter s generation_runs_counter
let generation_hits s = counter s generation_hits_counter

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
