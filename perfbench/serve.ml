(* The serve workload: [rounds] rounds, each a `tbct serve --domains 1`
   daemon on a fresh store loaded by one client process with two
   connections.  The first connection submits a burst of mixed jobs and
   fetches their hits; the second sends `status` probes open-loop,
   pipelined, each timed from its due time.  Every job's hits must equal a
   batch run of the same spec. *)

open Harness
open Metric
module Json = Tbct_service.Json
module Protocol = Tbct_service.Protocol
module Client = Tbct_service.Client

let now = Unix.gettimeofday

(* One daemon domain.  With two, on a 2-vCPU host shared with other
   tenants, the same seed's throughput spread was about 5 times wider
   (lock-holder preemption on the engine and store mutexes), which no
   run length tamed. *)
let daemon_domains = 1
(* Probes arrive as a Poisson process with this mean gap.  Evenly spaced
   probes phase-locked with the daemon's slices: a few percent of host
   speed then moved the median wait by half.  At a 50 ms gap a run took
   about 250 probes, too few for a steady median; at 10 ms it takes about
   1,000. *)
let probe_interval = 0.01

(* The timed work is split into rounds with untimed work between them:
   each round's daemon is spawned and warmed up, and after its burst the
   round's jobs are checked.  Every round runs a job mix of its own (the
   seed picks each round's target subset) on a fresh daemon. *)
let rounds = 3

(* Every serve timing is rescaled to the reference host speed (see Calib)
   by probes this process runs while the daemon is idle: [bracket_probes]
   just before and just after each burst and each round's group of set-up
   daemons.  The daemon cannot run the probes itself, and probes run during
   its work measured how much of the cache it had evicted (they took four
   times as long), not the host's speed.  The run is pinned to one CPU (see
   run.py): unpinned, the rescaled throughput and set-up time of five seeds
   spread by 0.17 and 0.3, pinned by 0.02 and 0.12. *)
let bracket_probes = 400

let bracket calib =
  for _ = 1 to bracket_probes do
    Calib.probe calib
  done

(* [setup_s] is the median, over [setup_samples] set-up-only daemons and
   the round's own daemon in every round, of the daemon's CPU time from
   spawn on an empty store to the end of [first_spec], its first job.
   The daemon forces the corpus and lowers the -O references inside the
   first job it runs, so set-up ends when that job is done.  Spawn to the
   first reply alone is about 3 ms of CPU, most of it process start; a
   four-seed job (about 60 ms) makes the sample mostly the daemon's own
   set-up and first work, steady within about 8 % sample to sample, where a
   one-seed job (20 ms) varied by a quarter. *)
let setup_samples = 3

(* The daemon fills the rest of its baseline cache lazily, inside the
   first slices of whatever job it runs next; measured inside the burst,
   this made status latency swing with when those slices ran.  So a
   round's daemon then runs an untimed warm-up job that visits every
   (target, reference) pair once: spirv-fuzz over one seed per reference.
   Its non-default weights make its variants, and the first job's, differ
   from the timed jobs', so only that lazy work, not the measured work, is
   warm afterwards. *)
let warmup_spec =
  {
    Protocol.sub_tool = Pipeline.Spirv_fuzz_tool;
    sub_seeds = List.length (Experiments.references_for Pipeline.Spirv_fuzz_tool);
    sub_targets = [];
    sub_weights = "control_flow=3";
    sub_tv = false;
  }

let first_spec = { warmup_spec with Protocol.sub_seeds = 4 }

(* ---- the job mix ---- *)

(* One full-target job per tool, then a spirv-fuzz job on a subset of four
   targets and an exact duplicate of each of the two full spirv jobs.
   Campaign seeds are 0..N-1 for every job (the daemon's contract); the
   workload seed picks each round's subset: three rendering targets and
   one that only compiles.  The order is fixed, with the subset job after
   the full spirv-fuzz job, so its runs are served from the memo whichever
   targets it holds.  A status probe waits out the current slice, so the
   latency median follows the slice lengths of the mix: when the seed also
   picked the order and which spirv job to duplicate, the median of one
   seed repeated within 0.05 while seeds differed by a third, and with one
   subset for all three rounds five seeds' throughput spread by 0.16, with
   one per round by 0.05. *)
let job_mix ~derive ~seconds ~round =
  let r = derive ~stream:4 in
  let spec tool targets =
    { Protocol.sub_tool = tool; sub_seeds = 25 * seconds / rounds; sub_targets = targets;
      sub_weights = ""; sub_tv = false }
  in
  let draw k xs =
    (* k distinct elements, in their original order *)
    let a = Array.of_list xs in
    for i = 0 to k - 1 do
      let j = i + (r ((1000 * round) + 100 + (10 * k) + i) mod (Array.length a - i)) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    List.filter (fun x -> Array.mem x (Array.sub a 0 k)) xs
  in
  let rendering, compiling =
    List.partition (fun (t : Compilers.Target.t) -> t.Compilers.Target.executes)
      Compilers.Target.all
  in
  let subset =
    List.filter
      (fun t -> List.memq t (draw 3 rendering @ draw 1 compiling))
      Compilers.Target.all
    |> List.map (fun (t : Compilers.Target.t) -> t.Compilers.Target.name)
  in
  let full = List.map (fun t -> spec t []) [ Pipeline.Spirv_fuzz_tool; Pipeline.Spirv_fuzz_simple ] in
  (spec Pipeline.Glsl_fuzz_tool [] :: full)
  @ (spec Pipeline.Spirv_fuzz_tool subset :: full)

(* ---- the daemon ---- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

type daemon = { pid : int; socket : string; store : string }

(* daemons not yet stopped; killed and reaped if the run fails *)
let live = ref []

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid : int * Unix.process_status)
      with Unix.Unix_error _ -> ())
    !live;
  live := []

let request conn req =
  match Client.request conn req with
  | Ok reply when Json.mem_bool "ok" reply = Some true -> Ok reply
  | Ok reply ->
      Error (Option.value ~default:"request refused" (Json.mem_str "error" reply))
  | Error e -> Error e

(* remove the run's daemon directories and wait for the file system to
   write back, so this run's deleted stores do not slow the next run's I/O.
   This runs once, at the end: a daemon started just after a large store
   was deleted wrote its own store in about half the usual time, which made
   [setup_s] bimodal. *)
let discard dir =
  rm_rf dir;
  if Sys.command "sync" <> 0 then failwith "sync failed"

let stop d conn =
  ignore (request conn Protocol.Shutdown : (Json.t, string) Stdlib.result);
  Client.close conn;
  ignore (Unix.waitpid [] d.pid : int * Unix.process_status);
  live := List.filter (( <> ) d.pid) !live

(* spawn on an empty store in the new directory [dir], run the first job
   and, if [warm], the warm-up job; returns the daemon, a connection and
   the daemon's CPU seconds from spawn to the first job's end.  The
   previous daemon's store is written back first: a daemon spawned while
   that write-back ran took half as long again to set up. *)
let start ~tbct ~dir ~warm =
  if Sys.command "sync" <> 0 then failwith "sync failed";
  Unix.mkdir dir 0o755;
  let store = Filename.concat dir "store" and socket = Filename.concat dir "d.sock" in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let t0 = now () in
  let pid =
    Unix.create_process tbct
      [| tbct; "serve"; "--store"; store; "--socket"; socket;
         "--domains"; string_of_int daemon_domains |]
      Unix.stdin log log
  in
  Unix.close log;
  live := pid :: !live;
  let d = { pid; socket; store } in
  let rec connect () =
    if now () -. t0 > 60.0 then failwith "daemon did not answer within 60 s";
    match Client.connect ~path:socket with
    | Error _ ->
        Unix.sleepf 0.0002;
        connect ()
    | Ok conn -> (
        match request conn Protocol.Ping with
        | Ok _ -> conn
        | Error _ ->
            Client.close conn;
            Unix.sleepf 0.0002;
            connect ())
  in
  let conn = connect () in
  let run_job spec =
    let id =
      match request conn (Protocol.Submit spec) with
      | Ok reply -> Option.get (Json.mem_str "job" reply)
      | Error e -> failwith ("set-up submit refused: " ^ e)
    in
    (* attached, not polled: polling would add CPU time to the daemon's
       set-up in proportion to how long it took *)
    match Client.stream conn (Protocol.Attach id) ~on_event:ignore with
    | Ok last when Json.mem_str "state" last = Some "done" -> ()
    | Ok _ -> failwith "set-up job did not finish"
    | Error e -> failwith ("set-up job: " ^ e)
  in
  run_job first_spec;
  let setup_cpu = process_cpu pid in
  if warm then run_job warmup_spec;
  (d, conn, setup_cpu)

let setup_sample ~tbct ~dir =
  let d, conn, s = start ~tbct ~dir ~warm:false in
  stop d conn;
  s

(* ---- the open-loop status prober ---- *)

type probe_log = {
  submitted : (string option * float) list;
      (** per submit, in order: the job id ([None]: refused) and when the
          reply arrived *)
  latencies : float list;  (** seconds from due time to reply *)
  late : float list;  (** seconds each probe was sent after its due time *)
  rtts : (float * float * Json.t) list;  (** send, reply, reply body *)
  finished_at : float;  (** the first reply showing every job terminal *)
  last : Json.t;  (** that reply *)
  refused : int;  (** replies that were not [ok], or not JSON *)
}

let terminal j = match Json.mem_str "state" j with Some ("done" | "cancelled") -> true | _ -> false

let all_terminal reply =
  match Option.bind (Json.member "jobs" reply) Json.to_list with
  | Some (_ :: _ as jobs) -> List.for_all terminal jobs
  | _ -> false

(* The burst's submits go out at [t_start], all at once and ahead of the
   probes on the same connection, so the daemon takes them in one read and
   every status reply comes after them.  Waiting for each submit's reply
   before probing held the first probes back by a third of a second. *)
let probe_until_done ~rng ~socket ~t_start ~deadline specs =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let send text =
    if Unix.write_substring fd text 0 (String.length text) <> String.length text then
      failwith "short write to the daemon"
  in
  let line = Protocol.encode_request (Protocol.Status None) ^ "\n" in
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let pending = Queue.create () (* (due, sent) of outstanding probes *) in
  let latencies = ref [] and late = ref [] and rtts = ref [] in
  let finished = ref None and refused = ref 0 in
  let submits_left = ref (List.length specs) and submitted = ref [] in
  let due = ref t_start in
  let handle_submit text t =
    decr submits_left;
    let id =
      match Json.of_string text with
      | Ok reply when Json.mem_bool "ok" reply = Some true -> Json.mem_str "job" reply
      | Ok reply ->
          Printf.eprintf "submit refused: %s\n%!"
            (Option.value ~default:"no error given" (Json.mem_str "error" reply));
          None
      | Error e ->
          Printf.eprintf "bad submit reply: %s\n%!" e;
          None
    in
    if id = None then incr refused;
    submitted := (id, t) :: !submitted
  in
  let handle_reply text t =
    if !submits_left > 0 then handle_submit text t else
    let due, sent = Queue.pop pending in
    latencies := (t -. due) :: !latencies;
    match Json.of_string text with
    | Ok reply when Json.mem_bool "ok" reply = Some true ->
        rtts := (sent, t, reply) :: !rtts;
        if !finished = None && all_terminal reply then finished := Some (t, reply)
    | Ok reply ->
        Printf.eprintf "status refused: %s\n%!"
          (Option.value ~default:"no error given" (Json.mem_str "error" reply));
        incr refused
    | Error e ->
        Printf.eprintf "bad status reply: %s\n%!" e;
        incr refused
  in
  send
    (String.concat ""
       (List.map (fun spec -> Protocol.encode_request (Protocol.Submit spec) ^ "\n") specs));
  while !finished = None || not (Queue.is_empty pending) do
    if now () > deadline then failwith "serve jobs did not finish in time";
    let t = now () in
    if !finished = None && t >= !due then begin
      send line;
      late := (t -. !due) :: !late;
      Queue.push (!due, t) pending;
      due := !due -. (probe_interval *. log (1.0 -. Random.State.float rng 1.0))
    end
    else begin
      let timeout = if !finished = None then Float.max 0.0 (!due -. t) else 1.0 in
      match Unix.select [ fd ] [] [] timeout with
      | [], _, _ -> ()
      | _ ->
          let k = Unix.read fd chunk 0 (Bytes.length chunk) in
          if k = 0 then failwith "daemon closed the probe connection";
          let t = now () in
          Buffer.add_subbytes buf chunk 0 k;
          let parts = String.split_on_char '\n' (Buffer.contents buf) in
          let rec go = function
            | [ tail ] ->
                Buffer.clear buf;
                Buffer.add_string buf tail
            | l :: rest ->
                handle_reply l t;
                go rest
            | [] -> ()
          in
          go parts
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  Unix.close fd;
  let finished_at, last = Option.get !finished in
  { submitted = List.rev !submitted; latencies = List.rev !latencies; late = List.rev !late;
    rtts = List.rev !rtts; finished_at; last; refused = !refused }

(* ---- the batch reference ---- *)

let batch_hits pool (s : Protocol.submit_spec) =
  let targets =
    match s.Protocol.sub_targets with
    | [] -> Compilers.Target.all
    | names -> List.filter_map Compilers.Target.find names
  in
  Experiments.run_campaign
    ~scale:{ Experiments.default_scale with seeds = s.Protocol.sub_seeds }
    ~targets ~pool ~engine:(Engine.create ()) ~tv:s.Protocol.sub_tv s.Protocol.sub_tool
  |> List.map Persist.hit_line

(* ---- the workload ---- *)

let int_field name j = Option.value ~default:0 (Json.mem_int name j)

let float_field name j =
  match Json.member name j with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> 0.0

(* the daemon's engine statistics, from the "engine" object of a status
   reply, in the shape Engine.stats has in-process *)
let engine_stats reply : Engine.stats =
  let e = Option.value ~default:(Json.Obj []) (Json.member "engine" reply) in
  let i name = int_field name e in
  let execute_wall = float_field "execute_wall" e in
  {
    Engine.runs_executed = i "runs_executed"; cache_hits = i "cache_hits";
    baseline_hits = i "baseline_hits"; opt_runs = i "opt_runs"; opt_hits = i "opt_hits";
    store_hits = i "store_hits"; store_writes = i "store_writes";
    tv_checks = i "tv_checks"; tv_hits = i "tv_hits";
    compiles = i "compiles"; compile_hits = i "compile_hits";
    memo_entries = i "memo_entries"; memo_capacity = 0;
    memo_evictions = i "memo_evictions"; runs_saved = i "runs_saved";
    hit_rate = float_field "hit_rate" e; execute_wall;
    stages = [ ("execute", execute_wall) ]; per_domain_runs = [];
    counters =
      (match Json.member "counters" e with
      | Some (Json.Obj kvs) ->
          List.map (fun (k, v) -> (k, Option.value ~default:0 (Json.to_int v))) kvs
      | _ -> []);
  }

(* one traced protocol request, timed on the client *)
type request_span = { r_name : string; r_sent : float; r_reply : float; r_execute : float }

let timed_request spans name conn req =
  let sent = now () in
  let r = request conn req in
  spans := { r_name = name; r_sent = sent; r_reply = now (); r_execute = 0.0 } :: !spans;
  r

(* spans in the same format as Trace.write: per round a root over the
   session, from the first submit to the last hits reply, and one child
   per protocol request; [status] spans carry the daemon's execute-clock
   delta since the previous reply *)
let write_trace ~seed sessions =
  let oc = open_out (work_path (Printf.sprintf "trace-serve-%d.jsonl" seed)) in
  let next = ref 0 in
  let line ~parent ~name ~start ~end_ ~execute =
    let id = !next in
    incr next;
    output_string oc
      (Json.to_string
         (Json.Obj
            [
              ("run", Json.Int seed); ("id", Json.Int id); ("parent", Json.Int parent);
              ("name", Json.Str name); ("layer", Json.Str (if parent < 0 then "" else "service"));
              ("start", Json.Float start); ("end", Json.Float end_);
              ("stages", Json.Obj [ ("execute", Json.Float execute) ]);
            ]));
    output_char oc '\n';
    id
  in
  List.iter
    (fun ((t0, t1), spans) ->
      let root = line ~parent:(-1) ~name:"session" ~start:t0 ~end_:t1 ~execute:0.0 in
      List.iter
        (fun r ->
          ignore
            (line ~parent:root ~name:r.r_name ~start:r.r_sent ~end_:r.r_reply
               ~execute:r.r_execute
              : int))
        (List.sort (fun a b -> compare a.r_sent b.r_sent) spans))
    sessions;
  close_out oc

type round = {
  wall : float;  (** first submit to the first status showing every job done *)
  cpu : float;
      (** the daemon's CPU seconds over the same interval, at the reference
          host speed *)
  latencies : float list;  (** status latencies at the reference host speed *)
  setup : float;  (** this round's daemon: spawn to warm-up done *)
  seeds_done : int;
  jobs : Json.t list;  (** the final status of the round's jobs *)
  job_hits : string list option list;  (** per spec; [None]: not completed *)
  probes : probe_log;
  engine : Engine.stats;  (** the daemon's engine over the burst *)
  cas_objects : int;
  cas_bytes : int;
  cross_job_memo_hits : int;
  daemon_rss : float;
  failed : int;  (** refused requests *)
  session : (float * float) * request_span list;
}

let round ~tbct ~dir ~rng ~calib specs =
  let d, conn, setup = start ~tbct ~dir ~warm:true in
  let warm =
    match request conn (Protocol.Status None) with
    | Ok reply -> reply
    | Error e -> failwith ("status: " ^ e)
  in
  let cas_warm = Tbct_store.Cas.stats (Persist.open_cas ~dir:d.store ()) in
  let since = Calib.copy calib in
  bracket calib;
  let c_start = process_cpu d.pid and t_start = now () in
  let probes =
    probe_until_done ~rng ~socket:d.socket ~t_start ~deadline:(t_start +. 100.0) specs
  in
  let raw_cpu = process_cpu d.pid -. c_start in
  bracket calib;
  let factor = Calib.factor ~since calib in
  let ids = List.map fst probes.submitted in
  let spans =
    ref
      (List.map
         (fun (_, t) -> { r_name = "submit"; r_sent = t_start; r_reply = t; r_execute = 0.0 })
         probes.submitted)
  in
  let wall = probes.finished_at -. t_start in
  let daemon_rss = peak_rss_mb (string_of_int d.pid) in
  let jobs =
    Option.value ~default:[] (Option.bind (Json.member "jobs" probes.last) Json.to_list)
    |> List.filter (fun j -> List.mem (Json.mem_str "id" j) ids)
  in
  let job_hits =
    List.map
      (fun id ->
        match Option.map (fun id -> timed_request spans "hits" conn (Protocol.Hits id)) id with
        | Some (Ok reply) when Json.mem_bool "completed" reply = Some true ->
            Some
              (List.filter_map Json.to_str
                 (Option.value ~default:[]
                    (Option.bind (Json.member "hits" reply) Json.to_list)))
        | Some (Error e) ->
            Printf.eprintf "hits refused: %s\n%!" e;
            None
        | _ -> None)
      ids
  in
  let t_end = now () in
  stop d conn;
  let cas = Tbct_store.Cas.stats (Persist.open_cas ~dir:d.store ()) in
  let warm_engine = engine_stats warm in
  (* status spans, each with the execute clock's delta since the previous reply *)
  let status =
    List.rev
      (snd
         (List.fold_left
            (fun (prev, acc) (sent, reply_at, reply) ->
              let ex = (engine_stats reply).Engine.execute_wall in
              (ex, { r_name = "status"; r_sent = sent; r_reply = reply_at; r_execute = ex -. prev } :: acc))
            (warm_engine.Engine.execute_wall, []) probes.rtts))
  in
  {
    wall; cpu = raw_cpu *. factor; latencies = List.map (fun l -> l *. factor) probes.latencies;
    setup = setup *. factor;
    seeds_done = List.fold_left (fun acc j -> acc + int_field "seeds_done" j) 0 jobs;
    jobs; job_hits; probes;
    engine = stats_delta warm_engine (engine_stats probes.last);
    cas_objects = cas.Tbct_store.Cas.objects - cas_warm.Tbct_store.Cas.objects;
    cas_bytes = cas.Tbct_store.Cas.bytes - cas_warm.Tbct_store.Cas.bytes;
    cross_job_memo_hits =
      int_field "cross_job_memo_hits" probes.last - int_field "cross_job_memo_hits" warm;
    daemon_rss;
    failed = probes.refused;
    session = ((t_start, t_end), status @ !spans);
  }

let workload ~derive ~tbct ~seed ~seconds ~trace =
  if tbct = "" || not (Sys.file_exists tbct) then failwith "serve needs --tbct EXE";
  (* one directory per daemon under [root], all kept until the run ends *)
  let root = work_path (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  rm_rf root;
  Unix.mkdir root 0o755;
  let daemons = ref 0 in
  let fresh () =
    incr daemons;
    Filename.concat root (string_of_int !daemons)
  in
  Fun.protect
    ~finally:(fun () ->
      kill_live ();
      discard root)
  @@ fun () ->
  let mixes = List.init rounds (fun round -> job_mix ~derive:(derive ~seed) ~seconds ~round) in
  let jobs_per_round = List.length (List.hd mixes) in
  let rng = Random.State.make [| derive ~seed ~stream:5 0 |] in
  let reference = Hashtbl.create 8 in
  let failed = ref 0 and setups = ref [] and calib = Calib.create () in
  let rs =
    List.map (fun specs ->
        let since = Calib.copy calib in
        bracket calib;
        let raw = List.init setup_samples (fun _ -> setup_sample ~tbct ~dir:(fresh ())) in
        bracket calib;
        let f = Calib.factor ~since calib in
        setups := List.map (fun s -> s *. f) raw @ !setups;
        let r = round ~tbct ~dir:(fresh ()) ~rng ~calib specs in
        setups := r.setup :: !setups;
        (* checks, after the daemon stopped: every job done, and its hits
           equal a batch run of the same spec *)
        failed := !failed + r.failed;
        List.iter (fun j -> if Json.mem_str "state" j <> Some "done" then incr failed) r.jobs;
        Pool.with_pool ~workers:2 (fun pool ->
            List.iter2
              (fun spec hits ->
                let expected =
                  match Hashtbl.find_opt reference spec with
                  | Some e -> e
                  | None ->
                      let e = batch_hits pool spec in
                      Hashtbl.replace reference spec e;
                      e
                in
                if hits <> Some expected then begin
                  Printf.eprintf "a %s job's hits differ from the batch run\n%!"
                    (Pipeline.tool_name spec.Protocol.sub_tool);
                  incr failed
                end)
              specs r.job_hits);
        r)
      mixes
  in
  let setup_s = percentile (Array.of_list !setups) 0.5 in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  let wall = List.fold_left (fun acc r -> acc +. r.wall) 0.0 rs in
  let cpu = List.fold_left (fun acc r -> acc +. r.cpu) 0.0 rs in
  let seeds_done = sum (fun r -> r.seeds_done) in
  let latencies = List.concat_map (fun r -> r.latencies) rs in
  let late = List.concat_map (fun r -> r.probes.late) rs in
  let jobs = List.concat_map (fun r -> r.jobs) rs in
  let engine =
    List.fold_left (fun acc r -> stats_sum acc r.engine) (List.hd rs).engine (List.tl rs)
  in
  Printf.eprintf
    "serve: %d rounds of %d jobs, %d seeds journaled in %.3f s (daemon CPU %.3f s); \
     %d probes; setup %.4f s\n%!"
    rounds jobs_per_round seeds_done wall cpu (List.length latencies) setup_s;
  (* the traced run: the daemon's execute clock is the only layer clock
     visible from outside; store, journal and scheduler are seen through
     their counts *)
  let trace_metrics =
    if not trace then []
    else begin
      let r0 = now () in
      write_trace ~seed (List.map (fun r -> r.session) rs);
      let recorder = now () -. r0 in
      let execute_s = engine.Engine.execute_wall in
      let domain_s = wall *. float_of_int daemon_domains in
      [
        m "layer.spirv_ir.self_s" "s" execute_s;
        m "execute.self_s" "s" execute_s;
        ratio "execute.share" execute_s domain_s;
        m "trace.root_s" "s" domain_s;
        m "unattributed_s" "s" (domain_s -. execute_s);
        ratio "unattributed_share" (domain_s -. execute_s) domain_s;
        ratio "trace.overhead_share" recorder wall;
      ]
    end
  in
  {
    attempted = rounds * jobs_per_round + List.length latencies;
    failed = !failed;
    setup_s;
    throughput = float_of_int seeds_done /. cpu;
    latencies = Array.of_list latencies;
    peak_rss = List.fold_left (fun acc r -> Float.max acc r.daemon_rss) 0.0 rs;
    per_layer =
      engine_metrics engine
      @ [
          count "store.writes" (sum (fun r -> r.cas_objects));
          m "store.bytes" "B" (float_of_int (sum (fun r -> r.cas_bytes)));
          count "journal.records" seeds_done;
          count "serve.slices" (List.fold_left (fun acc j -> acc + int_field "slices" j) 0 jobs);
          count "serve.cross_job_memo_hits" (sum (fun r -> r.cross_job_memo_hits));
          count "serve.jobs_done"
            (List.length (List.filter (fun j -> Json.mem_str "state" j = Some "done") jobs));
          m "serve.generator_late_ms" "ms" (1000.0 *. percentile (Array.of_list late) 0.9);
          count "latency.samples" (List.length latencies);
        ]
      @ trace_metrics;
  }
