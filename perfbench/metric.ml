(* Metric values, sample statistics and the per-run result every workload
   returns. *)

type t = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let count name n = m name "count" (float_of_int n)
let ratio name num den = m name "ratio" (if den = 0.0 then 0.0 else num /. den)

(* nearest-rank percentile; sorts a copy *)
let percentile xs p =
  let xs = Array.copy xs in
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    Array.sort compare xs;
    xs.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
  end

(* Every end-to-end timing is CPU time, user plus system, rescaled to a
   reference host speed (see Calib); serve's status latency is wall time,
   rescaled the same way.  The work timed is single-threaded and blocks on
   nothing, so its CPU time equals its wall time on an idle host; on a
   shared one CPU time leaves out the time the process waited for a
   processor (run queue, stolen vCPU time). *)

(* CPU seconds of this process so far *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds of every live thread of another process, summed from the
   nanosecond counters in /proc/PID/task/TID/schedstat *)
let process_cpu pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      let ic = open_in (Printf.sprintf "%s/%s/schedstat" dir tid) in
      let ns = Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          Scanf.sscanf (input_line ic) "%f" Fun.id) in
      acc +. (ns /. 1e9))
    0.0 (Sys.readdir dir)

(* VmHWM of a process, in MB *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) go in
  float_of_int kb /. 1024.0

(* where runs leave their traces and the serve daemon's store: inside the
   checkout, and ignored by git *)
let work_path name =
  (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.concat ".perfbench" name

(* ---- engine statistics, shared by the in-process workloads and serve ---- *)

let counter_sum (s : Harness.Engine.stats) prefix =
  List.fold_left
    (fun acc (k, v) -> if String.starts_with ~prefix k then acc + v else acc)
    0 s.Harness.Engine.counters

let engine_metrics (s : Harness.Engine.stats) =
  let f = float_of_int in
  Harness.Engine.
    [
      count "engine.runs_executed" s.runs_executed;
      count "engine.memo_hits" s.cache_hits;
      count "engine.baseline_hits" s.baseline_hits;
      ratio "engine.hit_rate" (f s.runs_saved) (f (s.runs_saved + s.runs_executed));
      count "engine.memo_evictions" s.memo_evictions;
      count "compile.lowered" s.compiles;
      ratio "compile.hit_rate" (f s.compile_hits) (f (s.compiles + s.compile_hits));
      count "optimize.runs" s.opt_runs;
      ratio "optimize.hit_rate" (f s.opt_hits) (f (s.opt_runs + s.opt_hits));
      count "tv.checks" s.tv_checks;
      ratio "tv.hit_rate" (f s.tv_hits) (f s.tv_checks);
      count "tv.abstains" (counter_sum s "tv-abstain:");
      count "tv.mem_proofs" (counter_sum s "mem-proofs");
      count "generate.applied" (counter_sum s "applied/");
      ratio "generate.applied_share"
        (f (counter_sum s "applied/")) (f (counter_sum s "proposed/"));
    ]

(* field by field [op b a] over the counters of two engine snapshots *)
let stats_zip op fop (a : Harness.Engine.stats) (b : Harness.Engine.stats) =
  let get k xs = Option.value ~default:0 (List.assoc_opt k xs) in
  let keys = List.sort_uniq String.compare (List.map fst a.counters @ List.map fst b.counters) in
  Harness.Engine.
    {
      b with
      runs_executed = op b.runs_executed a.runs_executed;
      cache_hits = op b.cache_hits a.cache_hits;
      baseline_hits = op b.baseline_hits a.baseline_hits;
      opt_runs = op b.opt_runs a.opt_runs;
      opt_hits = op b.opt_hits a.opt_hits;
      store_hits = op b.store_hits a.store_hits;
      store_writes = op b.store_writes a.store_writes;
      tv_checks = op b.tv_checks a.tv_checks;
      tv_hits = op b.tv_hits a.tv_hits;
      compiles = op b.compiles a.compiles;
      compile_hits = op b.compile_hits a.compile_hits;
      memo_evictions = op b.memo_evictions a.memo_evictions;
      runs_saved = op b.runs_saved a.runs_saved;
      execute_wall = fop b.execute_wall a.execute_wall;
      counters = List.map (fun k -> (k, op (get k b.counters) (get k a.counters))) keys;
    }

(* the engine counters only ever grow within a run, so a delta is taken
   field by field against the snapshot at the start of the timed phase *)
let stats_delta = stats_zip ( - ) ( -. )
let stats_sum = stats_zip ( + ) ( +. )

type result = {
  attempted : int;
  failed : int;
  setup_s : float;
  throughput : float;  (** units completed per second of the timed phase *)
  latencies : float array;  (** one per unit, seconds *)
  peak_rss : float;  (** MB *)
  per_layer : t list;
}

let end_to_end r =
  [
    m "setup_s" "s" r.setup_s;
    m "throughput" "1/s" r.throughput;
    m "latency_p50_ms" "ms" (1000.0 *. percentile r.latencies 0.5);
    m "latency_p90_ms" "ms" (1000.0 *. percentile r.latencies 0.9);
  ]

let to_json ms =
  let open Tbct_service.Json in
  Obj
    (List.map
       (fun x -> (x.name, Obj [ ("value", Float x.value); ("unit", Str x.unit_) ]))
       ms)
