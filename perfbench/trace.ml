(* In-memory span recorder for the traced run.

   A span is one call from the benchmark into a layer's public function.
   It records its name, the layer it is credited to, its start and end,
   its parent span, the engine-statistics delta over its interval (stage
   clocks and counters) and the time the recorder itself spent opening and
   closing it.  Spans live in memory and are written out once, when the
   run ends.  With tracing off, [span] only calls its
   thunk, so the end-to-end runs pay nothing for it. *)

open Harness

(* the engine stage clocks, and the layer each one is credited to *)
let stage_layers =
  [ ("execute", "spirv_ir"); ("optimize", "compilers"); ("tv", "compilers") ]

(* the engine counters a span carries as deltas *)
let counter_names =
  [| "runs_executed"; "cache_hits"; "baseline_hits"; "opt_runs"; "opt_hits";
     "tv_checks"; "tv_hits"; "compiles"; "compile_hits" |]

type snapshot = { stages : float array; counters : int array }

let snapshot (s : Engine.stats) =
  let stage name = Option.value ~default:0.0 (List.assoc_opt name s.Engine.stages) in
  {
    stages = Array.of_list (List.map (fun (n, _) -> stage n) stage_layers);
    counters =
      Engine.
        [| s.runs_executed; s.cache_hits; s.baseline_hits; s.opt_runs;
           s.opt_hits; s.tv_checks; s.tv_hits; s.compiles; s.compile_hits |];
  }

type span = {
  id : int;
  parent : int;  (** -1 for the root *)
  name : string;
  layer : string;
      (** the layer the span's self time is credited to; [""] when the
          call mixes several layers that no clock in the program separates,
          so its self time is unattributed *)
  t0 : float;
  t1 : float;
  stage_delta : float array;
  counter_delta : int array;
  overhead : float;
      (** recorder seconds spent opening and closing this span, engine
          snapshots included: inside the parent's interval, outside this
          span's *)
}

type t = {
  enabled : bool;
  run_id : int;
  stats : unit -> snapshot;
  mutable spans : span list;
  mutable stack : int list;
  mutable next : int;
  mutable overhead : float;  (** seconds spent in the recorder itself *)
}

let create ~enabled ~run_id stats =
  { enabled; run_id; stats; spans = []; stack = []; next = 0; overhead = 0.0 }

let span tr ~name ~layer f =
  if not tr.enabled then f ()
  else begin
    let o0 = Unix.gettimeofday () in
    let id = tr.next in
    tr.next <- id + 1;
    let parent = match tr.stack with p :: _ -> p | [] -> -1 in
    tr.stack <- id :: tr.stack;
    let before = tr.stats () in
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      let after = tr.stats () in
      tr.stack <- List.tl tr.stack;
      let stage_delta = Array.mapi (fun i a -> a -. before.stages.(i)) after.stages
      and counter_delta = Array.mapi (fun i a -> a - before.counters.(i)) after.counters in
      let overhead = t0 -. o0 +. (Unix.gettimeofday () -. t1) in
      tr.overhead <- tr.overhead +. overhead;
      tr.spans <-
        { id; parent; name; layer; t0; t1; stage_delta; counter_delta; overhead }
        :: tr.spans
    in
    Fun.protect ~finally:close f
  end

let spans tr = List.rev tr.spans

(* ------------------------------------------------------------------ *)
(* Attribution                                                          *)

type attribution = {
  root_s : float;
  layer_self : (string * float) list;  (** seconds per layer, sorted *)
  name_self : (string * float) list;   (** self seconds per span name *)
  stage_self : (string * float) list;  (** stage-clock seconds per stage *)
  unattributed_s : float;
}

(* Self time is a span's duration minus its children, minus the recorder's
   time around each child and minus the stage clocks that ran inside it
   but outside every child; each stage clock is credited to its own layer,
   and the recorder's time to no layer.  (The root's own recorder time
   lies outside the root.)  Whatever is left of a span credited to no
   layer, and of the root, is unattributed. *)
let attribute tr =
  let spans = spans tr in
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  let layers = Hashtbl.create 8 and names = Hashtbl.create 16
  and stages = Hashtbl.create 4 in
  let unattributed = ref 0.0 in
  let nst = List.length stage_layers in
  List.iter
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      let own_stage =
        Array.init nst (fun i ->
            List.fold_left (fun acc k -> acc -. k.stage_delta.(i))
              s.stage_delta.(i) kids)
      in
      List.iteri
        (fun i (stage, layer) ->
          add layers layer own_stage.(i);
          add stages stage own_stage.(i))
        stage_layers;
      let self =
        List.fold_left (fun acc k -> acc -. (k.t1 -. k.t0) -. k.overhead) (s.t1 -. s.t0) kids
        -. Array.fold_left ( +. ) 0.0 own_stage
      in
      add names s.name self;
      if s.layer = "" then unattributed := !unattributed +. self
      else add layers s.layer self)
    spans;
  let sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let root_s =
    List.fold_left
      (fun acc s -> if s.parent = -1 then acc +. (s.t1 -. s.t0) else acc)
      0.0 spans
  in
  {
    root_s;
    layer_self = sorted layers;
    name_self = sorted names;
    stage_self = sorted stages;
    unattributed_s = !unattributed;
  }

(* one JSON object per span *)
let write tr path =
  let oc = open_out path in
  List.iter
    (fun s ->
      let open Tbct_service.Json in
      let fields =
        [
          ("run", Int tr.run_id); ("id", Int s.id); ("parent", Int s.parent);
          ("name", Str s.name); ("layer", Str s.layer);
          ("start", Float s.t0); ("end", Float s.t1); ("overhead", Float s.overhead);
          ( "stages",
            Obj (List.mapi (fun i (n, _) -> (n, Float s.stage_delta.(i))) stage_layers) );
          ( "counters",
            Obj (Array.to_list (Array.mapi (fun i n -> (n, Int s.counter_delta.(i))) counter_names)) );
        ]
      in
      output_string oc (to_string (Obj fields));
      output_char oc '\n')
    (spans tr);
  close_out oc
