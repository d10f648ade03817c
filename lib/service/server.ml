(** The fleet daemon's event loop (see the interface). *)

module Jobs = Tbct_store.Jobs

type client = {
  fd : Unix.file_descr;
  mutable partial : Protocol.partial;  (* the request line read so far *)
  mutable attached : string option;  (* job id this client streams *)
  mutable alive : bool;
}

type srv = {
  sched : Scheduler.t;
  listen_fd : Unix.file_descr;
  mutable clients : client list;
  (* serializes socket writes: worker domains stream events while the
     loop thread answers requests *)
  send_mutex : Mutex.t;
  mutable draining : bool;
  mutable stopping : bool;
  tick : float;
}

(* ---------- writing ---------- *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      let w = Unix.write fd b off (n - off) in
      go (off + w)
  in
  go 0

(* A dead peer must not take the daemon down: EPIPE (SIGPIPE is ignored)
   and friends just mark the client for reaping. *)
let send srv c line =
  if c.alive then
    Mutex.protect srv.send_mutex (fun () ->
        try write_all c.fd (line ^ "\n")
        with Unix.Unix_error _ | Sys_error _ -> c.alive <- false)

let send_json srv c v = send srv c (Json.to_string v)

(* ---------- JSON views ---------- *)

let job_json j =
  Json.Obj
    [
      ("id", Json.Str (Scheduler.id j));
      ("state", Json.Str (Jobs.state_to_string (Scheduler.state j)));
      ("tool", Json.Str (Scheduler.spec j).Jobs.tool);
      ("seeds", Json.Int (Scheduler.spec j).Jobs.seeds);
      ("seeds_done", Json.Int (Scheduler.seeds_done j));
      ( "targets",
        Json.List
          (List.map (fun t -> Json.Str t) (Scheduler.spec j).Jobs.targets) );
      ("weights", Json.Str (Scheduler.spec j).Jobs.weights);
      ("tv", Json.Bool (Scheduler.spec j).Jobs.tv);
      ("hits", Json.Int (Scheduler.hits_found j));
      ("new_signatures", Json.Int (Scheduler.new_signatures j));
      ("runs_executed", Json.Int (Scheduler.runs_executed j));
      ("memo_hits", Json.Int (Scheduler.memo_hits j));
      ("cross_memo_hits", Json.Int (Scheduler.cross_memo_hits j));
      ("slices", Json.Int (Scheduler.slices j));
      ( "tv_abstains",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.Int v))
             (Scheduler.tv_abstains j)) );
      ( "error",
        match Scheduler.last_error j with
        | Some e -> Json.Str e
        | None -> Json.Null );
    ]

let engine_json (s : Harness.Engine.stats) =
  Json.Obj
    [
      ("runs_executed", Json.Int s.Harness.Engine.runs_executed);
      ("cache_hits", Json.Int s.Harness.Engine.cache_hits);
      ("baseline_hits", Json.Int s.Harness.Engine.baseline_hits);
      ("opt_runs", Json.Int s.Harness.Engine.opt_runs);
      ("opt_hits", Json.Int s.Harness.Engine.opt_hits);
      ("store_hits", Json.Int s.Harness.Engine.store_hits);
      ("store_writes", Json.Int s.Harness.Engine.store_writes);
      ("tv_checks", Json.Int s.Harness.Engine.tv_checks);
      ("tv_hits", Json.Int s.Harness.Engine.tv_hits);
      ("compiles", Json.Int s.Harness.Engine.compiles);
      ("compile_hits", Json.Int s.Harness.Engine.compile_hits);
      ("pipeline_runs", Json.Int (Harness.Engine.pipeline_runs s));
      ("pipeline_hits", Json.Int (Harness.Engine.pipeline_hits s));
      ("memo_entries", Json.Int s.Harness.Engine.memo_entries);
      ("memo_evictions", Json.Int s.Harness.Engine.memo_evictions);
      ("runs_saved", Json.Int s.Harness.Engine.runs_saved);
      ("hit_rate", Json.Float s.Harness.Engine.hit_rate);
      ("execute_wall", Json.Float s.Harness.Engine.execute_wall);
      ( "stages",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Float v)) s.Harness.Engine.stages)
      );
      ( "counters",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.Int v))
             (List.sort
                (fun (a, _) (b, _) -> String.compare a b)
                s.Harness.Engine.counters)) );
    ]

let pool_json pool =
  Json.Obj
    [
      ("workers", Json.Int (Harness.Pool.workers pool));
      ( "per_worker",
        Json.List
          (Array.to_list
             (Array.map
                (fun (w : Harness.Pool.worker_stats) ->
                  Json.Obj
                    [
                      ("tasks", Json.Int w.Harness.Pool.ws_tasks);
                      ("steals", Json.Int w.Harness.Pool.ws_steals);
                    ])
                (Harness.Pool.stats pool))) );
    ]

let daemon_json srv pool =
  Protocol.ok
    [
      ("jobs", Json.List (List.map job_json (Scheduler.jobs srv.sched)));
      ( "cross_job_memo_hits",
        Json.Int (Scheduler.cross_job_memo_hits srv.sched) );
      ("draining", Json.Bool srv.draining);
      ("engine", engine_json (Harness.Engine.stats (Scheduler.engine srv.sched)));
      ("pool", pool_json pool);
    ]

(* ---------- event streaming ---------- *)

let event_json = function
  | Scheduler.Submitted j ->
      (Scheduler.id j, Json.Obj [ ("event", Json.Str "submitted") ])
  | Scheduler.Started j ->
      (Scheduler.id j, Json.Obj [ ("event", Json.Str "started") ])
  | Scheduler.Seed_done (j, seed, nhits) ->
      ( Scheduler.id j,
        Json.Obj
          [
            ("event", Json.Str "seed");
            ("seed", Json.Int seed);
            ("hits", Json.Int nhits);
            ("seeds_done", Json.Int (Scheduler.seeds_done j));
            ("seeds", Json.Int (Scheduler.spec j).Jobs.seeds);
          ] )
  | Scheduler.Hit_found (j, h, is_new) ->
      ( Scheduler.id j,
        Json.Obj
          [
            ("event", Json.Str "hit");
            ("line", Json.Str (Harness.Persist.hit_line h));
            ("new_signature", Json.Bool is_new);
          ] )
  | Scheduler.Finished j ->
      (Scheduler.id j, Json.Obj [ ("event", Json.Str "finished") ])
  | Scheduler.Halted j ->
      ( Scheduler.id j,
        Json.Obj
          [
            ("event", Json.Str "halted");
            ( "error",
              match Scheduler.last_error j with
              | Some e -> Json.Str e
              | None -> Json.Null );
          ] )

let end_event j =
  Json.Obj
    [
      ("event", Json.Str "end");
      ("state", Json.Str (Jobs.state_to_string (Scheduler.state j)));
    ]

let broadcast srv ev =
  let jid, payload = event_json ev in
  let line = Json.to_string (match payload with
    | Json.Obj fields -> Json.Obj (("job", Json.Str jid) :: fields)
    | v -> v)
  in
  List.iter
    (fun c ->
      if c.alive && c.attached = Some jid then begin
        send srv c line;
        (* terminal event: close the stream so the client's read loop
           ends, then the connection is back to request/reply *)
        match ev with
        | Scheduler.Finished j | Scheduler.Halted j ->
            send_json srv c (end_event j);
            c.attached <- None
        | _ -> ()
      end)
    srv.clients

(* ---------- request handling ---------- *)

let handle_request srv pool c req =
  match req with
  | Protocol.Ping -> send_json srv c (Protocol.ok [ ("pong", Json.Bool true) ])
  | Protocol.Submit spec ->
      if srv.draining then
        send_json srv c (Protocol.error "daemon is draining")
      else (
        match Scheduler.submit srv.sched spec with
        | Ok j ->
            send_json srv c
              (Protocol.ok [ ("job", Json.Str (Scheduler.id j)) ])
        | Error msg -> send_json srv c (Protocol.error msg))
  | Protocol.Status None -> send_json srv c (daemon_json srv pool)
  | Protocol.Status (Some id) -> (
      match Scheduler.job srv.sched ~id with
      | Some j -> send_json srv c (Protocol.ok [ ("job", job_json j) ])
      | None ->
          send_json srv c (Protocol.error (Printf.sprintf "no such job %S" id))
      )
  | Protocol.Jobs ->
      send_json srv c
        (Protocol.ok
           [ ("jobs", Json.List (List.map job_json (Scheduler.jobs srv.sched))) ])
  | Protocol.Attach id -> (
      match Scheduler.job srv.sched ~id with
      | None ->
          send_json srv c (Protocol.error (Printf.sprintf "no such job %S" id))
      | Some j -> (
          send_json srv c (Protocol.ok [ ("job", job_json j) ]);
          match Scheduler.state j with
          | Jobs.Done | Jobs.Cancelled -> send_json srv c (end_event j)
          | Jobs.Queued | Jobs.Running -> c.attached <- Some id))
  | Protocol.Hits id -> (
      match Scheduler.job srv.sched ~id with
      | None ->
          send_json srv c (Protocol.error (Printf.sprintf "no such job %S" id))
      | Some j -> (
          match Scheduler.hits srv.sched j with
          | Error msg -> send_json srv c (Protocol.error msg)
          | Ok (hits, completed) ->
              send_json srv c
                (Protocol.ok
                   [
                     ("completed", Json.Bool completed);
                     ( "hits",
                       Json.List
                         (List.map
                            (fun h ->
                              Json.Str (Harness.Persist.hit_line h))
                            hits) );
                   ])))
  | Protocol.Cancel id -> (
      match Scheduler.cancel srv.sched ~id with
      | Ok () -> send_json srv c (Protocol.ok [])
      | Error msg -> send_json srv c (Protocol.error msg))
  | Protocol.Drain ->
      srv.draining <- true;
      send_json srv c (Protocol.ok [ ("draining", Json.Bool true) ])
  | Protocol.Shutdown ->
      send_json srv c (Protocol.ok [ ("stopping", Json.Bool true) ]);
      srv.stopping <- true;
      Scheduler.interrupt srv.sched

let handle_line srv pool c line =
  if String.trim line <> "" then
    match Protocol.parse_request line with
    | Ok req -> handle_request srv pool c req
    | Error msg -> send_json srv c (Protocol.error msg)

(* Drain whatever bytes are ready and process every line they complete.
   A client whose request line outgrows the cap is answered with an error
   and dropped: it would otherwise grow the daemon's memory without
   bound. *)
let read_chunk srv pool c =
  let chunk = Bytes.create 4096 in
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> c.alive <- false
  | n -> (
      let lines, partial =
        Protocol.frame c.partial (Bytes.sub_string chunk 0 n)
      in
      List.iter (handle_line srv pool c) lines;
      match partial with
      | Some p -> c.partial <- p
      | None ->
          send_json srv c
            (Protocol.error
               (Printf.sprintf "request line exceeds %d bytes"
                  Protocol.max_line_bytes));
          c.alive <- false)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error _ -> c.alive <- false

(* ---------- the loop ---------- *)

let reap srv =
  let dead, alive = List.partition (fun c -> not c.alive) srv.clients in
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) dead;
  srv.clients <- alive

let poll_io srv pool timeout =
  let fds = srv.listen_fd :: List.map (fun c -> c.fd) srv.clients in
  let readable, _, _ =
    try Unix.select fds [] [] timeout
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  if List.mem srv.listen_fd readable then begin
    match Unix.accept srv.listen_fd with
    | fd, _ ->
        srv.clients <-
          srv.clients
          @ [
              {
                fd;
                partial = Protocol.no_partial;
                attached = None;
                alive = true;
              };
            ]
    | exception Unix.Unix_error _ -> ()
  end;
  List.iter
    (fun c -> if List.mem c.fd readable then read_chunk srv pool c)
    srv.clients;
  reap srv

let loop srv pool =
  let finished = ref false in
  while not !finished do
    let timeout =
      if Scheduler.runnable srv.sched && not srv.stopping then 0.0
      else srv.tick
    in
    poll_io srv pool timeout;
    if srv.stopping || Scheduler.interrupted srv.sched then finished := true
    else if Scheduler.runnable srv.sched then
      ignore (Scheduler.step srv.sched : [ `Idle | `Sliced of _ | `Finished of _ | `Halted of _ ])
    else if srv.draining then finished := true
  done

(* ---------- entry point ---------- *)

let bind_socket path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* a stale socket file from a dead daemon would make bind fail *)
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  match
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 16
  with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot bind socket %s: %s" path
           (Unix.error_message e))

let run ?(fsync = false) ?(quantum = 8) ?(tick = 0.2) ~root ~socket ~domains
    () =
  match bind_socket socket with
  | Error _ as e -> e
  | Ok listen_fd ->
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          try Unix.unlink socket with Unix.Unix_error _ -> ())
        (fun () ->
          Harness.Pool.with_pool ~workers:domains (fun pool ->
              (* the scheduler needs the event callback at create time and
                 the callback needs the server record: tie the knot *)
              let srv_ref = ref None in
              let on_event ev =
                match !srv_ref with
                | Some srv -> broadcast srv ev
                | None -> ()
              in
              let sched =
                Scheduler.create ~fsync ~quantum ~on_event ~root ~pool ()
              in
              let srv =
                {
                  sched;
                  listen_fd;
                  clients = [];
                  send_mutex = Mutex.create ();
                  draining = false;
                  stopping = false;
                  tick;
                }
              in
              srv_ref := Some srv;
              (* EPIPE over SIGPIPE: a dead client must not kill the fleet *)
              Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
              let interrupt _ = Scheduler.interrupt sched in
              Sys.set_signal Sys.sigint (Sys.Signal_handle interrupt);
              Sys.set_signal Sys.sigterm (Sys.Signal_handle interrupt);
              Fun.protect
                ~finally:(fun () ->
                  Scheduler.close sched;
                  List.iter
                    (fun c ->
                      try Unix.close c.fd with Unix.Unix_error _ -> ())
                    srv.clients)
                (fun () -> loop srv pool);
              Ok ()))
