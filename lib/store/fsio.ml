(** Filesystem primitives shared by the store: mkdir -p, whole-file reads,
    and the atomic tmp+rename write every durable artifact goes through.

    Atomicity matters because campaigns are killable at any point: a reader
    (or a resumed campaign) must only ever observe a fully-written object or
    no object at all, never a torn one.  POSIX [rename] within a directory
    gives exactly that.  [fsync] is optional — content-addressed objects can
    always be recomputed, so the default trades durability of the last few
    writes for speed; pass [~fsync:true] for journals that must survive
    power loss rather than mere process death. *)

let tmp_counter = Atomic.make 0

let ensure_dir path =
  let rec go p =
    if p <> "" && p <> "/" && p <> "." && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
      (* a concurrent domain/process won the race: fine *)
    end
  in
  go path

let read_file path : string option =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let n = in_channel_length ic in
          Some (really_input_string ic n))

let remove_if_exists path = try Sys.remove path with Sys_error _ -> ()

(** Write [data] to [path] atomically: a uniquely-named temp file in the
    same directory (same filesystem, so [rename] cannot degrade to a copy),
    then rename over the destination.  Concurrent writers of the same path
    race benignly — last rename wins, and every rename installs a complete
    file.  When the write or the rename raises, the temp file is unlinked
    before the exception propagates, so a failed write leaks no bytes. *)
let write_atomic ?(fsync = false) ~path data =
  ensure_dir (Filename.dirname path);
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_counter 1)
  in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  try
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let n = String.length data in
        let written = ref 0 in
        while !written < n do
          written :=
            !written + Unix.write_substring fd data !written (n - !written)
        done;
        if fsync then Unix.fsync fd);
    Unix.rename tmp path
  with exn ->
    let bt = Printexc.get_raw_backtrace () in
    remove_if_exists tmp;
    Printexc.raise_with_backtrace exn bt

let file_size path : int option =
  match Unix.stat path with
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> Some st_size
  | _ -> None
  | exception Unix.Unix_error _ -> None

let mtime path : float option =
  match Unix.stat path with
  | st -> Some st.Unix.st_mtime
  | exception Unix.Unix_error _ -> None

(** Bump a file's access/modification time to now — the persistent
    approximation of LRU recency that survives process restarts. *)
let touch path = try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ()

let list_dir path : string list =
  match Sys.readdir path with
  | exception Sys_error _ -> []
  | entries -> Array.to_list entries
