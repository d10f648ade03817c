(** The on-disk content-addressed object store (see the interface).

    Layout: [root/objects/ab/cdef...] — two hex characters of the key name
    the shard directory, the rest names the file, so directory fan-out stays
    bounded at 256 shards however many objects accumulate.  Writes are
    atomic (tmp+rename via {!Fsio}); recency is persisted as file mtime
    (bumped on every hit), so LRU eviction order survives restarts and is
    meaningful across processes sharing a store. *)

type entry = { mutable size : int; mutable stamp : float }

type t = {
  root : string;
  fsync : bool;
  max_bytes : int option;
  lock : Mutex.t;
  index : (string, entry) Hashtbl.t;  (** key -> size & recency *)
  mutable bytes : int;
  mutable puts : int;
  mutable gets : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  objects : int;
  bytes : int;
  puts : int;
  gets : int;
  hits : int;
  misses : int;
  evictions : int;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let objects_dir root = Filename.concat root "objects"

let valid_key key =
  String.length key >= 8
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       key

let path_of t key =
  if not (valid_key key) then
    invalid_arg (Printf.sprintf "Cas: malformed key %S (want lowercase hex)" key);
  Filename.concat
    (Filename.concat (objects_dir t.root) (String.sub key 0 2))
    (String.sub key 2 (String.length key - 2))

let key_of_path ~shard file = shard ^ file

(** Digest an arbitrary (e.g. namespaced) string into a well-formed key. *)
let key_of_string s = Stdlib.Digest.to_hex (Stdlib.Digest.string s)

(* scan the object tree into the index; also used by [gc] to resynchronize
   with writers in other processes.  Only names that form a valid key are
   objects: a [<key>.tmp.<pid>.<n>] file is a write in progress, or one
   whose writer died before its rename, and is left on disk because a live
   writer in another process may still rename it. *)
let rescan_locked t =
  Hashtbl.reset t.index;
  t.bytes <- 0;
  List.iter
    (fun shard ->
      if String.length shard = 2 then
        let dir = Filename.concat (objects_dir t.root) shard in
        List.iter
          (fun file ->
            let key = key_of_path ~shard file in
            let path = Filename.concat dir file in
            match (Fsio.file_size path, Fsio.mtime path) with
            | Some size, Some stamp when valid_key key ->
                Hashtbl.replace t.index key { size; stamp };
                t.bytes <- t.bytes + size
            | _ -> ())
          (Fsio.list_dir dir))
    (Fsio.list_dir (objects_dir t.root))

let open_ ?(fsync = false) ?max_bytes ~root () =
  Fsio.ensure_dir (objects_dir root);
  let t =
    {
      root;
      fsync;
      max_bytes;
      lock = Mutex.create ();
      index = Hashtbl.create 1024;
      bytes = 0;
      puts = 0;
      gets = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
    }
  in
  locked t (fun () -> rescan_locked t);
  t

(* unlink an object and take it out of the index and the byte count; the
   caller holds the lock *)
let remove_locked t key =
  Fsio.remove_if_exists (path_of t key);
  match Hashtbl.find_opt t.index key with
  | Some e ->
      Hashtbl.remove t.index key;
      t.bytes <- t.bytes - e.size
  | None -> ()

(* evict least-recently-used objects until total size fits; the caller
   holds the lock *)
let evict_until_locked (t : t) ~max_bytes =
  if t.bytes > max_bytes then begin
    let by_age =
      Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.index []
      |> List.sort (fun (_, a) (_, b) -> Float.compare a.stamp b.stamp)
    in
    List.iter
      (fun (key, _) ->
        if t.bytes > max_bytes then begin
          remove_locked t key;
          t.evictions <- t.evictions + 1
        end)
      by_age
  end

let put t ~key data =
  let path = path_of t key in
  locked t (fun () ->
      t.puts <- t.puts + 1;
      (match Hashtbl.find_opt t.index key with
      | Some e when Sys.file_exists path ->
          (* an object is a deterministic function of its key, so the bytes
             would be the same — just refresh recency.  Bytes that went bad
             on disk are not caught here: [get] drops an object its decoder
             rejects, and the next [put] of the key lands in the branch
             below *)
          e.stamp <- Unix.gettimeofday ();
          Fsio.touch path
      | _ ->
          Fsio.write_atomic ~fsync:t.fsync ~path data;
          let size = String.length data in
          (match Hashtbl.find_opt t.index key with
          | Some e -> t.bytes <- t.bytes - e.size
          | None -> ());
          Hashtbl.replace t.index key
            { size; stamp = Unix.gettimeofday () };
          t.bytes <- t.bytes + size);
      match t.max_bytes with
      | Some max_bytes -> evict_until_locked t ~max_bytes
      | None -> ())

let get t ~key ~decode =
  let path = path_of t key in
  (* read the file even on an index miss: another process sharing the
     store may have written it after our last scan *)
  let data =
    locked t (fun () ->
        t.gets <- t.gets + 1;
        let data = Fsio.read_file path in
        if Option.is_none data then t.misses <- t.misses + 1;
        data)
  in
  match data with
  | None -> None
  | Some data ->
      (* decode outside the lock, so domains sharing the store decode in
         parallel; a [put] racing between the read and the drop below
         loses its object, which costs one recomputation, never a wrong
         result *)
      let value = decode data in
      locked t (fun () ->
          match value with
          | Some _ ->
              t.hits <- t.hits + 1;
              (match Hashtbl.find_opt t.index key with
              | Some e -> e.stamp <- Unix.gettimeofday ()
              | None ->
                  Hashtbl.replace t.index key
                    { size = String.length data; stamp = Unix.gettimeofday () };
                  t.bytes <- t.bytes + String.length data);
              Fsio.touch path
          | None ->
              t.misses <- t.misses + 1;
              remove_locked t key);
      value

let mem t ~key =
  locked t (fun () ->
      Hashtbl.mem t.index key || Sys.file_exists (path_of t key))

let gc ?max_bytes t =
  locked t (fun () ->
      (* resync with the filesystem (and any concurrent writers), keeping
         the fresher of on-disk mtime and in-memory recency *)
      let remembered =
        Hashtbl.fold (fun k e acc -> (k, e.stamp) :: acc) t.index []
      in
      rescan_locked t;
      List.iter
        (fun (k, stamp) ->
          match Hashtbl.find_opt t.index k with
          | Some e when stamp > e.stamp -> e.stamp <- stamp
          | _ -> ())
        remembered;
      let before = t.evictions in
      (match (max_bytes, t.max_bytes) with
      | Some m, _ | None, Some m -> evict_until_locked t ~max_bytes:m
      | None, None -> ());
      t.evictions - before)

let stats t : stats =
  locked t (fun () ->
      {
        objects = Hashtbl.length t.index;
        bytes = t.bytes;
        puts = t.puts;
        gets = t.gets;
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
      })

let root t = t.root

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "cas: %d objects, %d bytes; %d puts, %d gets (%d hits, %d misses), %d \
     evictions"
    s.objects s.bytes s.puts s.gets s.hits s.misses s.evictions

let stats_to_string s = Format.asprintf "%a" pp_stats s
