(** A digest-keyed content-addressed object store on disk — the persistent
    half of the execution engine's run cache, and the artifact store for
    optimized modules and reduced tests.

    Objects live under [root/objects/] in sharded two-level directories
    ([ab/cdef…]: first two hex characters of the key name the shard).
    Writes are atomic (unique temp file + [rename]), so a store is never
    observed torn, even when a campaign is killed mid-write or several
    domains/processes write concurrently; [fsync] is off by default because
    cached objects are recomputable.

    Recency for the LRU eviction policy is kept both in an in-memory index
    and persistently as file mtimes (bumped on every hit), so eviction
    order is meaningful across restarts.  With [max_bytes] configured, the
    bound is enforced on every {!put}; {!gc} enforces it on demand. *)

type t

type stats = {
  objects : int;    (** objects currently indexed *)
  bytes : int;      (** their total payload size *)
  puts : int;
  gets : int;
  hits : int;       (** gets that found and decoded the object *)
  misses : int;     (** gets that found nothing, or dropped what they found *)
  evictions : int;  (** objects deleted by the size bound *)
}

val open_ : ?fsync:bool -> ?max_bytes:int -> root:string -> unit -> t
(** Open (creating directories as needed) a store rooted at [root].  The
    existing object tree is scanned into the index, so [stats] and eviction
    order account for objects written by earlier runs. *)

val key_of_string : string -> string
(** Digest an arbitrary string (e.g. a namespaced cache key like
    ["run:<target>:<module digest>:<input digest>"]) into a well-formed
    store key (lowercase hex). *)

val put : t -> key:string -> string -> unit
(** Store an object.  Re-putting an indexed key only refreshes its recency:
    an object is a deterministic function of its key, so the bytes would
    be the same.  Bytes that went bad on disk are replaced only after
    {!get} has dropped them.  Enforces [max_bytes] (when configured) by
    evicting least-recently-used objects.  @raise Invalid_argument on a
    malformed (non-hex) key. *)

val get : t -> key:string -> decode:(string -> 'a option) -> 'a option
(** Fetch an object, decode it and mark it recently used.  Falls through
    to the filesystem on an index miss, so objects written by a concurrent
    process sharing the store are found.  An object [decode] rejects
    (corrupt, truncated, or in a retired format) is dropped: its file is
    unlinked and it leaves the index and the byte count, so the lookup is
    a miss and the next {!put} of the key writes fresh bytes.  Callers
    that want the raw bytes pass [~decode:Option.some]. *)

val mem : t -> key:string -> bool

val gc : ?max_bytes:int -> t -> int
(** Resynchronize the index with the object tree, then evict
    least-recently-used objects until the total size fits under
    [max_bytes] (defaulting to the bound configured at {!open_}; no bound
    configured anywhere means no eviction).  Returns the number of objects
    evicted by this call. *)

val stats : t -> stats
val root : t -> string
val pp_stats : Format.formatter -> stats -> unit
val stats_to_string : stats -> string
