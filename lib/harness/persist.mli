(** Campaign persistence: crash-resumable campaigns over a store directory.

    A store directory [DIR] holds everything a campaign leaves behind:

    - [DIR/cas/] — the content-addressed run cache ({!Tbct_store.Cas}),
      shared by the engine's read-through/write-through backend;
    - [DIR/journal.log] — the campaign journal ({!Tbct_store.Journal}):
      one checksummed header record naming the tool, target list and seed
      count, then one record per completed seed with its hits;
    - [DIR/bugbank.txt] — the cross-campaign bug bank
      ({!Tbct_store.Bugbank}), fed by [tbct dedup --bank].

    Resume contract: {!run_campaign} with [~resume:true] replays the
    journal's valid prefix (a killed campaign's torn trailing record is
    discarded), re-executes only the missing seeds, and returns a hit list
    {e bit-identical} to the uninterrupted run — recorded seeds are spliced
    in unchanged and fresh seeds are recomputed deterministically, in
    canonical seed order either way.  A journal written by a different
    tool or target list is refused rather than silently mixed.

    This module performs no file I/O of its own; every byte goes through
    {!Tbct_store} (a CI-enforced harness invariant). *)

(** {1 Store layout} *)

val cas_dir : string -> string       (** [DIR/cas] *)

val journal_path : string -> string  (** [DIR/journal.log] *)

val bugbank_dir : string -> string
(** Where {!Tbct_store.Bugbank.load} should look (currently [DIR]
    itself). *)

val open_cas :
  ?fsync:bool -> ?max_bytes:int -> dir:string -> unit -> Tbct_store.Cas.t
(** Open the store directory's CAS (for {!Engine.create}'s [?store]). *)

(** {1 Campaign journals} *)

type campaign = {
  dir : string;
  journal : Tbct_store.Journal.t;
  completed : (int, Experiments.hit list) Hashtbl.t;
      (** seeds recovered from the journal *)
  recovered_seeds : int;
  journal_dropped : bool;
      (** the journal ended in a truncated/corrupted record *)
  prior_seeds : int option;
      (** the seed count the resumed journal was recorded at (its header,
          or its last scale record); [None] for a fresh campaign *)
}

val open_campaign :
  ?resume:bool ->
  ?fsync:bool ->
  dir:string ->
  tool:Pipeline.tool ->
  targets:Compilers.Target.t list ->
  scale:Experiments.scale ->
  unit ->
  (campaign, string) result
(** Without [resume], any existing journal is discarded and a fresh one is
    started (header record included).  With [resume], the valid prefix is
    replayed into [completed]; mismatched tool/targets are an error.

    Resuming at a {e different} seed count is not an error but an
    extension (or shrink): the journal header records the scale it was
    started at, and a resume whose scale differs appends a scale record
    re-stating the new extent.  Extending a finished campaign from [N] to
    [M] seeds therefore replays seeds [0..N-1] from the journal, computes
    only [N..M-1], and returns a hit list bit-identical to a fresh
    [M]-seed run (tested). *)

val skip : campaign -> int -> Experiments.hit list option
(** The [?skip] hook for {!Experiments.run_campaign}. *)

val on_seed : campaign -> int -> Experiments.hit list -> unit
(** The [?on_seed] hook: appends one journal record (thread-safe). *)

val close : campaign -> unit

(** {1 One-call wrapper} *)

type outcome = {
  hits : Experiments.hit list;
  seeds_skipped : int;  (** seeds served from the journal *)
  seeds_run : int;      (** seeds executed by this invocation *)
  completed : bool;
      (** every seed is journaled; [false] only when [?stop] cancelled the
          campaign mid-flight (the hit list is then partial and a later
          [~resume:true] run finishes the job) *)
  journal_dropped : bool;
  extended_from : int option;
      (** [Some n]: a resume grew the campaign past the [n] seeds the
          journal had recorded *)
}

val hit_line : Experiments.hit -> string
(** The canonical one-line encoding of a hit
    ([seed TAB ref TAB target TAB quoted-signature TAB opt|direct]) shared
    by [tbct campaign --hits-out] and the campaign service's [hits] verb,
    so their outputs are byte-comparable by construction. *)

val run_campaign :
  ?scale:Experiments.scale ->
  ?targets:Compilers.Target.t list ->
  ?domains:int ->
  ?pool:Pool.t ->
  engine:Engine.t ->
  ?check_contracts:bool ->
  ?tv:bool ->
  ?weights:(Spirv_fuzz.Registry.family * int) list ->
  ?resume:bool ->
  ?fsync:bool ->
  ?stop:(unit -> bool) ->
  ?on_seed:(int -> Experiments.hit list -> unit) ->
  dir:string ->
  Pipeline.tool ->
  (outcome, string) result
(** Open (or resume) the campaign journal in [dir], run the campaign with
    the journal hooks plugged in, close the journal.  The hit list is
    bit-identical to an uninterrupted {!Experiments.run_campaign} at the
    same scale.

    [?domains]/[?pool] parallelize exactly as in
    {!Experiments.run_campaign}.  [?on_seed] is an extra user hook called
    after each fresh seed's journal record is appended (so a raising hook
    loses nothing already recorded); like the journal hook it may run on
    any worker domain and must be thread-safe.

    [?stop] is the graceful-cancellation hook ({!Experiments.run_campaign}):
    once it returns [true], remaining fresh seeds are neither executed nor
    journaled, the call returns promptly with [completed = false], and —
    because every {e finished} seed was journaled before the hook fired —
    a later [~resume:true] invocation completes the campaign bit-identical
    to an uninterrupted run.  This is the checkpoint path shared by the
    campaign service's scheduler quanta, its graceful shutdown, and the
    batch CLI's SIGINT handler.

    The journal fd is closed — via [Fun.protect] — even when a worker or
    the user hook raises mid-campaign, so an aborted run always leaves a
    replayable journal behind for [~resume:true]. *)
