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

    Without [resume], any existing journal is discarded and a fresh one
    is started.  With [resume], the journal's valid prefix is replayed and
    a journal of another tool or target list is an [Error].  Resuming at
    a {e different} seed count extends (or shrinks) the campaign: a scale
    record re-states the new extent, so extending a finished campaign
    from [N] to [M] seeds replays seeds [0..N-1] from the journal,
    computes only [N..M-1], and returns a hit list bit-identical to a
    fresh [M]-seed run (tested).

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
