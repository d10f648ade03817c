(** Memory / alias static analysis over [Load], [Store] and [AccessChain].

    Every pointer the function manipulates is resolved to an {e access
    path}: an allocation {!base} (a global or a function-local variable)
    plus one interval-indexed {!seg} per access-chain level, with the index
    intervals sourced from {!Dataflow.Ranges}.  On top of the paths the
    analysis proves three families of facts, all of which are consumed as
    free oracles elsewhere:

    - {b in-bounds} — every segment's interval fits the composite it
      indexes ({!access}.in_bounds), which is what licenses [Symval] to
      fold a dynamic index into an if-then-else over the cells it can
      reach instead of abstaining with [`Dynamic_index];
    - {b aliasing} — a must/may/no-alias {!verdict} for any two accesses.
      Distinct allocations never overlap (each base is its own cell in the
      interpreter), and same-base accesses are disjoint whenever some
      segment level has disjoint (clamped) index intervals;
    - {b memory def-use} — a reaching-stores relation per load (a forward
      may-dataflow over per-component def sets, seeded with an [Init]
      token), from which fall out uninitialized loads, dead stores and
      redundant loads — the memory lint rules and the optimizer's
      DSE cross-check.

    Soundness leans on the IR's total memory semantics: out-of-range
    indices clamp (see [Value.extract_at_path]), so verdicts compare
    {e clamped} intervals and an unprovable bound degrades to [May_alias] /
    not-in-bounds rather than undefined behavior. *)

(** {1 Access paths} *)

type base =
  | Global of Id.t
  | Local of Id.t  (** a [Variable] allocation in this function *)

val base_id : base -> Id.t
val base_equal : base -> base -> bool
val base_to_string : base -> string

type seg = {
  seg_itv : Dataflow.Itv.t;  (** unclamped index interval at this level *)
  seg_len : int;             (** component count of the composite indexed *)
}

type path = {
  base : base;
  segs : seg list;  (** outermost index first; [] is the whole variable *)
  pointee : Id.t;   (** type id the path designates *)
}

val path_to_string : path -> string

type kind = ALoad | AStore

type access = {
  ord : int;           (** position in {!accesses}; the def token of a store *)
  a_kind : kind;
  a_block : Id.t;
  a_index : int;       (** instruction index within the block *)
  a_ptr : Id.t;        (** the pointer operand *)
  a_path : path option;  (** [None]: pointer not resolvable (φ/select/param) *)
  in_bounds : bool;
      (** resolved and every segment interval within [0, seg_len-1] *)
}

(** {1 Analysis} *)

type t

val analyze : Module_ir.t -> Func.t -> avail:Dataflow.Availability.t -> t
(** Resolve every access of [f]'s reachable blocks and solve the
    reaching-stores dataflow.  [avail] is the caller's already-derived
    availability (source of the {!Cfg}), matching the sharing discipline of
    the other analyses. *)

val accesses : t -> access list
(** In block order, instruction order within a block (reachable blocks
    only). *)

val path_of : t -> Id.t -> path option
(** The access path a pointer-typed id resolves to, if any. *)

val chain_segs : t -> Id.t -> seg list option
(** For an [AccessChain] result: the segments contributed by {e its own}
    index operands (the suffix of [path_of]'s segments), in operand order —
    what [Symval]'s symbolic memory model consumes. *)

val escapes : t -> base -> bool
(** The base's address flows into a call argument, φ, select, composite or
    stored value — after which per-function reasoning about who reads or
    writes it is forfeit (calls become weak definitions of its cells). *)

(** {1 Facts} *)

type verdict = Must_alias | May_alias | No_alias

val verdict_to_string : verdict -> string

val alias : t -> access -> access -> verdict
(** [No_alias] is a proof the two accesses touch disjoint cells in every
    execution; [Must_alias] a proof they touch exactly the same cell;
    [May_alias] is the absence of either proof. *)

val reaching_stores : t -> access -> int list
(** Store ordinals whose value the load may observe; [-1] is the
    initial-value token, [-2] an opaque write through a call (globals and
    escaped locals only). *)

val uninitialized_loads : t -> access list
(** Loads of a non-escaping local that may observe the zero-initialized
    default value ([-1] reaches them). *)

val dead_stores : t -> access list
(** Stores to a non-escaping local that {e is} loaded somewhere, but where
    no may-aliasing load is reachable from the store.  Disjoint from the
    [store-never-read] lint domain, which owns bases with no loads at
    all. *)

val redundant_loads : t -> (access * access) list
(** (earlier, later) same-block chain-load pairs that must-alias with no
    intervening may-aliasing store or call — the later load is the
    redundant one. *)

val observable_store : t -> block:Id.t -> index:int -> bool
(** May the store at this position be observed by any later read?  [true]
    conservatively for unresolved pointers, globals and escaped locals.
    The optimizer's DSE cross-check requires [false] before a store may be
    deleted. *)

(** {1 Reporting} *)

type stats = {
  n_loads : int;
  n_stores : int;
  n_resolved : int;
  n_in_bounds : int;
  n_pairs : int;  (** unordered access pairs classified *)
  n_no_alias : int;
  n_may_alias : int;
  n_must_alias : int;
  n_uninitialized : int;
  n_dead_stores : int;
  n_redundant_loads : int;
}

val stats : t -> stats

val access_to_string : t -> access -> string
