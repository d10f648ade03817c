(** Symbolic values: a hash-consed, normalized expression DAG over one
    module's SSA value graph, and a symbolic evaluator that canonicalizes a
    whole module into a {e summary} — the symbolic kill condition and the
    symbolic value left in the output global.

    Two modules with equal summaries (node identity — hash-consing makes
    semantic equality after normalization a pointer comparison) render the
    same image on {e every} input, so the translation validator ({!Tv} in
    the compilers library) can compare a pass's input and output without
    picking a fragment grid.  The evaluator is {e path-sensitive}: constant
    branch conditions are followed concretely (which unrolls the
    generator's counted loops exactly), symbolic conditions fork both arms
    to function exit and merge them with [select] nodes.

    Loops with a {e proven} trip bound (from {!Dataflow.Ranges.trip_bound}
    over the {!Loops} forest) unroll soundly even when their condition
    stays symbolic: the evaluator forks each loop-deciding branch until
    the per-path back-edge counter reaches the bound, at which point the
    continue arm is statically infeasible and the exit arm is followed
    directly (counted in {!forced_exits}; {!Tv} downgrades any mismatch
    witnessed under forcing to an abstention).

    Dynamic access-chain indices fold rather than abstain: when the
    {!Memory} analysis proves the index's range finite, a load or store
    through it becomes a select chain over the composite's cells whose
    edge conditions mirror the interpreter's clamping, so modules that
    index arrays with computed values stay inside the translation
    validator instead of falling back to the render oracle.

    Soundness discipline: whenever the evaluator cannot prove what a
    construct denotes — a back edge without a trip bound, a dynamic
    access-chain index with no provable range, a pointer-valued select on
    a symbolic condition, an exhausted budget — it raises {!Abstain}
    rather than guessing.  Callers must never report an abstention as a
    bug.

    Reachability, dominance, the loop forest, value ranges and access
    paths all come from the shared {!Dataflow}/{!Memory} analyses.  The
    [private_cfg] and [private_dominance] alerts make a CFG or dominator
    tree of its own a compile error here, and the corpus TV sweeps fail
    when the access-path proofs stop coming from {!Memory}. *)

type reason =
  [ `Loop_unbounded  (** back edge with no provable trip-count bound *)
  | `Budget  (** node / visit / call-depth / unroll budget exhausted *)
  | `Dynamic_index  (** access chain indexed by a symbolic value *)
  | `Forced_unroll  (** a mismatch reached only through forced loop exits *)
  | `Unsupported  (** construct outside the modelled fragment semantics *)
  | `Internal  (** malformed module: the evaluator's invariants broke *) ]
(** Why a summary could not be built — bucketed by {!Engine} stats and
    surfaced through [tbct tv --json].  [`Forced_unroll] is never raised
    here; {!Tv} uses it when discarding a mismatch seen under forcing. *)

val reason_label : reason -> string
(** Stable kebab-case label ("loop-unbounded", "budget", …). *)

val reason_labels : string list
(** All labels, in declaration order — for stats headers. *)

exception Abstain of reason * string
(** The construct named in the payload is beyond the analysis. *)

type node
(** A hash-consed symbolic value.  Within one {!ctx}, structural equality
    after normalization coincides with {!equal_node}. *)

type ctx
(** Hash-consing arena and evaluation budgets.  Summaries are only
    comparable when built in the {e same} context. *)

val create : ?max_visits:int -> ?max_nodes:int -> ?max_unroll:int -> unit -> ctx
(** [max_visits] bounds block visits across all [summarize] calls on the
    context (loop unrolling and branch forking both consume it);
    [max_nodes] bounds distinct DAG nodes; [max_unroll] (default 64) caps
    the proven trip bound a loop may have and still be unrolled.
    Exhaustion raises {!Abstain} with reason [`Budget]. *)

val forced_exits : ctx -> int
(** How many times the evaluator forced a loop exit because the per-path
    unroll counter reached the proven trip bound.  A mismatch between two
    summaries built under forcing is not trustworthy (the two modules may
    have proved different bounds); {!Tv} downgrades it to an abstention. *)

val mem_proofs : ctx -> int
(** How many dynamic access-chain indices were folded into select chains
    over their cells instead of abstaining, each licensed by a
    {!Memory.chain_segs} finite-range proof.  Surfaced as the engine's
    [mem-proofs] counter. *)

type summary = {
  s_kill : node;  (** symbolic "fragment was killed" condition *)
  s_out : node;   (** final symbolic value of the first Output global *)
}

val summarize : ctx -> Module_ir.t -> summary
(** Evaluate the entry function against symbolic inputs (uniforms and the
    fragment coordinate become opaque sources, exactly one per name, so
    they meet across modules).
    @raise Abstain when any reached construct is beyond the analysis. *)

(** {1 Interning}

    The raw hash-consing step under the smart constructors, exposed so the
    interning rule can be tested on its own. *)

type desc =
  | Const of Value.t
  | Source of string
  | Dead
  | App of string * node list  (** operator tag + operands *)
  | Extract of node * int list
  | Insert of node * node * int list  (** inserted value, base, path *)

val intern : ctx -> desc -> node
(** The node for [desc], created on first use: two descs intern to the same
    node exactly when they agree on the constructor, the tag or source
    name, the child nodes and the paths, with constants compared by
    {!Value.equal} (floats by bit pattern).  No normalization happens here.
    @raise Abstain [`Budget] when a new node would exceed [max_nodes]. *)

val node_id : node -> int
(** The node's creation index in its context (0, 1, 2, …). *)

val equal_node : node -> node -> bool
(** Semantic equality of two nodes from the same context. *)

val is_const_true : node -> bool

val to_string : node -> string
(** Depth-limited rendering for mismatch witnesses. *)
