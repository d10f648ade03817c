(** Reference interpreter: the [Semantics(P, I)] of Definition 2.1.

    A module is executed once per fragment of the input grid; each execution
    binds the module's [Input]-class variable to the fragment coordinate,
    its [Uniform]-class variables to the input's uniform values, runs the
    entry-point function under a step budget, and reads the [Output]-class
    variable as the pixel color.  The result of the whole program is the
    rendered {!Image.t}.

    Execution is deterministic and total up to the step budget; a program
    that exhausts the budget on some fragment is not well-defined with
    respect to that input and is rejected as an original test program. *)

type trap =
  | Step_limit_exceeded
  | Missing_uniform of string
  | Invalid_module of string
      (** internal error: only possible on modules that fail validation *)

val trap_to_string : trap -> string

type outcome = (Image.pixel, trap) result

val default_step_limit : int
(** The step budget applied when [?step_limit] is omitted: 100_000. *)

val run_fragment :
  ?step_limit:int ->
  ?trace:(Id.t -> Value.t -> unit) ->
  ?mem_trace:
    (kind:[ `Load | `Store ] -> ptr:Id.t -> root:Id.t -> path:int list -> unit) ->
  Module_ir.t ->
  Input.t ->
  frag_x:int ->
  frag_y:int ->
  outcome
(** Execute the entry point for one fragment. Default step limit: 100_000.
    [trace] is called on every SSA value binding (instruction results and
    φ merges, across all executed functions) — the hook the range-analysis
    soundness tests use to check every concrete value against its computed
    interval.  Pointer bindings are not reported.
    [mem_trace] is called on every executed Load/Store with the pointer
    operand id, the variable or global the cell was allocated for ([root])
    and the fully resolved concrete element path — the ground truth the
    {!Memory} alias-soundness tests compare [No_alias] verdicts against. *)

val render :
  ?step_limit:int -> Module_ir.t -> Input.t -> (Image.t, trap) result
[@@alert reference_interp
  "the tree-walking reference interpreter: the harness renders through \
   Spirv_ir.Compile.render_batch (via Harness.Engine.run), never this"]
(** Execute every fragment of the grid: the reference semantics {!Compile}
    is checked against.  [reference_interp] is an error in [lib/harness]. *)

val run_function :
  ?step_limit:int ->
  ?trace:(Id.t -> Value.t -> unit) ->
  ?mem_trace:
    (kind:[ `Load | `Store ] -> ptr:Id.t -> root:Id.t -> path:int list -> unit) ->
  Module_ir.t ->
  fn:Id.t ->
  args:Value.t list ->
  (Value.t option, trap) result
(** Directly evaluate a non-entry function on argument values (pointers not
    supported as arguments here); used by unit tests.  Returns [None] for
    void functions and for executions ending in [OpKill]. *)

val well_defined : ?step_limit:int -> Module_ir.t -> Input.t -> bool
(** True when rendering succeeds, i.e. the (program, input) pair may serve
    as an original test (Definition 2.3 requires well-definedness). *)
