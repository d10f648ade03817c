(** The fuzzer main loop (section 3.2 of the paper).

    Starting from a context whose module renders a known image, the fuzzer
    repeatedly runs {!Pass}es, each sweeping the module for opportunities to
    apply one kind of {!Transformation} and probabilistically taking some.
    After each pass the tool decides probabilistically whether to continue,
    and stops definitely at the transformation cap.

    Passes are sampled by weight: each pass's effective weight is the
    per-family multiplier in {!config.weights} of the {!Registry} entries
    it proposes ({!Registry.pass_weight}).  With the default (empty) overrides every pass weighs
    1 and the draw degenerates to the historical uniform choice — the
    recorded streams are bit-identical (property-tested).

    With {!config.use_recommendations} enabled (the default), the next pass
    is chosen with the weighted draw either at random or from a queue of
    follow-on passes pushed after each pass run — the "recommendations
    strategy"; disabling it yields the "spirv-fuzz-simple" configuration
    that Table 3 compares against. *)

open Spirv_ir

type config = {
  max_transformations : int;
      (** hard cap on recorded transformations (the paper's tool stops at
          2000; the default here is campaign-sized) *)
  max_passes : int;  (** safety cap on pass executions *)
  continue_probability : int;
      (** percent chance of running another pass after each one *)
  use_recommendations : bool;
  donors : Module_ir.t list;
      (** modules whose functions AddFunction may transplant *)
  check_contracts : bool;
      (** debug mode: run the {!Contract} checker after every applied
          transformation.  Never changes the recorded stream — the checker
          consumes no randomness (property-tested) — it only turns a
          contract breach into a loud {!Contract.Violation}. *)
  weights : (Registry.family * int) list;
      (** per-family sampling-weight multipliers; omitted families weigh
          1, so [[]] (the default) keeps the uniform draw.  A family
          weighted 0 is never drawn (its passes may still run via
          recommendations).  At least one pass must keep a positive
          weight. *)
}

val default_config : config

type result = {
  final : Context.t;
      (** the fuzzed variant: module, (possibly extended) input, and facts *)
  transformations : Transformation.t list;
      (** the recorded sequence; replaying it from the original context with
          {!Lang.replay} reproduces [final] up to the module's [id_bound]
          ({!Module_ir.equal_ignoring_bound}): a proposal whose
          precondition failed has already drawn its fresh ids, so [final]'s
          bound can be higher (108 of corpus seeds 0-399) *)
  passes_run : string list;  (** pass names, in execution order *)
  counters : (string * int * int) list;
      (** per-type (type_id, proposed, applied) tallies from the emitter,
          sorted by type_id; proposals that failed their precondition are
          counted but not applied *)
}

val run : ?config:config -> seed:int -> Context.t -> result
(** [run ~seed ctx] fuzzes deterministically: equal seeds and contexts give
    equal results.  The variant is guaranteed (and property-tested) to
    validate and to render the same image as the original.
    @raise Invalid_argument if [config.weights] leaves every pass at
    weight 0. *)
