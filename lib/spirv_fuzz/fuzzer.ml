(** The fuzzer main loop (section 3.2).

    The module and facts are repeatedly modified by running fuzzer passes.
    After each pass the tool probabilistically decides whether to stop,
    definitely stopping once the transformation limit is exceeded.  The
    next pass is sampled by registry weight — with the default (uniform)
    weights this is exactly the historical uniform draw, bit-for-bit.  When
    the recommendations strategy is enabled, the draw is taken either at
    random or from a queue of follow-on passes pushed after each pass run;
    disabling it yields the "spirv-fuzz-simple" configuration evaluated in
    section 4.1. *)

open Spirv_ir

type config = {
  max_transformations : int;   (** hard cap; the paper uses 2000 *)
  max_passes : int;            (** safety cap on pass executions *)
  continue_probability : int;  (** percent chance to run another pass *)
  use_recommendations : bool;
  donors : Module_ir.t list;
  check_contracts : bool;      (** debug mode: {!Contract} after every emit *)
  weights : (Registry.family * int) list;
      (** per-family sampling-weight multipliers; [[]] (the default) leaves
          every pass at registry weight 1, i.e. the uniform draw *)
}

let default_config =
  {
    max_transformations = 250;
    max_passes = 60;
    continue_probability = 95;
    use_recommendations = true;
    donors = [];
    check_contracts = false;
    weights = [];
  }

type result = {
  final : Context.t;
  transformations : Transformation.t list;
  passes_run : string list;
  counters : (string * int * int) list;
      (** per-type (type_id, proposed, applied) tallies *)
}

let run ?(config = default_config) ~seed (ctx : Context.t) : result =
  let rng = Tbct.Rng.make seed in
  (* the checker is created before any RNG draw and never consumes one, so
     seeds produce the same transformation stream with checking on or off *)
  let contracts = if config.check_contracts then Some (Contract.create ctx) else None in
  let em = Pass.make_emitter ~donors:config.donors ?contracts ~rng ctx in
  (* Weighted sampling over the sweep list: the first pass whose cumulative
     weight exceeds one draw below the total.  With every effective weight
     equal to 1 the total equals the pass count and the cumulative index is
     the raw draw — the same single [Rng.int] call and index arithmetic as
     [Rng.choose Pass.all], so default-weight campaigns reproduce the
     historical streams exactly. *)
  let total, bounds =
    List.fold_left_map
      (fun acc (p : Pass.t) ->
        let acc = acc + Registry.pass_weight ~weights:config.weights p.Pass.name in
        (acc, (p, acc)))
      0 Pass.all
  in
  if total <= 0 then invalid_arg "Fuzzer.run: every pass has weight 0";
  let draw_pass () =
    let k = Tbct.Rng.int rng total in
    fst (List.find (fun (_, bound) -> k < bound) bounds)
  in
  let queue : string Queue.t = Queue.create () in
  let passes_run = ref [] in
  let rec loop n =
    if n >= config.max_passes then ()
    else if List.length em.Pass.emitted >= config.max_transformations then ()
    else begin
      let pass =
        let from_queue =
          config.use_recommendations
          && (not (Queue.is_empty queue))
          && Tbct.Rng.bool rng
        in
        if from_queue then
          match Pass.find (Queue.pop queue) with
          | Some p -> p
          | None -> draw_pass ()
        else draw_pass ()
      in
      let before = List.length em.Pass.emitted in
      pass.Pass.run em;
      Log.debug (fun k ->
          k "pass %s applied %d transformation(s)" pass.Pass.name
            (List.length em.Pass.emitted - before));
      passes_run := pass.Pass.name :: !passes_run;
      if config.use_recommendations then begin
        let follow = Registry.follow_ons pass.Pass.name in
        let chosen = List.filter (fun _ -> Tbct.Rng.bool rng) follow in
        List.iter (fun p -> Queue.push p queue) chosen
      end;
      if Tbct.Rng.chance rng ~num:config.continue_probability ~den:100 then loop (n + 1)
    end
  in
  loop 0;
  Log.info (fun k ->
      k "seed %d: %d transformations over %d passes" seed
        (List.length em.Pass.emitted) (List.length !passes_run));
  {
    final = em.Pass.ctx;
    transformations = List.rev em.Pass.emitted;
    passes_run = List.rev !passes_run;
    counters = Pass.counters_list em;
  }
