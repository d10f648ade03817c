(* Command-line interface to the library: assemble/disassemble/validate/run
   modules, fuzz them, reduce bug-triggering transformation sequences, run
   targets and small campaigns.  Modules are exchanged as .spvasm text via
   the Asm/Disasm pair. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Common helpers                                                      *)

let read_module path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Spirv_ir.Asm.of_string_result s with
  | Ok m -> Ok m
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

let write_module path m =
  let oc = open_out_bin path in
  output_string oc (Spirv_ir.Disasm.to_string m);
  close_out oc

(* the references plus the loop and memory corpora: everything --corpus
   can name *)
let corpus_modules () =
  Lazy.force Corpus.lowered_references
  @ Lazy.force Corpus.lowered_loop_references
  @ Corpus.memory_references

let corpus_module name = List.assoc_opt name (corpus_modules ())

let load ~path ~corpus =
  match (path, corpus) with
  | Some p, _ -> read_module p
  | None, Some name -> (
      match corpus_module name with
      | Some m -> Ok m
      | None ->
          Error
            (Printf.sprintf "unknown corpus program %s (try: %s)" name
               (String.concat ", " (List.map fst (corpus_modules ())))))
  | None, None -> Error "provide a module file or --corpus NAME"

let or_die = function
  | Ok x -> x
  | Error e ->
      prerr_endline ("error: " ^ e);
      exit 1

(* shared args *)
let file_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"MODULE.spvasm")

let corpus_arg =
  Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"NAME"
         ~doc:"Use a built-in corpus shader instead of a file.")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let target_arg =
  let names = List.map (fun (t : Compilers.Target.t) -> t.Compilers.Target.name) Compilers.Target.all in
  Arg.(value & opt string "SwiftShader"
       & info [ "target" ] ~docv:"TARGET"
           ~doc:(Printf.sprintf "Target to test (%s)." (String.concat ", " names)))

let uniforms_arg =
  Arg.(value & opt (some string) None
       & info [ "uniforms" ] ~docv:"SPEC"
           ~doc:"Input description: comma-separated name=value assignments \
                 (true/false, ints, floats, (a;b;...) composites) plus the \
                 reserved width=/height= grid size.  Default: the corpus \
                 input.")

let input_of_spec = function
  | None -> Ok Corpus.default_input
  | Some spec -> Spirv_ir.Input.of_string spec

let check_contracts_arg =
  Arg.(value & flag
       & info [ "check-contracts" ]
           ~doc:"Debug mode: after every applied transformation, assert the \
                 paper's contract (precondition held, module validates, no \
                 new lint errors, image unchanged).  Never changes which \
                 variants are generated.")

(* a contract breach is a bug in this tool, not in the module under test:
   surface it loudly with its own exit code *)
let or_contract_violation f =
  try f ()
  with Spirv_fuzz.Contract.Violation v ->
    prerr_endline (Spirv_fuzz.Contract.violation_to_string v);
    exit 2

let find_target name =
  match Compilers.Target.find name with
  | Some t -> Ok t
  | None -> Error ("unknown target " ^ name)

(* every --json output mode prints one JSON object per line *)
module Json = Tbct_service.Json

let print_json fields = print_endline (Json.to_string (Json.Obj fields))

let json_arg =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Machine-readable output: one JSON object per line.")

(* ------------------------------------------------------------------ *)
(* disasm / validate / run                                             *)

let validate_cmd =
  let run path corpus =
    let m = or_die (load ~path ~corpus) in
    match Spirv_ir.Validate.check m with
    | Ok () ->
        print_endline "valid";
        0
    | Error errors ->
        List.iter (fun e -> print_endline (Spirv_ir.Validate.error_to_string e)) errors;
        1
  in
  Cmd.v (Cmd.info "validate" ~doc:"Validate a module (the spirv-val analog).")
    Term.(const (fun p c -> Stdlib.exit (run p c)) $ file_arg $ corpus_arg)

let lint_cmd =
  let all_arg =
    Arg.(value & flag
         & info [ "all" ]
             ~doc:"Lint every corpus reference and donor — the modules the \
                   examples and campaigns build on.")
  in
  let run path corpus all json =
    let mods =
      if all then begin
        (* donors repeat the references; keep the first of each name *)
        let seen = Hashtbl.create 16 in
        List.filter
          (fun (name, _) ->
            if Hashtbl.mem seen name then false
            else begin
              Hashtbl.add seen name ();
              true
            end)
          (corpus_modules () @ Lazy.force Corpus.lowered_donors)
      end
      else
        let name =
          match (path, corpus) with
          | Some p, _ -> p
          | None, Some c -> c
          | None, None -> "<module>"
        in
        [ (name, or_die (load ~path ~corpus)) ]
    in
    let errors = ref 0 and warnings = ref 0 in
    List.iter
      (fun (name, m) ->
        List.iter
          (fun (f : Spirv_ir.Lint.finding) ->
            let severity =
              match f.Spirv_ir.Lint.severity with
              | Spirv_ir.Lint.Error ->
                  incr errors;
                  "error"
              | Spirv_ir.Lint.Warning ->
                  incr warnings;
                  "warning"
            in
            if json then
              print_json
                Json.
                  [
                    ("module", Str name); ("severity", Str severity);
                    ("rule", Str f.Spirv_ir.Lint.rule);
                    ("finding", Str (Spirv_ir.Lint.to_string f));
                  ]
            else Printf.printf "%s: %s\n" name (Spirv_ir.Lint.to_string f))
          (Spirv_ir.Lint.check_module m))
      mods;
    if not json then
      Printf.printf "linted %d module(s): %d error(s), %d warning(s)\n"
        (List.length mods) !errors !warnings;
    if !errors > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the IR lint suite (dead blocks/results, phi mismatches, \
             undominated uses, write-only locals, block order) over a module \
             or the whole corpus.  Exits non-zero on error-severity findings. \
             With $(b,--json), one JSON object per finding per line.")
    Term.(const (fun p c a j -> Stdlib.exit (run p c a j)) $ file_arg
          $ corpus_arg $ all_arg $ json_arg)

let tv_cmd =
  let all_arg =
    Arg.(value & flag
         & info [ "all" ]
             ~doc:"Validate every corpus reference (including the loop \
                   corpus) instead of one module.")
  in
  let run path corpus all target json =
    let t = or_die (find_target target) in
    let mods =
      if all then corpus_modules ()
      else
        let name =
          match (path, corpus) with
          | Some p, _ -> p
          | None, Some c -> c
          | None, None -> "<module>"
        in
        [ (name, or_die (load ~path ~corpus)) ]
    in
    let mismatches = ref 0 and abstentions = ref 0 in
    let report name (p : Compilers.Optimizer.pass_name)
        (v : Compilers.Tv.verdict) =
      let pass = Compilers.Optimizer.show_pass_name p in
      if json then
        print_json
          Json.(
            [ ("module", Str name); ("target", Str t.Compilers.Target.name);
              ("pass", Str pass) ]
            @
            match v with
            | Compilers.Tv.Equivalent -> [ ("verdict", Str "equivalent") ]
            | Compilers.Tv.Mismatch w ->
                [ ("verdict", Str "mismatch"); ("slot", Str w.Compilers.Tv.w_slot);
                  ("before", Str w.Compilers.Tv.w_before);
                  ("after", Str w.Compilers.Tv.w_after) ]
            | Compilers.Tv.Abstained reason ->
                [ ("verdict", Str "abstained"); ("reason", Str reason) ])
      else
        match v with
        | Compilers.Tv.Equivalent -> ()
        | Compilers.Tv.Mismatch w ->
            Printf.printf "%s: MISMATCH in %s (%s slot):\n  before: %s\n  after:  %s\n"
              name pass w.Compilers.Tv.w_slot w.Compilers.Tv.w_before
              w.Compilers.Tv.w_after
        | Compilers.Tv.Abstained reason ->
            Printf.printf "%s: %s abstained: %s\n" name pass reason
    in
    List.iter
      (fun (name, m) ->
        match
          Compilers.Optimizer.run_tv ~flags:t.Compilers.Target.opt_flags
            t.Compilers.Target.pipeline m
        with
        | Error signature ->
            if json then
              print_json
                Json.
                  [
                    ("module", Str name); ("target", Str t.Compilers.Target.name);
                    ("verdict", Str "crash"); ("signature", Str signature);
                  ]
            else Printf.printf "%s: optimizer crashed: %s\n" name signature
        | Ok report_ ->
            List.iter
              (fun (p, v) ->
                (match v with
                | Compilers.Tv.Mismatch _ -> incr mismatches
                | Compilers.Tv.Abstained _ -> incr abstentions
                | Compilers.Tv.Equivalent -> ());
                report name p v)
              report_.Compilers.Optimizer.tv_steps;
            match report_.Compilers.Optimizer.tv_guilty with
            | Some p when not json ->
                Printf.printf "%s: guilty pass: %s\n" name
                  (Compilers.Optimizer.show_pass_name p)
            | _ -> ())
      mods;
    if not json then
      Printf.printf
        "validated %d module(s) against %s's pipeline: %d mismatch(es), %d \
         abstention(s)\n"
        (List.length mods) t.Compilers.Target.name !mismatches !abstentions;
    if !mismatches > 0 then 1 else 0
  in
  Cmd.v
    (Cmd.info "tv"
       ~doc:"Translation-validate an optimizer pipeline on a module: run \
             every pass of the target's pipeline (with its injected-bug \
             flags) and check each before/after pair for symbolic \
             equivalence, naming the guilty pass of any mismatch.  Exits \
             non-zero on mismatch; abstentions are reported but never \
             treated as bugs.  With $(b,--json), one JSON verdict per line.")
    Term.(const (fun p c a t j -> Stdlib.exit (run p c a t j)) $ file_arg
          $ corpus_arg $ all_arg $ target_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* analyze: the loop forest and value ranges behind the TV oracle      *)

let analyze_cmd =
  let loops_arg =
    Arg.(value & flag
         & info [ "loops" ] ~doc:"Print only the natural-loop forest.")
  in
  let ranges_arg =
    Arg.(value & flag
         & info [ "ranges" ]
             ~doc:"Print only the value ranges and trip-count bounds.")
  in
  let memory_arg =
    Arg.(value & flag
         & info [ "memory" ]
             ~doc:"Print only the memory/alias analysis: access paths, \
                   in-bounds proofs, alias pair classification and the \
                   def-use findings.")
  in
  let run path corpus loops_only ranges_only memory_only json =
    let m = or_die (load ~path ~corpus) in
    let show_loops = loops_only || (not ranges_only && not memory_only) in
    let show_ranges = ranges_only || (not loops_only && not memory_only) in
    let show_memory = memory_only || (not loops_only && not ranges_only) in
    let id = Spirv_ir.Id.to_string in
    let ids l = String.concat " " (List.map id l) in
    (* JSON interval corners: null stands for the infinite sentinel *)
    let corner n =
      if n = min_int || n = max_int then Json.Null else Json.Int n
    in
    List.iter
      (fun (f : Spirv_ir.Func.t) ->
        let av = Spirv_ir.Dataflow.Availability.make m f in
        let cfg = Spirv_ir.Dataflow.Availability.cfg av in
        let dom = Spirv_ir.Dataflow.Availability.dominance av in
        let forest = Spirv_ir.Loops.analyze cfg dom in
        let ranges =
          Spirv_ir.Dataflow.Ranges.compute m f ~cfg ~loops:forest
        in
        let bound_of (l : Spirv_ir.Loops.loop) =
          Spirv_ir.Dataflow.Ranges.trip_bound ranges ~header:l.Spirv_ir.Loops.header
        in
        let mem =
          if show_memory then Some (Spirv_ir.Memory.analyze m f ~avail:av)
          else None
        in
        if json then begin
          let open Json in
          let loop_obj (l : Spirv_ir.Loops.loop) =
            Obj
              [
                ("header", Str (id l.Spirv_ir.Loops.header));
                ("depth", Int l.Spirv_ir.Loops.depth);
                ("blocks", Int (Spirv_ir.Id.Set.cardinal l.Spirv_ir.Loops.blocks));
                ( "latches",
                  List (List.map (fun b -> Str (id b)) l.Spirv_ir.Loops.latches) );
                ("exits", Int (List.length l.Spirv_ir.Loops.exits));
                ( "trip_bound",
                  match bound_of l with Some n -> Int n | None -> Null );
              ]
          in
          let range_obj (r, (itv : Spirv_ir.Dataflow.Itv.t)) =
            Obj
              [
                ("id", Str (id r)); ("lo", corner itv.Spirv_ir.Dataflow.Itv.lo);
                ("hi", corner itv.Spirv_ir.Dataflow.Itv.hi);
              ]
          in
          let access_obj (a : Spirv_ir.Memory.access) =
            Obj
              [
                ( "kind",
                  Str
                    (match a.Spirv_ir.Memory.a_kind with
                    | Spirv_ir.Memory.ALoad -> "load"
                    | Spirv_ir.Memory.AStore -> "store") );
                ("block", Str (id a.Spirv_ir.Memory.a_block));
                ("ptr", Str (id a.Spirv_ir.Memory.a_ptr));
                ( "path",
                  match a.Spirv_ir.Memory.a_path with
                  | Some p -> Str (Spirv_ir.Memory.path_to_string p)
                  | None -> Null );
                ("in_bounds", Bool a.Spirv_ir.Memory.in_bounds);
              ]
          in
          let memory_field =
            match mem with
            | None -> []
            | Some mem ->
                let s = Spirv_ir.Memory.stats mem in
                [
                  ( "memory",
                    Obj
                      [
                        ("loads", Int s.Spirv_ir.Memory.n_loads);
                        ("stores", Int s.Spirv_ir.Memory.n_stores);
                        ("resolved", Int s.Spirv_ir.Memory.n_resolved);
                        ("in_bounds", Int s.Spirv_ir.Memory.n_in_bounds);
                        ("pairs", Int s.Spirv_ir.Memory.n_pairs);
                        ("no_alias", Int s.Spirv_ir.Memory.n_no_alias);
                        ("may_alias", Int s.Spirv_ir.Memory.n_may_alias);
                        ("must_alias", Int s.Spirv_ir.Memory.n_must_alias);
                        ("uninitialized", Int s.Spirv_ir.Memory.n_uninitialized);
                        ("dead_stores", Int s.Spirv_ir.Memory.n_dead_stores);
                        ("redundant_loads", Int s.Spirv_ir.Memory.n_redundant_loads);
                        ( "accesses",
                          List (List.map access_obj (Spirv_ir.Memory.accesses mem)) );
                      ] );
                ]
          in
          print_json
            ([
               ("fn", Str (id f.Spirv_ir.Func.id));
               ( "loops",
                 List
                   (if show_loops then List.map loop_obj forest.Spirv_ir.Loops.loops
                    else []) );
               ("irreducible", Int (List.length forest.Spirv_ir.Loops.irreducible));
               ( "ranges",
                 List
                   (if show_ranges then
                      List.map range_obj (Spirv_ir.Dataflow.Ranges.known ranges)
                    else []) );
             ]
            @ memory_field)
        end
        else begin
          Printf.printf "fn %s:\n" (id f.Spirv_ir.Func.id);
          if show_loops then begin
            if forest.Spirv_ir.Loops.loops = [] then
              print_endline "  no loops";
            List.iter
              (fun (l : Spirv_ir.Loops.loop) ->
                Printf.printf
                  "  loop %s: depth %d, %d block(s), latches [%s], %d \
                   exit(s), trip bound %s\n"
                  (id l.Spirv_ir.Loops.header) l.Spirv_ir.Loops.depth
                  (Spirv_ir.Id.Set.cardinal l.Spirv_ir.Loops.blocks)
                  (ids l.Spirv_ir.Loops.latches)
                  (List.length l.Spirv_ir.Loops.exits)
                  (match bound_of l with
                  | Some n -> string_of_int n
                  | None -> "unproven"))
              forest.Spirv_ir.Loops.loops;
            List.iter
              (fun (u, v) ->
                Printf.printf "  irreducible edge %s -> %s\n" (id u) (id v))
              forest.Spirv_ir.Loops.irreducible
          end;
          if show_ranges then begin
            (match
               Spirv_ir.Id.Set.elements
                 (Spirv_ir.Dataflow.Ranges.tracked ranges)
             with
            | [] -> ()
            | cells -> Printf.printf "  tracked cells: %s\n" (ids cells));
            List.iter
              (fun (r, itv) ->
                Printf.printf "  %s in %s\n" (id r)
                  (Spirv_ir.Dataflow.Itv.to_string itv))
              (Spirv_ir.Dataflow.Ranges.known ranges)
          end;
          match mem with
          | None -> ()
          | Some mem ->
              let s = Spirv_ir.Memory.stats mem in
              Printf.printf
                "  memory: %d load(s), %d store(s), %d resolved, %d \
                 in-bounds; pairs: %d no-alias, %d may-alias, %d must-alias\n"
                s.Spirv_ir.Memory.n_loads s.Spirv_ir.Memory.n_stores
                s.Spirv_ir.Memory.n_resolved s.Spirv_ir.Memory.n_in_bounds
                s.Spirv_ir.Memory.n_no_alias s.Spirv_ir.Memory.n_may_alias
                s.Spirv_ir.Memory.n_must_alias;
              List.iter
                (fun a ->
                  Printf.printf "  %s\n"
                    (Spirv_ir.Memory.access_to_string mem a))
                (Spirv_ir.Memory.accesses mem);
              let findings label accs =
                List.iter
                  (fun (a : Spirv_ir.Memory.access) ->
                    Printf.printf "  %s: %s in %s\n" label
                      (id a.Spirv_ir.Memory.a_ptr)
                      (id a.Spirv_ir.Memory.a_block))
                  accs
              in
              findings "uninitialized-load"
                (Spirv_ir.Memory.uninitialized_loads mem);
              findings "dead-store" (Spirv_ir.Memory.dead_stores mem);
              List.iter
                (fun ((_, later) : Spirv_ir.Memory.access * _) ->
                  Printf.printf "  redundant-load: %s in %s\n"
                    (id later.Spirv_ir.Memory.a_ptr)
                    (id later.Spirv_ir.Memory.a_block))
                (Spirv_ir.Memory.redundant_loads mem)
        end)
      m.Spirv_ir.Module_ir.functions
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Print the static analyses the TV oracle runs on a module: the \
             natural-loop forest (headers, nesting, latches, exits, proven \
             trip-count bounds), the interval value ranges, and the \
             memory/alias analysis (access paths, in-bounds proofs, alias \
             classification, def-use findings), per function.  \
             $(b,--loops), $(b,--ranges) or $(b,--memory) restricts the \
             report; with $(b,--json), one JSON object per function per \
             line.")
    Term.(const run $ file_arg $ corpus_arg $ loops_arg $ ranges_arg
          $ memory_arg $ json_arg)

let disasm_cmd =
  let run path corpus =
    let m = or_die (load ~path ~corpus) in
    print_string (Spirv_ir.Disasm.to_string m)
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Print the canonical textual form of a module.")
    Term.(const run $ file_arg $ corpus_arg)

let render_cmd =
  let run path corpus uniforms =
    let m = or_die (load ~path ~corpus) in
    let input = or_die (input_of_spec uniforms) in
    match Spirv_ir.Interp.render m input with
    | Ok img -> print_string (Spirv_ir.Image.to_ascii img)
    | Error t ->
        prerr_endline ("trap: " ^ Spirv_ir.Interp.trap_to_string t);
        exit 1
  in
  Cmd.v
    (Cmd.info "render"
       ~doc:"Execute a module on the reference interpreter and print the image.")
    Term.(const run $ file_arg $ corpus_arg $ uniforms_arg)

let run_cmd =
  let run path corpus target uniforms =
    let m = or_die (load ~path ~corpus) in
    let t = or_die (find_target target) in
    let input = or_die (input_of_spec uniforms) in
    match Compilers.Backend.run t m input with
    | Compilers.Backend.Rendered img ->
        Printf.printf "rendered on %s:\n%s" target (Spirv_ir.Image.to_ascii img)
    | Compilers.Backend.Compiled_ok -> Printf.printf "compiled ok on %s\n" target
    | Compilers.Backend.Crashed s ->
        Printf.printf "CRASH on %s: %s\n" target s;
        exit 2
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute a module on a (buggy) target.")
    Term.(const run $ file_arg $ corpus_arg $ target_arg $ uniforms_arg)

let targets_cmd =
  let run () =
    Printf.printf "%-14s %-22s %-10s %s\n" "Target" "Version" "GPU" "Bugs";
    List.iter
      (fun (t : Compilers.Target.t) ->
        Printf.printf "%-14s %-22s %-10s %s\n" t.Compilers.Target.name
          t.Compilers.Target.version
          (Compilers.Target.gpu_type_to_string t.Compilers.Target.gpu)
          (String.concat ", "
             (t.Compilers.Target.crash_bug_ids @ t.Compilers.Target.miscompile_bug_ids)))
      Compilers.Target.all
  in
  Cmd.v (Cmd.info "targets" ~doc:"List the Table 2 targets and their bug rosters.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* transformations: the registry as a user-facing catalogue            *)

let transformations_cmd =
  let seeds_arg =
    Arg.(value & opt int 0
         & info [ "seeds" ] ~docv:"N"
             ~doc:"Fuzz N corpus seeds and append per-type \
                   proposed/applied counters to the listing — the quick \
                   way to see how $(b,--weights) shifts sampling.")
  in
  let weights_arg =
    Arg.(value & opt (some string) None
         & info [ "weights" ] ~docv:"FAMILY=N,..."
             ~doc:"Per-family sampling-weight multipliers used by \
                   $(b,--seeds) (same syntax as campaign --weights).")
  in
  let run json seeds weights =
    let weights =
      match weights with
      | None -> []
      | Some s -> (
          match Spirv_fuzz.Registry.parse_weights s with
          | Ok w -> w
          | Error msg ->
              prerr_endline ("error: --weights: " ^ msg);
              exit 1)
    in
    let counters = Hashtbl.create 64 in
    if seeds > 0 then begin
      let refs = Lazy.force Corpus.lowered_references in
      let donors = List.map snd (Lazy.force Corpus.lowered_donors) in
      for seed = 0 to seeds - 1 do
        let _, m = List.nth refs (seed mod List.length refs) in
        let ctx = Spirv_fuzz.Context.make m Corpus.default_input in
        let config =
          {
            Spirv_fuzz.Fuzzer.default_config with
            Spirv_fuzz.Fuzzer.donors = donors;
            Spirv_fuzz.Fuzzer.weights = weights;
          }
        in
        let result = Spirv_fuzz.Fuzzer.run ~config ~seed ctx in
        List.iter
          (fun (ty, proposed, applied) ->
            let p0, a0 =
              Option.value ~default:(0, 0) (Hashtbl.find_opt counters ty)
            in
            Hashtbl.replace counters ty (p0 + proposed, a0 + applied))
          result.Spirv_fuzz.Fuzzer.counters
      done
    end;
    let tally ty = Option.value ~default:(0, 0) (Hashtbl.find_opt counters ty) in
    let pass_name (e : Spirv_fuzz.Registry.entry) =
      Option.map (fun (p : Spirv_fuzz.Pass.t) -> p.Spirv_fuzz.Pass.name)
        e.Spirv_fuzz.Registry.pass
    in
    if json then
      List.iter
        (fun (e : Spirv_fuzz.Registry.entry) ->
          let proposed, applied = tally e.Spirv_fuzz.Registry.type_id in
          print_json
            Json.(
              [
                ("type_id", Str e.Spirv_fuzz.Registry.type_id);
                ( "family",
                  Str
                    (Spirv_fuzz.Registry.family_to_string
                       e.Spirv_fuzz.Registry.family) );
                ("pass", match pass_name e with Some p -> Str p | None -> Null);
                ("dedup_relevant", Bool e.Spirv_fuzz.Registry.dedup_relevant);
              ]
              @
              if seeds > 0 then
                [ ("proposed", Int proposed); ("applied", Int applied) ]
              else []))
        Spirv_fuzz.Registry.all
    else begin
      Printf.printf "%-34s %-12s %-28s %-6s%s\n" "Type" "Family" "Pass" "Dedup"
        (if seeds > 0 then Printf.sprintf " %9s %9s" "Proposed" "Applied"
         else "");
      List.iter
        (fun (e : Spirv_fuzz.Registry.entry) ->
          let proposed, applied = tally e.Spirv_fuzz.Registry.type_id in
          Printf.printf "%-34s %-12s %-28s %-6s%s\n"
            e.Spirv_fuzz.Registry.type_id
            (Spirv_fuzz.Registry.family_to_string e.Spirv_fuzz.Registry.family)
            (Option.value ~default:"-" (pass_name e))
            (if e.Spirv_fuzz.Registry.dedup_relevant then "yes" else "no")
            (if seeds > 0 then Printf.sprintf " %9d %9d" proposed applied
             else ""))
        Spirv_fuzz.Registry.all
    end
  in
  Cmd.v
    (Cmd.info "transformations"
       ~doc:
         "List the transformation registry: every transformation type with \
          its family, proposing pass and dedup flag — the table that drives \
          deduplication and campaign scheduling.")
    Term.(const run $ json_arg $ seeds_arg $ weights_arg)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)

let fuzz_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the variant module here.")
  in
  let count_arg =
    Arg.(value & opt int 0
         & info [ "max-transformations" ] ~docv:"N"
             ~doc:"Cap on recorded transformations (0 = default).")
  in
  let run path corpus seed out cap check_contracts =
    let m = or_die (load ~path ~corpus) in
    let ctx = Spirv_fuzz.Context.make m Corpus.default_input in
    let config =
      let base =
        {
          Spirv_fuzz.Fuzzer.default_config with
          Spirv_fuzz.Fuzzer.donors = List.map snd (Lazy.force Corpus.lowered_donors);
          Spirv_fuzz.Fuzzer.check_contracts = check_contracts;
        }
      in
      if cap > 0 then { base with Spirv_fuzz.Fuzzer.max_transformations = cap } else base
    in
    let result = or_contract_violation (fun () -> Spirv_fuzz.Fuzzer.run ~config ~seed ctx) in
    let variant = result.Spirv_fuzz.Fuzzer.final.Spirv_fuzz.Context.m in
    Printf.printf "applied %d transformations over %d passes; %d -> %d instructions\n"
      (List.length result.Spirv_fuzz.Fuzzer.transformations)
      (List.length result.Spirv_fuzz.Fuzzer.passes_run)
      (Spirv_ir.Module_ir.instruction_count m)
      (Spirv_ir.Module_ir.instruction_count variant);
    let tally = Hashtbl.create 16 in
    List.iter
      (fun t ->
        let k = Spirv_fuzz.Transformation.type_id t in
        Hashtbl.replace tally k (1 + Option.value ~default:0 (Hashtbl.find_opt tally k)))
      result.Spirv_fuzz.Fuzzer.transformations;
    Hashtbl.iter (fun k n -> Printf.printf "  %-28s %d\n" k n) tally;
    match out with
    | Some path ->
        write_module path variant;
        Printf.printf "variant written to %s\n" path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Apply random semantics-preserving transformations to a module.")
    Term.(const run $ file_arg $ corpus_arg $ seed_arg $ out_arg $ count_arg
          $ check_contracts_arg)

(* ------------------------------------------------------------------ *)
(* hunt: fuzz against a target until a bug is found, then reduce       *)

let hunt_cmd =
  let seeds_arg =
    Arg.(value & opt int 200 & info [ "seeds" ] ~docv:"N" ~doc:"Seeds to try.")
  in
  let domains_arg =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"N"
             ~doc:"Scan seeds on N parallel domains (block-wise; the seed \
                   reported is the smallest triggering one, identical to \
                   the sequential scan).")
  in
  let run path corpus target seeds domains =
    let m = or_die (load ~path ~corpus) in
    let t = or_die (find_target target) in
    let input = Corpus.default_input in
    let engine = Harness.Engine.create () in
    let config =
      {
        Spirv_fuzz.Fuzzer.default_config with
        Spirv_fuzz.Fuzzer.donors = List.map snd (Lazy.force Corpus.lowered_donors);
      }
    in
    (* the baseline cache's key for the one module this engine tests *)
    let ref_name =
      match (path, corpus) with Some n, _ | None, Some n -> n | None, None -> ""
    in
    (* each variant runs on its own input: AddUniform extends it in sync
       with the module *)
    let try_seed seed =
      let ctx = Spirv_fuzz.Context.make m input in
      let result = Spirv_fuzz.Fuzzer.run ~config ~seed ctx in
      let final = result.Spirv_fuzz.Fuzzer.final in
      Option.map
        (fun d -> (seed, result, d))
        (Harness.Pipeline.run_variant engine t ~ref_name ~original:m
           ~variant_input:final.Spirv_fuzz.Context.input
           ~variant:final.Spirv_fuzz.Context.m input)
    in
    let workers = max 1 (min domains seeds) in
    let found =
      if workers = 1 then begin
        (* sequential scan with early exit at the first triggering seed *)
        let rec go seed =
          if seed >= seeds then None
          else match try_seed seed with Some f -> Some f | None -> go (seed + 1)
        in
        go 0
      end
      else
        (* block-wise parallel scan: each round tests the next [block]
           seeds across the pool and picks the first hit in task (= seed)
           order, so the answer is the smallest triggering seed — the same
           one the sequential scan reports — while still stopping within
           one block of it *)
        Harness.Pool.with_pool ~workers (fun pool ->
            let block = workers * 4 in
            let rec scan lo =
              if lo >= seeds then None
              else begin
                let n = min block (seeds - lo) in
                let results = Harness.Pool.map pool n (fun i -> try_seed (lo + i)) in
                match Array.find_map Fun.id results with
                | Some f -> Some f
                | None -> scan (lo + n)
              end
            in
            scan 0)
    in
    (match found with
     | None -> Printf.printf "no bug found on %s in %d seeds\n" target seeds
     | Some (seed, result, detection) ->
       Printf.printf "seed %d triggers: %s\n" seed
         detection.Harness.Pipeline.signature;
       let ctx = Spirv_fuzz.Context.make m input in
       (* counted here, so the shrink's queries are included *)
       let queries = ref 0 in
       let is_interesting (c : Spirv_fuzz.Context.t) =
         incr queries;
         Harness.Pipeline.interestingness engine t ~ref_name ~original:m
           ~detection input c.Spirv_fuzz.Context.m c.Spirv_fuzz.Context.input
       in
       let r =
         Spirv_fuzz.Reducer.reduce ~original:ctx ~is_interesting
           result.Spirv_fuzz.Fuzzer.transformations
         (* the spirv-reduce analog, as every campaign reduction runs it *)
         |> Spirv_fuzz.Reducer.shrink_add_functions ~is_interesting
       in
       Printf.printf "reduced %d transformations to %d (%d interestingness queries)\n"
         r.Spirv_fuzz.Reducer.stats.Tbct.Reducer.initial
         r.Spirv_fuzz.Reducer.stats.Tbct.Reducer.kept !queries;
       List.iter
         (fun tr -> Printf.printf "  %s\n" (Spirv_fuzz.Transformation.type_id tr))
         r.Spirv_fuzz.Reducer.transformations;
       Printf.printf "delta between original and reduced variant:\n%s\n"
         (Spirv_fuzz.Reducer.delta_listing ~original:ctx r.Spirv_fuzz.Reducer.reduced));
    print_endline (Harness.Engine.stats_to_string (Harness.Engine.stats engine))
  in
  Cmd.v
    (Cmd.info "hunt"
       ~doc:"Fuzz a module against a target until a bug appears, then reduce it.")
    Term.(const run $ file_arg $ corpus_arg $ target_arg $ seeds_arg
          $ domains_arg)

(* ------------------------------------------------------------------ *)
(* campaign                                                            *)

let campaign_cmd =
  let seeds_arg =
    Arg.(value & opt int 100 & info [ "seeds" ] ~docv:"N" ~doc:"Seeds per tool.")
  in
  let tool_arg =
    Arg.(value & opt string "spirv-fuzz"
         & info [ "tool" ] ~doc:"spirv-fuzz | spirv-fuzz-simple | glsl-fuzz")
  in
  let domains_arg =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"N"
             ~doc:"Parallel domains to run the campaign on (hit list is \
                   identical to the sequential one).")
  in
  let stats_arg =
    Arg.(value & flag
         & info [ "stats" ] ~doc:"Print engine cache/instrumentation stats.")
  in
  let store_arg =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Persist the campaign in $(docv): content-addressed run \
                   cache (read/write-through) plus a checksummed journal of \
                   completed seeds.")
  in
  let resume_arg =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Resume a killed campaign from the store's journal: \
                   recorded seeds are spliced in without re-execution and \
                   the hit list is bit-identical to an uninterrupted run. \
                   Requires $(b,--store).")
  in
  let fsync_arg =
    Arg.(value & flag
         & info [ "fsync" ]
             ~doc:"fsync every store write and journal record (survives \
                   power loss, not just process death).")
  in
  let hits_out_arg =
    Arg.(value & opt (some string) None
         & info [ "hits-out" ] ~docv:"FILE"
             ~doc:"Write the hit list to $(docv), one line per hit — \
                   byte-comparable across runs.")
  in
  let tv_arg =
    Arg.(value & flag
         & info [ "tv" ]
             ~doc:"Run the translation validator as a second oracle on \
                   every variant: miscompilation signatures are refined to \
                   per-pass buckets (miscompile:TARGET:PASS) and optimizer \
                   miscompilations are caught even on targets that cannot \
                   render.")
  in
  let weights_arg =
    Arg.(value & opt (some string) None
         & info [ "weights" ] ~docv:"FAMILY=N,..."
             ~doc:"Rescale the fuzzer's per-family sampling weights, e.g. \
                   $(b,control_flow=5,data=2) (families: tbct \
                   transformations).  Omitted families keep weight 1; a \
                   family weighted 0 is never drawn.  The default is the \
                   uniform draw, bit-identical to earlier releases.")
  in
  let reference_interp_arg =
    Arg.(value & flag
         & info [ "reference-interp" ]
             ~doc:"Execute fragments with the reference interpreter instead \
                   of the flat compiled kernel.  The hit list is \
                   bit-identical either way; CI runs both and diffs the \
                   output files to prove it.")
  in
  let run seeds tool domains stats check_contracts tv weights store resume
      fsync hits_out reference_interp =
    let compiled = not reference_interp in
    let tool =
      match Harness.Pipeline.tool_of_name tool with
      | Some t -> t
      | None ->
          prerr_endline ("unknown tool " ^ tool);
          exit 1
    in
    let weights =
      match weights with
      | None -> []
      | Some s -> (
          match Spirv_fuzz.Registry.parse_weights s with
          | Ok w -> w
          | Error msg ->
              prerr_endline ("error: --weights: " ^ msg);
              exit 1)
    in
    let scale = { Harness.Experiments.default_scale with Harness.Experiments.seeds = seeds } in
    let engine, hits =
      match store with
      | None ->
          if resume then begin
            prerr_endline "error: --resume requires --store DIR";
            exit 1
          end;
          let engine = Harness.Engine.create ~compiled () in
          let hits =
            or_contract_violation (fun () ->
                Harness.Experiments.run_campaign ~scale ~domains ~engine
                  ~check_contracts ~tv ~weights tool)
          in
          (engine, hits)
      | Some dir ->
          let cas = Harness.Persist.open_cas ~fsync ~dir () in
          let engine = Harness.Engine.create ~store:cas ~compiled () in
          (* Ctrl-C checkpoints instead of killing: the handler flips one
             atomic, the campaign's stop hook sees it before each fresh
             seed, and everything already finished is in the journal — the
             same path the service daemon uses, so `--resume` completes
             the run bit-identical to an uninterrupted one. *)
          let interrupted = Atomic.make false in
          let prev_sigint =
            Sys.signal Sys.sigint
              (Sys.Signal_handle (fun _ -> Atomic.set interrupted true))
          in
          let outcome =
            Fun.protect
              ~finally:(fun () -> Sys.set_signal Sys.sigint prev_sigint)
              (fun () ->
                or_contract_violation (fun () ->
                    Harness.Persist.run_campaign ~scale ~domains ~engine
                      ~check_contracts ~tv ~weights ~resume ~fsync
                      ~stop:(fun () -> Atomic.get interrupted)
                      ~dir tool))
          in
          let o = or_die outcome in
          if not o.Harness.Persist.completed then begin
            Printf.printf
              "interrupted: %d seed(s) journaled in %s; rerun with --resume \
               to finish (bit-identical to an uninterrupted run)\n"
              (o.Harness.Persist.seeds_skipped + o.Harness.Persist.seeds_run)
              dir;
            exit 130
          end;
          if resume then begin
            Printf.printf "resume: %d seed(s) replayed from the journal%s, %d executed\n"
              o.Harness.Persist.seeds_skipped
              (if o.Harness.Persist.journal_dropped then
                 " (torn trailing record discarded)"
               else "")
              o.Harness.Persist.seeds_run;
            match o.Harness.Persist.extended_from with
            | Some n ->
                Printf.printf "resume: extended the campaign from %d to %d seeds\n"
                  n seeds
            | None -> ()
          end;
          (engine, o.Harness.Persist.hits)
    in
    Printf.printf "%d detections from %d seeds\n" (List.length hits) seeds;
    if stats then
      print_endline (Harness.Engine.stats_to_string (Harness.Engine.stats engine));
    (match hits_out with
    | None -> ()
    | Some path ->
        let oc = open_out_bin path in
        (* the same encoder the service's hits verb uses, so batch and
           daemon output are byte-comparable by construction *)
        List.iter
          (fun h -> output_string oc (Harness.Persist.hit_line h ^ "\n"))
          hits;
        close_out oc;
        Printf.printf "hit list written to %s\n" path);
    let tally = Hashtbl.create 16 in
    List.iter
      (fun (h : Harness.Experiments.hit) ->
        let k =
          h.Harness.Experiments.hit_target ^ " / "
          ^ h.Harness.Experiments.hit_detection.Harness.Pipeline.signature
        in
        Hashtbl.replace tally k (1 + Option.value ~default:0 (Hashtbl.find_opt tally k)))
      hits;
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) tally []
    |> List.sort compare
    |> List.iter (fun (k, n) -> Printf.printf "  %-70s %3d\n" k n)
  in
  Cmd.v
    (Cmd.info "campaign" ~doc:"Run a fuzzing campaign over all targets.")
    Term.(const run $ seeds_arg $ tool_arg $ domains_arg $ stats_arg
          $ check_contracts_arg $ tv_arg $ weights_arg $ store_arg
          $ resume_arg $ fsync_arg $ hits_out_arg $ reference_interp_arg)

(* ------------------------------------------------------------------ *)
(* store: inspect and maintain a campaign store directory               *)

let store_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DIR" ~doc:"The campaign store directory.")
  in
  let stats_cmd =
    let run dir json =
      let cas = Harness.Persist.open_cas ~dir () in
      let s = Tbct_store.Cas.stats cas in
      let replay = Tbct_store.Journal.replay ~path:(Harness.Persist.journal_path dir) in
      let bank = Tbct_store.Bugbank.load ~dir:(Harness.Persist.bugbank_dir dir) in
      (* a serve root additionally carries a job queue whose journal
         records per-job tv-abstain counter snapshots *)
      let job_counters =
        let jobs_dir = Filename.concat dir "jobs" in
        if Sys.file_exists (Filename.concat jobs_dir "jobs.log") then begin
          let jobs = Tbct_store.Jobs.open_ ~dir:jobs_dir () in
          let entries =
            List.map
              (fun ((r : Tbct_store.Jobs.record), _) ->
                (r.Tbct_store.Jobs.id,
                 Tbct_store.Jobs.counters jobs ~id:r.Tbct_store.Jobs.id))
              (Tbct_store.Jobs.entries jobs)
          in
          Tbct_store.Jobs.close jobs;
          entries
        end
        else []
      in
      if json then
        print_json
          Json.
            [
              ( "cas",
                Obj
                  [
                    ("objects", Int s.Tbct_store.Cas.objects);
                    ("bytes", Int s.Tbct_store.Cas.bytes);
                    ("root", Str (Tbct_store.Cas.root cas));
                  ] );
              ( "journal",
                Obj
                  [
                    ("records", Int (List.length replay.Tbct_store.Journal.records));
                    ("torn_tail", Bool replay.Tbct_store.Journal.dropped);
                  ] );
              ("bugbank", Obj [ ("signatures", Int (Tbct_store.Bugbank.size bank)) ]);
              ( "jobs",
                Obj
                  (List.map
                     (fun (id, kvs) ->
                       (id, Obj (List.map (fun (k, v) -> (k, Int v)) kvs)))
                     job_counters) );
            ]
      else begin
        Printf.printf "cas: %d object(s), %d bytes in %s\n"
          s.Tbct_store.Cas.objects s.Tbct_store.Cas.bytes
          (Tbct_store.Cas.root cas);
        Printf.printf "journal: %d valid record(s)%s\n"
          (List.length replay.Tbct_store.Journal.records)
          (if replay.Tbct_store.Journal.dropped then
             " + a torn trailing record (killed campaign; resumable)"
           else "");
        Printf.printf "bugbank: %d signature(s)\n" (Tbct_store.Bugbank.size bank);
        List.iter
          (fun (id, kvs) ->
            if kvs <> [] then
              Printf.printf "%s: %s\n" id
                (String.concat ", "
                   (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) kvs)))
          job_counters
      end
    in
    Cmd.v
      (Cmd.info "stats"
         ~doc:"Report the store's cache size, journal state and bug bank.")
      Term.(const run $ dir_arg $ json_arg)
  in
  let gc_cmd =
    let max_bytes_arg =
      Arg.(required & opt (some int) None
           & info [ "max-bytes" ] ~docv:"N"
               ~doc:"Evict least-recently-used objects until the cache holds \
                     at most $(docv) bytes.")
    in
    let run dir max_bytes =
      let cas = Harness.Persist.open_cas ~dir () in
      let evicted = Tbct_store.Cas.gc cas ~max_bytes in
      let s = Tbct_store.Cas.stats cas in
      Printf.printf "evicted %d object(s); %d object(s), %d bytes remain\n"
        evicted s.Tbct_store.Cas.objects s.Tbct_store.Cas.bytes;
      if s.Tbct_store.Cas.bytes > max_bytes then begin
        prerr_endline "error: cache still exceeds the size bound after gc";
        exit 1
      end
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:"Enforce a size bound on the run cache (LRU eviction; recency \
               survives restarts via file mtimes).")
      Term.(const run $ dir_arg $ max_bytes_arg)
  in
  let export_cmd =
    let out_arg =
      Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write here instead of stdout.")
    in
    let run dir out =
      let bank = Tbct_store.Bugbank.load ~dir:(Harness.Persist.bugbank_dir dir) in
      let dump = Tbct_store.Bugbank.to_string bank in
      match out with
      | None -> print_string dump
      | Some path ->
          let oc = open_out_bin path in
          output_string oc dump;
          close_out oc;
          Printf.printf "%d signature(s) exported to %s\n"
            (Tbct_store.Bugbank.size bank) path
    in
    Cmd.v
      (Cmd.info "export"
         ~doc:"Dump the bug bank in its portable mergeable form (feed it to \
               another machine's bank directory as bugbank.txt, or merge \
               banks by concatenating exports through dedup --bank).")
      Term.(const run $ dir_arg $ out_arg)
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:"Inspect and maintain a campaign store directory (run cache, \
             journal, bug bank).")
    [ stats_cmd; gc_cmd; export_cmd ]

(* ------------------------------------------------------------------ *)
(* dedup: fuzz, reduce the crashes, run the Figure 6 selection            *)

let dedup_cmd =
  let seeds_arg =
    Arg.(value & opt int 150 & info [ "seeds" ] ~docv:"N" ~doc:"Seeds to fuzz.")
  in
  let cap_arg =
    Arg.(value & opt int 3
         & info [ "cap" ] ~docv:"N" ~doc:"Reductions per crash signature.")
  in
  let bank_arg =
    Arg.(value & opt (some string) None
         & info [ "bank" ] ~docv:"DIR"
             ~doc:"Record the reduced tests' signatures in $(docv)'s \
                   persistent bug bank and report newly-seen vs \
                   already-known bugs.  Exit code 3 means every signature \
                   was already banked (no new bugs).")
  in
  let domains_arg =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"N"
             ~doc:"Run both phases — the campaign and the per-hit \
                   reductions — on N parallel domains sharing one \
                   work-stealing pool; hits and reduced tests are identical \
                   to the sequential run.")
  in
  let tests_out_arg =
    Arg.(value & opt (some string) None
         & info [ "tests-out" ] ~docv:"FILE"
             ~doc:"Write the reduced tests to $(docv), one line per test \
                   (target, bug id, minimized transformation types) — \
                   byte-comparable across runs and domain counts.")
  in
  let emit_arg =
    Arg.(value & opt (some string) None
         & info [ "emit-dir" ] ~docv:"DIR"
             ~doc:"Write each reduced test's minimized module to \
                   $(docv)/TARGET__BUGID.spvasm — including tests recalled \
                   from the bank without re-reducing.")
  in
  (* the bank's CAS record for one reduced test: the ordered type-id list
     on the first line, the encoded minimized module after it *)
  let banked_key ~target ~bug_id =
    Tbct_store.Cas.key_of_string ("reduced:" ^ target ^ ":" ^ bug_id)
  in
  let encode_banked (d : Harness.Experiments.dedup_test) =
    String.concat "," d.Harness.Experiments.dd_types
    ^ "\n"
    ^ Tbct_store.Run_codec.encode_module d.Harness.Experiments.dd_module
  in
  let decode_banked ~bug_id blob : Harness.Experiments.dedup_test option =
    match String.index_opt blob '\n' with
    | None -> None
    | Some i -> (
        let types_line = String.sub blob 0 i in
        let rest = String.sub blob (i + 1) (String.length blob - i - 1) in
        match Tbct_store.Run_codec.decode_module rest with
        | None -> None
        | Some m ->
            Some
              {
                Harness.Experiments.dd_bug_id = bug_id;
                Harness.Experiments.dd_types =
                  (if String.equal types_line "" then []
                   else String.split_on_char ',' types_line);
                Harness.Experiments.dd_module = m;
              })
  in
  let reference_interp_arg =
    Arg.(value & flag
         & info [ "reference-interp" ]
             ~doc:"Execute fragments with the reference interpreter instead \
                   of the flat compiled kernel.  Reduced tests are \
                   bit-identical either way; CI runs both and diffs the \
                   output files to prove it.")
  in
  let run seeds cap domains bank tests_out emit_dir json reference_interp =
    let scale =
      {
        Harness.Experiments.default_scale with
        Harness.Experiments.seeds;
        Harness.Experiments.max_reductions_per_signature = cap;
      }
    in
    (* --json promises exactly one JSON document on stdout *)
    let say fmt =
      if json then Printf.ifprintf Stdlib.stdout fmt else Printf.printf fmt
    in
    say "fuzzing %d seeds against every target...
%!" seeds;
    let engine = Harness.Engine.create ~compiled:(not reference_interp) () in
    (* one pool serves both phases: campaign seeds, then per-hit reductions *)
    let workers = max 1 (min domains seeds) in
    Harness.Pool.with_pool ~workers @@ fun pool ->
    let hits =
      Harness.Experiments.run_campaign ~scale ~engine ~pool
        Harness.Pipeline.Spirv_fuzz_tool
    in
    let crashes =
      List.filter
        (fun (h : Harness.Experiments.hit) ->
          not
            (Harness.Signature.is_miscompilation
               h.Harness.Experiments.hit_detection.Harness.Pipeline.signature))
        hits
    in
    say "%d detections (%d crashes); reducing and deduplicating...
%!"
      (List.length hits) (List.length crashes);
    (* the bank's CAS holds previously-minimized modules: a hit whose
       (target, bug id) is already spilled is recalled instead of
       re-reduced (the hook is thread-safe: the CAS takes its own lock) *)
    let bank_cas =
      Option.map (fun dir -> Harness.Persist.open_cas ~dir ()) bank
    in
    let recalled = Atomic.make 0 in
    let known =
      Option.map
        (fun cas ~target ~bug_id ->
          (* an undecodable record is dropped, so it is re-spilled below *)
          let d =
            Tbct_store.Cas.get cas ~key:(banked_key ~target ~bug_id)
              ~decode:(decode_banked ~bug_id)
          in
          if Option.is_some d then Atomic.incr recalled;
          d)
        bank_cas
    in
    (* reduce each capped crash hit once; table4 and the bug bank share it *)
    let tests =
      Harness.Experiments.reduced_crash_tests ~scale ~engine ~pool ?known
        ~hits ()
    in
    if Atomic.get recalled > 0 then
      say "bank: %d reduced test(s) recalled without re-reducing\n"
        (Atomic.get recalled);
    (match tests_out with
    | None -> ()
    | Some path ->
        let oc = open_out_bin path in
        List.iter
          (fun (target, (d : Harness.Experiments.dedup_test)) ->
            Printf.fprintf oc "%s\t%s\t%s\n" target
              d.Harness.Experiments.dd_bug_id
              (String.concat "," d.Harness.Experiments.dd_types))
          tests;
        close_out oc;
        say "reduced tests written to %s\n" path);
    (match emit_dir with
    | None -> ()
    | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let sanitize s =
          String.map
            (fun c ->
              match c with
              | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
              | _ -> '_')
            s
        in
        List.iter
          (fun (target, (d : Harness.Experiments.dedup_test)) ->
            let path =
              Filename.concat dir
                (sanitize target ^ "__"
                ^ sanitize d.Harness.Experiments.dd_bug_id
                ^ ".spvasm")
            in
            let oc = open_out_bin path in
            output_string oc
              (Spirv_ir.Disasm.to_string d.Harness.Experiments.dd_module);
            close_out oc)
          tests;
        say "%d minimized module(s) written to %s\n"
          (List.length tests) dir);
    let rows, total =
      Harness.Experiments.table4 ~scale ~engine ~tests ~hits:[| hits; []; [] |] ()
    in
    if not json then begin
      Printf.printf "%-14s %6s %6s %8s %9s %6s
" "Target" "Tests" "Sigs" "Reports"
        "Distinct" "Dups";
      List.iter
        (fun (r : Harness.Experiments.table4_row) ->
          if r.Harness.Experiments.t4_tests > 0 then
            Printf.printf "%-14s %6d %6d %8d %9d %6d
" r.Harness.Experiments.t4_target
              r.Harness.Experiments.t4_tests r.Harness.Experiments.t4_sigs
              r.Harness.Experiments.t4_reports r.Harness.Experiments.t4_distinct
              r.Harness.Experiments.t4_dups)
        (rows @ [ total ]);
      print_endline
        (Harness.Engine.stats_to_string (Harness.Engine.stats engine))
    end;
    let row_json (r : Harness.Experiments.table4_row) =
      Json.(
        Obj
          [
            ("target", Str r.Harness.Experiments.t4_target);
            ("tests", Int r.Harness.Experiments.t4_tests);
            ("sigs", Int r.Harness.Experiments.t4_sigs);
            ("reports", Int r.Harness.Experiments.t4_reports);
            ("distinct", Int r.Harness.Experiments.t4_distinct);
            ("dups", Int r.Harness.Experiments.t4_dups);
          ])
    in
    let emit_json ~bank_json =
      if json then
        print_json
          Json.(
            [
              ("seeds", Int seeds); ("detections", Int (List.length hits));
              ("crashes", Int (List.length crashes));
              ( "rows",
                List
                  (List.filter_map
                     (fun (r : Harness.Experiments.table4_row) ->
                       if r.Harness.Experiments.t4_tests > 0 then Some (row_json r)
                       else None)
                     rows) );
              ("total", row_json total);
            ]
            @ bank_json)
    in
    match (bank, bank_cas) with
    | None, _ | _, None ->
        emit_json ~bank_json:[];
        0
    | Some dir, Some cas ->
        let bank =
          Tbct_store.Bugbank.load ~dir:(Harness.Persist.bugbank_dir dir)
        in
        let fresh = ref 0 and known = ref 0 and spilled = ref 0 in
        List.iter
          (fun (target, (d : Harness.Experiments.dedup_test)) ->
            (* the bank's signature: the reduced sequence's non-ignored
               transformation types, exactly what Figure 6 compares *)
            let types =
              Spirv_fuzz.Dedup.String_set.elements
                (Spirv_fuzz.Dedup.String_set.diff
                   (Spirv_fuzz.Dedup.String_set.of_list
                      d.Harness.Experiments.dd_types)
                   Spirv_fuzz.Dedup.default_ignored)
            in
            (* spill the minimized module so the next campaign re-emits
               this test case instead of re-reducing it *)
            let key =
              banked_key ~target ~bug_id:d.Harness.Experiments.dd_bug_id
            in
            if not (Tbct_store.Cas.mem cas ~key) then begin
              Tbct_store.Cas.put cas ~key (encode_banked d);
              incr spilled
            end;
            match
              Tbct_store.Bugbank.record bank ~target
                ~bug_id:d.Harness.Experiments.dd_bug_id ~types
            with
            | `New -> incr fresh
            | `Known -> incr known)
          tests;
        Tbct_store.Bugbank.save bank;
        say
          "bug bank %s: %d newly-banked signature(s), %d test(s) matched \
           already-known signatures; %d reduced module(s) spilled to the \
           store; %d signature(s) banked in total\n"
          dir !fresh !known !spilled (Tbct_store.Bugbank.size bank);
        emit_json
          ~bank_json:
            Json.
              [
                ( "bank",
                  Obj
                    [
                      ("dir", Str dir); ("new", Int !fresh); ("known", Int !known);
                      ("spilled", Int !spilled);
                      ("size", Int (Tbct_store.Bugbank.size bank));
                    ] );
              ];
        if !fresh > 0 then 0 else 3
  in
  Cmd.v
    (Cmd.info "dedup"
       ~doc:
         "Fuzz, reduce every crash, and recommend a deduplicated subset for           investigation (the Figure 6 algorithm).  With $(b,--bank), also \
          record signatures in a cross-campaign bug bank, spill each \
          minimized module into the store's CAS, and recall already-banked \
          test cases without re-reducing them.  With $(b,--json), one JSON \
          document replaces the tables.")
    Term.(const (fun s c d b t e j r -> Stdlib.exit (run s c d b t e j r))
          $ seeds_arg $ cap_arg $ domains_arg $ bank_arg $ tests_out_arg
          $ emit_arg $ json_arg $ reference_interp_arg)

(* ------------------------------------------------------------------ *)
(* serve + the fleet client commands                                    *)

module Service = Tbct_service

let socket_arg =
  Arg.(required & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"The daemon's Unix socket path (keep it short: the kernel \
                 caps Unix socket paths at ~100 bytes).")

let job_pos_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"JOB" ~doc:"A job id, as printed by submit/jobs.")

let with_conn socket f =
  match Service.Client.connect ~path:socket with
  | Error e ->
      prerr_endline ("error: " ^ e);
      exit 1
  | Ok conn ->
      Fun.protect ~finally:(fun () -> Service.Client.close conn)
        (fun () -> f conn)

let request_or_die conn req =
  match Service.Client.request conn req with
  | Error e ->
      prerr_endline ("error: " ^ e);
      exit 1
  | Ok reply -> (
      match Service.Json.mem_bool "ok" reply with
      | Some true -> reply
      | _ ->
          prerr_endline
            ("error: "
            ^ Option.value ~default:"request refused"
                (Service.Json.mem_str "error" reply));
          exit 1)

let serve_cmd =
  let store_arg =
    Arg.(required & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"The store directory: shared run cache (cas/), job queue \
                   and bug bank (jobs/), one campaign journal per job \
                   (jobs/JOB/).")
  in
  let domains_arg =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"N"
             ~doc:"Worker domains in the shared pool all jobs multiplex \
                   over.")
  in
  let quantum_arg =
    Arg.(value & opt int 8
         & info [ "quantum" ] ~docv:"N"
             ~doc:"Fresh seeds per scheduler slice: smaller interleaves \
                   jobs finer, larger amortizes journal replay better.")
  in
  let fsync_arg =
    Arg.(value & flag
         & info [ "fsync" ]
             ~doc:"fsync every journal record and store write.")
  in
  let run store socket domains quantum fsync =
    match
      Service.Server.run ~fsync ~quantum ~root:store ~socket ~domains ()
    with
    | Ok () -> print_endline "daemon stopped (jobs checkpointed)"
    | Error e ->
        prerr_endline ("error: " ^ e);
        exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the campaign fleet daemon: a job queue of campaigns \
             multiplexed fairly over one shared engine and domain pool, \
             serving submit/status/attach/cancel/drain/shutdown over a \
             Unix socket.  SIGINT/SIGTERM (and the shutdown verb) \
             checkpoint every in-flight campaign through its journal; a \
             restarted daemon resumes each job bit-identical to an \
             uninterrupted run.")
    Term.(const run $ store_arg $ socket_arg $ domains_arg $ quantum_arg
          $ fsync_arg)

let submit_cmd =
  let tool_arg =
    Arg.(value & opt string "spirv-fuzz"
         & info [ "tool" ] ~doc:"spirv-fuzz | spirv-fuzz-simple | glsl-fuzz")
  in
  let seeds_arg =
    Arg.(value & opt int 100 & info [ "seeds" ] ~docv:"N" ~doc:"Campaign size.")
  in
  let targets_arg =
    Arg.(value & opt (some string) None
         & info [ "targets" ] ~docv:"A,B,..."
             ~doc:"Comma-separated target names (default: every target).")
  in
  let weights_arg =
    Arg.(value & opt string ""
         & info [ "weights" ] ~docv:"FAMILY=N,..."
             ~doc:"Per-family sampling weights (campaign --weights syntax).")
  in
  let tv_arg =
    Arg.(value & flag
         & info [ "tv" ] ~doc:"Run the translation validator as a second \
                               oracle.")
  in
  let run socket tool seeds targets weights tv =
    let sub_tool =
      match Harness.Pipeline.tool_of_name tool with
      | Some t -> t
      | None ->
          prerr_endline ("unknown tool " ^ tool);
          exit 1
    in
    let sub_targets =
      match targets with
      | None -> []
      | Some s ->
          List.filter
            (fun t -> t <> "")
            (List.map String.trim (String.split_on_char ',' s))
    in
    let spec =
      {
        Service.Protocol.sub_tool;
        sub_seeds = seeds;
        sub_targets;
        sub_weights = weights;
        sub_tv = tv;
      }
    in
    with_conn socket @@ fun conn ->
    let reply = request_or_die conn (Service.Protocol.Submit spec) in
    match Service.Json.mem_str "job" reply with
    | Some id -> print_endline id
    | None -> print_endline "submitted"
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a campaign to a running daemon; prints the job id.")
    Term.(const run $ socket_arg $ tool_arg $ seeds_arg $ targets_arg
          $ weights_arg $ tv_arg)

let attach_cmd =
  let run socket id =
    with_conn socket @@ fun conn ->
    let on_event v =
      match Service.Json.mem_str "event" v with
      | Some "seed" ->
          Printf.printf "seed %d done (%d/%d)\n%!"
            (Option.value ~default:(-1) (Service.Json.mem_int "seed" v))
            (Option.value ~default:0 (Service.Json.mem_int "seeds_done" v))
            (Option.value ~default:0 (Service.Json.mem_int "seeds" v))
      | Some "hit" ->
          Printf.printf "hit\t%s%s\n%!"
            (Option.value ~default:"" (Service.Json.mem_str "line" v))
            (if Service.Json.mem_bool "new_signature" v = Some true then
               "\tNEW"
             else "")
      | Some ev -> Printf.printf "%s\n%!" ev
      | None -> (
          (* the initial snapshot reply *)
          match Service.Json.member "job" v with
          | Some j ->
              Printf.printf "attached to %s (%s, %d/%d seeds)\n%!"
                (Option.value ~default:id (Service.Json.mem_str "id" j))
                (Option.value ~default:"?" (Service.Json.mem_str "state" j))
                (Option.value ~default:0 (Service.Json.mem_int "seeds_done" j))
                (Option.value ~default:0 (Service.Json.mem_int "seeds" j))
          | None -> ())
    in
    match Service.Client.stream conn (Service.Protocol.Attach id) ~on_event with
    | Error e ->
        prerr_endline ("error: " ^ e);
        exit 1
    | Ok last -> (
        match Service.Json.mem_bool "ok" last with
        | Some false ->
            prerr_endline
              ("error: "
              ^ Option.value ~default:"attach refused"
                  (Service.Json.mem_str "error" last));
            exit 1
        | _ ->
            let state =
              Option.value ~default:"?" (Service.Json.mem_str "state" last)
            in
            Printf.printf "job %s: %s\n" id state;
            if state <> "done" then exit 4)
  in
  Cmd.v
    (Cmd.info "attach"
       ~doc:"Stream a job's live progress and hit feed until it finishes \
             (exit 4 if it ended cancelled).")
    Term.(const run $ socket_arg $ job_pos_arg)

let jobs_cmd =
  let run socket json =
    with_conn socket @@ fun conn ->
    let reply = request_or_die conn Service.Protocol.Jobs in
    if json then print_endline (Service.Json.to_string reply)
    else
      match Option.bind (Service.Json.member "jobs" reply) Service.Json.to_list with
      | None | Some [] -> print_endline "no jobs"
      | Some jobs ->
          List.iter
            (fun j ->
              Printf.printf "%-8s %-10s %-18s %5d/%-5d %4d hit(s)\n"
                (Option.value ~default:"?" (Service.Json.mem_str "id" j))
                (Option.value ~default:"?" (Service.Json.mem_str "state" j))
                (Option.value ~default:"?" (Service.Json.mem_str "tool" j))
                (Option.value ~default:0 (Service.Json.mem_int "seeds_done" j))
                (Option.value ~default:0 (Service.Json.mem_int "seeds" j))
                (Option.value ~default:0 (Service.Json.mem_int "hits" j)))
            jobs
  in
  Cmd.v
    (Cmd.info "jobs" ~doc:"List the daemon's jobs.")
    Term.(const run $ socket_arg $ json_arg)

let status_cmd =
  let job_arg =
    Arg.(value & opt (some string) None
         & info [ "job" ] ~docv:"JOB" ~doc:"Status of one job only.")
  in
  let run socket job json =
    with_conn socket @@ fun conn ->
    let reply = request_or_die conn (Service.Protocol.Status job) in
    if json then print_endline (Service.Json.to_string reply)
    else
      match job with
      | Some id -> (
          match Service.Json.member "job" reply with
          | None -> print_endline "no such job"
          | Some j ->
              Printf.printf "%s: %s, %d/%d seeds, %d hit(s) (%d new), %d \
                             run(s), %d memo hit(s) (%d cross-job)\n"
                id
                (Option.value ~default:"?" (Service.Json.mem_str "state" j))
                (Option.value ~default:0 (Service.Json.mem_int "seeds_done" j))
                (Option.value ~default:0 (Service.Json.mem_int "seeds" j))
                (Option.value ~default:0 (Service.Json.mem_int "hits" j))
                (Option.value ~default:0
                   (Service.Json.mem_int "new_signatures" j))
                (Option.value ~default:0
                   (Service.Json.mem_int "runs_executed" j))
                (Option.value ~default:0 (Service.Json.mem_int "memo_hits" j))
                (Option.value ~default:0
                   (Service.Json.mem_int "cross_memo_hits" j)))
      | None ->
          let jobs =
            Option.value ~default:[]
              (Option.bind (Service.Json.member "jobs" reply)
                 Service.Json.to_list)
          in
          let count st =
            List.length
              (List.filter
                 (fun j -> Service.Json.mem_str "state" j = Some st)
                 jobs)
          in
          Printf.printf
            "%d job(s): %d queued, %d running, %d done, %d cancelled\n"
            (List.length jobs) (count "queued") (count "running")
            (count "done") (count "cancelled");
          Printf.printf "cross-job memo hits: %d\n"
            (Option.value ~default:0
               (Service.Json.mem_int "cross_job_memo_hits" reply));
          (match Service.Json.member "engine" reply with
          | Some e ->
              Printf.printf "engine: %d run(s), %d saved\n"
                (Option.value ~default:0
                   (Service.Json.mem_int "runs_executed" e))
                (Option.value ~default:0 (Service.Json.mem_int "runs_saved" e))
          | None -> ())
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:"Daemon or per-job status; $(b,--json) dumps the full \
             engine/pool statistics.")
    Term.(const run $ socket_arg $ job_arg $ json_arg)

let hits_cmd =
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write here instead of stdout (same format as campaign \
                   --hits-out, byte-comparable).")
  in
  let run socket id out =
    with_conn socket @@ fun conn ->
    let reply = request_or_die conn (Service.Protocol.Hits id) in
    let completed =
      Service.Json.mem_bool "completed" reply = Some true
    in
    let lines =
      List.filter_map Service.Json.to_str
        (Option.value ~default:[]
           (Option.bind (Service.Json.member "hits" reply)
              Service.Json.to_list))
    in
    (match out with
    | None -> List.iter print_endline lines
    | Some path ->
        let oc = open_out_bin path in
        List.iter (fun l -> output_string oc (l ^ "\n")) lines;
        close_out oc);
    if not completed then begin
      prerr_endline "note: campaign incomplete; this is a checkpoint prefix";
      exit 5
    end
  in
  Cmd.v
    (Cmd.info "hits"
       ~doc:"Fetch a job's hit list (bit-identical to what an \
             uninterrupted batch campaign at the same parameters writes \
             with --hits-out).  Exit 5 if the job has not finished.")
    Term.(const run $ socket_arg $ job_pos_arg $ out_arg)

let cancel_cmd =
  let run socket id =
    with_conn socket @@ fun conn ->
    ignore (request_or_die conn (Service.Protocol.Cancel id) : Service.Json.t);
    Printf.printf "cancelled %s\n" id
  in
  Cmd.v
    (Cmd.info "cancel" ~doc:"Cancel a queued or running job.")
    Term.(const run $ socket_arg $ job_pos_arg)

let drain_cmd =
  let run socket =
    with_conn socket @@ fun conn ->
    ignore (request_or_die conn Service.Protocol.Drain : Service.Json.t);
    print_endline "draining: no new submissions; daemon exits when all \
                   jobs finish"
  in
  Cmd.v
    (Cmd.info "drain"
       ~doc:"Stop accepting submissions and let the daemon exit once \
             every job is terminal.")
    Term.(const run $ socket_arg)

let shutdown_cmd =
  let run socket =
    with_conn socket @@ fun conn ->
    ignore (request_or_die conn Service.Protocol.Shutdown : Service.Json.t);
    print_endline "daemon stopping (in-flight campaigns checkpointed)"
  in
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:"Checkpoint every in-flight campaign and stop the daemon; a \
             later serve on the same store resumes each job \
             bit-identically.")
    Term.(const run $ socket_arg)

(* --verbose works on every subcommand: it is stripped from argv before
   dispatch and turns on debug logging for the tbct.* sources *)
let () =
  let verbose = Array.exists (String.equal "--verbose") Sys.argv in
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  let argv =
    Array.of_list (List.filter (fun a -> a <> "--verbose") (Array.to_list Sys.argv))
  in
  let doc = "transformation-based compiler testing (spirv-fuzz reproduction)" in
  let info = Cmd.info "tbct" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval ~argv
       (Cmd.group info
          [
            validate_cmd; lint_cmd; tv_cmd; analyze_cmd; disasm_cmd;
            render_cmd; run_cmd; targets_cmd;
            transformations_cmd; fuzz_cmd; hunt_cmd; campaign_cmd; dedup_cmd;
            store_cmd; serve_cmd; submit_cmd; attach_cmd; jobs_cmd;
            status_cmd; hits_cmd; cancel_cmd; drain_cmd; shutdown_cmd;
          ]))
