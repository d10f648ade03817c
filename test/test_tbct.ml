(* Tests for the generic framework: rng, reducer, dedup, spec. *)

let check_list name expected actual =
  Alcotest.(check (list int)) name expected actual

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let g1 = Tbct.Rng.make 42 and g2 = Tbct.Rng.make 42 in
  let draws g = List.init 100 (fun _ -> Tbct.Rng.int g 1000) in
  check_list "same seed, same stream" (draws g1) (draws g2)

let test_rng_different_seeds () =
  let g1 = Tbct.Rng.make 1 and g2 = Tbct.Rng.make 2 in
  let draws g = List.init 50 (fun _ -> Tbct.Rng.int g 1_000_000) in
  Alcotest.(check bool) "different streams" false (draws g1 = draws g2)

let test_rng_bounds () =
  let g = Tbct.Rng.make 7 in
  for _ = 1 to 1000 do
    let x = Tbct.Rng.int g 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_rng_int_in_range () =
  let g = Tbct.Rng.make 3 in
  for _ = 1 to 500 do
    let x = Tbct.Rng.int_in_range g ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in range" true (x >= -5 && x <= 5)
  done

let test_rng_split_independent () =
  let g = Tbct.Rng.make 9 in
  let a, b = Tbct.Rng.split g in
  let da = List.init 20 (fun _ -> Tbct.Rng.int a 1000) in
  let db = List.init 20 (fun _ -> Tbct.Rng.int b 1000) in
  Alcotest.(check bool) "split streams differ" false (da = db)

let test_rng_shuffle_permutation () =
  let g = Tbct.Rng.make 11 in
  let xs = List.init 30 Fun.id in
  let ys = Tbct.Rng.shuffle g xs in
  check_list "same multiset" xs (List.sort compare ys)

let test_rng_sample () =
  let g = Tbct.Rng.make 13 in
  let xs = List.init 20 Fun.id in
  let ys = Tbct.Rng.sample g 5 xs in
  Alcotest.(check int) "sample size" 5 (List.length ys);
  Alcotest.(check bool) "sorted (order preserved)" true
    (List.sort compare ys = ys);
  Alcotest.(check bool) "distinct" true
    (List.length (List.sort_uniq compare ys) = 5)

let test_rng_choose_singleton () =
  let g = Tbct.Rng.make 1 in
  Alcotest.(check int) "singleton" 99 (Tbct.Rng.choose g [ 99 ])

let test_rng_chance_extremes () =
  let g = Tbct.Rng.make 5 in
  Alcotest.(check bool) "0/10 never" false (Tbct.Rng.chance g ~num:0 ~den:10);
  Alcotest.(check bool) "10/10 always" true (Tbct.Rng.chance g ~num:10 ~den:10)

(* ------------------------------------------------------------------ *)
(* Reducer *)

let test_reducer_single_culprit () =
  (* only element 7 matters *)
  let xs = List.init 20 Fun.id in
  let reduced, stats = Tbct.Reducer.reduce ~is_interesting:(List.mem 7) xs in
  check_list "minimal" [ 7 ] reduced;
  Alcotest.(check int) "stats.initial" 20 stats.Tbct.Reducer.initial;
  Alcotest.(check int) "stats.kept" 1 stats.Tbct.Reducer.kept

let test_reducer_pair_culprit () =
  (* both 3 and 15 needed *)
  let xs = List.init 20 Fun.id in
  let is_interesting ys = List.mem 3 ys && List.mem 15 ys in
  let reduced, _ = Tbct.Reducer.reduce ~is_interesting xs in
  check_list "minimal pair" [ 3; 15 ] reduced

let test_reducer_all_needed () =
  let xs = [ 1; 2; 3 ] in
  let is_interesting ys = List.length ys = 3 in
  let reduced, _ = Tbct.Reducer.reduce ~is_interesting xs in
  check_list "nothing removable" xs reduced

let test_reducer_none_needed () =
  let xs = List.init 10 Fun.id in
  let reduced, _ = Tbct.Reducer.reduce ~is_interesting:(fun _ -> true) xs in
  check_list "everything removable" [] reduced

let test_reducer_empty_input () =
  let reduced, stats = Tbct.Reducer.reduce ~is_interesting:(fun _ -> true) [] in
  check_list "empty stays empty" [] reduced;
  Alcotest.(check int) "no queries needed beyond the initial check" 1
    stats.Tbct.Reducer.queries

let test_reducer_rejects_boring_input () =
  Alcotest.check_raises "invalid input"
    (Invalid_argument "Reducer.reduce: input sequence is not interesting")
    (fun () -> ignore (Tbct.Reducer.reduce ~is_interesting:(fun _ -> false) [ 1 ]))

let test_reducer_preserves_order () =
  let xs = List.init 30 Fun.id in
  let is_interesting ys = List.mem 5 ys && List.mem 25 ys && List.mem 12 ys in
  let reduced, _ = Tbct.Reducer.reduce ~is_interesting xs in
  check_list "order kept" [ 5; 12; 25 ] reduced

(* 1-minimality property: removing any single element from the result makes
   the test fail. *)
let prop_one_minimal =
  QCheck.Test.make ~name:"reducer result is 1-minimal" ~count:100
    QCheck.(pair (small_list small_nat) (small_list small_nat))
    (fun (xs, needles) ->
      let needles = List.sort_uniq compare needles in
      let xs = List.sort_uniq compare (xs @ needles) in
      let is_interesting ys = List.for_all (fun n -> List.mem n ys) needles in
      let reduced, _ = Tbct.Reducer.reduce ~is_interesting xs in
      (* the reduced list satisfies the predicate... *)
      is_interesting reduced
      (* ...and removing any one element breaks it *)
      && List.for_all
           (fun x ->
             not (is_interesting (List.filter (fun y -> y <> x) reduced)))
           reduced)

let test_reduce_linear_agrees_with_chunked () =
  let xs = List.init 25 Fun.id in
  let is_interesting ys = List.mem 7 ys && List.mem 19 ys in
  let r1, _ = Tbct.Reducer.reduce ~is_interesting xs in
  let r2, s2 = Tbct.Reducer.reduce_linear ~is_interesting xs in
  check_list "same minimal result" r1 r2;
  (* the sweep threads the length instead of recomputing it; the stats it
     reports must still be the true sizes *)
  Alcotest.(check int) "linear stats: initial" (List.length xs)
    s2.Tbct.Reducer.initial;
  Alcotest.(check int) "linear stats: kept" (List.length r2)
    s2.Tbct.Reducer.kept

let prop_linear_one_minimal =
  QCheck.Test.make ~name:"linear reducer result is 1-minimal" ~count:50
    QCheck.(pair (small_list small_nat) (small_list small_nat))
    (fun (xs, needles) ->
      let needles = List.sort_uniq compare needles in
      let xs = List.sort_uniq compare (xs @ needles) in
      let is_interesting ys = List.for_all (fun n -> List.mem n ys) needles in
      let reduced, _ = Tbct.Reducer.reduce_linear ~is_interesting xs in
      is_interesting reduced
      && List.for_all
           (fun x -> not (is_interesting (List.filter (fun y -> y <> x) reduced)))
           reduced)

(* Replayed reductions are served by the engine's content-addressed memo:
   reducing the same hit again on the same engine repeats every ddmin
   query, and none of them reaches the backend.  The hit is a
   miscompilation, whose probes are full runs through [Engine.run]; a
   crash probe may be answered by the front end alone, which no memo
   holds. *)
let test_reducer_cache_counts_fewer_queries () =
  let scale =
    { Harness.Experiments.default_scale with Harness.Experiments.seeds = 20 }
  in
  let hit =
    match
      List.find_opt
        (fun (h : Harness.Experiments.hit) ->
          Harness.Signature.is_miscompilation
            h.Harness.Experiments.hit_detection.Harness.Pipeline.signature)
        (Harness.Experiments.run_campaign ~engine:(Harness.Engine.create ())
           ~scale Harness.Pipeline.Spirv_fuzz_tool)
    with
    | Some h -> h
    | None -> Alcotest.fail "no miscompilation hit in the small campaign"
  in
  let engine = Harness.Engine.create () in
  let first = Harness.Experiments.reduce_hit engine hit in
  let s1 = Harness.Engine.stats engine in
  let second = Harness.Experiments.reduce_hit engine hit in
  let s2 = Harness.Engine.stats engine in
  Alcotest.(check bool) "the hit reduces" true (Option.is_some first);
  Alcotest.(check bool) "same outcome" true (first = second);
  Alcotest.(check int) "the replay executes no backend run"
    s1.Harness.Engine.runs_executed s2.Harness.Engine.runs_executed;
  Alcotest.(check bool) "the replay is served by the memo" true
    (s2.Harness.Engine.cache_hits > s1.Harness.Engine.cache_hits)

(* ------------------------------------------------------------------ *)
(* Dedup *)

module SS = Tbct.Dedup.String_set

let mk_config ?(ignored = []) () =
  {
    Tbct.Dedup.types_of = (fun (_, tys) -> SS.of_list tys);
    Tbct.Dedup.ignored = SS.of_list ignored;
  }

let names tests = List.map fst tests

(* The scenario of section 2.1: set A uses {SplitBlock, AddDeadBlock,
   ChangeRHS}, set B uses {AddStore, AddLoad}, the rest mix at least four
   types.  The algorithm should pick one from A and one from B. *)
let test_dedup_paper_scenario () =
  let a i = (Printf.sprintf "a%d" i, [ "SplitBlock"; "AddDeadBlock"; "ChangeRHS" ]) in
  let b i = (Printf.sprintf "b%d" i, [ "AddStore"; "AddLoad" ]) in
  let mixed i =
    (Printf.sprintf "m%d" i, [ "SplitBlock"; "AddDeadBlock"; "ChangeRHS"; "AddStore" ])
  in
  let tests = List.init 35 a @ List.init 42 b @ List.init 23 mixed in
  let selected = Tbct.Dedup.select (mk_config ()) tests in
  Alcotest.(check int) "two reports" 2 (List.length selected);
  Alcotest.(check bool) "one from B (smaller set first)" true
    (List.exists (fun n -> String.length n > 0 && n.[0] = 'b') (names selected));
  Alcotest.(check bool) "one from A" true
    (List.exists (fun n -> String.length n > 0 && n.[0] = 'a') (names selected))

let test_dedup_disjoint_all_selected () =
  let tests = [ ("x", [ "T1" ]); ("y", [ "T2" ]); ("z", [ "T3" ]) ] in
  let selected = Tbct.Dedup.select (mk_config ()) tests in
  Alcotest.(check int) "all selected" 3 (List.length selected)

let test_dedup_prefers_small_type_sets () =
  let tests = [ ("big", [ "T1"; "T2"; "T3" ]); ("small", [ "T1" ]) ] in
  let selected = Tbct.Dedup.select (mk_config ()) tests in
  Alcotest.(check (list string)) "small wins" [ "small" ] (names selected)

let test_dedup_ignored_types () =
  let tests =
    [ ("x", [ "AddType"; "T1" ]); ("y", [ "AddType"; "T2" ]) ]
  in
  (* without the ignore list, x and y conflict on AddType; with it, both are
     selected *)
  let without = Tbct.Dedup.select (mk_config ()) tests in
  let with_ignore = Tbct.Dedup.select (mk_config ~ignored:[ "AddType" ] ()) tests in
  Alcotest.(check int) "conflict without ignoring" 1 (List.length without);
  Alcotest.(check int) "both with ignoring" 2 (List.length with_ignore)

let test_dedup_empty_type_set_dropped () =
  let tests = [ ("empty", []); ("only-ignored", [ "AddType" ]); ("real", [ "T1" ]) ] in
  let selected = Tbct.Dedup.select (mk_config ~ignored:[ "AddType" ] ()) tests in
  Alcotest.(check (list string)) "only the real test" [ "real" ] (names selected)

let test_dedup_empty_input () =
  Alcotest.(check int) "empty" 0 (List.length (Tbct.Dedup.select (mk_config ()) []))

let prop_dedup_disjoint =
  QCheck.Test.make ~name:"dedup selection is pairwise type-disjoint" ~count:200
    QCheck.(small_list (small_list (int_bound 10)))
    (fun raw ->
      let tests =
        List.mapi
          (fun i tys -> (string_of_int i, List.map (Printf.sprintf "T%d") tys))
          raw
      in
      let config = mk_config () in
      let selected = Tbct.Dedup.select config tests in
      Tbct.Dedup.pairwise_disjoint config selected)

let prop_dedup_maximal =
  QCheck.Test.make ~name:"no unselected test is disjoint from all selected"
    ~count:200
    QCheck.(small_list (small_list (int_bound 8)))
    (fun raw ->
      let tests =
        List.mapi
          (fun i tys -> (string_of_int i, List.map (Printf.sprintf "T%d") tys))
          raw
      in
      let config = mk_config () in
      let selected = Tbct.Dedup.select config tests in
      let selected_types =
        List.fold_left
          (fun acc t -> SS.union acc (config.Tbct.Dedup.types_of t))
          SS.empty selected
      in
      List.for_all
        (fun t ->
          let tys = config.Tbct.Dedup.types_of t in
          SS.is_empty tys || not (SS.is_empty (SS.inter tys selected_types)))
        tests)

(* ------------------------------------------------------------------ *)
(* Spec.Apply *)

(* toy language: context is an int list; transformations append values,
   with preconditions on the current head *)
module Toy = struct
  type context = int list
  type transformation = { name : string; needs : int option; appends : int }

  let type_id t = t.name

  let precondition ctx t =
    match t.needs with
    | None -> true
    | Some n -> (match ctx with [] -> false | h :: _ -> h = n)

  let apply ctx t = t.appends :: ctx
end

module Toy_apply = Tbct.Spec.Apply (Toy)

let t ?needs name appends = { Toy.name; needs; appends }

let test_apply_skips_failed_preconditions () =
  let seq = [ t "a" 1; t ~needs:99 "b" 2; t ~needs:1 "c" 3 ] in
  let ctx, steps = Toy_apply.sequence [] seq in
  Alcotest.(check (list int)) "b skipped" [ 3; 1 ] ctx;
  Alcotest.(check (list bool)) "applied flags" [ true; false; true ]
    (List.map (fun s -> s.Toy_apply.applied) steps)

let test_apply_subsequence () =
  let seq = [ t "a" 1; t ~needs:99 "b" 2; t ~needs:1 "c" 3 ] in
  let applied = Toy_apply.applied_subsequence [] seq in
  Alcotest.(check (list string)) "names" [ "a"; "c" ]
    (List.map Toy.type_id applied)

let test_apply_check_preserves () =
  (* semantics = parity of the sum; appending an even number preserves it *)
  let semantics ctx = List.fold_left ( + ) 0 ctx mod 2 in
  let equal = Int.equal in
  let good = [ t "a" 2; t "b" 4 ] in
  let bad = [ t "a" 2; t "b" 3 ] in
  Alcotest.(check bool) "good sequence preserves" true
    (Toy_apply.check_preserves ~semantics ~equal [] good = Ok ());
  Alcotest.(check bool) "bad sequence caught at step 1" true
    (Toy_apply.check_preserves ~semantics ~equal [] bad = Error 1)

(* ------------------------------------------------------------------ *)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "tbct"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_different_seeds;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "int_in_range" `Quick test_rng_int_in_range;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample" `Quick test_rng_sample;
          Alcotest.test_case "choose singleton" `Quick test_rng_choose_singleton;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
        ] );
      ( "reducer",
        [
          Alcotest.test_case "single culprit" `Quick test_reducer_single_culprit;
          Alcotest.test_case "pair culprit" `Quick test_reducer_pair_culprit;
          Alcotest.test_case "all needed" `Quick test_reducer_all_needed;
          Alcotest.test_case "none needed" `Quick test_reducer_none_needed;
          Alcotest.test_case "empty input" `Quick test_reducer_empty_input;
          Alcotest.test_case "rejects boring input" `Quick test_reducer_rejects_boring_input;
          Alcotest.test_case "preserves order" `Quick test_reducer_preserves_order;
          Alcotest.test_case "cache reduces queries" `Quick
            test_reducer_cache_counts_fewer_queries;
          Alcotest.test_case "linear agrees with chunked" `Quick
            test_reduce_linear_agrees_with_chunked;
        ]
        @ qcheck [ prop_one_minimal; prop_linear_one_minimal ] );
      ( "dedup",
        [
          Alcotest.test_case "paper scenario (section 2.1)" `Quick test_dedup_paper_scenario;
          Alcotest.test_case "disjoint all selected" `Quick test_dedup_disjoint_all_selected;
          Alcotest.test_case "prefers small type sets" `Quick test_dedup_prefers_small_type_sets;
          Alcotest.test_case "ignore list" `Quick test_dedup_ignored_types;
          Alcotest.test_case "empty type sets dropped" `Quick test_dedup_empty_type_set_dropped;
          Alcotest.test_case "empty input" `Quick test_dedup_empty_input;
        ]
        @ qcheck [ prop_dedup_disjoint; prop_dedup_maximal ] );
      ( "spec",
        [
          Alcotest.test_case "skips failed preconditions" `Quick
            test_apply_skips_failed_preconditions;
          Alcotest.test_case "applied subsequence" `Quick test_apply_subsequence;
          Alcotest.test_case "check_preserves" `Quick test_apply_check_preserves;
        ] );
    ]
