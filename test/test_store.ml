(* Tests for the persistent campaign store: the content-addressed object
   store, the checksummed journal with crash recovery, the bug bank, the
   exact run-result codecs, and the engine's disk-backed / LRU-bounded
   caches.

   The load-bearing properties are (a) every codec round-trips exactly, so
   disk-cached results cannot change what ddmin keeps; (b) a campaign
   killed mid-journal and resumed produces a hit list bit-identical to the
   uninterrupted run; and (c) cache eviction — in memory and on disk —
   never changes results, only what gets recomputed. *)

module Cas = Tbct_store.Cas
module Journal = Tbct_store.Journal
module Bugbank = Tbct_store.Bugbank
module Run_codec = Tbct_store.Run_codec

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tbct-test-store-%d-%d" (Unix.getpid ()) !counter)
    in
    let rec rm path =
      match (Unix.lstat path).Unix.st_kind with
      | Unix.S_DIR ->
          Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
          Unix.rmdir path
      | _ -> Sys.remove path
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
    in
    rm dir;
    dir

(* ------------------------------------------------------------------ *)
(* Codecs: exact round trips *)

(* NaN payloads do round-trip (the codec stores Int64 bits) — the
   hostile-float properties live in test_compile.ml; this generator scrubs
   NaN only because the run round-trip below compares with structural (=),
   where nan <> nan *)
let value_gen =
  let open QCheck.Gen in
  let base =
    oneof
      [
        map (fun b -> Spirv_ir.Value.VBool b) bool;
        map (fun i -> Spirv_ir.Value.VInt (Int32.of_int i)) int;
        map
          (fun f -> Spirv_ir.Value.VFloat (if Float.is_nan f then 0.0 else f))
          float;
      ]
  in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then base
          else
            frequency
              [
                (3, base);
                ( 1,
                  map
                    (fun vs -> Spirv_ir.Value.VComposite (Array.of_list vs))
                    (list_size (int_range 0 4) (self (n / 2))) );
              ])
        (min n 8))

let value_arb = QCheck.make ~print:Spirv_ir.Value.show value_gen

(* values are stored inside run results: a one-pixel image carries one *)
let qcheck_value_roundtrip =
  QCheck.Test.make ~name:"value codec round-trips exactly" ~count:500 value_arb
    (fun v ->
      let img = Spirv_ir.Image.create ~width:1 ~height:1 in
      img.Spirv_ir.Image.pixels.(0) <- Spirv_ir.Image.Color v;
      let r = Compilers.Backend.Rendered img in
      match Run_codec.decode_run (Run_codec.encode_run r) with
      | Some (Compilers.Backend.Rendered img') -> (
          match img'.Spirv_ir.Image.pixels with
          | [| Spirv_ir.Image.Color v' |] -> Spirv_ir.Value.equal v v'
          | _ -> false)
      | _ -> false)

let run_result_gen =
  let open QCheck.Gen in
  let image =
    int_range 1 5 >>= fun width ->
    int_range 1 5 >>= fun height ->
    list_repeat (width * height)
      (oneof
         [
           return Spirv_ir.Image.Killed;
           map (fun v -> Spirv_ir.Image.Color v) value_gen;
         ])
    >|= fun pixels ->
    let img = Spirv_ir.Image.create ~width ~height in
    List.iteri (fun i p -> img.Spirv_ir.Image.pixels.(i) <- p) pixels;
    img
  in
  oneof
    [
      return Compilers.Backend.Compiled_ok;
      map (fun s -> Compilers.Backend.Crashed s) (string_size (int_range 0 40));
      map (fun img -> Compilers.Backend.Rendered img) image;
    ]

let qcheck_run_roundtrip =
  QCheck.Test.make ~name:"run-result codec round-trips exactly" ~count:200
    (QCheck.make run_result_gen) (fun r ->
      (* exclude newline-bearing crash signatures? no: the codec must quote *)
      match Run_codec.decode_run (Run_codec.encode_run r) with
      | Some r' -> r = r'
      | None -> false)

let test_run_codec_rejects_corruption () =
  let r =
    Compilers.Backend.Rendered
      (let img = Spirv_ir.Image.create ~width:2 ~height:2 in
       img.Spirv_ir.Image.pixels.(0) <-
         Spirv_ir.Image.Color (Spirv_ir.Value.VFloat 0.5);
       img)
  in
  let enc = Run_codec.encode_run r in
  Alcotest.(check bool) "truncated object decodes to None" true
    (Run_codec.decode_run (String.sub enc 0 (String.length enc / 2)) = None);
  Alcotest.(check bool) "garbage decodes to None" true
    (Run_codec.decode_run "not a run result" = None)

let test_module_codec_roundtrip () =
  List.iter
    (fun (name, m) ->
      match Run_codec.decode_module (Run_codec.encode_module m) with
      | None -> Alcotest.failf "%s: module codec failed to decode" name
      | Some m' ->
          Alcotest.(check string)
            (name ^ ": digest stable across module codec")
            (Spirv_ir.Digest.of_module m)
            (Spirv_ir.Digest.of_module m'))
    (Lazy.force Corpus.lowered_references)

let test_verdict_codec_roundtrip () =
  let verdicts =
    [
      Compilers.Tv.Equivalent;
      Compilers.Tv.Mismatch
        {
          Compilers.Tv.w_slot = "output";
          w_before = "construct(OpFSub(x,0),1)";
          w_after = "{0,1}";
        };
      Compilers.Tv.Mismatch
        { Compilers.Tv.w_slot = "kill"; w_before = "false"; w_after = "\"\t\n" };
      Compilers.Tv.Abstained "data-dependent back edge";
      Compilers.Tv.Abstained "";
    ]
  in
  List.iter
    (fun v ->
      match Run_codec.decode_verdict (Run_codec.encode_verdict v) with
      | Some v' ->
          Alcotest.(check bool)
            ("verdict round-trips: " ^ Compilers.Tv.verdict_to_string v)
            true
            (Compilers.Tv.equal_verdict v v')
      | None ->
          Alcotest.failf "verdict failed to decode: %s"
            (Compilers.Tv.verdict_to_string v))
    verdicts;
  Alcotest.(check bool) "garbage decodes to None" true
    (Run_codec.decode_verdict "not a verdict" = None);
  Alcotest.(check bool) "truncated mismatch decodes to None" true
    (Run_codec.decode_verdict "mismatch \"output\" \"a\"" = None)

(* ------------------------------------------------------------------ *)
(* Cas *)

let qcheck_cas_roundtrip =
  let dir = lazy (fresh_dir ()) in
  QCheck.Test.make ~name:"cas put/get round-trips arbitrary bytes" ~count:100
    QCheck.(string)
    (fun data ->
      let cas = Cas.open_ ~root:(Lazy.force dir) () in
      let key = Cas.key_of_string data in
      Cas.put cas ~key data;
      Cas.get cas ~key ~decode:Option.some = Some data)

let test_cas_basics () =
  let root = fresh_dir () in
  let cas = Cas.open_ ~root () in
  let key = Cas.key_of_string "hello" in
  let raw cas = Cas.get cas ~key ~decode:Option.some in
  Alcotest.(check bool) "miss before put" true (raw cas = None);
  Cas.put cas ~key "payload";
  Alcotest.(check bool) "mem after put" true (Cas.mem cas ~key);
  Alcotest.(check bool) "hit after put" true (raw cas = Some "payload");
  (* a different handle on the same root sees the object (persistence) *)
  let cas2 = Cas.open_ ~root () in
  Alcotest.(check bool) "visible to a fresh handle" true
    (raw cas2 = Some "payload");
  let s = Cas.stats cas2 in
  Alcotest.(check int) "fresh handle indexed the object" 1 s.Cas.objects;
  Alcotest.(check int) "bytes accounted" (String.length "payload") s.Cas.bytes

let test_cas_size_bound_on_put () =
  let root = fresh_dir () in
  (* each object is 10 bytes; bound at 35 keeps at most 3 *)
  let cas = Cas.open_ ~max_bytes:35 ~root () in
  for i = 0 to 9 do
    Cas.put cas ~key:(Cas.key_of_string (string_of_int i)) (Printf.sprintf "%010d" i)
  done;
  let s = Cas.stats cas in
  Alcotest.(check bool) "size bound respected" true (s.Cas.bytes <= 35);
  Alcotest.(check bool) "evictions counted" true (s.Cas.evictions > 0);
  (* the most recent object must have survived *)
  Alcotest.(check bool) "most recent object survives" true
    (Cas.mem cas ~key:(Cas.key_of_string "9"))

let test_cas_gc_lru_order () =
  let root = fresh_dir () in
  let cas = Cas.open_ ~root () in
  let key i = Cas.key_of_string (string_of_int i) in
  for i = 0 to 4 do
    Cas.put cas ~key:(key i) (Printf.sprintf "%04d" i)
  done;
  (* touch 0 and 1 so 2 becomes the least recently used *)
  ignore (Cas.get cas ~key:(key 0) ~decode:Option.some);
  ignore (Cas.get cas ~key:(key 1) ~decode:Option.some);
  let evicted = Cas.gc ~max_bytes:16 cas in
  Alcotest.(check int) "gc evicted exactly one object" 1 evicted;
  Alcotest.(check bool) "LRU object evicted" false (Cas.mem cas ~key:(key 2));
  Alcotest.(check bool) "recently-used objects kept" true
    (Cas.mem cas ~key:(key 0) && Cas.mem cas ~key:(key 1))

let test_cas_concurrent_domains () =
  let root = fresh_dir () in
  let cas = Cas.open_ ~root () in
  let writer d () =
    for i = 0 to 49 do
      (* half the keys are shared between domains, half are private *)
      let name =
        if i mod 2 = 0 then Printf.sprintf "shared-%d" i
        else Printf.sprintf "private-%d-%d" d i
      in
      Cas.put cas ~key:(Cas.key_of_string name) name;
      ignore (Cas.get cas ~key:(Cas.key_of_string name) ~decode:Option.some)
    done
  in
  let domains = List.init 4 (fun d -> Domain.spawn (writer d)) in
  List.iter Domain.join domains;
  for d = 0 to 3 do
    for i = 0 to 49 do
      let name =
        if i mod 2 = 0 then Printf.sprintf "shared-%d" i
        else Printf.sprintf "private-%d-%d" d i
      in
      Alcotest.(check bool)
        (name ^ " readable after concurrent writes")
        true
        (Cas.get cas ~key:(Cas.key_of_string name) ~decode:Option.some
        = Some name)
    done
  done

let test_cas_drops_undecodable () =
  let root = fresh_dir () in
  let cas = Cas.open_ ~root () in
  let key = Cas.key_of_string "bad" in
  Cas.put cas ~key "garbage";
  let before = Cas.stats cas in
  Alcotest.(check bool) "a rejected object reads as a miss" true
    (Cas.get cas ~key ~decode:(fun _ -> None) = None);
  let after = Cas.stats cas in
  Alcotest.(check bool) "dropped from the store" false (Cas.mem cas ~key);
  Alcotest.(check int) "object count drops" (before.Cas.objects - 1)
    after.Cas.objects;
  Alcotest.(check int) "byte count drops"
    (before.Cas.bytes - String.length "garbage")
    after.Cas.bytes;
  Alcotest.(check int) "counted as a miss" (before.Cas.misses + 1)
    after.Cas.misses;
  Cas.put cas ~key "fresh";
  Alcotest.(check (option string)) "a later put stores the new bytes"
    (Some "fresh")
    (Cas.get cas ~key ~decode:Option.some);
  Alcotest.(check (option string)) "and so does a fresh handle" (Some "fresh")
    (Cas.get (Cas.open_ ~root ()) ~key ~decode:Option.some)

(* a writer killed between its temp-file write and the rename leaves a
   [<key>.tmp.<pid>.<n>] file in the shard; it is not an object, so it is
   neither counted nor offered to gc, and it stays on disk *)
let test_cas_ignores_orphaned_temp () =
  let root = fresh_dir () in
  let cas = Cas.open_ ~root () in
  let key = Cas.key_of_string "kept" in
  Cas.put cas ~key "payload";
  let shard = Filename.concat (Filename.concat root "objects") (String.sub key 0 2) in
  let orphan =
    Filename.concat shard (String.sub key 2 (String.length key - 2) ^ ".tmp.4242.0")
  in
  let oc = open_out_bin orphan in
  output_string oc (String.make 4096 'x');
  close_out oc;
  let cas = Cas.open_ ~root () in
  let stats = Cas.stats cas in
  Alcotest.(check int) "only the object is indexed" 1 stats.Cas.objects;
  Alcotest.(check int) "only its bytes are counted" (String.length "payload")
    stats.Cas.bytes;
  Alcotest.(check int) "gc under the bound evicts nothing" 0
    (Cas.gc ~max_bytes:1024 cas);
  Alcotest.(check int) "gc to zero evicts the one object" 1
    (Cas.gc ~max_bytes:0 cas);
  Alcotest.(check bool) "the temp file is left on disk" true
    (Sys.file_exists orphan)

(* a write whose rename fails (here: a non-empty directory sits at the
   destination, which defeats the rename even for root) raises, and leaves
   no [<path>.tmp.<pid>.<n>] file behind *)
let test_write_atomic_failure_leaves_no_temp () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "obj" in
  Tbct_store.Fsio.ensure_dir (Filename.concat path "child");
  (match Tbct_store.Fsio.write_atomic ~path "payload" with
  | () -> Alcotest.fail "a write over a non-empty directory succeeded"
  | exception Unix.Unix_error _ -> ());
  Alcotest.(check (list string)) "only the directory is left" [ "obj" ]
    (Array.to_list (Sys.readdir dir))

(* ------------------------------------------------------------------ *)
(* Journal *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_journal records =
  let dir = fresh_dir () in
  let path = Filename.concat dir "j.log" in
  let j = Journal.open_append ~path () in
  List.iter (Journal.append j) records;
  Journal.close j;
  path

let test_journal_roundtrip () =
  let records = [ "alpha"; "beta with spaces"; "gamma\tand tab" ] in
  let path = with_journal records in
  let r = Journal.replay ~path in
  Alcotest.(check (list string)) "all records replayed" records r.Journal.records;
  Alcotest.(check bool) "nothing dropped" false r.Journal.dropped

let test_journal_rejects_newline () =
  let path = Filename.concat (fresh_dir ()) "j.log" in
  let j = Journal.open_append ~path () in
  Alcotest.check_raises "newline payload rejected"
    (Invalid_argument "Journal.append: payload must be a single line")
    (fun () -> Journal.append j "two\nlines");
  Journal.close j

let test_journal_truncated_tail () =
  let records = [ "one"; "two"; "three" ] in
  let path = with_journal records in
  let text = read_file path in
  (* cut into the middle of the last record: a killed writer *)
  write_file path (String.sub text 0 (String.length text - 5));
  let r = Journal.replay ~path in
  Alcotest.(check (list string)) "valid prefix survives" [ "one"; "two" ]
    r.Journal.records;
  Alcotest.(check bool) "truncation detected" true r.Journal.dropped

let test_journal_corrupted_tail () =
  let records = [ "one"; "two"; "three" ] in
  let path = with_journal records in
  let text = read_file path in
  (* flip a payload byte in the last record: checksum must catch it *)
  let b = Bytes.of_string text in
  Bytes.set b (Bytes.length b - 2) '!';
  write_file path (Bytes.to_string b);
  let r = Journal.replay ~path in
  Alcotest.(check (list string)) "valid prefix survives" [ "one"; "two" ]
    r.Journal.records;
  Alcotest.(check bool) "corruption detected" true r.Journal.dropped

let test_journal_truncate_then_append () =
  let path = with_journal [ "one"; "two"; "three" ] in
  let text = read_file path in
  write_file path (String.sub text 0 (String.length text - 5));
  let r = Journal.replay ~path in
  (* the resume protocol: cut the torn suffix, then append *)
  Journal.truncate ~path ~bytes:r.Journal.valid_bytes;
  let j = Journal.open_append ~path () in
  Journal.append j "four";
  Journal.close j;
  let r' = Journal.replay ~path in
  Alcotest.(check (list string)) "appended record readable after recovery"
    [ "one"; "two"; "four" ] r'.Journal.records;
  Alcotest.(check bool) "journal healed" false r'.Journal.dropped

(* ------------------------------------------------------------------ *)
(* Bug bank *)

let test_bugbank_record_and_reload () =
  let dir = fresh_dir () in
  let bank = Bugbank.load ~dir in
  let types = [ "AddDeadBlock"; "DontInline" ] in
  Alcotest.(check bool) "first record is new" true
    (Bugbank.record bank ~target:"SwiftShader" ~bug_id:"b1" ~types = `New);
  Alcotest.(check bool) "same signature is known" true
    (Bugbank.record bank ~target:"SwiftShader" ~bug_id:"b1-again" ~types = `Known);
  Alcotest.(check bool) "same types on another target are new" true
    (Bugbank.record bank ~target:"Mesa" ~bug_id:"b1" ~types = `New);
  Bugbank.save bank;
  let bank' = Bugbank.load ~dir in
  Alcotest.(check int) "reloaded size" 2 (Bugbank.size bank');
  Alcotest.(check bool) "reloaded bank knows the signature" true
    (Bugbank.mem bank' ~target:"SwiftShader" ~types);
  (* type order must not matter *)
  Alcotest.(check bool) "signature is order-insensitive" true
    (Bugbank.mem bank' ~target:"SwiftShader"
       ~types:[ "DontInline"; "AddDeadBlock" ])

let test_bugbank_import_and_corruption () =
  let dir_a = fresh_dir () and dir_b = fresh_dir () in
  let a = Bugbank.load ~dir:dir_a in
  ignore (Bugbank.record a ~target:"Mesa" ~bug_id:"m1" ~types:[ "MoveBlockDown" ]);
  ignore (Bugbank.record a ~target:"Mesa" ~bug_id:"m2" ~types:[]);
  let b = Bugbank.load ~dir:dir_b in
  ignore (Bugbank.record b ~target:"Mesa" ~bug_id:"m1" ~types:[ "MoveBlockDown" ]);
  Alcotest.(check int) "import merges only the new signature" 1
    (Bugbank.import b (Bugbank.to_string a));
  Alcotest.(check int) "merged size" 2 (Bugbank.size b);
  (* a corrupt line degrades to a smaller bank, not a failure *)
  Bugbank.save b;
  let path = Filename.concat dir_b "bugbank.txt" in
  write_file path (read_file path ^ "garbage line without tabs\n");
  Alcotest.(check int) "corrupt line skipped on load" 2
    (Bugbank.size (Bugbank.load ~dir:dir_b))

(* ------------------------------------------------------------------ *)
(* Engine: bounded memo tables and the disk store backend *)

let gradient = lazy (List.assoc "gradient" (Lazy.force Corpus.lowered_references))

let test_engine_memo_eviction () =
  (* a tiny cap forces evictions; results must be unaffected *)
  let engine = Harness.Engine.create ~memo_capacity:2 () in
  let input = Corpus.default_input in
  let refs = Lazy.force Corpus.lowered_references in
  let t = Compilers.Target.swiftshader in
  let first = List.map (fun (_, m) -> Harness.Engine.run engine t m input) refs in
  let again = List.map (fun (_, m) -> Harness.Engine.run engine t m input) refs in
  Alcotest.(check bool) "evicted entries recompute to identical results" true
    (first = again);
  let s = Harness.Engine.stats engine in
  (* four tables fill here, each capped: runs, target pipelines,
     validator verdicts and renders *)
  Alcotest.(check bool) "entry count bounded by capacity" true
    (s.Harness.Engine.memo_entries <= 4 * s.Harness.Engine.memo_capacity);
  Alcotest.(check int) "capacity reported" 2 s.Harness.Engine.memo_capacity;
  Alcotest.(check bool) "evictions counted" true
    (s.Harness.Engine.memo_evictions > 0)

let test_engine_optimize_memoized () =
  let engine = Harness.Engine.create () in
  let m = Lazy.force gradient in
  let o1 = Harness.Engine.optimize engine m in
  let o2 = Harness.Engine.optimize engine m in
  Alcotest.(check bool) "memoized optimize returns the same module" true
    (o1 = o2);
  let s = Harness.Engine.stats engine in
  Alcotest.(check int) "optimizer ran once" 1 s.Harness.Engine.opt_runs;
  Alcotest.(check int) "second call served from memo" 1 s.Harness.Engine.opt_hits

(* the clean -O step is the (standard, no_bugs) configuration, so a run on
   AMD-LLPC, which shares it, leaves the entry the step needs in the
   pipeline memo; SwiftShader's flags differ, so after its run the
   optimizer must still run *)
let test_engine_optimize_shares_pipeline_memo () =
  let m = Lazy.force gradient in
  let input = Corpus.default_input in
  let optimize_after_run (t : Compilers.Target.t) =
    let engine = Harness.Engine.create () in
    ignore (Harness.Engine.run engine t m input);
    let o = Harness.Engine.optimize engine m in
    Alcotest.(check bool)
      (t.Compilers.Target.name ^ ": the clean -O module")
      true
      (o = Compilers.Optimizer.optimize m);
    let s = Harness.Engine.stats engine in
    (s.Harness.Engine.opt_runs, s.Harness.Engine.opt_hits)
  in
  Alcotest.(check (pair int int)) "AMD-LLPC's run serves the step" (0, 1)
    (optimize_after_run Compilers.Target.amd_llpc);
  Alcotest.(check (pair int int)) "SwiftShader's run does not" (1, 0)
    (optimize_after_run Compilers.Target.swiftshader)

let test_engine_store_shares_runs_and_opts () =
  let dir = fresh_dir () in
  let m = Lazy.force gradient in
  let input = Corpus.default_input in
  let t = Compilers.Target.swiftshader in
  (* first engine executes and writes through *)
  let e1 = Harness.Engine.create ~store:(Harness.Persist.open_cas ~dir ()) () in
  let r1 = Harness.Engine.run e1 t m input in
  let o1 = Harness.Engine.optimize e1 m in
  let s1 = Harness.Engine.stats e1 in
  Alcotest.(check bool) "cold engine wrote through" true
    (s1.Harness.Engine.store_writes > 0);
  (* second engine has cold memory but a warm disk store *)
  let e2 = Harness.Engine.create ~store:(Harness.Persist.open_cas ~dir ()) () in
  let r2 = Harness.Engine.run e2 t m input in
  let o2 = Harness.Engine.optimize e2 m in
  let s2 = Harness.Engine.stats e2 in
  Alcotest.(check bool) "run served from disk, not executed" true
    (s2.Harness.Engine.runs_executed = 0 && s2.Harness.Engine.store_hits = 1);
  Alcotest.(check bool) "optimize served from disk, not run" true
    (s2.Harness.Engine.opt_runs = 0 && s2.Harness.Engine.opt_hits = 1);
  Alcotest.(check bool) "disk-served results identical" true
    (r1 = r2 && o1 = o2)

(* A store write that fails must not fail the run: with a regular file
   where every shard directory of the object tree should be, each put
   raises ENOTDIR, and the engine returns what a store-less engine
   returns, counting the one failed write-through. *)
let test_engine_put_failure_skipped () =
  let dir = fresh_dir () in
  let m = Lazy.force gradient in
  let input = Corpus.default_input in
  let t = Compilers.Target.swiftshader in
  let e = Harness.Engine.create ~store:(Harness.Persist.open_cas ~dir ()) () in
  let objects = Filename.concat (Harness.Persist.cas_dir dir) "objects" in
  for shard = 0 to 255 do
    Out_channel.with_open_bin
      (Filename.concat objects (Printf.sprintf "%02x" shard))
      (fun oc -> output_string oc "not a directory")
  done;
  let r = Harness.Engine.run e t m input in
  Alcotest.(check bool) "same result as a store-less engine" true
    (r = Harness.Engine.run (Harness.Engine.create ()) t m input);
  let s = Harness.Engine.stats e in
  Alcotest.(check int) "one failed put counted" 1
    (Option.value ~default:0
       (List.assoc_opt "store-put-failures" s.Harness.Engine.counters));
  Alcotest.(check int) "no write counted" 0 s.Harness.Engine.store_writes;
  Alcotest.(check bool) "the result stays in memory" true
    (Harness.Engine.run e t m input = r
    && (Harness.Engine.stats e).Harness.Engine.cache_hits = 1)

let test_engine_tv_memoized () =
  let dir = fresh_dir () in
  let m = Lazy.force gradient in
  let m' =
    match Compilers.Optimizer.optimize m with
    | Ok m' -> m'
    | Error e -> Alcotest.failf "optimize failed: %s" e
  in
  let e1 = Harness.Engine.create ~store:(Harness.Persist.open_cas ~dir ()) () in
  let v1 = Harness.Engine.tv_check e1 ~before:m ~after:m' in
  let v2 = Harness.Engine.tv_check e1 ~before:m ~after:m' in
  Alcotest.(check bool) "memoized verdict identical" true
    (Compilers.Tv.equal_verdict v1 v2);
  let s1 = Harness.Engine.stats e1 in
  Alcotest.(check int) "two checks requested" 2 s1.Harness.Engine.tv_checks;
  Alcotest.(check int) "second served from the memory memo" 1
    s1.Harness.Engine.tv_hits;
  (* identical digests short-circuit without validating *)
  let v_same = Harness.Engine.tv_check e1 ~before:m ~after:m in
  Alcotest.(check bool) "equal digests are trivially Equivalent" true
    (Compilers.Tv.equal_verdict v_same Compilers.Tv.Equivalent);
  Alcotest.(check int) "fast path counted as a hit" 2
    (Harness.Engine.stats e1).Harness.Engine.tv_hits;
  (* a fresh engine on the same store serves the verdict from disk *)
  let e2 = Harness.Engine.create ~store:(Harness.Persist.open_cas ~dir ()) () in
  let v3 = Harness.Engine.tv_check e2 ~before:m ~after:m' in
  Alcotest.(check bool) "disk-served verdict identical" true
    (Compilers.Tv.equal_verdict v1 v3);
  let s2 = Harness.Engine.stats e2 in
  Alcotest.(check int) "warm engine served the verdict from the CAS" 1
    s2.Harness.Engine.tv_hits;
  Alcotest.(check bool) "no symbolic validation billed on the warm engine" true
    (List.assoc_opt "tv" s2.Harness.Engine.stages = None)

(* every object file of a store directory's CAS *)
let store_objects dir =
  let rec walk path =
    if Sys.is_directory path then
      List.concat_map
        (fun e -> walk (Filename.concat path e))
        (Array.to_list (Sys.readdir path))
    else [ path ]
  in
  walk (Harness.Persist.cas_dir dir)

let test_engine_corrupt_store_heals () =
  let dir = fresh_dir () in
  let m = Lazy.force gradient in
  let m' =
    match Compilers.Optimizer.optimize m with
    | Ok m' -> m'
    | Error e -> Alcotest.failf "optimize failed: %s" e
  in
  let t = Compilers.Target.swiftshader in
  let input = Corpus.default_input in
  let use () =
    let e = Harness.Engine.create ~store:(Harness.Persist.open_cas ~dir ()) () in
    let r = Harness.Engine.run e t m input in
    let o = Harness.Engine.optimize e m in
    let v = Harness.Engine.tv_check e ~before:m ~after:m' in
    ((r, o, v), Harness.Engine.stats e)
  in
  let first, _ = use () in
  let objects = store_objects dir in
  Alcotest.(check int) "run, -O and TV objects written" 3 (List.length objects);
  List.iter (fun path -> write_file path "garbage") objects;
  (* the corrupt objects are dropped, recomputed and written back *)
  let second, s2 = use () in
  Alcotest.(check bool) "recomputed results identical" true (first = second);
  Alcotest.(check int) "run recomputed" 1 s2.Harness.Engine.runs_executed;
  Alcotest.(check int) "-O recomputed" 1 s2.Harness.Engine.opt_runs;
  Alcotest.(check bool) "verdict recomputed" true
    (List.mem_assoc "tv" s2.Harness.Engine.stages);
  (* the rewritten objects serve a third engine from disk *)
  let third, s3 = use () in
  Alcotest.(check bool) "disk-served results identical" true (first = third);
  Alcotest.(check int) "no run executed" 0 s3.Harness.Engine.runs_executed;
  Alcotest.(check int) "no -O run" 0 s3.Harness.Engine.opt_runs;
  Alcotest.(check bool) "no verdict recomputed" false
    (List.mem_assoc "tv" s3.Harness.Engine.stages)

let test_engine_replaces_text_run_objects () =
  let dir = fresh_dir () in
  let cas = Harness.Persist.open_cas ~dir () in
  let input = Corpus.default_input in
  let m = Lazy.force gradient in
  (* the retired text codec's three shapes, at the keys of three runs *)
  let legacy =
    List.combine
      Compilers.Target.[ swiftshader; mesa; nvidia ]
      [ "ok"; "crash \"sig\""; "image 1 1\nC f0x1p-1\n" ]
  in
  let run_key (t : Compilers.Target.t) =
    Cas.key_of_string
      (Printf.sprintf "run:%s:%s:%s" t.Compilers.Target.name
         (Spirv_ir.Digest.of_module m)
         (Spirv_ir.Digest.of_input input))
  in
  List.iter (fun (t, text) -> Cas.put cas ~key:(run_key t) text) legacy;
  let e = Harness.Engine.create ~store:cas () in
  List.iter
    (fun (t, _) ->
      Alcotest.(check bool)
        (t.Compilers.Target.name ^ ": the recomputed run")
        true
        (Harness.Engine.run e t m input = Compilers.Backend.run t m input);
      match Cas.get cas ~key:(run_key t) ~decode:Option.some with
      | Some bytes when String.length bytes > 0 && bytes.[0] = '\001' -> ()
      | _ ->
          Alcotest.failf "%s: the text object was not rewritten in binary"
            t.Compilers.Target.name)
    legacy;
  let s = Harness.Engine.stats e in
  Alcotest.(check int) "no text object served" 0 s.Harness.Engine.store_hits;
  Alcotest.(check int) "every run recomputed" 3 s.Harness.Engine.runs_executed

(* ------------------------------------------------------------------ *)
(* Campaign persistence: kill and resume *)

let scale = { Harness.Experiments.default_scale with Harness.Experiments.seeds = 14 }
let tool = Harness.Pipeline.Spirv_fuzz_tool
let baseline_hits =
  lazy
    (Harness.Experiments.run_campaign ~engine:(Harness.Engine.create ())
       ~scale tool)

let outcome_or_fail = function
  | Ok (o : Harness.Persist.outcome) -> o
  | Error e -> Alcotest.failf "campaign failed: %s" e

let run_persisted ?resume dir =
  outcome_or_fail
    (Harness.Persist.run_campaign ~engine:(Harness.Engine.create ()) ~scale
       ?resume ~dir tool)

let kill_journal ~keep_fraction dir =
  let path = Harness.Persist.journal_path dir in
  let text = read_file path in
  let keep = String.length text * keep_fraction / 100 in
  write_file path (String.sub text 0 keep)

let test_campaign_store_matches_plain () =
  let dir = fresh_dir () in
  let o = run_persisted dir in
  Alcotest.(check bool) "persisted campaign matches the plain one" true
    (o.Harness.Persist.hits = Lazy.force baseline_hits);
  Alcotest.(check int) "nothing skipped on a fresh run" 0
    o.Harness.Persist.seeds_skipped

let test_campaign_resume_after_truncation () =
  let dir = fresh_dir () in
  let o0 = run_persisted dir in
  kill_journal ~keep_fraction:60 dir;
  let o1 = run_persisted ~resume:true dir in
  Alcotest.(check bool) "kill detected" true o1.Harness.Persist.journal_dropped;
  Alcotest.(check bool) "some seeds replayed, some re-run" true
    (o1.Harness.Persist.seeds_skipped > 0 && o1.Harness.Persist.seeds_run > 0);
  Alcotest.(check bool) "resumed hit list is bit-identical" true
    (o1.Harness.Persist.hits = o0.Harness.Persist.hits);
  (* the journal must have healed: a second resume recomputes nothing *)
  let o2 = run_persisted ~resume:true dir in
  Alcotest.(check int) "second resume runs no seeds" 0
    o2.Harness.Persist.seeds_run;
  Alcotest.(check bool) "second resume still bit-identical" true
    (o2.Harness.Persist.hits = o0.Harness.Persist.hits)

let test_campaign_resume_after_corruption () =
  let dir = fresh_dir () in
  let o0 = run_persisted dir in
  (* flip a byte inside the final record instead of truncating *)
  let path = Harness.Persist.journal_path dir in
  let b = Bytes.of_string (read_file path) in
  Bytes.set b (Bytes.length b - 3) '#';
  write_file path (Bytes.to_string b);
  let o1 = run_persisted ~resume:true dir in
  Alcotest.(check bool) "corruption detected" true
    o1.Harness.Persist.journal_dropped;
  Alcotest.(check bool) "resumed hit list is bit-identical" true
    (o1.Harness.Persist.hits = o0.Harness.Persist.hits)

(* extending a finished campaign: resume at a larger scale replays the
   recorded seeds and computes only the new ones, bit-identically to a
   fresh run at the larger scale *)
let test_campaign_resume_extends () =
  let small = { scale with Harness.Experiments.seeds = 6 } in
  let dir = fresh_dir () in
  let o0 =
    outcome_or_fail
      (Harness.Persist.run_campaign ~engine:(Harness.Engine.create ())
         ~scale:small ~dir tool)
  in
  Alcotest.(check (option int)) "fresh campaign is not an extension" None
    o0.Harness.Persist.extended_from;
  (* grow 0..5 to 0..13 *)
  let o1 =
    outcome_or_fail
      (Harness.Persist.run_campaign ~engine:(Harness.Engine.create ())
         ~scale ~resume:true ~dir tool)
  in
  Alcotest.(check (option int)) "extension recorded" (Some 6)
    o1.Harness.Persist.extended_from;
  Alcotest.(check int) "all recorded seeds replayed" 6
    o1.Harness.Persist.seeds_skipped;
  Alcotest.(check int) "only the new seeds executed" 8
    o1.Harness.Persist.seeds_run;
  let fresh =
    outcome_or_fail
      (Harness.Persist.run_campaign ~engine:(Harness.Engine.create ())
         ~scale ~dir:(fresh_dir ()) tool)
  in
  Alcotest.(check bool) "extended hit list bit-identical to a fresh run" true
    (o1.Harness.Persist.hits = fresh.Harness.Persist.hits);
  (* the journal now self-describes the new extent: a further resume at the
     same scale recomputes nothing and is no longer an extension *)
  let o2 =
    outcome_or_fail
      (Harness.Persist.run_campaign ~engine:(Harness.Engine.create ())
         ~scale ~resume:true ~dir tool)
  in
  Alcotest.(check int) "nothing re-run after the extension" 0
    o2.Harness.Persist.seeds_run;
  Alcotest.(check (option int)) "same scale is not an extension" None
    o2.Harness.Persist.extended_from;
  Alcotest.(check bool) "still bit-identical" true
    (o2.Harness.Persist.hits = fresh.Harness.Persist.hits)

exception Hook_blew_up

(* a user on_seed hook that raises mid-campaign: the exception must
   propagate, the journal fd must still be closed (Fun.protect), and the
   seeds journaled before the raise must resume into a bit-identical run *)
let test_campaign_raising_hook_leaves_replayable_journal () =
  let dir = fresh_dir () in
  (match
     Harness.Persist.run_campaign ~engine:(Harness.Engine.create ())
       ~scale ~domains:3
       ~on_seed:(fun seed _ -> if seed >= 7 then raise Hook_blew_up)
       ~dir tool
   with
  | Ok _ -> Alcotest.fail "raising on_seed hook did not propagate"
  | Error e -> Alcotest.failf "campaign refused instead of raising: %s" e
  | exception Hook_blew_up -> ());
  (* the journal left behind replays cleanly and a resume completes the
     campaign bit-identically to an uninterrupted run *)
  let replay =
    Tbct_store.Journal.replay ~path:(Harness.Persist.journal_path dir)
  in
  Alcotest.(check bool) "aborted journal has a valid prefix" true
    (List.length replay.Tbct_store.Journal.records > 1);
  let o = run_persisted ~resume:true dir in
  Alcotest.(check bool) "seeds recorded before the raise were replayed" true
    (o.Harness.Persist.seeds_skipped > 0);
  Alcotest.(check bool) "resumed hit list bit-identical to uninterrupted" true
    (o.Harness.Persist.hits = Lazy.force baseline_hits)

let test_campaign_resume_refuses_other_tool () =
  let dir = fresh_dir () in
  ignore (run_persisted dir);
  match
    Harness.Persist.run_campaign ~engine:(Harness.Engine.create ())
      ~scale ~resume:true ~dir
      Harness.Pipeline.Glsl_fuzz_tool
  with
  | Ok _ -> Alcotest.fail "resume with a different tool must be refused"
  | Error e ->
      let contains hay needle =
        let n = String.length needle in
        let rec go i =
          i + n <= String.length hay
          && (String.equal (String.sub hay i n) needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "error names the journal's tool" true
        (contains e "spirv-fuzz")

(* ------------------------------------------------------------------ *)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "store"
    [
      ( "codec",
        qcheck [ qcheck_value_roundtrip; qcheck_run_roundtrip ]
        @ [
            Alcotest.test_case "corruption rejected" `Quick
              test_run_codec_rejects_corruption;
            Alcotest.test_case "module round trip" `Quick
              test_module_codec_roundtrip;
            Alcotest.test_case "verdict round trip" `Quick
              test_verdict_codec_roundtrip;
          ] );
      ( "cas",
        qcheck [ qcheck_cas_roundtrip ]
        @ [
            Alcotest.test_case "basics & persistence" `Quick test_cas_basics;
            Alcotest.test_case "size bound on put" `Quick
              test_cas_size_bound_on_put;
            Alcotest.test_case "gc evicts LRU first" `Quick
              test_cas_gc_lru_order;
            Alcotest.test_case "concurrent domain writers" `Quick
              test_cas_concurrent_domains;
            Alcotest.test_case "undecodable object dropped" `Quick
              test_cas_drops_undecodable;
            Alcotest.test_case "ignores orphaned temp files" `Quick
              test_cas_ignores_orphaned_temp;
            Alcotest.test_case "failed write leaves no temp file" `Quick
              test_write_atomic_failure_leaves_no_temp;
          ] );
      ( "journal",
        [
          Alcotest.test_case "round trip" `Quick test_journal_roundtrip;
          Alcotest.test_case "newline rejected" `Quick
            test_journal_rejects_newline;
          Alcotest.test_case "truncated tail dropped" `Quick
            test_journal_truncated_tail;
          Alcotest.test_case "corrupted tail dropped" `Quick
            test_journal_corrupted_tail;
          Alcotest.test_case "truncate then append heals" `Quick
            test_journal_truncate_then_append;
        ] );
      ( "bugbank",
        [
          Alcotest.test_case "record & reload" `Quick
            test_bugbank_record_and_reload;
          Alcotest.test_case "import & corruption" `Quick
            test_bugbank_import_and_corruption;
        ] );
      ( "engine",
        [
          Alcotest.test_case "memo eviction is invisible" `Quick
            test_engine_memo_eviction;
          Alcotest.test_case "optimize memoized" `Quick
            test_engine_optimize_memoized;
          Alcotest.test_case "disk store shared across engines" `Quick
            test_engine_store_shares_runs_and_opts;
          Alcotest.test_case "tv verdicts memoized (memory + disk)" `Quick
            test_engine_tv_memoized;
          Alcotest.test_case "corrupt objects recomputed and replaced" `Quick
            test_engine_corrupt_store_heals;
          Alcotest.test_case "text run objects rewritten in binary" `Quick
            test_engine_replaces_text_run_objects;
          Alcotest.test_case "clean -O served by the pipeline memo" `Quick
            test_engine_optimize_shares_pipeline_memo;
          Alcotest.test_case "failed put keeps the run" `Quick
            test_engine_put_failure_skipped;
        ] );
      ( "resume",
        [
          Alcotest.test_case "store-backed campaign = plain" `Slow
            test_campaign_store_matches_plain;
          Alcotest.test_case "kill (truncated) + resume" `Slow
            test_campaign_resume_after_truncation;
          Alcotest.test_case "kill (corrupted) + resume" `Slow
            test_campaign_resume_after_corruption;
          Alcotest.test_case "raising on_seed leaves a replayable journal"
            `Slow test_campaign_raising_hook_leaves_replayable_journal;
          Alcotest.test_case "resume refuses another tool" `Quick
            test_campaign_resume_refuses_other_tool;
          Alcotest.test_case "resume extends a finished campaign" `Slow
            test_campaign_resume_extends;
        ] );
    ]
