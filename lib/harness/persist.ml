(** Campaign persistence: the glue between {!Experiments.run_campaign} and
    the {!Tbct_store} subsystem (see the interface).  This module does no
    file I/O of its own — every byte flows through [Tbct_store], which is a
    CI-enforced invariant of the harness. *)

module Cas = Tbct_store.Cas
module Journal = Tbct_store.Journal
module Bugbank = Tbct_store.Bugbank

(* ------------------------------------------------------------------ *)
(* Store layout *)

let cas_dir dir = Filename.concat dir "cas"
let journal_path dir = Filename.concat dir "journal.log"
let bugbank_dir dir = dir

let open_cas ?fsync ?max_bytes ~dir () =
  Cas.open_ ?fsync ?max_bytes ~root:(cas_dir dir) ()

(* ------------------------------------------------------------------ *)
(* Record codecs.  Every variable-content field is %S-quoted, so fields
   never contain raw tabs or newlines and records stay single lines. *)

let header_tag = "campaign"
let header_version = "v1"

let encode_header ~tool ~targets ~(scale : Experiments.scale) =
  String.concat "\t"
    [
      header_tag;
      header_version;
      Pipeline.tool_name tool;
      Printf.sprintf "%S"
        (String.concat ","
           (List.map (fun (t : Compilers.Target.t) -> t.Compilers.Target.name) targets));
      string_of_int scale.Experiments.seeds;
    ]

let unquote s = try Some (Scanf.sscanf s "%S%!" Fun.id) with _ -> None

(* A scale record re-states the campaign's seed count when a resume extends
   it past the header's figure (seeds 0..N -> 0..M).  Decoders that predate
   the record shape skip it like any other unparseable-but-checksummed
   record, so extended journals stay readable everywhere. *)
let scale_tag = "scale"

let encode_scale_record seeds =
  String.concat "\t" [ scale_tag; header_version; string_of_int seeds ]

let decode_scale_record record =
  match String.split_on_char '\t' record with
  | [ tag; version; seeds ]
    when String.equal tag scale_tag && String.equal version header_version ->
      int_of_string_opt seeds
  | _ -> None

type header = { h_tool : Pipeline.tool; h_targets : string list; h_seeds : int }

let decode_header record =
  match String.split_on_char '\t' record with
  | [ tag; version; tool; targets; seeds ]
    when String.equal tag header_tag && String.equal version header_version -> (
      match (Pipeline.tool_of_name tool, unquote targets, int_of_string_opt seeds) with
      | Some h_tool, Some targets, Some h_seeds ->
          Some
            {
              h_tool;
              h_targets =
                (if String.equal targets "" then []
                 else String.split_on_char ',' targets);
              h_seeds;
            }
      | _ -> None)
  | _ -> None

let encode_seed_record seed (hits : Experiments.hit list) =
  let hit_fields (h : Experiments.hit) =
    [
      Printf.sprintf "%S" h.Experiments.hit_ref;
      Printf.sprintf "%S" h.Experiments.hit_target;
      Printf.sprintf "%S" h.Experiments.hit_detection.Pipeline.signature;
      (if h.Experiments.hit_detection.Pipeline.via_opt then "1" else "0");
    ]
  in
  String.concat "\t"
    ("seed" :: string_of_int seed
    :: string_of_int (List.length hits)
    :: List.concat_map hit_fields hits)

let decode_seed_record ~tool record : (int * Experiments.hit list) option =
  match String.split_on_char '\t' record with
  | "seed" :: seed :: count :: fields -> (
      match (int_of_string_opt seed, int_of_string_opt count) with
      | Some seed, Some count when List.length fields = 4 * count ->
          let rec hits acc = function
            | [] -> Some (List.rev acc)
            | ref_ :: target :: signature :: via_opt :: rest -> (
                match (unquote ref_, unquote target, unquote signature, via_opt) with
                | Some hit_ref, Some hit_target, Some signature, ("0" | "1") ->
                    hits
                      ({
                         Experiments.hit_tool = tool;
                         hit_seed = seed;
                         hit_ref;
                         hit_target;
                         hit_detection =
                           {
                             Pipeline.signature;
                             via_opt = String.equal via_opt "1";
                           };
                       }
                      :: acc)
                      rest
                | _ -> None)
            | _ -> None
          in
          Option.map (fun hs -> (seed, hs)) (hits [] fields)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Campaign journals *)

type campaign = {
  journal : Journal.t;
  completed : (int, Experiments.hit list) Hashtbl.t;
      (** seeds recovered from the journal *)
  journal_dropped : bool;
  prior_seeds : int option;
      (** the seed count the resumed journal was recorded at (header, or
          the last scale record); [None] for a fresh campaign *)
}

let open_campaign ?(resume = false) ?(fsync = false) ~dir ~tool ~targets
    ~(scale : Experiments.scale) () : (campaign, string) result =
  let path = journal_path dir in
  let completed = Hashtbl.create 256 in
  let fresh () =
    (* a non-resume run starts a new journal: drop any previous one so the
       header and seed records describe exactly this campaign *)
    Tbct_store.Fsio.remove_if_exists path;
    let journal = Journal.open_append ~fsync ~path () in
    Journal.append journal (encode_header ~tool ~targets ~scale);
    Ok
      {
        journal;
        completed;
        journal_dropped = false;
        prior_seeds = None;
      }
  in
  if not resume then fresh ()
  else
    let replay = Journal.replay ~path in
    match replay.Journal.records with
    | [] -> fresh () (* nothing recoverable: behave like a fresh start *)
    | header :: seed_records -> (
        match decode_header header with
        | None -> Error (path ^ ": journal does not start with a campaign header")
        | Some h ->
            let target_names =
              List.map (fun (t : Compilers.Target.t) -> t.Compilers.Target.name) targets
            in
            if h.h_tool <> tool then
              Error
                (Printf.sprintf
                   "%s: journal belongs to a %s campaign, not %s — refusing \
                    to mix hit lists"
                   path (Pipeline.tool_name h.h_tool) (Pipeline.tool_name tool))
            else if h.h_targets <> target_names then
              Error
                (Printf.sprintf
                   "%s: journal targets (%s) differ from this campaign's (%s)"
                   path
                   (String.concat "," h.h_targets)
                   (String.concat "," target_names))
            else begin
              (* the journal's recorded extent: the header's seed count,
                 superseded by any later scale record *)
              let recorded_seeds = ref h.h_seeds in
              List.iter
                (fun record ->
                  match decode_seed_record ~tool record with
                  | Some (seed, hits) -> Hashtbl.replace completed seed hits
                  | None -> (
                      match decode_scale_record record with
                      | Some n -> recorded_seeds := n
                      | None -> () (* checksummed but unparseable: recompute *)))
                seed_records;
              (* cut off the torn suffix before appending, or the first new
                 record is glued onto the half-written line and lost *)
              if replay.Journal.dropped then
                Journal.truncate ~path ~bytes:replay.Journal.valid_bytes;
              let journal = Journal.open_append ~fsync ~path () in
              (* resuming at a different scale (extending a finished
                 campaign 0..N to 0..M, or shrinking): re-state the extent
                 so the journal self-describes what it now covers *)
              if scale.Experiments.seeds <> !recorded_seeds then
                Journal.append journal
                  (encode_scale_record scale.Experiments.seeds);
              Ok
                {
                  journal;
                  completed;
                  journal_dropped = replay.Journal.dropped;
                  prior_seeds = Some !recorded_seeds;
                }
            end)

let skip c seed = Hashtbl.find_opt c.completed seed

let on_seed c seed hits =
  (* called from worker domains; Journal.append is thread-safe and writes
     each record with a single write(2) *)
  Journal.append c.journal (encode_seed_record seed hits)

let close c = Journal.close c.journal

(* ------------------------------------------------------------------ *)
(* The one-call wrapper the CLI and tests use *)

type outcome = {
  hits : Experiments.hit list;
  seeds_skipped : int;  (** seeds served from the journal *)
  seeds_run : int;      (** seeds actually executed this invocation *)
  completed : bool;
      (** every seed is now journaled; [false] only when a [?stop] hook
          cancelled the campaign mid-flight (the hit list is then partial
          and a later [~resume:true] run finishes the job) *)
  journal_dropped : bool;
      (** the journal ended in a truncated/corrupted record (the crash
          signature of a killed campaign) that was discarded *)
  extended_from : int option;
      (** [Some n]: the resumed journal was recorded at [n] seeds and this
          invocation grew the campaign past it *)
}

(* the canonical one-line hit encoding: what [campaign --hits-out] writes
   and what the service's [hits] verb streams, so the two are
   byte-comparable by construction *)
let hit_line (h : Experiments.hit) =
  Printf.sprintf "%d\t%s\t%s\t%S\t%s" h.Experiments.hit_seed
    h.Experiments.hit_ref h.Experiments.hit_target
    h.Experiments.hit_detection.Pipeline.signature
    (if h.Experiments.hit_detection.Pipeline.via_opt then "opt" else "direct")

let run_campaign ?(scale = Experiments.default_scale)
    ?(targets = Compilers.Target.all) ?domains ?pool ~engine ?check_contracts
    ?tv ?weights ?(resume = false) ?(fsync = false) ?stop
    ?on_seed:(user_on_seed = fun (_ : int) (_ : Experiments.hit list) -> ())
    ~dir tool :
    (outcome, string) result =
  match open_campaign ~resume ~fsync ~dir ~tool ~targets ~scale () with
  | Error _ as e -> e
  | Ok c ->
      (* the journal fd is closed (flushing the fsync-when-asked tail) even
         when a worker — or the user's on_seed hook — raises mid-campaign;
         everything appended before the raise stays replayable *)
      Fun.protect
        ~finally:(fun () -> close c)
        (fun () ->
          (* counted with Atomics: both hooks run on worker domains *)
          let skipped = Atomic.make 0 in
          let fresh = Atomic.make 0 in
          let skip_hook seed =
            match skip c seed with
            | Some hits ->
                Atomic.incr skipped;
                Some hits
            | None -> None
          in
          (* journal first, user hook second: a raising user hook still
             leaves the seed it saw recorded *)
          let seed_hook seed hits =
            on_seed c seed hits;
            Atomic.incr fresh;
            user_on_seed seed hits
          in
          let hits =
            Experiments.run_campaign ~scale ~targets ?domains ?pool ~engine
              ?check_contracts ?tv ?weights ~skip:skip_hook ?stop
              ~on_seed:seed_hook tool
          in
          let seeds_skipped = Atomic.get skipped in
          (* counted, not inferred: with a [?stop] hook some seeds are
             neither skipped nor run, and the difference is exactly what
             [completed] reports *)
          let seeds_run = Atomic.get fresh in
          Ok
            {
              hits;
              seeds_skipped;
              seeds_run;
              completed = seeds_skipped + seeds_run >= scale.Experiments.seeds;
              journal_dropped = c.journal_dropped;
              extended_from =
                (match c.prior_seeds with
                | Some n when n < scale.Experiments.seeds -> Some n
                | _ -> None);
            })
