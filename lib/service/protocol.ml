(** Wire protocol codec (see the interface). *)

type submit_spec = {
  sub_tool : Harness.Pipeline.tool;
  sub_seeds : int;
  sub_targets : string list;
  sub_weights : string;
  sub_tv : bool;
}

type request =
  | Ping
  | Submit of submit_spec
  | Status of string option
  | Jobs
  | Attach of string
  | Hits of string
  | Cancel of string
  | Drain
  | Shutdown

let encode_request req =
  let obj fields = Json.to_string (Json.Obj fields) in
  let cmd name rest = obj (("cmd", Json.Str name) :: rest) in
  match req with
  | Ping -> cmd "ping" []
  | Submit spec ->
      cmd "submit"
        [
          ("tool", Json.Str (Harness.Pipeline.tool_name spec.sub_tool));
          ("seeds", Json.Int spec.sub_seeds);
          ( "targets",
            Json.List (List.map (fun t -> Json.Str t) spec.sub_targets) );
          ("weights", Json.Str spec.sub_weights);
          ("tv", Json.Bool spec.sub_tv);
        ]
  | Status None -> cmd "status" []
  | Status (Some id) -> cmd "status" [ ("job", Json.Str id) ]
  | Jobs -> cmd "jobs" []
  | Attach id -> cmd "attach" [ ("job", Json.Str id) ]
  | Hits id -> cmd "hits" [ ("job", Json.Str id) ]
  | Cancel id -> cmd "cancel" [ ("job", Json.Str id) ]
  | Drain -> cmd "drain" []
  | Shutdown -> cmd "shutdown" []

let parse_request line =
  match Json.of_string line with
  | Error msg -> Error (Printf.sprintf "bad JSON: %s" msg)
  | Ok v -> (
      let job_arg make =
        match Json.mem_str "job" v with
        | Some id -> Ok (make id)
        | None -> Error "missing \"job\" field"
      in
      match Json.mem_str "cmd" v with
      | None -> Error "missing \"cmd\" field"
      | Some "ping" -> Ok Ping
      | Some "submit" -> (
          let tool_name =
            Option.value ~default:"spirv-fuzz" (Json.mem_str "tool" v)
          in
          match Harness.Pipeline.tool_of_name tool_name with
          | None -> Error (Printf.sprintf "unknown tool %S" tool_name)
          | Some sub_tool ->
              let sub_seeds =
                Option.value ~default:0 (Json.mem_int "seeds" v)
              in
              if sub_seeds <= 0 then Error "\"seeds\" must be positive"
              else
                let sub_targets =
                  match Option.bind (Json.member "targets" v) Json.to_list with
                  | None -> []
                  | Some items -> List.filter_map Json.to_str items
                in
                let sub_weights =
                  Option.value ~default:"" (Json.mem_str "weights" v)
                in
                let sub_tv =
                  Option.value ~default:false (Json.mem_bool "tv" v)
                in
                Ok
                  (Submit
                     { sub_tool; sub_seeds; sub_targets; sub_weights; sub_tv })
          )
      | Some "status" -> Ok (Status (Json.mem_str "job" v))
      | Some "jobs" -> Ok Jobs
      | Some "attach" -> job_arg (fun id -> Attach id)
      | Some "hits" -> job_arg (fun id -> Hits id)
      | Some "cancel" -> job_arg (fun id -> Cancel id)
      | Some "drain" -> Ok Drain
      | Some "shutdown" -> Ok Shutdown
      | Some other -> Error (Printf.sprintf "unknown command %S" other))

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)
let error msg = Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ]

(* ---------- line framing ---------- *)

let max_line_bytes = 1 lsl 20

(* the pieces of the pending line, newest first, and their total length *)
type partial = { rev_parts : string list; len : int }

let no_partial = { rev_parts = []; len = 0 }

(* Only the new chunk is scanned for newlines: the pending pieces hold
   none, so every byte is scanned once and copied at most twice. *)
let frame p chunk =
  let n = String.length chunk in
  let rec go p start rev_lines =
    match String.index_from_opt chunk start '\n' with
    | None ->
        let p =
          if start = n then p
          else
            {
              rev_parts = String.sub chunk start (n - start) :: p.rev_parts;
              len = p.len + n - start;
            }
        in
        (List.rev rev_lines, if p.len > max_line_bytes then None else Some p)
    | Some i ->
        if p.len + i - start > max_line_bytes then (List.rev rev_lines, None)
        else
          let last = String.sub chunk start (i - start) in
          let line = String.concat "" (List.rev (last :: p.rev_parts)) in
          go no_partial (i + 1) (line :: rev_lines)
  in
  go p 0 []
