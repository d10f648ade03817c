(** The daemon's wire protocol: newline-delimited JSON over a Unix socket.

    Each request is one JSON object on one line ([{"cmd": ...}]); each
    reply is one line too, except [attach], which streams one event object
    per line until the job reaches a terminal state.  The codec is exact:
    {!parse_request} inverts {!encode_request} for every request —
    QCheck-tested in [test_service].

    Replies are plain {!Json.t} objects built with the helpers below; the
    daemon guarantees every reply carries an ["ok"] boolean, so clients
    can dispatch on [Json.mem_bool "ok"] without knowing the verb. *)

(** Campaign submission parameters.  [sub_weights] keeps the CLI
    [FAMILY=N,...] syntax (validated by the daemon at submit time with
    {!Spirv_fuzz.Registry.parse_weights}); [sub_targets = []] means every
    registered target. *)
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
  | Status of string option  (** one job, or the whole daemon for [None] *)
  | Jobs
  | Attach of string  (** stream events until the job is terminal *)
  | Hits of string  (** full hit list of a finished job *)
  | Cancel of string
  | Drain  (** refuse new submissions; exit once all jobs are terminal *)
  | Shutdown  (** checkpoint every in-flight campaign and exit *)

val encode_request : request -> string
(** One line, no trailing newline. *)

val parse_request : string -> (request, string) result

(** {1 Reply builders} *)

val ok : (string * Json.t) list -> Json.t
(** [{"ok": true, ...fields}] *)

val error : string -> Json.t
(** [{"ok": false, "error": msg}] *)

(** {1 Line framing} *)

val max_line_bytes : int
(** The longest request line the daemon reads (1 MiB, newline excluded). *)

type partial
(** The bytes of a request line received so far, without its newline. *)

val no_partial : partial

val frame : partial -> string -> string list * partial option
(** [frame p chunk] appends a chunk read from a socket to the pending
    line [p] and returns the lines it completes, in order, with the new
    pending line.  The second component is [None] once a line, complete
    or not, exceeds {!max_line_bytes}; the lines before it are still
    returned.  Only [chunk] is scanned for newlines, so framing a stream
    costs time linear in its length. *)
