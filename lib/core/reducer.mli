(** Delta debugging over transformation sequences.

    This is the reduction algorithm of section 3.4 of the paper: maintain a
    chunk size [c], initialised to [n/2]; divide the sequence into chunks of
    size [c] starting from the {e last} element and working backwards (so any
    leftover smaller chunk sits at the front); try removing each chunk in
    turn, keeping the removal whenever the interestingness test still passes;
    once no chunk of size [c] can be removed, halve [c]; terminate when no
    chunk of size 1 can be removed.  The result is 1-minimal: removing any
    single remaining element makes the test fail. *)

type stats = {
  queries : int;      (** number of interestingness-test invocations *)
  kept : int;         (** length of the reduced sequence *)
  initial : int;      (** length of the input sequence *)
}

val reduce :
  is_interesting:('a list -> bool) ->
  'a list ->
  'a list * stats
(** [reduce ~is_interesting xs] returns a 1-minimal subsequence of [xs] that
    still satisfies [is_interesting], together with statistics about the run.

    [is_interesting xs] must hold for the input sequence; otherwise
    [Invalid_argument] is raised (a reducer invoked on a non-bug-triggering
    sequence indicates a harness error). *)

val reduce_linear :
  is_interesting:('a list -> bool) ->
  'a list ->
  'a list * stats
(** Naive baseline for the ablation study: repeatedly sweep the sequence
    trying to remove one element at a time, with no chunking.  Produces the
    same 1-minimal guarantee as {!reduce} but needs many more
    interestingness queries on long sequences (the bench's reducer ablation
    quantifies the gap). *)
