(** Deterministic, splittable pseudo-random number generator.

    All randomized components of the library draw from this generator so that
    every fuzzing run, reduction and experiment is reproducible from a single
    integer seed, mirroring the seed-controlled behaviour of spirv-fuzz
    (paper, section 3.2).  The implementation is PCG32 (Melissa O'Neill's
    permuted congruential generator), self-contained so that results do not
    depend on the OCaml standard library's [Random] implementation. *)

type t

val make : int -> t
(** [make seed] creates a generator from an integer seed. *)

val split : t -> t * t
(** [split g] destructively advances [g] and returns two generators with
    independent streams.  Useful to give each fuzzer pass its own stream so
    that adding draws to one pass does not perturb another. *)

val int : t -> int -> int
(** [int g bound] draws a uniform integer in [\[0, bound)].  [bound] must be
    positive. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** Uniform integer in [\[lo, hi\]] inclusive.  Requires [lo <= hi]. *)

val bool : t -> bool

val chance : t -> num:int -> den:int -> bool
(** [chance g ~num ~den] is true with probability [num/den]. *)

val choose : t -> 'a list -> 'a
(** Uniform element of a non-empty list.  @raise Invalid_argument on []. *)

val choose_opt : t -> 'a list -> 'a option
(** Uniform element, or [None] on the empty list. *)

val sample : t -> int -> 'a list -> 'a list
(** [sample g k xs] draws min(k, length xs) distinct elements, preserving
    their relative order in [xs]. *)

val shuffle : t -> 'a list -> 'a list
(** Uniform permutation (Fisher-Yates). *)
