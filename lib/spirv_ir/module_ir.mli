(** SPIR-V-like modules.

    A module is a type table, a constant table, global variables, functions
    and a designated entry-point function, in the declaration-order
    discipline of SPIR-V: every declaration may only reference earlier
    declarations, and the validator enforces it.

    {b Fresh-id discipline.}  Ids are allocated from the module-wide
    [id_bound], which only ever grows.  Transformations draw the fresh ids
    they will introduce at {e construction} time and record them as explicit
    parameters, so re-applying a recorded transformation during reduction
    reuses exactly the same ids — the property behind "maximizing
    independence" (paper, section 3.3). *)

type type_decl = { td_id : Id.t; td_ty : Ty.t }

val pp_type_decl : Format.formatter -> type_decl -> unit
val show_type_decl : type_decl -> string
val equal_type_decl : type_decl -> type_decl -> bool

type const_decl = { cd_id : Id.t; cd_ty : Id.t; cd_value : Constant.t }

val pp_const_decl : Format.formatter -> const_decl -> unit
val show_const_decl : const_decl -> string
val equal_const_decl : const_decl -> const_decl -> bool

type global_decl = {
  gd_id : Id.t;
  gd_ty : Id.t;  (** a [Ty.Pointer] type id *)
  gd_name : string;
      (** binds [Uniform]/[Input]/[Output] variables to input values and
          the framebuffer *)
  gd_init : Id.t option;  (** optional constant initializer *)
}

val pp_global_decl : Format.formatter -> global_decl -> unit
val show_global_decl : global_decl -> string
val equal_global_decl : global_decl -> global_decl -> bool

type t = {
  id_bound : int;  (** all ids are in [\[1, id_bound)] *)
  types : type_decl list;
  constants : const_decl list;
  globals : global_decl list;
  functions : Func.t list;
  entry : Id.t;  (** the entry-point function id *)
}

val pp : Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool

val equal_ignoring_bound : t -> t -> bool
(** Equality up to [id_bound]: fuzzers burn ids on proposals that fail their
    preconditions, so replaying a recorded sequence reproduces a variant's
    contents but may end with a smaller bound. *)

val equal_exact : t -> t -> bool
(** Equality of every field, [id_bound] included, with float constants
    compared by bit pattern ([Int64.bits_of_float]).  Unlike {!equal},
    which follows IEEE [=], it tells [0.0] from [-0.0] and equates a NaN
    with itself, so it is at least as fine as {!Digest.of_module}:
    [equal_exact a b] implies equal digests. *)

val empty : t

(** {1 Fresh ids} *)

val fresh : t -> t * Id.t
val fresh_many : t -> int -> t * Id.t list

(** {1 Lookups} *)

val find_type : t -> Id.t -> Ty.t option
val type_exn : t -> Id.t -> Ty.t
val find_type_id : t -> Ty.t -> Id.t option
(** Structural lookup: the id of an existing declaration equal to [ty]. *)

val find_constant : t -> Id.t -> const_decl option
val find_constant_id : t -> ty:Id.t -> value:Constant.t -> Id.t option
val find_global : t -> Id.t -> global_decl option
val find_function : t -> Id.t -> Func.t option
val function_exn : t -> Id.t -> Func.t
val entry_function : t -> Func.t
val replace_function : t -> Func.t -> t

(** {1 Interning} *)

val intern_type : t -> Ty.t -> t * Id.t
(** Get-or-create; component type ids must already be declared. *)

val intern_constant : t -> ty:Id.t -> Constant.t -> t * Id.t
val add_global : t -> ty:Id.t -> name:string -> init:Id.t option -> t * Id.t

val bool_ty : t -> t * Id.t
val int_ty : t -> t * Id.t
val float_ty : t -> t * Id.t
val void_ty : t -> t * Id.t
val const_bool : t -> bool -> t * Id.t
val const_int : t -> int -> t * Id.t
val const_float : t -> float -> t * Id.t

(** {1 Typing and evaluation} *)

val type_of_id : t -> Id.t -> Id.t option
(** The declared/derived result-type id of any id that has one: constants,
    globals, functions (their function type), parameters and instruction
    results. *)

val zero_value : t -> Id.t -> Value.t
(** The all-zero runtime value of a type — what uninitialized variables and
    [OpConstantNull] denote. *)

val const_value : t -> Id.t -> Value.t
(** Evaluate a constant id to its runtime value.
    @raise Invalid_argument if the id is not a constant. *)

(** {1 Aggregate structure} *)

val composite_arity : t -> Id.t -> int option
(** Number of immediate components of a composite type.  Total: unknown or
    non-composite type ids yield [None] (transformation preconditions probe
    types whose declarations may have been removed from a reduced
    sequence). *)

val component_ty : t -> Id.t -> int -> Id.t option
(** Type id of component [i]; total like {!composite_arity}. *)

val ty_at_path : t -> Id.t -> int list -> Id.t option
(** The type reached by following a literal index path. *)

(** {1 Metrics} *)

val instruction_count : t -> int
(** Instructions across all functions, terminators included — the size
    metric of the paper's reduction-quality comparison (section 4.2). *)

val defined_ids : t -> Id.Set.t
(** Every id defined anywhere in the module. *)
