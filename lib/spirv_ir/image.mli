(** Rendered images: one pixel per fragment of the input grid.

    An image is built by the renderer that returns it ({!Interp.render},
    {!Compile.render_batch}) and never mutated once returned: the
    harness shares one image across every run result and memo entry
    that rendered it.

    A fragment that executes [OpKill] leaves its pixel unwritten
    ([Killed]), as on a real GPU — which is why ReplaceBranchWithKill in
    dead blocks keeps images identical while changing the CFG radically.
    Image equality is the miscompilation oracle (paper, section 3.4: the
    interestingness test "compares the pair of images"). *)

type pixel =
  | Killed
  | Color of Value.t  (** normally a vec4 [VComposite] *)

val pp_pixel : Format.formatter -> pixel -> unit
val show_pixel : pixel -> string

type t = {
  width : int;
  height : int;
  pixels : pixel array;  (** row-major, length = width * height *)
}

val create : width:int -> height:int -> t
(** All pixels initially [Killed]. *)

val get : t -> x:int -> y:int -> pixel
val set : t -> x:int -> y:int -> pixel -> unit

val equal : ?tolerance:float -> t -> t -> bool
(** Pixel-wise with a small numeric tolerance (default 1e-9). *)

val to_ascii : t -> string
(** Compact rendering for examples and debugging: one shade character per
    pixel by quantizing the red channel; killed pixels print ['.']. *)
