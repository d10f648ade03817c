(** Rendered images: one pixel per fragment of the grid.

    A fragment that executes [OpKill] leaves its pixel unwritten ([Killed]),
    as on a real GPU, so transformations such as ReplaceBranchWithKill in
    dead blocks keep images identical while changing the CFG radically. *)

type pixel =
  | Killed
  | Color of Value.t
[@@deriving show { with_path = false }]

type t = {
  width : int;
  height : int;
  pixels : pixel array;  (** row-major, length = width * height *)
}

let create ~width ~height = { width; height; pixels = Array.make (width * height) Killed }

let get t ~x ~y = t.pixels.((y * t.width) + x)

let set t ~x ~y p = t.pixels.((y * t.width) + x) <- p

let equal_pixel ~tolerance a b =
  match (a, b) with
  | Killed, Killed -> true
  | Color u, Color v -> Value.approx_equal ~tolerance u v
  | Killed, Color _ | Color _, Killed -> false

(** Pixel-wise comparison with a small numeric tolerance, the oracle used to
    flag miscompilations (section 3.4: "compares the pair of images"). *)
let equal ?(tolerance = 1e-9) a b =
  a.width = b.width && a.height = b.height
  && (let ok = ref true in
      Array.iteri
        (fun i p -> if not (equal_pixel ~tolerance p b.pixels.(i)) then ok := false)
        a.pixels;
      !ok)

(** Compact ASCII rendering for examples and debugging: each pixel becomes a
    character by quantizing the first (red) channel; killed pixels are
    ['.']. *)
let to_ascii t =
  let b = Buffer.create ((t.width + 1) * t.height) in
  for y = 0 to t.height - 1 do
    for x = 0 to t.width - 1 do
      match get t ~x ~y with
      | Killed -> Buffer.add_char b '.'
      | Color v ->
          let r =
            match v with
            | Value.VComposite parts when Array.length parts > 0 -> (
                match parts.(0) with
                | Value.VFloat f -> f
                | Value.VInt i -> Int32.to_float i
                | Value.VBool bo -> if bo then 1.0 else 0.0
                | Value.VComposite _ -> 0.0)
            | Value.VFloat f -> f
            | Value.VInt i -> Int32.to_float i
            | Value.VBool bo -> if bo then 1.0 else 0.0
            | Value.VComposite _ -> 0.0
          in
          let clamped = if r < 0.0 then 0.0 else if r > 1.0 then 1.0 else r in
          let shades = " _-=+*#%@" in
          let idx = int_of_float (clamped *. float_of_int (String.length shades - 1)) in
          Buffer.add_char b shades.[idx]
    done;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b
