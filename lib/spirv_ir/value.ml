(** Runtime values of the reference interpreter. *)

type t =
  | VBool of bool
  | VInt of int32
  | VFloat of float
  | VComposite of t array
[@@deriving show { with_path = false }]

let rec equal a b =
  match (a, b) with
  | VBool x, VBool y -> Bool.equal x y
  | VInt x, VInt y -> Int32.equal x y
  | VFloat x, VFloat y ->
      (* NaN never arises (operations producing it are defined away), but be
         safe: compare representations so that equal renders are equal. *)
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | VComposite xs, VComposite ys ->
      Array.length xs = Array.length ys
      && (let ok = ref true in
          Array.iteri (fun i x -> if not (equal x ys.(i)) then ok := false) xs;
          !ok)
  | (VBool _ | VInt _ | VFloat _ | VComposite _), _ -> false

(** Exact binary encoding, shared by the store's run codec and the input
    digest: a tag byte, then the payload, integers little-endian.  0/1
    VBool, 2 VInt (int32), 3 VFloat (its IEEE bit pattern, so every NaN
    payload and every last bit is kept), 4 VComposite (int32 count, then
    the elements). *)
let rec add_bin buf v =
  match v with
  | VBool false -> Buffer.add_char buf '\000'
  | VBool true -> Buffer.add_char buf '\001'
  | VInt i ->
      Buffer.add_char buf '\002';
      Buffer.add_int32_le buf i
  | VFloat f ->
      Buffer.add_char buf '\003';
      Buffer.add_int64_le buf (Int64.bits_of_float f)
  | VComposite elems ->
      Buffer.add_char buf '\004';
      Buffer.add_int32_le buf (Int32.of_int (Array.length elems));
      Array.iter (add_bin buf) elems

let rec approx_equal ~tolerance a b =
  match (a, b) with
  | VFloat x, VFloat y -> Float.abs (x -. y) <= tolerance
  | VComposite xs, VComposite ys ->
      Array.length xs = Array.length ys
      && (let ok = ref true in
          Array.iteri
            (fun i x -> if not (approx_equal ~tolerance x ys.(i)) then ok := false)
            xs;
          !ok)
  | _, _ -> equal a b

(** Functional update of a composite at a (possibly nested) index path. *)
let rec update_at_path v path x =
  match path with
  | [] -> x
  | i :: rest -> (
      match v with
      | VComposite elems ->
          let n = Array.length elems in
          let i = if i < 0 then 0 else if i >= n then n - 1 else i in
          let elems' = Array.copy elems in
          elems'.(i) <- update_at_path elems.(i) rest x;
          VComposite elems'
      | VBool _ | VInt _ | VFloat _ -> v)

(** Read a composite at an index path; out-of-range indices are clamped (the
    reference semantics is total; the validator rejects statically
    out-of-range constant indices, so clamping only matters for dynamically
    computed indices, which our language restricts to arrays). *)
let rec extract_at_path v path =
  match path with
  | [] -> v
  | i :: rest -> (
      match v with
      | VComposite elems ->
          let n = Array.length elems in
          let i = if i < 0 then 0 else if i >= n then n - 1 else i in
          extract_at_path elems.(i) rest
      | VBool _ | VInt _ | VFloat _ -> v)
