(** Exact codecs for the artifacts the store persists: backend run results
    (images, crash signatures), translation-validation verdicts and
    optimized modules.

    The encoding must round-trip {e exactly} — a disk-cached run result is
    substituted for a recomputed one inside §3.4 interestingness tests, so
    any lossiness would change what ddmin keeps.  Run results are binary,
    with floats stored as their IEEE bit patterns; modules reuse the
    Disasm/Asm pair, whose exact invertibility the digest layer already
    depends on. *)

open Spirv_ir

exception Bad of string

(* ------------------------------------------------------------------ *)
(* Run results

   Layout: a leading version byte 0x01, then a tag byte — 0 Compiled_ok,
   1 Crashed (u32 length + bytes), 2 Rendered (u32 width, u32 height,
   then width*height pixels: 0 = Killed, 1 = Color + value).  Values are
   {!Value.add_bin}'s tag-prefixed encoding, floats as their IEEE bits.
   All integers little-endian.  An object that does not parse —
   truncated, corrupt, or written by the retired text codec, none of
   whose objects begins with 0x01 — decodes to [None], and the store
   drops it. *)

let binary_version = '\001'

let rd_byte s pos =
  if !pos >= String.length s then raise (Bad "eof");
  let c = s.[!pos] in
  incr pos;
  c

let rd_int32 s pos =
  if !pos + 4 > String.length s then raise (Bad "eof");
  let v = String.get_int32_le s !pos in
  pos := !pos + 4;
  v

let rd_int64 s pos =
  if !pos + 8 > String.length s then raise (Bad "eof");
  let v = String.get_int64_le s !pos in
  pos := !pos + 8;
  v

let rd_len s pos =
  let n = Int32.to_int (rd_int32 s pos) in
  (* every encoded element occupies at least one byte, so a count beyond
     the remaining bytes is corruption, not a huge allocation request *)
  if n < 0 || n > String.length s - !pos then raise (Bad "length");
  n

let rec rd_value s pos =
  match rd_byte s pos with
  | '\000' -> Value.VBool false
  | '\001' -> Value.VBool true
  | '\002' -> Value.VInt (rd_int32 s pos)
  | '\003' -> Value.VFloat (Int64.float_of_bits (rd_int64 s pos))
  | '\004' ->
      let n = rd_len s pos in
      Value.VComposite (Array.init n (fun _ -> rd_value s pos))
  | c -> raise (Bad (Printf.sprintf "value tag %C" c))

let encode_run (r : Compilers.Backend.run_result) : string =
  let buf = Buffer.create 256 in
  Buffer.add_char buf binary_version;
  (match r with
  | Compilers.Backend.Compiled_ok -> Buffer.add_char buf '\000'
  | Compilers.Backend.Crashed sg ->
      Buffer.add_char buf '\001';
      Buffer.add_int32_le buf (Int32.of_int (String.length sg));
      Buffer.add_string buf sg
  | Compilers.Backend.Rendered img ->
      Buffer.add_char buf '\002';
      Buffer.add_int32_le buf (Int32.of_int img.Image.width);
      Buffer.add_int32_le buf (Int32.of_int img.Image.height);
      Array.iter
        (fun (p : Image.pixel) ->
          match p with
          | Image.Killed -> Buffer.add_char buf '\000'
          | Image.Color v ->
              Buffer.add_char buf '\001';
              Value.add_bin buf v)
        img.Image.pixels);
  Buffer.contents buf

let decode_run (s : string) : Compilers.Backend.run_result option =
  let pos = ref 0 in
  match
    if rd_byte s pos <> binary_version then raise (Bad "version");
    let r =
      match rd_byte s pos with
      | '\000' -> Compilers.Backend.Compiled_ok
      | '\001' ->
          let n = rd_len s pos in
          let sg = String.sub s !pos n in
          pos := !pos + n;
          Compilers.Backend.Crashed sg
      | '\002' ->
          let w = Int32.to_int (rd_int32 s pos) in
          let h = Int32.to_int (rd_int32 s pos) in
          if w <= 0 || h <= 0 || w * h > String.length s - !pos then
            raise (Bad "dimensions");
          let pixels =
            Array.init (w * h) (fun _ ->
                match rd_byte s pos with
                | '\000' -> Image.Killed
                | '\001' -> Image.Color (rd_value s pos)
                | c -> raise (Bad (Printf.sprintf "pixel tag %C" c)))
          in
          Compilers.Backend.Rendered
            { Image.width = w; Image.height = h; Image.pixels }
      | c -> raise (Bad (Printf.sprintf "run tag %C" c))
    in
    if !pos <> String.length s then raise (Bad "trailing bytes");
    r
  with
  | r -> Some r
  | exception Bad _ -> None

(* ------------------------------------------------------------------ *)
(* Translation-validation verdicts *)

let encode_verdict (v : Compilers.Tv.verdict) : string =
  match v with
  | Compilers.Tv.Equivalent -> "equivalent"
  | Compilers.Tv.Mismatch w ->
      Printf.sprintf "mismatch %S %S %S" w.Compilers.Tv.w_slot
        w.Compilers.Tv.w_before w.Compilers.Tv.w_after
  | Compilers.Tv.Abstained r -> Printf.sprintf "abstained %S" r

let decode_verdict (s : string) : Compilers.Tv.verdict option =
  if String.equal s "equivalent" then Some Compilers.Tv.Equivalent
  else if String.length s >= 9 && String.equal (String.sub s 0 9) "mismatch " then
    match
      Scanf.sscanf
        (String.sub s 9 (String.length s - 9))
        "%S %S %S%!"
        (fun slot before after -> (slot, before, after))
    with
    | slot, before, after ->
        Some
          (Compilers.Tv.Mismatch
             {
               Compilers.Tv.w_slot = slot;
               Compilers.Tv.w_before = before;
               Compilers.Tv.w_after = after;
             })
    | exception _ -> None
  else if String.length s >= 10 && String.equal (String.sub s 0 10) "abstained "
  then
    match
      Scanf.sscanf (String.sub s 10 (String.length s - 10)) "%S%!" Fun.id
    with
    | r -> Some (Compilers.Tv.Abstained r)
    | exception _ -> None
  else None

(* ------------------------------------------------------------------ *)
(* Modules *)

let encode_module (m : Module_ir.t) : string = Disasm.to_string m

let decode_module (s : string) : Module_ir.t option =
  match Asm.of_string_result s with Ok m -> Some m | Error _ -> None
