(** Canonical content digests for modules and inputs.

    The digest of a module is computed over its exact textual disassembly,
    which {!Disasm} guarantees to be precisely invertible by {!Asm} (floats
    are printed in hexadecimal notation), so two modules digest equally iff
    their listings coincide.  The listing starts with [OpIdBound], so the
    digest covers [id_bound] too: two modules that differ only in their
    bound digest differently, and no memo keyed by digests ever hands one
    module's result to the other.

    A digest is computed once per distinct module value: a per-domain ring
    of weak references maps recently digested modules, by physical
    identity, to their digests. *)

let hex s = Stdlib.Digest.to_hex (Stdlib.Digest.string s)

(* Identity reuse.  A module is immutable, so a module physically equal to
   one digested before has that digest.  Callers hand the same value in
   again and again (a pass that changed nothing, each TV step's [before]
   being the previous step's [after], one variant run on every target), so
   each domain remembers its last [ring_slots] digests.  The ring holds its
   modules weakly: a module nobody else references is not kept alive, so
   callers whose modules are all new (reduction probes) pay a lookup and
   never the GC cost of retaining dead modules. *)
let ring_slots = 16

type ring = {
  modules : Module_ir.t Weak.t;
  digests : string array;
  mutable next : int;  (* the slot the next miss overwrites *)
}

let ring_key =
  Domain.DLS.new_key (fun () ->
      {
        modules = Weak.create ring_slots;
        digests = Array.make ring_slots "";
        next = 0;
      })

let of_module (m : Module_ir.t) : string =
  let r = Domain.DLS.get ring_key in
  let rec find i =
    if i = ring_slots then None
    else
      match Weak.get r.modules i with
      | Some m' when m' == m -> Some r.digests.(i)
      | Some _ | None -> find (i + 1)
  in
  match find 0 with
  | Some d -> d
  | None ->
      let d = hex (Disasm.to_string m) in
      Weak.set r.modules r.next (Some m);
      r.digests.(r.next) <- d;
      r.next <- (r.next + 1) mod ring_slots;
      d

(* Input layout: width and height (int64 LE each), then per uniform, in
   order, its name (int64 LE length + bytes) and its {!Value.add_bin}
   encoding.  Every field is length-prefixed or fixed-width and floats go
   in as their IEEE bits, so two inputs share a digest only if they are
   equal bit for bit. *)
let of_input (input : Input.t) : string =
  let b = Buffer.create 64 in
  let add_len n = Buffer.add_int64_le b (Int64.of_int n) in
  add_len input.Input.width;
  add_len input.Input.height;
  List.iter
    (fun (name, v) ->
      add_len (String.length name);
      Buffer.add_string b name;
      Value.add_bin b v)
    input.Input.uniforms;
  hex (Buffer.contents b)
