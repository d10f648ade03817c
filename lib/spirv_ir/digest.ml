(** Canonical content digests for modules and inputs.

    The digest of a module is computed over its exact textual disassembly,
    which {!Disasm} guarantees to be precisely invertible by {!Asm} (floats
    are printed in hexadecimal notation), so two modules digest equally iff
    their listings coincide.  Notably the digest ignores [id_bound]: fuzzers
    burn ids on proposals that fail their preconditions, so replaying a
    recorded transformation sequence reproduces a variant's {e contents}
    with a possibly smaller bound — such replays must (and do) share a
    digest, which is what lets the execution engine memoize the repeated
    prefix replays of delta debugging.

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

let of_input (input : Input.t) : string = hex (Input.to_string input)

let of_run (m : Module_ir.t) (input : Input.t) : string =
  hex (of_module m ^ ":" ^ of_input input)
