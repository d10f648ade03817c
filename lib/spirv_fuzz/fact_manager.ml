(** The fact manager (section 3.2).

    Facts are properties of the (program, input) pair that transformations
    establish and later transformations take on trust:

    - [DeadBlock b]: block [b] is never executed;
    - [Synonymous (u@is, v@js)]: the component of [u] at literal index path
      [is] equals the component of [v] at path [js] wherever both ids are
      available (empty paths mean the whole values are equal);
    - [Irrelevant i]: the value of id [i] never affects the final result;
    - [IrrelevantPointee p]: the data pointed to by [p] never affects the
      final result;
    - [LiveSafe f]: calling function [f] from anywhere cannot affect the
      final result, provided pointer arguments are irrelevant-pointee. *)

open Spirv_ir

type indexed = Id.t * int list
[@@deriving show { with_path = false }, eq]

type t = {
  dead_blocks : Id.Set.t;
  synonyms : (indexed * indexed) list;
  irrelevant : Id.Set.t;
  irrelevant_pointees : Id.Set.t;
  live_safe : Id.Set.t;
}

let empty =
  {
    dead_blocks = Id.Set.empty;
    synonyms = [];
    irrelevant = Id.Set.empty;
    irrelevant_pointees = Id.Set.empty;
    live_safe = Id.Set.empty;
  }

let add_dead_block t b = { t with dead_blocks = Id.Set.add b t.dead_blocks }
let is_dead_block t b = Id.Set.mem b t.dead_blocks

let add_synonym t a b = { t with synonyms = (a, b) :: t.synonyms }
let add_id_synonym t a b = add_synonym t (a, []) (b, [])

let add_irrelevant t i = { t with irrelevant = Id.Set.add i t.irrelevant }
let is_irrelevant t i = Id.Set.mem i t.irrelevant

let add_irrelevant_pointee t p =
  { t with irrelevant_pointees = Id.Set.add p t.irrelevant_pointees }

let is_irrelevant_pointee t p = Id.Set.mem p t.irrelevant_pointees

let add_live_safe t f = { t with live_safe = Id.Set.add f t.live_safe }
let is_live_safe t f = Id.Set.mem f t.live_safe

(** Whole-object synonyms of [id]: the set of ids known equal to it, via the
    symmetric-transitive closure of path-free synonym facts.  [id] itself is
    not included. *)
let id_synonyms t id =
  let edges =
    List.filter_map
      (fun ((a, pa), (b, pb)) -> if pa = [] && pb = [] then Some (a, b) else None)
      t.synonyms
  in
  let rec closure frontier known =
    match frontier with
    | [] -> known
    | x :: rest ->
        let neighbours =
          List.concat_map
            (fun (a, b) ->
              if Id.equal a x then [ b ] else if Id.equal b x then [ a ] else [])
            edges
        in
        let fresh = List.filter (fun n -> not (Id.Set.mem n known)) neighbours in
        closure (fresh @ rest) (List.fold_left (fun s n -> Id.Set.add n s) known fresh)
  in
  Id.Set.remove id (closure [ id ] (Id.Set.singleton id)) |> Id.Set.elements

let are_synonymous t a b =
  (not (Id.equal a b)) && List.mem b (id_synonyms t a)

(** Ids known equal to component [path] of composite [c] (from indexed
    facts such as those CompositeConstruct records). *)
let component_synonyms t ~composite ~path =
  List.filter_map
    (fun ((a, pa), (b, pb)) ->
      if Id.equal a composite && pa = path && pb = [] then Some b
      else if Id.equal b composite && pb = path && pa = [] then Some a
      else None)
    t.synonyms
