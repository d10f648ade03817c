(* PCG32: state advances by a 64-bit LCG; output is an xorshift-rotated
   permutation of the old state.  Constants from the PCG reference
   implementation. *)

type t = {
  mutable state : int64;
  increment : int64; (* must be odd *)
}

let multiplier = 6364136223846793005L

let next_raw t =
  let old = t.state in
  t.state <- Int64.add (Int64.mul old multiplier) t.increment;
  (* output permutation: xsh-rr *)
  let xorshifted =
    Int64.to_int
      (Int64.logand
         (Int64.shift_right_logical (Int64.logxor (Int64.shift_right_logical old 18) old) 27)
         0xFFFFFFFFL)
  in
  let rot = Int64.to_int (Int64.shift_right_logical old 59) in
  let r = (xorshifted lsr rot) lor (xorshifted lsl (-rot land 31)) in
  r land 0xFFFFFFFF

let make_raw ~state ~increment =
  let t = { state = 0L; increment = Int64.logor increment 1L } in
  t.state <- Int64.add state t.increment;
  ignore (next_raw t);
  t

let make seed =
  make_raw ~state:(Int64.of_int seed) ~increment:0xda3e39cb94b95bdbL

let split t =
  (* Derive two fresh streams from draws of the parent; distinct increments
     guarantee distinct sequences even for equal states. *)
  let s1 = Int64.of_int (next_raw t) and s2 = Int64.of_int (next_raw t) in
  let i1 = Int64.of_int (next_raw t) and i2 = Int64.of_int (next_raw t) in
  ( make_raw ~state:(Int64.logor (Int64.shift_left s1 32) s2) ~increment:i1,
    make_raw ~state:(Int64.logor (Int64.shift_left s2 32) s1) ~increment:i2 )

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* rejection sampling to avoid modulo bias *)
  let limit = 0x100000000 - (0x100000000 mod bound) in
  let rec draw () =
    let r = next_raw t in
    if r < limit then r mod bound else draw ()
  in
  draw ()

let int_in_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_in_range: lo > hi";
  lo + int t (hi - lo + 1)

let bool t = next_raw t land 1 = 1

let chance t ~num ~den =
  if den <= 0 then invalid_arg "Rng.chance: den must be positive";
  int t den < num

let choose t = function
  | [] -> invalid_arg "Rng.choose: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let choose_opt t = function
  | [] -> None
  | xs -> Some (List.nth xs (int t (List.length xs)))

let sample t k xs =
  let n = List.length xs in
  if k >= n then xs
  else begin
    (* reservoir-free: draw k distinct positions, keep order *)
    let chosen = Hashtbl.create k in
    let remaining = ref k in
    (* Floyd's algorithm over indices *)
    for j = n - k to n - 1 do
      let r = int t (j + 1) in
      if Hashtbl.mem chosen r then Hashtbl.replace chosen j ()
      else Hashtbl.replace chosen r ();
      decr remaining
    done;
    ignore !remaining;
    List.filteri (fun i _ -> Hashtbl.mem chosen i) xs
  end

let shuffle t xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a
