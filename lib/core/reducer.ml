type stats = { queries : int; kept : int; initial : int }

(* Remove the half-open index range [start, stop) from a list. *)
let remove_range xs start stop =
  List.filteri (fun i _ -> i < start || i >= stop) xs

let reduce ~is_interesting xs =
  let queries = ref 0 in
  let test ys =
    incr queries;
    is_interesting ys
  in
  if not (test xs) then
    invalid_arg "Reducer.reduce: input sequence is not interesting";
  let n0 = List.length xs in
  (* One backwards sweep at chunk size [c]; returns the (possibly shorter)
     sequence and whether any chunk was removed. *)
  let sweep c xs =
    let removed_any = ref false in
    let current = ref xs in
    let stop = ref (List.length xs) in
    while !stop > 0 do
      let start = max 0 (!stop - c) in
      let candidate = remove_range !current start !stop in
      if test candidate then begin
        current := candidate;
        removed_any := true
      end;
      stop := start
    done;
    (!current, !removed_any)
  in
  let rec at_size c xs =
    let xs, removed = sweep c xs in
    if removed then at_size c xs
    else if c = 1 then xs
    else at_size (max 1 (c / 2)) xs
  in
  let result = if n0 = 0 then [] else at_size (max 1 (n0 / 2)) xs in
  (result, { queries = !queries; kept = List.length result; initial = n0 })

let reduce_linear ~is_interesting xs =
  let queries = ref 0 in
  let test ys =
    incr queries;
    is_interesting ys
  in
  if not (test xs) then
    invalid_arg "Reducer.reduce: input sequence is not interesting";
  let n0 = List.length xs in
  (* [n] is threaded through the sweep (decremented on each removal) so the
     loop bound costs O(1) per step instead of a full List.length traversal *)
  let rec sweep n xs =
    let removed = ref false in
    let rec go i n xs =
      if i >= n then (n, xs)
      else begin
        let candidate = List.filteri (fun j _ -> j <> i) xs in
        if test candidate then begin
          removed := true;
          go i (n - 1) candidate
        end
        else go (i + 1) n xs
      end
    in
    let n, xs = go 0 n xs in
    if !removed then sweep n xs else (n, xs)
  in
  let kept, result = sweep n0 xs in
  (result, { queries = !queries; kept; initial = n0 })
