(* Deterministic total order for ORDER BY (see the .mli). *)

open Minirel_storage

type key = int * bool

(* Top-level loop, like Tuple.compare: a local one would allocate a
   closure on every comparison of a sort. *)
let rec cmp_from order (a : Tuple.t) (b : Tuple.t) i =
  if i >= Array.length order then Tuple.compare a b
  else
    let pos, desc = order.(i) in
    let c = Value.compare a.(pos) b.(pos) in
    if c <> 0 then if desc then -c else c else cmp_from order a b (i + 1)

let cmp ~order a b = cmp_from order a b 0

let sort ~order tuples = List.sort (cmp ~order) tuples

let first_k ~order ~k tuples =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take k (sort ~order tuples)
