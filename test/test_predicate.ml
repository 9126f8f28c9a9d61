open Minirel_storage
open Minirel_query

let check = Alcotest.check
let vi i = Value.Int i
let t = [| vi 5; Value.Str "abc"; Value.Float 2.5 |]

let test_cmp () =
  let open Predicate in
  check Alcotest.bool "eq" true (eval (Cmp (Eq, 0, vi 5)) t);
  check Alcotest.bool "ne" true (eval (Cmp (Ne, 0, vi 6)) t);
  check Alcotest.bool "lt" true (eval (Cmp (Lt, 0, vi 6)) t);
  check Alcotest.bool "le at bound" true (eval (Cmp (Le, 0, vi 5)) t);
  check Alcotest.bool "gt" false (eval (Cmp (Gt, 0, vi 5)) t);
  check Alcotest.bool "ge at bound" true (eval (Cmp (Ge, 0, vi 5)) t);
  check Alcotest.bool "string eq" true (eval (Cmp (Eq, 1, Value.Str "abc")) t)

let test_in_set_interval () =
  let open Predicate in
  check Alcotest.bool "in set" true (eval (In_set (0, [ vi 1; vi 5 ])) t);
  check Alcotest.bool "not in set" false (eval (In_set (0, [ vi 1; vi 2 ])) t);
  check Alcotest.bool "in interval" true
    (eval (In_interval (0, Interval.closed ~lo:(vi 0) ~hi:(vi 5))) t);
  check Alcotest.bool "not in interval" false
    (eval (In_interval (0, Interval.open_ ~lo:(vi 5) ~hi:(vi 9))) t)

let test_boolean_combinators () =
  let open Predicate in
  let p = And [ Cmp (Eq, 0, vi 5); Or [ Cmp (Eq, 1, Value.Str "zzz"); True ] ] in
  check Alcotest.bool "and/or/true" true (eval p t);
  check Alcotest.bool "not" false (eval (Not p) t);
  check Alcotest.bool "empty and" true (eval (And []) t);
  check Alcotest.bool "empty or" false (eval (Or []) t)

let test_shift () =
  let open Predicate in
  let p = Cmp (Eq, 0, vi 5) in
  let joined = Tuple.concat [| Value.Str "pad" |] t in
  check Alcotest.bool "shifted position" true (eval (shift 1 p) joined);
  check Alcotest.bool "shift composes" true
    (eval (shift 1 (And [ p; In_set (1, [ Value.Str "abc" ]) ])) joined)

let test_positions () =
  let open Predicate in
  let p = And [ Cmp (Eq, 0, vi 1); Or [ In_set (3, []); Not (In_interval (7, Interval.full)) ] ] in
  check (Alcotest.list Alcotest.int) "positions" [ 0; 3; 7 ]
    (List.sort_uniq Int.compare (positions p));
  check (Alcotest.list Alcotest.int) "true has none" [] (positions True)

let test_conj () =
  let open Predicate in
  check Alcotest.bool "conj [] is true" true (conj [] = True);
  let p = Cmp (Eq, 0, vi 5) in
  check Alcotest.bool "conj singleton unwraps" true (conj [ p ] = p)

let test_in_set_no_alloc () =
  let p = Predicate.In_set (0, [ vi 1; vi 3; vi 5; vi 7 ]) in
  check Alcotest.bool "member" true (Predicate.eval p t);
  Helpers.check_alloc_free "an In_set filter" (fun () -> ignore (Predicate.eval p t))

let suite =
  [
    Alcotest.test_case "comparisons" `Quick test_cmp;
    Alcotest.test_case "in set / interval" `Quick test_in_set_interval;
    Alcotest.test_case "in set allocation-free" `Quick test_in_set_no_alloc;
    Alcotest.test_case "boolean combinators" `Quick test_boolean_combinators;
    Alcotest.test_case "shift" `Quick test_shift;
    Alcotest.test_case "positions" `Quick test_positions;
    Alcotest.test_case "conj" `Quick test_conj;
  ]
