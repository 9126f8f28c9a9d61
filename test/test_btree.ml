open Minirel_storage
module Btree = Minirel_index.Btree

let check = Alcotest.check
let key i : Tuple.t = [| Value.Int i |]
let rid i = Rid.make ~page:i ~slot:0

let test_insert_find () =
  let t = Btree.create ~b:2 () in
  for i = 1 to 100 do
    Btree.insert t (key i) (rid i)
  done;
  check Alcotest.int "n_keys" 100 (Btree.n_keys t);
  check Alcotest.int "n_entries" 100 (Btree.n_entries t);
  check Alcotest.bool "height grew" true (Btree.height t > 1);
  for i = 1 to 100 do
    match Btree.find t (key i) with
    | [ r ] -> check Alcotest.bool "rid" true (Rid.equal r (rid i))
    | other -> Alcotest.failf "key %d: %d rids" i (List.length other)
  done;
  check (Alcotest.list Alcotest.int) "missing key" []
    (List.map (fun (r : Rid.t) -> r.Rid.page) (Btree.find t (key 999)));
  Btree.validate t

let test_duplicates () =
  let t = Btree.create ~b:2 () in
  Btree.insert t (key 5) (rid 1);
  Btree.insert t (key 5) (rid 2);
  Btree.insert t (key 5) (rid 3);
  check Alcotest.int "one key" 1 (Btree.n_keys t);
  check Alcotest.int "three entries" 3 (Btree.n_entries t);
  check Alcotest.int "find returns all" 3 (List.length (Btree.find t (key 5)));
  check Alcotest.bool "delete one occurrence" true (Btree.delete t (key 5) (rid 2));
  check Alcotest.int "two left" 2 (List.length (Btree.find t (key 5)));
  check Alcotest.bool "delete absent rid" false (Btree.delete t (key 5) (rid 99));
  Btree.validate t

let test_delete_rebalance () =
  let t = Btree.create ~b:2 () in
  let n = 300 in
  for i = 1 to n do
    Btree.insert t (key i) (rid i)
  done;
  (* delete in a mixed order and validate along the way *)
  let order = List.init n (fun i -> if i mod 2 = 0 then (i / 2) + 1 else n - (i / 2)) in
  List.iteri
    (fun step i ->
      check Alcotest.bool "delete present" true (Btree.delete t (key i) (rid i));
      if step mod 17 = 0 then Btree.validate t)
    order;
  check Alcotest.int "empty" 0 (Btree.n_keys t);
  check Alcotest.int "height back to 1" 1 (Btree.height t);
  Btree.validate t

let test_range () =
  let t = Btree.create ~b:2 () in
  List.iter (fun i -> Btree.insert t (key i) (rid i)) [ 1; 3; 5; 7; 9; 11 ];
  let collect ~lo ~hi =
    let acc = ref [] in
    Btree.range t ~lo ~hi (fun k _ -> acc := Value.int_exn k.(0) :: !acc);
    List.rev !acc
  in
  check (Alcotest.list Alcotest.int) "closed range" [ 3; 5; 7 ]
    (collect ~lo:(Btree.Inclusive (key 3)) ~hi:(Btree.Inclusive (key 7)));
  check (Alcotest.list Alcotest.int) "open range" [ 5 ]
    (collect ~lo:(Btree.Exclusive (key 3)) ~hi:(Btree.Exclusive (key 7)));
  check (Alcotest.list Alcotest.int) "unbounded low" [ 1; 3; 5 ]
    (collect ~lo:Btree.Unbounded ~hi:(Btree.Inclusive (key 5)));
  check (Alcotest.list Alcotest.int) "unbounded both" [ 1; 3; 5; 7; 9; 11 ]
    (collect ~lo:Btree.Unbounded ~hi:Btree.Unbounded);
  check (Alcotest.list Alcotest.int) "empty range" []
    (collect ~lo:(Btree.Inclusive (key 100)) ~hi:Btree.Unbounded)

let test_composite_keys () =
  let t = Btree.create ~b:2 () in
  let ck a b : Tuple.t = [| Value.Int a; Value.Str b |] in
  Btree.insert t (ck 1 "b") (rid 1);
  Btree.insert t (ck 1 "a") (rid 2);
  Btree.insert t (ck 2 "a") (rid 3);
  let acc = ref [] in
  Btree.iter t (fun k _ -> acc := k :: !acc);
  let keys = List.rev !acc in
  check Alcotest.int "three keys" 3 (List.length keys);
  check Helpers.tuple "lexicographic first" (ck 1 "a") (List.nth keys 0);
  check Helpers.tuple "lexicographic last" (ck 2 "a") (List.nth keys 2)

let test_visit_hook () =
  let t = Btree.create ~b:2 () in
  for i = 1 to 200 do
    Btree.insert t (key i) (rid i)
  done;
  let visits = ref 0 in
  Btree.set_visit_hook t (fun _ -> incr visits);
  ignore (Btree.find t (key 100));
  check Alcotest.int "visits = height" (Btree.height t) !visits

let test_find_no_alloc () =
  (* a hit descends with Tuple.compare on every node: closure-free *)
  let t = Btree.create ~b:2 () in
  let ck i : Tuple.t = [| Value.Int (i mod 7); Value.Str (string_of_int i) |] in
  for i = 1 to 500 do
    Btree.insert t (ck i) (rid i)
  done;
  let k = ck 250 in
  check Alcotest.int "hit" 1 (List.length (Btree.find t k));
  Helpers.check_alloc_free "a B-tree find hit" (fun () -> ignore (Btree.find t k))

(* Model-based qcheck: random insert/delete interleavings must agree
   with a sorted association list, and structural invariants must hold. *)
let prop_vs_model =
  QCheck2.Test.make ~name:"btree matches reference model under random ops" ~count:120
    QCheck2.Gen.(list_size (int_range 1 400) (pair bool (int_range 0 60)))
    (fun ops ->
      let t = Btree.create ~b:2 () in
      let model = Hashtbl.create 32 in
      let next_rid = ref 0 in
      List.iter
        (fun (is_insert, k) ->
          let existing = Option.value ~default:[] (Hashtbl.find_opt model k) in
          if is_insert then begin
            incr next_rid;
            let r = rid !next_rid in
            Btree.insert t (key k) r;
            Hashtbl.replace model k (r :: existing)
          end
          else
            match existing with
            | [] -> ignore (Btree.delete t (key k) (rid 999_999))
            | r :: rest ->
                ignore (Btree.delete t (key k) r);
                if rest = [] then Hashtbl.remove model k else Hashtbl.replace model k rest)
        ops;
      Btree.validate t;
      Hashtbl.fold
        (fun k rids ok ->
          ok
          && List.sort Rid.compare (Btree.find t (key k)) = List.sort Rid.compare rids)
        model true
      && Btree.n_keys t = Hashtbl.length model)

let prop_range_vs_model =
  QCheck2.Test.make ~name:"btree range scan equals filtered model" ~count:150
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 150) (int_range 0 80))
        (int_range 0 80) (int_range 0 80))
    (fun (keys, a, b) ->
      let lo_v, hi_v = (min a b, max a b) in
      let t = Btree.create ~b:3 () in
      List.iteri (fun i k -> Btree.insert t (key k) (rid i)) keys;
      let expect =
        List.sort_uniq Int.compare (List.filter (fun k -> k >= lo_v && k <= hi_v) keys)
      in
      let got = ref [] in
      Btree.range t ~lo:(Btree.Inclusive (key lo_v)) ~hi:(Btree.Inclusive (key hi_v))
        (fun k _ -> got := Value.int_exn k.(0) :: !got);
      List.rev !got = expect)

let test_bulk_load () =
  (* equivalent to repeated inserts, at every size around node boundaries *)
  List.iter
    (fun n ->
      let pairs = List.init n (fun i -> (key (i * 2), [ rid i ])) in
      let t = Btree.bulk_load ~b:2 pairs in
      Btree.validate t;
      check Alcotest.int (Fmt.str "n_keys at %d" n) n (Btree.n_keys t);
      List.iter
        (fun (k, rids) ->
          check Alcotest.bool "find" true
            (List.for_all2 Rid.equal (Btree.find t k) rids))
        pairs;
      (* the loaded tree supports further inserts and deletes *)
      Btree.insert t (key 1) (rid 999);
      check Alcotest.int "insert after load" 1 (List.length (Btree.find t (key 1)));
      if n > 0 then ignore (Btree.delete t (key 0) (rid 0));
      Btree.validate t)
    [ 0; 1; 2; 3; 4; 5; 7; 8; 9; 15; 16; 17; 63; 64; 65; 200 ];
  (* error cases *)
  (match Btree.bulk_load ~b:2 [ (key 2, [ rid 1 ]); (key 1, [ rid 2 ]) ] with
  | _ -> Alcotest.fail "unsorted accepted"
  | exception Invalid_argument _ -> ());
  match Btree.bulk_load ~b:2 [ (key 1, []) ] with
  | _ -> Alcotest.fail "empty rid list accepted"
  | exception Invalid_argument _ -> ()

let prop_bulk_load_equals_inserts =
  QCheck2.Test.make ~name:"bulk load == repeated inserts" ~count:100
    QCheck2.Gen.(list_size (int_range 0 300) (int_range 0 500))
    (fun ks ->
      let distinct = List.sort_uniq Int.compare ks in
      let pairs = List.map (fun k -> (key k, [ rid k ])) distinct in
      let loaded = Btree.bulk_load ~b:2 pairs in
      Btree.validate loaded;
      let inserted = Btree.create ~b:2 () in
      List.iter (fun k -> Btree.insert inserted (key k) (rid k)) distinct;
      Btree.to_list loaded = Btree.to_list inserted)

let suite =
  [
    Alcotest.test_case "insert and find" `Quick test_insert_find;
    Alcotest.test_case "bulk load" `Quick test_bulk_load;
    QCheck_alcotest.to_alcotest prop_bulk_load_equals_inserts;
    Alcotest.test_case "duplicate rids" `Quick test_duplicates;
    Alcotest.test_case "delete with rebalancing" `Quick test_delete_rebalance;
    Alcotest.test_case "range scans" `Quick test_range;
    Alcotest.test_case "composite keys" `Quick test_composite_keys;
    Alcotest.test_case "visit hook" `Quick test_visit_hook;
    Alcotest.test_case "find allocation-free" `Quick test_find_no_alloc;
    QCheck_alcotest.to_alcotest prop_vs_model;
    QCheck_alcotest.to_alcotest prop_range_vs_model;
  ]
