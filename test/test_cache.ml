(* Replacement policies: CLOCK second chance, 2Q staging/promotion,
   LRU/FIFO behaviour, capacity bounds and eviction callbacks. *)

module Policy = Minirel_cache.Policy
module Policies = Minirel_cache.Policies

let check = Alcotest.check

let outcome =
  Alcotest.testable
    (fun ppf -> function
      | `Resident -> Fmt.string ppf "resident"
      | `Admitted -> Fmt.string ppf "admitted"
      | `Rejected -> Fmt.string ppf "rejected")
    ( = )

let test_clock_basics () =
  let p = Minirel_cache.Clock.create ~capacity:2 in
  check outcome "cold miss" `Rejected (Policy.reference p 1);
  Policy.admit p 1;
  check outcome "now resident" `Resident (Policy.reference p 1);
  Policy.admit p 2;
  check Alcotest.int "size" 2 (Policy.size p);
  let evicted = ref [] in
  Policy.set_on_evict p (fun k -> evicted := k :: !evicted);
  (* both refbits are set at admission: the sweep clears them and evicts
     at the hand, i.e. key 1 *)
  Policy.admit p 3;
  check (Alcotest.list Alcotest.int) "hand eviction" [ 1 ] !evicted;
  (* now 3 has its bit set and 2 does not: admitting 4 gives 3 its
     second chance and evicts 2 *)
  Policy.admit p 4;
  check Alcotest.bool "3 survived (refbit)" true (Policy.mem p 3);
  check Alcotest.bool "2 evicted despite being older than 3" false (Policy.mem p 2);
  check (Alcotest.list Alcotest.int) "eviction order" [ 2; 1 ] !evicted

let test_clock_remove_reuses_slot () =
  let p = Minirel_cache.Clock.create ~capacity:2 in
  Policy.admit p 1;
  Policy.admit p 2;
  Policy.remove p 1;
  check Alcotest.int "size after remove" 1 (Policy.size p);
  Policy.admit p 3;
  check Alcotest.int "free slot reused" 2 (Policy.size p);
  check Alcotest.bool "2 still resident" true (Policy.mem p 2)

let test_two_q_staging () =
  let p = Minirel_cache.Two_q.create ~capacity:4 in
  (* first reference stages in A1, not resident *)
  check outcome "first ref staged" `Rejected (Policy.reference p 10);
  check Alcotest.bool "not resident after staging" false (Policy.mem p 10);
  (* second reference promotes to Am *)
  check outcome "second ref promotes" `Admitted (Policy.reference p 10);
  check Alcotest.bool "resident after promotion" true (Policy.mem p 10);
  check outcome "third ref hits" `Resident (Policy.reference p 10);
  check Alcotest.bool "2q does not admit on fill" false (Policy.admit_on_fill p)

let test_two_q_ghost_eviction () =
  (* A1 capacity = capacity/2 = 2 ghosts, FIFO *)
  let p = Minirel_cache.Two_q.create ~capacity:4 in
  check outcome "stage 1" `Rejected (Policy.reference p 1);
  check outcome "stage 2" `Rejected (Policy.reference p 2);
  check outcome "stage 3 evicts ghost 1" `Rejected (Policy.reference p 3);
  (* 1 fell out of A1, so it stages again (evicting ghost 2) *)
  check outcome "1 must stage again" `Rejected (Policy.reference p 1);
  (* 3 is still ghost-staged and promotes *)
  check outcome "3 promotes" `Admitted (Policy.reference p 3);
  (* 2's ghost is gone *)
  check outcome "2 stages again" `Rejected (Policy.reference p 2)

let test_lru_order () =
  let p = Minirel_cache.Lru.create ~capacity:2 in
  Policy.admit p 1;
  Policy.admit p 2;
  ignore (Policy.reference p 1);
  (* 2 is now least recently used *)
  Policy.admit p 3;
  check Alcotest.bool "1 kept" true (Policy.mem p 1);
  check Alcotest.bool "2 evicted" false (Policy.mem p 2)

let test_fifo_order () =
  let p = Minirel_cache.Fifo.create ~capacity:2 in
  Policy.admit p 1;
  Policy.admit p 2;
  ignore (Policy.reference p 1);
  (* recency is ignored: 1 is oldest and goes first *)
  Policy.admit p 3;
  check Alcotest.bool "1 evicted despite recency" false (Policy.mem p 1);
  check Alcotest.bool "2 kept" true (Policy.mem p 2)

let test_two_q_full () =
  let p = Minirel_cache.Two_q_full.create ~capacity:8 in
  (* cold keys are admitted immediately (into A1in) *)
  check outcome "cold admits" `Admitted (Policy.reference p 1);
  check Alcotest.bool "resident in A1in" true (Policy.mem p 1);
  check outcome "A1in hit does not promote" `Resident (Policy.reference p 1);
  (* push 1 out of A1in (capacity/4 = 2) into the ghost queue *)
  ignore (Policy.reference p 2);
  ignore (Policy.reference p 3);
  ignore (Policy.reference p 4);
  check Alcotest.bool "1 spilled from A1in" false (Policy.mem p 1);
  (* referencing the ghost promotes to Am *)
  check outcome "ghost promotes to Am" `Admitted (Policy.reference p 1);
  check Alcotest.bool "now in Am" true (Policy.mem p 1);
  (* Am hits keep it *)
  check outcome "Am hit" `Resident (Policy.reference p 1);
  check Alcotest.bool "never admits on fill" false (Policy.admit_on_fill p);
  (* capacity 1 degenerates safely *)
  let tiny = Minirel_cache.Two_q_full.create ~capacity:1 in
  ignore (Policy.reference tiny 1);
  ignore (Policy.reference tiny 2);
  check Alcotest.int "tiny stays bounded" 1 (Policy.size tiny)

let test_stats () =
  let p = Minirel_cache.Clock.create ~capacity:1 in
  ignore (Policy.reference p 1);
  Policy.admit p 1;
  ignore (Policy.reference p 1);
  let s = Policy.stats p in
  check Alcotest.int "references" 2 s.Minirel_cache.Cache_stats.references;
  check Alcotest.int "hits" 1 s.Minirel_cache.Cache_stats.hits;
  check Alcotest.int "admissions" 1 s.Minirel_cache.Cache_stats.admissions;
  check Alcotest.bool "hit ratio" true
    (abs_float (Minirel_cache.Cache_stats.hit_ratio s -. 0.5) < 1e-9)

let prop_capacity_never_exceeded =
  QCheck2.Test.make ~name:"no policy exceeds its capacity" ~count:250
    QCheck2.Gen.(
      triple (int_range 1 8) (int_range 0 4) (list_size (int_range 1 200) (int_range 0 20)))
    (fun (capacity, which, keys) ->
      let kind = List.nth Policies.all which in
      let p = Policies.make kind ~capacity in
      List.iter
        (fun k ->
          match Policy.reference p k with
          | `Resident | `Admitted -> ()
          | `Rejected -> if Policy.admit_on_fill p then Policy.admit p k)
        keys;
      Policy.size p <= capacity)

let prop_lru_matches_model =
  QCheck2.Test.make ~name:"LRU matches a list model" ~count:200
    QCheck2.Gen.(pair (int_range 1 6) (list_size (int_range 1 150) (int_range 0 15)))
    (fun (capacity, keys) ->
      let p = Minirel_cache.Lru.create ~capacity in
      let model = ref [] in
      List.iter
        (fun k ->
          (match Policy.reference p k with
          | `Resident -> ()
          | `Rejected -> Policy.admit p k
          | `Admitted -> ());
          model := k :: List.filter (fun x -> x <> k) !model;
          if List.length !model > capacity then
            model := List.filteri (fun i _ -> i < capacity) !model)
        keys;
      List.for_all (Policy.mem p) !model && Policy.size p = List.length !model)

let prop_clock_eviction_consistency =
  QCheck2.Test.make ~name:"CLOCK eviction callback matches membership changes" ~count:200
    QCheck2.Gen.(pair (int_range 1 5) (list_size (int_range 1 100) (int_range 0 12)))
    (fun (capacity, keys) ->
      let p = Minirel_cache.Clock.create ~capacity in
      let resident = Hashtbl.create 16 in
      Policy.set_on_evict p (fun k -> Hashtbl.remove resident k);
      List.iter
        (fun k ->
          match Policy.reference p k with
          | `Resident -> ()
          | `Rejected ->
              Policy.admit p k;
              Hashtbl.replace resident k ()
          | `Admitted -> ())
        keys;
      Hashtbl.length resident = Policy.size p
      && Hashtbl.fold (fun k () ok -> ok && Policy.mem p k) resident true)

(* CLOCK's key -> slot index starts at 16 buckets for capacity 4; a
   raised bound must grow it (past twice its buckets, three times here)
   without losing keys, and removals must unlink exactly their key. *)
let test_clock_index_growth () =
  let p = Minirel_cache.Clock.create ~capacity:4 in
  Policy.resize p 200;
  for k = 0 to 199 do
    Policy.admit p (k * 7919)
  done;
  let keys = List.init 200 (fun k -> k * 7919) in
  check Alcotest.int "all resident" 200 (Policy.size p);
  check Alcotest.bool "every key found" true (List.for_all (Policy.mem p) keys);
  List.iter (fun k -> if k mod 3 = 0 then Policy.remove p k) keys;
  let kept = List.filter (fun k -> k mod 3 <> 0) keys in
  check Alcotest.int "size after removals" (List.length kept) (Policy.size p);
  check Alcotest.bool "membership follows removals" true
    (List.for_all (fun k -> Policy.mem p k = (k mod 3 <> 0)) keys);
  let seen = ref [] in
  Policy.iter p (fun k -> seen := k :: !seen);
  check Alcotest.(list int) "iter visits exactly the resident keys" kept
    (List.sort compare !seen);
  check Alcotest.bool "a resident key hits" true (Policy.reference p 7919 = `Resident);
  check Alcotest.bool "a removed key misses" true (Policy.reference p 0 = `Rejected)

(* Budget-arbiter capacity changes: every policy shrinks to the new
   bound through its eviction callback and grows without evicting. *)
let test_policy_resize () =
  List.iter
    (fun (label, (create : capacity:int -> int Policy.t)) ->
      let p = create ~capacity:8 in
      let evicted = ref [] in
      Policy.set_on_evict p (fun k -> evicted := k :: !evicted);
      for k = 1 to 8 do
        Policy.admit p k;
        (* a second touch promotes staged keys under the 2Q variants *)
        ignore (Policy.reference p k)
      done;
      let before = Policy.size p in
      Policy.resize p 3;
      check Alcotest.int (label ^ ": capacity follows") 3 (Policy.capacity p);
      check Alcotest.bool (label ^ ": shrunk to bound") true (Policy.size p <= 3);
      check Alcotest.bool (label ^ ": eviction callback saw the victims") true
        (List.length !evicted >= before - 3);
      Policy.resize p 10;
      check Alcotest.int (label ^ ": grow raises the bound") 10 (Policy.capacity p);
      check Alcotest.bool (label ^ ": grow evicts nothing") true (Policy.size p <= 3);
      check Alcotest.bool (label ^ ": rejects non-positive") true
        (match Policy.resize p 0 with
        | () -> false
        | exception Invalid_argument _ -> true))
    [
      ("clock", Minirel_cache.Clock.create);
      ("lru", Minirel_cache.Lru.create);
      ("fifo", Minirel_cache.Fifo.create);
      ("2q", Minirel_cache.Two_q.create);
      ("2q-full", Minirel_cache.Two_q_full.create);
    ]

let suite =
  [
    Alcotest.test_case "clock basics" `Quick test_clock_basics;
    Alcotest.test_case "clock remove" `Quick test_clock_remove_reuses_slot;
    Alcotest.test_case "2q staging and promotion" `Quick test_two_q_staging;
    Alcotest.test_case "2q ghost eviction" `Quick test_two_q_ghost_eviction;
    Alcotest.test_case "lru order" `Quick test_lru_order;
    Alcotest.test_case "fifo ignores recency" `Quick test_fifo_order;
    Alcotest.test_case "full 2q" `Quick test_two_q_full;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "policy resize across all policies" `Quick test_policy_resize;
    Alcotest.test_case "clock slot index grows and unlinks" `Quick test_clock_index_growth;
    QCheck_alcotest.to_alcotest prop_capacity_never_exceeded;
    QCheck_alcotest.to_alcotest prop_lru_matches_model;
    QCheck_alcotest.to_alcotest prop_clock_eviction_consistency;
  ]
