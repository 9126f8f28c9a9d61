(* Direct DS unit tests plus failure-injection scenarios: stale cache
   content when maintenance is not attached, and self-eviction of a
   query's own entries mid-answer. *)

open Minirel_storage
open Minirel_query
module Ds = Pmv.Ds
module View = Pmv.View
module Txn = Minirel_txn.Txn

let check = Alcotest.check
let vi i = Value.Int i

let t1 = [| vi 1; vi 2 |]
let t2 = [| vi 3; vi 4 |]

let test_ds_multiset () =
  let ds = Ds.create () in
  check Alcotest.bool "empty" true (Ds.is_empty ds);
  Ds.add ds t1;
  Ds.add ds t1;
  Ds.add ds t2;
  check Alcotest.int "size counts duplicates" 3 (Ds.size ds);
  check Alcotest.bool "mem" true (Ds.mem ds t1);
  check Alcotest.bool "remove one copy" true (Ds.remove_one ds t1);
  check Alcotest.bool "still a copy left" true (Ds.mem ds t1);
  check Alcotest.bool "remove second copy" true (Ds.remove_one ds t1);
  check Alcotest.bool "gone" false (Ds.mem ds t1);
  check Alcotest.bool "absent remove" false (Ds.remove_one ds t1);
  check Alcotest.int "one left" 1 (Ds.size ds);
  Ds.clear ds;
  check Alcotest.bool "cleared" true (Ds.is_empty ds);
  (* structural keys: a fresh array with equal contents matches *)
  Ds.add ds [| vi 9 |];
  check Alcotest.bool "structural equality" true (Ds.remove_one ds [| vi 9 |])

(* Failure injection: maintenance NOT attached. After a delete, the PMV
   serves a stale tuple once; the answer layer must detect it (leftover
   DS), purge it, and never serve it again. *)
let test_stale_purge_without_maintenance () =
  let catalog = Helpers.fresh_catalog () in
  Helpers.build_rs catalog;
  let c = Template.compile catalog Helpers.eqt_spec in
  let view = View.create ~capacity:20 ~f_max:3 ~name:"noattach" c in
  let mgr = Txn.create catalog in
  (* note: no Maintain.attach *)
  let inst = Instance.make c [| Instance.Dvalues [ vi 1 ]; Instance.Dvalues [ vi 1 ] |] in
  ignore (Helpers.collect_answer ~view catalog inst);
  check Alcotest.bool "warmed" true (View.n_tuples view > 0);
  (* destroy every derivation of the cached tuples *)
  ignore (Txn.run mgr [ Txn.Delete { rel = "s"; pred = Predicate.Cmp (Predicate.Eq, 1, vi 1) } ]);
  let delivered, _, stats = Helpers.collect_answer ~view catalog inst in
  check Alcotest.bool "stale detected and purged" true (stats.Pmv.Answer.stale_purged > 0);
  (* the user never received the stale tuples as the final answer:
     execution returned nothing, and the purged tuples were the O2 ones *)
  check Alcotest.int "execution returned nothing" 0 stats.Pmv.Answer.total_count;
  ignore delivered;
  (* the lie does not repeat *)
  let _, partial2, stats2 = Helpers.collect_answer ~view catalog inst in
  check Alcotest.int "no partials on retry" 0 (List.length partial2);
  check Alcotest.int "no stale on retry" 0 stats2.Pmv.Answer.stale_purged

(* Self-eviction: a tiny PMV whose capacity is below a single query's h
   may evict entries it admitted for the same query. Answers must stay
   exact and bounds must hold. *)
let test_self_eviction_tiny_capacity () =
  let catalog = Helpers.fresh_catalog () in
  Helpers.build_rs catalog;
  let c = Template.compile catalog Helpers.eqt_spec in
  let view = View.create ~capacity:2 ~f_max:1 ~name:"tiny" c in
  let rng = Minirel_prng.Split_mix.create ~seed:5 in
  for _ = 1 to 40 do
    let module SM = Minirel_prng.Split_mix in
    let fs = SM.distinct rng ~n:3 (fun r -> SM.int r ~bound:10) in
    let gs = SM.distinct rng ~n:3 (fun r -> SM.int r ~bound:8) in
    let inst =
      Instance.make c
        [|
          Instance.Dvalues (List.map (fun i -> vi i) fs);
          Instance.Dvalues (List.map (fun i -> vi i) gs);
        |]
    in
    (* h = 9 >> capacity 2 *)
    let got, _, stats = Helpers.collect_answer ~view catalog inst in
    if not (Helpers.same_multiset got (Helpers.brute_force_answer catalog inst)) then
      Alcotest.fail "tiny-capacity answers diverged";
    check Alcotest.int "no stale" 0 stats.Pmv.Answer.stale_purged;
    check Alcotest.bool "bounds hold" true (View.n_entries view <= 2)
  done;
  check Alcotest.bool "invariants" true (View.invariants_ok view)

(* Detach mid-stream: maintenance attached, then detached; afterwards
   the stale-purge safety net takes over. *)
let test_detach_then_stale () =
  let catalog = Helpers.fresh_catalog () in
  Helpers.build_rs catalog;
  let c = Template.compile catalog Helpers.eqt_spec in
  let view = View.create ~capacity:20 ~f_max:3 ~name:"detach" c in
  let mgr = Txn.create catalog in
  Pmv.Maintain.attach ~use_locks:false view mgr;
  let inst = Instance.make c [| Instance.Dvalues [ vi 1 ]; Instance.Dvalues [ vi 1 ] |] in
  ignore (Helpers.collect_answer ~view catalog inst);
  (* while attached, deletes are maintained *)
  ignore (Txn.run mgr [ Txn.Delete { rel = "r"; pred = Predicate.Cmp (Predicate.Eq, 0, vi 1) } ]);
  let _, _, st1 = Helpers.collect_answer ~view catalog inst in
  check Alcotest.int "maintained: no stale" 0 st1.Pmv.Answer.stale_purged;
  Pmv.Maintain.detach view mgr;
  ignore (Txn.run mgr [ Txn.Delete { rel = "s"; pred = Predicate.Cmp (Predicate.Eq, 1, vi 1) } ]);
  let _, _, st2 = Helpers.collect_answer ~view catalog inst in
  (* after detach the view may have gone stale, but the safety net
     catches it and the answer is still exact *)
  check Alcotest.int "execution result exact" 0 st2.Pmv.Answer.total_count;
  let _, _, st3 = Helpers.collect_answer ~view catalog inst in
  check Alcotest.int "stable afterwards" 0 st3.Pmv.Answer.stale_purged

(* The oracle's negative path: [Check.check_view] must report, not only
   stay silent. A cached tuple whose base row is gone (maintenance
   detached) and a tuple filed under a foreign bcp are both named. *)
let test_oracle_reports_violations () =
  let module Check = Minirel_check.Check in
  let catalog = Helpers.fresh_catalog () in
  Helpers.build_rs catalog;
  let c = Template.compile catalog Helpers.eqt_spec in
  let reports sub violations = List.exists (fun v -> Helpers.contains v sub) violations in
  (* stale: warm an entry, detach maintenance, delete its base rows *)
  let view = View.create ~capacity:20 ~f_max:3 ~name:"stale" c in
  let mgr = Txn.create catalog in
  Pmv.Maintain.attach ~use_locks:false view mgr;
  let inst = Instance.make c [| Instance.Dvalues [ vi 1 ]; Instance.Dvalues [ vi 1 ] |] in
  ignore (Helpers.collect_answer ~view catalog inst);
  check Alcotest.bool "warmed" true (View.n_tuples view > 0);
  check (Alcotest.list Alcotest.string) "clean while maintained" []
    (Check.check_view view catalog);
  Pmv.Maintain.detach view mgr;
  ignore (Txn.run mgr [ Txn.Delete { rel = "s"; pred = Predicate.Cmp (Predicate.Eq, 1, vi 1) } ]);
  check Alcotest.bool "stale cached tuple reported" true
    (reports "stale cached tuple" (Check.check_view view catalog));
  (* misfiled: plant an MV tuple under a bcp that is not its home *)
  let view = View.create ~capacity:20 ~f_max:3 ~name:"misfiled" c in
  let store = View.store view in
  match Check.full_mv catalog c with
  | [] -> Alcotest.fail "empty MV"
  | tuple :: rest -> (
      let home = Condition_part.bcp_of_result c tuple in
      match
        List.find_opt
          (fun t -> not (Bcp.equal (Condition_part.bcp_of_result c t) home))
          rest
      with
      | None -> Alcotest.fail "MV has a single bcp"
      | Some other ->
          let entry =
            Pmv.Entry_store.admit_for_fill store (Condition_part.bcp_of_result c other)
          in
          check Alcotest.bool "planted" true (Pmv.Entry_store.add_tuple store entry tuple);
          check Alcotest.bool "misfiled tuple reported" true
            (reports "filed under bcp" (Check.check_view view catalog)))

let suite =
  [
    Alcotest.test_case "ds multiset" `Quick test_ds_multiset;
    Alcotest.test_case "stale purge without maintenance" `Quick
      test_stale_purge_without_maintenance;
    Alcotest.test_case "self eviction at tiny capacity" `Quick test_self_eviction_tiny_capacity;
    Alcotest.test_case "detach then stale" `Quick test_detach_then_stale;
    Alcotest.test_case "oracle reports planted violations" `Quick
      test_oracle_reports_violations;
  ]
