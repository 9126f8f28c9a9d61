(* Engine.t as a first-class instance: scoped engines coexist in one
   process with fully independent fault scopes (failpoints and seeds)
   and telemetry registries, and answering through an engine still
   matches the oracle. *)

open Minirel_storage
open Minirel_query
module Engine = Minirel_engine.Engine
module Fault = Minirel_fault.Fault

let check = Alcotest.check
let vi i = Value.Int i

(* A scoped engine whose pool/catalog live in its own fault scope,
   populated with the r/s fixture. *)
let scoped_rs ?name () =
  let e = Engine.scoped ?name () in
  Helpers.build_rs (Engine.catalog e);
  e

let eqt e = Template.compile (Engine.catalog e) Helpers.eqt_spec

let inst c ~f ~g =
  Instance.make c [| Instance.Dvalues [ vi f ]; Instance.Dvalues [ vi g ] |]

let collect e q =
  let out = ref [] in
  let stats, _ = Engine.answer e q ~on_tuple:(fun _ t -> out := t :: !out) in
  (!out, stats)

let test_answer_matches_oracle () =
  let e = scoped_rs () in
  let c = eqt e in
  ignore (Engine.ensure_view ~capacity:100 e c);
  for f = 0 to 3 do
    let q = inst c ~f ~g:(f + 1) in
    (* cold, then warm through the PMV *)
    let cold, _ = collect e q in
    let warm, _ = collect e q in
    let truth = Helpers.brute_force_answer (Engine.catalog e) q in
    check Helpers.tuples (Fmt.str "cold f=%d" f) truth cold;
    check Helpers.tuples (Fmt.str "warm f=%d" f) truth warm
  done

let test_independent_failpoints () =
  let global_hits = Fault.hits "bufferpool.read" in
  let ea = scoped_rs ~name:"a" () and eb = scoped_rs ~name:"b" () in
  Fault.enable_in ~seed:1 (Engine.fault ea);
  Fault.enable_in ~seed:1 (Engine.fault eb);
  Fault.arm_in (Engine.fault ea) "bufferpool.read" Fault.Always;
  let qa = inst (eqt ea) ~f:1 ~g:1 and qb = inst (eqt eb) ~f:1 ~g:1 in
  (match collect ea qa with
  | _ -> Alcotest.fail "engine a: armed bufferpool.read did not fire"
  | exception Fault.Injected "bufferpool.read" -> ());
  (* the same site in engine b is untouched *)
  let rows, _ = collect eb qb in
  check Alcotest.bool "b still answers" true (rows <> []);
  check Alcotest.int "b never hit the site" 0
    (Fault.hits_in (Engine.fault eb) "bufferpool.read");
  check Alcotest.bool "a recorded the hit" true
    (Fault.hits_in (Engine.fault ea) "bufferpool.read" > 0);
  (* nothing leaked into the process-global scope *)
  check Alcotest.int "global scope untouched" global_hits
    (Fault.hits "bufferpool.read");
  Fault.disable_in (Engine.fault ea);
  Fault.disable_in (Engine.fault eb)

(* Deterministic Prob firing pattern of a scope under a given seed. *)
let fire_pattern ~seed =
  let reg = Fault.create () in
  Fault.enable_in ~seed reg;
  Fault.arm_in reg "site.x" (Fault.Prob 0.5);
  List.init 64 (fun _ -> Fault.fire_in reg "site.x")

let test_independent_seeds () =
  check
    Alcotest.(list bool)
    "same seed reproduces" (fire_pattern ~seed:7) (fire_pattern ~seed:7);
  check Alcotest.bool "different seeds diverge" true
    (fire_pattern ~seed:7 <> fire_pattern ~seed:8);
  (* two live engines draw from their own seeded streams *)
  let ea = Engine.scoped ~name:"a" () and eb = Engine.scoped ~name:"b" () in
  Fault.enable_in ~seed:7 (Engine.fault ea);
  Fault.enable_in ~seed:8 (Engine.fault eb);
  Fault.arm_in (Engine.fault ea) "site.y" (Fault.Prob 0.5);
  Fault.arm_in (Engine.fault eb) "site.y" (Fault.Prob 0.5);
  let pa = List.init 64 (fun _ -> Fault.fire_in (Engine.fault ea) "site.y") in
  let pb = List.init 64 (fun _ -> Fault.fire_in (Engine.fault eb) "site.y") in
  check Alcotest.bool "engines draw independent streams" true (pa <> pb)

let test_independent_telemetry () =
  let ea = scoped_rs ~name:"a" () and eb = scoped_rs ~name:"b" () in
  let ca = eqt ea in
  ignore (Engine.ensure_view ~capacity:50 ea ca);
  let b_before = Engine.snapshot eb in
  let a_before = Engine.snapshot ea in
  ignore (collect ea (inst ca ~f:1 ~g:1));
  ignore (collect ea (inst ca ~f:1 ~g:1));
  check Alcotest.bool "a's metrics moved" true (Engine.snapshot ea <> a_before);
  check Alcotest.bool "b's metrics did not" true (Engine.snapshot eb = b_before);
  (* resetting a leaves b alone *)
  ignore (collect eb (inst (eqt eb) ~f:1 ~g:1));
  let b_active = Engine.snapshot eb in
  Engine.reset_telemetry ea;
  check Alcotest.bool "reset a leaves b" true (Engine.snapshot eb = b_active)

let test_engine_run_feeds_own_view () =
  let ea = scoped_rs ~name:"a" () and eb = scoped_rs ~name:"b" () in
  let ca = eqt ea and cb = eqt eb in
  let va = Engine.ensure_view ~capacity:100 ea ca in
  let vb = Engine.ensure_view ~capacity:100 eb cb in
  ignore (collect ea (inst ca ~f:1 ~g:1));
  ignore (collect eb (inst cb ~f:1 ~g:1));
  let nb = Pmv.View.n_tuples vb in
  (* a DML through engine a maintains a's view and never touches b's *)
  ignore
    (Engine.run ea
       [
         Minirel_txn.Txn.Insert
           { rel = "r"; tuple = [| vi 1001; vi 1; vi 1; Value.Str "x" |] };
       ]);
  check Alcotest.int "b's view untouched" nb (Pmv.View.n_tuples vb);
  ignore va;
  let q = inst ca ~f:1 ~g:1 in
  let rows, _ = collect ea q in
  check Helpers.tuples "a consistent after DML"
    (Helpers.brute_force_answer (Engine.catalog ea) q)
    rows

let test_shutdown_reclaims_versions () =
  (* repeated scoped-engine cycles with epoch-path answers must not
     accumulate retired version chains: shutdown drains both stores *)
  for _ = 1 to 3 do
    let e = scoped_rs () in
    let c = eqt e in
    ignore (Engine.ensure_view ~capacity:50 e c);
    Engine.set_probe_path e Pmv.Answer.Epoch;
    for f = 0 to 3 do
      ignore (collect e (inst c ~f ~g:f));
      ignore (collect e (inst c ~f ~g:f))
    done;
    let v =
      Option.get (Engine.find_view e ~template:c.Template.spec.Template.name)
    in
    Engine.shutdown e;
    List.iter
      (fun store ->
        check Alcotest.int "no version in flight after shutdown" 0
          (Pmv.Entry_store.epoch_stats store).Minirel_parallel.Epoch.in_flight)
      [ Pmv.View.store v; Pmv.View.probe_store v ]
  done

let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

let test_shutdown_releases_catalog () =
  (* nothing process-global may keep a shut-down engine's catalog
     alive: four create/answer/shutdown cycles leave the live heap
     where one cycle left it, far below one engine's footprint *)
  let cycle () =
    let e = Engine.scoped () in
    Helpers.build_rs ~n_r:20_000 (Engine.catalog e);
    let c = eqt e in
    ignore (Engine.ensure_view ~capacity:50 e c);
    for f = 0 to 3 do
      ignore (collect e (inst c ~f ~g:f))
    done;
    let footprint = live_words () in
    Engine.shutdown e;
    footprint
  in
  let base = live_words () in
  let engine = cycle () - base in
  let after_one = live_words () in
  for _ = 2 to 4 do
    ignore (cycle ())
  done;
  let after_four = live_words () in
  check Alcotest.bool
    (Fmt.str "live heap flat across cycles (one engine %d words; after 1: %d, after 4: %d)"
       engine after_one after_four)
    true
    (after_four - after_one < engine / 4)

let suite =
  [
    Alcotest.test_case "answer matches oracle" `Quick test_answer_matches_oracle;
    Alcotest.test_case "shutdown reclaims version chains" `Quick
      test_shutdown_reclaims_versions;
    Alcotest.test_case "shutdown releases the catalog" `Quick test_shutdown_releases_catalog;
    Alcotest.test_case "independent failpoints" `Quick test_independent_failpoints;
    Alcotest.test_case "independent fault seeds" `Quick test_independent_seeds;
    Alcotest.test_case "independent telemetry" `Quick test_independent_telemetry;
    Alcotest.test_case "DML maintains own engine's view" `Quick
      test_engine_run_feeds_own_view;
  ]
