(* Failpoint registry: policy semantics, seed determinism, counter
   bookkeeping, and the disabled-path cost contract (a probe while the
   registry is off is one boolean load — no allocation). *)

module Fault = Minirel_fault.Fault

let check = Alcotest.check
let bools = Alcotest.(list bool)

(* The registry is process-global: every test starts from and returns
   to a clean, disabled state so suites cannot interfere. *)
let with_clean f =
  Fault.reset ();
  Fault.disable ();
  Fun.protect
    ~finally:(fun () ->
      Fault.reset ();
      Fault.disable ())
    f

let pattern name n = List.init n (fun _ -> Fault.fire name)

let test_policies () =
  with_clean @@ fun () ->
  Fault.enable ();
  Fault.arm "t.once" Fault.Once;
  check bools "once fires on the first hit only" [ true; false; false ] (pattern "t.once" 3);
  check Alcotest.int "hits keep counting" 3 (Fault.hits "t.once");
  check Alcotest.int "fired exactly once" 1 (Fault.fired "t.once");
  Fault.arm "t.nth" (Fault.Nth 3);
  check bools "nth fires on the n-th hit" [ false; false; true; false ] (pattern "t.nth" 4);
  Fault.arm "t.first" (Fault.First 2);
  check bools "first-n fires on the first n" [ true; true; false ] (pattern "t.first" 3);
  Fault.arm "t.always" Fault.Always;
  check bools "always fires every hit" [ true; true; true ] (pattern "t.always" 3);
  check bools "unarmed sites never fire" [ false; false ] (pattern "t.unarmed" 2);
  check Alcotest.int "unarmed sites count nothing" 0 (Fault.hits "t.unarmed")

let test_hit_raises () =
  with_clean @@ fun () ->
  Fault.enable ();
  Fault.arm "t.raise" Fault.Once;
  (match Fault.hit "t.raise" with
  | () -> Alcotest.fail "expected Injected"
  | exception Fault.Injected "t.raise" -> ());
  (* second hit: Once is spent, no raise *)
  Fault.hit "t.raise";
  check Alcotest.int "two hits" 2 (Fault.hits "t.raise")

let test_prob_deterministic () =
  with_clean @@ fun () ->
  Fault.enable ~seed:42 ();
  Fault.arm "t.prob" (Fault.Prob 0.3);
  let a = pattern "t.prob" 300 in
  check Alcotest.bool "some hits fire" true (List.mem true a);
  check Alcotest.bool "some hits pass" true (List.mem false a);
  (* same seed, fresh registry: identical firing pattern *)
  Fault.reset ();
  Fault.arm "t.prob" (Fault.Prob 0.3);
  let b = pattern "t.prob" 300 in
  check bools "same seed reproduces the stream" a b;
  (* a different seed diverges *)
  Fault.reset ();
  Fault.enable ~seed:43 ();
  Fault.arm "t.prob" (Fault.Prob 0.3);
  let c = pattern "t.prob" 300 in
  check Alcotest.bool "different seed diverges" true (a <> c)

let test_rearm_resets_and_advances () =
  with_clean @@ fun () ->
  Fault.enable ~seed:7 ();
  Fault.arm "t.prob" (Fault.Prob 0.5);
  let a = pattern "t.prob" 64 in
  Fault.arm "t.prob" (Fault.Prob 0.5);
  check Alcotest.int "re-arming resets counters" 0 (Fault.hits "t.prob");
  let b = pattern "t.prob" 64 in
  check Alcotest.bool "re-arming advances the generation stream" true (a <> b);
  check Alcotest.int "counters track the new arming" 64 (Fault.hits "t.prob")

let test_disarm_and_sites () =
  with_clean @@ fun () ->
  Fault.enable ();
  Fault.arm "t.b" Fault.Always;
  Fault.arm "t.a" Fault.Once;
  ignore (pattern "t.b" 2);
  (match Fault.sites () with
  | [ ("t.a", Fault.Once, 0, 0); ("t.b", Fault.Always, 2, 2) ] -> ()
  | s -> Alcotest.failf "unexpected sites listing (%d entries)" (List.length s));
  Fault.disarm "t.b";
  check Alcotest.bool "disarmed site is silent" false (Fault.fire "t.b");
  check Alcotest.int "one site left" 1 (List.length (Fault.sites ()))

(* Armed sites stay armed across disable/enable, and while disabled
   nothing fires or counts. *)
let test_disable_suspends () =
  with_clean @@ fun () ->
  Fault.enable ();
  Fault.arm "t.s" Fault.Always;
  check Alcotest.bool "fires while enabled" true (Fault.fire "t.s");
  Fault.disable ();
  check Alcotest.bool "silent while disabled" false (Fault.fire "t.s");
  check Alcotest.int "no hit recorded while disabled" 1 (Fault.hits "t.s");
  Fault.enable ();
  check Alcotest.bool "fires again after re-enable" true (Fault.fire "t.s")

let test_disabled_no_alloc () =
  with_clean @@ fun () ->
  Fault.arm "t.cold" Fault.Always;
  Helpers.check_alloc_free "a disabled probe" (fun () -> ignore (Fault.fire "t.cold"));
  check Alcotest.int "no hits recorded while disabled" 0 (Fault.hits "t.cold")

let suite =
  [
    Alcotest.test_case "policies" `Quick test_policies;
    Alcotest.test_case "hit raises Injected" `Quick test_hit_raises;
    Alcotest.test_case "prob determinism" `Quick test_prob_deterministic;
    Alcotest.test_case "re-arm resets + advances" `Quick test_rearm_resets_and_advances;
    Alcotest.test_case "disarm + sites" `Quick test_disarm_and_sites;
    Alcotest.test_case "disable suspends" `Quick test_disable_suspends;
    Alcotest.test_case "disabled path allocation-free" `Quick test_disabled_no_alloc;
  ]
