open Minirel_storage

let check = Alcotest.check

let test_read_miss_then_hit () =
  let pool = Buffer_pool.create ~capacity:4 () in
  let f = Buffer_pool.register_file pool in
  let stats = Buffer_pool.stats pool in
  Buffer_pool.access pool ~file:f ~page:0 ~mode:`Read;
  check Alcotest.int "first access misses" 1 stats.Io_stats.reads;
  Buffer_pool.access pool ~file:f ~page:0 ~mode:`Read;
  check Alcotest.int "second access hits" 1 stats.Io_stats.reads;
  check Alcotest.int "resident" 1 (Buffer_pool.resident pool)

let test_write_miss_no_read () =
  let pool = Buffer_pool.create ~capacity:4 () in
  let f = Buffer_pool.register_file pool in
  let stats = Buffer_pool.stats pool in
  Buffer_pool.access pool ~file:f ~page:0 ~mode:`Write;
  check Alcotest.int "append does not read" 0 stats.Io_stats.reads;
  Buffer_pool.flush pool;
  check Alcotest.int "dirty page flushed" 1 stats.Io_stats.writes

let test_dirty_eviction_writes () =
  let pool = Buffer_pool.create ~capacity:2 () in
  let f = Buffer_pool.register_file pool in
  let stats = Buffer_pool.stats pool in
  Buffer_pool.access pool ~file:f ~page:0 ~mode:`Write;
  Buffer_pool.access pool ~file:f ~page:1 ~mode:`Read;
  (* pool full; bringing in page 2 evicts a page; if it is the dirty one,
     a write is charged. Touch two more to make sure page 0 leaves. *)
  Buffer_pool.access pool ~file:f ~page:2 ~mode:`Read;
  Buffer_pool.access pool ~file:f ~page:3 ~mode:`Read;
  check Alcotest.bool "dirty eviction wrote" true (stats.Io_stats.writes >= 1);
  Buffer_pool.flush pool;
  (* flushing twice writes nothing new *)
  let w = stats.Io_stats.writes in
  Buffer_pool.flush pool;
  check Alcotest.int "flush idempotent" w stats.Io_stats.writes

let test_distinct_files () =
  let pool = Buffer_pool.create ~capacity:8 () in
  let f1 = Buffer_pool.register_file pool in
  let f2 = Buffer_pool.register_file pool in
  check Alcotest.bool "fresh ids" true (f1 <> f2);
  let stats = Buffer_pool.stats pool in
  Buffer_pool.access pool ~file:f1 ~page:0 ~mode:`Read;
  Buffer_pool.access pool ~file:f2 ~page:0 ~mode:`Read;
  check Alcotest.int "same page of different files are distinct" 2 stats.Io_stats.reads

let test_invalidate_file () =
  let pool = Buffer_pool.create ~capacity:8 () in
  let f1 = Buffer_pool.register_file pool in
  let f2 = Buffer_pool.register_file pool in
  Buffer_pool.access pool ~file:f1 ~page:0 ~mode:`Read;
  Buffer_pool.access pool ~file:f2 ~page:0 ~mode:`Read;
  Buffer_pool.invalidate_file pool ~file:f1;
  check Alcotest.int "only f2 resident" 1 (Buffer_pool.resident pool);
  let stats = Buffer_pool.stats pool in
  let r = stats.Io_stats.reads in
  Buffer_pool.access pool ~file:f2 ~page:0 ~mode:`Read;
  check Alcotest.int "f2 still cached" r stats.Io_stats.reads

let test_resident_access_no_alloc () =
  (* the per-page O3 path: one int key, no closure, no tuple *)
  let pool = Buffer_pool.create ~capacity:64 ~fault:(Minirel_fault.Fault.create ()) () in
  let f = Buffer_pool.register_file pool in
  for page = 0 to 31 do
    Buffer_pool.access pool ~file:f ~page ~mode:`Read
  done;
  let stats = Buffer_pool.stats pool in
  let reads = stats.Io_stats.reads in
  let i = ref 0 in
  Helpers.check_alloc_free "a resident page access" (fun () ->
      let mode = if !i land 1 = 0 then `Read else `Write in
      Buffer_pool.access pool ~file:f ~page:(!i land 31) ~mode;
      incr i);
  check Alcotest.int "every access hit" reads stats.Io_stats.reads

(* One seeded access trace over four adjacent file ids: reads and writes
   with a working set well above capacity, page numbers up to the last
   valid page (2^32 - 1) so that neighbouring (file, page) pairs would
   collide if the page-key encoding aliased, periodic flushes and, with
   [invalidate], file invalidations. Midway an out-of-range page must be
   rejected without touching any counter. Returns reads, writes,
   references, hits, admissions, rejections, evictions and residency. *)
let replay_trace ~invalidate kind =
  let module SM = Minirel_prng.Split_mix in
  let far = [| 1 lsl 20; (1 lsl 20) + 1; (1 lsl 20) - 1; 1 lsl 31; (1 lsl 32) - 1 |] in
  let pool = Buffer_pool.create ~policy:kind ~capacity:32 () in
  let files = Array.init 4 (fun _ -> Buffer_pool.register_file pool) in
  let io = Buffer_pool.stats pool and c = Buffer_pool.policy_stats pool in
  let counters () =
    let open Minirel_cache.Cache_stats in
    [ io.Io_stats.reads; io.Io_stats.writes; c.references; c.hits; c.admissions;
      c.rejections; c.evictions; Buffer_pool.resident pool ]
  in
  let rng = SM.create ~seed:13 in
  for step = 1 to 4000 do
    if step = 2000 then begin
      let before = counters () in
      Alcotest.check_raises "page 2^32 rejected"
        (Invalid_argument "Buffer_pool.access: page outside [0, 2^32)") (fun () ->
          Buffer_pool.access pool ~file:files.(0) ~page:(1 lsl 32) ~mode:`Read);
      check Alcotest.(list int) "rejected access counts nothing" before (counters ())
    end;
    if step mod 500 = 0 then Buffer_pool.flush pool
    else if invalidate && step mod 700 = 0 then
      Buffer_pool.invalidate_file pool ~file:files.(SM.int rng ~bound:4)
    else begin
      let file = files.(SM.int rng ~bound:4) in
      let page =
        if SM.int rng ~bound:5 = 0 then far.(SM.int rng ~bound:(Array.length far))
        else SM.int rng ~bound:40
      in
      let mode = if SM.int rng ~bound:4 = 0 then `Write else `Read in
      Buffer_pool.access pool ~file ~page ~mode
    end
  done;
  counters ()

(* Counters of the (file, page)-tuple-keyed pool the int page key
   replaced, on the same trace. Without invalidations every policy
   matches it exactly. *)
let pinned_without_invalidation =
  Minirel_cache.Policies.
    [
      (Clock, [ 2444; 902; 3992; 762; 3230; 3230; 3198; 32 ]);
      (Two_q, [ 2467; 689; 3992; 760; 345; 2887; 313; 32 ]);
      (Two_q_full, [ 2435; 882; 3992; 791; 3201; 0; 3169; 32 ]);
      (Lru, [ 2450; 898; 3992; 759; 3233; 3233; 3201; 32 ]);
      (Fifo, [ 2440; 904; 3992; 767; 3225; 3225; 3193; 32 ]);
    ]

(* With invalidations, LRU, FIFO and full 2Q still match the tuple-keyed
   pool. CLOCK and simplified 2Q (whose resident set is a CLOCK) reuse
   the freed slots in a different order: the tuple-keyed pool removed
   pages in the order of its tuple hashes, the int-keyed one in
   descending page order. On this trace the tuple-keyed pool ended
   with CLOCK 2446; 922; 3988; 736; 3252; 3252; 3185; 32 and 2Q 2450;
   703; 3988; 745; 338; 2905; 278; 32. *)
let pinned_with_invalidation =
  Minirel_cache.Policies.
    [
      (Clock, [ 2442; 922; 3988; 740; 3248; 3248; 3181; 32 ]);
      (Two_q, [ 2449; 703; 3988; 742; 338; 2908; 275; 32 ]);
      (Two_q_full, [ 2406; 906; 3988; 784; 3204; 0; 3145; 32 ]);
      (Lru, [ 2450; 921; 3988; 738; 3250; 3250; 3187; 32 ]);
      (Fifo, [ 2444; 923; 3988; 738; 3250; 3250; 3182; 32 ]);
    ]

let test_trace_accounting () =
  List.iter
    (fun (invalidate, pinned) ->
      check Alcotest.int "every policy pinned" (List.length Minirel_cache.Policies.all)
        (List.length pinned);
      List.iter
        (fun kind ->
          check
            Alcotest.(list int)
            (Fmt.str "%s, invalidate=%b" (Minirel_cache.Policies.to_string kind) invalidate)
            (List.assoc kind pinned) (replay_trace ~invalidate kind))
        Minirel_cache.Policies.all)
    [ (false, pinned_without_invalidation); (true, pinned_with_invalidation) ]

let test_io_stats_diff () =
  let s = Io_stats.create () in
  Io_stats.add_read s;
  Io_stats.add_read s;
  let snap = Io_stats.snapshot s in
  Io_stats.add_read s;
  Io_stats.add_write s;
  let d = Io_stats.diff ~before:snap s in
  check Alcotest.int "diff reads" 1 d.Io_stats.reads;
  check Alcotest.int "diff writes" 1 d.Io_stats.writes;
  check Alcotest.int "total" 4 (Io_stats.total s)

let suite =
  [
    Alcotest.test_case "read miss then hit" `Quick test_read_miss_then_hit;
    Alcotest.test_case "write miss appends" `Quick test_write_miss_no_read;
    Alcotest.test_case "dirty eviction" `Quick test_dirty_eviction_writes;
    Alcotest.test_case "resident access allocation-free" `Quick test_resident_access_no_alloc;
    Alcotest.test_case "distinct files" `Quick test_distinct_files;
    Alcotest.test_case "invalidate file" `Quick test_invalidate_file;
    Alcotest.test_case "io stats diff" `Quick test_io_stats_diff;
    Alcotest.test_case "trace accounting pinned per policy" `Quick test_trace_accounting;
  ]
