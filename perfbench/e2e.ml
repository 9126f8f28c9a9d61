(* End-to-end serving benchmark: one closed-loop client, no think time,
   replaying a seeded stream of T1/T2 queries in the Section 3.6 shape
   mix (and, on writing workloads, one-change transactions) through the
   public serving API: Engine.answer/run, the Shard_router entry points
   and Pmv.Extensions. Everything a workload does not name (probe path,
   maintenance strategy, F, replacement policy) keeps its library
   default, so a change to a default shows here.

     e2e.exe run    --workload W --seed N --seconds S --trace 0|1 --tmpdir D
     e2e.exe replay --workload W --seed N --tmpdir D

   [run] builds the system (timed as set-up, warm-up included), then
   serves for S seconds. With --trace 1 the window alternates untraced
   and traced segments of 250 ms; traced operations record spans and
   counter deltas, from which the per-layer metrics and the ledgers
   are built, and the two kinds of segment's throughputs give the
   tracing overhead. [replay] builds the same system and replays only
   the first [prefix] operations of the window, printing the
   fingerprint run.py compares with the run's: the op-stream digest,
   the result checksum and, on single-engine workloads, logical I/O and
   probe counts must repeat exactly.

   A seeded sample of answers is diffed against lib/check's ground
   truth and every view passes Check.check_view at the end. Checking
   time is excluded from every latency and from the window behind
   ops_per_s. Read-only workloads check after the window (their data
   cannot change, and a ground-truth scan would disturb a small buffer
   pool); writing workloads check once the peak heap has been read,
   since the oracle's full-scan joins allocate far more than the
   system does. The last stdout line is "RESULT <json>" or
   "REPLAY <json>". *)

open Minirel_storage
module Instance = Minirel_query.Instance
module Condition_part = Minirel_query.Condition_part
module Engine = Minirel_engine.Engine
module Router = Minirel_engine.Shard_router
module Pool = Minirel_parallel.Pool
module Wal = Minirel_txn.Wal
module Lock_manager = Minirel_txn.Lock_manager
module Plan_cache = Minirel_exec.Plan_cache
module Exec_stats = Minirel_exec.Exec_stats
module Histogram = Minirel_telemetry.Histogram
module Querygen = Minirel_workload.Querygen
module Check = Minirel_check.Check
module SM = Minirel_prng.Split_mix
module Answer = Pmv.Answer

let now = Answer.now
let ( -- ) = Int64.sub
let ( ++ ) = Int64.add

(* operations in the determinism fingerprint *)
let prefix = 500

(* peak_heap_mb is the GC's top heap after this many window operations:
   a fixed point in the op stream, so a single-client run reads the
   same figure for the same seed however fast the host is *)
let heap_at = 4000

(* operations replayed during set-up, before the timed window: enough
   for the hot bcps to reach the views *)
let warmup = 1000

(* a query is sampled for the oracle with probability 1/check_one_in,
   at most max_checks per run *)
let check_one_in = 40
let max_checks = 16
let segment_ns = 250_000_000L

(* End-to-end figures are medians over sub-windows of this length: a
   host stall of a few seconds then moves one or two of them, not the
   run's result. Each holds well over 1000 queries, so its p99 has more
   than ten samples beyond it. *)
let sub_window_ns = 2_000_000_000L

(* --- counters the library exposes, summed over engines ------------- *)

let c_reads = 0
let c_writes = 1
let c_refs = 2
let c_hits = 3
let c_pc_hits = 4
let c_pc_misses = 5
let c_wal_bytes = 6
let c_wal_flushes = 7
let c_lock_acq = 8
let c_lock_conf = 9
let c_lock_ns = 10
let c_vq = 11
let c_vhits = 12
let c_evict = 13
let c_removed = 14
let c_skipped = 15
let c_fast = 16
let c_aff_hits = 17
let c_aff_misses = 18
let c_submitted = 19
let c_steals = 20
let c_parks = 21
let c_exns = 22
let c_probe_ns = 23
let n_counters = 24

let snap (s : Setup.t) =
  let c = Array.make n_counters 0 in
  let add i v = c.(i) <- c.(i) + v in
  Array.iter
    (fun e ->
      let pool = Engine.pool e in
      let io = Buffer_pool.stats pool in
      add c_reads io.Io_stats.reads;
      add c_writes io.Io_stats.writes;
      let ps = Buffer_pool.policy_stats pool in
      add c_refs ps.Minirel_cache.Cache_stats.references;
      add c_hits ps.Minirel_cache.Cache_stats.hits;
      let pc = Engine.plan_cache e in
      let pcc = Plan_cache.counters pc in
      add c_pc_hits (pcc.Plan_cache.hits + Plan_cache.shadow_hits pc);
      add c_pc_misses pcc.Plan_cache.misses;
      Option.iter
        (fun w ->
          let ws = Wal.stats w in
          add c_wal_bytes ws.Wal.bytes;
          add c_wal_flushes ws.Wal.flushes)
        (Engine.wal e);
      let ls = Lock_manager.stats (Engine.locks e) in
      add c_lock_acq ls.Lock_manager.acquires;
      add c_lock_conf ls.Lock_manager.conflicts;
      add c_lock_ns (Int64.to_int (Histogram.sum_ns ls.Lock_manager.acquire_ns));
      List.iter
        (fun v ->
          let vs = Pmv.View.stats v in
          add c_vq vs.Pmv.View.queries;
          add c_vhits vs.Pmv.View.query_hits;
          add c_removed vs.Pmv.View.maint_removed;
          add c_skipped vs.Pmv.View.maint_skipped_updates;
          add c_evict
            (Pmv.Entry_store.policy_stats (Pmv.View.store v)).Minirel_cache.Cache_stats.evictions)
        (Pmv.Manager.views (Engine.manager e)))
    s.Setup.engines;
  Option.iter
    (fun r ->
      let ps = Router.probe_stats r in
      add c_fast ps.Router.fast_hits;
      add c_probe_ns (Int64.to_int (Histogram.sum_ns ps.Router.probe_ns));
      let h, m, _ = Router.affinity_stats r in
      add c_aff_hits h;
      add c_aff_misses m)
    s.Setup.router;
  Option.iter
    (fun p ->
      let ps = Pool.stats p in
      add c_submitted ps.Pool.submitted;
      add c_steals ps.Pool.steals;
      add c_parks ps.Pool.parks;
      add c_exns ps.Pool.task_exns)
    s.Setup.par;
  c

let add_delta acc ~before ~after =
  Array.iteri (fun i a -> acc.(i) <- acc.(i) + (a - before.(i))) after

(* --- spans: in memory, one id per operation, written out at exit --- *)

let sp_query = 0
let sp_dml = 1
let sp_o1 = 2
let sp_partial = 3
let sp_remaining = 4
let sp_apply = 5
let sp_wal = 6
let sp_maint = 7
let sp_finish = 8

let span_names =
  [| "query"; "dml"; "query.o1"; "answer.partial"; "answer.remaining"; "txn.apply"; "wal";
     "pmv.maintain"; "txn.finish" |]

(* query.o1 re-runs Condition_part.decompose just before the call, so
   it estimates O1 inside the call rather than nesting in it *)
let span_parent = [| "-"; "-"; "query"; "query"; "query"; "dml"; "dml"; "dml"; "dml" |]

type spans = { sop : Lat.t; sname : Lat.t; st0 : Lat.t; st1 : Lat.t }

let spans =
  { sop = Lat.create (); sname = Lat.create (); st0 = Lat.create (); st1 = Lat.create () }

let span ~op name t0 t1 =
  Lat.add spans.sop op;
  Lat.add spans.sname name;
  Lat.add64 spans.st0 t0;
  Lat.add64 spans.st1 t1

let write_spans file ~origin =
  let oc = open_out file in
  output_string oc "op\tspan\tparent\tstart_ns\tend_ns\n";
  for i = 0 to Lat.length spans.sop - 1 do
    let n = spans.sname.Lat.a.(i) in
    Printf.fprintf oc "%d\t%s\t%s\t%d\t%d\n" spans.sop.Lat.a.(i) span_names.(n) span_parent.(n)
      (spans.st0.Lat.a.(i) - origin)
      (spans.st1.Lat.a.(i) - origin)
  done;
  close_out oc

(* --- transaction brackets (see Setup.hooks) ------------------------ *)

type brackets = {
  mutable on : bool;
  mutable op : int;
  mutable seg : int64;  (* start of the current apply stretch *)
  mutable t_start : int64;
  mutable t_mid : int64;
  mutable apply : int64;
  mutable wal : int64;
  mutable maint : int64;
  mutable fired : int;  (* shard-level changes applied *)
}

let br =
  { on = false; op = 0; seg = 0L; t_start = 0L; t_mid = 0L; apply = 0L; wal = 0L; maint = 0L;
    fired = 0 }

let hooks =
  {
    Setup.start =
      (fun _ ->
        if br.on then begin
          let t = now () in
          span ~op:br.op sp_apply br.seg t;
          br.apply <- br.apply ++ (t -- br.seg);
          br.t_start <- t;
          br.fired <- br.fired + 1
        end);
    mid =
      (fun _ ->
        if br.on then begin
          let t = now () in
          span ~op:br.op sp_wal br.t_start t;
          br.wal <- br.wal ++ (t -- br.t_start);
          br.t_mid <- t
        end);
    finish =
      (fun _ ->
        if br.on then begin
          let t = now () in
          span ~op:br.op sp_maint br.t_mid t;
          br.maint <- br.maint ++ (t -- br.t_mid);
          br.seg <- t
        end);
  }

(* --- accumulators --------------------------------------------------- *)

(* End-to-end samples of one kind of segment (untraced or traced). *)
type e2e = {
  mutable ops : int;
  mutable busy : int64;  (* window time spent in this kind of segment *)
  ttft : Lat.t;
  ttc : Lat.t;
  dml : Lat.t;
  mutable marks : (int64 * int * int) list;  (* sub-window starts: elapsed, ops, queries *)
}

let e2e () =
  { ops = 0; busy = 0L; ttft = Lat.create (); ttc = Lat.create (); dml = Lat.create ();
    marks = [ (0L, 0, 0) ] }

let shape_names = [| "plain"; "distinct"; "grouped"; "ordered"; "exists" |]

let shape_idx = function
  | Querygen.Plain -> 0
  | Querygen.Distinct -> 1
  | Querygen.Grouped _ -> 2
  | Querygen.Ordered _ -> 3
  | Querygen.Exists -> 4

(* Per-layer figures, gathered on traced operations only. *)
type layer = {
  mutable nq : int;
  mutable nd : int;
  cq : int array;  (* counter deltas over query calls *)
  cd : int array;  (* ... over transaction calls *)
  overhead : Lat.t;
  exec : Lat.t;
  partial_phase : Lat.t;
  shape_ttc : Lat.t array;
  apply : Lat.t;
  maint : Lat.t;
  mutable h : int;
  mutable o1 : int;  (* decompose time, ns *)
  mutable n_stats : int;
  mutable probes : int;
  mutable probe_hits : int;
  mutable partials : int;
  mutable delivered : int;
  mutable fills : int;
  mutable stale : int;
  mutable exists_n : int;
  mutable exists_pmv : int;
  mutable prof_rows : int;
  mutable prof_results : int;
  mutable pending_max : int;
  mutable shard_changes : int;
  (* ledger parts, ns *)
  mutable q_wall : int;
  mutable q_o1 : int;
  mutable q_pmv : int;
  mutable q_exec : int;
  mutable q_exists : int;
  mutable q_probe : int;
  (* O1, O2+DS+fill and O3 of queries whose shards ran in parallel:
     Shard_router.merge_stats adds them up across shards, so they are
     CPU sums, kept out of the wall ledger *)
  mutable q_cpu_o1 : int;
  mutable q_cpu_pmv : int;
  mutable q_cpu_exec : int;
  mutable d_wall : int;
  mutable d_apply : int;
  mutable d_wal : int;
  mutable d_maint : int;
}

let layer () =
  {
    nq = 0; nd = 0; cq = Array.make n_counters 0; cd = Array.make n_counters 0;
    overhead = Lat.create (); exec = Lat.create (); partial_phase = Lat.create ();
    shape_ttc = Array.init 5 (fun _ -> Lat.create ()); apply = Lat.create ();
    maint = Lat.create (); h = 0; o1 = 0; n_stats = 0; probes = 0; probe_hits = 0; partials = 0;
    delivered = 0; fills = 0; stale = 0; exists_n = 0; exists_pmv = 0; prof_rows = 0;
    prof_results = 0; pending_max = 0; shard_changes = 0; q_wall = 0; q_o1 = 0; q_pmv = 0;
    q_exec = 0; q_exists = 0; q_probe = 0;
    q_cpu_o1 = 0; q_cpu_pmv = 0; q_cpu_exec = 0; d_wall = 0; d_apply = 0; d_wal = 0; d_maint = 0;
  }

(* --- one query ------------------------------------------------------ *)

(* What the client saw of the query in flight. TTFT is the first
   delivered tuple; the non-streaming shapes (grouped, ordered, exists)
   and empty answers deliver nothing before the call returns, so their
   TTFT is their TTC. *)
type q = {
  mutable t_call : int64;
  mutable first : int64;
  mutable first_rem : int64;
  mutable qsum : int;
  mutable collect : bool;
  mutable rows : (Answer.phase * Tuple.t) list;
  mutable n_rows : int;
}

let q =
  { t_call = 0L; first = 0L; first_rem = 0L; qsum = 0; collect = false; rows = []; n_rows = 0 }

let on_tuple phase t =
  if q.first = 0L then q.first <- now ();
  (match phase with
  | Answer.Remaining when q.first_rem = 0L -> q.first_rem <- now ()
  | Answer.Remaining | Answer.Partial -> ());
  q.n_rows <- q.n_rows + 1;
  q.qsum <- q.qsum + Tuple.hash t;
  if q.collect then q.rows <- (phase, t) :: q.rows

(* What a call returned, as it returned it: nothing here is computed
   inside the timed span beyond the call itself. *)
type raw =
  | Streamed of Answer.stats  (* plain and distinct: rows went to [on_tuple] *)
  | Grouped of (Tuple.t * Value.t array) list * Answer.stats
  | Ordered of Tuple.t list * Answer.stats
  | Exists of bool * [ `From_pmv | `Executed ]

type answered = {
  stats : Answer.stats option;
  got : Setup.result;
  phased : (Answer.phase * Tuple.t) list;  (* plain and distinct, when collected *)
  digest : int;
  from_pmv : bool;  (* exists settled by a cached witness *)
}

(* The call alone, between [q.t_call] and the caller's [t_end].
   Finalizing the groups is part of the answer a client receives. *)
let run_query (s : Setup.t) ~profile inst shape =
  q.first <- 0L;
  q.first_rem <- 0L;
  q.qsum <- 0;
  q.rows <- [];
  q.n_rows <- 0;
  q.t_call <- now ();
  match shape with
  | Querygen.Plain -> Streamed (s.Setup.plain profile inst ~on_tuple)
  | Querygen.Distinct -> Streamed (s.Setup.distinct inst ~on_tuple)
  | Querygen.Grouped { key; aggs } ->
      let g = s.Setup.grouped inst ~key ~aggs in
      Grouped (Pmv.Extensions.finalize_groups ~aggs g.Pmv.Extensions.g_groups,
               g.Pmv.Extensions.g_stats)
  | Querygen.Ordered { order; k } ->
      let rows, st = s.Setup.ordered inst ~order ~k in
      Ordered (rows, st)
  | Querygen.Exists ->
      let b, how = s.Setup.exists inst in
      Exists (b, how)

(* The benchmark's own digest of a result, taken after [t_end]. *)
let answered = function
  | Streamed st ->
      let phased = List.rev q.rows in
      { stats = Some st; got = Setup.Rows (List.map snd phased); phased; digest = q.qsum;
        from_pmv = false }
  | Grouped (groups, st) ->
      { stats = Some st; got = Setup.Groups groups; phased = [];
        digest =
          List.fold_left (fun h (k, vs) -> (h * 31) + Tuple.hash k + Tuple.hash vs) 0 groups;
        from_pmv = false }
  | Ordered (rows, st) ->
      { stats = Some st; got = Setup.Seq rows; phased = [];
        digest = List.fold_left (fun h t -> (h * 31) + Tuple.hash t) 0 rows; from_pmv = false }
  | Exists (b, how) ->
      { stats = None; got = Setup.Bool b; phased = []; digest = Bool.to_int b;
        from_pmv = how = `From_pmv }

(* Finalized aggregates may sum floats in different orders on the
   streamed and oracle sides: compare floats with a relative epsilon. *)
let value_close a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      Float.abs (x -. y) <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  | _ -> Value.compare a b = 0

let same_list eq a b = List.length a = List.length b && List.for_all2 eq a b

(* The oracle's verdict on one answer. Plain answers also go through
   the DS exactly-once identity; while maintenance is pending the
   lenient verdict (extras exactly accounted for by the purge) holds. *)
let verdict ~pending shape expected (a : answered) =
  match (shape, expected, a.got) with
  | Querygen.Plain, Setup.Rows exp, _ ->
      let r =
        Check.check_answer_via ~shape:"plain" ~expected:exp (fun ~on_tuple ->
            List.iter (fun (p, t) -> on_tuple p t) a.phased;
            Option.get a.stats)
      in
      if pending then Check.report_ok_allowing_stale r else Check.report_ok r
  | _, Setup.Rows exp, Setup.Rows got ->
      Check.diff_is_empty (Check.diff_multiset ~expected:exp ~actual:got)
  | _, Setup.Groups exp, Setup.Groups got ->
      same_list
        (fun (ek, ev) (gk, gv) ->
          Tuple.compare ek gk = 0
          && Array.length ev = Array.length gv
          && Array.for_all2 value_close ev gv)
        exp got
  | _, Setup.Seq exp, Setup.Seq got -> same_list (fun a b -> Tuple.compare a b = 0) exp got
  | _, Setup.Bool exp, Setup.Bool got -> exp = got
  | _ -> false

(* --- the serving loop ---------------------------------------------- *)

type st = {
  s : Setup.t;
  w : Setup.workload;
  g : Gen.t;
  chk : SM.t;  (* oracle sample draws, one per query *)
  mutable nops : int;  (* window operations so far *)
  mutable checks : int;
  mutable failed : int;
  mutable raised : int;  (* failed operations that never completed *)
  mutable notes : string list;  (* first few failures, for the log *)
  mutable checksum : int;
  mutable probes : int;
  mutable fingerprint : string;
  mutable deferred : (unit -> unit) list;
  mutable paused : int64;  (* window time spent checking *)
  mutable peak_words : int;
}

let fail ?(raised = false) st msg =
  if raised then st.raised <- st.raised + 1;
  st.failed <- st.failed + 1;
  if List.length st.notes < 5 then st.notes <- msg :: st.notes

let pending_views (s : Setup.t) =
  List.fold_left (fun n v -> n + Pmv.Maintain.n_pending v) 0 (Setup.views s)

let fingerprint st =
  let c = snap st.s in
  let base = Printf.sprintf "digest=%s checksum=%x" (Gen.digest st.g) st.checksum in
  match st.s.Setup.router with
  | Some _ -> base
  | None ->
      Printf.sprintf "%s io=%d/%d probes=%d view_queries=%d" base c.(c_reads) c.(c_writes)
        st.probes c.(c_vq)

let top_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words

(* Run [f] outside the window: its time is added to [st.paused]. *)
let paused st f =
  let t0 = now () in
  let r = f () in
  st.paused <- st.paused ++ (now () -- t0);
  r

let mix st x = st.checksum <- (st.checksum * 31) + x

let query st ~traced ~check_now ~acc ~ly ~op inst shape =
  let sample = SM.int st.chk ~bound:check_one_in = 0 && st.checks < max_checks && check_now in
  if sample then st.checks <- st.checks + 1;
  q.collect <- sample;
  let pending = sample && pending_views st.s > 0 in
  let h, o1 =
    if traced then begin
      let t0 = now () in
      let h = List.length (Condition_part.decompose inst) in
      let t1 = now () in
      span ~op sp_o1 t0 t1;
      (h, Int64.to_int (t1 -- t0))
    end
    else (0, 0)
  in
  let before = if traced then snap st.s else [||] in
  let profile =
    if traced && shape = Querygen.Plain && ly.nq mod 8 = 0 then Some (Exec_stats.create ())
    else None
  in
  match run_query st.s ~profile inst shape with
  | exception exn -> fail ~raised:true st ("query raised " ^ Printexc.to_string exn)
  | r ->
      let t_end = now () in
      let a = paused st (fun () -> answered r) in
      let ttc = t_end -- q.t_call in
      let ttft = if q.first = 0L then ttc else q.first -- q.t_call in
      acc.ops <- acc.ops + 1;
      Lat.add64 acc.ttc ttc;
      Lat.add64 acc.ttft ttft;
      mix st a.digest;
      Option.iter
        (fun (s : Answer.stats) ->
          st.probes <- st.probes + s.Answer.probes;
          if shape = Querygen.Plain && q.n_rows <> s.Answer.total_count + s.Answer.stale_purged
          then fail st "DS identity: delivered <> total_count + stale_purged")
        a.stats;
      if traced then begin
        let after = snap st.s in
        add_delta ly.cq ~before ~after;
        let dvq = after.(c_vq) - before.(c_vq) in
        ly.nq <- ly.nq + 1;
        ly.h <- ly.h + h;
        ly.o1 <- ly.o1 + o1;
        span ~op sp_query q.t_call t_end;
        let split = if q.first_rem = 0L then t_end else q.first_rem in
        span ~op sp_partial q.t_call split;
        if q.first_rem <> 0L then begin
          span ~op sp_remaining q.first_rem t_end;
          Lat.add64 ly.partial_phase (q.first_rem -- q.t_call)
        end;
        Lat.add64 ly.shape_ttc.(shape_idx shape) ttc;
        let wall = Int64.to_int ttc in
        ly.q_wall <- ly.q_wall + wall;
        ly.q_probe <- ly.q_probe + (after.(c_probe_ns) - before.(c_probe_ns));
        (match a.stats with
        | Some s ->
            let o1_in_call = o1 * dvq in
            Lat.add64 ly.overhead s.Answer.overhead_ns;
            Lat.add64 ly.exec s.Answer.exec_ns;
            ly.n_stats <- ly.n_stats + 1;
            ly.probes <- ly.probes + s.Answer.probes;
            ly.probe_hits <- ly.probe_hits + s.Answer.probe_hits;
            ly.partials <- ly.partials + s.Answer.partial_count;
            ly.delivered <- ly.delivered + s.Answer.total_count + s.Answer.stale_purged;
            ly.fills <- ly.fills + s.Answer.filled;
            ly.stale <- ly.stale + s.Answer.stale_purged;
            let pmv = Int64.to_int s.Answer.overhead_ns - o1_in_call in
            let exec = Int64.to_int s.Answer.exec_ns in
            (* the router fans plain (unprofiled), distinct and grouped
               calls out over the pool when one is attached *)
            let fanned =
              Option.is_some st.s.Setup.par
              &&
              match shape with
              | Querygen.Plain -> Option.is_none profile
              | Querygen.Distinct | Querygen.Grouped _ -> true
              | Querygen.Ordered _ | Querygen.Exists -> false
            in
            if fanned then begin
              ly.q_cpu_o1 <- ly.q_cpu_o1 + o1_in_call;
              ly.q_cpu_pmv <- ly.q_cpu_pmv + pmv;
              ly.q_cpu_exec <- ly.q_cpu_exec + exec
            end
            else begin
              ly.q_o1 <- ly.q_o1 + o1_in_call;
              ly.q_pmv <- ly.q_pmv + pmv;
              ly.q_exec <- ly.q_exec + exec
            end
        | None ->
            ly.exists_n <- ly.exists_n + 1;
            if a.from_pmv then ly.exists_pmv <- ly.exists_pmv + 1;
            ly.q_exists <- ly.q_exists + wall);
        Option.iter
          (fun p ->
            List.iter
              (fun n -> ly.prof_rows <- ly.prof_rows + n.Exec_stats.rows_out)
              (Exec_stats.nodes p);
            ly.prof_results <- ly.prof_results + q.n_rows)
          profile
      end;
      if sample then begin
        let judge () =
          if not (verdict ~pending shape (st.s.Setup.expect shape inst) a) then
            fail st
              (Printf.sprintf "oracle mismatch: %s query on %s" (Querygen.shape_name shape)
                 (Instance.compiled inst).Minirel_query.Template.spec.Minirel_query.Template.name)
        in
        if st.w.Setup.write_pct = 0 then st.deferred <- judge :: st.deferred
        else paused st judge
      end

let change st ~traced ~acc ~ly ~op c =
  let before = if traced then snap st.s else [||] in
  br.on <- traced;
  br.op <- op;
  br.apply <- 0L;
  br.wal <- 0L;
  br.maint <- 0L;
  br.fired <- 0;
  let t0 = now () in
  br.seg <- t0;
  match st.s.Setup.run c with
  | exception exn ->
      br.on <- false;
      fail ~raised:true st ("transaction raised " ^ Printexc.to_string exn)
  | () ->
      let t1 = now () in
      br.on <- false;
      acc.ops <- acc.ops + 1;
      Lat.add64 acc.dml (t1 -- t0);
      if traced then begin
        add_delta ly.cd ~before ~after:(snap st.s);
        ly.nd <- ly.nd + 1;
        span ~op sp_dml t0 t1;
        span ~op sp_finish br.seg t1;
        ly.d_wall <- ly.d_wall + Int64.to_int (t1 -- t0);
        ly.d_apply <- ly.d_apply + Int64.to_int br.apply;
        ly.d_wal <- ly.d_wal + Int64.to_int br.wal;
        ly.d_maint <- ly.d_maint + Int64.to_int br.maint;
        Lat.add64 ly.apply br.apply;
        Lat.add64 ly.maint br.maint;
        ly.shard_changes <- ly.shard_changes + br.fired;
        ly.pending_max <- max ly.pending_max (pending_views st.s)
      end

let one_op st ~traced ~check_now ~acc ~ly =
  let op = st.nops in
  (match Gen.next st.g with
  | Gen.Query { inst; shape } -> query st ~traced ~check_now ~acc ~ly ~op inst shape
  | Gen.Change c -> change st ~traced ~acc ~ly ~op c);
  st.nops <- st.nops + 1;
  if st.nops = prefix then st.fingerprint <- paused st (fun () -> fingerprint st);
  if st.nops = heap_at then st.peak_words <- top_heap_words ()

(* The timed window: [seconds] of serving, or for a replay just the
   fingerprint prefix. Returns the untraced and traced accumulators,
   the layer figures, the window length and its start. *)
let window st ~trace ~seconds ~replica =
  let acc = [| e2e (); e2e () |] and ly = layer () in
  let limit = Int64.of_float (seconds *. 1e9) in
  let t_begin = now () in
  st.paused <- 0L;
  st.nops <- 0;
  st.fingerprint <- "-";
  let elapsed () = now () -- t_begin -- st.paused in
  let go () = if replica then st.nops < prefix else elapsed () < limit in
  while go () do
    let el = elapsed () in
    let traced = trace && Int64.rem (Int64.div el segment_ns) 2L = 1L in
    let a = if traced then acc.(1) else acc.(0) in
    (* writing workloads check once the fingerprint and the peak heap
       have been read *)
    let check_now = (not replica) && (st.w.Setup.write_pct = 0 || st.nops >= heap_at) in
    (match a.marks with
    | (m, _, _) :: _ when Int64.sub el m >= sub_window_ns ->
        a.marks <- (el, a.ops, Lat.length a.ttc) :: a.marks
    | _ -> ());
    let p0 = st.paused in
    let t0 = now () in
    one_op st ~traced ~check_now ~acc:a ~ly;
    a.busy <- a.busy ++ (now () -- t0 -- (st.paused -- p0))
  done;
  (acc, ly, elapsed (), t_begin)

(* --- set-up --------------------------------------------------------- *)

let build w ~seed ~tmpdir =
  let t0 = now () in
  let s = Setup.create w ~seed ~hooks ~tmpdir in
  let g =
    Gen.create ~seed ~alpha:w.Setup.alpha ~write_pct:w.Setup.write_pct ~params:s.Setup.params
      ~counts:s.Setup.counts ~t1:s.Setup.t1 ~t2:s.Setup.t2
  in
  let st =
    {
      s; w; g; chk = SM.create ~seed:((seed * 7919) + 17); nops = 0; checks = 0; failed = 0;
      raised = 0; notes = []; checksum = 0; probes = 0; fingerprint = "-"; deferred = [];
      paused = 0L; peak_words = 0;
    }
  in
  let warm = e2e () and ly = layer () in
  let t_warm = now () in
  for _ = 1 to warmup do
    one_op st ~traced:false ~check_now:false ~acc:warm ~ly
  done;
  st.checksum <- 0;
  st.probes <- 0;
  let t1 = now () in
  Printf.printf "set-up %.3f s: build %.3f s, warm-up %.3f s (%d ops)\n"
    (Int64.to_float (t1 -- t0) /. 1e9)
    (Int64.to_float (t_warm -- t0) /. 1e9)
    (Int64.to_float (t1 -- t_warm) /. 1e9)
    warmup;
  (st, Int64.to_float (t1 -- t0) /. 1e9)

(* --- reporting ------------------------------------------------------ *)

(* Every metric is printed; [~json:false] ones stay out of the RESULT
   line because BENCHMARK.json does not list them for this mode. *)
let metrics = ref []
let metric ?(json = true) name value unit = metrics := (name, value, unit, json) :: !metrics

let json_metrics () =
  List.rev !metrics
  |> List.filter (fun (_, _, _, json) -> json)
  |> List.map (fun (n, v, u, _) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
  |> String.concat ", "

let print_metrics () =
  List.iter (fun (n, v, u, _) -> Printf.printf "  %-34s %14.6f %s\n" n v u) (List.rev !metrics)

let pct part whole = if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

let print_ledger title ~n ~wall parts =
  let acc = List.fold_left (fun a (_, v) -> a + v) 0 parts in
  Printf.printf "ledger %s: %d ops, wall %.3f ms\n" title n (float_of_int wall /. 1e6);
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-40s %12.3f ms %7.2f%%\n" name (float_of_int v /. 1e6) (pct v wall))
    (parts @ [ ("unaccounted", wall - acc) ]);
  pct (wall - acc) wall

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [a]'s sub-windows, oldest first, as (seconds, ops, ttft, ttc); a
   trailing stub shorter than half a sub-window joins its predecessor *)
let sub_windows (a : e2e) ~window_ns =
  let bounds =
    match (window_ns, a.ops, Lat.length a.ttc) :: a.marks with
    | (e, _, _) :: (m, _, _) :: (_ :: _ as rest)
      when Int64.mul (Int64.sub e m) 2L < sub_window_ns ->
        List.rev ((window_ns, a.ops, Lat.length a.ttc) :: rest)
    | all -> List.rev all
  in
  let rec subs = function
    | (t0, o0, q0) :: ((t1, o1, q1) :: _ as tl) ->
        ( Int64.to_float (Int64.sub t1 t0) /. 1e9,
          o1 - o0,
          Lat.sub a.ttft q0 q1,
          Lat.sub a.ttc q0 q1 )
        :: subs tl
    | _ -> []
  in
  subs bounds

let e2e_metrics (a : e2e) ~window_ns ~peak_mb =
  let subs = sub_windows a ~window_ns in
  let med f = median (List.map f subs) in
  metric "ops_per_s" (med (fun (secs, ops, _, _) -> float_of_int ops /. secs)) "op/s";
  metric "ttft_p50_us" (med (fun (_, _, ttft, _) -> Lat.q_us ttft 0.5)) "us";
  metric "ttft_p99_us" (med (fun (_, _, ttft, _) -> Lat.q_us ttft 0.99)) "us";
  metric "ttft_1ms_share" (med (fun (_, _, ttft, _) -> Lat.share_within ttft 1_000_000)) "ratio";
  metric "ttc_p50_us" (med (fun (_, _, _, ttc) -> Lat.q_us ttc 0.5)) "us";
  metric "ttc_p99_us" (med (fun (_, _, _, ttc) -> Lat.q_us ttc 0.99)) "us";
  metric "peak_heap_mb" peak_mb "MB";
  let secs = Int64.to_float window_ns /. 1e9 in
  Printf.printf
    "pooled over the whole window (%d sub-windows): %.1f op/s, ttft p50/p99 %.1f/%.1f us, \
     ttc p50/p99 %.1f/%.1f us\n"
    (List.length subs) (float_of_int a.ops /. secs) (Lat.q_us a.ttft 0.5) (Lat.q_us a.ttft 0.99)
    (Lat.q_us a.ttc 0.5) (Lat.q_us a.ttc 0.99)

let layer_metrics st (acc : e2e array) (ly : layer) ~window_ns =
  let f = float_of_int in
  let per a b = Lat.ratio a b in
  let cq = ly.cq and cd = ly.cd in
  let nq = ly.nq and nd = ly.nd in
  let dml = Lat.create () in
  Array.iter (fun a -> for i = 0 to Lat.length a.dml - 1 do Lat.add dml a.dml.Lat.a.(i) done) acc;
  metric "dml_p50_us" (Lat.q_us dml 0.5) "us";
  metric "dml_p99_us" (Lat.q_us dml 0.99) "us";
  metric "query.o1_us" (Lat.us (ly.o1 / max 1 nq)) "us";
  metric "query.h" (per ly.h nq) "count";
  metric "pmv.overhead_us_p50" (Lat.q_us ly.overhead 0.5) "us";
  metric "pmv.overhead_us_p99" (Lat.q_us ly.overhead 0.99) "us";
  metric "pmv.probe_hit_ratio" (per ly.probe_hits ly.probes) "ratio";
  metric "pmv.partial_share" (per ly.partials ly.delivered) "ratio";
  metric "pmv.partial_phase_us" (Lat.q_us ly.partial_phase 0.5) "us";
  metric "pmv.fills_per_query" (per ly.fills ly.n_stats) "count";
  metric "pmv.stale_purged_per_query" (per ly.stale ly.n_stats) "count";
  Array.iteri
    (fun i name ->
      metric (Printf.sprintf "pmv.shape.%s.ttc_p50_us" name) (Lat.q_us ly.shape_ttc.(i) 0.5) "us")
    shape_names;
  metric "pmv.exists_from_pmv_share" (per ly.exists_pmv ly.exists_n) "ratio";
  metric "pmv.view_hit_ratio" (per cq.(c_vhits) cq.(c_vq)) "ratio";
  let rows =
    List.concat_map
      (fun e -> Pmv.Manager.report (Engine.manager e))
      (Array.to_list st.s.Setup.engines)
  in
  metric "pmv.entries" (f (List.fold_left (fun a r -> a + r.Pmv.Manager.entries) 0 rows)) "count";
  metric "pmv.bytes" (f (List.fold_left (fun a r -> a + r.Pmv.Manager.bytes) 0 rows)) "B";
  metric "pmv.evictions_per_query" (per cq.(c_evict) nq) "count";
  metric "maintain.us_per_change_p50" (Lat.q_us ly.maint 0.5) "us";
  metric "maintain.us_per_change_p99" (Lat.q_us ly.maint 0.99) "us";
  metric "maintain.removed_per_change" (per cd.(c_removed) nd) "count";
  metric "maintain.skipped_updates" (f cd.(c_skipped)) "count";
  metric "maintain.pending_max" (f ly.pending_max) "count";
  metric "exec.o3_us_p50" (Lat.q_us ly.exec 0.5) "us";
  metric "exec.o3_us_p99" (Lat.q_us ly.exec 0.99) "us";
  metric "exec.plan_cache_hit_ratio"
    (per (cq.(c_pc_hits) + cd.(c_pc_hits))
       (cq.(c_pc_hits) + cd.(c_pc_hits) + cq.(c_pc_misses) + cd.(c_pc_misses)))
    "ratio";
  metric "exec.rows_per_result" (per ly.prof_rows ly.prof_results) "count";
  metric "storage.io_reads_per_query" (per cq.(c_reads) nq) "count";
  metric "storage.pool_hit_ratio"
    (per (cq.(c_hits) + cd.(c_hits)) (cq.(c_refs) + cd.(c_refs)))
    "ratio";
  metric "storage.io_writes_per_change" (per cd.(c_writes) nd) "count";
  metric "txn.apply_us_p50" (Lat.q_us ly.apply 0.5) "us";
  metric "txn.apply_us_p99" (Lat.q_us ly.apply 0.99) "us";
  let acq = cq.(c_lock_acq) + cd.(c_lock_acq) in
  metric "txn.lock_acquire_us" (Lat.us ((cq.(c_lock_ns) + cd.(c_lock_ns)) / max 1 acq)) "us";
  metric "txn.lock_conflicts" (f (cq.(c_lock_conf) + cd.(c_lock_conf))) "count";
  metric "wal.us_per_change" (Lat.us (ly.d_wal / max 1 nd)) "us";
  metric "wal.bytes_per_change" (per cd.(c_wal_bytes) nd) "B";
  metric "wal.flushes_per_change" (per cd.(c_wal_flushes) nd) "count";
  let routed = Option.is_some st.s.Setup.router in
  metric "router.fast_hit_ratio" (per cq.(c_fast) nq) "ratio";
  (* the router probe phase runs only on the Epoch read path, never
     under the default Locked one, so the figure is printed but not
     listed: it would read 0 on every run *)
  metric ~json:false "router.probe_us_p50"
    (match st.s.Setup.router with
    | Some r -> Lat.us (Int64.to_int (Router.probe_summary r).Histogram.p50)
    | None -> 0.0)
    "us";
  metric "router.shards_per_query" (if routed then per cq.(c_vq) nq else 0.0) "count";
  metric "router.shards_per_change" (if routed then per ly.shard_changes nd else 0.0) "count";
  metric "router.affinity_hit_ratio"
    (per cq.(c_aff_hits) (cq.(c_aff_hits) + cq.(c_aff_misses)))
    "ratio";
  metric "pool.submitted_per_query" (per cq.(c_submitted) nq) "count";
  metric "pool.steals_per_query" (per cq.(c_steals) nq) "count";
  metric "pool.parks_per_query" (per cq.(c_parks) nq) "count";
  metric "pool.task_exns" (f (cq.(c_exns) + cd.(c_exns))) "count";
  let uq =
    print_ledger "query" ~n:nq ~wall:ly.q_wall
      [
        ("query.o1 (decompose, re-timed outside)", ly.q_o1);
        ("pmv.answer o2+ds+fill (overhead_ns - o1)", ly.q_pmv);
        ("exec.o3 (exec_ns)", ly.q_exec);
        ("router.probe (probe_ns)", ly.q_probe);
        ("pmv.extensions exists (whole call)", ly.q_exists);
      ]
  in
  if ly.q_cpu_pmv + ly.q_cpu_exec > 0 then
    Printf.printf
      "  not in the ledger, CPU summed over shards of parallel fan-outs: o1 %.3f ms, \
       o2+ds+fill %.3f ms, o3 %.3f ms\n"
      (float_of_int ly.q_cpu_o1 /. 1e6) (float_of_int ly.q_cpu_pmv /. 1e6)
      (float_of_int ly.q_cpu_exec /. 1e6);
  let ud =
    print_ledger "dml" ~n:nd ~wall:ly.d_wall
      [
        ("txn.apply (call -> start hook)", ly.d_apply);
        ("wal (start -> mid hook)", ly.d_wal);
        ("pmv.maintain (mid -> finish hook)", ly.d_maint);
      ]
  in
  metric "ledger.query_unaccounted_pct" uq "%";
  metric "ledger.dml_unaccounted_pct" ud "%";
  let rate a =
    if a.busy = 0L then 0.0 else float_of_int a.ops /. (Int64.to_float a.busy /. 1e9)
  in
  let untraced = rate acc.(0) and traced = rate acc.(1) in
  (* The bounded end-to-end figures are sub-window medians, which a
     regression confined to a few sub-windows (a stall, a periodic
     rebuild, a tail burst) would not move. These read the traced
     run's untraced segments pooled over the whole window, and the
     worst of their sub-windows. *)
  let worst f = List.fold_left (fun m sw -> Float.max m (f sw)) 0.0 in
  let subs = sub_windows acc.(0) ~window_ns in
  metric "window.ops_per_s" untraced "op/s";
  metric "window.ttft_p99_us" (Lat.q_us acc.(0).ttft 0.99) "us";
  metric "window.ttc_p99_us" (Lat.q_us acc.(0).ttc 0.99) "us";
  metric "window.worst_ttft_p99_us" (worst (fun (_, _, t, _) -> Lat.q_us t 0.99) subs) "us";
  metric "window.worst_ttc_p99_us" (worst (fun (_, _, _, t) -> Lat.q_us t 0.99) subs) "us";
  metric "trace.overhead_pct"
    (if untraced = 0.0 then 0.0 else 100.0 *. (untraced -. traced) /. untraced)
    "%"

(* --- end-of-run checks --------------------------------------------- *)

let final_checks st =
  List.iter (fun judge -> judge ()) (List.rev st.deferred);
  Array.iter
    (fun e ->
      List.iter
        (fun v ->
          match Check.check_view v (Engine.catalog e) with
          | [] -> ()
          | problems ->
              fail st
                (Printf.sprintf "check_view %s on %s: %s" (Pmv.View.name v) (Engine.name e)
                   (String.concat "; " problems)))
        (Pmv.Manager.views (Engine.manager e)))
    st.s.Setup.engines;
  List.iter (fail st) (Setup.misplaced st.s)

(* --- command line --------------------------------------------------- *)

let () =
  let args = Array.to_list Stdlib.Sys.argv in
  let mode = match args with _ :: m :: _ -> m | _ -> "" in
  let rec opt key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: tl -> opt key tl
    | [] -> None
  in
  let req key =
    match opt key args with
    | Some v -> v
    | None ->
        prerr_endline ("e2e: missing " ^ key);
        exit 2
  in
  let wname = req "--workload" and seed = int_of_string (req "--seed") in
  let tmpdir = req "--tmpdir" in
  let w =
    match List.find_opt (fun w -> w.Setup.name = wname) Setup.workloads with
    | Some w -> w
    | None ->
        prerr_endline ("e2e: unknown workload " ^ wname);
        exit 2
  in
  let st, setup_s = build w ~seed ~tmpdir in
  match mode with
  | "replay" ->
      ignore (window st ~trace:false ~seconds:0.0 ~replica:true);
      Setup.shutdown st.s;
      Printf.printf "REPLAY {\"setup_s\": %.9f, \"fingerprint\": %S, \"failed\": %d}\n" setup_s
        st.fingerprint st.failed
  | "run" ->
      let seconds = float_of_string (req "--seconds") in
      let trace = req "--trace" = "1" in
      let acc, ly, window_ns, origin = window st ~trace ~seconds ~replica:false in
      if st.peak_words = 0 then st.peak_words <- top_heap_words ();
      final_checks st;
      let a0 = acc.(0) in
      let attempted = acc.(0).ops + acc.(1).ops + st.raised in
      Printf.printf
        "workload %s seed %d: scale %g, %d+%d+%d customers/orders/lineitems, %d shard(s), \
         %d domain(s) of %d cores\n"
        w.Setup.name seed Setup.scale st.s.Setup.counts.Minirel_workload.Tpcr.customers
        st.s.Setup.counts.Minirel_workload.Tpcr.orders
        st.s.Setup.counts.Minirel_workload.Tpcr.lineitems (max 1 w.Setup.shards)
        st.s.Setup.domains (Domain.recommended_domain_count ());
      Printf.printf
        "resources: view capacity %d bcp entries per template (x2 templates) in total, \
         buffer pool %d pages in total (data: %d heap pages; %d pages resident); zipf %.2f, \
         %d%% writes\n"
        w.Setup.capacity w.Setup.pool_pages (Setup.heap_pages st.s)
        (Array.fold_left
           (fun n e -> n + Buffer_pool.resident (Engine.pool e))
           0 st.s.Setup.engines)
        w.Setup.alpha w.Setup.write_pct;
      Printf.printf
        "window %.3f s: %d ops (%d untraced, %d traced), %d oracle checks, fingerprint %s\n"
        (Int64.to_float window_ns /. 1e9) (acc.(0).ops + acc.(1).ops) acc.(0).ops acc.(1).ops
        st.checks st.fingerprint;
      Printf.printf "samples: %d queries, %d transactions; error_rate %.6f ratio (%d failed)\n"
        (Lat.length a0.ttc) (Lat.length a0.dml)
        (Lat.ratio st.failed (max 1 attempted)) st.failed;
      List.iter (fun n -> Printf.printf "FAILURE: %s\n" n) (List.rev st.notes);
      if trace then begin
        layer_metrics st acc ly ~window_ns;
        write_spans
          (Filename.concat tmpdir (Printf.sprintf "spans-%s-%d.tsv" w.Setup.name seed))
          ~origin:(Int64.to_int origin)
      end
      else begin
        e2e_metrics a0 ~window_ns
          ~peak_mb:(float_of_int (st.peak_words * (Stdlib.Sys.word_size / 8)) /. 1e6);
        (* listed with the per-layer metrics, or not at all: not every
           workload writes, and a failure-free run reads 0 *)
        metric ~json:false "dml_p50_us" (Lat.q_us a0.dml 0.5) "us";
        metric ~json:false "dml_p99_us" (Lat.q_us a0.dml 0.99) "us";
        metric ~json:false "error_rate" (Lat.ratio st.failed (max 1 attempted)) "ratio"
      end;
      print_metrics ();
      Setup.shutdown st.s;
      Printf.printf
        "RESULT {\"setup_s\": %.9f, \"fingerprint\": %S, \"attempted\": %d, \"failed\": %d, \
         \"metrics\": {%s}}\n"
        setup_s st.fingerprint attempted st.failed (json_metrics ())
  | m ->
      prerr_endline ("e2e: unknown mode " ^ m);
      exit 2
