(* The system under test, built from the public API: one scoped engine,
   or a hash-partitioned Shard_router over scoped engines, with a PMV
   for each of T1 and T2, deferred maintenance, and (for writing
   workloads) a WAL on a file under the benchmark's scratch directory.

   Both shapes expose the same closures, so the serving loop in e2e.ml
   never branches on which one it drives. Everything here is set-up;
   nothing in this file is timed per operation. *)

open Minirel_storage
module Catalog = Minirel_index.Catalog
module Template = Minirel_query.Template
module Instance = Minirel_query.Instance
module Aggregate = Minirel_query.Aggregate
module Ordering = Minirel_query.Ordering
module Engine = Minirel_engine.Engine
module Router = Minirel_engine.Shard_router
module Pool = Minirel_parallel.Pool
module Txn = Minirel_txn.Txn
module Exec_stats = Minirel_exec.Exec_stats
module Tpcr = Minirel_workload.Tpcr
module Querygen = Minirel_workload.Querygen
module Check = Minirel_check.Check
module Answer = Pmv.Answer
module Ext = Pmv.Extensions

let scale = 0.02

(* Equal resources: [capacity] (bcp entries per template) and
   [pool_pages] are totals for the whole system; a sharded workload
   splits both evenly across its shards. *)
type workload = {
  name : string;
  alpha : float;  (* Zipf skew of every selection value *)
  write_pct : int;  (* share of operations that are one-change transactions *)
  shards : int;  (* 0: one engine, no router *)
  capacity : int;
  pool_pages : int;
}

let workloads =
  [
    (* T1's ~15k bcps and T2's far larger universe at alpha 1.07: 4096
       entries per template hold the hot set, and 4000 pages (the
       library default) hold every heap and index page. *)
    { name = "read_hot"; alpha = 1.07; write_pct = 0; shards = 0; capacity = 4096;
      pool_pages = 4000 };
    (* flatter skew, 256 entries per template and a quarter of the
       data's pages: O2 mostly misses and O3 runs against a cold pool *)
    { name = "read_cold"; alpha = 0.8; write_pct = 0; shards = 0; capacity = 256;
      pool_pages = 600 };
    (* read_hot's stream with one-change transactions: txn, WAL and
       deferred maintenance join the measured path *)
    { name = "write_mix"; alpha = 1.07; write_pct = 20; shards = 0; capacity = 4096;
      pool_pages = 4000 };
    (* write_mix's stream through four shards holding the same totals *)
    { name = "sharded_mix"; alpha = 1.07; write_pct = 20; shards = 4; capacity = 4096;
      pool_pages = 4000 };
  ]

(* What a shaped query returned, or what the oracle expects of it. *)
type result =
  | Rows of Tuple.t list  (* a multiset: plain and distinct *)
  | Groups of (Tuple.t * Value.t array) list  (* finalized, sorted by key *)
  | Seq of Tuple.t list  (* ordered first-k, in order *)
  | Bool of bool

type t = {
  engines : Engine.t array;
  router : Router.t option;
  par : Pool.t option;
  domains : int;  (* client domain plus pool workers *)
  t1 : Template.compiled;
  t2 : Template.compiled;
  params : Tpcr.params;
  counts : Tpcr.counts;
  plain :
    Exec_stats.t option -> Instance.t -> on_tuple:(Answer.phase -> Tuple.t -> unit) ->
    Answer.stats;
  distinct : Instance.t -> on_tuple:(Answer.phase -> Tuple.t -> unit) -> Answer.stats;
  grouped : Instance.t -> key:int array -> aggs:Aggregate.spec array -> Ext.grouped_exact;
  ordered : Instance.t -> order:Ordering.key array -> k:int -> Tuple.t list * Answer.stats;
  exists : Instance.t -> bool * [ `From_pmv | `Executed ];
  run : Txn.change -> unit;
  expect : Querygen.shape -> Instance.t -> result;  (* the oracle *)
  wal_files : string list;
}

let views t =
  Array.to_list t.engines |> List.concat_map (fun e -> Pmv.Manager.views (Engine.manager e))

(* Timing brackets from outside the library. Txn hooks run newest
   first, so registering [finish] before the views exist, [mid] after
   them but before the WAL, and [start] last splits every applied
   change into apply (call to [start]), WAL ([start] to [mid]) and
   maintenance ([mid] to [finish]). *)
type hooks = { start : Txn.delta -> unit; mid : Txn.delta -> unit; finish : Txn.delta -> unit }

let hook e name f = Txn.register_hook (Engine.txn_mgr e) ~name:("perfbench." ^ name) f

(* Check.ground_truth_grouped and _distinct read one catalog; these
   derive the same answers from the union of the shards' ground truths. *)
let groups_of rows ~key ~aggs =
  let tbl = Tuple.Table.create 64 in
  List.iter
    (fun t ->
      let k = Tuple.project t key in
      Tuple.Table.replace tbl k (t :: Option.value ~default:[] (Tuple.Table.find_opt tbl k)))
    rows;
  Tuple.Table.fold
    (fun k members out ->
      let accs = Aggregate.of_tuples aggs (List.rev members) in
      (k, Array.mapi (fun i acc -> Aggregate.finalize aggs.(i) acc) accs) :: out)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> Tuple.compare a b)

let dedup rows =
  let seen = Tuple.Table.create 64 in
  List.filter
    (fun t ->
      if Tuple.Table.mem seen t then false
      else begin
        Tuple.Table.replace seen t ();
        true
      end)
    rows

let view_of e inst =
  let name = (Instance.compiled inst).Template.spec.Template.name in
  Option.get (Engine.find_view e ~template:name)

let engine w ~seed ~hooks ~tmpdir =
  let pool = Buffer_pool.create ~capacity:w.pool_pages () in
  let catalog = Catalog.create pool in
  let params = Tpcr.params_for_scale ~seed scale in
  let counts = Tpcr.generate catalog params in
  let e = Engine.scoped ~catalog () in
  let t1 = Template.compile catalog Querygen.t1_spec in
  let t2 = Template.compile catalog Querygen.t2_spec in
  hook e "finish" hooks.finish;
  ignore (Engine.ensure_view ~capacity:w.capacity e t1);
  ignore (Engine.ensure_view ~capacity:w.capacity e t2);
  hook e "mid" hooks.mid;
  let wal_files =
    if w.write_pct = 0 then []
    else begin
      let f = Filename.concat tmpdir (Printf.sprintf "%s-%d.wal" w.name (Unix.getpid ())) in
      ignore (Engine.attach_wal e ~filename:f);
      [ f ]
    end
  in
  hook e "start" hooks.start;
  let locks = Engine.locks e in
  let path () = Engine.probe_path e in
  {
    engines = [| e |];
    router = None;
    par = None;
    domains = 1;
    t1;
    t2;
    params;
    counts;
    plain = (fun profile inst ~on_tuple -> fst (Engine.answer ?profile e inst ~on_tuple));
    distinct =
      (fun inst ~on_tuple ->
        fst
          (Ext.answer_distinct ~locks ~probe_path:(path ()) ~view:(view_of e inst) catalog inst
             ~on_tuple));
    grouped =
      (fun inst ~key ~aggs ->
        Ext.answer_groups ~locks ~probe_path:(path ()) ~view:(view_of e inst) catalog inst ~key
          ~aggs);
    ordered =
      (fun inst ~order ~k ->
        Ext.answer_ordered_k ~locks ~probe_path:(path ()) ~view:(view_of e inst) catalog inst
          ~order ~k);
    exists = (fun inst -> Ext.exists_ ~probe_path:(path ()) ~view:(view_of e inst) catalog inst);
    run = (fun c -> ignore (Engine.run e [ c ]));
    expect =
      (fun shape inst ->
        match shape with
        | Querygen.Plain -> Rows (Check.ground_truth catalog inst)
        | Querygen.Distinct -> Rows (Check.ground_truth_distinct catalog inst)
        | Querygen.Grouped { key; aggs } ->
            Groups (Check.ground_truth_grouped catalog inst ~key ~aggs)
        | Querygen.Ordered { order; k } ->
            Seq (Check.ground_truth_ordered catalog inst ~order ~limit:k ())
        | Querygen.Exists -> Bool (Check.ground_truth_exists catalog inst));
    wal_files;
  }

(* orders and lineitem co-partitioned on orderkey, customer replicated:
   every T1/T2 join is shard-local, so the union of the shards'
   full-scan ground truths is the global one. *)
let sharded w ~seed ~hooks ~tmpdir =
  let shards = w.shards in
  let src = Catalog.create (Buffer_pool.create ~capacity:w.pool_pages ()) in
  let params = Tpcr.params_for_scale ~seed scale in
  let counts = Tpcr.generate src params in
  let t1 = Template.compile src Querygen.t1_spec in
  let t2 = Template.compile src Querygen.t2_spec in
  let r = Router.create ~pool_capacity:(w.pool_pages / shards) ~shards () in
  List.iter
    (fun rel -> Router.declare r (Catalog.schema src rel) ~part:(`Hash "orderkey"))
    [ "orders"; "lineitem" ];
  Router.declare r (Catalog.schema src "customer") ~part:`Replicated;
  Router.load_from r src;
  let engines = Array.of_list (Router.shards r) in
  Array.iter (fun e -> hook e "finish" hooks.finish) engines;
  ignore (Router.create_view ~capacity:(w.capacity / shards) r t1);
  ignore (Router.create_view ~capacity:(w.capacity / shards) r t2);
  Array.iter (fun e -> hook e "mid" hooks.mid) engines;
  let wal_files =
    Array.to_list
      (Array.mapi
         (fun i e ->
           let f =
             Filename.concat tmpdir (Printf.sprintf "%s-%d-s%d.wal" w.name (Unix.getpid ()) i)
           in
           ignore (Engine.attach_wal e ~filename:f);
           f)
         engines)
  in
  Array.iter (fun e -> hook e "start" hooks.start) engines;
  (* The client domain plus the workers never exceed the host's cores.
     The router and the executor ignore pools of fewer than two
     workers, so a 2-core host gets none: an idle extra domain would
     only add its share of every stop-the-world minor collection. *)
  let workers = Domain.recommended_domain_count () - 1 in
  let par = if workers >= 2 then Some (Pool.create ~domains:workers) else None in
  Router.set_parallel r par;
  let truth inst =
    List.concat_map (fun e -> Check.ground_truth (Engine.catalog e) inst) (Array.to_list engines)
  in
  {
    engines;
    router = Some r;
    par;
    domains = (if Option.is_none par then 1 else 1 + workers);
    t1;
    t2;
    params;
    counts;
    plain = (fun profile inst ~on_tuple -> fst (Router.answer ?profile r inst ~on_tuple));
    (* the router has no DISTINCT entry point: dedupe the merged stream
       client-side, as the sharded torture campaign does *)
    distinct =
      (fun inst ~on_tuple ->
        let seen = Tuple.Table.create 64 in
        fst
          (Router.answer r inst ~on_tuple:(fun phase t ->
               if not (Tuple.Table.mem seen t) then begin
                 Tuple.Table.replace seen t ();
                 on_tuple phase t
               end)));
    grouped = (fun inst ~key ~aggs -> fst (Router.answer_grouped r inst ~key ~aggs));
    ordered = (fun inst ~order ~k -> Router.answer_ordered_k r inst ~order ~k);
    exists = (fun inst -> Router.exists_ r inst);
    run = (fun c -> ignore (Router.run r [ c ]));
    expect =
      (fun shape inst ->
        let rows = truth inst in
        match shape with
        | Querygen.Plain -> Rows rows
        | Querygen.Distinct -> Rows (dedup rows)
        | Querygen.Grouped { key; aggs } -> Groups (groups_of rows ~key ~aggs)
        | Querygen.Ordered { order; k } -> Seq (Ordering.first_k ~order ~k rows)
        | Querygen.Exists -> Bool (rows <> []));
    wal_files;
  }

let create w ~seed ~hooks ~tmpdir =
  if w.shards = 0 then engine w ~seed ~hooks ~tmpdir else sharded w ~seed ~hooks ~tmpdir

(* Every orders/lineitem row must sit on the shard owning its
   orderkey; [] for a single engine. *)
let misplaced t =
  match t.router with
  | None -> []
  | Some r ->
      List.concat_map
        (fun rel ->
          List.concat
            (List.mapi
               (fun i e ->
                 Heap_file.fold
                   (Catalog.heap (Engine.catalog e) rel)
                   (fun acc _ tup ->
                     if Router.shard_of_value r tup.(0) <> i then
                       Printf.sprintf "%s row on shard %d belongs to shard %d" rel i
                         (Router.shard_of_value r tup.(0))
                       :: acc
                     else acc)
                   [])
               (Array.to_list t.engines)))
        [ "orders"; "lineitem" ]

let shutdown t =
  (match t.router with
  | Some r -> Router.shutdown r
  | None -> Array.iter Engine.shutdown t.engines);
  Option.iter Pool.shutdown t.par;
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) t.wal_files

(* Heap pages of the base data, summed over engines (replicas count
   once per shard). *)
let heap_pages t =
  Array.fold_left
    (fun n e ->
      let c = Engine.catalog e in
      List.fold_left (fun n rel -> n + Heap_file.n_pages (Catalog.heap c rel)) n
        (Catalog.relations c))
    0 t.engines
