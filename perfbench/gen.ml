(* The benchmark's seeded operation stream: T1/T2 queries in the
   Section 3.6 shape mix, interleaved with single-change transactions.

   Every proportion is taken from code already in the repository. The
   torture driver's generators are private to lib/check, so this
   mirrors them: T1 draws 1-3 dates and 1-2 suppliers, the shape draw
   keeps ~60% plain and splits the rest evenly over
   distinct/grouped/ordered-k/exists, and the change mix is the
   torture driver's [gen_change] table (inserts, deletes and updates on
   orders/lineitem; three relevant updates and one irrelevant one). The
   torture driver draws T1 only; the T1:T2 split and T2's parameters
   come from the plan-cache and telemetry benches, which alternate T1
   and T2 query by query and draw T2 with e=3, f=2, g=2. The
   stream depends only on the seed, the data's row counts and the
   workload's skew and write share: never on what the system answers. *)

open Minirel_storage
module SM = Minirel_prng.Split_mix
module Zipf = Minirel_workload.Zipf
module Tpcr = Minirel_workload.Tpcr
module Querygen = Minirel_workload.Querygen
module Template = Minirel_query.Template
module Instance = Minirel_query.Instance
module Predicate = Minirel_query.Predicate
module Txn = Minirel_txn.Txn

type op =
  | Query of { inst : Instance.t; shape : Querygen.shape }
  | Change of Txn.change

type t = {
  rng : SM.t;
  t1 : Template.compiled;
  t2 : Template.compiled;
  dates : Zipf.t;
  supps : Zipf.t;
  nations : Zipf.t;
  customers : int;
  write_pct : int;
  mutable queries : int;  (* queries drawn so far: even ones are T1 *)
  mutable next_orderkey : int;
  mutable digest : int64;  (* FNV-1a over every op drawn so far *)
}

let create ~seed ~alpha ~write_pct ~(params : Tpcr.params) ~(counts : Tpcr.counts) ~t1 ~t2 =
  {
    rng = SM.create ~seed;
    t1;
    t2;
    dates = Zipf.create ~n:params.Tpcr.n_dates ~alpha;
    supps = Zipf.create ~n:params.Tpcr.n_suppliers ~alpha;
    nations = Zipf.create ~n:params.Tpcr.n_nations ~alpha;
    customers = counts.Tpcr.customers;
    write_pct;
    queries = 0;
    next_orderkey = counts.Tpcr.orders + 1;
    digest = 0xcbf29ce484222325L;
  }

let digest g = Printf.sprintf "%016Lx" g.digest

let mix g x =
  g.digest <- Int64.mul (Int64.logxor g.digest (Int64.of_int x)) 0x100000001b3L

let int g bound = SM.int g.rng ~bound
let price g = Value.Float (float_of_int (int g 1_000_000) /. 100.0)
let date g = Querygen.value_of_rank (Zipf.sample g.dates g.rng)
let supp g = Querygen.value_of_rank (Zipf.sample g.supps g.rng)
let orderkey g = 1 + int g (g.next_orderkey - 1)
let on_orderkey k = Predicate.Cmp (Predicate.Eq, 0, Value.Int k)

(* The torture driver's change table, percentages unchanged. *)
let change g =
  let r = int g 100 in
  if r < 18 then begin
    let ok = g.next_orderkey in
    g.next_orderkey <- ok + 1;
    Txn.Insert
      {
        rel = "orders";
        tuple =
          [| Value.Int ok; Value.Int (1 + int g g.customers); date g; price g; Value.Str "" |];
      }
  end
  else if r < 38 then
    Txn.Insert
      {
        rel = "lineitem";
        tuple =
          [|
            Value.Int (orderkey g);
            supp g;
            Value.Int (1 + int g 10);
            Value.Int (1 + int g 50);
            price g;
            Value.Str "";
          |];
      }
  else if r < 52 then Txn.Delete { rel = "lineitem"; pred = on_orderkey (orderkey g) }
  else if r < 62 then Txn.Delete { rel = "orders"; pred = on_orderkey (orderkey g) }
  else if r < 76 then
    Txn.Update { rel = "lineitem"; pred = on_orderkey (orderkey g); set = [ (1, supp g) ] }
  else if r < 86 then
    Txn.Update
      {
        rel = "lineitem";
        pred = on_orderkey (orderkey g);
        set = [ (3, Value.Int (1 + int g 50)) ];
      }
  else if r < 94 then
    Txn.Update { rel = "orders"; pred = on_orderkey (orderkey g); set = [ (2, date g) ] }
  else
    Txn.Update { rel = "lineitem"; pred = on_orderkey (orderkey g); set = [ (5, Value.Str "x") ] }

(* T1 and T2 alternate, as in the plan-cache and telemetry benches. T1
   takes the torture driver's ranges (h = e*f <= 6), T2 those benches'
   fixed e=3, f=2, g=2 (h = 12). *)
let instance g =
  let i = g.queries in
  g.queries <- i + 1;
  if i mod 2 = 0 then
    let e = 1 + int g 3 and f = 1 + int g 2 in
    Querygen.gen_t1 g.t1 ~dates_zipf:g.dates ~supp_zipf:g.supps ~e ~f g.rng
  else
    Querygen.gen_t2 g.t2 ~dates_zipf:g.dates ~supp_zipf:g.supps ~nation_zipf:g.nations ~e:3 ~f:2
      ~g:2 g.rng

(* The torture driver's shape draw: 6 in 10 plain, the rest spread over
   the template's other shape classes. *)
let shape g compiled =
  let k = 1 + int g 8 in
  let r = int g 10 in
  match Querygen.shapes_for compiled ~k with
  | _ :: (_ :: _ as rest) when r >= 6 -> List.nth rest ((r - 6) mod List.length rest)
  | _ -> Querygen.Plain

let next g =
  if int g 100 < g.write_pct then begin
    let c = change g in
    mix g (Hashtbl.hash c);
    Change c
  end
  else begin
    let inst = instance g in
    let shape = shape g (Instance.compiled inst) in
    mix g (Hashtbl.hash (Instance.params inst));
    mix g (Hashtbl.hash shape);
    Query { inst; shape }
  end
