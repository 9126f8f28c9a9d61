(* A simulated buffer pool. All page contents live in memory; the pool
   only tracks which (file, page) pairs are resident and charges logical
   I/Os for the accesses that would have missed. Replacement is
   pluggable (CLOCK by default, matching common engine defaults).

   Simplification, documented in DESIGN.md: a write miss admits the page
   without charging a read (covers appends); a read miss charges one
   read; evicting or flushing a dirty page charges one write. *)

type key = int (* file lsl page_bits lor page *)

let page_bits = 32
let max_files = 1 lsl (Sys.int_size - 1 - page_bits)
let key ~file ~page = (file lsl page_bits) lor page
let file_of_key key = key lsr page_bits

type t = {
  policy : key Minirel_cache.Policy.t;
  dirty : (key, unit) Hashtbl.t;
  stats : Io_stats.t;
  fault : Minirel_fault.Fault.reg;
  mutable next_file_id : int;
  (* Serialises policy/dirty/stats mutation: morsel scans on the Domain
     pool hit one shared pool. Per-page, not per-tuple — a page access
     amortises over every tuple on the page — so the uncontended cost
     stays in the noise of the simulated I/O accounting. *)
  lock : Mutex.t;
}

let create ?(policy = Minirel_cache.Policies.Clock)
    ?(fault = Minirel_fault.Fault.default) ~capacity () =
  let policy = Minirel_cache.Policies.make policy ~capacity in
  let t =
    {
      policy;
      dirty = Hashtbl.create 1024;
      stats = Io_stats.create ();
      fault;
      next_file_id = 0;
      lock = Mutex.create ();
    }
  in
  Minirel_cache.Policy.set_on_evict policy (fun key ->
      if Hashtbl.mem t.dirty key then begin
        Hashtbl.remove t.dirty key;
        Io_stats.add_write t.stats
      end);
  t

let stats t = t.stats
let policy_stats t = Minirel_cache.Policy.stats t.policy
let capacity t = Minirel_cache.Policy.capacity t.policy
let resident t = Minirel_cache.Policy.size t.policy

(* One reset for both counter families: Io_stats.reset alone used to
   leave the policy's hit/miss counters running, skewing back-to-back
   experiment readouts. *)
let reset_stats t =
  Io_stats.reset t.stats;
  Minirel_cache.Cache_stats.reset (policy_stats t)

let register_telemetry ?(registry = Minirel_telemetry.Registry.default)
    ?(name = "bufferpool") t =
  let module R = Minirel_telemetry.Registry in
  R.register_source registry ~name
    ~reset:(fun () -> reset_stats t)
    (fun () ->
      List.map (fun (k, v) -> (k, R.Counter v)) (Io_stats.to_list t.stats)
      @ List.map
          (fun (k, v) -> ("policy." ^ k, R.Counter v))
          (Minirel_cache.Cache_stats.to_list (policy_stats t))
      @ [
          ("resident", R.Gauge (float_of_int (resident t)));
          ("capacity", R.Gauge (float_of_int (capacity t)));
          ("dirty", R.Gauge (float_of_int (Hashtbl.length t.dirty)));
        ])

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Allocate a fresh file id for a heap file or an index. *)
let register_file t =
  locked t (fun () ->
      let id = t.next_file_id in
      if id >= max_files then invalid_arg "Buffer_pool.register_file: out of file ids";
      t.next_file_id <- id + 1;
      id)

let access t ~file ~page ~mode =
  (* The fault probe stays outside the lock: [Injected] must not leave
     the pool mutex held. *)
  (match mode with
  | `Read -> Minirel_fault.Fault.hit_in t.fault "bufferpool.read"
  | `Write -> Minirel_fault.Fault.hit_in t.fault "bufferpool.write");
  if page < 0 || page lsr page_bits <> 0 then
    invalid_arg "Buffer_pool.access: page outside [0, 2^32)";
  let key = key ~file ~page in
  (* per-page path: the body cannot raise (the policies and the
     eviction callback only update tables and counters), so skip the
     Fun.protect closure and pair the lock/unlock directly *)
  Mutex.lock t.lock;
  (match Minirel_cache.Policy.reference t.policy key with
  | `Resident -> ()
  | `Admitted ->
      (* 2Q ghost promotion: the page was not held, so it is fetched now *)
      (match mode with `Read -> Io_stats.add_read t.stats | `Write -> ())
  | `Rejected ->
      (* miss: fetch (reads only; a write miss models an append) and,
         for policies that admit on fill, make the page resident *)
      (match mode with `Read -> Io_stats.add_read t.stats | `Write -> ());
      if Minirel_cache.Policy.admit_on_fill t.policy then
        Minirel_cache.Policy.admit t.policy key);
  (match mode with `Write -> Hashtbl.replace t.dirty key () | `Read -> ());
  Mutex.unlock t.lock

let flush t =
  locked t (fun () ->
      Hashtbl.iter (fun _ () -> Io_stats.add_write t.stats) t.dirty;
      Hashtbl.reset t.dirty)

(* Drop every resident page of [file], without write-back accounting;
   used when a relation is rebuilt. The removal order decides which
   freed CLOCK slot later admissions reuse, so it is fixed here
   (descending page, i.e. slots handed back in ascending page order)
   rather than left to the policy's hash-table layout. *)
let invalidate_file t ~file =
  locked t (fun () ->
      let doomed = ref [] in
      Minirel_cache.Policy.iter t.policy (fun key ->
          if file_of_key key = file then doomed := key :: !doomed);
      List.iter
        (fun key ->
          Minirel_cache.Policy.remove t.policy key;
          Hashtbl.remove t.dirty key)
        (List.sort (fun a b -> Int.compare b a) !doomed))
