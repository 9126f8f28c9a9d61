(** A simulated buffer pool. Page contents stay in memory; the pool
    tracks which (file, page) pairs are resident under a pluggable
    replacement policy (CLOCK by default) and charges logical I/Os for
    the accesses that would have missed: reads on read misses, writes
    when dirty pages are evicted or flushed. A write miss admits the
    page without charging a read (it models an append). *)

type t

(** [fault] is the failpoint scope the pool's probes fire in (default:
    the process-global registry).
    @raise Invalid_argument if [capacity <= 0]. *)
val create :
  ?policy:Minirel_cache.Policies.kind ->
  ?fault:Minirel_fault.Fault.reg ->
  capacity:int ->
  unit ->
  t

val stats : t -> Io_stats.t

(** The replacement policy's hit/miss/eviction counters. *)
val policy_stats : t -> Minirel_cache.Cache_stats.t

val capacity : t -> int

(** Number of currently resident pages. *)
val resident : t -> int

(** Allocate a fresh file id for a heap file or a simulated index file.
    @raise Invalid_argument once 2^30 ids have been handed out. *)
val register_file : t -> int

(** Record one page access, charging I/O on a miss and marking the page
    dirty on writes. An access to a resident page allocates nothing
    while the fault registry is disabled.
    @raise Invalid_argument if [page] lies outside \[0, 2^32). *)
val access : t -> file:int -> page:int -> mode:[ `Read | `Write ] -> unit

(** Write back every dirty page (one write charge each). *)
val flush : t -> unit

(** Drop every resident page of [file] without write-back accounting;
    for relations rebuilt from scratch. *)
val invalidate_file : t -> file:int -> unit

(** Reset the logical I/O counters {e and} the policy's counters in one
    step (historically the two drifted apart between experiment runs). *)
val reset_stats : t -> unit

(** Register this pool as telemetry source [name] (default
    ["bufferpool"]): I/O counters, policy counters, residency and
    capacity gauges. The registry's reset then goes through
    {!reset_stats}. *)
val register_telemetry :
  ?registry:Minirel_telemetry.Registry.t -> ?name:string -> t -> unit
