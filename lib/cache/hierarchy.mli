(** Two-level cache hierarchy (split L1 + shared LLC) with the timing model
    the simulated attacks measure.

    The latencies follow the usual Skylake-class ballpark (L1 ~4 cycles, LLC
    ~42, DRAM ~200); [clflush] is slower when the line is actually cached,
    which is the timing channel Flush+Flush exploits.  Accesses allocate
    nothing: they return the level that served them, whose latency
    {!latency} gives. *)

type latencies = {
  l1_hit : int;
  llc_hit : int;
  memory : int;
  flush_present : int;  (** clflush of a cached line *)
  flush_absent : int;   (** clflush of an uncached line *)
}

val default_latencies : latencies

type t

(** The level that served an access. *)
type level =
  | L1      (** hit in the private L1 *)
  | Llc     (** L1 miss, LLC hit *)
  | Memory  (** missed both levels *)

val create : ?l1d:Config.t -> ?l1i:Config.t -> ?llc:Config.t ->
  ?latencies:latencies -> ?policy:Policy.t -> ?inclusive:bool ->
  ?prefetch:bool -> unit -> t
(** [policy] applies to every level and defaults to {!Policy.Lru}.
    [inclusive] (default true) controls whether LLC evictions back-invalidate
    the L1s — Evict+Reload needs it.  [prefetch] (default false) enables a
    next-line prefetcher on demand-load L1 misses. *)

val create_cross_core :
  ?l1d:Config.t -> ?l1i:Config.t -> ?llc:Config.t -> ?latencies:latencies ->
  ?policy:Policy.t -> ?inclusive:bool -> ?prefetch:bool -> unit -> t * t
(** Two cores with private L1s sharing one LLC (the cross-core LLC-attack
    topology).  [clflush] and inclusive back-invalidation propagate into the
    peer's private L1s, as cache coherence does.  {!create} by contrast
    models SMT co-residency: one core, every level shared. *)

val load : t -> owner:Owner.t -> int -> level
(** Data load at a byte address; fills L1D and LLC on miss. *)

val store : t -> owner:Owner.t -> int -> level
(** Data store (write-allocate). *)

val ifetch : t -> owner:Owner.t -> int -> level
(** Instruction fetch through L1I + LLC. *)

val latency : t -> level -> int
(** Cycles an access served at the given level costs. *)

val flush : t -> int -> int
(** [flush t addr] invalidates the address's line in every level; returns the
    operation's latency (present vs absent timing). *)

val states : t -> State.t * State.t * State.t
(** The paper's [(AO, IO)] state of each level: L1D, L1I and LLC. *)

val reset : t -> unit
(** Restore exactly the state {!create} builds, so one hierarchy can serve
    run after run.  On a cross-core view this resets its own L1s and the
    shared LLC, not the peer's L1s. *)
