(** A bounded, lock-free, never-blocking capture sink.

    The one buffer behind every observation artifact: spans ([Obs]), log
    events ([Log]) and provenance records ([Provenance]).  Pushes are a
    lock-free Treiber-stack push, safe from any domain; once [capacity]
    items are held, further pushes are counted in {!dropped} and discarded
    — the emitter never waits and memory never grows past the bound.
    Items are returned in the order the sink was created with, so callers
    that stamp a sequence number or timestamp get a deterministic drain. *)

type 'a t

val create : capacity:int -> order:('a -> 'a -> int) -> 'a t
(** An empty sink holding at most [capacity] items, drained sorted by
    [order].  @raise Invalid_argument if [capacity < 1]. *)

val push : 'a t -> 'a -> unit
(** Add one item, or count it in {!dropped} when the sink is full.
    Lock-free; never blocks. *)

val contents : 'a t -> 'a list
(** The held items sorted by the sink's [order], without removing them. *)

val dropped : 'a t -> int
(** Pushes discarded because the sink was full, since the last {!clear}. *)

val clear : 'a t -> unit
(** Drop every held item and reset {!dropped} to 0. *)

val isolate : 'a t -> (unit -> 'b) -> 'b * 'a list
(** [isolate t f] runs [f] against an empty sink and returns [f]'s result
    with exactly the items pushed during it (sorted); the items held before
    the call are restored afterwards, also when [f] raises.  Pushes that
    overflow inside [f] still count in {!dropped}.  Other domains must push
    only from within [f]'s dynamic extent, or their items land in [f]'s
    capture. *)
