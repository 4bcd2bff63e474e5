(** Int-keyed hash table of ints with open addressing (linear probing).

    For hot loops that map ints to ints (the simulator's memory and
    branch-target buffer, the cache-set overlap of relevant-block
    identification): {!find} and {!replace} allocate nothing once the table
    has room, unlike [Hashtbl], whose lookups box an option and whose
    inserts allocate a bucket.  Keys are never removed.  Not thread-safe. *)

type t

val create : int -> t
(** [create n] is an empty table with room for about [n] keys before it
    first grows. *)

val find : t -> int -> default:int -> int
(** The value bound to a key, or [default] when the key is absent. *)

val mem : t -> int -> bool

val replace : t -> int -> int -> unit
(** Bind a key, replacing any previous binding. *)

val fold : t -> init:'a -> f:(int -> int -> 'a -> 'a) -> 'a
(** Fold over all bindings (key, value) in unspecified order. *)
