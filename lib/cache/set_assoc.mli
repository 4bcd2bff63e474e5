(** One set-associative cache level with a choice of replacement policy
    (LRU, FIFO or seeded random; see {!Policy.t}), flush support and
    per-owner occupancy accounting.

    Lines are stored as flat arrays indexed [set * ways + way] (tag, owner
    and LRU/fill stamp), so a lookup allocates nothing. *)

type t

val create : ?policy:Policy.t -> Config.t -> t
(** [policy] defaults to {!Policy.Lru}. *)

val config : t -> Config.t
val policy : t -> Policy.t

val access : t -> owner:Owner.t -> int -> bool
(** [access t ~owner addr] looks up the line of [addr] and returns whether
    it hit.  On a miss the line is filled (victim selection on a full set
    follows the cache's {!Policy.t}) and ownership is recorded; on a hit the
    line is promoted to MRU (except under FIFO) and ownership is
    {e re-assigned} to [owner] (matching shared-memory attacks where the
    attacker re-loads a victim-fetched line).  {!evicted} reports the line
    a miss displaced. *)

val evicted : t -> int
(** Base address of the valid line the last {!access} evicted, or [-1]
    when it evicted none (a hit, or a fill into an invalid way). *)

val probe : t -> int -> bool
(** [probe t addr] reports presence without touching LRU state. *)

val flush : t -> int -> bool
(** [flush t addr] invalidates the line of [addr]; returns whether it was
    present. *)

val fill_all : t -> owner:Owner.t -> unit
(** Fill every line with distinct addresses owned by [owner] (used to start
    CST measurement from [(AO=0, IO=1)]). *)

val reset : t -> unit
(** Restore exactly the state {!create} builds: every line invalid, the
    stamp clock and the [Random] policy's generator back at their start. *)

val occupancy : t -> Owner.t -> float
(** Fraction of all lines currently owned by the given owner. *)

val state : t -> State.t
(** The paper's cache state: [AO] = occupancy of [Attacker], [IO] = summed
    occupancy of [Victim] and [System]. *)

val owned_sets : t -> Owner.t -> int list
(** Set indices holding at least one line of the given owner (ascending). *)

val valid_lines : t -> int
(** Number of currently valid lines. *)
