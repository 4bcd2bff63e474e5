(** Branch prediction: a table of 2-bit saturating counters indexed by branch
    address, plus a branch-target-buffer presence set (its cold misses feed
    the "Branch Load Miss" HPC event).

    Spectre-style attacks rely on training these counters: repeated taken (or
    not-taken) outcomes steer the transient path at the mispredicted
    occurrence. *)

type t

val create : ?entries:int -> unit -> t
(** [entries] must be a power of two (default 1024). *)

val predict_taken : t -> pc:int -> bool
(** Current prediction for the conditional branch at [pc]. *)

val update : t -> pc:int -> taken:bool -> unit
(** Train with the resolved outcome. *)

val btb_seen : t -> pc:int -> bool
(** Whether the branch at [pc] has a BTB entry. *)

val btb_insert : t -> pc:int -> unit

