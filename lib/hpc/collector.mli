(** Runtime data collection — the stand-in for perf-intel-pt + Intel PT.

    The CPU simulator reports, per executed instruction: HPC events keyed by
    the instruction, and every memory access / flush with its target address
    and timestamp.  SCAGuard later maps this data onto basic blocks
    (§III-A1).

    A collector is sized from its program: counters, execution counts and
    first retirement times live in flat arrays indexed by instruction index,
    and the access log is a struct of growable arrays, so recording
    allocates nothing but the log's occasional doubling.  Queries take an
    instruction address ([pc]); addresses outside the program read as never
    executed. *)

type access_kind = Load | Store | Flush

type access = {
  pc : int;          (** address of the instruction performing the access *)
  target : int;      (** accessed (or flushed) byte address *)
  kind : access_kind;
  time : int;        (** cycle timestamp *)
}

type t

val create : Isa.Program.t -> t
(** An empty collector for one run of the program. *)

val record_event : t -> idx:int -> Event.t -> unit
(** Count an event against the instruction at index [idx]. *)

val record_access :
  t -> idx:int -> target:int -> kind:access_kind -> time:int -> unit
(** Append an access by the instruction at index [idx] to the log. *)

val note_executed : t -> idx:int -> time:int -> unit
(** Record that the instruction at index [idx] retired at [time]; keeps the
    first time per instruction (the BB-ordering timestamp of §III-A3) and
    counts executions. *)

val exec_count : t -> pc:int -> int
(** How many times the instruction at [pc] retired. *)

val counters_at : t -> pc:int -> Counters.t option
(** Counter bank of one instruction address, if any event fired there (a
    fresh copy). *)

val hpc_value_at : t -> pc:int -> int
(** Summed 11-event HPC value at one address (0 when nothing fired). *)

val total_counters : t -> Counters.t
(** All events summed over the whole run — the whole-process view the
    learning-based baselines sample. *)

val accesses : t -> access list
(** All recorded accesses in chronological order. *)

val access_count : t -> int

val access_index : t -> int -> int
(** [access_index t i] is the instruction index of the [i]th access
    (chronological, from 0); with {!access_target} and {!access_kind} it
    reads the log in place, without building {!accesses}. *)

val access_target : t -> int -> int
val access_kind : t -> int -> access_kind

val first_time : t -> pc:int -> int option
(** First retirement time of the instruction at [pc]. *)

val executed_pcs : t -> int list
(** Distinct executed instruction addresses, ascending. *)
