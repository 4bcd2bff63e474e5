(** The execution engine.

    Runs a program to completion on a simulated core with: split L1 + LLC
    caches, a 2-bit branch predictor, bounded transient execution on
    mispredicted conditional branches (whose cache side effects persist after
    the squash — the property Spectre-style attacks need), and optional
    round-robin interleaving with a victim program sharing the caches.

    While the main ("attacker") program runs, every HPC event of Table I is
    recorded against the address of the instruction causing it, and every
    data access and flush is recorded with its target address and cycle
    timestamp — the simulation stands in for perf-intel-pt and Intel PT. *)

type settings = {
  spec_window : int;
    (** max transiently executed instructions per mispredict; 0 disables
        transient execution *)
  quantum : int;         (** main-program instructions per scheduling slice *)
  victim_quantum : int;  (** victim instructions per slice *)
  fuel : int;            (** hard bound on main-program instructions *)
  protected_range : (int * int) option;
    (** [Some (lo, hi)]: kernel-style protected memory [lo, hi).  An
        architectural load from it faults — but, as on pre-KAISER hardware,
        the fault retires late enough that the load's dependents execute
        transiently and leave cache footprints: the Meltdown window.  The
        faulting program continues at the label {!fault_handler_label} if it
        binds one (a signal handler), else it is killed. *)
}

val default_settings : settings
(** [spec_window = 48], [quantum = 64], [victim_quantum = 64],
    [fuel = 2_000_000], [protected_range = None]. *)

val fault_handler_label : string
(** ["__fault_handler"] — bind this label to install a fault handler. *)

type result = {
  instructions : int;        (** main-program instructions retired *)
  cycles : int;              (** final value of the shared cycle clock *)
  halted_normally : bool;    (** [true] if the program reached [Halt]/fell off
                                 the end; [false] if fuel ran out *)
  collector : Hpc.Collector.t;  (** runtime data of the main program *)
  hierarchy : Cache.Hierarchy.t;  (** final cache state *)
  machine : Machine.t;       (** final architectural state of the main program *)
}

val run :
  ?settings:settings ->
  ?hierarchy:Cache.Hierarchy.t ->
  ?victim_hierarchy:Cache.Hierarchy.t ->
  ?init:(Machine.t -> unit) ->
  ?victim:Isa.Program.t * (Machine.t -> unit) ->
  Isa.Program.t ->
  result
(** [run prog] executes [prog] as the attacker-owned main program.  [init]
    prepares its memory/registers.  [victim] is an optional co-running
    program (cache owner [Victim]) that is restarted whenever it halts, so it
    behaves as a continuously active process.  By default the victim shares
    [hierarchy] (SMT co-residency); pass the second half of
    {!Cache.Hierarchy.create_cross_core} as [victim_hierarchy] for the
    cross-core topology (private L1s, shared LLC). *)
