(** Architectural state of one simulated hardware thread: register file,
    flags, sparse byte-addressed memory and program counter (as an
    instruction index into its program). *)

type t

val create : ?stack_top:int -> unit -> t
(** Fresh state: registers zero except RSP = [stack_top] (default
    [0x7FFF_06C0], chosen off the cache sets attacks monitor), flags clear,
    empty memory, pc 0. *)

val get_reg : t -> Isa.Reg.t -> int
val set_reg : t -> Isa.Reg.t -> int -> unit

val load : t -> int -> int
(** Architectural memory read; uninitialized locations read as 0. *)

val store : t -> int -> int -> unit

val init_region : t -> base:int -> int array -> unit
(** [init_region t ~base values] writes [values.(i)] at [base + 8*i] —
    convenient 8-byte-stride table initialization. *)

(** Flags set by compare/ALU instructions. *)
val zf : t -> bool
val sf : t -> bool
val cf : t -> bool
val set_flags : t -> zf:bool -> sf:bool -> cf:bool -> unit

val cond_holds : t -> Isa.Instr.cond -> bool
(** Evaluate a branch condition against the current flags. *)

val pc : t -> int
val set_pc : t -> int -> unit

val halted : t -> bool
val set_halted : t -> bool -> unit

val fork : t -> t
(** [fork t] is [t]'s transient view, as the mispredicted path sees it:
    registers, flags, pc and halt state copied from [t], over [t]'s memory,
    with the view's own stores kept in a private overlay that [t] never
    sees.  Memory is not copied.  Each machine owns one view, allocated by
    its first fork and re-synchronised (overlay emptied) by every later
    one, so a view is valid only until the next [fork t].
    @raise Invalid_argument when [t] is itself a view. *)

val fold_mem : t -> init:'a -> f:(int -> int -> 'a -> 'a) -> 'a
(** Fold over all touched memory locations (address, value) in unspecified
    order — used by equivalence checks and diagnostics.  A view folds the
    memory it reads through, without its overlay. *)
