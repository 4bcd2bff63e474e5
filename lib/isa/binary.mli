(** Binary encoding of programs — the "ELF" of the simulated world.

    SCAGuard is a tool that takes {e binaries}; this codec gives programs a
    durable byte format so the CLI can assemble PoCs to files and the
    detection pipeline can start from a file on disk.

    The format serializes the code, base address and label table.
    Generator tags (the attack-relevant ground truth) are lab metadata and
    deliberately {e not} part of a binary — a decoded program carries none,
    exactly like a real-world target. *)

val magic : string
(** ["SCAB1"]. *)

val encode : Program.t -> string
(** Serialize to bytes. *)

val decode : string -> Program.t
(** @raise Failure on malformed input (bad magic, truncation, a label or
    instruction count larger than the remaining bytes can hold, unknown
    opcodes, out-of-range label references).  Nothing is allocated by an
    unchecked count, so hostile input fails in memory bounded by its own
    size. *)

val write_file : path:string -> Program.t -> unit
val read_file : path:string -> Program.t
