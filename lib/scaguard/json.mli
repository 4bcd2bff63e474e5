(** A minimal strict JSON reader/writer — the one JSON codec of the
    codebase: the serve protocol ({!Server}), the trace ({!Obs.Trace_writer}),
    the structured event log ({!Log}), the provenance records
    ({!Provenance}), the run report ({!Service.report_json}) and the bench
    artifacts all build {!t} values and render them with {!to_string}; no
    external JSON dependency.  The parser rejects trailing garbage, raw
    control characters in strings, lone surrogates, non-finite numbers and
    nesting deeper than {!max_depth} levels — a hostile frame can fail a
    request but never confuse the framing. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val max_depth : int
(** Maximum accepted nesting depth (64). *)

val parse : string -> (t, string) result
(** Parse one complete JSON value; the error carries a byte offset. *)

val to_string : t -> string
(** Compact single-line rendering (no raw newlines — safe to frame).
    Integral [Num]s print without an exponent or decimal point; other
    finite floats print as [%.17g] (exact round-trip for similarity
    scores); non-finite floats print as [null]. *)

val to_lines : t list -> string
(** JSON Lines: each value rendered by {!to_string} and followed by a
    newline. *)

val member : string -> t -> t option
(** First binding of a key in an [Obj]; [None] otherwise. *)
