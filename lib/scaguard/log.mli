(** The leveled, structured event log (JSONL).

    Replaces ad-hoc stderr prints across the CLI, daemon and cache with one
    emission API that feeds two independent outputs:

    - a {b bounded, non-blocking capture buffer} (a {!Sutil.Sink} with a
      hard cap — overflow is counted in {!dropped}, never waited on),
      drained into a JSON-Lines artifact by {!write}
      ([detect-batch --log-out]);
    - a {b stderr mirror} at a configurable minimum severity, preserving the
      exact bytes operators and CI already depend on.

    Timestamps are monotonic ({!Obs.Clock}), so JSONL line order is
    meaningful across wall-clock steps; events are stamped with the ambient
    {!Obs.trace_id} by default, correlating them with spans and provenance
    records.  Like {!Obs}, the disabled path is one ref load and branch with
    zero allocation, and capturing is pure observation: no verdict bit
    depends on it (qcheck-asserted). *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string
(** ["debug"] / ["info"] / ["warn"] / ["error"] — the spelling used in the
    JSONL, the config file and the CLI's [--log-level] flag. *)

val level_of_string : string -> level option

val severity : level -> int
(** Monotone rank for threshold comparison: Debug 0 … Error 3. *)

type event = {
  seq : int;  (** global emission order (atomic counter) — the sort key *)
  ts_ns : int64;  (** {!Obs.Clock.now_ns} at emission *)
  level : level;
  event : string;  (** dotted event name, e.g. ["serve.start"] *)
  message : string;  (** the human-readable line (what the mirror prints) *)
  trace_id : string option;
  fields : (string * Json.t) list;  (** typed structured context *)
}

(** {1 Switches}

    Plain refs like the {!Obs} switches: written by front-ends around a
    run, read once per emission site. *)

val enabled : unit -> bool
val set_capture : bool -> unit
(** Toggle the capture buffer (default off).  The stderr mirror is
    independent of this switch. *)

val level : unit -> level
val set_level : level -> unit
(** Minimum severity captured into the buffer (default [Debug]). *)

val mirror_level : unit -> level option
val set_mirror_level : level option -> unit
(** Minimum severity mirrored to stderr, or [None] for silence.  The
    default, [Some Info], keeps the CLI's and daemon's existing stderr
    lines byte-identical. *)

val capacity : int
(** Capture-buffer bound (8192 events).  Once full, further events are
    counted in {!dropped} and discarded — emission never blocks. *)

(** {1 Emission} *)

val event :
  ?trace_id:string ->
  ?fields:(string * Json.t) list ->
  level ->
  string ->
  string ->
  unit
(** [event lvl name message] — mirror [message] to stderr (when [lvl]
    reaches the mirror level) and capture a structured event (when capture
    is on and [lvl] reaches the capture level).  [trace_id] defaults to the
    ambient {!Obs.trace_id}.  Lock-free; safe from any domain. *)

val debug :
  ?trace_id:string -> ?fields:(string * Json.t) list -> string ->
  ('a, unit, string, unit) format4 -> 'a

val info :
  ?trace_id:string -> ?fields:(string * Json.t) list -> string ->
  ('a, unit, string, unit) format4 -> 'a

val warn :
  ?trace_id:string -> ?fields:(string * Json.t) list -> string ->
  ('a, unit, string, unit) format4 -> 'a

val error :
  ?trace_id:string -> ?fields:(string * Json.t) list -> string ->
  ('a, unit, string, unit) format4 -> 'a
(** [info name fmt ...] — {!event} with a printf-style message. *)

val err_fields : Err.t -> (string * Json.t) list
(** The typed context of an {!Err.t} as structured fields ([kind] plus the
    variant's payload), so error events are queryable by field rather than
    by parsing a rendered string. *)

val err : ?trace_id:string -> ?prefix:string -> string -> Err.t -> unit
(** [err name e] — an [Error]-level event named [name] with
    {!err_fields}[ e] and the message ["<prefix>: <Err.to_string e>"]
    ([prefix] defaults to ["scaguard"]) — the structured replacement for
    [Printf.eprintf "scaguard: %s" (Err.to_string e)]: same stderr bytes
    via the mirror, plus the typed record. *)

(** {1 Draining} *)

val events : unit -> event list
(** Captured events since the last {!clear}, in emission order. *)

val dropped : unit -> int
(** Events discarded because the buffer was full. *)

val clear : unit -> unit

val event_to_json : event -> Json.t

val to_jsonl : event list -> string
(** One compact JSON object per line.  When {!dropped} is non-zero a final
    [log.dropped] marker line records the loss — a truncated log says so. *)

val write : path:string -> (unit, Err.t) result
(** Atomically write the captured events as JSONL
    ({!Persist.write_atomic}); [Error (Io _)] on failure. *)
