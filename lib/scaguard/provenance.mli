(** Per-verdict decision provenance.

    One record per classified target, explaining {e why} the verdict came
    out the way it did:

    - the {b ensemble path} ([Detect.Ensemble]): the HPC screen's z-score
      against the escalation threshold tau, and whether the run was
      fast-rejected or escalated into the DTW detector;
    - the {b index traversal} ({!Vpindex.search}): nodes visited and
      subtrees cut off, each with the pooled bound that justified it;
    - every {b candidate} PoC model with its lower bound and outcome —
      scored, pruned by the bound, or abandoned mid-DP;
    - the {b final score} down to its float bits, the matches above
      threshold, and the winning family.

    The capture discipline copies {!Obs}: a plain-ref switch
    ({!set_capture}) read once at [Detector.classify_prepared] entry (the
    disabled hot path is one load-and-branch, zero allocation — the builder
    is simply never created), a lock-free bounded sink safe from every
    engine worker domain, and strict observation purity — nothing on the
    detection path reads this state back, so verdicts are bit-identical
    with capture on or off (qcheck-asserted).

    Records serialize to JSON ({!to_json} / {!of_json} round-trip exactly,
    qcheck-asserted) and are rendered by [scaguard explain] and the serve
    protocol's [explain] verb. *)

type ensemble_path = {
  screen_z : float;  (** anomaly z-score ([infinity] when no screen model) *)
  tau : float;  (** the escalation threshold the z-score was compared to *)
  escalated : bool;  (** false = fast-rejected without DTW *)
}

type index_event =
  | Node_visited of { bound : float; members : int }
      (** the search expanded this node: its pooled bound did not beat
          best-so-far, so its [members]-model subtree stayed live *)
  | Subtree_pruned of { bound : float; members : int }
      (** the best-first frontier's minimum bound exceeded the pruning
          radius: [members] models across every remaining subtree were
          proven losers and skipped *)
  | Member_pruned of { bound : float }
      (** a leaf member's per-model screen bound exceeded the radius *)

type outcome =
  | Scored of float  (** full DTW ran (or was resolved exactly) *)
  | Pruned_lb  (** the cheap lower bound proved the pair irrelevant *)
  | Abandoned  (** the DP started but the cutoff ended it mid-matrix *)
  | Pruned
      (** proven irrelevant, bound-vs-abandon indistinguishable (no
          workspace counters were threaded through this call) *)

type candidate = {
  poc : string;
  family : string;
  lb : float option;  (** the precomputed lower bound, when one was used *)
  outcome : outcome;
}

type path =
  | Linear  (** every repository model was considered in order *)
  | Indexed  (** the vantage-point index drove candidate selection *)
  | Fast_rejected  (** the ensemble screen rejected before any DTW *)

type t = {
  seq : int;  (** global emission order — the sort key of {!records} *)
  target : string;
  trace_id : string option;  (** the ambient {!Obs.trace_id} at finish *)
  worker : int;  (** domain id of the classifying worker *)
  path : path;
  ensemble : ensemble_path option;
      (** present when the two-tier ensemble drove the classification *)
  index_events : index_event list;  (** in traversal order *)
  candidates : candidate list;  (** in evaluation order *)
  best_matches : (string * string * float) list;
      (** (poc, family, score): the entries tying the best score, in the
          verdict's canonical (family, name) order — [Detector.verdict]'s
          [best_matches] verbatim *)
  best_family : string option;
  best_score : float;
  threshold : float;
  duration_ns : int64;
}

(** {1 Switch and sink} *)

val enabled : unit -> bool
val set_capture : bool -> unit
(** Toggle capture (default off).  Front-ends flip this before a run, never
    concurrently with one. *)

val capacity : int
(** Sink bound (16384 records).  Once full, further records are counted in
    {!dropped} and discarded — emission never blocks. *)

val records : unit -> t list
(** Captured records since the last {!clear}, in emission order. *)

val dropped : unit -> int
val clear : unit -> unit

val with_capture : (unit -> 'a) -> 'a * t list
(** [with_capture f] — run [f] with capture forced on and a fresh sink,
    returning its result alongside exactly the records it produced; the
    previous sink contents and switch state are restored afterwards (also
    on raise, where the captured records are discarded with the exception
    re-raised).  Concurrent emitters outside [f]'s dynamic extent would
    land in [f]'s capture — fine for the serve drainer (which owns all
    execution) and the CLI. *)

(** {1 Builder}

    Created by [Detector.classify_prepared] when {!enabled}; every
    recording call is a cheap mutation of the builder, and {!finish}
    publishes the completed record to the sink. *)

type builder

val start : target:string -> threshold:float -> builder
(** Begin a record (captures the monotonic start time). *)

val set_path : builder -> path -> unit
val index_event : builder -> index_event -> unit

val candidate :
  builder -> poc:string -> family:string -> ?lb:float -> outcome -> unit

val finish :
  builder ->
  best_matches:(string * string * float) list ->
  best_family:string option ->
  best_score:float ->
  unit
(** Seal and publish: stamps the duration, the ambient trace id, the
    worker's domain id, and the pending ensemble note (see
    {!note_ensemble}), then pushes to the sink. *)

(** {1 The ensemble handoff}

    [Detect.Ensemble] runs on the same domain as the detector it escalates
    into, so the screen outcome rides domain-local state: the ensemble
    {!note_ensemble}s just before classifying, and the detector's
    {!finish} folds the note into its record.  A fast-reject never reaches
    the detector, so the ensemble publishes the (tiny) record itself with
    {!emit_fast_reject}. *)

val note_ensemble : screen_z:float -> tau:float -> escalated:bool -> unit

val emit_fast_reject : target:string -> threshold:float -> unit
(** Publish a [Fast_rejected] record (no candidates, score 0) carrying the
    pending ensemble note. *)

(** {1 JSON codec} *)

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}; [of_json (to_json r) = Ok r] for every record
    (scores decode from their [score_bits] so re-encoding is lossless). *)

val to_jsonl : t list -> string
(** One compact JSON object per line.  (Writing the artifact is the
    caller's job — [Persist.write_atomic] sits {e above} this module in
    the dependency order, so there is no [write] here.) *)
