(** Serialization of CST-BBS models and PoC repositories — a line-oriented
    text format and a compact versioned binary image.

    The deployment story of §V builds the repository once and screens
    programs later; persistence makes that real.  Two formats serve the two
    halves of that story:

    - {b Text}: simple, diffable, line-oriented.  Tokens, model names and
      families are escaped (['\\'] → ["\\\\"], newline → ["\\n"], the empty
      string → ["\\_"]) so {e any} string round-trips; no writer code path
      can abort the process.
    - {b Binary}: ["SCAGBIN"] magic + version header, an embedded string
      table (interned token ids are process-local, so the image carries its
      own strings), varint-packed token sequences, floats as exact bit
      patterns, a model index (name → blob offset) enabling lazy per-model
      loads, and the per-entry cache-change magnitudes stored inline so
      {!Detector.prepare} is a no-op on load.  See DESIGN.md for the
      byte-level spec.

    Every [load_*] entry point sniffs the leading bytes and accepts either
    format; the binary magic cannot collide with the text headers.

    Every decoding, loading and saving operation returns typed {!Err.t}
    errors — text parse failures carry the file name and 1-based line
    number, binary ones the file name and byte offset.  No entry point
    raises: not [Failure], not [Sys_error], not [Unix.Unix_error].

    Loaded models carry empty [instrs] lists — similarity comparison only
    needs the normalized token sequences and the CSTs, both of which are
    preserved exactly. *)

val model_to_string : Model.t -> string
(** Text encoding.  Total: every model value serializes (escaping handles
    newlines, backslashes and empty tokens). *)

val model_of_string_result : ?file:string -> string -> (Model.t, Err.t) result
(** [Error (Parse _)] on malformed input; [?file] is only used to label the
    error location.  Text format only (file loads sniff, string parsing is
    explicit — use {!model_of_bytes_result} for binary bytes). *)

val repository_to_string : Detector.repository -> string
(** Text encoding; total, like {!model_to_string}. *)

val repository_of_string_result :
  ?file:string -> string -> (Detector.repository, Err.t) result

(** {1 Binary encoding} *)

val is_binary : string -> bool
(** Whether the bytes start with the binary magic — the same sniff the
    [load_*] functions apply. *)

val repository_to_bytes : ?index:Vpindex.t -> Detector.repository -> string
(** The binary repository image.  Deterministic: a given repository value
    (and index) always produces the same bytes.  [index] embeds the
    serialized repository index ({!Vpindex.to_bytes}) in the image's
    optional index section so loads skip the rebuild; it must have been
    built over exactly this repository. *)

val repository_of_bytes_result :
  ?file:string -> string -> (Detector.repository, Err.t) result
(** Decode a binary image.  [Error (Parse {line = None; _})] with the byte
    offset in the message on truncation, bad magic, unsupported version or
    any other corruption. *)

val repository_of_bytes_prepared_result :
  ?file:string ->
  string ->
  ((Detector.poc * Dtw.summary) list, Err.t) result
(** Like {!repository_of_bytes_result}, but each PoC comes with its
    {!Dtw.summary} rebuilt from the magnitudes stored inline in the image —
    identical to [Dtw.summarize] of the model, with no summarization work. *)

val repository_of_bytes_indexed_result :
  ?file:string ->
  string ->
  ((Detector.poc * Dtw.summary) list * Vpindex.t option, Err.t) result
(** {!repository_of_bytes_prepared_result} plus the repository index when
    the image carries one ([None] for v1 images and v2 images saved without
    an index — absence is never an error, only corruption is). *)

val model_to_bytes : Model.t -> string
(** Single-model binary encoding (the {!Model_cache} entry format). *)

val model_of_bytes_result : ?file:string -> string -> (Model.t, Err.t) result

(** {1 Saving and loading} *)

val save_repository_result :
  path:string -> Detector.repository -> (unit, Err.t) result
(** Text format.  Atomic and durable: the repository is written to a temp
    file in the destination's directory, fsynced, renamed into place, and
    the directory is fsynced — a crash can never leave a truncated or
    corrupt file at [path]. *)

val save_repository_bin_result :
  ?index:Vpindex.t -> path:string -> Detector.repository ->
  (unit, Err.t) result
(** {!save_repository_result}, binary image format.  [index] as in
    {!repository_to_bytes}. *)

val load_repository_result :
  path:string -> (Detector.repository, Err.t) result
(** Sniffs the format: binary images and text files both load.
    [Error (Io _)] on IO problems, [Error (Parse {file; line; _})] on
    malformed content.  Parsing is strict: every token of a text [cst] line
    must be a float, every binary blob must match its declared length —
    malformed data is corruption, not noise. *)

val load_repository_prepared_result :
  path:string ->
  (Detector.repository * Detector.prepared, Err.t) result
(** {!load_repository_result} plus a ready-to-classify {!Detector.prepared}.
    For binary images the summaries come straight off the file (no
    {!Detector.prepare} work — the instant-start path), and an embedded
    repository index is attached without a rebuild; for text files this
    simply runs {!Detector.prepare} after parsing.  Either way the prepared
    repository classifies bit-identically to [Detector.prepare repo]. *)

val save_model_result : path:string -> Model.t -> (unit, Err.t) result
(** One model to one file, text format; atomic like
    {!save_repository_result}. *)

val save_model_bin_result : path:string -> Model.t -> (unit, Err.t) result
(** {!save_model_result}, binary format. *)

val load_model_result : path:string -> (Model.t, Err.t) result
(** Sniffs the format like {!load_repository_result}.  The loaded model's
    tokens are re-interned in this process; interned ids are never part of
    either on-disk format. *)

(** {1 Lazy repository images}

    A binary image's model index maps each model name to its blob's offset,
    so individual PoCs load without decoding the rest of the file.  Opening
    an image reads the file once and decodes only the header, string table
    and index; each {!image_load_result} then decodes exactly one blob. *)

type image

val open_image_result : path:string -> (image, Err.t) result
(** [Error (Parse _)] when the file is not a binary repository image (text
    repositories have no index — load them eagerly instead). *)

val image_path : image -> string

val image_size : image -> int
(** Number of models in the index. *)

val image_pocs : image -> (string * string) array
(** [(model name, family)] pairs in file (= repository) order, straight from
    the index — no blob decoding. *)

val image_vpindex : image -> Vpindex.t option
(** The repository index embedded in the image, when present — decoded at
    {!open_image_result} time (it lives before the blobs), so an opened
    image cold-starts straight into indexed classification. *)

val image_load_result :
  image -> name:string -> (Detector.poc, Err.t) result
(** Decode exactly one model's blob.  [Error (Parse _)] when [name] is not
    in the index or its blob is corrupt. *)

val image_load_prepared_result :
  image -> name:string -> (Detector.poc * Dtw.summary, Err.t) result
(** {!image_load_result} plus the summary stored inline in the blob. *)

(** {1 Shared file plumbing}

    Used by {!Config} (and available to other callers) so every artefact the
    system persists goes through the same atomic writer. *)

val bin_version : int
(** The SCAGBIN container version this build writes (readers accept older
    versions too).  Exported as the [format_version] label of the
    [scaguard_build_info] gauge, so a scrape identifies what a process
    would emit. *)

val write_atomic : path:string -> string -> unit
(** Write [contents] to a sibling temp file, fsync it, rename it over
    [path], and fsync the directory — atomic {e and} durable (the data hits
    disk before the rename publishes it).  Failures from the Unix layer
    (including cross-device renames) surface as [Sys_error], never
    [Unix.Unix_error], and the temp file is removed on any failure.
    @raise Sys_error on IO problems. *)

val read_file : path:string -> string
(** Read the whole file.
    @raise Sys_error on IO problems. *)
