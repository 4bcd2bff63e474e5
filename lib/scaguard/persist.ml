(* Two on-disk formats, one loader.

   Text (the original line-oriented format, kept for diffability and
   backward compatibility):

     cstbbs 1
     name <model name>
     entry <block> <first_time>
     cst <ao> <io> <ao'> <io'>
     tokens <count>
     <one normalized token per line>
     ...repeat entry...
     end

   Repositories wrap models with `poc <family>` headers.  Tokens, model
   names and families are escaped ('\' -> "\\", newline -> "\n", the empty
   string -> "\_") so any string round-trips and no writer code path can
   abort the process.

   Binary (the compact repository image, see DESIGN.md for the byte-level
   spec):

     "SCAGBIN" <version u8> <kind u8 'R'|'M'>
     string table: count + length-prefixed strings (tokens, names, families)
     model index:  count + per model (name id, family id, blob length)
     model blobs:  entries (block, first_time, 4 CST doubles, token ids)
                   followed by the per-entry cache-change magnitudes

   Floats travel as exact bit patterns and token ids point into the
   embedded string table (interned ids are process-local and never leave
   the process), so text -> binary -> text is byte-identical.  The index
   maps each model to its blob's offset, which is what makes lazy per-model
   loading ([image]) possible, and the inline magnitudes are what let
   [load_repository_prepared_result] hand back a summarized repository with
   no {!Detector.prepare} work at all.

   Loads sniff the leading bytes, so every [load_*] entry point accepts
   either format. *)

let buf_add = Buffer.add_string

(* -- escaping ---------------------------------------------------------------- *)

(* The text format is line-oriented, so embedded newlines (and, to keep the
   code unambiguous, backslashes) are escaped; a token that IS the empty
   string would vanish into the blank-line filter, so it gets a dedicated
   two-character spelling. *)
let escape_line s =
  if s = "" then "\\_"
  else if String.exists (fun ch -> ch = '\\' || ch = '\n') s then begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (function
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end
  else s

let entry_to_buffer buf (e : Model.entry) =
  buf_add buf (Printf.sprintf "entry %d %d\n" e.Model.block e.Model.first_time);
  let b = e.Model.cst.Cst.before and a = e.Model.cst.Cst.after in
  buf_add buf
    (Printf.sprintf "cst %.17g %.17g %.17g %.17g\n" b.Cache.State.ao
       b.Cache.State.io a.Cache.State.ao a.Cache.State.io);
  buf_add buf (Printf.sprintf "tokens %d\n" (Array.length e.Model.normalized));
  Array.iter
    (fun tok ->
      buf_add buf (escape_line tok);
      Buffer.add_char buf '\n')
    e.Model.normalized

let model_to_buffer buf (m : Model.t) =
  buf_add buf "cstbbs 1\n";
  buf_add buf (Printf.sprintf "name %s\n" (escape_line m.Model.name));
  List.iter (entry_to_buffer buf) m.Model.entries;
  buf_add buf "end\n"

let model_to_string m =
  let buf = Buffer.create 1024 in
  model_to_buffer buf m;
  Buffer.contents buf

let repository_to_string (repo : Detector.repository) =
  let buf = Buffer.create 4096 in
  buf_add buf "scaguard-repository 1\n";
  List.iter
    (fun (p : Detector.poc) ->
      buf_add buf (Printf.sprintf "poc %s\n" (escape_line p.Detector.family));
      model_to_buffer buf p.Detector.model)
    repo;
  Buffer.contents buf

(* -- text parsing ------------------------------------------------------------ *)

(* Parse failures carry the 1-based line number of the offending line in the
   original text (blank lines count, even though the cursor skips them), so
   [Err.Parse] can point at the exact spot in a saved file. *)
exception Parse_stop of int option * string

let stop ?line fmt = Printf.ksprintf (fun msg -> raise (Parse_stop (line, msg))) fmt

(* [lines] keeps only non-empty lines (blank-line noise is tolerated) but each
   is paired with its original 1-based line number for error reporting. *)
type cursor = { lines : (int * string) array; mutable pos : int }

let peek c =
  if c.pos < Array.length c.lines then Some (snd c.lines.(c.pos)) else None

(* Line number to report for "ran off the end": one past the last kept line. *)
let eof_line c =
  let n = Array.length c.lines in
  if n = 0 then Some 1 else Some (fst c.lines.(n - 1) + 1)

(* Line number of the line the cursor last consumed. *)
let here c =
  if c.pos = 0 then Some 1 else Some (fst c.lines.(c.pos - 1))

let next c =
  match peek c with
  | Some l ->
    c.pos <- c.pos + 1;
    l
  | None -> stop ?line:(eof_line c) "unexpected end of input"

(* Inverse of [escape_line]; a dangling or unknown escape is corruption. *)
let unescape_line c line =
  if line = "\\_" then ""
  else if not (String.contains line '\\') then line
  else begin
    let n = String.length line in
    let b = Buffer.create n in
    let i = ref 0 in
    while !i < n do
      (match line.[!i] with
      | '\\' ->
        if !i + 1 >= n then stop ?line:(here c) "dangling escape in %S" line;
        incr i;
        (match line.[!i] with
        | '\\' -> Buffer.add_char b '\\'
        | 'n' -> Buffer.add_char b '\n'
        | ch -> stop ?line:(here c) "bad escape '\\%c' in %S" ch line)
      | ch -> Buffer.add_char b ch);
      incr i
    done;
    Buffer.contents b
  end

let expect_prefix c prefix =
  let l = next c in
  let n = String.length prefix in
  if String.length l < n || String.sub l 0 n <> prefix then
    stop ?line:(here c) "expected %S, got %S" prefix l;
  String.sub l n (String.length l - n)

let parse_entry c =
  let header = expect_prefix c "entry " in
  let block, first_time =
    match String.split_on_char ' ' header with
    | [ b; t ] -> (
      match (int_of_string_opt b, int_of_string_opt t) with
      | Some b, Some t -> (b, t)
      | _ -> stop ?line:(here c) "bad entry header %S" header)
    | _ -> stop ?line:(here c) "bad entry header %S" header
  in
  let cst_line = expect_prefix c "cst " in
  let cst =
    (* every token must parse: a malformed token is corruption, not noise to
       be filtered out *)
    let float_or_fail tok =
      match float_of_string_opt tok with
      | Some f -> f
      | None -> stop ?line:(here c) "bad cst token %S in %S" tok cst_line
    in
    match List.map float_or_fail (String.split_on_char ' ' cst_line) with
    | [ ao; io; ao'; io' ] ->
      {
        Cst.before = Cache.State.make ~ao ~io;
        after = Cache.State.make ~ao:ao' ~io:io';
      }
    | _ -> stop ?line:(here c) "bad cst line %S" cst_line
  in
  let count =
    let raw = expect_prefix c "tokens " in
    match int_of_string_opt raw with
    | Some n -> n
    | None -> stop ?line:(here c) "bad token count %S" raw
  in
  if count < 0 || count > 1_000_000 then
    stop ?line:(here c) "bad token count %d" count;
  let normalized = Array.init count (fun _ -> unescape_line c (next c)) in
  (* make_entry re-interns the tokens: interned ids are process-local and
     are deliberately absent from the on-disk format *)
  Model.make_entry ~block ~instrs:[] ~normalized ~cst ~first_time

let parse_model c =
  (match next c with
  | "cstbbs 1" -> ()
  | l -> stop ?line:(here c) "bad magic %S" l);
  let name = unescape_line c (expect_prefix c "name ") in
  let rec entries acc =
    match peek c with
    | Some "end" ->
      c.pos <- c.pos + 1;
      List.rev acc
    | Some _ -> entries (parse_entry c :: acc)
    | None -> stop ?line:(eof_line c) "missing end"
  in
  Model.make ~name (entries [])

let cursor_of_string s =
  (* keep no trailing empty line noise, but remember original line numbers *)
  let lines =
    String.split_on_char '\n' s
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter (fun (_, l) -> l <> "")
    |> Array.of_list
  in
  { lines; pos = 0 }

let parse_repository c =
  (match next c with
  | "scaguard-repository 1" -> ()
  | l -> stop ?line:(here c) "bad repository magic %S" l);
  let rec pocs acc =
    match peek c with
    | None -> List.rev acc
    | Some _ ->
      let family = unescape_line c (expect_prefix c "poc ") in
      let model = parse_model c in
      pocs ({ Detector.family; model } :: acc)
  in
  pocs []

let run_parser ?file parse s =
  match parse (cursor_of_string s) with
  | v -> Ok v
  | exception Parse_stop (line, msg) -> Error (Err.Parse { file; line; msg })

let model_of_string_result ?file s = run_parser ?file parse_model s
let repository_of_string_result ?file s = run_parser ?file parse_repository s

(* -- binary format ------------------------------------------------------------ *)

let bin_magic = "SCAGBIN"

(* v1: header, string table, model index, blobs.
   v2: an optional repository-index section (u8 presence byte + the
   length-prefixed Vpindex encoding) between the model index and the blobs.
   Readers accept both; writers emit v2 (a v2 file without the section is
   byte-wise v1 plus one zero byte). *)
let bin_version = 2
let bin_version_min = 1
let kind_repository = Char.code 'R'
let kind_model = Char.code 'M'

let is_binary s =
  String.length s >= String.length bin_magic
  && String.sub s 0 (String.length bin_magic) = bin_magic

(* Writer-side string interner: ids in first-appearance order, so the image
   is a deterministic function of the repository value. *)
type string_table = { tbl : (string, int) Hashtbl.t; mutable rev : string list }

let new_table () = { tbl = Hashtbl.create 64; rev = [] }

let sid_of t s =
  match Hashtbl.find_opt t.tbl s with
  | Some id -> id
  | None ->
    let id = Hashtbl.length t.tbl in
    Hashtbl.add t.tbl s id;
    t.rev <- s :: t.rev;
    id

let table_strings t = Array.of_list (List.rev t.rev)

let add_table buf t =
  let strings = table_strings t in
  Binfmt.add_uint buf (Array.length strings);
  Array.iter (Binfmt.add_string buf) strings

(* One model's payload: the entries (tokens as string-table ids, CST floats
   as exact bits) followed by the per-entry cache-change magnitudes — the
   inline summary that makes Detector.prepare a no-op on load. *)
let model_blob table (m : Model.t) =
  let buf = Buffer.create 1024 in
  let entries = Model.entries_array m in
  Binfmt.add_uint buf (Array.length entries);
  Array.iter
    (fun (e : Model.entry) ->
      Binfmt.add_int buf e.Model.block;
      Binfmt.add_int buf e.Model.first_time;
      let b = e.Model.cst.Cst.before and a = e.Model.cst.Cst.after in
      Binfmt.add_float buf b.Cache.State.ao;
      Binfmt.add_float buf b.Cache.State.io;
      Binfmt.add_float buf a.Cache.State.ao;
      Binfmt.add_float buf a.Cache.State.io;
      Binfmt.add_uint buf (Array.length e.Model.normalized);
      Array.iter
        (fun tok -> Binfmt.add_uint buf (sid_of table tok))
        e.Model.normalized)
    entries;
  Array.iter
    (fun (e : Model.entry) ->
      Binfmt.add_float buf (Cst.change_magnitude e.Model.cst))
    entries;
  Buffer.contents buf

let add_header buf ~kind =
  Buffer.add_string buf bin_magic;
  Binfmt.add_u8 buf bin_version;
  Binfmt.add_u8 buf kind

let repository_to_bytes ?index (repo : Detector.repository) =
  let table = new_table () in
  (* a pre-pass interns names and families before any token, purely so the
     index can be written before the blobs; ids are arbitrary anyway *)
  let named =
    List.map
      (fun (p : Detector.poc) ->
        let name_id = sid_of table p.Detector.model.Model.name in
        let family_id = sid_of table p.Detector.family in
        (name_id, family_id, p))
      repo
  in
  let blobs =
    List.map
      (fun (name_id, family_id, (p : Detector.poc)) ->
        (name_id, family_id, model_blob table p.Detector.model))
      named
  in
  let buf = Buffer.create 4096 in
  add_header buf ~kind:kind_repository;
  add_table buf table;
  Binfmt.add_uint buf (List.length blobs);
  List.iter
    (fun (name_id, family_id, blob) ->
      Binfmt.add_uint buf name_id;
      Binfmt.add_uint buf family_id;
      Binfmt.add_uint buf (String.length blob))
    blobs;
  (match index with
  | None -> Binfmt.add_u8 buf 0
  | Some ix ->
    Binfmt.add_u8 buf 1;
    Binfmt.add_string buf (Vpindex.to_bytes ix));
  List.iter (fun (_, _, blob) -> buf_add buf blob) blobs;
  Buffer.contents buf

let model_to_bytes (m : Model.t) =
  let table = new_table () in
  let name_id = sid_of table m.Model.name in
  let blob = model_blob table m in
  let buf = Buffer.create 1024 in
  add_header buf ~kind:kind_model;
  add_table buf table;
  Binfmt.add_uint buf name_id;
  buf_add buf blob;
  Buffer.contents buf

(* reader side *)

let parse_header r ~kind =
  Binfmt.expect r bin_magic;
  let v = Binfmt.u8 r in
  if v < bin_version_min || v > bin_version then
    Binfmt.fail r
      "unsupported binary format version %d (this build reads versions %d-%d)"
      v bin_version_min bin_version;
  let k = Binfmt.u8 r in
  if k <> kind then
    Binfmt.fail r "expected a %s file (kind '%c'), got kind '%c'"
      (if kind = kind_repository then "repository" else "model")
      (Char.chr kind) (Char.chr k);
  v

(* The string table, with each entry's {!Sutil.Intern.global} id resolved
   the first time the entry is read as a token: a load then interns every
   distinct token once, not once per occurrence, and never interns model
   names or families.  Two domains reading one lazy image may both resolve
   an entry; they store the same id. *)
type parsed_table = { strings : string array; ids : int array (* -1: unresolved *) }

let parse_table r =
  let n = Binfmt.count r ~what:"string table" in
  let strings = Array.init n (fun _ -> Binfmt.string r) in
  { strings; ids = Array.make n (-1) }

let parse_sid_index r table =
  let i = Binfmt.uint r in
  if i >= Array.length table.strings then
    Binfmt.fail r "string id %d out of range (table has %d)" i
      (Array.length table.strings);
  i

let parse_sid r table = table.strings.(parse_sid_index r table)

let token_id table i =
  match table.ids.(i) with
  | -1 ->
    let id = Sutil.Intern.intern Sutil.Intern.global table.strings.(i) in
    table.ids.(i) <- id;
    id
  | id -> id

(* Decode one model blob.  Returns the model paired with its summary,
   rebuilt from the inline magnitudes via Dtw.summarize_with — identical to
   Dtw.summarize because the CST floats round-trip bit-exactly. *)
let parse_model_blob r table ~name =
  let n_entries = Binfmt.count r ~what:"entry" in
  let entries =
    Array.init n_entries (fun _ ->
        let block = Binfmt.int r in
        let first_time = Binfmt.int r in
        let ao = Binfmt.float r in
        let io = Binfmt.float r in
        let ao' = Binfmt.float r in
        let io' = Binfmt.float r in
        let cst =
          match Cache.State.make ~ao ~io with
          | before -> (
            match Cache.State.make ~ao:ao' ~io:io' with
            | after -> { Cst.before; after }
            | exception Invalid_argument m -> Binfmt.fail r "bad cst: %s" m)
          | exception Invalid_argument m -> Binfmt.fail r "bad cst: %s" m
        in
        let n_tokens = Binfmt.count r ~what:"token" in
        let normalized = Array.make n_tokens "" in
        let tokens = Array.make n_tokens 0 in
        for k = 0 to n_tokens - 1 do
          let i = parse_sid_index r table in
          normalized.(k) <- table.strings.(i);
          tokens.(k) <- token_id table i
        done;
        (* built directly rather than by Model.make_entry, which would
           intern every token again: [tokens] already holds the ids *)
        { Model.block; instrs = []; normalized; tokens; cst; first_time })
  in
  let mags = Array.init n_entries (fun _ -> Binfmt.float r) in
  let model = Model.make ~name (Array.to_list entries) in
  (model, Dtw.summarize_with ~mags model)

type index_entry = { ix_name : string; ix_family : string; ix_len : int }

let parse_index r table =
  let n = Binfmt.count r ~what:"model index" in
  Array.init n (fun _ ->
      let ix_name = parse_sid r table in
      let ix_family = parse_sid r table in
      let ix_len = Binfmt.uint r in
      { ix_name; ix_family; ix_len })

(* Runs after every section preceding the blobs has been consumed; the
   remaining bytes must be exactly what the model index declared. *)
let check_blob_bytes r index =
  let total = Array.fold_left (fun acc e -> acc + e.ix_len) 0 index in
  if total <> Binfmt.remaining r then
    Binfmt.fail r
      "corrupt model index: blobs cover %d bytes but %d remain" total
      (Binfmt.remaining r)

(* The v2 repository-index section.  v1 images simply lack it — the absence
   of an index is never an error, only its corruption is. *)
let parse_vpindex_section r ~version ~size =
  if version < 2 then None
  else
    match Binfmt.u8 r with
    | 0 -> None
    | 1 -> (
      let bytes = Binfmt.string r in
      match Vpindex.of_bytes_result bytes with
      | Error e -> Binfmt.fail r "corrupt repository index: %s" (Err.to_string e)
      | Ok ix ->
        if Vpindex.size ix <> size then
          Binfmt.fail r
            "repository index covers %d models but the image has %d"
            (Vpindex.size ix) size;
        Some ix)
    | b -> Binfmt.fail r "bad repository-index presence byte %d" b

(* Parse the whole image eagerly; every blob must consume exactly the length
   the index declared for it. *)
let parse_repository_bin r =
  let version = parse_header r ~kind:kind_repository in
  let table = parse_table r in
  let index = parse_index r table in
  let vpindex =
    parse_vpindex_section r ~version ~size:(Array.length index)
  in
  check_blob_bytes r index;
  let pairs =
    Array.to_list
      (Array.map
         (fun e ->
           let start = Binfmt.pos r in
           let model, summary = parse_model_blob r table ~name:e.ix_name in
           if Binfmt.pos r - start <> e.ix_len then
             Binfmt.fail r
               "model %S blob length mismatch (index said %d, read %d)"
               e.ix_name e.ix_len
               (Binfmt.pos r - start);
           ({ Detector.family = e.ix_family; model }, summary))
         index)
  in
  (pairs, vpindex)

let parse_model_bin r =
  let _version = parse_header r ~kind:kind_model in
  let table = parse_table r in
  let name = parse_sid r table in
  let model, _summary = parse_model_blob r table ~name in
  if Binfmt.remaining r <> 0 then
    Binfmt.fail r "trailing garbage after model (%d bytes)" (Binfmt.remaining r);
  model

let repository_of_bytes_indexed_result ?file s =
  Binfmt.run ?file parse_repository_bin s

let repository_of_bytes_prepared_result ?file s =
  Result.map fst (repository_of_bytes_indexed_result ?file s)

let repository_of_bytes_result ?file s =
  Result.map (List.map fst) (repository_of_bytes_prepared_result ?file s)

let model_of_bytes_result ?file s = Binfmt.run ?file parse_model_bin s

(* -- the lazy image ------------------------------------------------------------ *)

type image = {
  img_path : string;
  img_data : string;
  img_table : parsed_table;
  img_index : (index_entry * int) array;  (* entry, absolute blob offset *)
  img_vpindex : Vpindex.t option;
}

let parse_image ~path data r =
  let version = parse_header r ~kind:kind_repository in
  let table = parse_table r in
  let index = parse_index r table in
  let vpindex =
    parse_vpindex_section r ~version ~size:(Array.length index)
  in
  check_blob_bytes r index;
  let off = ref (Binfmt.pos r) in
  let img_index =
    Array.map
      (fun e ->
        let o = !off in
        off := o + e.ix_len;
        (e, o))
      index
  in
  {
    img_path = path;
    img_data = data;
    img_table = table;
    img_index;
    img_vpindex = vpindex;
  }

let image_path img = img.img_path
let image_size img = Array.length img.img_index
let image_vpindex img = img.img_vpindex

let image_pocs img =
  Array.map (fun (e, _) -> (e.ix_name, e.ix_family)) img.img_index

let image_load_prepared_result img ~name =
  match
    Array.find_opt (fun (e, _) -> e.ix_name = name) img.img_index
  with
  | None ->
    Error
      (Err.Parse
         {
           file = Some img.img_path;
           line = None;
           msg = Printf.sprintf "no model named %S in the image index" name;
         })
  | Some (e, off) ->
    Binfmt.run ~file:img.img_path
      (fun r ->
        let model, summary =
          parse_model_blob r img.img_table ~name:e.ix_name
        in
        if Binfmt.remaining r <> 0 then
          Binfmt.fail r "model %S blob length mismatch" e.ix_name;
        ({ Detector.family = e.ix_family; model }, summary))
      (String.sub img.img_data off e.ix_len)

let image_load_result img ~name =
  Result.map fst (image_load_prepared_result img ~name)

(* -- atomic IO ----------------------------------------------------------------- *)

let sys_error_of_unix ~path e op =
  Sys_error (Printf.sprintf "%s: %s (%s)" path (Unix.error_message e) op)

(* Directory fds are not openable/fsyncable on every platform; durability of
   the rename is best-effort there, the file data itself is always synced. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

(* Atomic and durable: write a sibling temp file, fsync it, rename it over
   the destination, then fsync the directory.  A crash mid-write can never
   corrupt an existing file at [path], and a crash right after the rename
   can no longer publish a truncated file (the data hits disk before the
   rename does).  Every Unix-level failure surfaces as the documented
   Sys_error — nothing leaks Unix_error — and the temp file is removed on
   any failure. *)
let write_atomic ~path contents =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir "scaguard" ".tmp" in
  let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
  try
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let len = String.length contents in
        let bytes = Bytes.unsafe_of_string contents in
        let off = ref 0 in
        while !off < len do
          off := !off + Unix.write fd bytes !off (len - !off)
        done;
        Unix.fsync fd);
    (* temp_file creates 0600; restore the conventional data-file mode so the
       saved file stays readable by other processes *)
    Unix.chmod tmp 0o644;
    Unix.rename tmp path;
    fsync_dir dir
  with
  | Unix.Unix_error (e, op, _) ->
    cleanup ();
    raise (sys_error_of_unix ~path e op)
  | e ->
    cleanup ();
    raise e

let read_file ~path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      really_input_string ic n)

let io_result ~path f =
  match f () with
  | v -> Ok v
  | exception Sys_error msg -> Error (Err.Io { path; msg })
  | exception Unix.Unix_error (e, _, _) ->
    Error (Err.Io { path; msg = Unix.error_message e })

let ( let* ) = Result.bind

(* Loads sniff: the binary magic can never collide with the text headers. *)
let load_repository_result ~path =
  let* s = io_result ~path (fun () -> read_file ~path) in
  if is_binary s then repository_of_bytes_result ~file:path s
  else run_parser ~file:path parse_repository s

let load_repository_prepared_result ~path =
  let* s = io_result ~path (fun () -> read_file ~path) in
  if is_binary s then
    let* pairs, vpindex = repository_of_bytes_indexed_result ~file:path s in
    let prep = Detector.prepare_summarized (Array.of_list pairs) in
    Ok (List.map fst pairs, Detector.attach_index prep vpindex)
  else
    let* repo = run_parser ~file:path parse_repository s in
    Ok (repo, Detector.prepare repo)

let load_model_result ~path =
  let* s = io_result ~path (fun () -> read_file ~path) in
  if is_binary s then model_of_bytes_result ~file:path s
  else run_parser ~file:path parse_model s

let open_image_result ~path =
  let* s = io_result ~path (fun () -> read_file ~path) in
  Binfmt.run ~file:path (parse_image ~path s) s

let save_repository_result ~path repo =
  io_result ~path (fun () -> write_atomic ~path (repository_to_string repo))

let save_repository_bin_result ?index ~path repo =
  io_result ~path (fun () ->
      write_atomic ~path (repository_to_bytes ?index repo))

let save_model_result ~path m =
  io_result ~path (fun () -> write_atomic ~path (model_to_string m))

let save_model_bin_result ~path m =
  io_result ~path (fun () -> write_atomic ~path (model_to_bytes m))
