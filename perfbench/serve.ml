(* Workload `serve`: the real `scaguard serve` daemon on a Unix socket,
   holding the default PoC image, driven over one connection by a seeded
   open-loop Poisson schedule from a single-threaded select loop.  It is
   the only workload that exercises the wire, the request queue and the
   single-threaded serve loop. *)

open Harness
module J = Scaguard.Json

type sizes = {
  low_rate : float;  (** req/s, about 25% of the daemon's capacity *)
  high_rate : float;  (** req/s, about 75% *)
  measured : int;  (** requests measured per fixed rate: 1000 gives the p99 ten beyond *)
  warmup : int;  (** requests at the head of each phase, not measured *)
  saturation_s : float;  (** closed-loop phase giving targets_per_s *)
  window : int;  (** requests kept outstanding in the closed loop *)
  probe_s : float;  (** length of one max_rps ladder probe *)
  overhead_requests : int;  (** closed-loop requests per trace-overhead pass *)
  setup_reps : int;  (** daemon spawns whose median is setup_s *)
}

(* Fixed rates, so a faster daemon shows as lower latency at the same
   offered load: 25% and 75% of the daemon's single-thread capacity for
   this mix, about 200 req/s, as calibrated once on a 2-vCPU machine. *)
let sizes =
  { low_rate = 50.0; high_rate = 150.0; measured = 1000; warmup = 30; saturation_s = 6.0;
    window = 4; probe_s = 0.75; overhead_requests = 200; setup_reps = 5 }

(* The latency limit max_rps is judged against, on the p99. *)
let limit_ms = 50.0

(* Per-request deadline the daemon enforces, and its queue capacity.  Both
   are generous so that a host running slower than the calibration shows
   as latency, not as refusals: on a shared host the daemon's capacity
   swings by half, and an overloaded fixed-rate phase must still answer
   every request.  A request refused with "deadline" or "busy" counts as
   failed. *)
let deadline_ms = 10_000
let queue_capacity = 4096

let reload_every_s = 2.0

(* The programs `scaguard` resolves by name: the twelve PoCs of its
   registry and every benign generator family (built from the request's
   seed). *)
let pocs =
  let open Workloads.Attacks in
  [
    ("fr-iaik", fun () -> flush_reload ~style:Iaik ());
    ("fr-mastik", fun () -> flush_reload ~style:Mastik ());
    ("fr-nepoche", fun () -> flush_reload ~style:Nepoche ());
    ("ff", fun () -> flush_flush ());
    ("er", fun () -> evict_reload ());
    ("pp-iaik", fun () -> prime_probe ~style:Iaik ());
    ("pp-jzhang", fun () -> prime_probe ~style:Jzhang ());
    ("spectre-fr-classic", fun () -> spectre_fr ~style:Classic ());
    ("spectre-fr-idea", fun () -> spectre_fr ~style:Idea ());
    ("spectre-fr-good", fun () -> spectre_fr ~style:Good ());
    ("spectre-pp", fun () -> spectre_pp ());
    ("meltdown-fr", fun () -> meltdown_fr ());
  ]

let names = Array.of_list (List.map fst pocs @ List.map fst Workloads.Benign.families)

let is_attack name = List.mem_assoc name pocs

(* The job `scaguard` builds for [name] under [seed], as its resolver does. *)
let job ~seed name =
  match List.assoc_opt name pocs with
  | Some spec -> job_of_sample (Workloads.Dataset.of_spec (spec ()))
  | None ->
    let g = Workloads.Benign.build name (Sutil.Rng.create seed) in
    Scaguard.Pipeline.job ~init:g.Workloads.Benign.init ~name:g.Workloads.Benign.name
      g.Workloads.Benign.program

(* ---- requests ------------------------------------------------------------ *)

type kind =
  | Detect of string * int
  | Screen of string list * int
  | Stats
  | Reload
  | Ping
  | Shutdown

type req = {
  id : int;
  kind : kind;
  mutable due : int64;
      (** when the request is due: an offset from the phase start until the
          phase runs, then absolute *)
  mutable sent : int64;
  mutable finished : int64;  (** 0 until the final frame arrives *)
  mutable ok : bool;
  mutable code : string;  (** error code of a refused request *)
  mutable wall_ms : float;  (** the daemon's own wall_ms, when reported *)
  mutable verdict : key option;  (** a detect's streamed verdict *)
  mutable attack_targets : string list;  (** a screen's reply *)
}

let line_of id kind =
  let base = [ ("id", J.Num (float_of_int id)) ] in
  let targets ts = ("targets", J.List (List.map (fun t -> J.Str t) ts)) in
  let fields =
    match kind with
    | Detect (t, seed) ->
      [ ("op", J.Str "detect"); targets [ t ]; ("seed", J.Num (float_of_int seed)) ]
    | Screen (ts, seed) ->
      [ ("op", J.Str "screen"); targets ts; ("seed", J.Num (float_of_int seed)) ]
    | Stats -> [ ("op", J.Str "stats") ]
    | Reload -> [ ("op", J.Str "reload") ]
    | Ping -> [ ("op", J.Str "ping") ]
    | Shutdown -> [ ("op", J.Str "shutdown") ]
  in
  J.to_string
    (J.Obj (base @ fields @ [ ("deadline_ms", J.Num (float_of_int deadline_ms)) ]))
  ^ "\n"

(* Request contents, dealt from decks so every seed sends the same mix in
   another order: per 50 requests 45 single-target detects, 4 four-target
   screens and 1 stats; targets cycle through every resolvable name, and
   benign targets through sixteen seeds. *)
type mix = {
  rng : Sutil.Rng.t;  (** arrival times *)
  seeds : int array;
  next_kind : unit -> [ `Detect | `Screen | `Stats ];
  next_name : unit -> string;
  next_seed : unit -> int;
  mutable next_id : int;
}

let mix ~seed =
  let rng = Sutil.Rng.create seed in
  let seeds = Array.init 16 (fun k -> (seed * 16) + k) in
  let kinds = Array.init 50 (fun i -> if i < 45 then `Detect else if i < 49 then `Screen else `Stats) in
  { rng; seeds; next_kind = dealer (Sutil.Rng.split rng) kinds;
    next_name = dealer (Sutil.Rng.split rng) names;
    next_seed = dealer (Sutil.Rng.split rng) seeds; next_id = 1 }

let fresh_id m =
  let id = m.next_id in
  m.next_id <- id + 1;
  id

let req ~id ~due kind =
  { id; kind; due; sent = 0L; finished = 0L; ok = false; code = ""; wall_ms = 0.0;
    verdict = None; attack_targets = [] }

let draw m ~due =
  let kind =
    match m.next_kind () with
    | `Detect -> Detect (m.next_name (), m.next_seed ())
    | `Screen ->
      let ts = List.init 4 (fun _ -> m.next_name ()) in
      Screen (ts, m.next_seed ())
    | `Stats -> Stats
  in
  req ~id:(fresh_id m) ~due kind

(* An open-loop schedule: Poisson arrivals at [rate] for [count] requests,
   plus a reload of the resident image every [reload_every_s]. *)
let schedule m ~rate ~count =
  let t = ref 0.0 and next_reload = ref reload_every_s in
  let out = ref [] in
  for _ = 1 to count do
    t := !t -. (log (1.0 -. Sutil.Rng.float m.rng 1.0) /. rate);
    while !next_reload <= !t do
      out := req ~id:(fresh_id m) ~due:(Int64.of_float (!next_reload *. 1e9)) Reload :: !out;
      next_reload := !next_reload +. reload_every_s
    done;
    out := draw m ~due:(Int64.of_float (!t *. 1e9)) :: !out
  done;
  Array.of_list (List.rev !out)

(* ---- the connection ------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  framer : Scaguard.Server.Framer.t;
  buf : Bytes.t;
  pending : (int, req) Hashtbl.t;
  mutable lines : string list;  (** every frame received, for the wire replay *)
  mutable keep_lines : bool;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
    Some
      { fd; framer = Scaguard.Server.Framer.create (); buf = Bytes.create 65536;
        pending = Hashtbl.create 64; lines = []; keep_lines = false }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let send c r =
  let line = line_of r.id r.kind in
  r.sent <- now_ns ();
  Hashtbl.replace c.pending r.id r;
  let b = Bytes.unsafe_of_string line in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

let num key j = match J.member key j with Some (J.Num f) -> Some f | _ -> None

let on_frame c line =
  if c.keep_lines then c.lines <- line :: c.lines;
  match J.parse line with
  | Error e -> fail "serve: unparseable frame (%s): %s" e line
  | Ok j -> (
    match Option.bind (num "id" j) (fun id -> Hashtbl.find_opt c.pending (int_of_float id)) with
    | None -> fail "serve: frame for no pending request: %s" line
    | Some r -> (
      match (J.member "event" j, J.member "ok" j) with
      | Some (J.Str "verdict"), _ ->
        let family = match J.member "family" j with Some (J.Str f) -> Some f | _ -> None in
        let score = Option.value ~default:nan (num "score" j) in
        r.verdict <- Some { family; bits = Int64.bits_of_float score }
      | _, Some (J.Bool ok) ->
        r.finished <- now_ns ();
        r.ok <- ok;
        r.wall_ms <- Option.value ~default:0.0 (num "wall_ms" j);
        (match J.member "error" j with
        | Some e -> (
          match J.member "code" e with Some (J.Str code) -> r.code <- code | _ -> ())
        | None -> ());
        (match J.member "attack_targets" j with
        | Some (J.List ts) ->
          r.attack_targets <- List.filter_map (function J.Str s -> Some s | _ -> None) ts
        | _ -> ());
        Hashtbl.remove c.pending r.id
      | _ -> fail "serve: unexpected frame: %s" line))

(* Read what is available (waiting at most [timeout] s) and dispatch it. *)
let pump c ~timeout =
  match Unix.select [ c.fd ] [] [] (Float.max 0.0 timeout) with
  | [], _, _ -> ()
  | _ -> (
    match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
    | 0 -> fail "serve: the daemon closed the connection"
    | k ->
      List.iter
        (function
          | Scaguard.Server.Framer.Line l -> on_frame c l
          | Scaguard.Server.Framer.Overflow _ -> fail "serve: oversized frame")
        (Scaguard.Server.Framer.feed c.framer (Bytes.sub_string c.buf 0 k)))

(* Send [reqs] on their schedule (open loop: a request goes out when due,
   whatever is outstanding) and wait for every final frame. *)
let run_open c reqs =
  let start = Int64.add (now_ns ()) 1_000_000L in
  Array.iter (fun r -> r.due <- Int64.add start r.due) reqs;
  let n = Array.length reqs in
  let next = ref 0 in
  let last_progress = ref (now_ns ()) in
  while !next < n || Hashtbl.length c.pending > 0 do
    let now = now_ns () in
    while !next < n && reqs.(!next).due <= now do
      send c reqs.(!next);
      incr next
    done;
    let timeout =
      if !next < n then Int64.to_float (Int64.sub reqs.(!next).due now) /. 1e9 else 0.05
    in
    let before = Hashtbl.length c.pending in
    pump c ~timeout;
    if Hashtbl.length c.pending < before then last_progress := now_ns ()
    else if since_s !last_progress > 20.0 then fail "serve: no reply for 20 s"
  done

(* Closed loop: keep [window] requests outstanding until [stop ()]. *)
let run_closed c m ~window ~stop =
  let sent = ref [] in
  let top_up () =
    while Hashtbl.length c.pending < window && not (stop ()) do
      let r = draw m ~due:(now_ns ()) in
      sent := r :: !sent;
      send c r
    done
  in
  top_up ();
  while Hashtbl.length c.pending > 0 do
    pump c ~timeout:0.05;
    top_up ()
  done;
  Array.of_list (List.rev !sent)

let latency_ms r = ms_between r.due r.finished

(* ---- the daemon ---------------------------------------------------------- *)

type daemon = { pid : int; conn : conn; log_path : string }

let live = ref []

let stop_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () = at_exit stop_all

(* Spawn the daemon and time it until its first ping reply. *)
let spawn ~cli ~image ~socket ~log_path =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let log = Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let env = Array.append [| "OCAMLRUNPARAM=v=0x400" |] (Unix.environment ()) in
  let t0 = now_ns () in
  let pid =
    Unix.create_process_env cli
      [| cli; "serve"; "--repo-file"; image; "--socket"; socket; "--domains"; "2";
         "--queue-capacity"; string_of_int queue_capacity |]
      env Unix.stdin log log
  in
  Unix.close log;
  live := pid :: !live;
  let rec attach tries =
    match connect socket with
    | Some c -> c
    | None ->
      if tries = 0 then fail "serve: daemon did not start (see %s)" log_path;
      Unix.sleepf 0.002;
      attach (tries - 1)
  in
  let conn = attach 5000 in
  let ping = req ~id:0 ~due:(now_ns ()) Ping in
  send conn ping;
  while ping.finished = 0L do
    pump conn ~timeout:1.0
  done;
  (since_s t0, { pid; conn; log_path })

let shutdown d =
  let r = req ~id:(-1) ~due:(now_ns ()) Shutdown in
  send d.conn r;
  while r.finished = 0L do
    pump d.conn ~timeout:1.0
  done;
  Unix.close d.conn.fd;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (( <> ) d.pid) !live

(* minor_words and major_collections from the daemon's exit-time GC report. *)
let daemon_gc path =
  let text = try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> "" in
  let field name =
    List.find_map
      (fun l ->
        match String.split_on_char ':' l with
        | [ k; v ] when String.trim k = name -> float_of_string_opt (String.trim v)
        | _ -> None)
      (String.split_on_char '\n' text)
    |> Option.value ~default:0.0
  in
  [
    metric "gc.major" "count" (field "major_collections");
    metric "gc.minor_mwords" "Mwords" (field "minor_words" /. 1e6);
  ]

(* ---- checking ------------------------------------------------------------ *)

(* Reference verdicts for every (name, seed) the mix can draw: one
   Service.screen_prepared over all of them on the same image. *)
let reference ~image ~seeds =
  let pairs =
    Array.of_list
      (List.concat_map
         (fun n -> if is_attack n then [ (n, seeds.(0)) ] else List.map (fun s -> (n, s)) (Array.to_list seeds))
         (Array.to_list names))
  in
  let _, prepared, _ = ok_or "load image" (Scaguard.Service.load_repository ~path:image ()) in
  let jobs = Array.map (fun (n, s) -> job ~seed:s n) pairs in
  let _, verdicts, _ = ok_or "reference screen" (Scaguard.Service.screen_prepared config prepared jobs) in
  let tbl = Hashtbl.create 256 in
  Array.iteri (fun i (n, s) -> Hashtbl.replace tbl (n, s) (key_of_verdict verdicts.(i))) pairs;
  fun name seed -> Hashtbl.find tbl (name, if is_attack name then seeds.(0) else seed)

(* Count the failures among answered requests: refusals, wrong verdicts
   and a screen reply naming other attacks than the reference. *)
let check_all g refv reqs =
  Array.fold_left
    (fun failed r ->
      if not r.ok then begin
        Printf.eprintf "perfbench: request %d refused: %s\n%!" r.id r.code;
        failed + 1
      end
      else begin
        (match r.kind with
        | Detect (name, seed) -> (
          match r.verdict with
          | Some got -> check g ~what:name ~expected:(refv name seed) ~got
          | None -> check g ~what:name ~expected:(refv name seed) ~got:{ family = Some "?"; bits = 0L })
        | Screen (ts, seed) ->
          let expected = List.filter (fun n -> (refv n seed).family <> None) ts in
          g.compared <- g.compared + 1;
          if expected <> r.attack_targets then g.mismatched <- g.mismatched + 1
        | Stats | Reload | Ping | Shutdown -> ());
        failed
      end)
    0 reqs

let measured s reqs = Array.sub reqs s.warmup (Array.length reqs - s.warmup)

let fixed_phase c m s ~rate =
  let reqs = schedule m ~rate ~count:(s.warmup + s.measured) in
  run_open c reqs;
  measured s reqs

let lats reqs = Array.to_list (Array.map latency_ms reqs)

(* max_rps: the highest rung of a fixed geometric ladder (5% steps) whose
   probe meets the limit: every request answered, p99 within [limit_ms],
   and the probe's last request answered within it (no backlog left
   growing).  Exponential steps from the high rate, then bisection. *)
let ladder c m s =
  let rung k = 20.0 *. (1.05 ** float_of_int k) in
  let passes k =
    let rate = rung k in
    let reqs = schedule m ~rate ~count:(max 50 (int_of_float (rate *. s.probe_s))) in
    run_open c reqs;
    let last = reqs.(Array.length reqs - 1) in
    Array.for_all (fun r -> r.ok) reqs
    && quantile 0.99 (lats reqs) <= limit_ms
    && latency_ms last <= limit_ms
  in
  let k0 = int_of_float (Float.round (log (s.high_rate /. 20.0) /. log 1.05)) in
  let rec up lo step = if passes (lo + step) then up (lo + step) (2 * step) else (lo, lo + step) in
  let rec down hi step =
    let k = max 0 (hi - step) in
    if k = 0 || passes k then (k, hi) else down k (2 * step)
  in
  let lo, hi = if passes k0 then up k0 2 else down k0 2 in
  let rec bisect lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if passes mid then bisect mid hi else bisect lo mid
  in
  rung (bisect lo hi)

(* ---- the workload -------------------------------------------------------- *)

let run ?(sizes = sizes) ?(perturb = false) ~cli ~seed ~seconds:_ ~trace ~out () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let s = sizes in
  let image = Filename.concat out "serve-poc.bin" in
  let socket = Filename.concat out "serve.sock" in
  (match
     Unix.system
       (Filename.quote_command cli [ "build-repo"; image; "--format"; "binary" ]
          ~stdout:(Filename.concat out "build-repo.log"))
   with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "serve: %s build-repo failed" cli);
  let m = mix ~seed in
  let refv = reference ~image ~seeds:m.seeds in
  let g = gate ~perturb () in
  let spawn_one i =
    spawn ~cli ~image ~socket ~log_path:(Filename.concat out (Printf.sprintf "serve-%d.log" i))
  in
  let setups = ref [] and daemon = ref None in
  for i = 1 to s.setup_reps do
    let t, d = spawn_one i in
    setups := t :: !setups;
    if i < s.setup_reps then shutdown d else daemon := Some d
  done;
  let d = Option.get !daemon in
  let c = d.conn in
  let setup_s = median !setups in
  let finish () =
    let rss = peak_rss_mb ~pid:(string_of_int d.pid) in
    shutdown d;
    rss
  in
  if not trace then begin
    let low = fixed_phase c m s ~rate:s.low_rate in
    (* the daemon's peak at the low rate; the high rate can queue thousands
       of requests when the host slows, so the final peak is printed too *)
    let low_rss = peak_rss_mb ~pid:(string_of_int d.pid) in
    let high = fixed_phase c m s ~rate:s.high_rate in
    let t0 = now_ns () in
    let sat = run_closed c m ~window:s.window ~stop:(fun () -> since_s t0 >= s.saturation_s) in
    let max_rps = ladder c m s in
    let rss = finish () in
    let fixed = Array.append low high in
    let all = Array.concat [ low; high; sat ] in
    let refused = check_all g refv all in
    let failed = refused + g.mismatched in
    let targets r = match r.kind with Detect _ -> 1 | Screen (ts, _) -> List.length ts | _ -> 0 in
    let sat_targets = Array.fold_left (fun a r -> a + targets r) 0 sat in
    let sat_rate =
      chunked_rate ~t_start:t0
        (Array.to_list (Array.map (fun r -> (r.finished, targets r)) sat))
    in
    let detects =
      List.filter_map
        (fun r ->
          match (r.kind, r.verdict) with
          | Detect (name, _), Some v -> Some (is_attack name, v.family <> None)
          | _ -> None)
        (Array.to_list fixed)
    in
    let late = Array.to_list (Array.map (fun r -> ms_between r.due r.sent) fixed) in
    {
      attempted = Array.length all;
      failed;
      metrics =
        [
          metric "setup_s" "s" setup_s;
          metric ~n:sat_targets "targets_per_s" "1/s" sat_rate;
        ]
        @ latencies ~prefix:"" (lats low)
        @ latencies ~prefix:"low." (lats low)
        @ latencies ~prefix:"high." (lats high)
        @ [
            metric "max_rps" "1/s" max_rps;
            metric "failed_frac" "ratio" (ratio failed (Array.length all));
            metric "peak_rss_mb" "MB" low_rss;
            metric "final.peak_rss_mb" "MB" rss;
            metric ~n:(List.length detects) "f1" "ratio" (f1 detects);
            metric ~n:(List.length late) "gen.late_ms.p99" "ms" (quantile 0.99 late);
          ];
    }
  end
  else begin
    c.keep_lines <- true;
    let high = fixed_phase c m s ~rate:s.high_rate in
    c.keep_lines <- false;
    (* trace overhead: the same closed-loop request stream, one request
       outstanding, with and without spans *)
    let tr = tracer true in
    let record tr reqs =
      Array.iter
        (fun r ->
          add tr { layer = "request"; id = r.id; parent = ""; t0 = r.due; t1 = r.finished };
          if r.wall_ms > 0.0 then
            add tr
              { layer = "server"; id = r.id; parent = "request";
                t0 = Int64.sub r.finished (Int64.of_float (r.wall_ms *. 1e6)); t1 = r.finished })
        reqs
    in
    let pass tr =
      let t0 = now_ns () in
      let k = ref 0 in
      let reqs = run_closed c m ~window:1 ~stop:(fun () -> incr k; !k > s.overhead_requests) in
      record tr reqs;
      (reqs, since_s t0)
    in
    let off = tracer false in
    let r1, a1 = pass off in
    let r2, b1 = pass tr in
    let r3, a2 = pass off in
    let r4, b2 = pass (tracer true) in
    record tr high;
    let rss = finish () in
    let all = Array.concat [ high; r1; r2; r3; r4 ] in
    let refused = check_all g refv all in
    let failed = refused + g.mismatched in
    let served = List.filter (fun r -> r.ok && r.wall_ms > 0.0) (Array.to_list high) in
    let service = List.map (fun r -> r.wall_ms) served in
    let queue = List.map (fun r -> latency_ms r -. r.wall_ms) served in
    (* the wire cost of the same frames, replayed in-process *)
    let lines = List.rev c.lines in
    let wire () =
      let f = Scaguard.Server.Framer.create () in
      List.iter
        (fun l ->
          List.iter
            (function
              | Scaguard.Server.Framer.Line l -> ignore (J.parse l)
              | Scaguard.Server.Framer.Overflow _ -> ())
            (Scaguard.Server.Framer.feed f (l ^ "\n")))
        lines
    in
    let wire_s = median_time 5 wire in
    let reload_ms =
      List.filter_map
        (fun r -> if r.kind = Reload && r.ok then Some r.wall_ms else None)
        (Array.to_list high)
    in
    let late = Array.to_list (Array.map (fun r -> ms_between r.due r.sent) high) in
    let load_s, _ = load_image ~config ~reps:21 ~path:image in
    write_trace tr ~path:(Filename.concat out (Printf.sprintf "trace-serve-%d.json" seed));
    {
      attempted = Array.length all;
      failed;
      metrics =
        complete
          ([
             metric ~n:(List.length service) "server.service_ms.p50" "ms" (median service);
             metric ~n:(List.length service) "server.service_ms.p99" "ms" (quantile 0.99 service);
             metric ~n:(List.length queue) "server.queue_ms.p50" "ms" (median queue);
             metric ~n:(List.length queue) "server.queue_ms.p99" "ms" (quantile 0.99 queue);
             metric ~n:(List.length lines) "server.wire_us" "us"
               (1e6 *. wire_s /. float_of_int (max 1 (List.length lines)));
             metric "server.busy" "count"
               (float_of_int (Array.fold_left (fun a r -> if r.code = "busy" then a + 1 else a) 0 all));
             metric ~n:(List.length reload_ms) "server.reload_ms" "ms" (median reload_ms);
             metric ~n:(List.length late) "gen.late_ms.p99" "ms" (quantile 0.99 late);
             metric "persist.load_ms" "ms" (1e3 *. load_s);
             metric "persist.image_mb" "MB" (file_mb image);
             metric "trace.overhead_frac" "ratio" ((b1 +. b2 -. a1 -. a2) /. (a1 +. a2));
             metric "peak_rss_mb" "MB" rss;
           ]
          @ daemon_gc d.log_path
          @ self_metrics tr ~root:"request");
    }
  end
