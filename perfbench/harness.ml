(* Machinery shared by the three workloads: clock, percentiles, the metric
   record, the verdict gate, spans and process memory.  Everything here
   observes the program from outside, through its public interfaces. *)

let now_ns = Scaguard.Obs.Clock.now_ns
let since_s t0 = Scaguard.Obs.Clock.elapsed_s ~since:t0
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

(* The library defaults on the two domains the benchmark may use. *)
let config = { Scaguard.Config.default with Scaguard.Config.domains = Some 2 }

let fail fmt = Printf.ksprintf (fun m -> failwith ("perfbench: " ^ m)) fmt

let ok_or what = function
  | Ok v -> v
  | Error e -> fail "%s: %s" what (Scaguard.Err.to_string e)

(* ---- statistics ---------------------------------------------------------- *)

(* Nearest-rank, as Sutil.Stats computes it: with n samples the p99 has
   n - ceil(0.99 n) samples beyond it, so a p99 needs n >= 1000 for ten. *)
let quantile = Sutil.Stats.percentile
let median = Sutil.Stats.median

let beyond p n = n - int_of_float (ceil (p *. float_of_int n))
let mean = Sutil.Stats.mean

(* ---- metrics ------------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string; n : int option }

let metric ?n name unit value = { name; value; unit; n }

(* A timing distribution as its median, plus the p95 and p99 when the
   sample leaves at least ten beyond them; each with its sample count. *)
let latencies ~prefix xs =
  let n = List.length xs in
  List.filter_map
    (fun (p, name) ->
      if p = 0.5 || beyond p n >= 10 then Some (metric ~n (prefix ^ name) "ms" (quantile p xs))
      else None)
    [ (0.5, "p50_ms"); (0.95, "p95_ms"); (0.99, "p99_ms") ]

(* Completions per second as the median over consecutive chunks of
   [chunk] completions (each chunk's items over the time since the previous
   chunk ended), so a few slow seconds of a shared host move it less than
   they move the plain average; [events] are (completion time, items).  A
   run too short for one chunk gets the plain average. *)
let chunked_rate ?(chunk = 50) ~t_start events =
  let ev = Array.of_list events in
  Array.sort compare ev;
  let rates = ref [] and prev = ref t_start and items = ref 0 and k = ref 0 in
  Array.iter
    (fun (t, c) ->
      items := !items + c;
      incr k;
      if !k = chunk then begin
        rates := float_of_int !items /. (Int64.to_float (Int64.sub t !prev) /. 1e9) :: !rates;
        prev := t;
        items := 0;
        k := 0
      end)
    ev;
  match !rates with
  | [] ->
    let items = Array.fold_left (fun a (_, c) -> a + c) 0 ev in
    let t_end = Array.fold_left (fun a (t, _) -> max a t) t_start ev in
    float_of_int items /. (Int64.to_float (Int64.sub t_end t_start) /. 1e9)
  | rates -> median rates

(* What one run of a workload hands back to the entry point. *)
type outcome = {
  attempted : int;  (** operations attempted (targets or requests) *)
  failed : int;
      (** verdict mismatches, error frames, rejects and model mismatches *)
  metrics : metric list;  (** every number measured, printed by name *)
}

(* ---- the correctness gate ------------------------------------------------ *)

(* A verdict reduced to what the gate compares: the family and the exact
   bits of the best score. *)
type key = { family : string option; bits : int64 }

let key_of_verdict (v : Scaguard.Detector.verdict) =
  {
    family = v.Scaguard.Detector.best_family;
    bits = Int64.bits_of_float v.Scaguard.Detector.best_score;
  }

let pp_key k =
  Printf.sprintf "%s/%.17g"
    (Option.value ~default:"benign" k.family)
    (Int64.float_of_bits k.bits)

type gate = {
  mutable compared : int;
  mutable mismatched : int;
  mutable perturb : bool;
      (** the self-test's tripwire: nudge the next measured score by one
          ulp before comparing *)
}

let gate ?(perturb = false) () = { compared = 0; mismatched = 0; perturb }

let check g ~what ~expected ~got =
  let got =
    if g.perturb then begin
      g.perturb <- false;
      { got with bits = Int64.succ got.bits }
    end
    else got
  in
  g.compared <- g.compared + 1;
  if expected <> got then begin
    g.mismatched <- g.mismatched + 1;
    if g.mismatched <= 5 then
      Printf.eprintf "perfbench: verdict mismatch on %s: expected %s, got %s\n%!"
        what (pp_key expected) (pp_key got)
  end

(* Detection F1 (attack vs benign) of predicted attack flags against the
   generated labels. *)
let f1 pairs =
  let tp, fp, fn =
    List.fold_left
      (fun (tp, fp, fn) (label_attack, predicted_attack) ->
        match (label_attack, predicted_attack) with
        | true, true -> (tp + 1, fp, fn)
        | false, true -> (tp, fp + 1, fn)
        | true, false -> (tp, fp, fn + 1)
        | false, false -> (tp, fp, fn))
      (0, 0, 0) pairs
  in
  if tp = 0 then 0.0
  else float_of_int (2 * tp) /. float_of_int ((2 * tp) + fp + fn)

(* ---- spans --------------------------------------------------------------- *)

(* Spans recorded by the benchmark around its own calls into each layer.
   [id] groups the spans of one target (or request); [parent] names the
   enclosing span.  Kept in memory, written once at exit. *)
type span = { layer : string; id : int; parent : string; t0 : int64; t1 : int64 }

type tracer = { on : bool; mutable spans : span list }

let tracer on = { on; spans = [] }

let add tr s = if tr.on then tr.spans <- s :: tr.spans

(* Time [f] as a [layer] span; with tracing off this is exactly [f ()]. *)
let span tr ~id ~parent layer f =
  if not tr.on then f ()
  else begin
    let t0 = now_ns () in
    let r = f () in
    tr.spans <- { layer; id; parent; t0; t1 = now_ns () } :: tr.spans;
    r
  end

let dur_ns s = Int64.sub s.t1 s.t0

(* Self time per layer: a span's duration minus the part covered by its
   children (same id, parent = its layer; children never overlap because
   every call is sequential), summed per layer.  The root layer's self time
   is the unattributed remainder.  Returns (layer, self ns) and the total
   root time. *)
let self_times tr ~root =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let k = (s.id, s.parent) in
      Hashtbl.replace children k
        (Int64.add (dur_ns s)
           (Option.value ~default:0L (Hashtbl.find_opt children k))))
    tr.spans;
  let self = Hashtbl.create 16 in
  let total = ref 0L in
  List.iter
    (fun s ->
      let covered =
        Option.value ~default:0L (Hashtbl.find_opt children (s.id, s.layer))
      in
      let own = Int64.sub (dur_ns s) covered in
      Hashtbl.replace self s.layer
        (Int64.add own (Option.value ~default:0L (Hashtbl.find_opt self s.layer)));
      if s.layer = root then total := Int64.add !total (dur_ns s))
    tr.spans;
  (self, !total)

(* The self-time shares every workload reports, zero for layers it does not
   touch; [root]'s self time is reported as the unattributed share. *)
let self_layers =
  [ "cache"; "cpu"; "cfg"; "relevant"; "attack_graph"; "model"; "engine"; "server" ]

let self_metrics tr ~root =
  let self, total = self_times tr ~root in
  let frac layer =
    if total = 0L then 0.0
    else
      Int64.to_float (Option.value ~default:0L (Hashtbl.find_opt self layer))
      /. Int64.to_float total
  in
  List.map (fun l -> metric ("self." ^ l ^ "_frac") "ratio" (frac l)) self_layers
  @ [ metric "self.unattributed_frac" "ratio" (frac root) ]

let write_trace tr ~path =
  let spans =
    List.rev_map
      (fun s ->
        {
          Scaguard.Obs.name = s.layer;
          cat = "perfbench";
          tid = 0;
          ts_ns = s.t0;
          dur_ns = dur_ns s;
          args = [ ("id", string_of_int s.id); ("parent", s.parent) ];
        })
      tr.spans
  in
  ok_or "trace write" (Scaguard.Obs.Trace_writer.write ~path spans)

(* ---- process memory and GC ----------------------------------------------- *)

let status_kb ~pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> 0
          | line ->
            let pre = field ^ ":" in
            let lp = String.length pre in
            if String.length line > lp && String.sub line 0 lp = pre then
              Scanf.sscanf
                (String.sub line lp (String.length line - lp))
                " %d" Fun.id
            else go ()
        in
        go ())

let peak_rss_mb ~pid = float_of_int (status_kb ~pid "VmHWM") /. 1024.0

(* Forget the peak RSS so far (Linux clear_refs 5), so a later VmHWM
   covers only the work after input generation; a kernel without it leaves
   the peak covering the whole process. *)
let reset_peak_rss () =
  Gc.compact ();
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

type gc_mark = { minor_words : float; major_collections : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

let gc_metrics ~since =
  let now = gc_mark () in
  [
    metric "gc.major" "count"
      (float_of_int (now.major_collections - since.major_collections));
    metric "gc.minor_mwords" "Mwords"
      ((now.minor_words -. since.minor_words) /. 1e6);
  ]

(* ---- misc ---------------------------------------------------------------- *)

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let file_mb path = float_of_int (Unix.stat path).Unix.st_size /. 1048576.0

let job_of_sample (s : Workloads.Dataset.sample) =
  Scaguard.Pipeline.job ?settings:s.Workloads.Dataset.settings
    ~init:s.Workloads.Dataset.init ?victim:s.Workloads.Dataset.victim
    ~name:s.Workloads.Dataset.name s.Workloads.Dataset.program

(* [f] over [xs] on two domains, results in input order. *)
let parallel_map f xs =
  let out = Array.make (Array.length xs) None in
  ignore
    (Sutil.Pool.run ~domains:2 ~tasks:(Array.length xs) (fun ~worker:_ i ->
         out.(i) <- Some (f xs.(i))));
  Array.map Option.get out

(* Run [f] [k] times and keep the median wall time. *)
let median_time k f =
  median
    (List.init k (fun _ ->
         let t0 = now_ns () in
         f ();
         since_s t0))

(* ---- per-layer metrics --------------------------------------------------- *)

(* Every per-layer metric with its unit.  A traced run reports all of them;
   a layer the workload does not exercise reads 0 (cpu.exec_ms on classify,
   server.* on screen), which is itself the prediction it checks. *)
let per_layer_catalog =
  [
    ("cpu.exec_ms", "ms"); ("cpu.exec_ms.transient", "ms");
    ("cpu.exec_ms.plain", "ms"); ("cpu.ns_per_instr", "ns");
    ("cpu.alloc_kwords", "kwords"); ("cpu.instrs", "count");
    ("cpu.sim_cycles", "count"); ("cpu.branch_miss", "count");
    ("cache.create_us", "us"); ("cache.l1d_miss", "count");
    ("cache.llc_miss", "count"); ("hpc.accesses", "count");
    ("cfg.us", "us"); ("cfg.blocks", "count"); ("relevant.us", "us");
    ("relevant.frac", "ratio"); ("attack_graph.us", "us");
    ("model.cst_us", "us"); ("model.entries", "count");
    ("service.build_s", "s"); ("service.detect_s", "s");
    ("dtw.pairs", "count"); ("dtw.cells", "count"); ("dtw.lb_evals", "count");
    ("dtw.abandoned", "count"); ("dtw.pruned_frac", "ratio");
    ("dtw.ns_per_cell", "ns"); ("vpindex.nodes_visited", "count");
    ("vpindex.visited_frac", "ratio"); ("engine.utilization", "ratio");
    ("engine.imbalance", "ratio"); ("persist.load_ms", "ms");
    ("persist.image_mb", "MB"); ("server.service_ms.p50", "ms");
    ("server.service_ms.p99", "ms"); ("server.queue_ms.p50", "ms");
    ("server.queue_ms.p99", "ms"); ("server.wire_us", "us");
    ("server.busy", "count"); ("server.reload_ms", "ms");
    ("gen.late_ms.p99", "ms"); ("gc.major", "count");
    ("gc.minor_mwords", "Mwords"); ("trace.overhead_frac", "ratio");
  ]
  @ List.map (fun l -> ("self." ^ l ^ "_frac", "ratio")) self_layers
  @ [ ("self.unattributed_frac", "ratio") ]

(* [ms] plus a zero for every catalog metric the workload did not set. *)
let complete ms =
  ms
  @ List.filter_map
      (fun (name, unit) ->
        if List.exists (fun m -> m.name = name) ms then None
        else Some (metric name unit 0.0))
      per_layer_catalog

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* The engine's own counters for one batch (Service.report.engine). *)
let engine_metrics (s : Scaguard.Engine.stats) =
  let open Scaguard.Engine in
  let workers = Array.to_list (Array.map float_of_int s.per_worker) in
  [
    metric "dtw.pairs" "count" (float_of_int s.pairs);
    metric "dtw.cells" "count" (float_of_int s.cells);
    metric "dtw.lb_evals" "count" (float_of_int s.lb_evals);
    metric "dtw.abandoned" "count" (float_of_int s.pairs_abandoned);
    metric "dtw.pruned_frac" "ratio"
      (ratio (s.pairs_pruned_lb + s.pairs_pruned_index) s.pairs);
    metric "dtw.ns_per_cell" "ns"
      (if s.cells = 0 then 0.0 else s.cpu_s *. 1e9 /. float_of_int s.cells);
    metric "vpindex.nodes_visited" "count" (float_of_int s.nodes_visited);
    metric "vpindex.visited_frac" "ratio" (ratio s.lb_evals s.pairs);
    metric "engine.utilization" "ratio" (utilization s);
    metric "engine.imbalance" "ratio"
      (if workers = [] || mean workers = 0.0 then 0.0
       else Sutil.Stats.maximum workers /. mean workers);
  ]

(* Stage wall times and engine counters from a Service report. *)
let report_metrics (r : Scaguard.Service.report) =
  let stage name =
    List.fold_left
      (fun acc (t : Scaguard.Service.timing) ->
        if t.Scaguard.Service.stage = name then acc +. t.Scaguard.Service.wall_s
        else acc)
      0.0 r.Scaguard.Service.timings
  in
  [
    metric "service.build_s" "s" (stage "build");
    metric "service.detect_s" "s" (stage "detect");
  ]
  @ match r.Scaguard.Service.engine with
    | Some s -> engine_metrics s
    | None -> []

(* Draw from [items] without replacement, reshuffling (seeded) after every
   full pass: any stretch of draws holds each item about equally often, so
   the seed changes the order of the inputs, not their mix. *)
let dealer rng items =
  let items = Array.copy items in
  let pos = ref (Array.length items) in
  fun () ->
    if !pos = Array.length items then begin
      Sutil.Rng.shuffle_arr rng items;
      pos := 0
    end;
    let x = items.(!pos) in
    incr pos;
    x

(* Batches of [batch] pool indices, dealt so that batches mix differently
   on every pass and the latency tail is not fixed by a handful of
   recurring batches. *)
let batches ~seed ~pool ~batch =
  let deal = dealer (Sutil.Rng.create seed) (Array.init pool Fun.id) in
  fun () -> Array.init batch (fun _ -> deal ())

(* setup_s: image load plus prepare, the time until the first target can be
   classified, as the median of [reps] loads; with the last load's prepared
   repository (earlier ones are dropped before the next load starts). *)
let load_image ~config ~reps ~path =
  let last = ref None in
  let times =
    List.init reps (fun _ ->
        last := None;
        let t0 = now_ns () in
        let _, prepared, _ =
          ok_or "load image" (Scaguard.Service.load_repository ~config ~path ())
        in
        let t = since_s t0 in
        last := Some prepared;
        t)
  in
  (median times, Option.get !last)
