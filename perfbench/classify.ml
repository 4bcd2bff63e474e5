(* Workload `classify`: pre-built target models classified by
   Service.detect_prepared against a 10k-model repository, saved as a
   SCAGBIN v2 image with an embedded index and loaded through
   Service.load_repository.  Nothing is simulated in the timed phase: DTW,
   the vantage-point index, the engine and the image loader do all the
   work. *)

open Harness
module D = Workloads.Dataset
module L = Workloads.Label
module M = Scaguard.Model

type sizes = {
  models : int;  (** repository size *)
  bases : int;  (** mutated samples per family the synthetic models derive from *)
  targets : int;  (** distinct target models, classified cyclically; a multiple of 4 * bases *)
  batch : int;  (** targets per Service.detect_prepared call *)
  setup_reps : int;  (** image loads whose median is setup_s *)
}

let sizes =
  { models = 10_000; bases = 8; targets = 64; batch = 8;
    setup_reps = 7 }

(* Synthetic repository members: pipeline-built attack models with
   entry-level edits (drop or duplicate the head entry, splice one entry's
   token sequence with a prefix of another real entry's and take that
   entry's measured CST), so every entry carries a real CST and every token
   stays inside observed token space. *)
let synthesize ~rng ~count (base : (string * M.t) array) =
  let pool = Array.concat (Array.to_list (Array.map (fun (_, m) -> M.entries_array m) base)) in
  Array.init count (fun i ->
      let family, bm = base.(i mod Array.length base) in
      let entries = Array.to_list (M.entries_array bm) in
      let entries =
        match entries with
        | _ :: tl when List.length entries > 2 && Sutil.Rng.int rng 4 = 0 -> tl
        | es -> es
      in
      let entries =
        if Sutil.Rng.int rng 4 = 0 then List.hd entries :: entries else entries
      in
      let victim = Sutil.Rng.int rng (List.length entries) in
      let entries =
        List.mapi
          (fun k (e : M.entry) ->
            if k <> victim then e
            else begin
              let p = pool.(Sutil.Rng.int rng (Array.length pool)) in
              let en = e.M.normalized and pn = p.M.normalized in
              let cut = Sutil.Rng.int rng (Array.length en + 1) in
              let add = Array.sub pn 0 (Sutil.Rng.int rng (Array.length pn + 1)) in
              let normalized = Array.append (Array.sub en 0 cut) add in
              let normalized = if Array.length normalized = 0 then en else normalized in
              M.make_entry ~block:e.M.block ~instrs:e.M.instrs ~normalized ~cst:p.M.cst
                ~first_time:e.M.first_time
            end)
          entries
      in
      { Scaguard.Detector.family; model = M.make ~name:(Printf.sprintf "synth-%05d" i) entries })

(* The repository is the deployment's configuration, not an input: it is
   synthesized from a fixed seed (bench's default), so the workload seed
   moves only the targets. *)
let repository_seed = 20260704

(* The repository image and the target models.  Targets are fresh
   synthetic variants, not repository members, so each is close to one
   family and far from the rest; every base model gets the same number of
   them, which keeps the pool's cost nearly independent of the seed. *)
let generate ~sizes ~seed ~image =
  let rng = Sutil.Rng.create repository_seed in
  let base_samples =
    List.concat_map
      (fun l ->
        List.map (fun s -> (L.to_string l, s)) (D.mutated_attacks ~rng ~count:sizes.bases l))
      L.attack_labels
  in
  let base_models, _ =
    ok_or "Service.build"
      (Scaguard.Service.build config
         (Array.of_list (List.map (fun (_, s) -> job_of_sample s) base_samples)))
  in
  let base =
    Array.of_list (List.mapi (fun i (fam, _) -> (fam, base_models.(i))) base_samples)
  in
  let repo = Array.to_list (synthesize ~rng ~count:sizes.models base) in
  ignore
    (ok_or "save image"
       (Scaguard.Service.save_repository
          { config with Scaguard.Config.repo_format = Scaguard.Config.Binary }
          ~path:image repo));
  let targets = synthesize ~rng:(Sutil.Rng.create seed) ~count:sizes.targets base in
  (repo, Array.map (fun p -> p.Scaguard.Detector.model) targets)

(* Reference verdicts: Detector.classify with pruning off (the repository
   prepared once instead of per call, which is all Detector.classify adds),
   the targets spread over two domains. *)
let reference repo models =
  let prep = Scaguard.Detector.prepare repo in
  parallel_map
    (fun m -> key_of_verdict (Scaguard.Detector.classify_prepared ~prune:false prep m))
    models

let run ?(sizes = sizes) ?(perturb = false) ~seed ~seconds ~trace ~out () =
  let image = Filename.concat out "classify-repo.bin" in
  let repo, models = generate ~sizes ~seed ~image in
  let refs = reference repo models in
  let n = Array.length models in
  let g = gate ~perturb () in
  let f1 =
    f1 (Array.to_list (Array.map (fun r -> (true, r.family <> None)) refs))
  in
  reset_peak_rss ();
  let setup_s, prepared = load_image ~config ~reps:sizes.setup_reps ~path:image in
  if not trace then begin
    (* two callers, one per domain, each classifying [batch] targets per
       Service.detect_prepared call, closed loop, until [seconds] pass; the
       gate runs after.  Target costs differ by an order of magnitude, so a
       call of several targets keeps its latency from hinging on which few
       targets the seed made cheap. *)
    let deal = dealer (Sutil.Rng.create (seed + 1)) (Array.init n Fun.id) in
    let batches = Array.init 100_000 (fun _ -> Array.init sizes.batch (fun _ -> deal ())) in
    let single = { config with Scaguard.Config.domains = Some 1 } in
    let next = Atomic.make 0 in
    let t_start = now_ns () in
    let caller () =
      let rec loop acc =
        let k = Atomic.fetch_and_add next 1 in
        if k >= Array.length batches || since_s t_start >= seconds then acc
        else begin
          let idx = batches.(k) in
          let t0 = now_ns () in
          let r = Scaguard.Service.detect_prepared single prepared (Array.map (fun i -> models.(i)) idx) in
          loop ((idx, t0, now_ns (), r) :: acc)
        end
      in
      loop []
    in
    let other = Domain.spawn caller in
    let mine = caller () in
    let calls = mine @ Domain.join other in
    let errors =
      List.fold_left
        (fun errors (idx, _, _, r) ->
          match r with
          | Ok (verdicts, _) ->
            Array.iteri
              (fun k v ->
                check g ~what:models.(idx.(k)).M.name ~expected:refs.(idx.(k))
                  ~got:(key_of_verdict v))
              verdicts;
            errors
          | Error e ->
            Printf.eprintf "perfbench: detect_prepared: %s\n%!" (Scaguard.Err.to_string e);
            errors + sizes.batch)
        0 calls
    in
    let done_ = sizes.batch * List.length calls in
    let failed = errors + g.mismatched in
    {
      attempted = done_;
      failed;
      metrics =
        [
          metric "setup_s" "s" setup_s;
          metric ~n:done_ "targets_per_s" "1/s"
            (chunked_rate ~chunk:10 ~t_start (List.map (fun (_, _, t1, _) -> (t1, sizes.batch)) calls));
        ]
        @ latencies ~prefix:"" (List.map (fun (_, t0, t1, _) -> ms_between t0 t1) calls)
        @ [
            metric "failed_frac" "ratio" (ratio failed done_);
            metric "peak_rss_mb" "MB" (peak_rss_mb ~pid:"self");
            metric ~n "f1" "ratio" f1;
          ];
    }
  end
  else begin
    (* Traced: one engine span per target around Detector.classify_prepared
       (DTW, index and engine are not separable from outside), alternating
       untraced and traced passes for trace.overhead_frac. *)
    let ws = Scaguard.Dtw.workspace () in
    let pass ~base tr =
      let t0 = now_ns () in
      let vs =
        Array.mapi
          (fun i m ->
            let id = base + i in
            span tr ~id ~parent:"" "target" (fun () ->
                span tr ~id ~parent:"target" "engine" (fun () ->
                    Scaguard.Detector.classify_prepared ~ws prepared m)))
          models
      in
      (vs, since_s t0)
    in
    let tr = tracer true in
    let untraced = ref 0.0 and traced = ref 0.0 and passes = ref 0 in
    let t_start = now_ns () in
    while !passes < 2 || since_s t_start < seconds do
      let base = !passes * n in
      let _, a = pass ~base (tracer false) in
      let vs, b = pass ~base tr in
      Array.iteri
        (fun i v ->
          check g ~what:models.(i).M.name ~expected:refs.(i) ~got:(key_of_verdict v))
        vs;
      untraced := !untraced +. a;
      traced := !traced +. b;
      incr passes
    done;
    let gc0 = gc_mark () in
    let verdicts, report = ok_or "detect_prepared" (Scaguard.Service.detect_prepared config prepared models) in
    let gcm = gc_metrics ~since:gc0 in
    Array.iteri
      (fun i v -> check g ~what:models.(i).M.name ~expected:refs.(i) ~got:(key_of_verdict v))
      verdicts;
    write_trace tr ~path:(Filename.concat out (Printf.sprintf "trace-classify-%d.json" seed));
    {
      attempted = g.compared;
      failed = g.mismatched;
      metrics =
        complete
          (report_metrics report @ gcm
          @ [
              metric "persist.load_ms" "ms" (1e3 *. setup_s);
              metric "persist.image_mb" "MB" (file_mb image);
              metric "trace.overhead_frac" "ratio" ((!traced -. !untraced) /. !untraced);
            ]
          @ self_metrics tr ~root:"target");
    }
  end
