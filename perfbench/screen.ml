(* Workload `screen`: the paper's section V batch deployment loop.  Fresh,
   seed-generated targets are built and classified by
   Service.screen_prepared against the default per-family PoC repository,
   loaded from a SCAGBIN image, with no model cache, so every call
   simulates every target again.  Simulation dominates the time here. *)

open Harness
module D = Workloads.Dataset
module L = Workloads.Label

type sizes = {
  attacks : int;  (** mutated samples per attack family *)
  obfuscated : int;  (** obfuscated (E4) samples per attack family *)
  benign : int;  (** benign samples, Table III proportions *)
  batch : int;  (** targets per Service.screen_prepared call *)
  setup_reps : int;  (** image loads whose median is setup_s *)
}

(* 768 distinct targets: the per-target cost varies several-fold, so a
   pool this large keeps the seed from moving the workload's mean cost by
   more than a few percent. *)
let sizes =
  { attacks = 64; obfuscated = 32; benign = 384; batch = 4; setup_reps = 21 }

(* The repository `scaguard build-repo` writes by default: one harnessed PoC
   per family, built from the CLI's default seed. *)
let default_repository_seed = 2026

let targets ~sizes ~seed =
  let rng = Sutil.Rng.create seed in
  let fams f = List.concat_map f L.attack_labels in
  let samples =
    fams (fun l -> D.mutated_attacks ~rng ~count:sizes.attacks l)
    @ fams (fun l -> D.obfuscated_attacks ~rng ~count:sizes.obfuscated l)
    @ D.benign_samples ~rng ~count:sizes.benign
  in
  Array.of_list
    (List.map
       (fun (s : D.sample) ->
         ( {
             Layers.job = job_of_sample s;
             transient =
               (match s.D.label with
               | L.Spectre_fr | L.Spectre_pp -> true
               | _ -> false);
           },
           L.is_attack s.D.label ))
       samples)

let save_poc_image ~path =
  let repo =
    Experiments.Common.repository
      ~rng:(Sutil.Rng.create default_repository_seed)
      L.attack_labels
  in
  ignore
    (ok_or "save image"
       (Scaguard.Service.save_repository
          { config with Scaguard.Config.repo_format = Scaguard.Config.Binary }
          ~path repo))

(* The reference verdict of each target: the exact sequential path, a
   fresh Pipeline.run_and_analyze model scored by Detector.classify with
   pruning off; targets are independent, so they are spread over two
   domains. *)
let reference repo (pool : (Layers.target * bool) array) =
  parallel_map
    (fun ((t : Layers.target), _) ->
      let j = t.Layers.job in
      let a =
        Scaguard.Pipeline.run_and_analyze ?settings:j.Scaguard.Pipeline.settings
          ?init:j.Scaguard.Pipeline.init ?victim:j.Scaguard.Pipeline.victim
          j.Scaguard.Pipeline.program
      in
      key_of_verdict (Scaguard.Detector.classify ~prune:false repo a.Scaguard.Pipeline.model))
    pool

let run ?(sizes = sizes) ?(perturb = false) ~seed ~seconds ~trace ~out () =
  let image = Filename.concat out "screen-poc.bin" in
  save_poc_image ~path:image;
  let pool = targets ~sizes ~seed in
  let n = Array.length pool in
  let repo0, _, _ = ok_or "load image" (Scaguard.Service.load_repository ~path:image ()) in
  let refs = reference repo0 pool in
  let g = gate ~perturb () in
  let f1 =
    f1 (Array.to_list (Array.mapi (fun i (_, attack) -> (attack, refs.(i).family <> None)) pool))
  in
  reset_peak_rss ();
  let setup_s, prepared = load_image ~config ~reps:sizes.setup_reps ~path:image in
  if not trace then begin
    let next_batch = batches ~seed:(seed + 1) ~pool:n ~batch:sizes.batch in
    let lat = ref [] and ends = ref [] and done_ = ref 0 and failed = ref 0 in
    let t_start = now_ns () in
    while since_s t_start < seconds do
      let idx = next_batch () in
      let jobs = Array.map (fun i -> (fst pool.(i)).Layers.job) idx in
      let t0 = now_ns () in
      (match Scaguard.Service.screen_prepared config prepared jobs with
      | Ok (_, verdicts, _) ->
        let t1 = now_ns () in
        lat := ms_between t0 t1 :: !lat;
        ends := (t1, sizes.batch) :: !ends;
        Array.iteri
          (fun k v ->
            check g ~what:(fst pool.(idx.(k))).Layers.job.Scaguard.Pipeline.job_name
              ~expected:refs.(idx.(k)) ~got:(key_of_verdict v))
          verdicts
      | Error e ->
        Printf.eprintf "perfbench: screen_prepared: %s\n%!" (Scaguard.Err.to_string e);
        failed := !failed + sizes.batch);
      done_ := !done_ + sizes.batch
    done;
    let failed = !failed + g.mismatched in
    {
      attempted = !done_;
      failed;
      metrics =
        [
          metric "setup_s" "s" setup_s;
          metric ~n:!done_ "targets_per_s" "1/s" (chunked_rate ~t_start !ends);
        ]
        @ latencies ~prefix:"" !lat
        @ [
            metric "failed_frac" "ratio" (ratio failed !done_);
            metric "peak_rss_mb" "MB" (peak_rss_mb ~pid:"self");
            metric ~n "f1" "ratio" f1;
          ];
    }
  end
  else begin
    (* The traced run composes the layers from outside, one pass over the
       targets at a time, alternating untraced and traced passes so
       trace.overhead_frac compares like with like. *)
    let ws = Scaguard.Dtw.workspace () in
    let targets = Array.map fst pool in
    let pass ~base tr =
      let t0 = now_ns () in
      let r =
        Array.mapi
          (fun i t -> Layers.screen_one tr ~ws ~prepared ~id:(base + i) t)
          targets
      in
      (r, since_s t0)
    in
    let tr = tracer true in
    let results = ref [||] and untraced = ref 0.0 and traced = ref 0.0 in
    let passes = ref 0 and t_start = now_ns () in
    while !passes < 2 || since_s t_start < seconds do
      let base = !passes * n in
      let _, a = pass ~base (tracer false) in
      let r, b = pass ~base tr in
      if !passes = 0 then results := r;
      untraced := !untraced +. a;
      traced := !traced +. b;
      incr passes
    done;
    let results = !results in
    let overhead = (!traced -. !untraced) /. !untraced in
    Array.iteri
      (fun i (_, _, v) ->
        check g ~what:targets.(i).Layers.job.Scaguard.Pipeline.job_name
          ~expected:refs.(i) ~got:(key_of_verdict v))
      results;
    let models = Array.map (fun (m, _, _) -> m) results in
    let counts = Array.map (fun (_, c, _) -> c) results in
    let differ = Layers.same_program ~config targets models in
    (* the service's own split of the blocking path on the same jobs *)
    let gc0 = gc_mark () in
    let _, verdicts, report =
      ok_or "screen_prepared"
        (Scaguard.Service.screen_prepared config prepared
           (Array.map (fun t -> t.Layers.job) targets))
    in
    let gcm = gc_metrics ~since:gc0 in
    Array.iteri
      (fun i v ->
        check g ~what:targets.(i).Layers.job.Scaguard.Pipeline.job_name
          ~expected:refs.(i) ~got:(key_of_verdict v))
      verdicts;
    write_trace tr ~path:(Filename.concat out (Printf.sprintf "trace-screen-%d.json" seed));
    {
      attempted = g.compared + n;
      failed = g.mismatched + differ;
      metrics =
        complete
          (Layers.metrics tr targets counts
          @ report_metrics report @ gcm
          @ [
              metric "persist.load_ms" "ms" (1e3 *. setup_s);
              metric "persist.image_mb" "MB" (file_mb image);
              metric "trace.overhead_frac" "ratio" overhead;
            ]
          @ self_metrics tr ~root:"target");
    }
  end
