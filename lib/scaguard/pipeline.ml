type analysis = {
  name : string;
  cfg : Cfg.Graph.t;
  info : Relevant.info;
  attack_graph : Attack_graph.t;
  model : Model.t;
  exec : Cpu.Exec.result;
}

let analyze ?max_paths ?max_len ?cst_config ?measurer ~name ~program exec =
  let cfg = Cfg.Graph.of_program program in
  let info = Relevant.identify cfg exec.Cpu.Exec.collector in
  let attack_graph =
    Attack_graph.build ?max_paths ?max_len cfg ~hpc:info.Relevant.hpc_of_block
      ~relevant:info.Relevant.relevant
  in
  let model = Model.build ?cst_config ?measurer ~name info attack_graph in
  { name; cfg; info; attack_graph; model; exec }

let run_and_analyze ?settings ?init ?victim ?max_paths ?max_len ?cst_config
    program =
  let exec = Cpu.Exec.run ?settings ?init ?victim program in
  analyze ?max_paths ?max_len ?cst_config ~name:(Isa.Program.name program)
    ~program exec

(* ------------------------------------------------------------------ *)
(* Batch front-end.                                                    *)

type job = {
  job_name : string;
  program : Isa.Program.t;
  settings : Cpu.Exec.settings option;
  init : (Cpu.Machine.t -> unit) option;
  victim : (Isa.Program.t * (Cpu.Machine.t -> unit)) option;
  salt : string;
}

let job ?settings ?init ?victim ?(salt = "") ~name program =
  { job_name = name; program; settings; init; victim; salt }

(* Observe one actual model construction (cache hits never reach this):
   bump the build counter and latency histogram, and emit a sampled
   build:model span tagged with the job name.  [build] is the untimed
   construction; when observability is off this is exactly [build ()]. *)
let timed_build ~name i build =
  if Obs.enabled () then begin
    let t0 = Obs.Clock.now_ns () in
    let result = build () in
    let dur_ns = Obs.Clock.elapsed_ns ~since:t0 in
    if Obs.metrics () then begin
      Obs.Registry.incr Obs.Metrics.models_built_total;
      Obs.Registry.observe Obs.Metrics.model_build_seconds
        (Obs.Clock.ns_to_s dur_ns)
    end;
    if Obs.sampled i then
      Obs.emit_span ~cat:"build" ~args:[ ("model", name) ] ~name:"build:model"
        ~ts_ns:t0 ~dur_ns ();
    result
  end
  else build ()

(* Fan the jobs over a pool with one Cst.measurer and one cache hierarchy
   per worker (the per-block CST simulator and the simulated caches are
   reset and reused instead of reallocated), collecting models by index.
   A reset hierarchy is exactly a fresh one, output order is the input
   order regardless of which worker ran what, and each job's computation is
   independent of every other's, so results are byte-identical to a
   sequential loop. *)
let build_models_batch ?domains ?cache ?max_paths ?max_len ?cst_config jobs =
  let n = Array.length jobs in
  let workers = Sutil.Pool.domains_for ?domains n in
  let measurers = Array.init workers (fun _ -> Cst.measurer ()) in
  let hierarchies = Array.init workers (fun _ -> Cache.Hierarchy.create ()) in
  let build_one ~worker i =
    let j = jobs.(i) in
    let build () =
      timed_build ~name:j.job_name i (fun () ->
          let hierarchy = hierarchies.(worker) in
          Cache.Hierarchy.reset hierarchy;
          let exec =
            Cpu.Exec.run ?settings:j.settings ~hierarchy ?init:j.init
              ?victim:j.victim j.program
          in
          (analyze ?max_paths ?max_len ?cst_config
             ~measurer:measurers.(worker) ~name:j.job_name
             ~program:j.program exec)
            .model)
    in
    match cache with
    | None -> build ()
    | Some c ->
      let key =
        Model_cache.key ?settings:j.settings ?cst_config ?max_paths ?max_len
          ?victim:(Option.map fst j.victim) ~salt:j.salt ~name:j.job_name
          j.program
      in
      Model_cache.find_or_build c ~key build
  in
  let out = Array.make n None in
  let probe = if Obs.tracing () then Obs.pool_probe ~stage:"build" else None in
  ignore
    (Sutil.Pool.run ?domains ?probe ~tasks:n (fun ~worker i ->
         out.(i) <- Some (build_one ~worker i)));
  Array.map Option.get out
