(* The modeling chain composed from outside, one public call per layer:
   Cache.Hierarchy.create -> Cpu.Exec.run -> Cfg.Graph.of_program ->
   Scaguard.Relevant.identify -> Scaguard.Attack_graph.build ->
   Scaguard.Model.build, then Detector.classify_prepared.  Each call is a
   span of the target's root span, so the traced run attributes a target's
   time to the layer that spent it.  [same_program] proves the composition
   builds byte-identical models to Service.build, so these per-layer
   numbers describe the program the end-to-end metrics measure. *)

open Harness

type target = {
  job : Scaguard.Pipeline.job;
  transient : bool;  (** a Spectre/Meltdown sample: mispredicts run transiently *)
}

(* Work counters of one target: exact, so a pure speed change must leave
   every one of them unchanged. *)
type counts = {
  instrs : int;
  cycles : int;
  branch_miss : int;
  l1d_miss : int;
  llc_miss : int;
  accesses : int;
  blocks : int;
  relevant : int;
  entries : int;
  alloc_words : float;  (** words the Exec.run call allocated *)
}

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let build tr ~id (t : target) =
  let j = t.job in
  let sp layer f = span tr ~id ~parent:"target" layer f in
  let hierarchy = sp "cache" Cache.Hierarchy.create in
  let w0 = allocated_words () in
  let exec =
    sp "cpu" (fun () ->
        Cpu.Exec.run ?settings:j.Scaguard.Pipeline.settings ~hierarchy
          ?init:j.Scaguard.Pipeline.init ?victim:j.Scaguard.Pipeline.victim
          j.Scaguard.Pipeline.program)
  in
  let alloc_words = allocated_words () -. w0 in
  let cfg = sp "cfg" (fun () -> Cfg.Graph.of_program j.Scaguard.Pipeline.program) in
  let info =
    sp "relevant" (fun () -> Scaguard.Relevant.identify cfg exec.Cpu.Exec.collector)
  in
  let ag =
    sp "attack_graph" (fun () ->
        Scaguard.Attack_graph.build cfg ~hpc:info.Scaguard.Relevant.hpc_of_block
          ~relevant:info.Scaguard.Relevant.relevant)
  in
  let model =
    sp "model" (fun () ->
        Scaguard.Model.build ~name:j.Scaguard.Pipeline.job_name info ag)
  in
  let tot = Hpc.Collector.total_counters exec.Cpu.Exec.collector in
  let ev e = Hpc.Counters.get tot e in
  let counts =
    {
      instrs = exec.Cpu.Exec.instructions;
      cycles = exec.Cpu.Exec.cycles;
      branch_miss = ev Hpc.Event.Branch_miss;
      l1d_miss = ev Hpc.Event.L1d_load_miss;
      llc_miss = ev Hpc.Event.Llc_load_miss + ev Hpc.Event.Llc_store_miss;
      accesses = Hpc.Collector.access_count exec.Cpu.Exec.collector;
      blocks = Cfg.Graph.n_blocks cfg;
      relevant = List.length info.Scaguard.Relevant.relevant;
      entries = Scaguard.Model.length model;
      alloc_words;
    }
  in
  (model, counts)

(* One target end to end: its root span around the modeling chain and the
   classification against the prepared repository. *)
let screen_one tr ~ws ~prepared ~id t =
  span tr ~id ~parent:"" "target" (fun () ->
      let model, counts = build tr ~id t in
      let v =
        span tr ~id ~parent:"target" "engine" (fun () ->
            Scaguard.Detector.classify_prepared ~ws prepared model)
      in
      (model, counts, v))

(* Models built by the outside composition must be byte-identical to
   Service.build's on the same jobs; returns the number that differ. *)
let same_program ~config targets models =
  let jobs = Array.map (fun t -> t.job) targets in
  let built, _ = ok_or "Service.build" (Scaguard.Service.build config jobs) in
  let differ = ref 0 in
  Array.iteri
    (fun i m ->
      if Scaguard.Persist.model_to_string m
         <> Scaguard.Persist.model_to_string built.(i)
      then begin
        incr differ;
        Printf.eprintf "perfbench: model of %s differs from Service.build's\n%!"
          jobs.(i).Scaguard.Pipeline.job_name
      end)
    models;
  !differ

(* Per-layer metrics of traced composition passes (span [id] mod the
   target count is the target): mean span time per target for each
   modeling layer, the transient/plain split of Exec.run, and the exact work
   counters of one pass, summed over the targets. *)
let metrics tr targets (counts : counts array) =
  let n = Array.length targets in
  let sum_by layer pred =
    List.fold_left
      (fun (ns, k) s ->
        if s.layer = layer && pred (s.id mod n) then (Int64.add ns (dur_ns s), k + 1)
        else (ns, k))
      (0L, 0) tr.spans
  in
  let mean_ms layer pred =
    let ns, k = sum_by layer pred in
    if k = 0 then 0.0 else Int64.to_float ns /. 1e6 /. float_of_int k
  in
  let all _ = true in
  let us layer = 1e3 *. mean_ms layer all in
  let sum f = Array.fold_left (fun a c -> a + f c) 0 counts in
  let fsum f = Array.fold_left (fun a c -> a +. f c) 0.0 counts in
  let exec_ns, _ = sum_by "cpu" all in
  let instrs = sum (fun c -> c.instrs) in
  let blocks = sum (fun c -> c.blocks) in
  [
    metric ~n "cpu.exec_ms" "ms" (mean_ms "cpu" all);
    metric "cpu.exec_ms.transient" "ms"
      (mean_ms "cpu" (fun id -> targets.(id).transient));
    metric "cpu.exec_ms.plain" "ms"
      (mean_ms "cpu" (fun id -> not targets.(id).transient));
    metric "cpu.ns_per_instr" "ns"
      (if instrs = 0 then 0.0 else Int64.to_float exec_ns /. float_of_int instrs);
    metric "cpu.alloc_kwords" "kwords"
      (fsum (fun c -> c.alloc_words) /. 1e3 /. float_of_int (max 1 n));
    metric "cpu.instrs" "count" (float_of_int instrs);
    metric "cpu.sim_cycles" "count" (float_of_int (sum (fun c -> c.cycles)));
    metric "cpu.branch_miss" "count" (float_of_int (sum (fun c -> c.branch_miss)));
    metric "cache.create_us" "us" (us "cache");
    metric "cache.l1d_miss" "count" (float_of_int (sum (fun c -> c.l1d_miss)));
    metric "cache.llc_miss" "count" (float_of_int (sum (fun c -> c.llc_miss)));
    metric "hpc.accesses" "count" (float_of_int (sum (fun c -> c.accesses)));
    metric "cfg.us" "us" (us "cfg");
    metric "cfg.blocks" "count" (float_of_int blocks);
    metric "relevant.us" "us" (us "relevant");
    metric "relevant.frac" "ratio"
      (if blocks = 0 then 0.0
       else float_of_int (sum (fun c -> c.relevant)) /. float_of_int blocks);
    metric "attack_graph.us" "us" (us "attack_graph");
    metric "model.cst_us" "us" (us "model");
    metric "model.entries" "count" (float_of_int (sum (fun c -> c.entries)));
  ]
