module G = Cfg.Graph
module BB = Cfg.Basic_block

type info = {
  cfg : G.t;
  hpc_of_block : float array;
  accesses_of_block : (int * Hpc.Collector.access_kind) list array;
  first_time_of_block : int option array;
  step1 : int list;
  relevant : int list;
}

let default_llc_set addr = Cache.Config.set_of_addr Cache.Config.llc addr

let identify ?(llc_set_of_addr = default_llc_set) cfg collector =
  let n = G.n_blocks cfg in
  let prog = G.program cfg in
  let hpc_of_block = Array.make n 0.0 in
  let first_time_of_block = Array.make n None in
  (* Step 1: map per-address HPC data onto blocks. *)
  List.iter
    (fun (b : BB.t) ->
      List.iter
        (fun idx ->
          let pc = Isa.Program.addr_of_index prog idx in
          hpc_of_block.(b.BB.id) <-
            hpc_of_block.(b.BB.id)
            +. float_of_int (Hpc.Collector.hpc_value_at collector ~pc);
          match Hpc.Collector.first_time collector ~pc with
          | Some t ->
            first_time_of_block.(b.BB.id) <-
              (match first_time_of_block.(b.BB.id) with
              | Some t0 -> Some (min t0 t)
              | None -> Some t)
          | None -> ())
        (BB.instr_indices b))
    (G.blocks cfg);
  let step1 =
    List.filter_map
      (fun (b : BB.t) ->
        if hpc_of_block.(b.BB.id) > 0.0 then Some b.BB.id else None)
      (G.blocks cfg)
  in
  (* Collect data accesses (the Intel-PT stand-in) per block, reading the
     collector's log in place; walking it backwards conses each block's
     list in chronological order. *)
  let accesses_of_block = Array.make n [] in
  let n_instrs = Isa.Program.length prog in
  for i = Hpc.Collector.access_count collector - 1 downto 0 do
    let idx = Hpc.Collector.access_index collector i in
    if idx < n_instrs then begin
      let b = (G.block_of_index cfg idx).BB.id in
      accesses_of_block.(b) <-
        ( Hpc.Collector.access_target collector i,
          Hpc.Collector.access_kind collector i )
        :: accesses_of_block.(b)
    end
  done;
  (* Step 2: keep candidates touching a cache set that at least one other
     candidate also touches.  [toucher] maps each touched set to the one
     candidate that touched it, or to [shared] once a second one does. *)
  let shared = -1 and untouched = -2 in
  let toucher = Sutil.Int_table.create 64 in
  List.iter
    (fun b ->
      List.iter
        (fun (addr, _) ->
          let s = llc_set_of_addr addr in
          let t = Sutil.Int_table.find toucher s ~default:untouched in
          if t = untouched then Sutil.Int_table.replace toucher s b
          else if t <> b && t <> shared then
            Sutil.Int_table.replace toucher s shared)
        accesses_of_block.(b))
    step1;
  let relevant =
    List.filter
      (fun b ->
        List.exists
          (fun (addr, _) ->
            Sutil.Int_table.find toucher (llc_set_of_addr addr) ~default:untouched
            = shared)
          accesses_of_block.(b))
      step1
  in
  { cfg; hpc_of_block; accesses_of_block; first_time_of_block; step1; relevant }

let ground_truth_blocks cfg =
  List.filter_map
    (fun (b : BB.t) ->
      if BB.is_attack_ground_truth (G.program cfg) b then Some b.BB.id else None)
    (G.blocks cfg)

let accuracy ~identified ~truth =
  match truth with
  | [] -> 1.0
  | _ ->
    let hit = List.filter (fun b -> List.mem b identified) truth in
    float_of_int (List.length hit) /. float_of_int (List.length truth)
