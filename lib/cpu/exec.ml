module I = Isa.Instr
module O = Isa.Operand
module P = Isa.Program

type settings = {
  spec_window : int;
  quantum : int;
  victim_quantum : int;
  fuel : int;
  protected_range : (int * int) option;
      (* [lo, hi): kernel-style memory; architectural loads fault, but the
         fault retires late enough for dependent transient work to leave
         cache footprints — the Meltdown window *)
}

let default_settings =
  {
    spec_window = 48;
    quantum = 64;
    victim_quantum = 64;
    fuel = 2_000_000;
    protected_range = None;
  }

exception Fault of int
(* raised by an architectural access to the protected range *)

(* Programs may install a "signal handler" by binding this label; a fault
   transfers control there (the PoC's recovery path).  Without one, the
   faulting process is killed. *)
let fault_handler_label = "__fault_handler"

type result = {
  instructions : int;
  cycles : int;
  halted_normally : bool;
  collector : Hpc.Collector.t;
  hierarchy : Cache.Hierarchy.t;
  machine : Machine.t;
}

type proc = {
  prog : P.t;
  code : I.t array;
  mach : Machine.t;
  owner : Cache.Owner.t;
  pred : Predictor.t;
  collect : Hpc.Collector.t option;
  spec : bool; (* transient execution modelled for this process *)
  hier : Cache.Hierarchy.t; (* this process's cache view: the same as the
                               peer's under SMT, a private-L1 view under the
                               cross-core topology *)
  mutable now : int; (* per-process cycle clock: processes model two cores
                        sharing caches, so one does not stall the other *)
  mutable in_transient : bool; (* protection checks are deferred on the
                                  transient path (Meltdown) *)
}

type global = { settings : settings }

(* The per-instruction path below allocates nothing (a fault aside):
   events and accesses are keyed by instruction index into the collector's
   flat arrays, the hierarchy answers with a constant constructor, branch
   targets come pre-resolved from the program, and a transient fork reuses
   the machine's one view. *)

let ev proc ~idx e =
  match proc.collect with
  | Some c -> Hpc.Collector.record_event c ~idx e
  | None -> ()

let acc proc ~idx ~target kind =
  match proc.collect with
  | Some c -> Hpc.Collector.record_access c ~idx ~target ~kind ~time:proc.now
  | None -> ()

let reg_or_zero mach = function Some r -> Machine.get_reg mach r | None -> 0

let eff_addr mach (m : O.mem) =
  m.O.disp + reg_or_zero mach m.O.base + (reg_or_zero mach m.O.index * m.O.scale)

let protected_fault g proc addr =
  (not proc.in_transient)
  &&
  match g.settings.protected_range with
  | Some (lo, hi) -> addr >= lo && addr < hi
  | None -> false

let data_load g proc mach ~idx addr =
  let level = Cache.Hierarchy.load proc.hier ~owner:proc.owner addr in
  proc.now <- proc.now + Cache.Hierarchy.latency proc.hier level;
  (match level with
  | Cache.Hierarchy.L1 -> ev proc ~idx Hpc.Event.L1d_load_hit
  | Cache.Hierarchy.Llc ->
    ev proc ~idx Hpc.Event.L1d_load_miss;
    ev proc ~idx Hpc.Event.Llc_load_hit
  | Cache.Hierarchy.Memory ->
    ev proc ~idx Hpc.Event.L1d_load_miss;
    ev proc ~idx Hpc.Event.Llc_load_miss;
    ev proc ~idx Hpc.Event.Cache_miss);
  acc proc ~idx ~target:addr Hpc.Collector.Load;
  (* The line is fetched (cache side effects above are real) before the
     permission check retires — faults are precise architecturally but late
     micro-architecturally. *)
  if protected_fault g proc addr then raise (Fault addr);
  Machine.load mach addr

let data_store _g proc mach ~idx addr value =
  let level = Cache.Hierarchy.store proc.hier ~owner:proc.owner addr in
  proc.now <- proc.now + Cache.Hierarchy.latency proc.hier level;
  (match level with
  | Cache.Hierarchy.L1 -> ev proc ~idx Hpc.Event.L1d_store_hit
  | Cache.Hierarchy.Llc -> ev proc ~idx Hpc.Event.Llc_store_hit
  | Cache.Hierarchy.Memory ->
    ev proc ~idx Hpc.Event.Llc_store_miss;
    ev proc ~idx Hpc.Event.Cache_miss);
  acc proc ~idx ~target:addr Hpc.Collector.Store;
  Machine.store mach addr value

let eval g proc mach ~idx = function
  | O.Imm i -> i
  | O.Reg r -> Machine.get_reg mach r
  | O.Mem m -> data_load g proc mach ~idx (eff_addr mach m)

let write g proc mach ~idx dst value =
  match dst with
  | O.Reg r -> Machine.set_reg mach r value
  | O.Mem m -> data_store g proc mach ~idx (eff_addr mach m) value
  | O.Imm _ -> invalid_arg "Exec: immediate as destination"

let arith_flags mach result ~cf =
  Machine.set_flags mach ~zf:(result = 0) ~sf:(result < 0) ~cf

(* Read-modify-write binary ALU op. *)
let binop g proc mach ~idx dst src f ~cf_of =
  let a = eval g proc mach ~idx dst in
  let b = eval g proc mach ~idx src in
  let r = f a b in
  arith_flags mach r ~cf:(cf_of a b);
  write g proc mach ~idx dst r

let rsp = Isa.Reg.RSP
let rax = Isa.Reg.RAX

(* Execute the instruction at [mach]'s pc; returns whether an instruction
   actually retired (false when the pc ran off the program, which just
   halts).  [transient] suppresses predictor training, BB-retirement notes
   and nested speculation; cache effects and HPC events still happen — that
   persistence is the Spectre channel. *)
let rec step g proc mach ~transient =
  proc.in_transient <- transient;
  let idx = Machine.pc mach in
  if idx < 0 || idx >= Array.length proc.code then begin
    Machine.set_halted mach true;
    false
  end
  else try begin
    let pc = P.addr_of_index proc.prog idx in
    let fetched = Cache.Hierarchy.ifetch proc.hier ~owner:proc.owner pc in
    proc.now <- proc.now + Cache.Hierarchy.latency proc.hier fetched;
    (match fetched with
    | Cache.Hierarchy.L1 -> ()
    | Cache.Hierarchy.Llc -> ev proc ~idx Hpc.Event.L1i_load_miss
    | Cache.Hierarchy.Memory ->
      ev proc ~idx Hpc.Event.L1i_load_miss;
      ev proc ~idx Hpc.Event.Cache_miss);
    if not transient then begin
      match proc.collect with
      | Some c -> Hpc.Collector.note_executed c ~idx ~time:proc.now
      | None -> ()
    end;
    let ins = proc.code.(idx) in
    proc.now <- proc.now + Timing.cost ins;
    let next = idx + 1 in
    Machine.set_pc mach next;
    (match ins with
    | I.Mov (dst, src) ->
      let v = eval g proc mach ~idx src in
      write g proc mach ~idx dst v
    | I.Lea (r, op) -> begin
      match op with
      | O.Mem m -> Machine.set_reg mach r (eff_addr mach m)
      | O.Imm _ | O.Reg _ -> invalid_arg "Exec: lea needs a memory operand"
    end
    | I.Add (d, s) -> binop g proc mach ~idx d s ( + ) ~cf_of:(fun _ _ -> false)
    | I.Sub (d, s) -> binop g proc mach ~idx d s ( - ) ~cf_of:(fun a b -> a < b)
    | I.Imul (d, s) -> binop g proc mach ~idx d s ( * ) ~cf_of:(fun _ _ -> false)
    | I.Xor (d, s) -> binop g proc mach ~idx d s ( lxor ) ~cf_of:(fun _ _ -> false)
    | I.And (d, s) -> binop g proc mach ~idx d s ( land ) ~cf_of:(fun _ _ -> false)
    | I.Or (d, s) -> binop g proc mach ~idx d s ( lor ) ~cf_of:(fun _ _ -> false)
    | I.Shl (d, n) ->
      let a = eval g proc mach ~idx d in
      let r = a lsl n in
      arith_flags mach r ~cf:false;
      write g proc mach ~idx d r
    | I.Shr (d, n) ->
      let a = eval g proc mach ~idx d in
      let r = a lsr n in
      arith_flags mach r ~cf:false;
      write g proc mach ~idx d r
    | I.Inc d ->
      let r = eval g proc mach ~idx d + 1 in
      (* x86 inc/dec leave CF untouched. *)
      Machine.set_flags mach ~zf:(r = 0) ~sf:(r < 0) ~cf:(Machine.cf mach);
      write g proc mach ~idx d r
    | I.Dec d ->
      let r = eval g proc mach ~idx d - 1 in
      Machine.set_flags mach ~zf:(r = 0) ~sf:(r < 0) ~cf:(Machine.cf mach);
      write g proc mach ~idx d r
    | I.Cmp (a, b) ->
      let x = eval g proc mach ~idx a in
      let y = eval g proc mach ~idx b in
      Machine.set_flags mach ~zf:(x = y) ~sf:(x - y < 0) ~cf:(x < y)
    | I.Test (a, b) ->
      let x = eval g proc mach ~idx a in
      let y = eval g proc mach ~idx b in
      let r = x land y in
      Machine.set_flags mach ~zf:(r = 0) ~sf:(r < 0) ~cf:false
    | I.Jmp _ ->
      if not transient then note_btb proc ~idx ~pc;
      Machine.set_pc mach (P.target_index proc.prog idx)
    | I.Jcc (c, _) -> exec_jcc g proc mach ~transient ~pc ~idx c
    | I.Call _ ->
      if not transient then note_btb proc ~idx ~pc;
      let sp = Machine.get_reg mach rsp - 8 in
      Machine.set_reg mach rsp sp;
      data_store g proc mach ~idx sp next;
      Machine.set_pc mach (P.target_index proc.prog idx)
    | I.Ret ->
      let sp = Machine.get_reg mach rsp in
      let target = data_load g proc mach ~idx sp in
      Machine.set_reg mach rsp (sp + 8);
      if target < 0 || target >= Array.length proc.code then
        Machine.set_halted mach true
      else Machine.set_pc mach target
    | I.Push s ->
      let v = eval g proc mach ~idx s in
      let sp = Machine.get_reg mach rsp - 8 in
      Machine.set_reg mach rsp sp;
      data_store g proc mach ~idx sp v
    | I.Pop r ->
      let sp = Machine.get_reg mach rsp in
      let v = data_load g proc mach ~idx sp in
      Machine.set_reg mach rsp (sp + 8);
      Machine.set_reg mach r v
    | I.Clflush op -> begin
      match op with
      | O.Mem m ->
        let addr = eff_addr mach m in
        let latency = Cache.Hierarchy.flush proc.hier addr in
        proc.now <- proc.now + latency;
        acc proc ~idx ~target:addr Hpc.Collector.Flush
      | O.Imm _ | O.Reg _ -> invalid_arg "Exec: clflush needs a memory operand"
    end
    | I.Prefetch op -> begin
      match op with
      | O.Mem m -> ignore (data_load g proc mach ~idx (eff_addr mach m))
      | O.Imm _ | O.Reg _ -> invalid_arg "Exec: prefetch needs a memory operand"
    end
    | I.Mfence | I.Lfence | I.Cpuid ->
      (* Serializing: a transient (mispredicted-path) execution cannot
         proceed past a fence — the property real attacks use to keep
         run-ahead loads out of their timing windows. *)
      if transient then Machine.set_halted mach true
    | I.Rdtsc | I.Rdtscp ->
      Machine.set_reg mach rax proc.now;
      ev proc ~idx Hpc.Event.Timestamp
    | I.Nop -> ()
    | I.Halt -> Machine.set_halted mach true);
    true
  end
  with Fault _ when not transient ->
    (* Deferred-fault transient window: re-run the faulting instruction and
       its dependents on a shadow (loads from the protected range succeed
       there), leaving only cache footprints; then deliver the fault. *)
    if proc.spec && g.settings.spec_window > 0 then
      run_transient g proc ~from:idx;
    (match P.label_index proc.prog fault_handler_label with
    | handler -> Machine.set_pc mach handler
    | exception Not_found -> Machine.set_halted mach true);
    true

and note_btb proc ~idx ~pc =
  if not (Predictor.btb_seen proc.pred ~pc) then begin
    ev proc ~idx Hpc.Event.Branch_load_miss;
    Predictor.btb_insert proc.pred ~pc
  end

and exec_jcc g proc mach ~transient ~pc ~idx cond =
  let target = P.target_index proc.prog idx in
  let taken = Machine.cond_holds mach cond in
  if not transient then begin
    note_btb proc ~idx ~pc;
    let predicted = Predictor.predict_taken proc.pred ~pc in
    Predictor.update proc.pred ~pc ~taken;
    if predicted <> taken then begin
      ev proc ~idx Hpc.Event.Branch_miss;
      proc.now <- proc.now + Timing.mispredict_penalty;
      if proc.spec && g.settings.spec_window > 0 then
        run_transient g proc ~from:(if predicted then target else idx + 1)
    end
  end;
  Machine.set_pc mach (if taken then target else idx + 1)

(* Transient execution down the mispredicted path: runs on the machine's
   forked view, whose architectural effects (registers, and stores kept in
   its overlay) are discarded, while cache fills/evictions and HPC events go
   through the real shared hierarchy. *)
and run_transient g proc ~from =
  let shadow = Machine.fork proc.mach in
  Machine.set_pc shadow from;
  (* Wrong-path work overlaps the pipeline flush on a real core; its latency
     is covered by the mispredict penalty, so the architectural clock is
     restored afterwards.  Cache effects persist. *)
  let saved_now = proc.now in
  let steps = ref 0 in
  while (not (Machine.halted shadow)) && !steps < g.settings.spec_window do
    ignore (step g proc shadow ~transient:true);
    incr steps
  done;
  proc.in_transient <- false;
  proc.now <- saved_now

let run ?(settings = default_settings) ?hierarchy ?victim_hierarchy ?init
    ?victim prog =
  let hier =
    match hierarchy with Some h -> h | None -> Cache.Hierarchy.create ()
  in
  (* the victim shares the attacker's full view (SMT) unless its own
     cross-core view is supplied *)
  let victim_hier = Option.value ~default:hier victim_hierarchy in
  let g = { settings } in
  let collector = Hpc.Collector.create prog in
  let att =
    {
      prog;
      code = P.code prog;
      mach = Machine.create ();
      owner = Cache.Owner.Attacker;
      pred = Predictor.create ();
      collect = Some collector;
      spec = true;
      hier;
      now = 0;
      in_transient = false;
    }
  in
  (match init with Some f -> f att.mach | None -> ());
  let vic =
    Option.map
      (fun (vprog, vinit) ->
        let mach = Machine.create ~stack_top:(0x7FFE_0000 + (43 * 64)) () in
        vinit mach;
        {
          prog = vprog;
          code = P.code vprog;
          mach;
          owner = Cache.Owner.Victim;
          pred = Predictor.create ();
          collect = None;
          spec = false;
          hier = victim_hier;
          now = 0;
          in_transient = false;
        })
      victim
  in
  let count = ref 0 in
  while (not (Machine.halted att.mach)) && !count < settings.fuel do
    let n = ref 0 in
    while
      (not (Machine.halted att.mach))
      && !n < settings.quantum && !count < settings.fuel
    do
      if step g att att.mach ~transient:false then begin
        incr n;
        incr count
      end
    done;
    match vic with
    | None -> ()
    | Some v ->
      (* A halted victim restarts: it models a continuously running
         process. *)
      if Machine.halted v.mach then begin
        Machine.set_pc v.mach 0;
        Machine.set_halted v.mach false
      end;
      let m = ref 0 in
      while (not (Machine.halted v.mach)) && !m < settings.victim_quantum do
        ignore (step g v v.mach ~transient:false);
        incr m
      done
  done;
  {
    instructions = !count;
    cycles = att.now;
    halted_normally = Machine.halted att.mach;
    collector;
    hierarchy = hier;
    machine = att.mach;
  }
