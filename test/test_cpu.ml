(* Tests for the CPU simulator: architectural state, branch prediction,
   instruction semantics, timing, speculation and victim interleaving. *)

module I = Isa.Instr
module O = Isa.Operand
module R = Isa.Reg
module P = Isa.Program
module M = Cpu.Machine
module E = Cpu.Exec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let prog instrs = P.assemble ~name:"t" (List.map (fun i -> P.Ins i) instrs)
let prog_l stmts = P.assemble ~name:"t" stmts
let run ?init ?settings ?victim p = E.run ?init ?settings ?victim p
let rax r = M.get_reg r.E.machine R.RAX
let reg r x = M.get_reg r.E.machine x

(* ---- Machine ------------------------------------------------------------- *)

let test_machine_regs_mem () =
  let m = M.create () in
  check_int "zero reg" 0 (M.get_reg m R.RAX);
  M.set_reg m R.RAX 42;
  check_int "set/get" 42 (M.get_reg m R.RAX);
  check_int "uninit mem" 0 (M.load m 0x1234);
  M.store m 0x1234 7;
  check_int "store/load" 7 (M.load m 0x1234);
  M.init_region m ~base:0x100 [| 1; 2; 3 |];
  check_int "region stride 8" 2 (M.load m 0x108)

let test_machine_snapshot_isolated () =
  let m = M.create () in
  M.store m 1 10;
  M.set_reg m R.RBX 5;
  let s = M.fork m in
  check_int "view reads through" 10 (M.load s 1);
  check_int "view copies regs" 5 (M.get_reg s R.RBX);
  M.store s 1 99;
  M.store s 2 42;
  M.set_reg s R.RBX 77;
  check_int "view sees its store" 99 (M.load s 1);
  check_int "orig mem intact" 10 (M.load m 1);
  check_int "orig untouched address" 0 (M.load m 2);
  check_int "orig reg intact" 5 (M.get_reg m R.RBX);
  check_int "no new location" 1 (M.fold_mem m ~init:0 ~f:(fun _ _ n -> n + 1));
  (* a second fork starts again from the machine's current state *)
  M.store m 1 11;
  let s' = M.fork m in
  check_bool "the view is reused" true (s == s');
  check_int "overlay emptied" 11 (M.load s' 1);
  check_int "overlay emptied elsewhere" 0 (M.load s' 2);
  check_bool "a view cannot fork" true
    (try ignore (M.fork s'); false with Invalid_argument _ -> true)

let test_machine_conditions () =
  let m = M.create () in
  M.set_flags m ~zf:true ~sf:false ~cf:false;
  check_bool "eq" true (M.cond_holds m I.Eq);
  check_bool "ne" false (M.cond_holds m I.Ne);
  check_bool "le" true (M.cond_holds m I.Le);
  M.set_flags m ~zf:false ~sf:true ~cf:true;
  check_bool "lt" true (M.cond_holds m I.Lt);
  check_bool "ge" false (M.cond_holds m I.Ge);
  check_bool "ult" true (M.cond_holds m I.Ult);
  check_bool "uge" false (M.cond_holds m I.Uge)

(* ---- Predictor ------------------------------------------------------------- *)

let test_predictor_training () =
  let p = Cpu.Predictor.create () in
  check_bool "initially not taken" false (Cpu.Predictor.predict_taken p ~pc:0x40);
  Cpu.Predictor.update p ~pc:0x40 ~taken:true;
  Cpu.Predictor.update p ~pc:0x40 ~taken:true;
  check_bool "trained taken" true (Cpu.Predictor.predict_taken p ~pc:0x40);
  Cpu.Predictor.update p ~pc:0x40 ~taken:false;
  check_bool "2-bit hysteresis" true (Cpu.Predictor.predict_taken p ~pc:0x40);
  Cpu.Predictor.update p ~pc:0x40 ~taken:false;
  check_bool "flipped" false (Cpu.Predictor.predict_taken p ~pc:0x40)

let test_predictor_btb () =
  let p = Cpu.Predictor.create () in
  check_bool "cold" false (Cpu.Predictor.btb_seen p ~pc:0x80);
  Cpu.Predictor.btb_insert p ~pc:0x80;
  check_bool "warm" true (Cpu.Predictor.btb_seen p ~pc:0x80)

(* ---- Basic semantics --------------------------------------------------------- *)

let test_exec_mov_alu () =
  let r =
    run
      (prog
         [
           I.Mov (O.reg R.RAX, O.imm 10);
           I.Add (O.reg R.RAX, O.imm 5);
           I.Mov (O.reg R.RBX, O.reg R.RAX);
           I.Sub (O.reg R.RBX, O.imm 3);
           I.Imul (O.reg R.RBX, O.imm 2);
           I.Xor (O.reg R.RCX, O.reg R.RCX);
           I.Or (O.reg R.RCX, O.imm 9);
           I.And (O.reg R.RCX, O.imm 8);
           I.Halt;
         ])
  in
  check_int "rax" 15 (rax r);
  check_int "rbx" 24 (reg r R.RBX);
  check_int "rcx" 8 (reg r R.RCX);
  check_bool "halted" true r.E.halted_normally

let test_exec_shifts_incdec () =
  let r =
    run
      (prog
         [
           I.Mov (O.reg R.RAX, O.imm 3);
           I.Shl (O.reg R.RAX, 4);
           I.Shr (O.reg R.RAX, 1);
           I.Inc (O.reg R.RAX);
           I.Dec (O.reg R.RAX);
           I.Dec (O.reg R.RAX);
           I.Halt;
         ])
  in
  check_int "shifts" 23 (rax r)

let test_exec_memory_ops () =
  let r =
    run
      (prog
         [
           I.Mov (O.reg R.RBX, O.imm 0x1000);
           I.Mov (O.mem ~base:R.RBX (), O.imm 11);
           I.Mov (O.mem ~base:R.RBX ~disp:8 (), O.imm 22);
           I.Mov (O.reg R.RAX, O.mem ~base:R.RBX ());
           I.Add (O.reg R.RAX, O.mem ~base:R.RBX ~disp:8 ());
           I.Add (O.mem ~base:R.RBX (), O.imm 100);
           I.Halt;
         ])
  in
  check_int "loads" 33 (rax r);
  check_int "rmw" 111 (M.load r.E.machine 0x1000)

let test_exec_lea () =
  let r =
    run
      (prog
         [
           I.Mov (O.reg R.RBX, O.imm 0x100);
           I.Mov (O.reg R.RCX, O.imm 4);
           I.Lea (R.RAX, O.mem ~base:R.RBX ~index:R.RCX ~scale:16 ~disp:2 ());
           I.Halt;
         ])
  in
  check_int "effective addr" (0x100 + 64 + 2) (rax r);
  check_int "no data accesses" 0 (Hpc.Collector.access_count r.E.collector)

let test_exec_loop () =
  let r =
    run
      (prog_l
         [
           P.Ins (I.Mov (O.reg R.RAX, O.imm 0));
           P.Ins (I.Mov (O.reg R.RCX, O.imm 10));
           P.Lbl "loop";
           P.Ins (I.Add (O.reg R.RAX, O.reg R.RCX));
           P.Ins (I.Dec (O.reg R.RCX));
           P.Ins (I.Cmp (O.reg R.RCX, O.imm 0));
           P.Ins (I.Jcc (I.Ne, "loop"));
           P.Ins I.Halt;
         ])
  in
  check_int "sum 10..1" 55 (rax r)

let test_exec_call_ret () =
  let r =
    run
      (prog_l
         [
           P.Ins (I.Mov (O.reg R.RAX, O.imm 1));
           P.Ins (I.Call "f");
           P.Ins (I.Add (O.reg R.RAX, O.imm 100));
           P.Ins I.Halt;
           P.Lbl "f";
           P.Ins (I.Add (O.reg R.RAX, O.imm 10));
           P.Ins I.Ret;
         ])
  in
  check_int "call/ret flow" 111 (rax r)

let test_exec_push_pop () =
  let r =
    run
      (prog
         [
           I.Mov (O.reg R.RBX, O.imm 5);
           I.Push (O.reg R.RBX);
           I.Push (O.imm 7);
           I.Pop R.RAX;
           I.Pop R.RCX;
           I.Halt;
         ])
  in
  check_int "lifo 1" 7 (rax r);
  check_int "lifo 2" 5 (reg r R.RCX)

let test_exec_fall_off_end_halts () =
  let r = run (prog [ I.Nop; I.Nop ]) in
  check_bool "halts" true r.E.halted_normally;
  check_int "2 instrs" 2 r.E.instructions

let test_exec_fuel_bound () =
  let r =
    run
      ~settings:{ E.default_settings with E.fuel = 100 }
      (prog_l [ P.Lbl "spin"; P.Ins (I.Jmp "spin") ])
  in
  check_bool "not halted" false r.E.halted_normally;
  check_int "fuel consumed" 100 r.E.instructions

let test_exec_prefetch_and_rmw () =
  let r =
    run
      (prog
         [
           I.Prefetch (O.abs 0x15000);          (* cache fill, no reg write *)
           I.Mov (O.abs 0x16000, O.imm 7);
           I.Sub (O.abs 0x16000, O.imm 2);      (* rmw sub *)
           I.Imul (O.abs 0x16000, O.imm 3);     (* rmw mul *)
           I.Inc (O.abs 0x16000);
           I.Cpuid;
           I.Halt;
         ])
  in
  check_int "rmw chain" 16 (M.load r.E.machine 0x16000);
  (* prefetch filled the line: a demand load hits *)
  let probe = Cache.Hierarchy.load r.E.hierarchy ~owner:Cache.Owner.Attacker 0x15000 in
  check_bool "prefetched line cached" true (probe = Cache.Hierarchy.L1)

let test_exec_push_mem_operand () =
  let r =
    run
      (prog
         [
           I.Mov (O.abs 0x17000, O.imm 99);
           I.Push (O.abs 0x17000);
           I.Pop R.RAX;
           I.Halt;
         ])
  in
  check_int "pushed memory value" 99 (rax r)

let test_exec_ret_to_garbage_halts () =
  (* ret with a clobbered return slot terminates instead of wandering *)
  let r =
    run
      (prog_l
         [
           P.Ins (I.Call "f");
           P.Ins I.Halt;
           P.Lbl "f";
           P.Ins (I.Mov (O.mem ~base:R.RSP (), O.imm 99999));
           P.Ins I.Ret;
         ])
  in
  check_bool "halted" true r.E.halted_normally

(* ---- Timing ------------------------------------------------------------------ *)

let test_rdtsc_measures_memory_latency () =
  let timed_load addr =
    [
      I.Mov (O.reg R.R10, O.mem ~disp:addr ()); (* warm the line *)
      I.Lfence;
      I.Rdtsc;
      I.Mov (O.reg R.R8, O.reg R.RAX);
      I.Mov (O.reg R.R10, O.mem ~disp:addr ());
      I.Rdtscp;
      I.Sub (O.reg R.RAX, O.reg R.R8);
      I.Halt;
    ]
  in
  let hit = rax (run (prog (timed_load 0x9000))) in
  let miss_prog =
    [
      I.Lfence;
      I.Rdtsc;
      I.Mov (O.reg R.R8, O.reg R.RAX);
      I.Mov (O.reg R.R10, O.mem ~disp:0xA000 ());
      I.Rdtscp;
      I.Sub (O.reg R.RAX, O.reg R.R8);
      I.Halt;
    ]
  in
  let miss = rax (run (prog miss_prog)) in
  check_bool "hit below threshold" true (hit < Workloads.Attacks.reload_threshold);
  check_bool "miss above threshold" true (miss > Workloads.Attacks.reload_threshold);
  check_bool "gap" true (miss - hit > 100)

let test_clflush_timing_difference () =
  let timed_flush ~warm =
    let pre = if warm then [ I.Mov (O.reg R.R10, O.abs 0xB000) ] else [ I.Nop ] in
    pre
    @ [
        I.Lfence;
        I.Rdtsc;
        I.Mov (O.reg R.R8, O.reg R.RAX);
        I.Clflush (O.abs 0xB000);
        I.Rdtscp;
        I.Sub (O.reg R.RAX, O.reg R.R8);
        I.Halt;
      ]
  in
  let cached = rax (run (prog (timed_flush ~warm:true))) in
  let uncached = rax (run (prog (timed_flush ~warm:false))) in
  check_bool "cached flush slower" true (cached > uncached);
  check_bool "threshold splits" true
    (cached >= Workloads.Attacks.flush_timing_threshold
    && uncached < Workloads.Attacks.flush_timing_threshold)

(* ---- Speculation ---------------------------------------------------------------- *)

let spectre_gadget_prog () =
  prog_l
    [
      P.Ins (I.Mov (O.reg R.RCX, O.imm 6));
      P.Lbl "train";
      P.Ins (I.Mov (O.reg R.RDI, O.imm 1));
      P.Ins (I.Call "gadget");
      P.Ins (I.Dec (O.reg R.RCX));
      P.Ins (I.Cmp (O.reg R.RCX, O.imm 0));
      P.Ins (I.Jcc (I.Ne, "train"));
      P.Ins (I.Mov (O.reg R.RDI, O.imm 1000));
      P.Ins (I.Call "gadget");
      P.Ins I.Halt;
      P.Lbl "gadget";
      P.Ins (I.Cmp (O.reg R.RDI, O.imm 4));
      P.Ins (I.Jcc (I.Uge, "skip"));
      P.Ins (I.Mov (O.reg R.R9, O.imm 123));
      (* the transient load targets an address touched nowhere else *)
      P.Ins (I.Mov (O.reg R.R10, O.mem ~index:R.RDI ~scale:4096 ~disp:0xC0000 ()));
      P.Lbl "skip";
      P.Ins I.Ret;
    ]

let test_transient_cache_effect_persists () =
  let r = run (spectre_gadget_prog ()) in
  (* The out-of-bounds transient load fetched 0xC0000 + 1000*4096, an address
     never architecturally accessed. *)
  let addr = 0xC0000 + (1000 * 4096) in
  let probe = Cache.Hierarchy.load r.E.hierarchy ~owner:Cache.Owner.Attacker addr in
  check_bool "line cached by transient path" true
    (probe <> Cache.Hierarchy.Memory)

let test_no_transient_without_speculation () =
  let r =
    run ~settings:{ E.default_settings with E.spec_window = 0 }
      (spectre_gadget_prog ())
  in
  let addr = 0xC0000 + (1000 * 4096) in
  let probe = Cache.Hierarchy.load r.E.hierarchy ~owner:Cache.Owner.Attacker addr in
  check_bool "no transient fetch with window 0" false
    (probe <> Cache.Hierarchy.Memory)

let test_transient_register_squashed () =
  let r = run (spectre_gadget_prog ()) in
  let r_nospec =
    run ~settings:{ E.default_settings with E.spec_window = 0 }
      (spectre_gadget_prog ())
  in
  (* Architectural register state must be identical with and without
     transient execution. *)
  check_int "r9" (reg r_nospec R.R9) (reg r R.R9);
  check_int "r10" (reg r_nospec R.R10) (reg r R.R10);
  check_int "rax" (rax r_nospec) (rax r)

let test_fence_stops_transient () =
  (* Same gadget, but an lfence guards the transient body: the secret-probe
     address must stay uncached. *)
  let p =
    prog_l
      [
        P.Ins (I.Mov (O.reg R.RCX, O.imm 6));
        P.Lbl "train";
        P.Ins (I.Mov (O.reg R.RDI, O.imm 1));
        P.Ins (I.Call "gadget");
        P.Ins (I.Dec (O.reg R.RCX));
        P.Ins (I.Cmp (O.reg R.RCX, O.imm 0));
        P.Ins (I.Jcc (I.Ne, "train"));
        P.Ins (I.Mov (O.reg R.RDI, O.imm 1000));
        P.Ins (I.Call "gadget");
        P.Ins I.Halt;
        P.Lbl "gadget";
        P.Ins (I.Cmp (O.reg R.RDI, O.imm 4));
        P.Ins (I.Jcc (I.Uge, "skip"));
        P.Ins I.Lfence;
        P.Ins (I.Mov (O.reg R.R10, O.mem ~index:R.RDI ~scale:4096 ~disp:0xC0000 ()));
        P.Lbl "skip";
        P.Ins I.Ret;
      ]
  in
  let r = run p in
  let addr = 0xC0000 + (1000 * 4096) in
  let probe = Cache.Hierarchy.load r.E.hierarchy ~owner:Cache.Owner.Attacker addr in
  check_bool "fence blocked the transient load" false
    (probe <> Cache.Hierarchy.Memory)

(* ---- Protected memory / Meltdown window --------------------------------------------- *)

let protected_settings =
  { E.default_settings with E.protected_range = Some (0x70000, 0x71000) }

let test_fault_kills_without_handler () =
  let p =
    prog [ I.Mov (O.reg R.RAX, O.imm 5); I.Mov (O.reg R.RBX, O.abs 0x70080); I.Nop; I.Halt ]
  in
  let r = run ~settings:protected_settings p in
  check_bool "killed" true r.E.halted_normally;
  (* the instruction after the faulting load never ran: rbx keeps 0 and the
     nop's address was never noted *)
  check_int "rbx unwritten" 0 (reg r R.RBX);
  check_int "nop never retired" 0
    (Hpc.Collector.exec_count r.E.collector ~pc:(P.addr_of_index p 2))

let test_fault_handler_receives_control () =
  let p =
    prog_l
      [
        P.Ins (I.Mov (O.reg R.RBX, O.abs 0x70080));
        P.Ins I.Halt;
        P.Lbl E.fault_handler_label;
        P.Ins (I.Mov (O.reg R.RCX, O.imm 99));
        P.Ins I.Halt;
      ]
  in
  let r = run ~settings:protected_settings p in
  check_int "handler ran" 99 (reg r R.RCX);
  check_int "load squashed" 0 (reg r R.RBX)

let test_fault_transient_footprint () =
  (* Meltdown: the dependent of the faulting load runs transiently and
     caches a secret-indexed line. *)
  let init m = M.store m 0x70080 7 in
  let p =
    prog_l
      [
        P.Ins (I.Mov (O.reg R.R11, O.abs 0x70080));
        P.Ins (I.Mov (O.reg R.R12, O.mem ~index:R.R11 ~scale:4096 ~disp:0x200000 ()));
        P.Ins I.Halt;
        P.Lbl E.fault_handler_label;
        P.Ins I.Halt;
      ]
  in
  let r = run ~settings:protected_settings ~init p in
  let probe =
    Cache.Hierarchy.load r.E.hierarchy ~owner:Cache.Owner.Attacker
      (0x200000 + (7 * 4096))
  in
  check_bool "secret-indexed line cached" true
    (probe <> Cache.Hierarchy.Memory);
  check_int "architectural r12 stays 0" 0 (reg r R.R12)

let test_fault_no_window_without_speculation () =
  let init m = M.store m 0x70080 7 in
  let p =
    prog_l
      [
        P.Ins (I.Mov (O.reg R.R11, O.abs 0x70080));
        P.Ins (I.Mov (O.reg R.R12, O.mem ~index:R.R11 ~scale:4096 ~disp:0x200000 ()));
        P.Ins I.Halt;
        P.Lbl E.fault_handler_label;
        P.Ins I.Halt;
      ]
  in
  let r =
    run ~settings:{ protected_settings with E.spec_window = 0 } ~init p
  in
  let probe =
    Cache.Hierarchy.load r.E.hierarchy ~owner:Cache.Owner.Attacker
      (0x200000 + (7 * 4096))
  in
  check_bool "no footprint with window 0" false
    (probe <> Cache.Hierarchy.Memory)

let test_no_protection_by_default () =
  let init m = M.store m 0x70080 123 in
  let r = run ~init (prog [ I.Mov (O.reg R.RBX, O.abs 0x70080); I.Halt ]) in
  check_int "reads fine" 123 (reg r R.RBX)

(* ---- Victim interleaving ----------------------------------------------------------- *)

let test_victim_shares_cache () =
  let victim =
    ( prog_l
        [
          P.Lbl "v";
          P.Ins (I.Mov (O.reg R.RBX, O.abs 0xE0000));
          P.Ins I.Halt;
        ],
      fun _ -> () )
  in
  let attacker =
    prog_l
      [
        P.Ins (I.Mov (O.reg R.RCX, O.imm 200));
        P.Lbl "spin";
        P.Ins (I.Dec (O.reg R.RCX));
        P.Ins (I.Cmp (O.reg R.RCX, O.imm 0));
        P.Ins (I.Jcc (I.Ne, "spin"));
        P.Ins (I.Mov (O.reg R.RAX, O.abs 0xE0000));
        P.Ins I.Halt;
      ]
  in
  let r = run ~victim attacker in
  (* The architectural load of the victim-cached line hits (the run-ahead at
     the first loop iteration may have recorded one speculative miss before
     the victim ran — realistic HPC behavior). *)
  let c = Hpc.Collector.total_counters r.E.collector in
  check_bool "architectural load hits the victim's line" true
    (Hpc.Counters.get c Hpc.Event.L1d_load_hit >= 1)

let test_victim_restarts () =
  let victim =
    ( prog_l [ P.Ins (I.Mov (O.reg R.RBX, O.abs 0xF0000)); P.Ins I.Halt ],
      fun _ -> () )
  in
  let attacker =
    prog_l
      [
        P.Ins (I.Mov (O.reg R.RCX, O.imm 500));
        P.Lbl "spin";
        P.Ins (I.Dec (O.reg R.RCX));
        P.Ins (I.Cmp (O.reg R.RCX, O.imm 0));
        P.Ins (I.Jcc (I.Ne, "spin"));
        P.Ins I.Halt;
      ]
  in
  let r = run ~victim attacker in
  check_bool "completes with restarting victim" true r.E.halted_normally

(* ---- HPC events during execution ----------------------------------------------------- *)

let test_events_recorded_per_pc () =
  let p = prog [ I.Mov (O.reg R.RAX, O.abs 0x11000); I.Rdtsc; I.Halt ] in
  let r = run p in
  let pc_of i = P.addr_of_index p i in
  check_int "load miss at instr 0" 1
    (Hpc.Counters.get
       (Option.get (Hpc.Collector.counters_at r.E.collector ~pc:(pc_of 0)))
       Hpc.Event.L1d_load_miss);
  check_int "timestamp at instr 1" 1
    (Hpc.Counters.get
       (Option.get (Hpc.Collector.counters_at r.E.collector ~pc:(pc_of 1)))
       Hpc.Event.Timestamp)

let test_access_trace_recorded () =
  let p =
    prog
      [
        I.Mov (O.reg R.RAX, O.abs 0x12000);
        I.Mov (O.abs 0x13000, O.reg R.RAX);
        I.Clflush (O.abs 0x12000);
        I.Halt;
      ]
  in
  let r = run p in
  let accs = Hpc.Collector.accesses r.E.collector in
  check_int "three accesses" 3 (List.length accs);
  let kinds = List.map (fun a -> a.Hpc.Collector.kind) accs in
  check_bool "load, store, flush order" true
    (kinds = [ Hpc.Collector.Load; Hpc.Collector.Store; Hpc.Collector.Flush ]);
  let times = List.map (fun a -> a.Hpc.Collector.time) accs in
  check_bool "times increase" true (List.sort compare times = times)

(* ---- determinism ---------------------------------------------------------------------- *)

let prop_execution_deterministic =
  QCheck.Test.make ~name:"execution is deterministic" ~count:20
    QCheck.small_int
    (fun seed ->
      let g = Workloads.Benign.generate (Sutil.Rng.create seed) in
      let run () =
        let r = E.run ~init:g.Workloads.Benign.init g.Workloads.Benign.program in
        ( r.E.instructions,
          r.E.cycles,
          M.fold_mem r.E.machine ~init:0 ~f:(fun a v acc -> acc lxor (a * 31) lxor v) )
      in
      run () = run ())

let prop_attack_runs_deterministic =
  QCheck.Test.make ~name:"attack runs are deterministic" ~count:4
    QCheck.unit
    (fun () ->
      let go () =
        let r = Workloads.Attacks.run_spec
            (Workloads.Attacks.flush_reload ~style:Workloads.Attacks.Iaik ()) in
        (r.E.instructions, r.E.cycles,
         Array.to_list (Workloads.Attacks.result_histogram r))
      in
      go () = go ())


(* ---- golden fingerprint ------------------------------------------------------------- *)

(* Everything a run observably produces, digested: retired instructions,
   cycles, halting, the per-pc counters, execution counts and first times,
   the ordered access log, the final memory and each cache level's state.
   The pinned digests were recorded once and must never move: a change that
   is meant only to make the simulator faster leaves every one of them
   unchanged. *)

module D = Workloads.Dataset
module A = Workloads.Attacks

let level_states h =
  let l1d, l1i, llc = Cache.Hierarchy.states h in
  [ l1d; l1i; llc ]

let kind_code = function
  | Hpc.Collector.Load -> 'L'
  | Hpc.Collector.Store -> 'S'
  | Hpc.Collector.Flush -> 'F'

let add_run buf ~name ?victim_hierarchy p (r : E.result) =
  let pr fmt = Printf.bprintf buf fmt in
  pr "%s %d %d %b\n" name r.E.instructions r.E.cycles r.E.halted_normally;
  let col = r.E.collector in
  for i = 0 to P.length p - 1 do
    let pc = P.addr_of_index p i in
    pr "pc %d %d %s" i (Hpc.Collector.exec_count col ~pc)
      (match Hpc.Collector.first_time col ~pc with
      | Some t -> string_of_int t
      | None -> "-");
    (match Hpc.Collector.counters_at col ~pc with
    | Some c ->
      List.iter (fun e -> pr " %d" (Hpc.Counters.get c e)) Hpc.Event.all
    | None -> pr " -");
    pr "\n"
  done;
  List.iter
    (fun (a : Hpc.Collector.access) ->
      pr "a %d %d %c %d\n" a.Hpc.Collector.pc a.Hpc.Collector.target
        (kind_code a.Hpc.Collector.kind) a.Hpc.Collector.time)
    (Hpc.Collector.accesses col);
  M.fold_mem r.E.machine ~init:[] ~f:(fun a v acc -> (a, v) :: acc)
  |> List.sort compare
  |> List.iter (fun (a, v) -> pr "m %d %d\n" a v);
  let states h =
    List.iter
      (fun (s : Cache.State.t) -> pr "s %h %h\n" s.Cache.State.ao s.Cache.State.io)
      (level_states h)
  in
  states r.E.hierarchy;
  Option.iter states victim_hierarchy

let digest_of runs =
  let buf = Buffer.create 65536 in
  List.iter (fun f -> f buf) runs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let sample_run ?hierarchy (s : D.sample) buf =
  add_run buf ~name:s.D.name s.D.program (D.run ?hierarchy s)

let fingerprint_rng () = Sutil.Rng.create 20261018

let corpus_pocs () =
  D.base_samples () @ [ D.of_spec (A.meltdown_fr ()) ]

let corpus_mutated () =
  let rng = fingerprint_rng () in
  List.concat_map
    (fun l -> D.mutated_attacks ~rng ~count:2 l)
    Workloads.Label.attack_labels

let corpus_obfuscated () =
  let rng = fingerprint_rng () in
  List.concat_map
    (fun l -> D.obfuscated_attacks ~rng ~count:1 l)
    Workloads.Label.attack_labels

let corpus_benign () = D.benign_samples ~rng:(fingerprint_rng ()) ~count:12

let variant_runs name =
  let make = List.assoc name Experiments.Robustness.hierarchy_variants in
  List.map
    (fun (spec : A.spec) buf ->
      let hierarchy, victim_hierarchy = make () in
      add_run buf ~name:spec.A.name ?victim_hierarchy spec.A.program
        (A.run_spec ~hierarchy ?victim_hierarchy spec))
    (A.base_pocs ())

let golden =
  [
    ( "base PoCs",
      "1034647fe3b6d2e84e41e61fdfc9ed86",
      fun () -> List.map sample_run (corpus_pocs ()) );
    ( "mutated",
      "5d6631d1e48a467c001c4a48777967e2",
      fun () -> List.map sample_run (corpus_mutated ()) );
    ( "obfuscated",
      "2874ada6ea99c95f5edb5cf332e7d10e",
      fun () -> List.map sample_run (corpus_obfuscated ()) );
    ( "benign",
      "2a633da36d254227ba21df5c42b04221",
      fun () -> List.map sample_run (corpus_benign ()) );
    ( "FIFO",
      "d163faed557059e443a0da68e7600a6a",
      fun () -> variant_runs "FIFO" );
    ( "Random",
      "a06a17b0ebe4341fd57bc0130548c2cf",
      fun () -> variant_runs "Random" );
    ( "prefetcher",
      "407d52d28e46952becdd0ec42d251963",
      fun () -> variant_runs "prefetcher" );
    ( "non-inclusive LLC",
      "b3d31b9db309afc6e805ab1b3ccae240",
      fun () -> variant_runs "non-inclusive LLC" );
    ( "cross-core",
      "f87575c7b6af4544870dd1022a13d338",
      fun () -> variant_runs "cross-core" );
  ]

let golden_cases =
  List.map
    (fun (name, pinned, runs) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) name pinned (digest_of (runs ()))))
    golden

(* One hierarchy serving run after run, reset in between, is
   indistinguishable from a fresh one per run — what lets the batch builder
   keep one hierarchy per worker. *)
let prop_reused_hierarchy_is_fresh =
  QCheck.Test.make ~name:"reset hierarchy reuse = fresh create" ~count:8
    QCheck.small_int
    (fun seed ->
      let rng = Sutil.Rng.create seed in
      let pocs = Array.of_list (corpus_pocs ()) in
      let samples =
        pocs.(seed mod Array.length pocs) :: D.benign_samples ~rng ~count:2
      in
      let policy =
        List.nth Cache.Policy.[ Lru; Fifo; Random (seed + 1) ] (seed mod 3)
      in
      let reused = Cache.Hierarchy.create ~policy () in
      List.for_all
        (fun (s : D.sample) ->
          Cache.Hierarchy.reset reused;
          let on_reused = digest_of [ sample_run ~hierarchy:reused s ] in
          let on_fresh =
            digest_of [ sample_run ~hierarchy:(Cache.Hierarchy.create ~policy ()) s ]
          in
          on_reused = on_fresh)
        samples)

let () =
  Alcotest.run "cpu"
    [
      ( "machine",
        [
          Alcotest.test_case "regs/mem" `Quick test_machine_regs_mem;
          Alcotest.test_case "snapshot isolation" `Quick test_machine_snapshot_isolated;
          Alcotest.test_case "conditions" `Quick test_machine_conditions;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "2-bit training" `Quick test_predictor_training;
          Alcotest.test_case "btb" `Quick test_predictor_btb;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "mov/alu" `Quick test_exec_mov_alu;
          Alcotest.test_case "shifts/inc/dec" `Quick test_exec_shifts_incdec;
          Alcotest.test_case "memory ops" `Quick test_exec_memory_ops;
          Alcotest.test_case "lea" `Quick test_exec_lea;
          Alcotest.test_case "loop" `Quick test_exec_loop;
          Alcotest.test_case "call/ret" `Quick test_exec_call_ret;
          Alcotest.test_case "push/pop" `Quick test_exec_push_pop;
          Alcotest.test_case "fall off end" `Quick test_exec_fall_off_end_halts;
          Alcotest.test_case "fuel bound" `Quick test_exec_fuel_bound;
          Alcotest.test_case "prefetch and rmw" `Quick test_exec_prefetch_and_rmw;
          Alcotest.test_case "push mem operand" `Quick test_exec_push_mem_operand;
          Alcotest.test_case "ret to garbage halts" `Quick
            test_exec_ret_to_garbage_halts;
        ] );
      ( "timing",
        [
          Alcotest.test_case "rdtsc hit/miss gap" `Quick test_rdtsc_measures_memory_latency;
          Alcotest.test_case "clflush timing" `Quick test_clflush_timing_difference;
        ] );
      ( "speculation",
        [
          Alcotest.test_case "transient cache effect persists" `Quick
            test_transient_cache_effect_persists;
          Alcotest.test_case "no transient with window 0" `Quick
            test_no_transient_without_speculation;
          Alcotest.test_case "transient registers squashed" `Quick
            test_transient_register_squashed;
          Alcotest.test_case "fence stops transient" `Quick test_fence_stops_transient;
        ] );
      ( "faults",
        [
          Alcotest.test_case "kills without handler" `Quick
            test_fault_kills_without_handler;
          Alcotest.test_case "handler receives control" `Quick
            test_fault_handler_receives_control;
          Alcotest.test_case "transient footprint (Meltdown)" `Quick
            test_fault_transient_footprint;
          Alcotest.test_case "no window without speculation" `Quick
            test_fault_no_window_without_speculation;
          Alcotest.test_case "no protection by default" `Quick
            test_no_protection_by_default;
        ] );
      ( "victim",
        [
          Alcotest.test_case "shares cache" `Quick test_victim_shares_cache;
          Alcotest.test_case "restarts" `Quick test_victim_restarts;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest prop_execution_deterministic;
          QCheck_alcotest.to_alcotest prop_attack_runs_deterministic;
        ] );
      ( "collection",
        [
          Alcotest.test_case "events per pc" `Quick test_events_recorded_per_pc;
          Alcotest.test_case "access trace" `Quick test_access_trace_recorded;
        ] );
      ("golden", golden_cases);
      ("reuse", [ QCheck_alcotest.to_alcotest prop_reused_hierarchy_is_fresh ]);
    ]
