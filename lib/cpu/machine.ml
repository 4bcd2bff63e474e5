module Mem = Sutil.Int_table

type t = {
  regs : int array;
  mem : Mem.t; (* shared between a machine and its view *)
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable pc : int;
  mutable halted : bool;
  is_view : bool; (* stores go to the overlay instead of [mem] *)
  (* a view's stores: distinct addresses with their values *)
  mutable ov_addr : int array;
  mutable ov_val : int array;
  mutable ov_len : int;
  mutable view : t option; (* this machine's view, once forked *)
}

let make ~regs ~mem ~is_view ~overlay =
  {
    regs;
    mem;
    zf = false;
    sf = false;
    cf = false;
    pc = 0;
    halted = false;
    is_view;
    ov_addr = Array.make overlay 0;
    ov_val = Array.make overlay 0;
    ov_len = 0;
    view = None;
  }

(* The default stack top sits at LLC set 27, away from the set-0-aligned
   regions the cache-attack workloads monitor. *)
let create ?(stack_top = 0x7FFF_0000 + (27 * 64)) () =
  let regs = Array.make Isa.Reg.count 0 in
  regs.(Isa.Reg.index Isa.Reg.RSP) <- stack_top;
  make ~regs ~mem:(Mem.create 128) ~is_view:false ~overlay:0

let get_reg t r = t.regs.(Isa.Reg.index r)
let set_reg t r v = t.regs.(Isa.Reg.index r) <- v

(* Overlay slot of [addr] among the first [i + 1], or -1. *)
let rec overlay_slot t addr i =
  if i < 0 then -1
  else if Array.unsafe_get t.ov_addr i = addr then i
  else overlay_slot t addr (i - 1)

let load t addr =
  match overlay_slot t addr (t.ov_len - 1) with
  | -1 -> Mem.find t.mem addr ~default:0
  | i -> t.ov_val.(i)

let store t addr v =
  if not t.is_view then Mem.replace t.mem addr v
  else
    match overlay_slot t addr (t.ov_len - 1) with
    | -1 ->
      let n = t.ov_len in
      if n = Array.length t.ov_addr then begin
        let extend a =
          let b = Array.make (2 * n) 0 in
          Array.blit a 0 b 0 n;
          b
        in
        t.ov_addr <- extend t.ov_addr;
        t.ov_val <- extend t.ov_val
      end;
      t.ov_addr.(n) <- addr;
      t.ov_val.(n) <- v;
      t.ov_len <- n + 1
    | i -> t.ov_val.(i) <- v

let init_region t ~base values =
  Array.iteri (fun i v -> store t (base + (8 * i)) v) values

let zf t = t.zf
let sf t = t.sf
let cf t = t.cf

let set_flags t ~zf ~sf ~cf =
  t.zf <- zf;
  t.sf <- sf;
  t.cf <- cf

let cond_holds t = function
  | Isa.Instr.Eq -> t.zf
  | Isa.Instr.Ne -> not t.zf
  | Isa.Instr.Lt -> t.sf
  | Isa.Instr.Le -> t.zf || t.sf
  | Isa.Instr.Gt -> (not t.zf) && not t.sf
  | Isa.Instr.Ge -> not t.sf
  | Isa.Instr.Ult -> t.cf
  | Isa.Instr.Uge -> not t.cf

let pc t = t.pc
let set_pc t v = t.pc <- v

let halted t = t.halted
let set_halted t v = t.halted <- v

let fork t =
  if t.is_view then invalid_arg "Machine.fork: a view cannot fork";
  let v =
    match t.view with
    | Some v -> v
    | None ->
      let v =
        make ~regs:(Array.make Isa.Reg.count 0) ~mem:t.mem ~is_view:true
          ~overlay:16
      in
      t.view <- Some v;
      v
  in
  Array.blit t.regs 0 v.regs 0 (Array.length t.regs);
  v.zf <- t.zf;
  v.sf <- t.sf;
  v.cf <- t.cf;
  v.pc <- t.pc;
  v.halted <- t.halted;
  v.ov_len <- 0;
  v

let fold_mem t ~init ~f = Mem.fold t.mem ~init ~f
