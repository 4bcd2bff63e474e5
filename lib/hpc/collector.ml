type access_kind = Load | Store | Flush

type access = { pc : int; target : int; kind : access_kind; time : int }

type t = {
  prog : Isa.Program.t;
  counts : int array; (* [idx * Event.count + Event.index e] *)
  execs : int array;
  firsts : int array; (* -1: never retired *)
  (* the access log, one array per field, grown by doubling *)
  mutable log_idx : int array;
  mutable log_target : int array;
  mutable log_kind : Bytes.t;
  mutable log_time : int array;
  mutable n_accesses : int;
}

let initial_log = 1024

let create prog =
  let n = Isa.Program.length prog in
  {
    prog;
    counts = Array.make (n * Event.count) 0;
    execs = Array.make n 0;
    firsts = Array.make n (-1);
    log_idx = Array.make initial_log 0;
    log_target = Array.make initial_log 0;
    log_kind = Bytes.make initial_log '\000';
    log_time = Array.make initial_log 0;
    n_accesses = 0;
  }

let record_event t ~idx event =
  let i = (idx * Event.count) + Event.index event in
  t.counts.(i) <- t.counts.(i) + 1

let char_of_kind = function Load -> 'L' | Store -> 'S' | Flush -> 'F'
let kind_of_char = function 'L' -> Load | 'S' -> Store | _ -> Flush

let grow_log t =
  let cap = 2 * Array.length t.log_idx in
  let extend a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.n_accesses;
    b
  in
  t.log_idx <- extend t.log_idx;
  t.log_target <- extend t.log_target;
  t.log_time <- extend t.log_time;
  t.log_kind <- Bytes.extend t.log_kind 0 (cap - Bytes.length t.log_kind)

let record_access t ~idx ~target ~kind ~time =
  let i = t.n_accesses in
  if i = Array.length t.log_idx then grow_log t;
  t.log_idx.(i) <- idx;
  t.log_target.(i) <- target;
  Bytes.set t.log_kind i (char_of_kind kind);
  t.log_time.(i) <- time;
  t.n_accesses <- i + 1

let note_executed t ~idx ~time =
  if t.firsts.(idx) < 0 then t.firsts.(idx) <- time;
  t.execs.(idx) <- t.execs.(idx) + 1

let index_of t pc =
  match Isa.Program.index_of_addr t.prog pc with Some i -> i | None -> -1

let exec_count t ~pc =
  match index_of t pc with -1 -> 0 | i -> t.execs.(i)

(* The counter bank of one instruction, as a fresh Counters.t. *)
let bank t idx =
  let c = Counters.create () in
  List.iter
    (fun e -> Counters.add c e t.counts.((idx * Event.count) + Event.index e))
    Event.all;
  c

let counters_at t ~pc =
  match index_of t pc with
  | -1 -> None
  | idx ->
    let c = bank t idx in
    if Counters.total c = 0 then None else Some c

(* Which counter slots the paper's per-instruction HPC value sums. *)
let counted_slots =
  Array.init Event.count (fun k -> Event.counted_in_hpc_value (Event.of_index k))

let hpc_value_at t ~pc =
  match index_of t pc with
  | -1 -> 0
  | idx ->
    let sum = ref 0 in
    for k = 0 to Event.count - 1 do
      if counted_slots.(k) then sum := !sum + t.counts.((idx * Event.count) + k)
    done;
    !sum

let total_counters t =
  let c = Counters.create () in
  for idx = 0 to Array.length t.execs - 1 do
    Counters.merge_into ~dst:c (bank t idx)
  done;
  c

let access_count t = t.n_accesses
let access_index t i = t.log_idx.(i)
let access_target t i = t.log_target.(i)
let access_kind t i = kind_of_char (Bytes.get t.log_kind i)

let accesses t =
  List.init t.n_accesses (fun i ->
      {
        pc = Isa.Program.addr_of_index t.prog t.log_idx.(i);
        target = t.log_target.(i);
        kind = access_kind t i;
        time = t.log_time.(i);
      })

let first_time t ~pc =
  match index_of t pc with
  | -1 -> None
  | i -> if t.firsts.(i) < 0 then None else Some t.firsts.(i)

let executed_pcs t =
  let acc = ref [] in
  for i = Array.length t.firsts - 1 downto 0 do
    if t.firsts.(i) >= 0 then acc := Isa.Program.addr_of_index t.prog i :: !acc
  done;
  !acc
