(* Line [set * ways + way] lives at that index of each field array (the
   owners as one byte each).  A tag is never negative ([Config.tag_of_addr]
   shifts logically and divides), so [-1] marks an invalid line and a lookup
   needs no separate valid bit. *)

let invalid = -1

type t = {
  cfg : Config.t;
  policy : Policy.t;
  ways : int;
  sets : int;
  line_bits : int;
  set_mask : int; (* sets - 1 when sets is a power of two, else -1 *)
  set_bits : int; (* log2 sets when a power of two *)
  tags : int array;
  owners : Bytes.t; (* owner code, see [code] *)
  stamps : int array; (* LRU / fill stamp: larger = more recent *)
  last : int array; (* per set: the line last hit or filled, checked first *)
  mutable clock : int;
  rnd : Bytes.t; (* splitmix64 state of the Random policy (8 bytes) *)
  mutable evicted : int;
}

let code = function
  | Owner.Attacker -> '\000'
  | Owner.Victim -> '\001'
  | Owner.System -> '\002'

let seed_of = function
  | Policy.Random seed -> Int64.of_int ((seed * 2) + 1)
  | Policy.Lru | Policy.Fifo -> 1L

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create ?(policy = Policy.Lru) cfg =
  let sets = cfg.Config.sets and ways = cfg.Config.ways in
  let n = sets * ways in
  let pow2 = sets > 0 && sets land (sets - 1) = 0 in
  let rnd = Bytes.create 8 in
  Bytes.set_int64_le rnd 0 (seed_of policy);
  {
    cfg;
    policy;
    ways;
    sets;
    line_bits = cfg.Config.line_bits;
    set_mask = (if pow2 then sets - 1 else -1);
    set_bits = log2 sets;
    tags = Array.make n invalid;
    owners = Bytes.make n (code Owner.System);
    stamps = Array.make n 0;
    last = Array.init sets (fun set -> set * ways);
    clock = 0;
    rnd;
    evicted = invalid;
  }

let policy t = t.policy
let config t = t.cfg
let evicted t = t.evicted

(* Config.set_of_addr and Config.tag_of_addr of the line number
   [addr lsr line_bits], with the power-of-two case as mask and shift. *)
let set_of t line = if t.set_mask >= 0 then line land t.set_mask else line mod t.sets
let tag_of t line = if t.set_mask >= 0 then line lsr t.set_bits else line / t.sets

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* Index of [tag] among lines [i, stop), or -1.  A top-level loop: a local
   closure over the set would be allocated on every lookup. *)
let rec find_from (tags : int array) (tag : int) i stop =
  if i >= stop then -1
  else if Array.unsafe_get tags i = tag then i
  else find_from tags tag (i + 1) stop

(* Line index of [tag] in [set] (starting at line [base]), or -1.  Tags
   within a set are distinct, so trying the set's last-used line first
   only shortcuts the scan: runs of fetches and accesses to one line are
   the common case. *)
let find t set base tag =
  let last = Array.unsafe_get t.last set in
  if Array.unsafe_get t.tags last = tag then last
  else find_from t.tags tag base (base + t.ways)

(* Oldest stamp of a full set, the first such way on ties. *)
let oldest_way t base =
  let best = ref 0 in
  for w = 1 to t.ways - 1 do
    if t.stamps.(base + w) < t.stamps.(base + !best) then best := w
  done;
  !best

let next_random t bound =
  (* splitmix64 step, reduced *)
  let z = Int64.add (Bytes.get_int64_le t.rnd 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_le t.rnd 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.to_int (Int64.shift_right_logical (Int64.logxor z (Int64.shift_right_logical z 31)) 2)
  mod bound

(* Line index of the fill victim in the set starting at [base]. *)
let victim t base =
  (* invalid ways fill first under every policy *)
  match find_from t.tags invalid base (base + t.ways) with
  | -1 -> (
    match t.policy with
    | Policy.Lru | Policy.Fifo -> base + oldest_way t base
    | Policy.Random _ -> base + next_random t t.ways)
  | i -> i

let access t ~owner addr =
  let line = addr lsr t.line_bits in
  let set = set_of t line in
  let tag = tag_of t line in
  let base = set * t.ways in
  match find t set base tag with
  | -1 ->
    let i = victim t base in
    t.last.(set) <- i;
    let old = t.tags.(i) in
    t.evicted <-
      (if old = invalid then invalid
       else ((old * t.sets) + set) lsl t.line_bits);
    t.tags.(i) <- tag;
    Bytes.set t.owners i (code owner);
    t.stamps.(i) <- tick t;
    false
  | i ->
    t.last.(set) <- i;
    (* FIFO keeps the fill stamp on hits; LRU refreshes it. *)
    (match t.policy with
    | Policy.Lru | Policy.Random _ -> t.stamps.(i) <- tick t
    | Policy.Fifo -> ());
    Bytes.set t.owners i (code owner);
    t.evicted <- invalid;
    true

let probe t addr =
  let line = addr lsr t.line_bits in
  let set = set_of t line in
  find t set (set * t.ways) (tag_of t line) >= 0

let flush t addr =
  let line = addr lsr t.line_bits in
  let set = set_of t line in
  match find t set (set * t.ways) (tag_of t line) with
  | -1 -> false
  | i ->
    t.tags.(i) <- invalid;
    true

let fill_all t ~owner =
  for i = 0 to Array.length t.tags - 1 do
    (* Distinct tags per way so every line is a distinct address. *)
    t.tags.(i) <- (i mod t.ways) + 1;
    Bytes.set t.owners i (code owner);
    t.stamps.(i) <- tick t
  done

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) invalid;
  Bytes.fill t.owners 0 (Bytes.length t.owners) (code Owner.System);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  Array.iteri (fun set _ -> t.last.(set) <- set * t.ways) t.last;
  t.clock <- 0;
  Bytes.set_int64_le t.rnd 0 (seed_of t.policy);
  t.evicted <- invalid

let owned_by t i c = t.tags.(i) <> invalid && Bytes.get t.owners i = c

let count_owned t owner =
  let c = code owner in
  let n = ref 0 in
  for i = 0 to Array.length t.tags - 1 do
    if owned_by t i c then incr n
  done;
  !n

let occupancy t owner =
  float_of_int (count_owned t owner) /. float_of_int (Config.lines t.cfg)

let state t =
  let total = float_of_int (Config.lines t.cfg) in
  let ao = float_of_int (count_owned t Owner.Attacker) /. total in
  let io =
    float_of_int (count_owned t Owner.Victim + count_owned t Owner.System)
    /. total
  in
  State.make ~ao ~io

let owned_sets t owner =
  let c = code owner in
  let owns set =
    let rec go w = w < t.ways && (owned_by t ((set * t.ways) + w) c || go (w + 1)) in
    go 0
  in
  let acc = ref [] in
  for set = t.sets - 1 downto 0 do
    if owns set then acc := set :: !acc
  done;
  !acc

let valid_lines t =
  let n = ref 0 in
  Array.iter (fun tag -> if tag <> invalid then incr n) t.tags;
  !n
