type latencies = {
  l1_hit : int;
  llc_hit : int;
  memory : int;
  flush_present : int;
  flush_absent : int;
}

let default_latencies =
  { l1_hit = 4; llc_hit = 42; memory = 200; flush_present = 14; flush_absent = 6 }

type t = {
  l1d : Set_assoc.t;
  l1i : Set_assoc.t;
  llc : Set_assoc.t;
  lat : latencies;
  inclusive : bool;
  prefetch : bool;
  mutable peers : t list;
      (* other cores' views sharing this LLC: coherence propagates flushes
         and back-invalidations into their private L1s *)
}

type level = L1 | Llc | Memory

let create ?(l1d = Config.l1d) ?(l1i = Config.l1i) ?(llc = Config.llc)
    ?(latencies = default_latencies) ?policy ?(inclusive = true)
    ?(prefetch = false) () =
  {
    l1d = Set_assoc.create ?policy l1d;
    l1i = Set_assoc.create ?policy l1i;
    llc = Set_assoc.create ?policy llc;
    lat = latencies;
    inclusive;
    prefetch;
    peers = [];
  }

let latency t = function
  | L1 -> t.lat.l1_hit
  | Llc -> t.lat.llc_hit
  | Memory -> t.lat.memory

let flush_l1s t addr =
  ignore (Set_assoc.flush t.l1d addr);
  ignore (Set_assoc.flush t.l1i addr)

let rec flush_peers addr = function
  | [] -> ()
  | peer :: rest ->
    flush_l1s peer addr;
    flush_peers addr rest

(* Invalidate a line from every private L1 that might hold it (this core's
   and every peer core's). *)
let invalidate_private t addr =
  flush_l1s t addr;
  flush_peers addr t.peers

let through t l1 ~owner addr =
  if Set_assoc.access l1 ~owner addr then L1
  else begin
    let hit = Set_assoc.access t.llc ~owner addr in
    (* Inclusive LLC: evicting a line from the LLC back-invalidates it in the
       L1s — the property Evict+Reload depends on (and loses without). *)
    (if t.inclusive then
       let evicted = Set_assoc.evicted t.llc in
       if evicted >= 0 then invalidate_private t evicted);
    if hit then Llc else Memory
  end

let load t ~owner addr =
  match through t t.l1d ~owner addr with
  | L1 -> L1
  | (Llc | Memory) as level ->
    (* A simple next-line prefetcher: a demand load miss also pulls the
       following line in, asynchronously (no latency charged, no events). *)
    if t.prefetch then
      ignore
        (through t t.l1d ~owner
           (addr + Config.line_size (Set_assoc.config t.l1d)));
    level

let store t ~owner addr = through t t.l1d ~owner addr
let ifetch t ~owner addr = through t t.l1i ~owner addr

let flush t addr =
  (* clflush is coherence-wide: peer cores' private copies go too. *)
  let p1 = Set_assoc.flush t.l1d addr in
  let p2 = Set_assoc.flush t.l1i addr in
  let p3 = Set_assoc.flush t.llc addr in
  flush_peers addr t.peers;
  if p1 || p2 || p3 then t.lat.flush_present else t.lat.flush_absent

let states t =
  (Set_assoc.state t.l1d, Set_assoc.state t.l1i, Set_assoc.state t.llc)

let reset t =
  Set_assoc.reset t.l1d;
  Set_assoc.reset t.l1i;
  Set_assoc.reset t.llc

(* Two cores with private L1s sharing one LLC — the classic cross-core
   LLC-attack topology.  Both views use the same latencies and knobs. *)
let create_cross_core ?(l1d = Config.l1d) ?(l1i = Config.l1i)
    ?(llc = Config.llc) ?(latencies = default_latencies) ?policy
    ?(inclusive = true) ?(prefetch = false) () =
  let shared_llc = Set_assoc.create ?policy llc in
  let mk () =
    {
      l1d = Set_assoc.create ?policy l1d;
      l1i = Set_assoc.create ?policy l1i;
      llc = shared_llc;
      lat = latencies;
      inclusive;
      prefetch;
      peers = [];
    }
  in
  let a = mk () and b = mk () in
  a.peers <- [ b ];
  b.peers <- [ a ];
  (a, b)
