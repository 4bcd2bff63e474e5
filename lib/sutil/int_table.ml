(* Parallel key/value arrays with an occupancy byte per slot, so every int
   (min_int included) is a valid key.  The capacity is a power of two kept
   at least twice the size, which bounds linear-probe runs. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable used : Bytes.t;
  mutable bits : int; (* capacity = 2^bits *)
  mutable size : int;
}

let rec bits_for n b = if 1 lsl b >= 2 * n then b else bits_for n (b + 1)

let make bits =
  let cap = 1 lsl bits in
  {
    keys = Array.make cap 0;
    vals = Array.make cap 0;
    used = Bytes.make cap '\000';
    bits;
    size = 0;
  }

let create n = make (bits_for (max n 4) 3)

(* Fibonacci hashing: the top [bits] bits of the key times an odd 61-bit
   constant, so strided addresses spread over the whole table. *)
let home t k = (k * 0x1E3779B97F4A7C15) lsr (Sys.int_size - t.bits)

(* The slot holding [k], or the empty slot where it would go. *)
let rec probe t k i =
  if Bytes.unsafe_get t.used i = '\000' || Array.unsafe_get t.keys i = k then i
  else probe t k ((i + 1) land ((1 lsl t.bits) - 1))

let find t k ~default =
  let i = probe t k (home t k) in
  if Bytes.unsafe_get t.used i = '\000' then default
  else Array.unsafe_get t.vals i

let mem t k = Bytes.unsafe_get t.used (probe t k (home t k)) <> '\000'

let insert_new t i k v =
  Array.unsafe_set t.keys i k;
  Array.unsafe_set t.vals i v;
  Bytes.unsafe_set t.used i '\001';
  t.size <- t.size + 1

let grow t =
  let old_keys = t.keys and old_vals = t.vals and old_used = t.used in
  let bigger = make (t.bits + 1) in
  t.keys <- bigger.keys;
  t.vals <- bigger.vals;
  t.used <- bigger.used;
  t.bits <- bigger.bits;
  t.size <- 0;
  Bytes.iteri
    (fun j u ->
      if u <> '\000' then begin
        let k = old_keys.(j) in
        insert_new t (probe t k (home t k)) k old_vals.(j)
      end)
    old_used

let replace t k v =
  let i = probe t k (home t k) in
  if Bytes.unsafe_get t.used i <> '\000' then Array.unsafe_set t.vals i v
  else begin
    insert_new t i k v;
    if 2 * t.size > 1 lsl t.bits then grow t
  end

let fold t ~init ~f =
  let acc = ref init in
  Bytes.iteri
    (fun j u -> if u <> '\000' then acc := f t.keys.(j) t.vals.(j) !acc)
    t.used;
  !acc
