type 'a t = {
  cap : int;
  order : 'a -> 'a -> int;
  items : 'a list Atomic.t;
  length : int Atomic.t;
  dropped : int Atomic.t;
}

let create ~capacity ~order =
  if capacity < 1 then
    invalid_arg (Printf.sprintf "Sink.create: capacity %d < 1" capacity);
  {
    cap = capacity;
    order;
    items = Atomic.make [];
    length = Atomic.make 0;
    dropped = Atomic.make 0;
  }

let rec push_item t v =
  let cur = Atomic.get t.items in
  if not (Atomic.compare_and_set t.items cur (v :: cur)) then push_item t v

let push t v =
  (* bound first, push second: the length counter may transiently overshoot
     under contention, which errs on the side of dropping — never of
     unbounded growth or blocking *)
  if Atomic.fetch_and_add t.length 1 < t.cap then push_item t v
  else begin
    ignore (Atomic.fetch_and_add t.length (-1));
    ignore (Atomic.fetch_and_add t.dropped 1)
  end

let contents t = List.sort t.order (Atomic.get t.items)
let dropped t = Atomic.get t.dropped

let clear t =
  Atomic.set t.items [];
  Atomic.set t.length 0;
  Atomic.set t.dropped 0

let isolate t f =
  let saved_items = Atomic.exchange t.items [] in
  let saved_length = Atomic.exchange t.length 0 in
  let restore () =
    let mine = Atomic.exchange t.items saved_items in
    Atomic.set t.length saved_length;
    List.sort t.order mine
  in
  match f () with
  | v -> (v, restore ())
  | exception e ->
    ignore (restore ());
    raise e
