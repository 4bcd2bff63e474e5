(* Tests for the sutil utility library: deterministic RNG, Levenshtein
   distance, summary statistics and table rendering. *)

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ---- Rng ----------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Sutil.Rng.create 42 in
  let b = Sutil.Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Sutil.Rng.int a 1000) (Sutil.Rng.int b 1000)
  done

let test_rng_seeds_differ () =
  let a = Sutil.Rng.create 1 in
  let b = Sutil.Rng.create 2 in
  let xs = List.init 20 (fun _ -> Sutil.Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Sutil.Rng.int b 1_000_000) in
  Alcotest.(check bool) "streams differ" false (xs = ys)

let test_rng_split_independent () =
  let parent = Sutil.Rng.create 7 in
  let child = Sutil.Rng.split parent in
  let c1 = List.init 10 (fun _ -> Sutil.Rng.int child 100) in
  (* A second split from the same parent state gives another stream. *)
  let child2 = Sutil.Rng.split parent in
  let c2 = List.init 10 (fun _ -> Sutil.Rng.int child2 100) in
  Alcotest.(check bool) "children differ" false (c1 = c2)

let test_rng_copy () =
  let a = Sutil.Rng.create 9 in
  ignore (Sutil.Rng.int a 10);
  let b = Sutil.Rng.copy a in
  check_int "copy replays" (Sutil.Rng.int a 1000) (Sutil.Rng.int b 1000)

let test_rng_in_range () =
  let rng = Sutil.Rng.create 3 in
  for _ = 1 to 500 do
    let v = Sutil.Rng.in_range rng 5 9 in
    Alcotest.(check bool) "in [5,9]" true (v >= 5 && v <= 9)
  done

let test_rng_invalid_args () =
  let rng = Sutil.Rng.create 0 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Sutil.Rng.int rng 0));
  Alcotest.check_raises "choose []" (Invalid_argument "Rng.choose: empty list")
    (fun () -> ignore (Sutil.Rng.choose rng ([] : int list)))

let test_rng_sample_distinct () =
  let rng = Sutil.Rng.create 5 in
  let xs = List.init 20 Fun.id in
  let s = Sutil.Rng.sample rng 8 xs in
  check_int "size" 8 (List.length s);
  check_int "distinct" 8 (List.length (List.sort_uniq compare s))

let prop_int_bounds =
  QCheck.Test.make ~name:"rng int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10000))
    (fun (seed, bound) ->
      let rng = Sutil.Rng.create seed in
      let v = Sutil.Rng.int rng bound in
      v >= 0 && v < bound)

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let rng = Sutil.Rng.create seed in
      List.sort compare (Sutil.Rng.shuffle rng xs) = List.sort compare xs)

let prop_float_bounds =
  QCheck.Test.make ~name:"rng float within bounds" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Sutil.Rng.create seed in
      let v = Sutil.Rng.float rng 3.5 in
      v >= 0.0 && v < 3.5)

(* ---- Levenshtein ---------------------------------------------------------- *)

let dist a b =
  Sutil.Levenshtein.distance_strings (Array.of_list a) (Array.of_list b)

let test_lev_basic () =
  check_int "identical" 0 (dist [ "a"; "b" ] [ "a"; "b" ]);
  check_int "empty vs xs" 3 (dist [] [ "a"; "b"; "c" ]);
  check_int "single subst" 1 (dist [ "a"; "b"; "c" ] [ "a"; "x"; "c" ]);
  check_int "insert" 1 (dist [ "a"; "c" ] [ "a"; "b"; "c" ]);
  check_int "kitten/sitting" 3
    (Sutil.Levenshtein.distance ~equal:Char.equal
       [| 'k'; 'i'; 't'; 't'; 'e'; 'n' |]
       [| 's'; 'i'; 't'; 't'; 'i'; 'n'; 'g' |])

let test_lev_normalized () =
  check_float "identical" 0.0
    (Sutil.Levenshtein.normalized ~equal:String.equal [| "a" |] [| "a" |]);
  check_float "both empty" 0.0
    (Sutil.Levenshtein.normalized ~equal:String.equal [||] [||]);
  check_float "disjoint" 1.0
    (Sutil.Levenshtein.normalized ~equal:String.equal [| "a"; "b" |]
       [| "x"; "y" |])

let prop_lev_symmetric =
  QCheck.Test.make ~name:"levenshtein symmetric" ~count:200
    QCheck.(pair (list (int_range 0 5)) (list (int_range 0 5)))
    (fun (a, b) ->
      let a = Array.of_list a and b = Array.of_list b in
      Sutil.Levenshtein.distance ~equal:Int.equal a b
      = Sutil.Levenshtein.distance ~equal:Int.equal b a)

let prop_lev_triangle =
  QCheck.Test.make ~name:"levenshtein triangle inequality" ~count:200
    QCheck.(triple (list (int_range 0 3)) (list (int_range 0 3))
              (list (int_range 0 3)))
    (fun (a, b, c) ->
      let a = Array.of_list a and b = Array.of_list b and c = Array.of_list c in
      let d x y = Sutil.Levenshtein.distance ~equal:Int.equal x y in
      d a c <= d a b + d b c)

let prop_lev_bounds =
  QCheck.Test.make ~name:"levenshtein bounded by max length" ~count:200
    QCheck.(pair (list (int_range 0 5)) (list (int_range 0 5)))
    (fun (a, b) ->
      let a = Array.of_list a and b = Array.of_list b in
      let d = Sutil.Levenshtein.distance ~equal:Int.equal a b in
      d >= Sutil.Levenshtein.lower_bound a b
      && d <= max (Array.length a) (Array.length b))

let prop_lev_limit =
  QCheck.Test.make ~name:"levenshtein ?limit caps at min(distance, limit)"
    ~count:300
    QCheck.(
      triple (list (int_range 0 5)) (list (int_range 0 5)) (int_range 0 8))
    (fun (a, b, limit) ->
      let a = Array.of_list a and b = Array.of_list b in
      let exact = Sutil.Levenshtein.distance ~equal:Int.equal a b in
      Sutil.Levenshtein.distance ~limit ~equal:Int.equal a b
      = min exact limit)

(* ---- Intern ---------------------------------------------------------------- *)

let test_intern_equality () =
  let p = Sutil.Intern.create () in
  let a = Sutil.Intern.intern p "load m" in
  let b = Sutil.Intern.intern p "store m" in
  check_int "same string, same id" a (Sutil.Intern.intern p "load m");
  Alcotest.(check bool) "distinct strings, distinct ids" false (a = b);
  Alcotest.(check string) "id maps back" "load m" (Sutil.Intern.to_string p a);
  Alcotest.(check string) "id maps back 2" "store m" (Sutil.Intern.to_string p b);
  check_int "size counts distinct strings" 2 (Sutil.Intern.size p)

let test_intern_all () =
  let p = Sutil.Intern.create () in
  let ss = [| "a"; "b"; "a"; "c"; "b" |] in
  let ids = Sutil.Intern.intern_all p ss in
  Alcotest.(check (array int)) "batch = one-by-one"
    (Array.map (Sutil.Intern.intern p) ss)
    ids;
  Alcotest.(check (array string)) "roundtrip"
    ss
    (Array.map (Sutil.Intern.to_string p) ids)

let test_intern_growth () =
  (* push past the initial capacity so the doubling path is exercised *)
  let p = Sutil.Intern.create () in
  let ids = List.init 500 (fun i -> Sutil.Intern.intern p (string_of_int i)) in
  check_int "all distinct" 500 (List.length (List.sort_uniq compare ids));
  List.iteri
    (fun i id ->
      Alcotest.(check string) "stable" (string_of_int i)
        (Sutil.Intern.to_string p id))
    ids

(* the interning guarantee the scorers rely on: the int-token Levenshtein is
   bit-identical to the string-token one whenever ids come from one pool *)
let prop_interned_levenshtein_identical =
  QCheck.Test.make ~name:"interned levenshtein = string levenshtein" ~count:300
    QCheck.(
      pair
        (list (oneofl [ "load m"; "store m"; "mov r r"; "rdtsc"; "mfence" ]))
        (list (oneofl [ "load m"; "store m"; "mov r r"; "clflush m" ])))
    (fun (a, b) ->
      let a = Array.of_list a and b = Array.of_list b in
      let p = Sutil.Intern.create () in
      let ia = Sutil.Intern.intern_all p a
      and ib = Sutil.Intern.intern_all p b in
      Sutil.Levenshtein.distance_ints ia ib
      = Sutil.Levenshtein.distance_strings a b
      && Sutil.Levenshtein.normalized_ints ia ib
         = Sutil.Levenshtein.normalized ~equal:String.equal a b)

(* ---- Stats ---------------------------------------------------------------- *)

let test_stats_mean_median () =
  check_float "mean" 2.5 (Sutil.Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "median odd" 2.0 (Sutil.Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "median even" 2.5 (Sutil.Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  check_float "empty mean" 0.0 (Sutil.Stats.mean []);
  check_float "min" 1.0 (Sutil.Stats.minimum [ 3.0; 1.0; 2.0 ]);
  check_float "max" 3.0 (Sutil.Stats.maximum [ 3.0; 1.0; 2.0 ])

let test_stats_stddev () =
  check_float "constant" 0.0 (Sutil.Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check_float "known" 2.0 (Sutil.Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p50" 50.0 (Sutil.Stats.percentile 0.5 xs);
  check_float "p99" 99.0 (Sutil.Stats.percentile 0.99 xs)

let test_bucket_percentiles () =
  let bounds = [| 1.0; 2.0; 4.0 |] in
  (* 10 observations in (0,1], 10 in (1,2], none higher *)
  let counts = [| 10; 10; 0; 0 |] in
  check_float "total" 20.0 (float_of_int (Sutil.Stats.bucket_total counts));
  (* rank 10 is the last of the first bucket: interpolates to its top edge *)
  check_float "p50 at bucket edge" 1.0
    (Sutil.Stats.percentile_of_buckets ~bounds ~counts 0.5);
  (* rank 5 sits halfway through the first bucket (0..1) *)
  check_float "p25 interpolates" 0.5
    (Sutil.Stats.percentile_of_buckets ~bounds ~counts 0.25);
  (* rank 18 is 8/10 through the second bucket (1..2) *)
  check_float "p90 interpolates" 1.8
    (Sutil.Stats.percentile_of_buckets ~bounds ~counts 0.9);
  (* empty histogram is total *)
  check_float "empty" 0.0
    (Sutil.Stats.percentile_of_buckets ~bounds ~counts:[| 0; 0; 0; 0 |] 0.5);
  (* overflow ranks clamp to the largest finite bound *)
  check_float "overflow clamps" 4.0
    (Sutil.Stats.percentile_of_buckets ~bounds ~counts:[| 0; 0; 0; 5 |] 0.99);
  (* quantile batches map one-to-one *)
  (match Sutil.Stats.quantiles_of_buckets ~bounds ~counts [ 0.25; 0.5; 0.9 ] with
  | [ a; b; c ] ->
    check_float "q25" 0.5 a;
    check_float "q50" 1.0 b;
    check_float "q90" 1.8 c
  | _ -> Alcotest.fail "expected three quantiles");
  Alcotest.check_raises "length mismatch raises"
    (Invalid_argument
       "Stats.percentile_of_buckets: need one count per bound plus overflow")
    (fun () ->
      ignore (Sutil.Stats.percentile_of_buckets ~bounds ~counts:[| 1 |] 0.5))

(* ---- Pool probe ------------------------------------------------------------ *)

let test_pool_probe () =
  (* every task gets exactly one start and one stop, stop after start, with
     matching worker ids — across a multi-domain run *)
  let tasks = 64 in
  let starts = Array.make tasks 0 and stops = Array.make tasks 0 in
  let start_worker = Array.make tasks (-1) in
  let lock = Mutex.create () in
  let probe =
    {
      Sutil.Pool.task_start =
        (fun ~worker i ->
          Mutex.lock lock;
          starts.(i) <- starts.(i) + 1;
          start_worker.(i) <- worker;
          Mutex.unlock lock);
      task_stop =
        (fun ~worker i ->
          Mutex.lock lock;
          Alcotest.(check int) "stop on the same worker" start_worker.(i) worker;
          Alcotest.(check int) "started before stopping" 1 starts.(i);
          stops.(i) <- stops.(i) + 1;
          Mutex.unlock lock);
    }
  in
  let hit = Array.make tasks false in
  ignore
    (Sutil.Pool.run ~domains:4 ~probe ~tasks (fun ~worker:_ i ->
         hit.(i) <- true));
  Alcotest.(check bool) "every task ran" true (Array.for_all Fun.id hit);
  Array.iteri
    (fun i s ->
      Alcotest.(check int) (Printf.sprintf "task %d started once" i) 1 s;
      Alcotest.(check int) (Printf.sprintf "task %d stopped once" i) 1 stops.(i))
    starts

let test_pool_probe_optional () =
  (* ?probe:None is the plain un-instrumented run *)
  let count = ref 0 in
  ignore
    (Sutil.Pool.run ~domains:1 ~tasks:10 (fun ~worker:_ _ -> incr count));
  Alcotest.(check int) "all tasks, no probe" 10 !count

(* ---- Table ---------------------------------------------------------------- *)

(* tiny substring helper to avoid external deps *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_render () =
  let t = Sutil.Table.create ~title:"T" [ "a"; "bb" ] in
  Sutil.Table.add_row t [ "1"; "2" ];
  Sutil.Table.add_row t [ "longer" ];
  let s = Sutil.Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  (* short row padded, long cell widens column *)
  Alcotest.(check bool) "mentions longer" true (contains s "longer")

let test_table_pct () =
  Alcotest.(check string) "pct" "96.64%" (Sutil.Table.pct 0.9664);
  Alcotest.(check string) "fpct" "12.30%" (Sutil.Table.fpct 12.3)

(* -- bqueue ------------------------------------------------------------------- *)

let test_bqueue_fifo () =
  let q = Sutil.Bqueue.create ~capacity:3 in
  Alcotest.(check bool) "empty" true (Sutil.Bqueue.is_empty q);
  List.iter (fun i -> assert (Sutil.Bqueue.push q i)) [ 1; 2; 3 ];
  Alcotest.(check bool) "full rejects" false (Sutil.Bqueue.push q 4);
  Alcotest.(check (option int)) "peek is the head" (Some 1) (Sutil.Bqueue.peek q);
  Alcotest.(check (option int)) "fifo pop" (Some 1) (Sutil.Bqueue.pop q);
  Alcotest.(check bool) "slot freed" true (Sutil.Bqueue.push q 4);
  Alcotest.(check (list int)) "to_list keeps order" [ 2; 3; 4 ]
    (Sutil.Bqueue.to_list q);
  let drained = ref [] in
  Sutil.Bqueue.drain q (fun v -> drained := v :: !drained);
  Alcotest.(check (list int)) "drain is fifo" [ 2; 3; 4 ] (List.rev !drained);
  Alcotest.(check (option int)) "empty pop" None (Sutil.Bqueue.pop q)

let test_bqueue_wraparound () =
  let q = Sutil.Bqueue.create ~capacity:2 in
  for i = 1 to 100 do
    assert (Sutil.Bqueue.push q i);
    Alcotest.(check (option int)) "ring wraps" (Some i) (Sutil.Bqueue.pop q)
  done

let test_bqueue_invalid () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Bqueue.create: capacity 0 < 1") (fun () ->
      ignore (Sutil.Bqueue.create ~capacity:0))

(* -- deadline ----------------------------------------------------------------- *)

let test_deadline () =
  let now = 1_000_000_000L in
  Alcotest.(check bool) "none never expires" false
    (Sutil.Deadline.expired ~now_ns:Int64.max_int Sutil.Deadline.none);
  Alcotest.(check bool) "zero budget means none" true
    (Sutil.Deadline.is_none (Sutil.Deadline.after ~now_ns:now ~budget_ms:0));
  let d = Sutil.Deadline.after ~now_ns:now ~budget_ms:5 in
  Alcotest.(check bool) "not yet" false (Sutil.Deadline.expired ~now_ns:now d);
  Alcotest.(check bool) "within budget" false
    (Sutil.Deadline.expired ~now_ns:(Int64.add now 4_999_999L) d);
  Alcotest.(check bool) "at the instant" true
    (Sutil.Deadline.expired ~now_ns:(Int64.add now 5_000_000L) d);
  (match Sutil.Deadline.remaining_ns ~now_ns:(Int64.add now 6_000_000L) d with
  | Some r -> Alcotest.(check bool) "remaining clamps at 0" true (r = 0L)
  | None -> Alcotest.fail "deadline has a remaining");
  (* a huge budget saturates instead of wrapping into the past *)
  let far = Sutil.Deadline.after ~now_ns:Int64.max_int ~budget_ms:max_int in
  Alcotest.(check bool) "saturating add" false
    (Sutil.Deadline.expired ~now_ns:1L far)

(* -- sink --------------------------------------------------------------------- *)

let int_sink capacity = Sutil.Sink.create ~capacity ~order:Int.compare

let test_sink_bound () =
  let s = int_sink 3 in
  List.iter (Sutil.Sink.push s) [ 5; 1; 4; 2; 3 ];
  Alcotest.(check (list int)) "first [capacity] pushes kept, in order"
    [ 1; 4; 5 ] (Sutil.Sink.contents s);
  Alcotest.(check int) "overflow counted" 2 (Sutil.Sink.dropped s);
  Alcotest.(check (list int)) "contents does not consume" [ 1; 4; 5 ]
    (Sutil.Sink.contents s);
  Sutil.Sink.clear s;
  Alcotest.(check (list int)) "clear empties" [] (Sutil.Sink.contents s);
  Alcotest.(check int) "clear resets the drop count" 0 (Sutil.Sink.dropped s);
  List.iter (Sutil.Sink.push s) [ 7; 8; 9 ];
  Alcotest.(check int) "full capacity again after clear" 3
    (List.length (Sutil.Sink.contents s));
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Sink.create: capacity 0 < 1") (fun () ->
      ignore (int_sink 0))

let test_sink_isolate () =
  let s = int_sink 4 in
  List.iter (Sutil.Sink.push s) [ 1; 2 ];
  let v, mine =
    Sutil.Sink.isolate s (fun () ->
        Alcotest.(check (list int)) "starts empty" [] (Sutil.Sink.contents s);
        List.iter (Sutil.Sink.push s) [ 30; 10; 20; 40; 50 ];
        "done")
  in
  Alcotest.(check string) "result threaded through" "done" v;
  Alcotest.(check (list int)) "exactly the inner items, bounded" [ 10; 20; 30; 40 ]
    mine;
  Alcotest.(check (list int)) "outer items restored" [ 1; 2 ] (Sutil.Sink.contents s);
  Alcotest.(check int) "inner overflow still counted" 1 (Sutil.Sink.dropped s);
  Sutil.Sink.push s 3;
  Sutil.Sink.push s 4;
  Sutil.Sink.push s 5;
  Alcotest.(check (list int)) "outer bound restored" [ 1; 2; 3; 4 ]
    (Sutil.Sink.contents s);
  (match Sutil.Sink.isolate s (fun () -> Sutil.Sink.push s 99; failwith "boom") with
  | _ -> Alcotest.fail "isolate swallowed the exception"
  | exception Failure m -> Alcotest.(check string) "exception re-raised" "boom" m);
  Alcotest.(check (list int)) "restored on raise, inner items discarded"
    [ 1; 2; 3; 4 ] (Sutil.Sink.contents s)

let test_sink_concurrent () =
  let per_domain = 5000 and domains = 4 in
  let s = int_sink (per_domain * domains) in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              Sutil.Sink.push s ((d * per_domain) + i)
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "nothing dropped below the cap" 0 (Sutil.Sink.dropped s);
  Alcotest.(check bool) "every push kept exactly once" true
    (Sutil.Sink.contents s = List.init (per_domain * domains) Fun.id)

(* ---- Int_table --------------------------------------------------------- *)

(* Any sequence of replaces agrees with Hashtbl as a reference map, across
   growth, for every key including min_int and page-strided addresses. *)
let prop_int_table_matches_hashtbl =
  let key =
    QCheck.Gen.(
      oneof
        [ int_range (-50) 50; map (fun k -> k * 4096) (int_range 0 300);
          return min_int; return max_int ])
  in
  QCheck.Test.make ~name:"int_table = Hashtbl" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 400) (pair key small_int)))
    (fun ops ->
      let t = Sutil.Int_table.create 4 and h = Hashtbl.create 4 in
      List.iter
        (fun (k, v) ->
          Sutil.Int_table.replace t k v;
          Hashtbl.replace h k v)
        ops;
      let sorted l = List.sort compare l in
      sorted (Sutil.Int_table.fold t ~init:[] ~f:(fun k v acc -> (k, v) :: acc))
         = sorted (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])
      && List.for_all
           (fun (k, _) ->
             Sutil.Int_table.mem t k
             && Sutil.Int_table.find t k ~default:(-1) = Hashtbl.find h k)
           ops
      && (Hashtbl.mem h 7 || Sutil.Int_table.find t 7 ~default:(-1) = -1))

let () =
  Alcotest.run "sutil"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "copy replays" `Quick test_rng_copy;
          Alcotest.test_case "in_range" `Quick test_rng_in_range;
          Alcotest.test_case "invalid args" `Quick test_rng_invalid_args;
          Alcotest.test_case "sample distinct" `Quick test_rng_sample_distinct;
          QCheck_alcotest.to_alcotest prop_int_bounds;
          QCheck_alcotest.to_alcotest prop_shuffle_permutation;
          QCheck_alcotest.to_alcotest prop_float_bounds;
        ] );
      ( "levenshtein",
        [
          Alcotest.test_case "basic" `Quick test_lev_basic;
          Alcotest.test_case "normalized" `Quick test_lev_normalized;
          QCheck_alcotest.to_alcotest prop_lev_symmetric;
          QCheck_alcotest.to_alcotest prop_lev_triangle;
          QCheck_alcotest.to_alcotest prop_lev_bounds;
          QCheck_alcotest.to_alcotest prop_lev_limit;
        ] );
      ( "intern",
        [
          Alcotest.test_case "equality" `Quick test_intern_equality;
          Alcotest.test_case "intern_all" `Quick test_intern_all;
          Alcotest.test_case "growth" `Quick test_intern_growth;
          QCheck_alcotest.to_alcotest prop_interned_levenshtein_identical;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/median" `Quick test_stats_mean_median;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "bucket percentiles" `Quick test_bucket_percentiles;
        ] );
      ( "pool",
        [
          Alcotest.test_case "probe fires once per task" `Quick test_pool_probe;
          Alcotest.test_case "probe optional" `Quick test_pool_probe_optional;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "pct" `Quick test_table_pct;
        ] );
      ( "bqueue",
        [
          Alcotest.test_case "fifo + bound" `Quick test_bqueue_fifo;
          Alcotest.test_case "ring wraparound" `Quick test_bqueue_wraparound;
          Alcotest.test_case "invalid capacity" `Quick test_bqueue_invalid;
        ] );
      ( "deadline",
        [ Alcotest.test_case "budget arithmetic" `Quick test_deadline ] );
      ( "int_table",
        [
          QCheck_alcotest.to_alcotest prop_int_table_matches_hashtbl;
        ] );
      ( "sink",
        [
          Alcotest.test_case "bound, dropped, clear" `Quick test_sink_bound;
          Alcotest.test_case "isolate swap/restore" `Quick test_sink_isolate;
          Alcotest.test_case "4-domain pushes lose nothing" `Quick
            test_sink_concurrent;
        ] );
    ]
