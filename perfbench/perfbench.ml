(* Entry point: run one workload for one seed and print every metric by
   name and unit, then, as the last line, the JSON result object whose
   metrics are the ones BENCHMARK.json names (end_to_end with --trace 0,
   per_layer with --trace 1).  `selftest` runs every workload at a tiny
   size instead.  Run from the repository root; see README.md. *)

open Harness

type spec = { e2e : (string * string) list; layers : (string * string) list }

(* The metric names and units BENCHMARK.json declares. *)
let read_spec path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let json =
    match Scaguard.Json.parse text with
    | Ok j -> j
    | Error e -> fail "%s: %s" path e
  in
  let names key =
    match Scaguard.Json.member key json with
    | Some (Scaguard.Json.List ms) ->
      List.map
        (fun m ->
          match (Scaguard.Json.member "name" m, Scaguard.Json.member "unit" m) with
          | Some (Scaguard.Json.Str n), Some (Scaguard.Json.Str u) -> (n, u)
          | _ -> fail "%s: %s entry without name/unit" path key)
        ms
    | _ -> fail "%s: no %s list" path key
  in
  { e2e = names "end_to_end"; layers = names "per_layer" }

(* The declared metrics picked out of a run's measurements; a declared
   metric the run did not produce, or produced in another unit, is a
   harness bug and stops the run. *)
let select declared (o : outcome) =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun m -> m.name = name) o.metrics with
      | None -> fail "metric %s was not measured" name
      | Some m when m.unit <> unit ->
        fail "metric %s measured in %s, declared in %s" name m.unit unit
      | Some m -> m)
    declared

let print_metrics (o : outcome) =
  List.iter
    (fun m ->
      Printf.printf "%-26s %16.6f %-7s%s\n" m.name m.value m.unit
        (match m.n with
        | None -> ""
        | Some n when Filename.extension m.name = ".p99_ms" || m.name = "p99_ms" ->
          Printf.sprintf "  (n=%d, %d beyond the p99)" n (beyond 0.99 n)
        | Some n -> Printf.sprintf "  (n=%d)" n))
    o.metrics;
  Printf.printf "%-26s %16d\n%-26s %16d\n%!" "attempted" o.attempted "failed" o.failed

let result_json ~correct (o : outcome) ms =
  let open Scaguard.Json in
  to_string
    (Obj
       [
         ("correct", Bool correct);
         ("attempted", Num (float_of_int o.attempted));
         ("failed", Num (float_of_int o.failed));
         ( "metrics",
           Obj
             (List.map
                (fun m -> (m.name, Obj [ ("value", Num m.value); ("unit", Str m.unit) ]))
                ms) );
       ])

let run_workload ~workload ~seed ~seconds ~trace ~cli ~out =
  match workload with
  | "screen" -> Screen.run ~seed ~seconds ~trace ~out ()
  | "classify" -> Classify.run ~seed ~seconds ~trace ~out ()
  | "serve" -> Serve.run ~cli ~seed ~seconds ~trace ~out ()
  | w -> fail "unknown workload %S (screen, classify, serve)" w

(* The harness checking itself at a tiny size: every workload, in both
   modes, must emit every metric BENCHMARK.json declares with its declared
   unit and pass its correctness gate, and the gate must trip when one
   measured score is nudged by one ulp. *)
let selftest ~declared ~cli ~out =
  let screen =
    { Screen.attacks = 1; obfuscated = 1; benign = 4; batch = 4; setup_reps = 3 }
  in
  let classify =
    { Classify.models = 300; bases = 2; targets = 8; batch = 2; setup_reps = 2 }
  in
  let serve =
    { Serve.low_rate = 100.0; high_rate = 200.0; measured = 40; warmup = 5;
      saturation_s = 0.3; window = 4; probe_s = 0.3; overhead_requests = 10; setup_reps = 2 }
  in
  let run name ~trace ~perturb =
    let seed = 3 and seconds = 0.2 in
    match name with
    | "screen" -> Screen.run ~sizes:screen ~perturb ~seed ~seconds ~trace ~out ()
    | "classify" -> Classify.run ~sizes:classify ~perturb ~seed ~seconds ~trace ~out ()
    | _ -> Serve.run ~sizes:serve ~perturb ~cli ~seed ~seconds ~trace ~out ()
  in
  let failures = ref 0 in
  let report name what ok =
    Printf.printf "selftest %-8s %-28s %s\n%!" name what (if ok then "ok" else "FAILED");
    if not ok then incr failures
  in
  List.iter
    (fun name ->
      List.iter
        (fun trace ->
          let o = run name ~trace ~perturb:false in
          let what = if trace then "per_layer metrics" else "end_to_end metrics" in
          let emitted =
            match select (if trace then declared.layers else declared.e2e) o with
            | _ -> true
            | exception Failure m ->
              prerr_endline m;
              false
          in
          report name what emitted;
          report name
            (Printf.sprintf "gate passes (%s run)" (if trace then "traced" else "plain"))
            (o.failed = 0 && o.attempted > 0))
        [ false; true ];
      let o = run name ~trace:false ~perturb:true in
      report name "gate trips on a perturbed score" (o.failed >= 1))
    [ "screen"; "classify"; "serve" ];
  if !failures > 0 then exit 1

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let cli = ref "_build/default/bin/scaguard_cli.exe" and out = ref "perfbench/_out" in
  let spec = ref "BENCHMARK.json" and self = ref false in
  let args =
    [
      ("--workload", Arg.Set_string workload, "NAME screen | classify | serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
      ("--cli", Arg.Set_string cli, "PATH the scaguard binary (serve workload)");
      ("--out", Arg.Set_string out, "DIR scratch directory for images and traces");
      ("--spec", Arg.Set_string spec, "FILE the BENCHMARK.json naming the metrics");
    ]
  in
  Arg.parse args
    (function
      | "selftest" -> self := true
      | a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench [selftest] --workload NAME --seed N --seconds S --trace 0|1";
  let declared = read_spec !spec in
  mkdir_p !out;
  if !self then selftest ~declared ~cli:!cli ~out:!out
  else begin
    let trace = !trace = 1 in
    let o =
      run_workload ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace
        ~cli:!cli ~out:!out
    in
    print_metrics o;
    let ms = select (if trace then declared.layers else declared.e2e) o in
    let correct = o.failed = 0 in
    print_endline (result_json ~correct o ms);
    if not correct then exit 1
  end

let () =
  try main () with
  | Failure m ->
    prerr_endline m;
    exit 2
