(* The benchmark's own tests: the tail-percentile rule, host-speed
   scaling, failure accounting in the closed loop, the correctness gate,
   and a tiny run of every workload whose metric names must match
   BENCHMARK.json. *)

open Perfbench
module Json = Dw_util.Json
module W = Workloads

let check_pct ~nominal n want =
  Alcotest.(check (float 0.0))
    (Printf.sprintf "p%.0f of %d samples" nominal n)
    want
    (Stats.tail_percentile ~nominal n)

let tail_rule () =
  check_pct ~nominal:99.0 1000 99.0;
  check_pct ~nominal:99.0 999 95.0;
  check_pct ~nominal:99.0 200 95.0;
  check_pct ~nominal:99.0 199 90.0;
  check_pct ~nominal:95.0 100_000 95.0;
  check_pct ~nominal:95.0 100 90.0;
  check_pct ~nominal:95.0 40 75.0;
  check_pct ~nominal:95.0 5 50.0;
  (* whatever is picked leaves at least ten samples above it *)
  for n = 20 to 3000 do
    let p = Stats.tail_percentile ~nominal:99.0 n in
    if Stats.beyond ~n p < Stats.min_beyond then Alcotest.failf "n=%d: p%.0f too high" n p
  done

(* samples that come in groups: the rule counts the groups *)
let grouped_tail () =
  let s = Stats.series () in
  for i = 1 to 1000 do
    Stats.add s (float_of_int i)
  done;
  let _, tail = Stats.median_and_tail ~units:100 ~nominal:95.0 s in
  Alcotest.(check (float 0.0)) "p90 of 100 groups" 90.0 tail.Stats.pct;
  Alcotest.(check int) "counted groups" 100 tail.Stats.samples;
  Alcotest.(check (float 0.0)) "value over all samples" 900.0 tail.Stats.value

(* each cycle takes the factor of the mean probe of the cycles around
   it *)
let probe_scales () =
  let ref_ = Probe.reference_s in
  let probes = Array.init 200 (fun i -> if i < 100 then ref_ else 2.0 *. ref_) in
  (* one probe in 45 that takes 46 times as long doubles the window's
     mean probe *)
  probes.(10) <- 46.0 *. ref_;
  let k = Probe.scales probes in
  let half = 0.5 ** Probe.elasticity in
  Alcotest.(check (float 1e-12)) "full speed" 1.0 k.(40);
  Alcotest.(check (float 1e-12)) "a long wait counts in full" half k.(10);
  Alcotest.(check (float 1e-12)) "half speed" half k.(199);
  Alcotest.(check int) "one per cycle" 200 (Array.length k);
  Alcotest.(check int) "short runs" 3 (Array.length (Probe.scales [| ref_; ref_; ref_ |]))

let percentiles () =
  let s = Stats.series () in
  for i = 1 to 1000 do
    Stats.add s (float_of_int i)
  done;
  Alcotest.(check (float 0.0)) "p50" 500.0 (Stats.percentile s 50.0);
  Alcotest.(check (float 0.0)) "p99" 990.0 (Stats.percentile s 99.0);
  Alcotest.(check (float 0.0)) "median of 4" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

(* a fake workload: every third commit fails, the refresh fails on
   every fourth cycle, and one of the two reads always raises *)
let failures_counted () =
  let commits = ref 0 and refreshes = ref 0 in
  let env =
    {
      W.commit =
        (fun _ ->
          incr commits;
          if !commits mod 3 = 0 then Error "refused" else Ok 1);
      refresh =
        (fun () ->
          incr refreshes;
          if !refreshes mod 4 = 0 then Error "stalled" else Ok ());
      reads = [ ("ok", fun () -> Ok 2); ("bad", fun () -> failwith "boom") ];
      registries = [];
      checkpoint = ignore;
      wh_stats = (fun () -> Dw_warehouse.Warehouse.zero_stats);
      layers = (fun () -> []);
      load = { W.load_s = 0.0; chunks = 0; loaded_rows = 0 };
      gate = (fun () -> Ok ());
    }
  in
  let sizes = { W.rows = 0; txns_per_cycle = 3; max_txn_rows = 1; cycles = 8; pool_pages = 1 } in
  let inputs = { W.sizes; stream = Array.make 8 (Array.make 3 []) } in
  let s = Bench.run_loop env inputs ~seconds:60.0 in
  Alcotest.(check int) "cycles" 8 s.Bench.cycles;
  (* 24 commits + 8 refreshes + 16 reads *)
  Alcotest.(check int) "attempted" 48 s.Bench.tally.Stats.attempted;
  (* 8 commits + 2 refreshes + 8 reads *)
  Alcotest.(check int) "failed" 18 s.Bench.tally.Stats.failed;
  Alcotest.(check (float 1e-12)) "failed_frac" (18.0 /. 48.0) (Stats.failed_frac s.Bench.tally);
  (* of the 16 committed transactions, those of cycle 4 become visible at
     cycle 5's refresh; the 2 of cycle 8, whose refresh failed, never do *)
  Alcotest.(check int) "visible" 14 s.Bench.visible;
  Alcotest.(check int) "freshness samples" 14 (Stats.count s.Bench.fresh);
  (* host scaling keeps every sample, each in its own cycle *)
  let raw = Bench.scale_samples ~host:false s and sc = Bench.scale_samples ~host:true s in
  let same what a b = Alcotest.(check int) what (Stats.count a) (Stats.count b) in
  same "commits" s.Bench.commit sc.Bench.sc_commit;
  same "freshness" s.Bench.fresh sc.Bench.sc_fresh;
  same "refreshes" s.Bench.refresh sc.Bench.sc_refresh;
  same "reads" s.Bench.read sc.Bench.sc_read;
  Alcotest.(check (float 1e-9)) "unscaled loop time" s.Bench.cpu_s raw.Bench.sc_seconds;
  let k = Probe.scales (Stats.to_array s.Bench.probes) in
  Array.iteri
    (fun i r ->
      Alcotest.(check (float 1e-12)) "refresh scaled by its cycle" (k.(i) *. r)
        (Stats.to_array sc.Bench.sc_refresh).(i))
    (Stats.to_array s.Bench.refresh)

let workload name =
  match W.find name with Some w -> w | None -> Alcotest.failf "no workload %s" name

(* the gate is not vacuous: a committed but unrefreshed transaction is a
   mismatch *)
let gate_detects_divergence () =
  List.iter
    (fun w ->
      let inputs = w.W.gen ~seed:3 w.W.tiny in
      let env = w.W.setup w.W.tiny in
      let passes what ok = Alcotest.(check bool) (w.W.name ^ ": " ^ what) true ok in
      passes "fresh set-up passes" (Result.is_ok (env.W.gate ()));
      Array.iter
        (fun txn -> ignore (env.W.commit txn : (int, string) result))
        inputs.W.stream.(0);
      passes "stale warehouse fails" (Result.is_error (env.W.gate ()));
      ignore (env.W.refresh () : (unit, string) result);
      passes "refreshed passes" (Result.is_ok (env.W.gate ())))
    W.all

let declared key =
  let doc =
    match Json.of_string (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
    | Ok d -> d
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  in
  match Option.bind (Json.member key doc) Json.to_list with
  | Some l ->
    List.filter_map (fun m -> Option.bind (Json.member "name" m) Json.to_str) l
  | None -> Alcotest.failf "BENCHMARK.json has no %s list" key

let names o = List.map (fun m -> m.Bench.name) o.Bench.metrics
let sorted = List.sort compare

let smoke name () =
  let w = workload name in
  let o = Bench.run w ~sizes:w.W.tiny ~seed:5 ~seconds:30.0 ~trace:false () in
  Alcotest.(check bool) "gate passes" true o.Bench.correct;
  Alcotest.(check int) "no failures" 0 o.Bench.failed;
  Alcotest.(check (list string))
    "end-to-end names"
    (sorted ("failed_frac" :: declared "end_to_end"))
    (sorted (names o));
  Alcotest.(check bool) "inputs are a function of the seed" true
    (W.input_hash (w.W.gen ~seed:5 w.W.tiny) = W.input_hash (w.W.gen ~seed:5 w.W.tiny)
    && W.input_hash (w.W.gen ~seed:5 w.W.tiny) <> W.input_hash (w.W.gen ~seed:6 w.W.tiny))

let traced_smoke () =
  let w = workload "sharded_apply" in
  let o = Bench.run w ~sizes:w.W.tiny ~seed:5 ~seconds:30.0 ~trace:true () in
  Alcotest.(check bool) "gate passes" true o.Bench.correct;
  let per_layer = declared "per_layer" in
  Alcotest.(check (list string))
    "per-layer names"
    (sorted (per_layer @ [ "overhead.failed_frac" ]))
    (sorted (names o))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick tail_rule;
          Alcotest.test_case "nearest-rank percentiles" `Quick percentiles;
          Alcotest.test_case "tail rule over groups" `Quick grouped_tail;
          Alcotest.test_case "host-speed scales" `Quick probe_scales;
        ] );
      ("loop", [ Alcotest.test_case "failures counted against attempts" `Quick failures_counted ]);
      ( "workloads",
        [ Alcotest.test_case "gate detects a stale warehouse" `Quick gate_detects_divergence ]
        @ List.map (fun w -> Alcotest.test_case ("tiny " ^ w.W.name) `Quick (smoke w.W.name)) W.all
        @ [ Alcotest.test_case "tiny traced run" `Quick traced_smoke ] );
    ]
