(* One benchmark run: set up a workload several times (the median is
   setup_s), drive the closed loop for the requested seconds, check the
   warehouse against a recomputed reference, and turn the samples into
   the end-to-end metrics (untraced) or the per-layer metrics (traced).

   Closed loop, one client: each cycle commits its batch of source
   transactions, runs one refresh, then the workload's fixed read mix;
   the next cycle starts only when the last read returns.

   Timings on a shared host.  The same code on a shared host reads up to
   a third slower for minutes at a time, and more under heavy load: far
   more than any bound worth having.  Two things keep the timings steady:
   - every timing is process CPU time, not wall-clock time, so time the
     host gives to other processes does not count;
   - CPU time is scaled to a reference host.  Before each cycle the loop
     times [Probe.run], a fixed piece of memory-bound work; each cycle's
     times are multiplied by [Probe.factor] of the mean probe of the
     cycles around it, and the median set-up by that of the mean of the
     probes run after each set-up.  A probe's time depends on the work
     it follows, so each kind of work is scaled by probes that follow
     it.
   The unscaled values are in the run's info line. *)

module Metrics = Dw_util.Metrics
module Warehouse = Dw_warehouse.Warehouse
module W = Workloads

(* cycles between checkpoints of the source and warehouse engines: the
   in-memory logs would otherwise grow for the whole run *)
let checkpoint_every = 16

(* peak_heap_mb is read after this many cycles: the queue and capture
   files still grow with the work done, so a peak over the whole
   fixed-time run would rise whenever the program got faster *)
let heap_cycles = 100

type metric = { name : string; value : float; unit_ : string }

(* ---------- the timed loop ---------- *)

type samples = {
  commit : Stats.series;  (** seconds per source commit *)
  fresh : Stats.series;  (** commit return -> end of the refresh that applied it *)
  refresh : Stats.series;
  read : Stats.series;  (** every read, all kinds *)
  by_read : (string, Stats.series) Hashtbl.t;
  tally : Stats.tally;
  mutable visible : int;
  mutable rows_changed : int;
  mutable read_rows : int;
  mutable cycles : int;
  mutable cpu_s : float;  (** CPU seconds of all cycles, probes excluded *)
  mutable top_heap_words : int;  (** after [heap_cycles] cycles, or at the end *)
  mutable heap_words : int;  (** the major heap's size at that point *)
  probes : Stats.series;  (** seconds of [Probe.run] before each cycle *)
  cycle_s : Stats.series;  (** each cycle's own time, its probe excluded *)
  mutable cuts : (int * int * int) list;
      (** per cycle, newest first: the commit, freshness and read sample
          counts at its end *)
}

(* the loop runs for wall-clock seconds; every timing is process CPU
   time, all domains together, so time the host gives to other
   processes is not counted (see the top of this file) *)
let now = Unix.gettimeofday
let cpu = Sys.time

(* a call that raises is a failed operation, like one returning Error *)
let protect f = match f () with r -> r | exception e -> Error (Printexc.to_string e)

let registry_counters regs =
  List.concat_map Metrics.snapshot regs
  |> List.fold_left
       (fun acc (k, v) ->
         let prev = Option.value (List.assoc_opt k acc) ~default:0 in
         (k, prev + v) :: List.remove_assoc k acc)
       []

let counter snap k = Option.value (List.assoc_opt k snap) ~default:0
let hist_count regs k = List.fold_left (fun acc m -> acc + Metrics.observed_count m k) 0 regs
let hist_sum regs k = List.fold_left (fun acc m -> acc +. Metrics.observed_sum m k) 0.0 regs

let heap_mark s =
  let g = Gc.quick_stat () in
  s.top_heap_words <- g.Gc.top_heap_words;
  s.heap_words <- g.Gc.heap_words

(* [tr]: the traced run's sink registry; each call is then a span on it *)
let run_loop ?tr (env : W.env) (inputs : W.inputs) ~seconds =
  let span name f = match tr with None -> f () | Some tr -> Metrics.with_span tr name f in
  let s =
    {
      commit = Stats.series ();
      fresh = Stats.series ();
      refresh = Stats.series ();
      read = Stats.series ();
      by_read = Hashtbl.create 8;
      tally = Stats.tally ();
      visible = 0;
      rows_changed = 0;
      read_rows = 0;
      cycles = 0;
      cpu_s = 0.0;
      top_heap_words = 0;
      heap_words = 0;
      probes = Stats.series ();
      cycle_s = Stats.series ();
      cuts = [];
    }
  in
  let pending = ref [] in
  let start = now () in
  let stream = inputs.W.stream in
  while s.cycles < Array.length stream && now () -. start < seconds do
    Stats.add s.probes (Probe.run ());
    let cycle_start = cpu () in
    Array.iter
      (fun txn ->
        let t0 = cpu () in
        let r = span "bench.commit" (fun () -> protect (fun () -> env.W.commit txn)) in
        let t1 = cpu () in
        Stats.add s.commit (t1 -. t0);
        Stats.record s.tally (Result.is_ok r);
        match r with
        | Ok rows ->
          s.rows_changed <- s.rows_changed + rows;
          pending := t1 :: !pending
        | Error _ -> ())
      stream.(s.cycles);
    let t0 = cpu () in
    let r = span "bench.refresh" (fun () -> protect env.W.refresh) in
    let t1 = cpu () in
    Stats.add s.refresh (t1 -. t0);
    Stats.record s.tally (Result.is_ok r);
    if Result.is_ok r then begin
      List.iter (fun c -> Stats.add s.fresh (t1 -. c)) !pending;
      s.visible <- s.visible + List.length !pending;
      pending := []
    end;
    List.iter
      (fun (name, read) ->
        let t0 = cpu () in
        let r = span "bench.read" (fun () -> protect read) in
        let d = cpu () -. t0 in
        Stats.add s.read d;
        let series =
          match Hashtbl.find_opt s.by_read name with
          | Some x -> x
          | None ->
            let x = Stats.series () in
            Hashtbl.add s.by_read name x;
            x
        in
        Stats.add series d;
        Stats.record s.tally (Result.is_ok r);
        match r with Ok n -> s.read_rows <- s.read_rows + n | Error _ -> ())
      env.W.reads;
    s.cycles <- s.cycles + 1;
    if s.cycles mod checkpoint_every = 0 then span "bench.checkpoint" env.W.checkpoint;
    if s.cycles = heap_cycles then heap_mark s;
    Stats.add s.cycle_s (cpu () -. cycle_start);
    s.cuts <- (Stats.count s.commit, Stats.count s.fresh, Stats.count s.read) :: s.cuts
  done;
  s.cpu_s <- Array.fold_left ( +. ) 0.0 (Stats.to_array s.cycle_s);
  if s.cycles < heap_cycles then heap_mark s;
  s

(* ---------- one measured phase: loop plus the readings around it ---------- *)

type phase = {
  samples : samples;
  before : (string * int) list;  (** warehouse counters before the loop *)
  after : (string * int) list;
  hist_delta : string -> int * float;  (** warehouse histogram count, sum moved by the loop *)
  gc_before : Gc.stat;
  gc_after : Gc.stat;
  wh_stats : Warehouse.stats;
  layers : (string * float) list;
}

let measure ?tr (env : W.env) inputs ~seconds =
  let regs = env.W.registries in
  let hists () =
    List.map
      (fun k -> (k, (hist_count regs k, hist_sum regs k)))
      [ "wal.append"; "wal.fsync"; "warehouse.batch_size" ]
  in
  let hist_before = hists () and before = registry_counters regs in
  let gc_before = Gc.quick_stat () in
  let samples = run_loop ?tr env inputs ~seconds in
  let gc_after = Gc.quick_stat () in
  let hist_after = hists () and after = registry_counters regs in
  let hist_delta k =
    let (n1, s1), (n0, s0) = (List.assoc k hist_after, List.assoc k hist_before) in
    (n1 - n0, s1 -. s0)
  in
  {
    samples;
    before;
    after;
    hist_delta;
    gc_before;
    gc_after;
    wh_stats = env.W.wh_stats ();
    layers = env.W.layers ();
  }

(* ---------- host-speed scaling ---------- *)

(* the loop's timings with each cycle's multiplied by its scale *)
type scaled = {
  sc_commit : Stats.series;
  sc_fresh : Stats.series;
  sc_refresh : Stats.series;
  sc_read : Stats.series;
  sc_seconds : float;  (** the cycles' summed time *)
}

let scale_samples ~host s =
  let scales = if host then Probe.scales (Stats.to_array s.probes) else [||] in
  let k i = if host then scales.(i) else 1.0 in
  let commit = Stats.to_array s.commit and fresh = Stats.to_array s.fresh in
  let refresh = Stats.to_array s.refresh and read = Stats.to_array s.read in
  let cycle_s = Stats.to_array s.cycle_s in
  let out =
    {
      sc_commit = Stats.series ();
      sc_fresh = Stats.series ();
      sc_refresh = Stats.series ();
      sc_read = Stats.series ();
      sc_seconds = 0.0;
    }
  in
  let copy dst src k lo hi =
    for j = lo to hi - 1 do
      Stats.add dst (k *. src.(j))
    done
  in
  let seconds = ref 0.0 in
  let cuts = Array.of_list (List.rev s.cuts) in
  Array.iteri
    (fun i (c1, f1, r1) ->
      let c0, f0, r0 = if i = 0 then (0, 0, 0) else cuts.(i - 1) in
      let k = k i in
      copy out.sc_commit commit k c0 c1;
      copy out.sc_fresh fresh k f0 f1;
      copy out.sc_read read k r0 r1;
      Stats.add out.sc_refresh (k *. refresh.(i));
      seconds := !seconds +. (k *. cycle_s.(i)))
    cuts;
  { out with sc_seconds = !seconds }

(* ---------- end-to-end metrics ---------- *)

(* the percentile each timing was actually reported at, with its sample
   count, for the run's info line *)
type reported = { metric : string; pct : float; count : int }

(* [setup_probe_s]: the mean probe after the set-ups, which scales
   [setup_s] as the loop's probes scale the loop *)
let end_to_end ?(host = true) ~setup_s ~setup_probe_s p =
  let s = p.samples in
  let sc = scale_samples ~host s in
  let ms = 1000.0 in
  let timing ?units name nominal series =
    let mid, tail = Stats.median_and_tail ~scale:ms ?units ~nominal series in
    ( [
        { name = name ^ "_p50_ms"; value = mid.Stats.value; unit_ = "ms" };
        {
          name = Printf.sprintf "%s_p%.0f_ms" name nominal;
          value = tail.Stats.value;
          unit_ = "ms";
        };
      ],
      [
        { metric = name ^ "_p50_ms"; pct = 50.0; count = mid.Stats.samples };
        {
          metric = Printf.sprintf "%s_p%.0f_ms" name nominal;
          pct = tail.Stats.pct;
          count = tail.Stats.samples;
        };
      ] )
  in
  let timings =
    [
      (* the transactions of one cycle share their refresh, so the
         freshness tail is ruled by the number of refreshes *)
      timing ~units:(Stats.count sc.sc_refresh) "freshness" 95.0 sc.sc_fresh;
      timing "src_commit" 95.0 sc.sc_commit;
      timing "refresh" 95.0 sc.sc_refresh;
      timing "read" 95.0 sc.sc_read;
    ]
  in
  let wh_bytes = counter p.after "vfs.write_bytes" - counter p.before "vfs.write_bytes" in
  let metrics =
    [
      {
        name = "setup_s";
        value = (if host then setup_s *. Probe.factor setup_probe_s else setup_s);
        unit_ = "s";
      };
      {
        name = "visible_txn_per_s";
        value = float_of_int s.visible /. sc.sc_seconds;
        unit_ = "txn/s";
      };
    ]
    @ List.concat_map fst timings
    @ [
        { name = "failed_frac"; value = Stats.failed_frac s.tally; unit_ = "ratio" };
        {
          name = "wh_write_bytes_per_row";
          value = float_of_int wh_bytes /. float_of_int (max 1 s.rows_changed);
          unit_ = "B/row";
        };
        {
          name = "peak_heap_mb";
          value = float_of_int (s.top_heap_words * (Sys.word_size / 8)) /. 1e6;
          unit_ = "MB";
        };
      ]
  in
  (metrics, List.concat_map snd timings)

(* ---------- per-layer metrics ---------- *)

(* every read kind of every workload, so a traced run of any workload
   reports the same metric names (0 for reads it does not make) *)
let read_kinds =
  [
    "row count"; "stock value"; "per-qty histogram"; "low-stock price extremes"; "id band";
    "band price extremes"; "cheap band count"; "merged parts"; "merged big_qty";
    "merged qty_band_stats";
  ]

let slug name = String.map (fun c -> match c with 'a' .. 'z' | '0' .. '9' -> c | _ -> '_') name

let span_counter tr span k =
  List.fold_left
    (fun acc r ->
      if r.Metrics.span_name = span then
        acc + Option.value (List.assoc_opt k r.Metrics.span_deltas) ~default:0
      else acc)
    0 (Metrics.spans tr)

(* [tr] is the sink registry of the traced loop: it mirrors every
   registry the program touched, and holds the benchmark's spans *)
let per_layer ~tr ~(load : W.load) p =
  let s = p.samples in
  let txns = float_of_int (max 1 s.visible) in
  let per_txn x = float_of_int x /. txns in
  let delta k = counter p.after k - counter p.before k in
  let hdelta = p.hist_delta in
  let rounds = float_of_int (max 1 (Stats.count s.refresh)) in
  let ms = 1000.0 in
  let layer k = Option.value (List.assoc_opt k p.layers) ~default:0.0 in
  let hits = delta "pool.hits" and misses = delta "pool.misses" in
  let st = p.wh_stats in
  let batch_n, batch_sum = hdelta "warehouse.batch_size" in
  let sum_of k = Metrics.observed_sum tr k in
  let reads =
    List.map
      (fun kind ->
        let v =
          match Hashtbl.find_opt s.by_read kind with
          | Some x -> ms *. Stats.percentile x 50.0
          | None -> 0.0
        in
        ("olap." ^ slug kind ^ ".query_ms_p50", v, "ms"))
      read_kinds
  in
  [
    ("capture.txn_ms_p50", ms *. Stats.percentile s.commit 50.0, "ms");
    ("capture.bytes_per_txn", per_txn (span_counter tr "bench.commit" "vfs.write_bytes"), "B/txn");
    ("pipeline.extract_ship_ms_sum", layer "pipeline.extract_ship_ms_sum", "ms");
    ("pipeline.integrate_share", layer "pipeline.integrate_share", "ratio");
    ("pipeline.shipped_bytes_per_txn", layer "pipeline.shipped_bytes" /. txns, "B/txn");
    ("pipeline.refresh_drift", Stats.drift s.refresh, "ratio");
    ("queue.enqueue_ms_sum", ms *. sum_of "queue.enqueue", "ms");
    ("queue.ack_ms_sum", ms *. sum_of "queue.ack", "ms");
    ("queue.msgs_per_round", sum_of "queue.batch_size" /. rounds, "msgs");
    ("warehouse.integrate_ms_sum", ms *. sum_of "warehouse.refresh", "ms");
    ("warehouse.txns_per_src_txn", per_txn st.Warehouse.txns, "ratio");
    ("warehouse.stmts_per_src_txn", per_txn st.Warehouse.statements, "ratio");
    ("warehouse.row_ops_per_src_txn", per_txn st.Warehouse.row_ops, "ratio");
    ( "warehouse.batch_size_mean",
      (if batch_n > 0 then batch_sum /. float_of_int batch_n
       else txns /. float_of_int (max 1 st.Warehouse.txns)),
      "txns" );
    ("bootstrap.s", load.W.load_s, "s");
    ("bootstrap.chunks", float_of_int load.W.chunks, "count");
    ("bootstrap.rows_per_s", float_of_int load.W.loaded_rows /. load.W.load_s, "rows/s");
    ("stage.split_ms_sum", layer "stage.split_ms_sum", "ms");
    ("stage.broadcast_frac", layer "stage.broadcast_frac", "ratio");
    ("partitioned.refresh_ms_sum", layer "partitioned.refresh_ms_sum", "ms");
    ("partitioned.shard_skew", layer "partitioned.shard_skew", "ratio");
    ("partitioned.domains", layer "partitioned.domains", "count");
  ]
  @ reads
  @ [
      ( "olap.rows_per_query",
        float_of_int s.read_rows /. float_of_int (max 1 (Stats.count s.read)),
        "rows" );
      ("wal.appends_per_src_txn", per_txn (fst (hdelta "wal.append")), "ratio");
      ("wal.fsyncs_per_src_txn", per_txn (fst (hdelta "wal.fsync")), "ratio");
      ("wal.append_ms_sum", ms *. snd (hdelta "wal.append"), "ms");
      ( "pool.hit_rate",
        (if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)),
        "ratio" );
      ("pool.evictions_per_src_txn", per_txn (delta "pool.evictions"), "ratio");
      ( "pool.hits_per_row_op",
        float_of_int hits /. float_of_int (max 1 st.Warehouse.row_ops),
        "ratio" );
      ("vfs.read_bytes_per_src_txn", per_txn (delta "vfs.read_bytes"), "B/txn");
      ("lock.wait_count", float_of_int (Metrics.observed_count tr "lock.wait"), "count");
      ("lock.wait_ms_p95", ms *. Metrics.percentile tr "lock.wait" 0.95, "ms");
      ( "gc.minor_words_per_src_txn",
        (p.gc_after.Gc.minor_words -. p.gc_before.Gc.minor_words) /. txns,
        "words" );
      ( "gc.major_collections",
        float_of_int (p.gc_after.Gc.major_collections - p.gc_before.Gc.major_collections),
        "count" );
    ]
  |> List.map (fun (name, value, unit_) -> { name; value; unit_ })

(* ---------- a whole run ---------- *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  info : (string * Dw_util.Json.t) list;
}

(* the environment, the set-up's time, and a probe run right after it,
   which follows the set-up's work as the loop's probes follow a
   cycle's *)
let time_setup (w : W.t) sizes =
  Gc.full_major ();
  let t0 = cpu () in
  let env = w.W.setup sizes in
  let t = cpu () -. t0 in
  (env, t, Probe.run ())

(* set up at least [min_setups] times, and more while the set-ups are
   short (up to [setup_budget_s] of set-up, at most [max_setups]), so a
   set-up of a tenth of a second still gets a steady median; only the
   last environment is kept alive *)
let min_setups = 7
let max_setups = 15
let setup_budget_s = 5.0

(* the last environment, the median set-up time, every set-up time,
   and the set-ups' mean probe *)
let setup_median w sizes =
  let rec go times probes =
    let env, t, p = time_setup w sizes in
    let times = t :: times and probes = p :: probes in
    let n = List.length times in
    if n >= max_setups || (n >= min_setups && List.fold_left ( +. ) 0.0 times >= setup_budget_s)
    then
      ( env,
        Stats.median times,
        List.rev times,
        List.fold_left ( +. ) 0.0 probes /. float_of_int n )
    else go times probes
  in
  go [] []

let json_metrics ms = Dw_util.Json.Obj (List.map (fun m -> (m.name, Dw_util.Json.Float m.value)) ms)

let reported_info rs =
  Dw_util.Json.Obj
    (List.map
       (fun r ->
         ( r.metric,
           Dw_util.Json.Obj
             [ ("percentile", Dw_util.Json.Float r.pct); ("samples", Dw_util.Json.Int r.count) ] ))
       rs)

let loop_info p =
  let open Dw_util.Json in
  Obj
    [
      ("cycles", Int p.samples.cycles);
      ("visible_txns", Int p.samples.visible);
      ("rows_changed", Int p.samples.rows_changed);
      ("cpu_s", Float p.samples.cpu_s);
      ("refresh_drift", Float (Stats.drift p.samples.refresh));
      ( "probe_ms",
        Obj
          (List.map
             (fun (k, pct) -> (k, Float (1000.0 *. Stats.percentile p.samples.probes pct)))
             [ ("p5", 5.0); ("p50", 50.0); ("p95", 95.0) ]) );
    ]

let run_info (w : W.t) ~sizes ~inputs ~seed ~seconds ~trace =
  let open Dw_util.Json in
  [
    ("workload", String w.W.name);
    ("seed", Int seed);
    ("seconds", Float seconds);
    ("trace", Bool trace);
    ( "host",
      Obj
        [
          ("nproc", Int (Domain.recommended_domain_count ()));
          ("ocaml", String Sys.ocaml_version);
          ("domains", Int W.domains);
        ] );
    ( "sizes",
      Obj
        [
          ("rows", Int sizes.W.rows);
          ("txns_per_cycle", Int sizes.W.txns_per_cycle);
          ("max_txn_rows", Int sizes.W.max_txn_rows);
          ("cycles_generated", Int sizes.W.cycles);
          ("pool_pages", Int sizes.W.pool_pages);
        ] );
    ("input_txns", Int (W.txns_in inputs));
    ("input_hash", String (W.input_hash inputs));
    ("probe_reference_ms", Float (1000.0 *. Probe.reference_s));
  ]

let gate_info = function Ok () -> [] | Error e -> [ ("gate", Dw_util.Json.String e) ]

(* The untraced loop gets the whole run.  A traced run gives it half,
   then sets up once more under the sink and runs the other half with
   every benchmark call wrapped in a span; the per-layer metrics come
   from that half, and [overhead.*] is traced / untraced for each
   end-to-end metric. *)
let run (w : W.t) ?(sizes = w.W.sizes) ~seed ~seconds ~trace () =
  let inputs = w.W.gen ~seed sizes in
  let info = run_info w ~sizes ~inputs ~seed ~seconds ~trace in
  let env, setup_s, setups, setup_probe_s = setup_median w sizes in
  let info =
    info
    @ [
        ("setups_s", Dw_util.Json.List (List.map (fun t -> Dw_util.Json.Float t) setups));
        ("setup_probe_ms", Dw_util.Json.Float (1000.0 *. setup_probe_s));
      ]
  in
  let half = if trace then seconds /. 2.0 else seconds in
  (* start the loop from a collected heap, not from set-up's garbage *)
  Gc.compact ();
  let plain = measure env inputs ~seconds:half in
  let plain_gate = protect env.W.gate in
  let e2e, reported = end_to_end ~setup_s ~setup_probe_s plain in
  let unscaled = json_metrics (fst (end_to_end ~host:false ~setup_s ~setup_probe_s plain)) in
  if not trace then
    {
      correct = Result.is_ok plain_gate;
      attempted = plain.samples.tally.Stats.attempted;
      failed = plain.samples.tally.Stats.failed;
      metrics = e2e;
      info =
        info
        @ [
            ("loop", loop_info plain);
            ("reported", reported_info reported);
            ("unscaled", unscaled);
          ]
        @ gate_info plain_gate;
    }
  else begin
    let tr = Metrics.create () in
    let traced_env, traced, traced_setup_s, traced_probe_s =
      Metrics.with_sink (Some tr) (fun () ->
          let env, setup_s, probe_s = time_setup w sizes in
          Gc.compact ();
          (* the per-layer readings cover the loop only *)
          Metrics.reset tr;
          (env, measure ~tr env inputs ~seconds:half, setup_s, probe_s))
    in
    let traced_gate = protect traced_env.W.gate in
    let traced_e2e, traced_reported =
      end_to_end ~setup_s:traced_setup_s ~setup_probe_s:traced_probe_s traced
    in
    (* the top heap is process-wide and so already holds the untraced
       half's peak; the traced half is compared by major-heap size at the
       same cycle mark instead *)
    let ratio a b = if a = 0.0 then 0.0 else b /. a in
    let overhead =
      List.map2
        (fun a b ->
          let value =
            if a.name = "peak_heap_mb" then
              ratio (float_of_int plain.samples.heap_words) (float_of_int traced.samples.heap_words)
            else ratio a.value b.value
          in
          { name = "overhead." ^ a.name; value; unit_ = "ratio" })
        e2e traced_e2e
    in
    let tally f = f plain.samples.tally + f traced.samples.tally in
    {
      correct = Result.is_ok plain_gate && Result.is_ok traced_gate;
      attempted = tally (fun t -> t.Stats.attempted);
      failed = tally (fun t -> t.Stats.failed);
      metrics = per_layer ~tr ~load:traced_env.W.load traced @ overhead;
      info =
        info
        @ [
            ("untraced_loop", loop_info plain);
            ("traced_loop", loop_info traced);
            ("untraced_reported", reported_info reported);
            ("traced_reported", reported_info traced_reported);
            ("untraced_end_to_end", json_metrics e2e);
            ("untraced_unscaled", unscaled);
            ("traced_end_to_end", json_metrics traced_e2e);
          ]
        @ gate_info plain_gate @ gate_info traced_gate;
    }
  end
