(* The three benchmark workloads: input generation from a seed, set-up,
   the calls one closed-loop cycle makes (commit, refresh, read), and the
   correctness gate against a warehouse bulk-loaded from the final
   source rows.  Everything here goes through the library's public
   interfaces only; timing and tracing live in [Bench]. *)

module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Vfs = Dw_storage.Vfs
module Metrics = Dw_util.Metrics
module Prng = Dw_util.Prng
module Domain_pool = Dw_util.Domain_pool
module Workload = Dw_workload.Workload
module Ast = Dw_sql.Ast
module Printer = Dw_sql.Printer
module Value = Dw_relation.Value
module Expr = Dw_relation.Expr
module Tuple = Dw_relation.Tuple
module Warehouse = Dw_warehouse.Warehouse
module Olap = Dw_warehouse.Olap
module Partition = Dw_warehouse.Partition
module Partitioned = Dw_warehouse.Partitioned
module Spj_view = Dw_core.Spj_view
module Agg_view = Dw_core.Agg_view
module Opdelta_capture = Dw_core.Opdelta_capture
module Pipeline = Dw_etl.Pipeline
module Stage = Dw_etl.Stage

let table = Workload.parts_table

(* ---------- sizes ---------- *)

type sizes = {
  rows : int;  (** source rows loaded at set-up *)
  txns_per_cycle : int;  (** source transactions committed per cycle *)
  max_txn_rows : int;  (** largest range a generated statement touches *)
  cycles : int;  (** cycles generated up front (the loop stops earlier on time) *)
  pool_pages : int;  (** warehouse buffer pool (per shard for [sharded_apply]) *)
}

(* opdelta_online's warehouse pool; sharded_apply gives each of its four
   shards a quarter of it, so both run with the same total pool *)
let online_pool = 2048
let shards = 4

(* ---------- inputs ---------- *)

type inputs = { sizes : sizes; stream : Ast.stmt list array array (* cycle -> txn -> stmts *) }

let input_hash inputs =
  let b = Buffer.create (1 lsl 16) in
  Array.iter
    (Array.iter (fun txn ->
         List.iter
           (fun s ->
             Buffer.add_string b (Printer.to_string s);
             Buffer.add_char b '\n')
           txn;
         Buffer.add_char b ';'))
    inputs.stream;
  Digest.to_hex (Digest.string (Buffer.contents b))

let txns_in inputs = Array.fold_left (fun acc c -> acc + Array.length c) 0 inputs.stream

let chunk sizes txns =
  Array.init sizes.cycles (fun c ->
      Array.init sizes.txns_per_cycle (fun i -> txns.((c * sizes.txns_per_cycle) + i)))

(* opdelta_online: Workload.gen_mix picks updates and deletes of 1 to
   max_txn_rows ids at random positions; each of its single-row inserts
   is widened to half of max_txn_rows fresh ids, so inserted and deleted
   rows roughly balance and the table stays near its loaded size *)
let gen_online ~seed sizes =
  let rng = Prng.create ~seed in
  let n = sizes.cycles * sizes.txns_per_cycle in
  let ops =
    Workload.gen_mix rng ~existing_ids:sizes.rows ~txns:n ~max_txn_size:sizes.max_txn_rows
  in
  let next_id = ref (sizes.rows + 1) in
  let ins = max 1 (sizes.max_txn_rows / 2) in
  let txns =
    Array.of_list
      (List.map
         (function
           | Workload.Mix_insert _ ->
             let first_id = !next_id in
             next_id := first_id + ins;
             Workload.insert_parts_txn ~seed ~first_id ~size:ins ~day:0 ()
           | op -> Workload.op_to_stmts ~seed ~day:0 op)
         ops)
  in
  { sizes; stream = chunk sizes txns }

(* trigger_batch: each transaction updates one range of [min_update] to
   max_txn_rows rows inside the live key window, deletes the oldest
   [slide] rows and inserts as many fresh ones past the newest, so the
   table size never changes *)
let slide = 10
let min_update = 60

let gen_batch ~seed sizes =
  let rng = Prng.create ~seed in
  let lo = ref 1 and hi = ref (sizes.rows + 1) in
  let n = sizes.cycles * sizes.txns_per_cycle in
  let min_update = min min_update sizes.max_txn_rows in
  let txns =
    Array.init n (fun _ ->
        let size = min_update + Prng.int rng (sizes.max_txn_rows - min_update + 1) in
        let first_id = !lo + Prng.int rng (max 1 (!hi - !lo - size)) in
        let update = Workload.update_parts_stmt ~first_id ~size in
        let delete = Workload.delete_parts_stmt ~first_id:!lo ~size:slide in
        let insert = Workload.insert_parts_txn ~seed ~first_id:!hi ~size:slide ~day:0 () in
        lo := !lo + slide;
        hi := !hi + slide;
        (update :: delete :: insert))
  in
  { sizes; stream = chunk sizes txns }

(* sharded_apply: T6-style transactions over a key space where the
   loaded rows hold the even ids and inserts take odd ids, so new rows
   land in every range partition instead of piling into the last one:
   three range updates of max_txn_rows ids, then an insert of 4 rows,
   then a range delete, in every five transactions *)
let gen_sharded ~seed sizes =
  let rng = Prng.create ~seed in
  let id_space = 2 * sizes.rows in
  let free_odd = Array.init sizes.rows (fun i -> (2 * i) + 1) in
  (* Fisher-Yates over the odd ids: each insert takes the next unused *)
  for i = Array.length free_odd - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = free_odd.(i) in
    free_odd.(i) <- free_odd.(j);
    free_odd.(j) <- t
  done;
  let next_odd = ref 0 in
  let range () = 1 + Prng.int rng (id_space - sizes.max_txn_rows) in
  let n = sizes.cycles * sizes.txns_per_cycle in
  let txns =
    Array.init n (fun i ->
        match i mod 5 with
        | 3 ->
          List.init 4 (fun _ ->
              let id = free_odd.(!next_odd mod Array.length free_odd) in
              incr next_odd;
              List.hd (Workload.insert_parts_txn ~seed ~first_id:id ~size:1 ~day:0 ()))
        | 4 -> [ Workload.delete_parts_stmt ~first_id:(range ()) ~size:sizes.max_txn_rows ]
        | _ -> [ Workload.update_parts_stmt ~first_id:(range ()) ~size:sizes.max_txn_rows ])
  in
  { sizes; stream = chunk sizes txns }

(* ---------- views ---------- *)

let proj col = { Spj_view.out_name = col; from_side = Spj_view.L; from_col = col }

let cheap_parts =
  Spj_view.Select_project
    {
      name = "cheap_parts";
      table;
      schema = Workload.parts_schema;
      filter = Some (Expr.Cmp (Expr.Lt, Expr.Col "price", Expr.Lit (Value.Float 500.0)));
      project = [ proj "part_id"; proj "qty" ];
    }

let qty_value =
  {
    Agg_view.name = "qty_value";
    table;
    schema = Workload.parts_schema;
    filter = None;
    group_by = [ "qty" ];
    aggregates = [ ("n", Agg_view.Count); ("value", Agg_view.Sum "price") ];
  }

let big_qty =
  Spj_view.Select_project
    {
      name = "big_qty";
      table;
      schema = Workload.parts_schema;
      filter = Some (Expr.Cmp (Expr.Ge, Expr.Col "qty", Expr.Lit (Value.Int 500)));
      project = [ proj "part_id"; proj "qty" ];
    }

let qty_band_stats =
  {
    Agg_view.name = "qty_band_stats";
    table;
    schema = Workload.parts_schema;
    filter = None;
    group_by = [ "qty" ];
    aggregates =
      [ ("n", Agg_view.Count); ("min_id", Agg_view.Min "part_id");
        ("max_id", Agg_view.Max "part_id") ];
  }

let spj_name = function
  | Spj_view.Select_project { name; _ } | Spj_view.Join { name; _ } -> name

(* ---------- the environment one set-up produces ---------- *)

type load = { load_s : float; chunks : int; loaded_rows : int }

type env = {
  commit : Ast.stmt list -> (int, string) result;
      (** one source transaction; [Ok rows] = source rows it changed *)
  refresh : unit -> (unit, string) result;
      (** make every committed transaction visible in the warehouse *)
  reads : (string * (unit -> (int, string) result)) list;
      (** the fixed read mix run after each refresh; [Ok rows] returned *)
  registries : Metrics.t list;  (** warehouse-side registries (one per shard) *)
  wh_stats : unit -> Warehouse.stats;  (** integration stats summed over the run *)
  checkpoint : unit -> unit;
      (** checkpoint the source and every warehouse engine, recycling
          their logs, so memory stays level over a run *)
  layers : unit -> (string * float) list;
      (** workload-specific per-layer totals (pipeline, staging, fleet) *)
  load : load;  (** the initial load inside set-up *)
  gate : unit -> (unit, string) result;
      (** compare the warehouse with one recomputed from the source *)
}

let rows_changed results =
  List.fold_left
    (fun acc r -> match r with Db.Affected n -> acc + n | Db.Rows _ | Db.Created -> acc)
    0 results

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let indexed_source ~name =
  let src = Db.create ~vfs:(Vfs.in_memory ()) ~name () in
  Db.set_plan_mode src `Index_preferred;
  let (_ : Table.t) = Workload.create_parts_table src in
  src

let source_rows src = Db.with_txn src (fun tx -> Db.select src tx table ())

(* ---------- correctness gate ---------- *)

(* floats are compared with a relative tolerance: an incrementally
   maintained SUM accumulates its additions in another order than a
   fresh recomputation does *)
let value_close a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
    Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  | _ -> Value.equal a b

let tuple_close a b = Array.length a = Array.length b && Array.for_all2 value_close a b

let counted_close xs ys =
  List.length xs = List.length ys
  && List.for_all2 (fun (a, n) (b, m) -> n = m && tuple_close a b) xs ys

(* the reference: a fresh warehouse bulk-loaded from the final source
   rows with the same views defined *)
let reference ~src ~spj ~agg =
  let wh = Warehouse.create ~pool_pages:8192 ~vfs:(Vfs.in_memory ()) ~name:"reference" () in
  Warehouse.add_replica wh ~table ~schema:Workload.parts_schema;
  Warehouse.load_replica wh ~table (source_rows src);
  List.iter (Warehouse.define_view wh) spj;
  List.iter (Warehouse.define_agg_view wh) agg;
  wh

let sorted rows = List.sort Tuple.compare rows

let gate_against ~src ~spj ~agg ~replica ~view ~agg_view =
  let r = reference ~src ~spj ~agg in
  let checks =
    ( "replica " ^ table,
      List.equal Tuple.equal (sorted (Warehouse.replica_rows r table)) (replica ()) )
    :: List.map
         (fun v ->
           let n = spj_name v in
           ("view " ^ n, counted_close (Warehouse.view_rows r n) (view n)))
         spj
    @ List.map
        (fun a ->
          let n = a.Agg_view.name in
          ("aggregate view " ^ n, counted_close (Warehouse.agg_view_rows r n) (agg_view n)))
        agg
  in
  match List.find_opt (fun (_, ok) -> not ok) checks with
  | None -> Ok ()
  | Some (what, _) -> Error (what ^ " differs from the recomputed reference")

(* ---------- pipeline-driven workloads ---------- *)

type round_totals = {
  mutable total_s : float;
  mutable integrate_s : float;
  mutable shipped : int;
  mutable stats : Warehouse.stats;
}

let pipeline_env ~src ~wh ~pipe ~commit ~reads ~spj ~agg ~load =
  let tot =
    { total_s = 0.0; integrate_s = 0.0; shipped = 0; stats = Warehouse.zero_stats }
  in
  let refresh () =
    match Pipeline.run_round pipe with
    | Error e -> Error e
    | Ok r ->
      tot.total_s <- tot.total_s +. r.Pipeline.total_seconds;
      tot.integrate_s <- tot.integrate_s +. r.Pipeline.integration.Warehouse.duration;
      tot.shipped <- tot.shipped + r.Pipeline.shipped_bytes;
      tot.stats <- Warehouse.add_stats tot.stats r.Pipeline.integration;
      Ok ()
  in
  let layers () =
    [
      ("pipeline.extract_ship_ms_sum", 1000.0 *. (tot.total_s -. tot.integrate_s));
      ( "pipeline.integrate_share",
        if tot.total_s > 0.0 then tot.integrate_s /. tot.total_s else 0.0 );
      ("pipeline.shipped_bytes", float_of_int tot.shipped);
    ]
  in
  {
    commit;
    refresh;
    reads;
    registries = [ Db.metrics (Warehouse.db wh) ];
    checkpoint =
      (fun () ->
        Db.checkpoint src;
        Db.checkpoint (Warehouse.db wh));
    wh_stats = (fun () -> tot.stats);
    layers;
    load;
    gate =
      (fun () ->
        gate_against ~src ~spj ~agg
          ~replica:(fun () -> sorted (Warehouse.replica_rows wh table))
          ~view:(Warehouse.view_rows wh) ~agg_view:(Warehouse.agg_view_rows wh));
  }

let olap_read wh q =
  ( q.Olap.name,
    fun () ->
      match Olap.run ~mode:`Snapshot wh q with
      | Ok r -> Ok r.Olap.rows
      | Error e -> Error e )

let setup_online sizes =
  let src = indexed_source ~name:"src" in
  Workload.load_parts src ~rows:sizes.rows ();
  let wh = Warehouse.create ~pool_pages:sizes.pool_pages ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
  Warehouse.add_replica wh ~table ~schema:Workload.parts_schema;
  Warehouse.define_view wh cheap_parts;
  Warehouse.define_agg_view wh qty_value;
  let pipe =
    Pipeline.create ~capture_images:true ~source:src ~warehouse:wh ~table
      ~method_:Pipeline.Op_delta_wrapper ~transport:(Pipeline.Queued "opdelta.q") ()
  in
  let cap = Option.get (Pipeline.capture pipe) in
  let progress, load_s = timed (fun () -> Pipeline.bootstrap pipe ~owner:"perfbench") in
  let load =
    match progress with
    | Ok p when p.Dw_etl.Bootstrap.complete ->
      {
        load_s;
        chunks = p.Dw_etl.Bootstrap.chunks_done;
        loaded_rows = p.Dw_etl.Bootstrap.rows_loaded;
      }
    | Ok _ -> failwith "bootstrap did not complete"
    | Error (Dw_etl.Bootstrap.Lease_held _) -> failwith "bootstrap refused: lease held"
    | Error (Dw_etl.Bootstrap.Failed e) -> failwith ("bootstrap failed: " ^ e)
  in
  let commit stmts = Result.map rows_changed (Opdelta_capture.exec_txn cap stmts) in
  pipeline_env ~src ~wh ~pipe ~commit
    ~reads:(List.map (olap_read wh) (Olap.standard_queries ~table))
    ~spj:[ cheap_parts ] ~agg:[ qty_value ] ~load

(* three index-range reads over key bands the sliding delete window
   does not reach within the generated stream (it removes [slide] ids
   per transaction from the bottom); three kinds of distinct cost keep
   the median read inside one kind's distribution *)
let batch_reads ~rows wh =
  let lo = rows - 1600 in
  let query name sql = olap_read wh { Olap.name; sql } in
  [
    query "id band"
      (Printf.sprintf
         "SELECT part_id, price FROM %s WHERE part_id >= %d AND part_id < %d ORDER BY part_id"
         table lo (lo + 100));
    query "band price extremes"
      (Printf.sprintf "SELECT MIN(price), MAX(price) FROM %s WHERE part_id >= %d AND part_id < %d"
         table (lo + 100) (lo + 1100));
    query "cheap band count"
      (Printf.sprintf "SELECT COUNT(*) FROM cheap_parts WHERE part_id >= %d AND part_id < %d"
         (lo + 1100) (lo + 1500));
  ]

let setup_batch sizes =
  let src = indexed_source ~name:"src" in
  Workload.load_parts src ~rows:sizes.rows ();
  let wh = Warehouse.create ~pool_pages:sizes.pool_pages ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
  Warehouse.add_replica wh ~table ~schema:Workload.parts_schema;
  let (), load_s = timed (fun () -> Warehouse.load_replica wh ~table (source_rows src)) in
  Warehouse.define_view wh cheap_parts;
  let pipe =
    Pipeline.create ~source:src ~warehouse:wh ~table ~method_:Pipeline.Trigger
      ~transport:(Pipeline.Queued "trigger.q") ()
  in
  let commit stmts =
    match Db.with_txn src (fun tx -> List.map (Db.exec src tx) stmts) with
    | results -> Ok (rows_changed results)
    | exception e -> Error (Printexc.to_string e)
  in
  pipeline_env ~src ~wh ~pipe ~commit ~reads:(batch_reads ~rows:sizes.rows wh)
    ~spj:[ cheap_parts ] ~agg:[]
    ~load:{ load_s; chunks = 1; loaded_rows = sizes.rows }

(* ---------- sharded_apply ---------- *)

(* the refresh's worker domains live for one refresh: idle domains would
   otherwise have to join every stop-the-world minor collection of the
   commits and reads between refreshes *)
let domains = min (Domain.recommended_domain_count ()) 4

let setup_sharded sizes =
  let src = indexed_source ~name:"src" in
  let rng = Prng.create ~seed:1 in
  let rows = List.init sizes.rows (fun i -> Workload.gen_part rng ~id:(2 * (i + 1)) ~day:0) in
  let tbl = Db.table src table in
  List.iter (fun r -> ignore (Table.raw_insert tbl r : Dw_storage.Heap_file.rid)) rows;
  Table.rebuild_indexes tbl;
  Db.flush_all src;
  let cap = Opdelta_capture.create src ~sink:(Opdelta_capture.To_file "sharded.oplog") in
  let id_space = 2 * sizes.rows in
  let bounds = List.init (shards - 1) (fun i -> 1 + (id_space * (i + 1) / shards)) in
  let spec = Partition.make ~table ~key_column:"part_id" (Partition.Range bounds) in
  let pw = Partitioned.create ~pool_pages:sizes.pool_pages ~spec ~name:"fleet" () in
  Partitioned.add_replica pw ~table ~schema:Workload.parts_schema;
  let (), load_s = timed (fun () -> Partitioned.load_replica pw ~table rows) in
  Partitioned.define_view pw big_qty;
  Partitioned.define_agg_view pw qty_band_stats;
  let consumed = ref 0 in
  let stage_s = ref 0.0 and fleet_s = ref 0.0 in
  let staged = ref { Stage.txns = 0; statements = 0; routed = 0; broadcast = 0; split_rows = 0 } in
  let stats = ref Warehouse.zero_stats in
  let shard_regs = List.init shards (fun i -> Db.metrics (Warehouse.db (Partitioned.shard pw i))) in
  let shard_refresh_s () =
    List.map (fun m -> Metrics.observed_sum m "warehouse.refresh") shard_regs
  in
  let shard_base = shard_refresh_s () in
  let refresh () =
    let all = Opdelta_capture.captured cap in
    let fresh = List.filteri (fun i _ -> i >= !consumed) all in
    consumed := List.length all;
    match timed (fun () -> Stage.split ~spec fresh) with
    | exception Invalid_argument e -> Error e
    | (buckets, st), s ->
      stage_s := !stage_s +. s;
      staged :=
        {
          Stage.txns = !staged.Stage.txns + st.Stage.txns;
          statements = !staged.Stage.statements + st.Stage.statements;
          routed = !staged.Stage.routed + st.Stage.routed;
          broadcast = !staged.Stage.broadcast + st.Stage.broadcast;
          split_rows = !staged.Stage.split_rows + st.Stage.split_rows;
        };
      let r, s =
        Domain_pool.with_pool ~domains (fun pool ->
            timed (fun () -> Partitioned.refresh ~pool pw buckets))
      in
      fleet_s := !fleet_s +. s;
      stats := Warehouse.add_stats !stats r;
      Ok ()
  in
  let layers () =
    let per_shard = List.map2 ( -. ) (shard_refresh_s ()) shard_base in
    let mean = List.fold_left ( +. ) 0.0 per_shard /. float_of_int shards in
    [
      ("stage.split_ms_sum", 1000.0 *. !stage_s);
      ( "stage.broadcast_frac",
        if !staged.Stage.statements = 0 then 0.0
        else float_of_int !staged.Stage.broadcast /. float_of_int !staged.Stage.statements );
      ("partitioned.refresh_ms_sum", 1000.0 *. !fleet_s);
      ( "partitioned.shard_skew",
        if mean > 0.0 then List.fold_left Float.max 0.0 per_shard /. mean else 0.0 );
      ("partitioned.domains", float_of_int domains);
    ]
  in
  let commit stmts = Result.map rows_changed (Opdelta_capture.exec_txn cap stmts) in
  let reads =
    [
      ("merged parts", fun () -> Ok (List.length (Partitioned.replica_rows pw table)));
      ("merged big_qty", fun () -> Ok (List.length (Partitioned.view_rows pw "big_qty")));
      ( "merged qty_band_stats",
        fun () -> Ok (List.length (Partitioned.agg_view_rows pw "qty_band_stats")) );
    ]
  in
  {
    commit;
    refresh;
    reads;
    registries = shard_regs;
    checkpoint =
      (fun () ->
        Db.checkpoint src;
        for i = 0 to shards - 1 do
          Db.checkpoint (Warehouse.db (Partitioned.shard pw i))
        done);
    wh_stats = (fun () -> !stats);
    layers;
    load = { load_s; chunks = shards; loaded_rows = sizes.rows };
    gate =
      (fun () ->
        gate_against ~src ~spj:[ big_qty ] ~agg:[ qty_band_stats ]
          ~replica:(fun () -> Partitioned.replica_rows pw table)
          ~view:(Partitioned.view_rows pw) ~agg_view:(Partitioned.agg_view_rows pw));
  }

(* ---------- the registry (README.md says why each workload exists) ---------- *)

type t = {
  name : string;
  sizes : sizes;
  tiny : sizes;  (** smoke-test sizes *)
  gen : seed:int -> sizes -> inputs;
  setup : sizes -> env;
}

let all =
  [
    {
      name = "opdelta_online";
      sizes =
        {
          rows = 10_000;
          txns_per_cycle = 4;
          max_txn_rows = 20;
          cycles = 1500;
          pool_pages = online_pool;
        };
      tiny = { rows = 400; txns_per_cycle = 3; max_txn_rows = 6; cycles = 8; pool_pages = 64 };
      gen = gen_online;
      setup = setup_online;
    };
    {
      name = "trigger_batch";
      sizes =
        { rows = 50_000; txns_per_cycle = 5; max_txn_rows = 220; cycles = 900; pool_pages = 128 };
      tiny = { rows = 3_000; txns_per_cycle = 2; max_txn_rows = 120; cycles = 8; pool_pages = 16 };
      gen = gen_batch;
      setup = setup_batch;
    };
    {
      name = "sharded_apply";
      sizes =
        {
          rows = 12_000;
          txns_per_cycle = 8;
          max_txn_rows = 8;
          cycles = 1800;
          pool_pages = online_pool / shards;
        };
      tiny = { rows = 400; txns_per_cycle = 5; max_txn_rows = 4; cycles = 8; pool_pages = 16 };
      gen = gen_sharded;
      setup = setup_sharded;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
