(* Online warehouse maintenance: apply the same change stream as (a) one
   value-delta batch and (b) per-transaction Op-Deltas, then simulate OLAP
   queries running concurrently and compare availability — the paper's
   "Op-Delta can interleave with OLAP queries" claim (Section 4.1).

     dune exec examples/online_maintenance.exe *)

module Vfs = Dw_storage.Vfs
module Db = Dw_engine.Db
module Value = Dw_relation.Value
module Expr = Dw_relation.Expr
module Workload = Dw_workload.Workload
module Op_delta = Dw_core.Op_delta
module Spj_view = Dw_core.Spj_view
module Trigger_extract = Dw_core.Trigger_extract
module Warehouse = Dw_warehouse.Warehouse
module Availability_sim = Dw_warehouse.Availability_sim

let replica_rows = 3000
let maintenance_txns = 30

let mk_warehouse () =
  let wh = Warehouse.create ~pool_pages:2048 ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
  Warehouse.add_replica wh ~table:"parts" ~schema:Workload.parts_schema;
  let rng = Dw_util.Prng.create ~seed:7 in
  Warehouse.load_replica wh ~table:"parts"
    (List.init replica_rows (fun i -> Workload.gen_part rng ~id:(i + 1) ~day:0));
  Warehouse.define_view wh
    (Spj_view.Select_project
       {
         name = "stock";
         table = "parts";
         schema = Workload.parts_schema;
         filter = Some (Expr.Cmp (Expr.Gt, Expr.Col "qty", Expr.Lit (Value.Int 0)));
         project =
           [
             { Spj_view.out_name = "part_id"; from_side = Spj_view.L; from_col = "part_id" };
             { Spj_view.out_name = "qty"; from_side = Spj_view.L; from_col = "qty" };
           ];
       });
  wh

let () =
  (* --- source activity: 30 transactions, captured both ways --- *)
  let src = Db.create ~pool_pages:1024 ~vfs:(Vfs.in_memory ()) ~name:"src" () in
  let _ = Workload.create_parts_table src in
  Workload.load_parts ~seed:7 src ~rows:replica_rows ();
  Db.advance_day src;
  let handle = Trigger_extract.install src ~table:"parts" in
  let ods = ref [] in
  for i = 0 to maintenance_txns - 1 do
    let stmts =
      match i mod 3 with
      | 0 ->
        Workload.insert_parts_txn ~first_id:(replica_rows + 1 + (i * 40)) ~size:30
          ~day:(Db.current_day src) ()
      | 1 -> [ Workload.update_parts_stmt ~first_id:(1 + (i * 37)) ~size:30 ]
      | _ -> [ Workload.delete_parts_stmt ~first_id:(1 + (i * 53)) ~size:15 ]
    in
    Db.with_txn src (fun txn ->
        List.iter (fun s -> ignore (Db.exec src txn s : Db.exec_result)) stmts);
    ods := Op_delta.make ~txn_id:i stmts :: !ods
  done;
  let ods = List.rev !ods in
  let value_delta = Trigger_extract.collect src handle in
  Printf.printf "captured: %d-change value delta | %d op-deltas\n"
    (Dw_core.Delta.row_count value_delta)
    (List.length ods);

  (* --- integrate for real, collecting per-job costs --- *)
  let wh_batch = mk_warehouse () in
  let batch_stats = Warehouse.integrate_value_delta wh_batch value_delta in
  let wh_online = mk_warehouse () in
  let per_txn_stats = List.map (fun od -> Warehouse.integrate_op_deltas wh_online [ od ]) ods in
  Printf.printf "batch integration: %d row ops in one transaction (%s)\n"
    batch_stats.Warehouse.row_ops
    (Dw_util.Fmt_util.human_duration batch_stats.Warehouse.duration);
  Printf.printf "online integration: %d transactions, %d row ops total\n"
    (List.length per_txn_stats)
    (List.fold_left (fun a (s : Warehouse.stats) -> a + s.Warehouse.row_ops) 0 per_txn_stats);

  (* both converge to the same warehouse state *)
  let same =
    Warehouse.view_rows wh_batch "stock" = Warehouse.view_rows wh_online "stock"
  in
  Printf.printf "states converge: %b\n\n" same;

  (* --- availability: OLAP queries every 200 ticks, 80 ticks each --- *)
  let cost (s : Warehouse.stats) = max 1 s.Warehouse.row_ops in
  let config jobs =
    { Availability_sim.write_jobs = jobs; query_duration = 80; query_interval = 200;
      horizon = 4000 }
  in
  let batch_report = Availability_sim.run (config [ cost batch_stats ]) in
  let online_report = Availability_sim.run (config (List.map cost per_txn_stats)) in
  let show name (r : Availability_sim.report) =
    Printf.printf "%-18s outage %5d ticks | max query wait %5d | %d/%d queries done\n" name
      r.Availability_sim.outage_time r.Availability_sim.max_query_wait
      r.Availability_sim.queries_completed r.Availability_sim.queries_admitted
  in
  show "value-delta batch" batch_report;
  show "Op-Delta online" online_report;
  Printf.printf
    "\nthe batch holds the warehouse lock for its whole duration (outage ~= batch cost); the \
     op-delta stream lets queries in between transactions.\n"
