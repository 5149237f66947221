(* Tests for Dw_warehouse: view materialization and incremental
   maintenance (SP and join views, incl. the qcheck incremental ==
   recompute property), both integrators, and the availability
   simulation. *)

module Vfs = Dw_storage.Vfs
module Value = Dw_relation.Value
module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Expr = Dw_relation.Expr
module Db = Dw_engine.Db
module Workload = Dw_workload.Workload
module Delta = Dw_core.Delta
module Op_delta = Dw_core.Op_delta
module Spj_view = Dw_core.Spj_view
module Warehouse = Dw_warehouse.Warehouse
module Availability_sim = Dw_warehouse.Availability_sim
module Prng = Dw_util.Prng

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

(* the paper's online path: one source transaction, one warehouse txn *)
let integrate_one wh od = Warehouse.integrate_op_deltas wh [ od ]

let parts_schema = Workload.parts_schema

let supply_schema =
  Schema.make
    [
      { Schema.name = "supply_id"; ty = Value.Tint; nullable = false };
      { Schema.name = "part_id"; ty = Value.Tint; nullable = false };
      { Schema.name = "supplier"; ty = Value.Tstring 16; nullable = false };
    ]

let proj side out_name from_col = { Spj_view.out_name; from_side = side; from_col }

let sp_view =
  Spj_view.Select_project
    {
      name = "small_qty";
      table = "parts";
      schema = parts_schema;
      filter = Some (Expr.Cmp (Expr.Lt, Expr.Col "qty", Expr.Lit (Value.Int 500)));
      project = [ proj Spj_view.L "part_id" "part_id"; proj Spj_view.L "qty" "qty" ];
    }

let join_view =
  Spj_view.Join
    {
      name = "parts_by_supplier";
      left_table = "parts";
      left_schema = parts_schema;
      right_table = "supply";
      right_schema = supply_schema;
      on = [ ("part_id", "part_id") ];
      left_filter = None;
      right_filter = None;
      project = [ proj Spj_view.R "supplier" "supplier"; proj Spj_view.L "qty" "qty" ];
    }

let gen_supply rng n =
  List.init n (fun i ->
      [| Value.Int (i + 1); Value.Int (1 + Prng.int rng 50);
         Value.Str (Printf.sprintf "sup%d" (Prng.int rng 5)) |])

let mk_wh ?(parts = 50) ?(supply = 30) ?(views = []) () =
  let wh = Warehouse.create ~vfs:(Vfs.in_memory ()) ~name:"dw" () in
  Warehouse.add_replica wh ~table:"parts" ~schema:parts_schema;
  Warehouse.add_replica wh ~table:"supply" ~schema:supply_schema;
  let rng = Prng.create ~seed:77 in
  Warehouse.load_replica wh ~table:"parts"
    (List.init parts (fun i -> Workload.gen_part rng ~id:(i + 1) ~day:0));
  Warehouse.load_replica wh ~table:"supply" (gen_supply rng supply);
  List.iter (Warehouse.define_view wh) views;
  wh

let views_agree wh name =
  let materialized = Warehouse.view_rows wh name in
  let recomputed = Warehouse.recompute_view wh name in
  List.length materialized = List.length recomputed
  && List.for_all2
       (fun (r1, c1) (r2, c2) -> Tuple.equal r1 r2 && c1 = c2)
       materialized recomputed

(* ---------- view materialization ---------- *)

let materialize_sp () =
  let wh = mk_wh ~views:[ sp_view ] () in
  check Alcotest.bool "sp view consistent" true (views_agree wh "small_qty")

let materialize_join () =
  let wh = mk_wh ~views:[ join_view ] () in
  check Alcotest.bool "join view consistent" true (views_agree wh "parts_by_supplier");
  check Alcotest.bool "join view non-empty" true (Warehouse.view_rows wh "parts_by_supplier" <> [])

let view_validation () =
  let wh = mk_wh () in
  let bad =
    Spj_view.Select_project
      { name = "bad"; table = "parts"; schema = parts_schema; filter = None;
        project = [ proj Spj_view.L "nope" "nope" ] }
  in
  (try
     Warehouse.define_view wh bad;
     Alcotest.fail "expected validation failure"
   with Invalid_argument _ -> ());
  let orphan =
    Spj_view.Select_project
      { name = "orphan"; table = "nowhere"; schema = parts_schema; filter = None;
        project = [ proj Spj_view.L "part_id" "part_id" ] }
  in
  try
    Warehouse.define_view wh orphan;
    Alcotest.fail "expected missing replica failure"
  with Invalid_argument _ -> ()

(* ---------- incremental maintenance ---------- *)

let incremental_sp_after_ops () =
  let wh = mk_wh ~views:[ sp_view ] () in
  let stats =
    integrate_one wh
      (Op_delta.make ~txn_id:1
         (Workload.insert_parts_txn ~first_id:100 ~size:5 ~day:0 ()
          @ [ Workload.update_parts_stmt ~first_id:1 ~size:10;
              Workload.delete_parts_stmt ~first_id:20 ~size:5 ]))
  in
  check Alcotest.bool "row ops counted" true (stats.Warehouse.row_ops > 0);
  check Alcotest.bool "sp still consistent" true (views_agree wh "small_qty")

let incremental_join_after_ops () =
  let wh = mk_wh ~views:[ join_view ] () in
  ignore
    (integrate_one wh
       (Op_delta.make ~txn_id:1
          [ Workload.update_parts_stmt ~first_id:1 ~size:20;
            Workload.delete_parts_stmt ~first_id:30 ~size:10 ]));
  check Alcotest.bool "join consistent after parts ops" true
    (views_agree wh "parts_by_supplier");
  (* now touch the right side *)
  ignore
    (Warehouse.integrate_value_delta wh
       (Delta.make ~table:"supply" ~schema:supply_schema
          [ Delta.Insert [| Value.Int 999; Value.Int 1; Value.Str "supX" |];
            Delta.Delete [| Value.Int 1; Value.Int 0; Value.Str "" |] ]));
  check Alcotest.bool "join consistent after supply ops" true
    (views_agree wh "parts_by_supplier")

let value_delta_upsert_semantics () =
  let wh = mk_wh ~views:[ sp_view ] () in
  let rng = Prng.create ~seed:5 in
  let existing = Workload.gen_part rng ~id:1 ~day:9 in
  let fresh = Workload.gen_part rng ~id:777 ~day:9 in
  let d =
    Delta.make ~table:"parts" ~schema:parts_schema
      [ Delta.Upsert existing; Delta.Upsert fresh ]
  in
  ignore (Warehouse.integrate_value_delta wh d);
  let parts = Warehouse.replica_rows wh "parts" in
  check Alcotest.int "upsert added one" 51 (List.length parts);
  check Alcotest.bool "view consistent" true (views_agree wh "small_qty")

(* both integration paths converge to the same state *)
let integrators_converge () =
  let mk () = mk_wh ~views:[ sp_view; join_view ] () in
  let wh_value = mk () and wh_op = mk () in
  (* one source transaction: update 10, delete 5 *)
  let upd = Workload.update_parts_stmt ~first_id:1 ~size:10 in
  let del = Workload.delete_parts_stmt ~first_id:40 ~size:5 in
  let od = Op_delta.make ~txn_id:1 [ upd; del ] in
  (* derive the equivalent value delta from a source system *)
  let src = Db.create ~vfs:(Vfs.in_memory ()) ~name:"src" () in
  let _ = Workload.create_parts_table src in
  Workload.load_parts ~seed:77 src ~rows:50 ();
  Db.set_day src 0;
  let handle = Dw_core.Trigger_extract.install src ~table:"parts" in
  Db.with_txn src (fun txn ->
      ignore (Db.exec src txn upd : Db.exec_result);
      ignore (Db.exec src txn del : Db.exec_result));
  let vd = Dw_core.Trigger_extract.collect src handle in
  ignore (Warehouse.integrate_value_delta wh_value vd);
  ignore (Warehouse.integrate_op_deltas wh_op [ od ]);
  let sort l = List.sort Tuple.compare l in
  let rows_of wh = sort (Warehouse.replica_rows wh "parts") in
  check Alcotest.int "same cardinality" (List.length (rows_of wh_value))
    (List.length (rows_of wh_op));
  List.iter2
    (fun a b -> check Alcotest.bool "same replica rows" true (Tuple.equal a b))
    (rows_of wh_value) (rows_of wh_op);
  check Alcotest.bool "value wh views ok" true (views_agree wh_value "small_qty");
  check Alcotest.bool "op wh views ok" true (views_agree wh_op "parts_by_supplier")

(* every entry point reports a delta naming a table the warehouse lacks
   as [Invalid_argument "<entry>: ..."], never a bare [Not_found] *)
let unknown_table_errors () =
  (* a real change first, so the check below also sees the rollback *)
  let nosuch_od =
    Op_delta.make ~txn_id:1
      [ Workload.delete_parts_stmt ~first_id:1 ~size:5;
        Dw_sql.Ast.Delete { table = "nosuch"; where = None } ]
  in
  let nosuch_vd =
    Delta.make ~table:"nosuch" ~schema:parts_schema
      [ Delta.Insert (Workload.gen_part (Prng.create ~seed:1) ~id:1 ~day:0) ]
  in
  let batched = Warehouse.Batched Warehouse.default_batch_policy in
  let ignore_stats (_ : Warehouse.stats) = () in
  let cases =
    [
      ( "Warehouse.integrate_value_delta",
        fun wh -> ignore_stats (Warehouse.integrate_value_delta wh nosuch_vd) );
      ("Warehouse.integrate_op_deltas", fun wh -> ignore_stats (integrate_one wh nosuch_od));
      ( "Warehouse.integrate_op_deltas",
        fun wh ->
          ignore_stats (Warehouse.integrate_op_deltas ~grouping:Warehouse.Run wh [ nosuch_od ]) );
      ( "Warehouse.integrate_op_deltas",
        fun wh -> ignore_stats (Warehouse.integrate_op_deltas ~grouping:batched wh [ nosuch_od ])
      );
      ( "Warehouse.integrate_op_deltas",
        fun wh ->
          ignore_stats (Warehouse.integrate_op_deltas ~mark:(fun _ _ -> ()) wh [ nosuch_od ]) );
      ( "Warehouse.integrate_op_delta_images",
        fun wh ->
          ignore
            (Warehouse.integrate_op_delta_images wh ~table:"nosuch" ~mark:ignore nosuch_od
              : int list) );
      ( "Warehouse.load_chunk",
        fun wh ->
          ignore
            (Warehouse.load_chunk wh ~table:"nosuch" ~skip:(fun _ -> false) ~mark:ignore []
              : int) );
    ]
  in
  List.iter
    (fun (entry, run) ->
      let wh = mk_wh () in
      match run wh with
      | () -> Alcotest.failf "%s accepted an unknown table" entry
      | exception Invalid_argument msg ->
        let prefix = entry ^ ": " in
        check Alcotest.bool (Printf.sprintf "%s prefix in %S" entry msg) true
          (String.length msg >= String.length prefix
           && String.sub msg 0 (String.length prefix) = prefix);
        check Alcotest.bool (Printf.sprintf "%s names the table in %S" entry msg) true
          (Str.string_match (Str.regexp ".*nosuch") msg 0);
        check Alcotest.int (entry ^ " left the replica alone") 50
          (List.length (Warehouse.replica_rows wh "parts")))
    cases

(* qcheck: both integration paths converge on random workloads *)
let prop_integrators_converge =
  QCheck2.Test.make ~name:"value and op-delta integration converge" ~count:15
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let ops = Workload.gen_mix rng ~existing_ids:50 ~txns:8 ~max_txn_size:5 in
      (* derive both captures from one source run *)
      let src = Db.create ~vfs:(Vfs.in_memory ()) ~name:"src" () in
      let _ = Workload.create_parts_table src in
      Workload.load_parts ~seed:77 src ~rows:50 ();
      Db.set_day src 0;
      let handle = Dw_core.Trigger_extract.install src ~table:"parts" in
      let ods =
        List.mapi
          (fun i op ->
            let stmts = Workload.op_to_stmts ~day:0 op in
            Db.with_txn src (fun txn ->
                List.iter (fun s -> ignore (Db.exec src txn s : Db.exec_result)) stmts);
            Op_delta.make ~txn_id:i stmts)
          ops
      in
      let vd = Dw_core.Trigger_extract.collect src handle in
      let wh_value = mk_wh ~views:[ sp_view ] () in
      let wh_op = mk_wh ~views:[ sp_view ] () in
      ignore (Warehouse.integrate_value_delta wh_value vd : Warehouse.stats);
      ignore (Warehouse.integrate_op_deltas wh_op ods : Warehouse.stats);
      let rows wh = List.sort Tuple.compare (Warehouse.replica_rows wh "parts") in
      let a = rows wh_value and b = rows wh_op in
      List.length a = List.length b
      && List.for_all2 Tuple.equal a b
      && views_agree wh_value "small_qty"
      && views_agree wh_op "small_qty")

(* qcheck: random op-delta streams keep views consistent with recompute *)

let prop_views_incremental =
  QCheck2.Test.make ~name:"incremental views equal recompute" ~count:25
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let wh = mk_wh ~views:[ sp_view; join_view ] () in
      let rng = Prng.create ~seed in
      let ops = Workload.gen_mix rng ~existing_ids:50 ~txns:10 ~max_txn_size:5 in
      List.iteri
        (fun i op ->
          ignore
            (integrate_one wh
               (Op_delta.make ~txn_id:i (Workload.op_to_stmts ~day:0 op))))
        ops;
      views_agree wh "small_qty" && views_agree wh "parts_by_supplier")

(* ---------- aggregate views ---------- *)

module Agg_view = Dw_core.Agg_view

let qty_by_price_band =
  (* qty mod 10 used as a small band key so groups are non-trivial *)
  {
    Agg_view.name = "qty_stats";
    table = "parts";
    schema = parts_schema;
    filter = Some (Expr.Cmp (Expr.Gt, Expr.Col "qty", Expr.Lit (Value.Int 0)));
    group_by = [ "qty" ];
    aggregates =
      [ ("n", Agg_view.Count); ("total_price", Agg_view.Sum "price");
        ("min_id", Agg_view.Min "part_id"); ("max_id", Agg_view.Max "part_id") ];
  }

let agg_views_agree wh name =
  let materialized = Warehouse.agg_view_rows wh name in
  let recomputed = Warehouse.recompute_agg_view wh name in
  List.length materialized = List.length recomputed
  && List.for_all2
       (fun (r1, c1) (r2, c2) -> Tuple.equal r1 r2 && c1 = c2)
       materialized recomputed

let agg_validate () =
  check Alcotest.bool "valid" true (Result.is_ok (Agg_view.validate qty_by_price_band));
  check Alcotest.bool "empty group by" true
    (Result.is_error (Agg_view.validate { qty_by_price_band with Agg_view.group_by = [] }));
  check Alcotest.bool "sum over string" true
    (Result.is_error
       (Agg_view.validate
          { qty_by_price_band with Agg_view.aggregates = [ ("s", Agg_view.Sum "descr") ] }));
  check Alcotest.bool "dup out name" true
    (Result.is_error
       (Agg_view.validate
          { qty_by_price_band with Agg_view.aggregates = [ ("qty", Agg_view.Count) ] }))

let agg_eval_basics () =
  let row id qty price =
    [| Value.Int id; Value.Str "x"; Value.Int qty; Value.Float price; Value.Date 0 |]
  in
  let rows = [ row 1 5 1.0; row 2 5 2.0; row 3 7 4.0; row 4 0 9.0 (* filtered *) ] in
  let out = Agg_view.eval qty_by_price_band ~rows in
  check Alcotest.int "two groups" 2 (List.length out);
  match out with
  | [ (g5, n5); (g7, n7) ] ->
    check Alcotest.int "group 5 size" 2 n5;
    check Alcotest.int "group 7 size" 1 n7;
    check Alcotest.bool "count" true (Value.equal g5.(1) (Value.Int 2));
    check Alcotest.bool "sum" true (Value.equal g5.(2) (Value.Float 3.0));
    check Alcotest.bool "min id" true (Value.equal g5.(3) (Value.Int 1));
    check Alcotest.bool "max id" true (Value.equal g5.(4) (Value.Int 2));
    check Alcotest.bool "g7 key" true (Value.equal g7.(0) (Value.Int 7))
  | _ -> Alcotest.fail "group shape"

let agg_materialize_and_maintain () =
  let wh = mk_wh () in
  Warehouse.define_agg_view wh qty_by_price_band;
  check Alcotest.bool "initial materialization" true (agg_views_agree wh "qty_stats");
  (* inserts, deletes, updates via op-delta integration *)
  ignore
    (integrate_one wh
       (Op_delta.make ~txn_id:1
          (Workload.insert_parts_txn ~first_id:200 ~size:10 ~day:0 ()
           @ [ Workload.update_parts_stmt ~first_id:1 ~size:15;
               Workload.delete_parts_stmt ~first_id:30 ~size:10 ])));
  check Alcotest.bool "maintained incrementally" true (agg_views_agree wh "qty_stats")

let agg_minmax_rescan_on_delete () =
  let wh = mk_wh ~parts:0 () in
  Warehouse.define_agg_view wh qty_by_price_band;
  let row id qty price =
    [| Value.Int id; Value.Str "x"; Value.Int qty; Value.Float price; Value.Date 0 |]
  in
  (* one group, three members; delete the extremum (min and max ids) *)
  ignore
    (Warehouse.integrate_value_delta wh
       (Delta.make ~table:"parts" ~schema:parts_schema
          [ Delta.Insert (row 1 5 1.0); Delta.Insert (row 2 5 1.0); Delta.Insert (row 3 5 1.0) ]));
  ignore
    (Warehouse.integrate_value_delta wh
       (Delta.make ~table:"parts" ~schema:parts_schema [ Delta.Delete (row 3 5 1.0) ]));
  (match Warehouse.agg_view_rows wh "qty_stats" with
   | [ (g, 2) ] ->
     check Alcotest.bool "max rescanned to 2" true (Value.equal g.(4) (Value.Int 2));
     check Alcotest.bool "min still 1" true (Value.equal g.(3) (Value.Int 1))
   | _ -> Alcotest.fail "group shape");
  (* delete remaining members: group dies *)
  ignore
    (Warehouse.integrate_value_delta wh
       (Delta.make ~table:"parts" ~schema:parts_schema
          [ Delta.Delete (row 1 5 1.0); Delta.Delete (row 2 5 1.0) ]));
  check Alcotest.int "group removed" 0 (List.length (Warehouse.agg_view_rows wh "qty_stats"))

let agg_update_moves_groups () =
  let wh = mk_wh ~parts:20 () in
  Warehouse.define_agg_view wh qty_by_price_band;
  (* drive several rows into one qty bucket *)
  ignore
    (integrate_one wh
       (Op_delta.make ~txn_id:1
          [ Dw_sql.Ast.Update
              { table = "parts";
                sets = [ ("qty", Expr.Lit (Value.Int 123)) ];
                where =
                  Some (Expr.Cmp (Expr.Le, Expr.Col "part_id", Expr.Lit (Value.Int 10))) } ]));
  check Alcotest.bool "consistent after group move" true (agg_views_agree wh "qty_stats");
  let moved =
    List.find_opt
      (fun (g, _) -> Value.equal g.(0) (Value.Int 123))
      (Warehouse.agg_view_rows wh "qty_stats")
  in
  match moved with
  | Some (_, n) -> check Alcotest.int "10 rows moved" 10 n
  | None -> Alcotest.fail "target group missing"

let prop_agg_incremental =
  QCheck2.Test.make ~name:"agg views: incremental equals recompute" ~count:20
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let wh = mk_wh () in
      Warehouse.define_agg_view wh qty_by_price_band;
      let rng = Prng.create ~seed in
      let ops = Workload.gen_mix rng ~existing_ids:50 ~txns:10 ~max_txn_size:5 in
      List.iteri
        (fun i op ->
          ignore
            (integrate_one wh
               (Op_delta.make ~txn_id:i (Workload.op_to_stmts ~day:0 op))))
        ops;
      agg_views_agree wh "qty_stats")

(* ---------- batched MIN/MAX re-derivation ---------- *)

module Ast = Dw_sql.Ast
module Metrics = Dw_util.Metrics

(* ids 1..24 with qty = id mod 5: four live groups (qty 1..4, five or six
   members each) and one the qty > 0 filter drops; whole-number prices
   keep SUM exact in any fold order *)
let band_row id qty =
  [| Value.Int id; Value.Str (Printf.sprintf "p%d" id); Value.Int qty;
     Value.Float (float_of_int id); Value.Date 0 |]

let band_wh () =
  let wh = mk_wh ~parts:0 () in
  Warehouse.load_replica wh ~table:"parts"
    (List.init 24 (fun i -> band_row (i + 1) ((i + 1) mod 5)));
  Warehouse.define_agg_view wh qty_by_price_band;
  wh

let rescans wh = Metrics.get (Db.metrics (Warehouse.db wh)) "warehouse.agg_rescans"

type band_op =
  | Drop of int  (* DELETE one id — often its group's MIN or MAX *)
  | Refill of int  (* empty group g, then re-create it with a fresh row *)
  | Move of int * int  (* UPDATE one id into group g *)
  | Touch of int  (* UPDATE one id's price in place *)
  | Add of int  (* INSERT a fresh id into group g *)

let col_is col v = Some (Expr.Cmp (Expr.Eq, Expr.Col col, Expr.Lit (Value.Int v)))
let id_is = col_is "part_id"

let insert_band id g =
  Ast.Insert { table = "parts"; columns = None; rows = [ Array.to_list (band_row id g) ] }

(* statements of one op; fresh ids come from [next] in generation order *)
let band_stmts next = function
  | Drop id -> [ Ast.Delete { table = "parts"; where = id_is id } ]
  | Refill g ->
    let id = next () in
    [ Ast.Delete { table = "parts"; where = col_is "qty" g }; insert_band id g ]
  | Move (id, g) ->
    let sets = [ ("qty", Expr.Lit (Value.Int g)) ] in
    [ Ast.Update { table = "parts"; sets; where = id_is id } ]
  | Touch id ->
    let bump = Expr.Binop (Expr.Add, Expr.Col "price", Expr.Lit (Value.Float 1.0)) in
    [ Ast.Update { table = "parts"; sets = [ ("price", bump) ]; where = id_is id } ]
  | Add g -> [ insert_band (next ()) g ]

let band_deltas txns =
  let fresh = ref 100 in
  let next () = incr fresh; !fresh in
  List.mapi
    (fun i ops -> Op_delta.make ~txn_id:(i + 1) (List.concat_map (band_stmts next) ops))
    txns

let agg_one_rescan_per_txn () =
  let wh = band_wh () in
  let before = rescans wh in
  (* one transaction removes the MAX of groups 1, 2 and 3 *)
  ignore (integrate_one wh (List.hd (band_deltas [ [ Drop 21; Drop 22; Drop 23 ] ])));
  check Alcotest.int "one replica pass" 1 (rescans wh - before);
  check Alcotest.int "one agg_rescan span" 1
    (Metrics.observed_count (Db.metrics (Warehouse.db wh)) "warehouse.agg_rescan");
  check Alcotest.bool "re-derived groups agree" true (agg_views_agree wh "qty_stats");
  match Warehouse.agg_view_rows wh "qty_stats" with
  | (g1, 4) :: _ ->
    check Alcotest.bool "group 1 max re-derived" true (Value.equal g1.(4) (Value.Int 16))
  | _ -> Alcotest.fail "group shape"

let gen_band_txns =
  QCheck2.Gen.(
    let id = int_range 1 24 and g = int_range 0 4 in
    let op =
      oneof
        [ map (fun i -> Drop i) id; map (fun g -> Refill g) (int_range 1 4);
          map2 (fun i g -> Move (i, g)) id g; map (fun i -> Touch i) id; map (fun g -> Add g) g ]
    in
    list_size (int_range 1 6) (list_size (int_range 1 5) op))

let prop_batched_minmax =
  QCheck2.Test.make ~name:"agg views: batched MIN/MAX re-derivation equals recompute" ~count:40
    gen_band_txns (fun txns ->
      (* a fixed first transaction hits every deferred path: two groups go
         dirty (MAX of 1, MIN of 2), a row moves between them, group 3 is
         emptied and re-created *)
      let ods = band_deltas ([ Drop 21; Drop 2; Move (11, 2); Refill 3 ] :: txns) in
      List.for_all
        (fun grouping ->
          let wh = band_wh () in
          ignore (Warehouse.integrate_op_deltas ~grouping wh ods : Warehouse.stats);
          agg_views_agree wh "qty_stats")
        [ Warehouse.Run;
          Warehouse.Batched { Warehouse.default_batch_policy with Warehouse.max_batch = 3 } ])

let agg_abort_starts_clean () =
  let wh = band_wh () in
  let before = Warehouse.agg_view_rows wh "qty_stats" in
  let unknown = Ast.Delete { table = "nowhere"; where = None } in
  let ods = band_deltas [ [ Drop 21 ] ] @ [ Op_delta.make ~txn_id:2 [ unknown ] ] in
  (match Warehouse.integrate_op_deltas ~grouping:Warehouse.Run wh ods with
   | _ -> Alcotest.fail "expected the unknown table to fail the batch"
   | exception Invalid_argument _ -> ());
  check Alcotest.bool "batch rolled back" true (Warehouse.agg_view_rows wh "qty_stats" = before);
  (* group 1 was dirty in the failed batch: a leaked mark would skip this
     insert and re-derive the group instead *)
  let n = rescans wh in
  ignore (integrate_one wh (Op_delta.make ~txn_id:3 [ insert_band 300 1 ]));
  check Alcotest.int "no re-derivation" 0 (rescans wh - n);
  check Alcotest.bool "view equals recompute" true (agg_views_agree wh "qty_stats")

let agg_guard_outside_apply () =
  let wh = band_wh () in
  let db = Warehouse.db wh in
  let exec stmt = Db.with_txn db (fun txn -> ignore (Db.exec db txn stmt : Db.exec_result)) in
  (* group 1 is {1, 6, 11, 16, 21}: a middle member stays incremental *)
  exec (Ast.Delete { table = "parts"; where = id_is 11 });
  check Alcotest.bool "middle delete maintained" true (agg_views_agree wh "qty_stats");
  (match exec (Ast.Delete { table = "parts"; where = id_is 21 }) with
   | () -> Alcotest.fail "an extremum delete outside apply must be refused"
   | exception Invalid_argument _ -> ());
  check Alcotest.int "replica rolled back" 23 (List.length (Warehouse.replica_rows wh "parts"));
  check Alcotest.bool "view not left stale" true (agg_views_agree wh "qty_stats")

(* ---------- OLAP queries ---------- *)

module Olap = Dw_warehouse.Olap

let olap_standard_mix () =
  let wh = mk_wh ~parts:150 () in
  match Olap.run_all wh (Olap.standard_queries ~table:"parts") with
  | _, Some e -> Alcotest.fail e
  | results, None ->
    check Alcotest.int "five queries" 5 (List.length results);
    (match results with
     | count :: _ -> check Alcotest.int "COUNT(*) is one row" 1 count.Olap.rows
     | [] -> Alcotest.fail "no results");
    let band = List.nth results 4 in
    check Alcotest.int "band query rows" 51 band.Olap.rows
    (* ids 100..150 exist out of the 100..199 band *)

let olap_rejects_dml () =
  let wh = mk_wh () in
  match Olap.run wh { Olap.name = "bad"; sql = "DELETE FROM parts" } with
  | Error _ ->
    (* and it must not have deleted anything *)
    check Alcotest.int "no side effect" 50 (List.length (Warehouse.replica_rows wh "parts"))
  | Ok _ -> Alcotest.fail "expected rejection"

(* ---------- availability simulation ---------- *)

let sim_batch_blocks_queries () =
  (* one 1000-tick batch; queries every 100 ticks, 10 ticks each *)
  let report =
    Availability_sim.run
      { write_jobs = [ 1000 ]; query_duration = 10; query_interval = 100; horizon = 1000 }
  in
  check Alcotest.bool "outage is large" true (report.Availability_sim.outage_time > 500);
  check Alcotest.bool "queries waited" true (report.Availability_sim.max_query_wait >= 800)

let sim_small_jobs_interleave () =
  (* the same 1000 ticks of maintenance, split into 100 jobs *)
  let report =
    Availability_sim.run
      { write_jobs = List.init 100 (fun _ -> 10); query_duration = 10; query_interval = 100;
        horizon = 1000 }
  in
  check Alcotest.bool "small outage" true
    (report.Availability_sim.outage_time < 200);
  check Alcotest.bool "bounded waits" true (report.Availability_sim.max_query_wait <= 20)

let sim_no_queries () =
  let report =
    Availability_sim.run
      { write_jobs = [ 50; 50 ]; query_duration = 10; query_interval = 1000; horizon = 5 }
  in
  check Alcotest.int "no queries admitted" 0 report.Availability_sim.queries_admitted;
  check Alcotest.int "maintenance time" 100 report.Availability_sim.maintenance_done

let sim_all_queries_complete () =
  let report =
    Availability_sim.run
      { write_jobs = [ 100 ]; query_duration = 5; query_interval = 50; horizon = 300 }
  in
  check Alcotest.int "completed = admitted" report.Availability_sim.queries_admitted
    report.Availability_sim.queries_completed

let sim_fifo_no_starvation () =
  (* writers keep coming; queries must still get through between jobs *)
  let report =
    Availability_sim.run
      { write_jobs = List.init 50 (fun _ -> 20); query_duration = 10; query_interval = 40;
        horizon = 900 }
  in
  check Alcotest.int "all queries done" report.Availability_sim.queries_admitted
    report.Availability_sim.queries_completed

let suite =
  [
    test "materialize sp view" materialize_sp;
    test "materialize join view" materialize_join;
    test "view validation" view_validation;
    test "incremental sp" incremental_sp_after_ops;
    test "incremental join" incremental_join_after_ops;
    test "value delta upsert" value_delta_upsert_semantics;
    test "integrators converge" integrators_converge;
    test "unknown table errors name the entry point" unknown_table_errors;
    QCheck_alcotest.to_alcotest prop_views_incremental;
    QCheck_alcotest.to_alcotest prop_integrators_converge;
    test "agg validate" agg_validate;
    test "agg eval basics" agg_eval_basics;
    test "agg materialize and maintain" agg_materialize_and_maintain;
    test "agg min/max rescan on delete" agg_minmax_rescan_on_delete;
    test "agg update moves groups" agg_update_moves_groups;
    QCheck_alcotest.to_alcotest prop_agg_incremental;
    test "agg one replica pass per transaction" agg_one_rescan_per_txn;
    QCheck_alcotest.to_alcotest prop_batched_minmax;
    test "agg aborted batch leaves no dirty group" agg_abort_starts_clean;
    test "agg re-derivation refused outside apply" agg_guard_outside_apply;
    test "olap standard mix" olap_standard_mix;
    test "olap rejects dml" olap_rejects_dml;
    test "sim: batch blocks queries" sim_batch_blocks_queries;
    test "sim: small jobs interleave" sim_small_jobs_interleave;
    test "sim: no queries" sim_no_queries;
    test "sim: all queries complete" sim_all_queries_complete;
    test "sim: fifo no starvation" sim_fifo_no_starvation;
  ]
