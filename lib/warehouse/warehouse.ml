module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Expr = Dw_relation.Expr
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Trigger = Dw_engine.Trigger
module Heap_file = Dw_storage.Heap_file
module Codec = Dw_relation.Codec
module Delta = Dw_core.Delta
module Op_delta = Dw_core.Op_delta
module Spj_view = Dw_core.Spj_view
module Agg_view = Dw_core.Agg_view
module Metrics = Dw_util.Metrics
module Aimd = Dw_util.Aimd
module Ast = Dw_sql.Ast

type view_state = {
  def : Spj_view.t;
  backing : string;
  out_schema : Schema.t;
  back_schema : Schema.t;
}

type agg_state = {
  adef : Agg_view.t;
  abacking : string;
  aout_schema : Schema.t;
  aback_schema : Schema.t;
}

module Groups = Set.Make (Tuple)
module Group_map = Map.Make (Tuple)
module Dirty = Map.Make (String)

type t = {
  db : Db.t;
  replicas : (string, Schema.t) Hashtbl.t;
  views : (string, view_state) Hashtbl.t;  (* view name -> state *)
  agg_views : (string, agg_state) Hashtbl.t;
  by_source : (string, string list ref) Hashtbl.t;  (* source table -> view names *)
  agg_by_source : (string, string list ref) Hashtbl.t;
  mutable row_ops : int;  (* counted across integrations via triggers *)
  mutable dirty : Groups.t Dirty.t option;
      (* agg view -> MIN/MAX groups awaiting re-derivation; [Some] only
         while [apply] runs *)
}

let attach ~db () =
  (* the warehouse resolves keyed predicates through the pk index, unlike
     the paper's scan-bound operational sources *)
  Db.set_plan_mode db `Index_preferred;
  {
    db;
    replicas = Hashtbl.create 8;
    views = Hashtbl.create 8;
    agg_views = Hashtbl.create 8;
    by_source = Hashtbl.create 8;
    agg_by_source = Hashtbl.create 8;
    row_ops = 0;
    dirty = None;
  }

let create ?pool_pages ?pool_stripes ~vfs ~name () =
  attach ~db:(Db.create ?pool_pages ?pool_stripes ~vfs ~name ()) ()

let db t = t.db

let views_on t source =
  match Hashtbl.find_opt t.by_source source with
  | Some cell -> List.filter_map (Hashtbl.find_opt t.views) !cell
  | None -> []

let backing_schema out_schema =
  Schema.make ~key_arity:(Schema.arity out_schema)
    (Schema.columns out_schema
     @ [ { Schema.name = "__count"; ty = Value.Tint; nullable = false } ])

(* aggregate backing: the key is only the group columns *)
let backing_schema_keyed out_schema =
  Schema.make ~key_arity:(Schema.key_arity out_schema)
    (Schema.columns out_schema
     @ [ { Schema.name = "__count"; ty = Value.Tint; nullable = false } ])

let count_of back_schema row =
  match row.(Schema.arity back_schema - 1) with
  | Value.Int n -> n
  | _ -> invalid_arg "Warehouse: corrupt __count"

let with_count out_row count = Array.append out_row [| Value.Int count |]

(* adjust one view row's multiplicity inside the current transaction *)
let adjust t txn vs out_row delta =
  t.row_ops <- t.row_ops + 1;
  match Db.find_by_key t.db txn vs.backing out_row with
  | Some (rid, existing) ->
    let c = count_of vs.back_schema existing + delta in
    if c < 0 then
      invalid_arg
        (Printf.sprintf "Warehouse: view %s multiplicity below zero for %s"
           (Spj_view.name vs.def) (Tuple.to_string out_row))
    else if c = 0 then Db.delete_rid t.db txn vs.backing rid
    else Db.update_rid t.db txn vs.backing rid (with_count out_row c)
  | None ->
    if delta < 0 then
      invalid_arg
        (Printf.sprintf "Warehouse: view %s removing absent row %s" (Spj_view.name vs.def)
           (Tuple.to_string out_row))
    else if delta > 0 then
      ignore (Db.insert_row t.db txn vs.backing (with_count out_row delta) : Heap_file.rid)

let other_side_rows t vs source =
  match vs.def with
  | Spj_view.Select_project _ -> []
  | Spj_view.Join { left_table; right_table; _ } ->
    let other = if source = left_table then right_table else left_table in
    let rows = ref [] in
    Table.scan (Db.table t.db other) (fun _ row -> rows := row :: !rows);
    !rows

let side_of vs source =
  match vs.def with
  | Spj_view.Select_project _ -> Spj_view.L
  | Spj_view.Join { left_table; _ } ->
    if source = left_table then Spj_view.L else Spj_view.R

let contributions t vs source row =
  match vs.def with
  | Spj_view.Select_project _ -> (
      match Spj_view.project_sp vs.def row with Some out -> [ out ] | None -> [])
  | Spj_view.Join _ ->
    Spj_view.join_contribution vs.def (side_of vs source) row
      ~other_rows:(other_side_rows t vs source)

(* ---------- aggregate view maintenance ---------- *)

let agg_views_on t source =
  match Hashtbl.find_opt t.agg_by_source source with
  | Some cell -> List.filter_map (Hashtbl.find_opt t.agg_views) !cell
  | None -> []

let agg_count_of back_schema row =
  match row.(Schema.arity back_schema - 1) with
  | Value.Int n -> n
  | _ -> invalid_arg "Warehouse: corrupt agg __count"

let agg_out_of ast row = Array.sub row 0 (Schema.arity ast.aout_schema)

(* A MIN/MAX extremum leaving its group cannot be maintained from the
   backing row alone.  The triggers only mark such a group dirty; the
   apply core re-derives every dirty group of a view in one replica pass
   at the end of the transaction ([rederive]).  Until then a dirty
   group's backing row is stale, so every later incremental change to it
   is skipped — the pass reads the final replica and absorbs them all. *)
let is_dirty t ast group =
  match t.dirty with
  | Some dirty -> (
      match Dirty.find_opt ast.abacking dirty with
      | Some groups -> Groups.mem group groups
      | None -> false)
  | None -> false

(* outside [apply] there is no end-of-transaction pass to defer to *)
let mark_dirty t ast group =
  match t.dirty with
  | Some dirty ->
    let add groups = Some (Groups.add group (Option.value groups ~default:Groups.empty)) in
    t.dirty <- Some (Dirty.update ast.abacking add dirty)
  | None ->
    invalid_arg
      (Printf.sprintf "Warehouse: agg view %s group %s needs re-derivation outside the apply core"
         ast.adef.Agg_view.name (Tuple.to_string group))

let missing_group ast group =
  invalid_arg
    (Printf.sprintf "Warehouse: agg view %s missing group %s" ast.adef.Agg_view.name
       (Tuple.to_string group))

let agg_apply_insert t txn ast row =
  if Agg_view.passes ast.adef row then begin
    let group = Agg_view.group_key ast.adef row in
    if not (is_dirty t ast group) then begin
      t.row_ops <- t.row_ops + 1;
      match Db.find_by_key t.db txn ast.abacking group with
      | Some (rid, existing) ->
        let count = agg_count_of ast.aback_schema existing in
        let out = Agg_view.apply_insert ast.adef ~current:(agg_out_of ast existing) row in
        Db.update_rid t.db txn ast.abacking rid (with_count out (count + 1))
      | None ->
        ignore
          (Db.insert_row t.db txn ast.abacking
             (with_count (Agg_view.init_group ast.adef row) 1)
            : Heap_file.rid)
    end
  end

let agg_apply_delete t txn ast row =
  if Agg_view.passes ast.adef row then begin
    let group = Agg_view.group_key ast.adef row in
    if not (is_dirty t ast group) then begin
      t.row_ops <- t.row_ops + 1;
      match Db.find_by_key t.db txn ast.abacking group with
      | None -> missing_group ast group
      | Some (rid, existing) ->
        let count = agg_count_of ast.aback_schema existing in
        if count <= 1 then Db.delete_rid t.db txn ast.abacking rid
        else begin
          match Agg_view.apply_delete ast.adef ~current:(agg_out_of ast existing) row with
          | Agg_view.Updated out ->
            Db.update_rid t.db txn ast.abacking rid (with_count out (count - 1))
          | Agg_view.Needs_rescan -> mark_dirty t ast group
        end
    end
  end

(* Updates run incrementally: remove the before-row's contribution and add
   the after-row's.  Each half is skipped when it lands in a dirty group,
   including the group the before-half has just marked. *)
let agg_apply_update t txn ast ~before ~after =
  let group = Agg_view.group_key ast.adef before in
  if (not (Agg_view.passes ast.adef before)) || is_dirty t ast group then
    agg_apply_insert t txn ast after
  else begin
    t.row_ops <- t.row_ops + 1;
    match Db.find_by_key t.db txn ast.abacking group with
    | None -> missing_group ast group
    | Some (rid, existing) -> (
        let count = agg_count_of ast.aback_schema existing in
        match Agg_view.apply_delete ast.adef ~current:(agg_out_of ast existing) before with
        | Agg_view.Updated out
          when Agg_view.passes ast.adef after
               && Tuple.equal (Agg_view.group_key ast.adef after) group ->
          (* fold the after-row straight back in; cardinality unchanged *)
          Db.update_rid t.db txn ast.abacking rid
            (with_count (Agg_view.apply_insert ast.adef ~current:out after) count)
        | Agg_view.Updated out ->
          if count <= 1 then Db.delete_rid t.db txn ast.abacking rid
          else Db.update_rid t.db txn ast.abacking rid (with_count out (count - 1));
          agg_apply_insert t txn ast after
        | Agg_view.Needs_rescan ->
          mark_dirty t ast group;
          agg_apply_insert t txn ast after)
  end

let maintain_views t source (ctx : Db.trigger_ctx) event =
  let apply row delta =
    List.iter
      (fun vs ->
        List.iter (fun out -> adjust t ctx.Db.ctx_txn vs out delta) (contributions t vs source row))
      (views_on t source)
  in
  let apply_agg row delta =
    List.iter
      (fun ast ->
        if delta > 0 then agg_apply_insert t ctx.Db.ctx_txn ast row
        else agg_apply_delete t ctx.Db.ctx_txn ast row)
      (agg_views_on t source)
  in
  match event with
  | Trigger.Inserted (_, after) ->
    t.row_ops <- t.row_ops + 1;
    apply after 1;
    apply_agg after 1
  | Trigger.Deleted (_, before) ->
    t.row_ops <- t.row_ops + 1;
    apply before (-1);
    apply_agg before (-1)
  | Trigger.Updated (_, before, after) ->
    t.row_ops <- t.row_ops + 1;
    apply before (-1);
    apply after 1;
    List.iter
      (fun ast -> agg_apply_update t ctx.Db.ctx_txn ast ~before ~after)
      (agg_views_on t source)

(* record that view [name] is maintained from [source] *)
let index_by_source by_source ~source name =
  match Hashtbl.find_opt by_source source with
  | Some cell -> cell := name :: !cell
  | None -> Hashtbl.add by_source source (ref [ name ])

(* register [table] as a replica and attach its view-maintenance trigger *)
let install_replica t ~table schema =
  Hashtbl.add t.replicas table schema;
  Db.add_trigger t.db ~table
    {
      Trigger.name = "maintain_views__" ^ table;
      on = [ Trigger.On_insert; Trigger.On_delete; Trigger.On_update ];
      action = (fun ctx event -> maintain_views t table ctx event);
    }

let add_replica t ~table ~schema =
  if Hashtbl.mem t.replicas table then
    invalid_arg (Printf.sprintf "Warehouse.add_replica: %s exists" table);
  ignore (Db.create_table t.db ~name:table schema : Table.t);
  install_replica t ~table schema

let load_replica t ~table rows =
  let tbl = Db.table t.db table in
  let schema = Table.schema tbl in
  List.iter
    (fun row ->
      ignore (Table.raw_insert_blind tbl (Codec.encode_binary schema row) : Heap_file.rid))
    rows;
  Table.rebuild_indexes tbl

let replica_rows t table =
  let rows = ref [] in
  Table.scan (Db.table t.db table) (fun _ row -> rows := row :: !rows);
  List.rev !rows

let recompute_view t name =
  match Hashtbl.find_opt t.views name with
  | None -> raise Not_found
  | Some vs -> Spj_view.eval vs.def ~rows_of:(replica_rows t)

let define_view t view =
  let name = Spj_view.name view in
  if Hashtbl.mem t.views name then
    invalid_arg (Printf.sprintf "Warehouse.define_view: %s exists" name);
  (match Spj_view.validate view with
   | Ok () -> ()
   | Error e -> invalid_arg ("Warehouse.define_view: " ^ e));
  List.iter
    (fun source ->
      if not (Hashtbl.mem t.replicas source) then
        invalid_arg
          (Printf.sprintf "Warehouse.define_view: no replica for source table %s" source))
    (Spj_view.source_tables view);
  let out_schema = Spj_view.output_schema view in
  let back_schema = backing_schema out_schema in
  ignore (Db.create_table t.db ~name back_schema : Table.t);
  let vs = { def = view; backing = name; out_schema; back_schema } in
  Hashtbl.add t.views name vs;
  List.iter (fun source -> index_by_source t.by_source ~source name) (Spj_view.source_tables view);
  (* materialize from current replica contents *)
  let contents = Spj_view.eval view ~rows_of:(replica_rows t) in
  let tbl = Db.table t.db name in
  List.iter
    (fun (row, count) ->
      ignore
        (Table.raw_insert_blind tbl (Codec.encode_binary back_schema (with_count row count))
          : Heap_file.rid))
    contents;
  Table.rebuild_indexes tbl

let view_rows t name =
  match Hashtbl.find_opt t.views name with
  | None -> raise Not_found
  | Some vs ->
    let rows = ref [] in
    Table.scan (Db.table t.db name) (fun _ row ->
        let count = count_of vs.back_schema row in
        let out = Array.sub row 0 (Schema.arity vs.out_schema) in
        rows := (out, count) :: !rows);
    List.sort (fun (a, _) (b, _) -> Tuple.compare a b) !rows

let define_agg_view t view =
  let name = view.Agg_view.name in
  if Hashtbl.mem t.agg_views name || Hashtbl.mem t.views name then
    invalid_arg (Printf.sprintf "Warehouse.define_agg_view: %s exists" name);
  (match Agg_view.validate view with
   | Ok () -> ()
   | Error e -> invalid_arg ("Warehouse.define_agg_view: " ^ e));
  if not (Hashtbl.mem t.replicas view.Agg_view.table) then
    invalid_arg
      (Printf.sprintf "Warehouse.define_agg_view: no replica for %s" view.Agg_view.table);
  let aout_schema = Agg_view.output_schema view in
  let aback_schema = backing_schema_keyed aout_schema in
  ignore (Db.create_table t.db ~name aback_schema : Table.t);
  let ast = { adef = view; abacking = name; aout_schema; aback_schema } in
  Hashtbl.add t.agg_views name ast;
  index_by_source t.agg_by_source ~source:view.Agg_view.table name;
  (* materialize *)
  let contents = Agg_view.eval view ~rows:(replica_rows t view.Agg_view.table) in
  let tbl = Db.table t.db name in
  List.iter
    (fun (row, count) ->
      ignore
        (Table.raw_insert_blind tbl (Codec.encode_binary aback_schema (with_count row count))
          : Heap_file.rid))
    contents;
  Table.rebuild_indexes tbl

let agg_view_rows t name =
  match Hashtbl.find_opt t.agg_views name with
  | None -> raise Not_found
  | Some ast ->
    let rows = ref [] in
    Table.scan (Db.table t.db name) (fun _ row ->
        rows := (agg_out_of ast row, agg_count_of ast.aback_schema row) :: !rows);
    List.sort (fun (a, _) (b, _) -> Tuple.compare a b) !rows

let agg_view_def t name =
  Option.map (fun ast -> ast.adef) (Hashtbl.find_opt t.agg_views name)

let recompute_agg_view t name =
  match Hashtbl.find_opt t.agg_views name with
  | None -> raise Not_found
  | Some ast -> Agg_view.eval ast.adef ~rows:(replica_rows t ast.adef.Agg_view.table)

type stats = { txns : int; statements : int; row_ops : int; duration : float }

let zero_stats = { txns = 0; statements = 0; row_ops = 0; duration = 0.0 }

let add_stats a b =
  {
    txns = a.txns + b.txns;
    statements = a.statements + b.statements;
    row_ops = a.row_ops + b.row_ops;
    duration = a.duration +. b.duration;
  }

(* ---------- the apply core ---------- *)

(* the one replica pass per view with dirty groups: collect those groups'
   members (in the order [Agg_view.eval] sees them) and rewrite each
   group's backing row from them *)
let rederive t txn dirty =
  let metrics = Db.metrics t.db in
  Dirty.iter
    (fun name groups ->
      let ast = Hashtbl.find t.agg_views name in
      Metrics.with_span metrics "warehouse.agg_rescan" @@ fun () ->
      Metrics.incr metrics "warehouse.agg_rescans";
      let members = ref Group_map.empty in
      Table.scan (Db.table t.db ast.adef.Agg_view.table) (fun _ row ->
          if Agg_view.passes ast.adef row then begin
            let group = Agg_view.group_key ast.adef row in
            if Groups.mem group groups then
              members :=
                Group_map.update group
                  (fun rows -> Some (row :: Option.value rows ~default:[]))
                  !members
          end);
      Groups.iter
        (fun group ->
          t.row_ops <- t.row_ops + 1;
          let members = Option.value (Group_map.find_opt group !members) ~default:[] in
          (* a group is marked through its backing row, and no later change
             in the transaction touches a marked group's row *)
          match Db.find_by_key t.db txn ast.abacking group with
          | None -> missing_group ast group
          | Some (rid, _) -> (
              match Agg_view.recompute_group ast.adef ~group ~members with
              | Some (out, n) -> Db.update_rid t.db txn ast.abacking rid (with_count out n)
              | None -> Db.delete_rid t.db txn ast.abacking rid))
        groups)
    dirty

(* Every integration is one warehouse transaction built here: the
   [warehouse.refresh] span, the registry-clock timer, [Db.with_txn], the
   MIN/MAX re-derivation pass, the in-transaction [mark] (a progress
   record that commits or rolls back with the data) and the stats.
   [body] runs its statements through [exec], which executes ASTs
   directly — Op-Delta text is parsed once, at transport decode, and
   value-delta records become ASTs here — and reports every failure, an
   unknown table included, as [Invalid_argument "<entry>: ..."].  The
   dirty-group set lives only for the call: empty at the start, dropped
   at the end whether the transaction commits or aborts. *)
let apply (t : t) ~entry ?(mark = ignore) body =
  if Option.is_some t.dirty then invalid_arg (entry ^ ": another apply is running");
  let metrics = Db.metrics t.db in
  Metrics.with_span metrics "warehouse.refresh" @@ fun () ->
  let start = Metrics.now metrics in
  let row_ops0 = t.row_ops in
  let statements = ref 0 in
  t.dirty <- Some Dirty.empty;
  let result =
    Fun.protect ~finally:(fun () -> t.dirty <- None) @@ fun () ->
    Db.with_txn t.db (fun txn ->
        let exec stmt =
          incr statements;
          match Db.exec t.db txn stmt with
          | result -> result
          | exception Invalid_argument e -> invalid_arg (entry ^ ": " ^ e)
          | exception Not_found ->
            invalid_arg (Printf.sprintf "%s: unknown table %s" entry (Ast.table_of stmt))
        in
        let result = body exec in
        Option.iter (rederive t txn) t.dirty;
        mark txn;
        result)
  in
  ( result,
    {
      txns = 1;
      statements = !statements;
      row_ops = t.row_ops - row_ops0;
      duration = Metrics.now metrics -. start;
    } )

(* Per the paper (Section 4.1), a value delta integrates as SQL
   statements: one INSERT per captured insert image, one keyed DELETE per
   delete image, and a keyed DELETE (before image) plus an INSERT (after
   image) per update.  The statements run through the normal executor, so
   a value delta of x updates costs 2x statement executions where the
   Op-Delta costs one. *)
let key_predicate schema tuple =
  let preds =
    List.init (Schema.key_arity schema) (fun i ->
        let col = (Schema.column schema i).Schema.name in
        Expr.Cmp (Expr.Eq, Expr.Col col, Expr.Lit tuple.(i)))
  in
  match Expr.conj preds with Some p -> p | None -> assert false

let insert_stmt table tuple =
  Ast.Insert { table; columns = None; rows = [ Array.to_list tuple ] }

let delete_stmt table schema tuple =
  Ast.Delete { table; where = Some (key_predicate schema tuple) }

let update_stmt table schema tuple =
  (* SET every non-key column to the after image's literal *)
  let sets =
    List.filteri (fun i _ -> i >= Schema.key_arity schema) (Schema.columns schema)
    |> List.map (fun c ->
           (c.Schema.name, Expr.Lit tuple.(Schema.index_of schema c.Schema.name)))
  in
  Ast.Update { table; sets; where = Some (key_predicate schema tuple) }

(* update-or-insert by key *)
let upsert exec ~table schema tuple =
  match exec (update_stmt table schema tuple) with
  | Db.Affected 0 -> ignore (exec (insert_stmt table tuple) : Db.exec_result)
  | Db.Affected _ | Db.Rows _ | Db.Created -> ()

let integrate_value_delta (t : t) delta =
  let table = delta.Delta.table and schema = delta.Delta.schema in
  snd
  @@ apply t ~entry:"Warehouse.integrate_value_delta" (fun exec ->
         let run stmt = ignore (exec stmt : Db.exec_result) in
         List.iter
           (function
             | Delta.Insert after -> run (insert_stmt table after)
             | Delta.Delete before -> run (delete_stmt table schema before)
             | Delta.Update (before, after) ->
               run (delete_stmt table schema before);
               run (insert_stmt table after)
             | Delta.Upsert after -> upsert exec ~table schema after)
           delta.Delta.changes)

(* ---------- Op-Delta apply ---------- *)

type batch_policy = {
  max_batch : int;
  min_batch : int;
  lock_wait_p95_s : float;
}

let default_batch_policy = { max_batch = 16; min_batch = 1; lock_wait_p95_s = 0.010 }

let validate_batch_policy p =
  if p.min_batch < 1 then invalid_arg "Warehouse: batch_policy.min_batch < 1";
  if p.max_batch < p.min_batch then
    invalid_arg "Warehouse: batch_policy.max_batch < min_batch";
  if not (p.lock_wait_p95_s >= 0.0) then
    invalid_arg "Warehouse: batch_policy.lock_wait_p95_s < 0"

type grouping = Per_txn | Run | Batched of batch_policy

let take n xs =
  let rec go n acc = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (n - 1) (x :: acc) rest
  in
  go n [] xs

let integrate_op_deltas ?(grouping = Per_txn) ?(mark = fun _ _ -> ()) (t : t) ods =
  (* one warehouse transaction per run, re-executing every statement in
     source commit order; a run boundary is always a source-transaction
     boundary *)
  let apply_run run =
    snd
    @@ apply t ~entry:"Warehouse.integrate_op_deltas" ~mark:(mark run) (fun exec ->
           List.iter
             (fun od ->
               List.iter
                 (fun (op : Op_delta.op) -> ignore (exec op.Op_delta.stmt : Db.exec_result))
                 od.Op_delta.ops)
             run)
  in
  match grouping with
  | Per_txn -> List.fold_left (fun acc od -> add_stats acc (apply_run [ od ])) zero_stats ods
  | Run -> apply_run ods
  | Batched policy ->
    validate_batch_policy policy;
    let metrics = Db.metrics t.db in
    let valve =
      Aimd.create metrics ~gauge:"warehouse.batch_size_target"
        ~floor:policy.min_batch ~ceiling:policy.max_batch
        ~threshold_s:policy.lock_wait_p95_s
    in
    let rec go acc = function
      | [] -> acc
      | rest ->
        let run, rest = take (Aimd.target valve) rest in
        Metrics.observe metrics "warehouse.batch_size" (float_of_int (List.length run));
        let acc = add_stats acc (apply_run run) in
        Aimd.step valve;
        go acc rest
    in
    go zero_stats ods

(* ---------- bootstrap (chunked online load) support ---------- *)

let attach_replica t ~table =
  if Hashtbl.mem t.replicas table then
    invalid_arg (Printf.sprintf "Warehouse.attach_replica: %s already attached" table);
  match Db.table_opt t.db table with
  | None -> invalid_arg (Printf.sprintf "Warehouse.attach_replica: no table %s" table)
  | Some tbl -> install_replica t ~table (Table.schema tbl)

let view_backing_schema view = backing_schema (Spj_view.output_schema view)
let agg_view_backing_schema view = backing_schema_keyed (Agg_view.output_schema view)

(* register an existing view's definition without creating or
   materializing its backing table — the resume path after a crash, where
   the backing table's bytes were recovered by Db.reopen and only the
   in-memory registration was lost *)
let attach_view t view =
  let name = Spj_view.name view in
  if Hashtbl.mem t.views name then
    invalid_arg (Printf.sprintf "Warehouse.attach_view: %s already attached" name);
  (match Spj_view.validate view with
   | Ok () -> ()
   | Error e -> invalid_arg ("Warehouse.attach_view: " ^ e));
  if Db.table_opt t.db name = None then
    invalid_arg (Printf.sprintf "Warehouse.attach_view: no backing table %s" name);
  let out_schema = Spj_view.output_schema view in
  Hashtbl.add t.views name
    { def = view; backing = name; out_schema; back_schema = backing_schema out_schema };
  List.iter (fun source -> index_by_source t.by_source ~source name) (Spj_view.source_tables view)

let attach_agg_view t view =
  let name = view.Agg_view.name in
  if Hashtbl.mem t.agg_views name || Hashtbl.mem t.views name then
    invalid_arg (Printf.sprintf "Warehouse.attach_agg_view: %s already attached" name);
  (match Agg_view.validate view with
   | Ok () -> ()
   | Error e -> invalid_arg ("Warehouse.attach_agg_view: " ^ e));
  if Db.table_opt t.db name = None then
    invalid_arg (Printf.sprintf "Warehouse.attach_agg_view: no backing table %s" name);
  let aout_schema = Agg_view.output_schema view in
  Hashtbl.add t.agg_views name
    {
      adef = view;
      abacking = name;
      aout_schema;
      aback_schema = backing_schema_keyed aout_schema;
    };
  index_by_source t.agg_by_source ~source:view.Agg_view.table name

let int_key schema tuple =
  if Schema.key_arity schema <> 1 then
    invalid_arg "Warehouse: bootstrap apply needs a single-column primary key";
  match tuple.(0) with
  | Value.Int k -> k
  | _ -> invalid_arg "Warehouse: bootstrap apply needs an INT primary key"

let replica_schema t ~entry table =
  match Hashtbl.find_opt t.replicas table with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "%s: %s is not a replica" entry table)

(* build the inserted tuples an INSERT statement describes, in the source
   schema's column order (the same resolution Db.insert_values performs) *)
let tuples_of_insert schema columns rows =
  List.map
    (fun row ->
      match columns with
      | None ->
        if List.length row <> Schema.arity schema then
          invalid_arg "Warehouse: INSERT arity mismatch in image integration";
        Array.of_list row
      | Some cols ->
        let tuple = Array.make (Schema.arity schema) Value.Null in
        (try List.iter2 (fun col v -> tuple.(Schema.index_of schema col) <- v) cols row
         with Invalid_argument _ ->
           invalid_arg "Warehouse: INSERT columns/values mismatch in image integration");
        tuple)
    rows

let after_image schema sets before =
  List.fold_left
    (fun tuple (col, e) -> Tuple.set schema tuple col (Expr.eval schema before e))
    before sets

let integrate_op_delta_images (t : t) ~table ~mark od =
  let entry = "Warehouse.integrate_op_delta_images" in
  let schema = replica_schema t ~entry table in
  fst
  @@ apply t ~entry ~mark (fun exec ->
         let touched = ref [] in
         let write tuple =
           touched := int_key schema tuple :: !touched;
           upsert exec ~table schema tuple
         in
         List.iter
           (fun (op : Op_delta.op) ->
             if String.equal (Ast.table_of op.Op_delta.stmt) table then
               match op.Op_delta.stmt with
               | Ast.Insert { columns; rows; _ } ->
                 List.iter write (tuples_of_insert schema columns rows)
               | Ast.Update { sets; _ } ->
                 List.iter (fun before -> write (after_image schema sets before))
                   op.Op_delta.before_images
               | Ast.Delete _ ->
                 List.iter
                   (fun before ->
                     touched := int_key schema before :: !touched;
                     ignore (exec (delete_stmt table schema before) : Db.exec_result))
                   op.Op_delta.before_images
               | Ast.Select _ | Ast.Create_table _ -> ())
           od.Op_delta.ops;
         List.rev !touched)

let load_chunk (t : t) ~table ~skip ~mark rows =
  let entry = "Warehouse.load_chunk" in
  let schema = replica_schema t ~entry table in
  let kept = List.filter (fun tuple -> not (skip (int_key schema tuple))) rows in
  fst
  @@ apply t ~entry ~mark (fun exec ->
         List.iter (upsert exec ~table schema) kept;
         List.length kept)
