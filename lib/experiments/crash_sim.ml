(* Crash-point exploration: the robustness companion to the performance
   experiments.  A workload runs once against a fault plan that only
   counts write/fsync events; then, for each (or a strided subset of)
   event index k, the same workload re-runs with fail-stop armed at k —
   everything written before k survives, the crashing write may be torn,
   nothing after it happens.  The surviving bytes are re-opened in a
   fresh engine / queue / warehouse and the recovery invariants checked:

   - source DB: committed transactions' rows are present, losers' rows
     absent (the one in-flight transaction may land either way, but only
     atomically), and a post-recovery transaction survives a second
     restart (the torn WAL tail really was truncated, not skipped);
   - persistent queue: no enqueued-and-unacked message is ever lost
     (redelivery of acked ones is allowed — at-least-once), no phantom
     messages appear, and a post-recovery enqueue stays reachable;
   - warehouse refresh: redelivered delta batches are applied exactly
     once (watermark updated in the same warehouse transaction as the
     batch rows).

   Every explorer is one {!scenario} handed to {!sweep}, which owns the
   counting pass, the per-point plans and the report.

   Everything is deterministic: the op mix, the payloads and the tear
   points all derive from seeded Dw_util.Prng streams, so a failing
   event index reproduces by itself. *)

module Vfs = Dw_storage.Vfs
module Fault = Vfs.Fault
module Db = Dw_engine.Db
module Table = Dw_engine.Table
module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Expr = Dw_relation.Expr
module Workload = Dw_workload.Workload
module Metrics = Dw_util.Metrics
module Prng = Dw_util.Prng
module Pq = Dw_transport.Persistent_queue

type report = {
  total_events : int;  (* write/fsync events in the fault-free run *)
  explored : int;  (* crash points actually exercised *)
  failures : (int * string) list;  (* event index (-1 = fault-free run), invariant violated *)
  fault_metrics : (string * int) list;  (* fault.*/wal.*/queue.* totals *)
}

let pp_report fmt r =
  Format.fprintf fmt "%d events, %d crash points, %d failures" r.total_events r.explored
    (List.length r.failures);
  List.iter (fun (i, msg) -> Format.fprintf fmt "@.  event %d: %s" i msg) r.failures

(* fold one run's injected-fault and recovery counters into the report
   totals; vfs.* traffic counters would swamp the table and are skipped *)
let accumulate totals vfs =
  List.iter
    (fun (name, v) ->
      let keep prefix =
        String.length name >= String.length prefix
        && String.sub name 0 (String.length prefix) = prefix
      in
      if keep "fault." || keep "wal." || keep "queue." || keep "retry." then
        Metrics.add totals name v)
    (Metrics.snapshot (Vfs.metrics vfs))

(* ---------- the sweep driver ---------- *)

(* A scenario installs the plan it is given on the device under test,
   runs its workload (catching [Fault.Crash]), restarts from the
   surviving bytes, checks its recovery invariants and folds its fault
   counters into [totals].  Given a plan that never fires it must run
   the workload to completion and return [Ok]. *)
type scenario = totals:Metrics.t -> Fault.t -> (unit, string) result

(* the fail-stop plan for crash point [k]: each point draws its tear
   offset from its own seed, so a failing point reproduces alone *)
let plan ~seed k = Fault.make ~fail_stop_after:k ~seed:(seed + k) ()

let sweep ?(stride = 1) ~seed (scenario : scenario) =
  if stride < 1 then invalid_arg "Crash_sim.sweep: stride < 1";
  let counter = Fault.make ~seed () in
  let baseline =
    match scenario ~totals:(Metrics.create ()) counter with
    | Ok () -> []
    | Error msg -> [ (-1, "fault-free run: " ^ msg) ]
  in
  let total_events = Fault.events counter in
  let totals = Metrics.create () in
  let points = List.init ((total_events + stride - 1) / stride) (fun k -> k * stride) in
  let failures =
    List.filter_map
      (fun k ->
        let p = plan ~seed k in
        match scenario ~totals p with
        | Error msg -> Some (k, msg)
        | Ok () when not (Fault.crashed p) -> Some (k, "fault plan never fired")
        | Ok () -> None)
      points
  in
  {
    total_events;
    explored = List.length points;
    failures = baseline @ failures;
    fault_metrics = Metrics.snapshot totals;
  }

(* one report over several sweeps (one per shard, one per flow) *)
let merge reports =
  let totals = Metrics.create () in
  List.iter (fun r -> List.iter (fun (n, v) -> Metrics.add totals n v) r.fault_metrics) reports;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  {
    total_events = sum (fun r -> r.total_events);
    explored = sum (fun r -> r.explored);
    failures = List.concat_map (fun r -> r.failures) reports;
    fault_metrics = Metrics.snapshot totals;
  }

(* ---------- source-database explorer ---------- *)

type db_spec = {
  txns : int;
  txn_size : int;  (* rows touched per transaction *)
  seed : int;
  checkpoint_every : int;  (* 0 = never *)
  group : int;  (* group-commit size; 1 = fsync every commit *)
}

let small_db_spec = { txns = 6; txn_size = 3; seed = 42; checkpoint_every = 4; group = 1 }
let default_db_spec = { txns = 12; txn_size = 8; seed = 42; checkpoint_every = 5; group = 1 }

(* group commit widens the window between a commit's append and its
   fsync; the sweep over this spec covers crashes inside that window —
   including fail-stop AT the group's one fsync event (the paper-level
   "between leader fsync and follower wakeup" point) *)
let grouped_db_spec = { default_db_spec with group = 3 }

type op =
  | Insert of { first_id : int; size : int }
  | Update of { first_id : int; size : int }
  | Delete of { first_id : int; size : int }

(* a deterministic insert/update/delete mix; updates and deletes aim at
   the id range populated so far *)
let ops_of_spec spec =
  let rng = Prng.create ~seed:spec.seed in
  let next_id = ref 1 in
  List.init spec.txns (fun i ->
      let kind = if !next_id = 1 then 0 else i mod 3 in
      match kind with
      | 0 ->
        let first_id = !next_id in
        next_id := !next_id + spec.txn_size;
        Insert { first_id; size = spec.txn_size }
      | 1 -> Update { first_id = 1 + Prng.int rng (!next_id - 1); size = spec.txn_size }
      | _ ->
        Delete { first_id = 1 + Prng.int rng (!next_id - 1); size = max 1 (spec.txn_size / 4) })

let stmts_of spec = function
  | Insert { first_id; size } ->
    Workload.insert_parts_txn ~seed:spec.seed ~first_id ~size ~day:0 ()
  | Update { first_id; size } -> [ Workload.update_parts_stmt ~first_id ~size ]
  | Delete { first_id; size } -> [ Workload.delete_parts_stmt ~first_id ~size ]

(* reference model: id -> expected tuple, mirroring the statement
   semantics (inserts use the same prng stream as insert_parts_txn; the
   engine stamps last_modified with the current day, held at 0) *)
let apply_op spec model = function
  | Insert { first_id; size } ->
    let rng = Prng.create ~seed:(spec.seed + first_id) in
    for i = 0 to size - 1 do
      let id = first_id + i in
      Hashtbl.replace model id (Workload.gen_part rng ~id ~day:0)
    done
  | Update { first_id; size } ->
    for id = first_id to first_id + size - 1 do
      match Hashtbl.find_opt model id with
      | None -> ()
      | Some t ->
        let t = Array.copy t in
        (match t.(2) with Value.Int q -> t.(2) <- Value.Int (q + 1) | _ -> assert false);
        t.(4) <- Value.Date 0;
        Hashtbl.replace model id t
    done
  | Delete { first_id; size } ->
    for id = first_id to first_id + size - 1 do
      Hashtbl.remove model id
    done

let model_rows spec ops =
  let model = Hashtbl.create 256 in
  List.iter (apply_op spec model) ops;
  List.sort Tuple.compare (Hashtbl.fold (fun _ t acc -> t :: acc) model [])

let actual_rows db =
  let rows = ref [] in
  Table.scan (Db.table db Workload.parts_table) (fun _ t -> rows := t :: !rows);
  List.sort Tuple.compare !rows

let rows_equal a b =
  List.length a = List.length b && List.for_all2 (fun x y -> Tuple.compare x y = 0) a b

type db_progress = { mutable committed : op list (* newest first *); mutable in_flight : op option }

let snapshot_rows db txn =
  List.sort Tuple.compare (Db.select db txn Workload.parts_table ())

(* explicit begin/commit (not with_txn): after a crash the process is
   dead, so no abort should be attempted on the way out.

   A long-lived snapshot reader is opened after the first commit and
   re-checked after every later commit: the crash sweep thus lands fault
   points inside every version-store code path (note/publish on the
   write side, chain resolution and reader-pinned GC on the read side)
   and proves a stale reader never perturbs what recovery rebuilds. *)
let run_db_workload spec vfs ops progress =
  let db = Db.create ~pool_pages:64 ~vfs ~name:"src" () in
  Db.set_day db 0;
  if spec.group > 1 then Db.set_sync_mode db (`Group spec.group);
  let (_ : Table.t) = Workload.create_parts_table db in
  let snap = ref None in
  List.iteri
    (fun i op ->
      progress.in_flight <- Some op;
      let txn = Db.begin_txn db in
      List.iter (fun s -> ignore (Db.exec db txn s : Db.exec_result)) (stmts_of spec op);
      Db.commit db txn;
      progress.committed <- op :: progress.committed;
      progress.in_flight <- None;
      (match !snap with
       | Some (s, frozen) ->
         if snapshot_rows db s <> frozen then failwith "crash-sim: snapshot reader drifted"
       | None ->
         let s = Db.begin_txn ~mode:`Snapshot db in
         snap := Some (s, snapshot_rows db s));
      if spec.checkpoint_every > 0 && (i + 1) mod spec.checkpoint_every = 0 then
        Db.checkpoint db)
    ops;
  (match !snap with Some (s, _) -> Db.commit db s | None -> ());
  db

let parts_catalog = [ (Workload.parts_table, Workload.parts_schema, Some "last_modified") ]

let reopen_src vfs =
  Vfs.crash_reset vfs;
  let db, (_ : Dw_txn.Recovery.stats) =
    Db.reopen ~pool_pages:64 ~vfs ~name:"src" ~tables:parts_catalog ()
  in
  Db.set_day db 0;
  db

(* one crash point: run under [plan], restart over the surviving bytes,
   check the visible rows are exactly the committed model (the in-flight
   transaction may additionally be visible as a whole), then prove the
   db is usable: commit one more row and make it survive a second
   restart. *)
let run_db_crash_point spec ops ~totals plan =
  let vfs = Vfs.in_memory () in
  Vfs.set_fault vfs (Some plan);
  let progress = { committed = []; in_flight = None } in
  (match run_db_workload spec vfs ops progress with
   | (_ : Db.t) -> ()
   | exception Fault.Crash _ -> ());
  let db = reopen_src vfs in
  let committed = List.rev progress.committed in
  let act = actual_rows db in
  let visible =
    if rows_equal act (model_rows spec committed) then Some committed
    else
      match progress.in_flight with
      | Some op when rows_equal act (model_rows spec (committed @ [ op ])) ->
        Some (committed @ [ op ])
      | Some _ | None -> None
  in
  let result =
    match visible with
    | None ->
      Error
        (Printf.sprintf
           "recovered state matches neither committed (%d txns) nor committed+in-flight: %d rows"
           (List.length committed) (List.length act))
    | Some visible_ops ->
      if Dw_txn.Version_store.entries (Db.version_store db) <> 0 then
        Error "recovery left entries in the version store"
      else begin
        (* snapshot isolation must hold on the recovered instance: a
           reader opened before the probe commit never sees it *)
        let snap = Db.begin_txn ~mode:`Snapshot db in
        let frozen = snapshot_rows db snap in
        let probe = Insert { first_id = 1_000_000; size = 1 } in
        let txn = Db.begin_txn db in
        List.iter (fun s -> ignore (Db.exec db txn s : Db.exec_result)) (stmts_of spec probe);
        Db.commit db txn;
        let snap_ok = snapshot_rows db snap = frozen in
        Db.commit db snap;
        if not snap_ok then Error "post-recovery snapshot saw the probe commit"
        else begin
          let db2 = reopen_src vfs in
          if rows_equal (actual_rows db2) (model_rows spec (visible_ops @ [ probe ])) then Ok ()
          else Error "post-recovery commit did not survive a second restart"
        end
      end
  in
  accumulate totals vfs;
  result

let explore ?(spec = default_db_spec) ?stride () =
  let ops = ops_of_spec spec in
  sweep ?stride ~seed:spec.seed (run_db_crash_point spec ops)

(* ---------- persistent-queue explorer ---------- *)

type queue_spec = {
  messages : int;
  ack_every : int;  (* drain the queue after every n-th enqueue; 0 = never *)
  qseed : int;
}

let default_queue_spec = { messages = 12; ack_every = 4; qseed = 9 }

type queue_progress = {
  mutable enqueued : string list;  (* completed enqueues, newest first *)
  mutable enq_in_flight : string option;
  mutable acked : string list;
  mutable ack_in_flight : string option;
}

let run_queue_workload spec vfs p =
  let rng = Prng.create ~seed:spec.qseed in
  let q = Pq.open_ vfs ~name:"deltas" in
  for i = 1 to spec.messages do
    let m = Printf.sprintf "msg-%04d-%s" i (Prng.alpha_string rng 8) in
    p.enq_in_flight <- Some m;
    Pq.enqueue q m;
    p.enqueued <- m :: p.enqueued;
    p.enq_in_flight <- None;
    if spec.ack_every > 0 && i mod spec.ack_every = 0 then begin
      let continue = ref true in
      while !continue do
        match Pq.peek q with
        | None -> continue := false
        | Some m ->
          p.ack_in_flight <- Some m;
          Pq.ack q;
          p.acked <- m :: p.acked;
          p.ack_in_flight <- None
      done
    end
  done;
  q

let drain q =
  let rec go acc =
    match Pq.peek q with
    | None -> List.rev acc
    | Some m ->
      Pq.ack q;
      go (m :: acc)
  in
  go []

(* at-least-once invariant: after a crash at any point, every completed
   enqueue that was not (possibly) consumed must be redelivered; nothing
   that was never enqueued may appear; and the re-opened queue must
   still accept and retain new messages across another restart. *)
let run_queue_crash_point spec ~totals plan =
  let vfs = Vfs.in_memory () in
  Vfs.set_fault vfs (Some plan);
  let p = { enqueued = []; enq_in_flight = None; acked = []; ack_in_flight = None } in
  (match run_queue_workload spec vfs p with
   | (_ : Pq.t) -> ()
   | exception Fault.Crash _ -> ());
  Vfs.crash_reset vfs;
  let q = Pq.open_ vfs ~name:"deltas" in
  let delivered = drain q in
  let required =
    List.filter
      (fun m -> not (List.mem m p.acked) && p.ack_in_flight <> Some m)
      (List.rev p.enqueued)
  in
  let lost = List.filter (fun m -> not (List.mem m delivered)) required in
  let phantom =
    List.filter
      (fun m -> not (List.mem m p.enqueued) && p.enq_in_flight <> Some m)
      delivered
  in
  let result =
    if lost <> [] then
      Error (Printf.sprintf "lost %d unacked message(s), e.g. %s" (List.length lost)
               (List.hd lost))
    else if phantom <> [] then
      Error (Printf.sprintf "delivered %d phantom message(s), e.g. %s" (List.length phantom)
               (List.hd phantom))
    else begin
      (* the repaired log must keep accepting messages durably *)
      Pq.enqueue q "probe-after-recovery";
      Vfs.crash_reset vfs;
      let q2 = Pq.open_ vfs ~name:"deltas" in
      if List.mem "probe-after-recovery" (drain q2) then Ok ()
      else Error "post-recovery enqueue lost after a second restart"
    end
  in
  accumulate totals vfs;
  result

let explore_queue ?(spec = default_queue_spec) ?stride () =
  sweep ?stride ~seed:spec.qseed (run_queue_crash_point spec)

(* ---------- batched-queue explorer ---------- *)

(* The coalesced transport path: enqueue_batch appends a whole batch of
   frames under one fsync, ack_run consumes whole runs under one sidecar
   write.  New crash windows vs the per-message path:

   - mid-batch append: the torn write may persist a frame-boundary
     PREFIX of the batch (the tail-repair truncates the rest) — allowed,
     because none of the batch was acknowledged, but the surviving
     subset must be a prefix (no holes, no reordering);
   - mid-ack_run: the sidecar write is one event, so the whole run is
     either consumed or redelivered — never split. *)

type batched_queue_spec = {
  b_messages : int;
  batch : int;  (* messages per enqueue_batch *)
  run : int;    (* max messages per peek_run/ack_run *)
  bseed : int;
}

let default_batched_queue_spec = { b_messages = 18; batch = 3; run = 4; bseed = 13 }

type batched_queue_progress = {
  mutable b_enqueued : string list;  (* completed batches' messages, newest first *)
  mutable b_enq_in_flight : string list;  (* batch being appended, in order *)
  mutable b_acked : string list;
  mutable b_ack_in_flight : string list;  (* run being acked, in order *)
}

let batched_queue_batches spec =
  let rng = Prng.create ~seed:spec.bseed in
  let msgs =
    List.init spec.b_messages (fun i ->
        Printf.sprintf "msg-%04d-%s" (i + 1) (Prng.alpha_string rng 8))
  in
  let rec split acc = function
    | [] -> List.rev acc
    | rest ->
      let b = List.filteri (fun i _ -> i < spec.batch) rest in
      let rest = List.filteri (fun i _ -> i >= spec.batch) rest in
      split (b :: acc) rest
  in
  split [] msgs

let drain_runs spec p q =
  let continue = ref true in
  while !continue do
    match Pq.peek_run q ~max:spec.run with
    | [] -> continue := false
    | run ->
      p.b_ack_in_flight <- run;
      Pq.ack_run q (List.length run);
      p.b_acked <- List.rev_append run p.b_acked;
      p.b_ack_in_flight <- []
  done

let run_batched_queue_workload spec vfs p =
  let q = Pq.open_ vfs ~name:"deltas" in
  List.iteri
    (fun i batch ->
      p.b_enq_in_flight <- batch;
      Pq.enqueue_batch q batch;
      p.b_enqueued <- List.rev_append batch p.b_enqueued;
      p.b_enq_in_flight <- [];
      if (i + 1) mod 2 = 0 then drain_runs spec p q)
    (batched_queue_batches spec);
  q

(* [sub] must be a prefix of [full] — the only shape a torn batch append
   may survive in *)
let rec is_prefix sub full =
  match (sub, full) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys -> x = y && is_prefix xs ys

let run_batched_queue_crash_point spec ~totals plan =
  let vfs = Vfs.in_memory () in
  Vfs.set_fault vfs (Some plan);
  let p = { b_enqueued = []; b_enq_in_flight = []; b_acked = []; b_ack_in_flight = [] } in
  (match run_batched_queue_workload spec vfs p with
   | (_ : Pq.t) -> ()
   | exception Fault.Crash _ -> ());
  Vfs.crash_reset vfs;
  let q = Pq.open_ vfs ~name:"deltas" in
  let delivered =
    let rec go acc =
      match Pq.peek_run q ~max:spec.run with
      | [] -> List.rev acc
      | run ->
        Pq.ack_run q (List.length run);
        go (List.rev_append run acc)
    in
    go []
  in
  let required =
    List.filter
      (fun m -> not (List.mem m p.b_acked) && not (List.mem m p.b_ack_in_flight))
      (List.rev p.b_enqueued)
  in
  let lost = List.filter (fun m -> not (List.mem m delivered)) required in
  let phantom =
    List.filter
      (fun m -> not (List.mem m p.b_enqueued) && not (List.mem m p.b_enq_in_flight))
      delivered
  in
  let torn_survivors = List.filter (fun m -> List.mem m delivered) p.b_enq_in_flight in
  let result =
    if lost <> [] then
      Error
        (Printf.sprintf "lost %d unacked message(s), e.g. %s" (List.length lost) (List.hd lost))
    else if phantom <> [] then
      Error
        (Printf.sprintf "delivered %d phantom message(s), e.g. %s" (List.length phantom)
           (List.hd phantom))
    else if not (is_prefix torn_survivors p.b_enq_in_flight) then
      Error "torn batch survived as a non-prefix subset (hole or reorder inside the batch)"
    else begin
      (* the repaired log must keep accepting batches durably *)
      Pq.enqueue_batch q [ "probe-1"; "probe-2" ];
      Vfs.crash_reset vfs;
      let q2 = Pq.open_ vfs ~name:"deltas" in
      let redelivered = drain q2 in
      if List.mem "probe-1" redelivered && List.mem "probe-2" redelivered then Ok ()
      else Error "post-recovery batch enqueue lost after a second restart"
    end
  in
  accumulate totals vfs;
  result

let explore_batched_queue ?(spec = default_batched_queue_spec) ?stride () =
  sweep ?stride ~seed:spec.bseed (run_batched_queue_crash_point spec)

(* ---------- warehouse-refresh idempotency explorer ---------- *)

(* Delta batches travel through the queue; the consumer applies each to
   the warehouse and advances a watermark (highest applied batch id) in
   the SAME warehouse transaction, then acks.  A crash between commit
   and ack redelivers the batch; the watermark makes the redelivery a
   no-op.  Faults are injected on the queue's vfs only (the consumer
   process dies mid-refresh); the warehouse survives as bytes and is
   re-opened through its own WAL recovery. *)

type refresh_spec = { batches : int; batch_size : int; rseed : int }

let default_refresh_spec = { batches = 8; batch_size = 4; rseed = 11 }

let wm_table = "refresh_watermark"

let wm_schema =
  Schema.make
    [
      { Schema.name = "id"; ty = Value.Tint; nullable = false };
      { Schema.name = "last_batch"; ty = Value.Tint; nullable = false };
    ]

let encode_batch ~bid ~first_id ~size = Printf.sprintf "%d %d %d" bid first_id size
let decode_batch s = Scanf.sscanf s "%d %d %d" (fun a b c -> (a, b, c))

let fresh_warehouse () =
  let vfs = Vfs.in_memory () in
  let db = Db.create ~pool_pages:64 ~vfs ~name:"wh" () in
  Db.set_day db 0;
  let (_ : Table.t) = Workload.create_parts_table db in
  let (_ : Table.t) = Db.create_table db ~name:wm_table wm_schema in
  Db.with_txn db (fun txn ->
      ignore (Db.insert db txn wm_table [| Value.Int 0; Value.Int 0 |] : Dw_storage.Heap_file.rid));
  (vfs, db)

let wh_catalog = parts_catalog @ [ (wm_table, wm_schema, None) ]

let reopen_warehouse vfs =
  Vfs.crash_reset vfs;
  let db, (_ : Dw_txn.Recovery.stats) =
    Db.reopen ~pool_pages:64 ~vfs ~name:"wh" ~tables:wh_catalog ()
  in
  Db.set_day db 0;
  db

let watermark db txn =
  match Db.select db txn wm_table () with
  | [ [| _; Value.Int wm |] ] -> wm
  | _ -> invalid_arg "refresh watermark table corrupted"

let apply_batch spec wh msg =
  let bid, first_id, size = decode_batch msg in
  Db.with_txn wh (fun txn ->
      if bid > watermark wh txn then begin
        List.iter
          (fun s -> ignore (Db.exec wh txn s : Db.exec_result))
          (Workload.insert_parts_txn ~seed:spec.rseed ~first_id ~size ~day:0 ());
        ignore
          (Db.update_where wh txn wm_table
             ~set:[ ("last_batch", Expr.Lit (Value.Int bid)) ]
             ~where:None
            : int)
      end)

let consume spec q wh =
  let continue = ref true in
  while !continue do
    match Pq.peek q with
    | None -> continue := false
    | Some m ->
      apply_batch spec wh m;
      Pq.ack q
  done

let produce spec qvfs =
  let q = Pq.open_ qvfs ~name:"deltas" in
  for bid = 1 to spec.batches do
    Pq.enqueue q
      (encode_batch ~bid ~first_id:(1 + ((bid - 1) * spec.batch_size)) ~size:spec.batch_size)
  done

let run_refresh_crash_point spec ~totals plan =
  let qvfs = Vfs.in_memory () in
  produce spec qvfs;
  Vfs.set_fault qvfs (Some plan);
  let whvfs, wh = fresh_warehouse () in
  (match
     let q = Pq.open_ qvfs ~name:"deltas" in
     consume spec q wh
   with
   | () -> ()
   | exception Fault.Crash _ -> ());
  (* restart: both the queue and the warehouse come back from bytes *)
  Vfs.crash_reset qvfs;
  let wh2 = reopen_warehouse whvfs in
  let q2 = Pq.open_ qvfs ~name:"deltas" in
  consume spec q2 wh2;
  let expected =
    model_rows
      { txns = 0; txn_size = 0; seed = spec.rseed; checkpoint_every = 0; group = 1 }
      (List.init spec.batches (fun i ->
           Insert { first_id = 1 + (i * spec.batch_size); size = spec.batch_size }))
  in
  let act = actual_rows wh2 in
  let wm = Db.with_txn wh2 (fun txn -> watermark wh2 txn) in
  let result =
    if not (rows_equal act expected) then
      Error
        (Printf.sprintf "refresh not exactly-once: %d rows vs %d expected" (List.length act)
           (List.length expected))
    else if wm <> spec.batches then
      Error (Printf.sprintf "watermark %d after %d batches" wm spec.batches)
    else Ok ()
  in
  accumulate totals qvfs;
  result

let explore_refresh ?(spec = default_refresh_spec) ?stride () =
  sweep ?stride ~seed:spec.rseed (run_refresh_crash_point spec)

(* ---------- micro-batched refresh explorer ---------- *)

(* Like the refresh explorer, but the consumer applies a RUN of delta
   batches per warehouse transaction (the micro-batched integrator's
   shape): every batch in the run with bid > watermark is applied and
   the watermark advances to the run's last bid, all in one transaction,
   then the whole run is acked at once.  A crash mid-run must leave the
   warehouse at a batch (source-transaction) boundary: either the whole
   run's transaction committed or none of it, and redelivery after the
   crash is filtered by the watermark — still exactly-once. *)

let apply_run spec wh msgs =
  match msgs with
  | [] -> ()
  | _ ->
    Db.with_txn wh (fun txn ->
        let wm = watermark wh txn in
        let last = ref wm in
        List.iter
          (fun msg ->
            let bid, first_id, size = decode_batch msg in
            if bid > wm then begin
              List.iter
                (fun s -> ignore (Db.exec wh txn s : Db.exec_result))
                (Workload.insert_parts_txn ~seed:spec.rseed ~first_id ~size ~day:0 ());
              last := max !last bid
            end)
          msgs;
        if !last > wm then
          ignore
            (Db.update_where wh txn wm_table
               ~set:[ ("last_batch", Expr.Lit (Value.Int !last)) ]
               ~where:None
              : int))

let consume_runs spec ~run q wh =
  let continue = ref true in
  while !continue do
    match Pq.peek_run q ~max:run with
    | [] -> continue := false
    | msgs ->
      apply_run spec wh msgs;
      Pq.ack_run q (List.length msgs)
  done

let run_batched_refresh_crash_point spec ~run ~totals plan =
  let qvfs = Vfs.in_memory () in
  produce spec qvfs;
  Vfs.set_fault qvfs (Some plan);
  let whvfs, wh = fresh_warehouse () in
  (match
     let q = Pq.open_ qvfs ~name:"deltas" in
     consume_runs spec ~run q wh
   with
   | () -> ()
   | exception Fault.Crash _ -> ());
  Vfs.crash_reset qvfs;
  let wh2 = reopen_warehouse whvfs in
  let q2 = Pq.open_ qvfs ~name:"deltas" in
  consume_runs spec ~run q2 wh2;
  let expected =
    model_rows
      { txns = 0; txn_size = 0; seed = spec.rseed; checkpoint_every = 0; group = 1 }
      (List.init spec.batches (fun i ->
           Insert { first_id = 1 + (i * spec.batch_size); size = spec.batch_size }))
  in
  let act = actual_rows wh2 in
  let wm = Db.with_txn wh2 (fun txn -> watermark wh2 txn) in
  let result =
    if not (rows_equal act expected) then
      Error
        (Printf.sprintf "batched refresh not exactly-once: %d rows vs %d expected"
           (List.length act) (List.length expected))
    else if wm <> spec.batches then
      Error (Printf.sprintf "watermark %d after %d batches" wm spec.batches)
    else Ok ()
  in
  accumulate totals qvfs;
  result

let explore_refresh_batched ?(spec = default_refresh_spec) ?(run = 3) ?stride () =
  sweep ?stride ~seed:spec.rseed (run_batched_refresh_crash_point spec ~run)

(* ---------- transient-fault file shipping ---------- *)

(* ship a file onto a destination where 20%+ of writes and fsyncs fail
   transiently; retries must absorb every fault and the copy must be
   byte-identical.  Returns (stats, bytes_match). *)
let ship_under_faults ?(bytes = 128 * 1024) ?(fault_p = 0.25) ~seed () =
  let src = Vfs.in_memory () in
  let rng = Prng.create ~seed in
  let payload = Bytes.init bytes (fun _ -> Char.chr (Prng.int rng 256)) in
  let f = Vfs.create src "delta.bin" in
  Vfs.write_at f ~off:0 payload;
  Vfs.close f;
  let dst = Vfs.in_memory () in
  Vfs.set_fault dst
    (Some (Fault.make ~write_fail_p:fault_p ~fsync_fail_p:fault_p ~seed:(seed + 1) ()));
  let result =
    Dw_transport.File_ship.ship ~chunk_size:4096 ~max_retries:64 ~src ~src_name:"delta.bin"
      ~dst ~dst_name:"delta.bin" ()
  in
  match result with
  | Error e -> Error e
  | Ok stats ->
    let g = Vfs.open_existing dst "delta.bin" in
    let copied = Vfs.read_at g ~off:0 ~len:(Vfs.size g) in
    Vfs.close g;
    Ok (stats, Bytes.equal payload copied)

(* ---------- bench entry point (dwbench "crash") ---------- *)

let print_report name r =
  Printf.printf "%-10s %5d events  %4d crash points  %d failures\n" name r.total_events
    r.explored (List.length r.failures);
  List.iter (fun (k, msg) -> Printf.printf "    FAIL at event %d: %s\n" k msg) r.failures

let run_bench ~scale =
  Bench_support.section "crash-point exploration (fault-injection VFS)";
  let stride = 8 in
  let db_spec = { default_db_spec with txns = default_db_spec.txns * scale } in
  let q_spec = { default_queue_spec with messages = default_queue_spec.messages * scale } in
  let r_spec = { default_refresh_spec with batches = default_refresh_spec.batches * scale } in
  let g_spec = { db_spec with group = grouped_db_spec.group } in
  let bq_spec =
    { default_batched_queue_spec with b_messages = default_batched_queue_spec.b_messages * scale }
  in
  let db_report, db_t = Bench_support.time (fun () -> explore ~spec:db_spec ~stride ()) in
  let g_report, g_t = Bench_support.time (fun () -> explore ~spec:g_spec ~stride ()) in
  let q_report, q_t = Bench_support.time (fun () -> explore_queue ~spec:q_spec ~stride ()) in
  let bq_report, bq_t =
    Bench_support.time (fun () -> explore_batched_queue ~spec:bq_spec ~stride ())
  in
  let r_report, r_t =
    Bench_support.time (fun () -> explore_refresh ~spec:r_spec ~stride ())
  in
  let br_report, br_t =
    Bench_support.time (fun () -> explore_refresh_batched ~spec:r_spec ~stride ())
  in
  print_report "db" db_report;
  print_report "db-group" g_report;
  print_report "queue" q_report;
  print_report "queue-bat" bq_report;
  print_report "refresh" r_report;
  print_report "refresh-b" br_report;
  Printf.printf "sweep times: db %s (+group %s), queue %s (+batched %s), refresh %s (+batched %s)\n"
    (Bench_support.dur db_t) (Bench_support.dur g_t) (Bench_support.dur q_t)
    (Bench_support.dur bq_t) (Bench_support.dur r_t) (Bench_support.dur br_t);
  (match ship_under_faults ~seed:(77 + scale) () with
   | Error e -> Printf.printf "ship under 25%% transient faults: FAILED (%s)\n" e
   | Ok (stats, identical) ->
     Printf.printf "ship under 25%% transient faults: %d bytes, %d chunks, %d retries, %s\n"
       stats.Dw_transport.File_ship.bytes stats.Dw_transport.File_ship.chunks
       stats.Dw_transport.File_ship.retries
       (if identical then "byte-identical" else "CORRUPTED"));
  let totals = merge [ db_report; g_report; q_report; bq_report; r_report; br_report ] in
  let rows =
    List.map
      (fun (name, v) -> [ name; string_of_int v ])
      (Metrics.diff ~before:[] ~after:totals.fault_metrics)
  in
  Bench_support.print_table ~title:"injected faults and recovery work (totals)"
    ~header:[ "counter"; "total" ] ~rows
