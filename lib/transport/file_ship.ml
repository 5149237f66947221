module Vfs = Dw_storage.Vfs
module Metrics = Dw_util.Metrics
module Backoff = Dw_util.Backoff

type stats = { bytes : int; chunks : int; retries : int }

(* Retry a faultable operation with bounded equal-jitter exponential
   backoff (Dw_util.Backoff).  Chunk writes go through [Vfs.write_at]
   at a fixed offset, so re-running after a transient or torn write
   simply overwrites the partial data — the retry is idempotent. *)
let with_retry ~metrics ~max_retries ~backoff ~retries f =
  Vfs.Fault.retry ~backoff ~max_retries f ~on_retry:(fun pause ->
      incr retries;
      Metrics.incr metrics "retry.ship";
      (* backoff time is where a flaky link actually hurts the
         maintenance window: record the distribution, not just a count *)
      if pause > 0.0 then Metrics.observe metrics "ship.backoff" pause)

let ship ?(chunk_size = 64 * 1024) ?(max_retries = 8) ?(backoff_s = 0.0) ?(jitter_seed = 0) ~src
    ~src_name ~dst ~dst_name () =
  if chunk_size <= 0 then invalid_arg "File_ship.ship: chunk_size <= 0";
  if max_retries < 0 then invalid_arg "File_ship.ship: max_retries < 0";
  match Vfs.open_existing src src_name with
  | exception Not_found -> Error (Printf.sprintf "no such file %s" src_name)
  | src_file ->
    let out = Vfs.create dst dst_name in
    let total = Vfs.size src_file in
    let retries = ref 0 in
    let backoff = Backoff.create ~base_s:backoff_s ~seed:jitter_seed () in
    let retrying f =
      with_retry ~metrics:(Vfs.metrics dst) ~max_retries ~backoff ~retries f
    in
    let result =
      try
        Metrics.time (Vfs.metrics dst) "ship.total" (fun () ->
            let rec go off chunks =
              if off >= total then chunks
              else begin
                let len = min chunk_size (total - off) in
                Metrics.time (Vfs.metrics dst) "ship.chunk" (fun () ->
                    let data = Vfs.read_at src_file ~off ~len in
                    (* chunks are written and confirmed in order, and a
                       transient write persists nothing, so on retry [off]
                       still equals the durable size: rewriting at the same
                       offset is idempotent *)
                    retrying (fun () -> Vfs.write_at out ~off data));
                go (off + len) (chunks + 1)
              end
            in
            let chunks = go 0 0 in
            retrying (fun () -> Vfs.fsync out);
            Ok { bytes = total; chunks; retries = !retries })
      with Vfs.Fault.Transient op ->
        Error (Printf.sprintf "transient fault on %s persisted after %d retries" op max_retries)
    in
    Vfs.close out;
    Vfs.close src_file;
    result

(* Pack whole frames into blocks of at most [block_size] bytes.  A frame
   larger than the block size gets a block of its own — messages are
   never split across blocks, so every block decodes independently. *)
let pack_blocks ~block_size msgs =
  let framed = List.map (fun m -> Persistent_queue.encode_frames [ m ]) msgs in
  let rec go blocks cur cur_len = function
    | [] -> List.rev (if cur = [] then blocks else Buffer.to_bytes (flush_buf cur) :: blocks)
    | f :: rest ->
      let flen = Bytes.length f in
      if cur <> [] && cur_len + flen > block_size then
        go (Buffer.to_bytes (flush_buf cur) :: blocks) [ f ] flen rest
      else go blocks (f :: cur) (cur_len + flen) rest
  and flush_buf frames =
    let buf = Buffer.create 256 in
    List.iter (Buffer.add_bytes buf) (List.rev frames);
    buf
  in
  go [] [] 0 framed

let ship_messages ?(block_size = 64 * 1024) ?(max_retries = 8) ?(backoff_s = 0.0)
    ?(jitter_seed = 0) ~dst ~dst_name msgs =
  if block_size <= 0 then invalid_arg "File_ship.ship_messages: block_size <= 0";
  if max_retries < 0 then invalid_arg "File_ship.ship_messages: max_retries < 0";
  let out = Vfs.create dst dst_name in
  let metrics = Vfs.metrics dst in
  let retries = ref 0 in
  let backoff = Backoff.create ~base_s:backoff_s ~seed:jitter_seed () in
  let retrying f = with_retry ~metrics ~max_retries ~backoff ~retries f in
  let blocks = pack_blocks ~block_size msgs in
  let result =
    try
      Metrics.time metrics "ship.total" (fun () ->
          let rec go off chunks = function
            | [] -> (off, chunks)
            | block :: rest ->
              Metrics.time metrics "ship.chunk" (fun () ->
                  (* same idempotence argument as [ship]: fixed offset,
                     confirmed in order *)
                  retrying (fun () -> Vfs.write_at out ~off block));
              Metrics.observe metrics "ship.block_fill"
                (float_of_int (Bytes.length block) /. float_of_int block_size);
              go (off + Bytes.length block) (chunks + 1) rest
          in
          let bytes, chunks = go 0 0 blocks in
          retrying (fun () -> Vfs.fsync out);
          Metrics.add metrics "ship.msgs" (List.length msgs);
          Ok { bytes; chunks; retries = !retries })
    with Vfs.Fault.Transient op ->
      Error (Printf.sprintf "transient fault on %s persisted after %d retries" op max_retries)
  in
  Vfs.close out;
  result

let fetch_messages vfs ~name =
  match Vfs.open_existing vfs name with
  | exception Not_found -> Error (Printf.sprintf "no such file %s" name)
  | f ->
    let data = Vfs.read_at f ~off:0 ~len:(Vfs.size f) in
    Vfs.close f;
    Persistent_queue.decode_frames data
