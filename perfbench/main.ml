(* perfbench: the repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Prints the metrics one per line ("# name = value unit"), a JSON line
   with the run's provenance (host, seed, sizes, input hash, reported
   percentiles and sample counts), and as its last line the result
   object {"correct", "attempted", "failed", "metrics"}.  Exits 1 when
   the warehouse fails the correctness gate, 2 on bad arguments. *)

open Perfbench
module Json = Dw_util.Json

(* failed_frac is 0 on a healthy run, so it is reported through the
   result's "attempted"/"failed" counts rather than as a metric *)
let result_excluded = [ "failed_frac"; "overhead.failed_frac" ]

let usage () =
  prerr_endline
    ("usage: perfbench --workload ("
    ^ String.concat "|" (List.map (fun w -> w.Workloads.name) Workloads.all)
    ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let known = [ "workload"; "seed"; "seconds"; "trace" ] in
  let rec parse acc = function
    | [] -> acc
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      let k = String.sub k 2 (String.length k - 2) in
      if List.mem k known && not (List.mem_assoc k acc) then parse ((k, v) :: acc) rest
      else usage ()
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k conv =
    match Option.bind (List.assoc_opt k opts) conv with Some v -> v | None -> usage ()
  in
  let workload = get "workload" Workloads.find in
  let seed = get "seed" int_of_string_opt in
  let seconds = get "seconds" float_of_string_opt in
  let trace =
    get "trace" (function "0" -> Some false | "1" -> Some true | _ -> None)
  in
  if seconds <= 0.0 then usage ();
  let o = Bench.run workload ~seed ~seconds ~trace () in
  List.iter
    (fun m -> Printf.printf "# %s = %.6g %s\n" m.Bench.name m.Bench.value m.Bench.unit_)
    o.Bench.metrics;
  print_endline (Json.to_string (Json.Obj [ ("perfbench", Json.Obj o.Bench.info) ]));
  let metrics =
    List.filter_map
      (fun m ->
        if List.mem m.Bench.name result_excluded then None
        else
          Some
            ( m.Bench.name,
              Json.Obj
                [ ("value", Json.Float m.Bench.value); ("unit", Json.String m.Bench.unit_) ] ))
      o.Bench.metrics
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool o.Bench.correct);
            ("attempted", Json.Int o.Bench.attempted);
            ("failed", Json.Int o.Bench.failed);
            ("metrics", Json.Obj metrics);
          ]));
  if not o.Bench.correct then exit 1
