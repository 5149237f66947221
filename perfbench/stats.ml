(* Sample series, tail percentiles and failure tallies for the benchmark
   report.  Kept free of the library so the helpers can be tested on
   their own. *)

(* a growable float array: one per timed series *)
type series = { mutable data : float array; mutable len : int }

let series () = { data = Array.make 256 0.0; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len
let to_array s = Array.sub s.data 0 s.len

let sorted s =
  let a = to_array s in
  Array.sort Float.compare a;
  a

(* nearest-rank: the smallest sample with at least [p]% of the samples
   at or below it *)
let rank ~n p = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then 0.0 else a.(min n (rank ~n p) - 1)

let percentile s p = percentile_sorted (sorted s) p

(* The percentiles a tail may be reported at, highest first.  A series
   reports the highest one (up to its nominal percentile) that leaves at
   least [min_beyond] samples above it, so the reported tail is never
   set by a handful of samples; short series fall back to the median. *)
let tail_candidates = [ 99.0; 95.0; 90.0; 75.0; 50.0 ]
let min_beyond = 10

let beyond ~n p = n - rank ~n p

let tail_percentile ~nominal n =
  let ok p = p <= nominal && beyond ~n p >= min_beyond in
  match List.find_opt ok tail_candidates with Some p -> p | None -> 50.0

type tail = { value : float; pct : float; samples : int }

(* p50 and the tail of a series, both scaled by [scale] (e.g. 1000 for
   seconds -> ms).  [units] is the number of independent samples the
   tail rule counts, when samples come in groups that share their cause
   (default: every sample); the tail's [samples] is that number. *)
let median_and_tail ?(scale = 1.0) ?units ~nominal s =
  let a = sorted s in
  let n = Array.length a in
  let units = Option.value units ~default:n in
  let pct = tail_percentile ~nominal units in
  ( { value = scale *. percentile_sorted a 50.0; pct = 50.0; samples = n },
    { value = scale *. percentile_sorted a pct; pct; samples = units } )

let median xs =
  match xs with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* failures are counted against the operations attempted: commits,
   refreshes and reads alike *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let record t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let failed_frac t =
  if t.attempted = 0 then 0.0 else float_of_int t.failed /. float_of_int t.attempted

(* ratio of the median of the last quarter of a series to that of its
   first quarter: > 1 means per-item cost grows with run length *)
let drift s =
  let a = to_array s in
  let n = Array.length a in
  if n < 8 then 1.0
  else
    let q = n / 4 in
    let part off =
      let b = Array.sub a off q in
      Array.sort Float.compare b;
      percentile_sorted b 50.0
    in
    let first = part 0 in
    if first <= 0.0 then 1.0 else part (n - q) /. first
