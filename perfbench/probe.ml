(* A fixed piece of memory-bound work, timed before each cycle of the
   benchmark to tell how fast the host is running at that moment.  On a
   shared host the same code runs up to half again as slow while the
   neighbours are busy, and the program's cache-hungry paths slow down
   with it; the report scales its timings by the probe (see [Bench]).
   The probe allocates nothing, so the program's heap cannot move its
   time, and it is independent of the library, so no change to the
   program can move it either. *)

(* 16 MiB of ints, walked in a pseudo-random order: past the private
   caches, as the program's own data is.  It lives outside the OCaml
   heap, so it does not count in [peak_heap_mb]. *)
let slots = 1 lsl 21
let buf = Bigarray.(Array1.init Int C_layout slots (fun _ -> 0))
let steps = 1 lsl 16

let run () =
  let t0 = Sys.time () in
  let x = ref 0x2545F491 in
  for i = 1 to steps do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land (slots - 1) in
    Bigarray.Array1.unsafe_set buf j (Bigarray.Array1.unsafe_get buf j + i)
  done;
  Sys.time () -. t0

(* the probe's time on the reference host: timings are reported as if
   they had run on a host where [run] takes this long (about this one,
   a 2-vCPU 2.0 GHz Xeon guest, running at full speed) *)
let reference_s = 0.001

(* the program slows down somewhat more than the probe does when the
   host is busy, so a time is scaled by (reference / probe) to this
   power.  Over seven sets of runs on the tuning host, 1.25 left a
   smaller worst-case spread than 1.0 in every set; 1.5 left a larger
   one than 1.0 in one set (README.md). *)
let elasticity = 1.25

(* the factor a time is multiplied by, given the mean probe around it *)
let factor probe_s = (reference_s /. probe_s) ** elasticity

(* cycles on each side of a cycle whose probes make up its host reading:
   about three seconds, long enough that one disturbed probe does not
   move it much, short enough to follow the host *)
let half_window = 22

(* the factor for each cycle, from the mean probe of the cycles around
   it *)
let scales probes =
  let n = Array.length probes in
  Array.init n (fun i ->
      let lo = max 0 (min (i - half_window) (n - (2 * half_window) - 1)) in
      let hi = min n (lo + (2 * half_window) + 1) in
      let sum = ref 0.0 in
      for j = lo to hi - 1 do
        sum := !sum +. probes.(j)
      done;
      factor (!sum /. float_of_int (hi - lo)))
