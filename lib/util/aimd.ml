type t = {
  metrics : Metrics.t;
  gauge : string;
  floor : int;
  ceiling : int;
  threshold_s : float;
  mutable target : int;
}

let create metrics ~gauge ~floor ~ceiling ~threshold_s =
  if floor < 1 then invalid_arg "Aimd.create: floor < 1";
  if ceiling < floor then invalid_arg "Aimd.create: ceiling < floor";
  { metrics; gauge; floor; ceiling; threshold_s; target = ceiling }

let target t = t.target

let step t =
  let p95 = Metrics.percentile t.metrics "lock.wait" 0.95 in
  t.target <-
    (if p95 > t.threshold_s then max t.floor (t.target / 2) else min t.ceiling (t.target + 1));
  Metrics.set_gauge t.metrics t.gauge (float_of_int t.target)
