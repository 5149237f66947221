(** A bounded AIMD run-length target, steered by reader lock waits.

    The warehouse's batched Op-Delta apply, the partitioned per-shard
    refresh and the bootstrap chunk loader all size their next unit of
    work the same way: the target opens at [ceiling]; after each unit,
    if the registry's [lock.wait] p95 exceeds [threshold_s] — long
    maintenance transactions are what make concurrent readers queue —
    the target halves (floored at [floor]), otherwise it grows by one
    (capped at [ceiling]).  Each step publishes the new target into the
    gauge named at creation. *)

type t

val create :
  Metrics.t -> gauge:string -> floor:int -> ceiling:int -> threshold_s:float -> t
(** A target at [ceiling], reading [lock.wait] from and publishing into
    the given registry.  Raises [Invalid_argument] if [floor < 1] or
    [ceiling < floor]. *)

val target : t -> int
(** The current run length. *)

val step : t -> unit
(** Re-read the [lock.wait] p95 and move the target: halve toward
    [floor] when the p95 is strictly above [threshold_s], else +1 toward
    [ceiling]; then set the gauge. *)
