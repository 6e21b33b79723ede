(** Clocks for observability.

    [wall] is the system clock (for timestamps shown to humans).  [now] is
    the monotonic clock used for every duration measurement
    (CLOCK_MONOTONIC, read in nanoseconds): it never goes backwards, even
    across an NTP step, so a span can never report a negative latency,
    and it resolves phases far shorter than the wall clock's microsecond.
    Its values count from an arbitrary origin, so they are compared only
    with each other, never with a wall time. *)

let wall = Unix.gettimeofday

(** Seconds on the monotonic clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(** [monotonize clock] is [clock] clamped to its own (private) high-water
    mark — for tests that inject synthetic clocks. *)
let monotonize clock =
  let hw = Atomic.make neg_infinity in
  fun () ->
    let t = clock () in
    let rec publish () =
      let l = Atomic.get hw in
      if t > l then if Atomic.compare_and_set hw l t then t else publish ()
      else l
    in
    publish ()
