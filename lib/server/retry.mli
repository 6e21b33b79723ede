(** Retry with jittered exponential backoff around transient IO failures
    ([Sys_error]); everything else — including the fault injector's
    {!Repository.Io.Crash} — flies through untouched. *)

type policy = {
  max_attempts : int;  (** total tries, including the first *)
  base_delay : float;  (** seconds before the first retry *)
  max_delay : float;  (** backoff ceiling *)
  jitter : float;  (** fraction of the delay randomized away, [0..1] *)
}

val default : policy

val is_transient : exn -> bool

val delay_for : policy:policy -> rand:Random.State.t -> int -> float
(** The jittered backoff before retry number [attempt] (0-based). *)

val with_retries :
  ?rand:Random.State.t ->
  ?sleep:(float -> unit) ->
  ?now:(unit -> float) ->
  ?deadline:float ->
  ?on_retry:(attempt:int -> delay:float -> unit) ->
  policy ->
  (unit -> 'a) ->
  ('a, exn) result
(** Run the thunk, sleeping {!delay_for} between transient failures, up to
    [max_attempts] tries; [Error] carries the last failure.  Concurrent
    callers should share one explicit [rand] so their jitter decorrelates;
    the default is a fresh self-seeded state per call (never a fixed seed —
    that would synchronize concurrent backoffs into a thundering herd).
    Pass a seeded [rand] for reproducible delays in tests.  [on_retry]
    observes each backoff (0-based attempt, chosen delay) before the
    sleep.

    [deadline] (absolute, measured by [now], by default the monotonic
    {!Obs.Clock.now}) caps the retry budget: each
    backoff sleep is clamped to the remaining time, and when none remains
    the last failure is returned immediately — never a zero-length sleep
    loop.  Total time slept on behalf of one call is at most
    [deadline - now()] at entry. *)
