(** Retry with jittered exponential backoff around transient IO failures.

    The repository layer surfaces every IO failure as [Sys_error] (after
    {!Repository.Io.unix} has already absorbed EINTR at the syscall level).
    A busy filesystem can still fail an append transiently — EAGAIN, a
    momentary ENOSPC, an NFS hiccup — and the service should absorb a short
    burst of those rather than degrade a variant.  Deterministic tests
    inject the sleep and the jitter source. *)

type policy = {
  max_attempts : int;  (** total tries, including the first *)
  base_delay : float;  (** seconds before the first retry *)
  max_delay : float;  (** backoff ceiling *)
  jitter : float;  (** fraction of the delay randomized away, [0..1] *)
}

let default =
  { max_attempts = 3; base_delay = 0.01; max_delay = 0.5; jitter = 0.5 }

(** Failures worth retrying: the repository's [Sys_error] wrapping of a
    syscall failure.  {!Repository.Io.Crash} (the injected power-loss
    point) and everything else is terminal.  A failed call may have taken
    effect, so the service retries only what repeats safely: its journal
    writer's append, which first restores the tail a failed call left
    ({!Repository.Store.append_records}), and its atomic snapshot. *)
let is_transient = function Sys_error _ -> true | _ -> false

let delay_for ~policy ~rand attempt =
  let exp = policy.base_delay *. (2.0 ** float_of_int attempt) in
  let capped = Float.min exp policy.max_delay in
  (* full jitter over the configured fraction: d * (1 - j + j*u) *)
  let u = Random.State.float rand 1.0 in
  capped *. (1.0 -. policy.jitter +. (policy.jitter *. u))

(** Run [f]; on a transient failure sleep a jittered backoff and try again,
    up to [policy.max_attempts] tries.  Returns the last failure when the
    budget is exhausted; non-transient exceptions fly through.

    Callers that retry concurrently should share one explicit [rand] (the
    service passes its per-service state): the jitter streams then
    interleave and the backoffs decorrelate.  When [rand] is omitted a
    fresh {e self-seeded} state is made on first use — never a fixed seed,
    which would hand every concurrent retry the identical jitter sequence
    and synchronize the backoffs into a thundering herd.  Tests that need
    reproducible delays pass an explicit seeded [rand].

    [on_retry] (if given) observes each backoff before the sleep — the
    observability layer counts retries and their delays with it.

    [deadline] (absolute, per [now]) bounds the whole retry budget: each
    backoff is clamped to the time remaining, and once none remains the
    last failure surfaces instead of sleeping.  Without the clamp a
    deadline shorter than the minimum backoff would leave the caller
    spinning through zero-length (or negative) sleeps — the sleep never
    advances the clock, the deadline check never fires inside [sleep],
    and the retries degenerate into a busy loop against a failing
    syscall. *)
let with_retries ?rand ?(sleep = Thread.delay) ?(now = Obs.Clock.now)
    ?deadline ?on_retry policy f =
  let rand =
    lazy
      (match rand with
      | Some r -> r
      | None -> Random.State.make_self_init ())
  in
  let rec go attempt =
    match f () with
    | v -> Ok v
    | exception e when is_transient e ->
        if attempt + 1 >= policy.max_attempts then Error e
        else begin
          let delay = delay_for ~policy ~rand:(Lazy.force rand) attempt in
          let delay =
            match deadline with
            | None -> delay
            | Some d -> Float.min delay (d -. now ())
          in
          if delay <= 0.0 then Error e
          else begin
            (match on_retry with
            | Some g -> g ~attempt ~delay
            | None -> ());
            sleep delay;
            go (attempt + 1)
          end
        end
  in
  go 0
