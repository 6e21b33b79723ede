(** Group commit: one fsync amortized across a batch of writers.

    Writers encode their journal records under the variant writer lock,
    {!submit} them to a per-journal-file lane, and block on the returned
    {!ticket}; a single flusher thread hands each lane's pending records
    to [flush] as one batch — the service's journal writer appends them
    with {e one} append + fsync — and settles every ticket in the batch.
    An acknowledged ticket therefore still implies durability — the fsync
    cost is just shared by everyone whose record rode in the batch.

    {2 Flush policy}

    A lane is flushed when any of these holds:
    - it has at least [max_batch] pending records;
    - its oldest record has waited [max_linger] seconds, counted from the
      later of its submission and the lane's last flush;
    - [flush_on_idle] is set and the lane has regrouped: as many records
      are pending as its last flush carried plus those that queued behind
      that flush, i.e. every writer of the last batch is back aboard (a
      lone writer's lane is regrouped on every submit, so it never
      lingers);
    - [flush_on_idle] is set, the lane has never flushed, and no new
      record arrived anywhere during the last tick;
    - a {!drain} or {!stop} forces it out.

    The flusher re-examines the lanes on every submit that can ripen one
    (a lane's first record, or one that fills it) and on every drain and
    stop, so a lane leaves on the event that ripens it.  Only the two
    timed rules wait for a tick ([max_linger / 4], between 50 µs and
    2 ms), which an alarm thread times with the injected [sleep].

    {2 Failure semantics}

    A flush failure (after the caller's [flush] has exhausted its own
    retries) fails {e every} ticket in the batch — nothing in it is
    acknowledged.  The coordinator holds no failure state: records queued
    behind the failed batch go out in the next batch, and the service's
    journal writer ({!Repository.Store.append_records}) refuses them, as
    they do not extend its durable session.

    {2 Ordering}

    Records are flushed in submission order per lane, and the optional
    [on_durable] callbacks of a batch run {e in that order} on the flusher
    thread before any of the batch's tickets settle — the service uses this
    to publish engine snapshots in exactly journal order (publish-before-ack,
    DESIGN.md §11). *)

type policy = {
  max_batch : int;  (** flush when this many records are pending *)
  max_linger : float;  (** max seconds the oldest record may wait *)
  flush_on_idle : bool;  (** flush a short batch when submissions pause *)
}

val default_policy : policy
(** [{ max_batch = 64; max_linger = 0.002; flush_on_idle = true }]. *)

type 'a t

type ticket
(** One submitted record's handle; settled exactly once. *)

exception Stopped
(** The failure a ticket settles with when its record was submitted to a
    stopped coordinator (server shutdown won the race). *)

val create :
  ?policy:policy ->
  ?now:(unit -> float) ->
  ?sleep:(float -> unit) ->
  flush:(path:string -> 'a list -> unit) ->
  ?on_flush:(path:string -> batch:int -> linger:float -> seconds:float -> unit) ->
  unit ->
  'a t
(** Start a coordinator (spawns the flusher thread; the first linger
    starts the alarm thread that times ticks with [sleep]).  [flush] must
    make the batch's records (in submission order) durable at [path] or
    raise — it runs on the flusher thread and owns its own retry
    discipline.  [on_flush] observes each successful batch for the
    metrics layer: its record count, how long its
    oldest record waited before the flush started ([linger]), and the
    flush latency ([seconds]). *)

val submit : 'a t -> path:string -> ?on_durable:(unit -> unit) -> 'a -> ticket
(** Enqueue a record (the service's may hold no bytes, to order a pure
    in-memory state change behind the lane's pending records).  Returns
    immediately; the caller must {!await} the ticket before acknowledging.
    After {!stop}, the ticket is already failed. *)

val await : ticket -> (unit, exn) result
(** Block until the ticket settles.  [Ok] means the record — and every
    record submitted to the lane before it — is durable and its
    [on_durable] has run. *)

val drain : 'a t -> path:string -> unit
(** Force the lane out and wait until it has no pending records and no
    flush in flight.  Callers must drain before any whole-file journal
    rewrite (snapshot, recovery repair) — a rewrite that raced a batch
    append would duplicate the batch's records. *)

val drain_all : 'a t -> unit
(** {!drain} every lane; used before loading a session (the journal path
    is not known until the store is open). *)

val quiescent : 'a t -> path:string -> bool
(** No pending records and no flush in flight.  A writer with an empty
    delta may publish directly only when its lane is quiescent; otherwise
    it must submit an empty record to keep publish order equal to journal
    order. *)

val stop : 'a t -> unit
(** Flush everything still pending, stop the flusher thread, and join it.
    Subsequent submits fail immediately.  Idempotent. *)
