(** The multi-session design service (transport-agnostic core).

    Serves a multi-variant repository to many concurrent connections; each
    open variant is one shared session (engine state + durable store).
    Mutating requests serialize through a per-variant writer lock with
    bounded queues and per-request deadlines ([!busy]/[!retry-after]);
    read-only commands are served {e lock-free} from the variant's
    published immutable snapshot (single-writer MVCC, see {!Publish} and
    DESIGN.md §10).  Journal appends are batched across concurrent writers
    ({!Group_commit}: writers enqueue their encoded records and block on a
    ticket, one flusher thread pays a single fsync per batch), retried
    with jittered backoff, and acknowledged only once durable, and repeated failures trip a
    per-variant circuit breaker to read-only.  Successful responses carry
    the variant's publication stamp ([#version], monotone per variant);
    the writer publishes before acknowledging, so a connection always
    reads its own acknowledged writes.  Thread-safe: {!request} may be
    called from any number of threads. *)

type config = Service_types.config = {
  request_deadline : float;  (** seconds from arrival to shed *)
  max_waiters : int;  (** per-variant queue bound *)
  idle_timeout : float;  (** reaper frees sessions idle this long *)
  drain_timeout : float;  (** max wait for in-flight work at shutdown *)
  retry : Retry.policy;  (** around journal appends and snapshots *)
  breaker_threshold : int;
  breaker_cooldown : float;
  use_file_locks : bool;  (** advisory [.lock] per variant (real fs only) *)
  retry_after_ms : int;  (** hint sent with [!busy] *)
  flush_max_batch : int;
      (** flush a batch at this many pending records (default 64) *)
  flush_linger : float;
      (** max seconds a record waits for company before its batch is
          flushed anyway (default 0.002) *)
  flush_on_idle : bool;
      (** flush short batches as soon as submissions pause, so a lone
          writer is not held for the full linger (default [true]) *)
  follower : bool;
      (** serve as a replication follower (default [false]): sessions are
          never loaded from disk — the replication applier publishes
          replayed snapshots — so [@open] only attaches readonly to a
          published variant, and [@new] / non-readonly opens are refused
          with a pointer at the leader *)
  era : int;
      (** this writer's replication era (default [0]), checked against
          the store manifest at session load: a variant whose stored era
          is higher was fenced by a promotion — a newer writer owns it —
          and is refused here (see {!Replication.promote}) *)
  now : unit -> float;
  sleep : float -> unit;
  chaos_hook : (variant:string -> line:string -> unit) option;
      (** test-only: runs inside the variant lock before execution; an
          exception here models a worker thread killed mid-request.  Never
          fired on the lock-free read path (which holds no lock). *)
  instance_notes : (string * string) list;
      (** static identity notes appended to every [@stats] snapshot (e.g.
          a worker's shard id and socket under [--shards]) *)
  shard_span : (int * int) option;
      (** [(shard_id, shards)] when serving as one worker of a sharded
          deployment: [@query all] restricts to the variants this shard
          owns under rendezvous hashing, so the router's fan-out merges
          disjoint blocks *)
}

val default_config : config

type t = Service_types.t
(** Transparent so sibling subsystems with their own interfaces
    ({!Replication}) can accept a [Service.t] and still reach the shared
    internals through {!Service_types}.  External users should treat it
    as opaque — [Service_types] is not re-exported by {!Server}. *)

type conn

val open_service :
  ?config:config -> ?io:Repository.Io.t -> ?obs:Obs.t -> string -> (t, string) result
(** Open the multi-variant repository at the directory and serve it.

    [obs] (default: a fresh enabled registry) receives the service's
    counters, latency histograms, and request traces, served back over the
    protocol's [@stats] request; pass [Obs.noop] to disable every
    instrumentation point ([--no-obs]).  Every instrument is a value this
    service holds and each request's trace span is passed explicitly, so
    several services in one process each record only their own work. *)

val obs : t -> Obs.t
(** The registry the service records into. *)

val disarm_hooks : unit -> unit
(** A no-op.  There are no process-wide observation hooks any more; this
    stays only for existing callers and will be deleted with them. *)

val connect : t -> conn
(** A fresh connection context (one per client). *)

val request : t -> conn -> string -> Protocol.response
(** Execute one request line on behalf of [conn]; a mutating request
    blocks at most [request_deadline] (then sheds), a read-class request
    never queues.  Mutations are durable when the response is [!ok].  A
    connection attached with [@open v readonly] gets [!readonly] for any
    mutating command. *)

val disconnect : t -> conn -> unit
(** Drop the connection; its session detach behaves like [@close]. *)

val session_count : t -> int

val reap_idle : t -> int
(** Snapshot and free sessions idle past [idle_timeout]; busy variants —
    including any with a thread currently reading a published snapshot —
    are skipped.  Returns how many were reaped. *)

val shutdown : t -> (string * string) list
(** Drain in-flight requests (bounded by [drain_timeout]), snapshot every
    dirty session, release all locks; later requests get [!err].  Returns
    [(variant, reason)] for sessions whose snapshot failed — their
    journals remain authoritative. *)
