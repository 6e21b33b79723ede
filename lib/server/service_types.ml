(** Shared guts of the service: configuration, instruments, the session and
    service records, and the helpers every path (read / write / admin)
    leans on.  The public face is {!Service}; this module has no interface
    of its own and is not re-exported by {!Server}.

    Concurrency invariants, stated once here and relied on everywhere:

    - [t.mu] guards the [sessions] and [breakers] tables and per-session
      bookkeeping ([conns]); it is held only for table operations, never
      across engine or IO work.
    - A session's [state]/[dirty]/[last_used]/[flock] fields are written
      only while holding the variant's writer lock ({!with_writer}).
    - [t.pub] is the lock-free publication table: the writer publishes the
      committed state after every change and retracts it on eviction;
      readers and queries run on published snapshots with {e no} lock at
      all.  A publication is one immutable value: the [Engine.state] and
      the query view of its session, built together on the publishing
      thread ({!publish_state}).  It is immutable from the reader's point
      of view (sessions are immutable values; the schema index's memoized
      diagnostics are the one benign exception, see DESIGN.md §10). *)

module Engine = Designer.Engine
module Store = Repository.Store
module Repo = Repository.Repo
module Io = Repository.Io

type config = {
  request_deadline : float;  (** seconds from arrival to shed *)
  max_waiters : int;  (** per-variant queue bound *)
  idle_timeout : float;  (** reaper frees sessions idle this long *)
  drain_timeout : float;  (** max wait for in-flight work at shutdown *)
  retry : Retry.policy;  (** around journal appends and snapshots *)
  breaker_threshold : int;
  breaker_cooldown : float;
  use_file_locks : bool;  (** advisory [.lock] per variant (real fs only) *)
  retry_after_ms : int;  (** hint sent with [!busy] *)
  flush_max_batch : int;  (** flush a lane at this many pending records *)
  flush_linger : float;  (** max seconds a record may wait for company *)
  flush_on_idle : bool;  (** flush short batches when submissions pause *)
  follower : bool;
      (** serve as a replication follower: sessions are never loaded from
          disk — the replication applier publishes replayed snapshots —
          so [@open] only attaches readonly to a published variant, and
          [@new] / non-readonly opens are refused with a pointer at the
          leader *)
  era : int;
      (** this writer's replication era, checked against the store
          manifest at session load: a variant whose stored era is higher
          was fenced by a promotion — a newer writer owns it — and must
          not be opened for writing here *)
  now : unit -> float;
  sleep : float -> unit;
  chaos_hook : (variant:string -> line:string -> unit) option;
      (** test-only: runs inside the variant lock before execution; an
          exception here models a worker thread killed mid-request.  Never
          fired on the lock-free read path (which holds no lock). *)
  instance_notes : (string * string) list;
      (** static identity notes appended to every [@stats] snapshot — a
          sharded worker reports its shard id and socket here so merged
          stats stay attributable *)
  shard_span : (int * int) option;
      (** [(shard_id, shards)] when serving as one worker of a sharded
          deployment ([--shard-id K --shard-total N]): repository-wide
          walks ([@query all]) restrict to the variants this shard owns
          under rendezvous hashing, so the router can fan out to every
          worker and merge disjoint blocks without double counting *)
}

let default_config =
  {
    request_deadline = 5.0;
    max_waiters = 8;
    idle_timeout = 300.0;
    drain_timeout = 5.0;
    retry = Retry.default;
    breaker_threshold = 3;
    breaker_cooldown = 30.0;
    use_file_locks = true;
    retry_after_ms = 100;
    flush_max_batch = 64;
    flush_linger = 0.002;
    flush_on_idle = true;
    follower = false;
    era = 0;
    now = Unix.gettimeofday;
    sleep = Thread.delay;
    chaos_hook = None;
    instance_notes = [];
    shard_span = None;
  }

(* --- instruments ----------------------------------------------------------

   Every counter/histogram the service records into, resolved once at
   [open_service] so the hot path never looks instruments up by name.  With
   a disabled registry ([Obs.noop], the [--no-obs] configuration) each of
   these is a no-op object and every record call is a load and a branch.

   Naming scheme: [swsd.<area>.<name>], [_total] for counters, [_seconds]
   for latency histograms (exported in ms by the text renderer); dimension-
   less histograms (queue depth, dirty-set size) carry no suffix. *)

type instruments = {
  obs : Obs.t;
  tracer : Obs.Trace.t;
  c_requests : Obs.Metrics.counter;
  c_ok : Obs.Metrics.counter;
  c_err : Obs.Metrics.counter;
  c_shed_queue : Obs.Metrics.counter;  (** [!busy]: variant queue full *)
  c_shed_deadline : Obs.Metrics.counter;  (** [!busy]: deadline while queued *)
  c_readonly_rejected : Obs.Metrics.counter;  (** [!readonly] refusals *)
  c_breaker_rejected : Obs.Metrics.counter;  (** mutations refused read-only *)
  c_breaker_trips : Obs.Metrics.counter;  (** closed/half-open → open edges *)
  c_read_lockfree : Obs.Metrics.counter;
      (** read-class commands served from the published snapshot *)
  c_read_fallback : Obs.Metrics.counter;
      (** read-class commands that went through the writer lock instead
          (nothing published, or an eviction race) *)
  c_write : Obs.Metrics.counter;  (** write-class commands executed *)
  c_ops : Obs.Metrics.counter;  (** committed engine operations *)
  c_opened : Obs.Metrics.counter;  (** sessions loaded from disk *)
  c_evicted : Obs.Metrics.counter;  (** sessions dropped on failure *)
  c_reaped : Obs.Metrics.counter;  (** sessions freed by the idle reaper *)
  c_retries : Obs.Metrics.counter;  (** backoff sleeps inside {!Retry} *)
  c_query : Obs.Metrics.counter;  (** [@query] requests *)
  c_query_lockfree : Obs.Metrics.counter;
      (** per-variant query evaluations served from the published view with
          no variant writer lock *)
  c_query_fallback : Obs.Metrics.counter;
      (** query evaluations that first had to load the variant through the
          writer path (nothing published) *)
  c_merge_clean : Obs.Metrics.counter;
      (** rebased branch ops that applied with their recorded impact *)
  c_merge_auto : Obs.Metrics.counter;
      (** rebased ops auto-merged (already present, or adapted impact) *)
  c_merge_conflict : Obs.Metrics.counter;
      (** rebased ops refused (permission matrix / consistency checker) *)
  g_sessions : Obs.Metrics.gauge;
  g_inflight : Obs.Metrics.gauge;
  g_commit_stalled : Obs.Metrics.gauge;
      (** writers currently blocked on a group-commit ticket *)
  h_request : Obs.Histo.t;  (** whole request, arrival to response *)
  h_query : Obs.Histo.t;  (** whole [@query] request, parse to response *)
  h_read : Obs.Histo.t;  (** read-class command, either path *)
  h_write : Obs.Histo.t;  (** write-class command, lock wait included *)
  h_lock_wait : Obs.Histo.t;
  h_lock_hold : Obs.Histo.t;
  h_queue_depth : Obs.Histo.t;  (** waiters seen at admission *)
  h_apply : Obs.Histo.t;  (** engine execution of a command line *)
  h_check : Obs.Histo.t;  (** a [check] command on the engine *)
  h_dirty : Obs.Histo.t;  (** dirty-set size per committed op *)
  h_respond : Obs.Histo.t;  (** feedback rendering *)
  h_commit_batch : Obs.Histo.t;  (** records per group-commit flush *)
  h_commit_linger : Obs.Histo.t;
      (** a batch's oldest submit to the start of its flush *)
  h_commit_flush : Obs.Histo.t;  (** one batch append + fsync *)
  h_journal_append : Obs.Histo.t;  (** record + fsync, the commit path *)
  h_journal_rewrite : Obs.Histo.t;  (** one whole snapshot save *)
  h_io_write : Obs.Histo.t;
  h_io_append : Obs.Histo.t;
  h_io_fsync : Obs.Histo.t;
  h_io_rename : Obs.Histo.t;
}

let make_instruments obs =
  let c = Obs.counter obs and g = Obs.gauge obs in
  let h ?lo ?hi name = Obs.histo ?lo ?hi obs name in
  {
    obs;
    tracer = Obs.tracer obs;
    c_requests = c "swsd.requests_total";
    c_ok = c "swsd.responses.ok_total";
    c_err = c "swsd.responses.err_total";
    c_shed_queue = c "swsd.shed.queue_full_total";
    c_shed_deadline = c "swsd.shed.deadline_total";
    c_readonly_rejected = c "swsd.readonly.rejected_total";
    c_breaker_rejected = c "swsd.breaker.rejected_total";
    c_breaker_trips = c "swsd.breaker.trips_total";
    c_read_lockfree = c "swsd.read.lockfree_total";
    c_read_fallback = c "swsd.read.fallback_total";
    c_write = c "swsd.write_total";
    c_ops = c "swsd.engine.ops_total";
    c_opened = c "swsd.sessions.opened_total";
    c_evicted = c "swsd.sessions.evicted_total";
    c_reaped = c "swsd.sessions.reaped_total";
    c_retries = c "swsd.retry.attempts_total";
    c_query = c "swsd.query.requests_total";
    c_query_lockfree = c "swsd.query.lockfree_total";
    c_query_fallback = c "swsd.query.fallback_total";
    c_merge_clean = c "swsd.merge.clean_total";
    c_merge_auto = c "swsd.merge.auto_total";
    c_merge_conflict = c "swsd.merge.conflict_total";
    g_sessions = g "swsd.sessions.open";
    g_inflight = g "swsd.requests.inflight";
    g_commit_stalled = g "swsd.commit.stalled";
    h_request = h "swsd.request_seconds";
    h_query = h "swsd.query.seconds";
    h_read = h "swsd.read_seconds";
    h_write = h "swsd.write_seconds";
    h_lock_wait = h "swsd.lock.wait_seconds";
    h_lock_hold = h "swsd.lock.hold_seconds";
    h_queue_depth = h ~lo:1.0 ~hi:1e4 "swsd.lock.queue_depth";
    h_apply = h "swsd.engine.apply_seconds";
    h_check = h "swsd.engine.check_seconds";
    h_dirty = h ~lo:1.0 ~hi:1e4 "swsd.engine.dirty_set";
    h_respond = h "swsd.respond_seconds";
    h_commit_batch = h ~lo:1.0 ~hi:1e4 "swsd.commit.batch_size";
    h_commit_linger = h "swsd.commit.linger_seconds";
    h_commit_flush = h "swsd.commit.flush_seconds";
    h_journal_append = h "swsd.journal.append_seconds";
    h_journal_rewrite = h "swsd.journal.rewrite_seconds";
    h_io_write = h "swsd.io.write_seconds";
    h_io_append = h "swsd.io.append_seconds";
    h_io_fsync = h "swsd.io.fsync_seconds";
    h_io_rename = h "swsd.io.rename_seconds";
  }

(** The hook a replication hub installs on the leader service.  [rs_ship]
    is called from the commit paths — after the records are durable, in
    publication-stamp order per variant — with the exact journal bytes
    that were appended.  [rs_invalidate] fires whenever the on-disk
    journal is {e rewritten} rather than appended to (a recovery repair,
    a writer's full save), so the shipped byte stream is no longer a
    suffix of the file, and when a snapshot changed the local names,
    which the stream does not carry: followers must be re-seeded from a
    fresh snapshot.  A checkpoint, a restored tail (cut back to shipped
    bytes) and a load of a variant the followers hold re-seed no one
    ({!Service_admin.load_session}). *)
type replication_sink = {
  rs_ship : variant:string -> stamp:int -> data:string -> unit;
  rs_invalidate : variant:string -> unit;
}

(** What a variant publishes: the engine state the read path runs on
    and the query view of the same session, behind one atomic load. *)
type published = { state : Engine.state; view : Query.View.t }

type session = {
  variant : string;
  writer : Store.writer;
      (** the variant's journal writer: every append and snapshot *)
  conns : (int, unit) Hashtbl.t;  (** attached connection ids *)
  mutable state : Engine.state;  (** writer's copy; readers use [t.pub] *)
  mutable dirty : bool;  (** changes not yet snapshotted *)
  mutable last_used : float;  (** writer-path activity; reads go to [pub] *)
  mutable flock : Locks.file_lock option;
}

(* One submitted command's records, turning [d_from] into [d_upto]. *)
type delta = {
  d_session : session;
  d_from : Core.Session.t;
  d_upto : Core.Session.t;
  d_data : string;
}

type t = {
  repo : Repo.t;
  config : config;
  locks : Locks.t;  (** the per-variant {e writer} locks *)
  pub : (published, Query.View.trail) Publish.t;
      (** lock-free snapshot publication, one cell per variant; stamps,
          epochs and the last view's trail survive session eviction *)
  sessions : (string, session) Hashtbl.t;
  breakers : (string, Breaker.t) Hashtbl.t;
      (** per variant, surviving session eviction *)
  mu : Mutex.t;  (** guards [sessions], [breakers], and session bookkeeping *)
  inflight : int Atomic.t;
  conn_ids : int Atomic.t;
  mutable stopping : bool;
  rand : Random.State.t;
  commit : delta Group_commit.t;
      (** the group-commit coordinator: every journal append goes through
          its lanes to the session's writer *)
  commit_waiting : int Atomic.t;
      (** writers blocked on a ticket right now (feeds the stall gauge) *)
  mutable repl : replication_sink option;
      (** installed by {!Replication.hub} on the leader; [None] when the
          server does not replicate.  Written once before the first
          client is served, read on every commit. *)
  i : instruments;
}

type conn = {
  id : int;
  mutable variant : string option;
  mutable readonly : bool;  (** attached via [@open v readonly] *)
}

(* --- small helpers -------------------------------------------------------- *)

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let breaker_of t variant =
  locked t (fun () ->
      match Hashtbl.find_opt t.breakers variant with
      | Some b -> b
      | None ->
          let b =
            Breaker.create ~threshold:t.config.breaker_threshold
              ~cooldown:t.config.breaker_cooldown ()
          in
          Hashtbl.add t.breakers variant b;
          b)

let shed t (failure : Locks.failure) =
  match failure with
  | Locks.Busy n ->
      Protocol.busy ~retry_after_ms:t.config.retry_after_ms
        (Printf.sprintf "%d request(s) queued on this variant" n)
  | Locks.Timed_out ->
      Protocol.busy ~retry_after_ms:t.config.retry_after_ms
        "deadline exceeded waiting for the variant"

(** Run [f] holding the variant's writer lock (bounded queue, deadline);
    [Error] is the (already counted) admission failure.  Every
    state-changing path goes through here — the lock-free read path never
    does.  {!with_writer} is the common wrapper that renders the failure
    as [!busy]; the write path uses [try_writer] directly because it
    must keep working {e after} the lock is released (awaiting its
    ticket) before it has a response.  The lock wait is recorded as the
    [wait] phase of [sp], the request's span. *)
let try_writer ?(sp = Obs.Trace.none) t variant f =
  let i = t.i in
  let deadline = t.config.now () +. t.config.request_deadline in
  let arrived = t.config.now () in
  let observe =
    if not (Obs.enabled i.obs) then None
    else
      Some
        (fun ~waited ~held ~depth ->
          Obs.Histo.observe i.h_lock_wait waited;
          Obs.Histo.observe i.h_lock_hold held;
          Obs.Histo.observe i.h_queue_depth (float_of_int depth))
  in
  (* the wait phase is stamped on entry (not from [observe], which fires
     after release) so trace phases read in execution order *)
  let g () =
    if Obs.enabled i.obs then
      Obs.Trace.add_phase sp "wait" (t.config.now () -. arrived);
    f ()
  in
  match
    Locks.with_key ~max_waiters:t.config.max_waiters ~sleep:t.config.sleep
      ~now:t.config.now ?observe t.locks variant ~deadline g
  with
  | Ok _ as r -> r
  | Error failure ->
      (match failure with
      | Locks.Busy _ -> Obs.Metrics.incr i.c_shed_queue
      | Locks.Timed_out -> Obs.Metrics.incr i.c_shed_deadline);
      Error failure

let with_writer ?sp t variant f =
  match try_writer ?sp t variant f with
  | Ok r -> r
  | Error failure -> shed t failure

let find_session t variant =
  locked t (fun () -> Hashtbl.find_opt t.sessions variant)

(* Free a session's cross-process lock and drop it from the table; the
   published snapshot is retracted (epoch flip), so lock-free readers fall
   back and learn the session is gone.  Caller holds the writer lock;
   never snapshots. *)
let evict t (s : session) =
  locked t (fun () -> Hashtbl.remove t.sessions s.variant);
  Publish.retract t.pub s.variant;
  Option.iter Locks.unlock_file s.flock;
  s.flock <- None

(* --- publication --------------------------------------------------------- *)

(* Publish [state] for lock-free readers and queries; returns the stamp,
   minted here or, with [at], the caller's (the follower pins the
   leader's).  Every publication goes through here: the write path (phase
   1 or the flusher's [on_durable]), a session load, and the follower
   applier.  The query view is built in the same step: the last
   publication's trail — kept across eviction, so [diff] history survives
   a reload — extended by this publication's ops, found by a pointer walk
   as short as the change (the whole history only on a reload, whose
   spine is fresh).  A variant's first view reads its lineage off the
   manifest, once. *)
let publish_state t variant ?at (state : Engine.state) =
  Publish.publish t.pub variant ?at (fun ~stamp last ->
      let session = state.Engine.session in
      let view =
        match last with
        | Some trail -> Query.View.resume trail ~stamp session
        | None ->
            let lineage =
              try Repo.variant_lineage t.repo variant with _ -> None
            in
            Query.View.build ?lineage ~stamp session
      in
      { state; view })

(* Publish the session's current state.  Caller holds the writer lock. *)
let publish t (s : session) = publish_state t s.variant s.state

(* Hand freshly durable journal bytes to the replication hub (no-ops
   without one).  Called with the publication stamp the bytes correspond
   to, in stamp order per variant: the flusher runs [on_durable] hooks in
   submission order, and an empty delta ships directly only while its lane
   is quiescent and the variant writer lock is held. *)
let ship t ~variant ~stamp ~data =
  match t.repl with
  | None -> ()
  | Some sink -> sink.rs_ship ~variant ~stamp ~data

(* Tell the hub the variant's files changed other than by an append (a
   journal rewrite, new local names): shipped bytes no longer bring a
   follower to the same store, re-seed followers. *)
let invalidate t variant =
  match t.repl with
  | None -> ()
  | Some sink -> sink.rs_invalidate ~variant

let log_path (s : session) = Store.log_file (Store.writer_store s.writer)

(* Wait until the session's group-commit lane is empty and no flush is in
   flight.  Mandatory before a snapshot and a recovery repair: the
   snapshot's checkpoint covers the journal as it stands, so every record
   of the session must be in it, and a rewrite materializes pending
   records from the in-memory state, so a batch append racing it would
   write them twice. *)
let drain_commits t (s : session) = Group_commit.drain t.commit ~path:(log_path s)

(* Snapshot a dirty session through its writer ({!Store.snapshot}).  A
   rewrite breaks the shipped byte stream and the stream does not carry
   local names: either re-seeds the followers, and so does a failed save,
   which may have written either. *)
let snapshot t (s : session) =
  if not s.dirty then Ok ()
  else begin
    drain_commits t s;
    let session = s.state.Engine.session in
    let renamed = Store.aliases_differ (Store.writer_store s.writer) session in
    match
      Retry.with_retries ~rand:t.rand ~sleep:t.config.sleep
        ~on_retry:(fun ~attempt:_ ~delay:_ -> Obs.Metrics.incr t.i.c_retries)
        t.config.retry
        (fun () ->
          let t0 = t.config.now () in
          let rewrote = Store.snapshot s.writer session in
          Obs.Histo.observe t.i.h_journal_rewrite (t.config.now () -. t0);
          rewrote)
    with
    | Ok rewrote ->
        s.dirty <- false;
        if rewrote || renamed then invalidate t s.variant;
        Ok ()
    | Error e ->
        invalidate t s.variant;
        Error (Printexc.to_string e)
    | exception e ->
        (* e.g. an injected crash: atomic whole-file writes keep every
           artifact whole, and the journal remains authoritative *)
        invalidate t s.variant;
        Error (Printexc.to_string e)
  end

let feedback_body feedback = List.map Designer.Feedback.to_string feedback

(* Run a designer command on the engine, on either path.  A [check] is
   timed into [swsd.engine.check_seconds] wherever it runs. *)
let exec_command t state (cmd : Designer.Command.t) =
  match cmd with
  | Designer.Command.Check ->
      let t0 = t.config.now () in
      let r = Engine.exec state cmd in
      Obs.Histo.observe t.i.h_check (t.config.now () -. t0);
      r
  | _ -> Engine.exec state cmd
