(** The write path: lock → apply → check → enqueue → (await fsync) →
    publish → ack, one writer per variant.

    Every command that may change state runs here, as does a read-class
    command falling back from the lock-free path (nothing published).
    The pipeline has two phases:

    {b Phase 1 — under the variant's writer lock} ({!Service_types.try_writer}):
    refuse mutations while the variant's breaker is open, execute on the
    engine, encode the journal delta ({!Repository.Journal.encoded_delta}:
    undo records, then fresh steps), and
    {!Group_commit.submit} the bytes to the journal's lane, capturing the
    new engine state in the ticket's [on_durable] hook.  The session
    commits to the new state {e before the lock is released} — per-variant
    engine order, journal order, and publish order are all the submission
    order.  The one command that skips the lane is one with nothing to
    append (an empty delta) while the lane is quiescent and the writer
    holds the session it starts from: it publishes and answers right
    here.

    {b Phase 2 — off the lock}: block on the ticket.  The flusher thread
    batches the lane, appends it through the session's journal writer
    ({!Repository.Store.append_records}) with {e one} fsync, then runs
    each record's [on_durable] in order — which is where the new state is
    published for lock-free readers — and settles the tickets.  Only then
    is the command acknowledged, with the publication stamp as [#version]:
    ack implies durability {e and} publish-before-ack gives a connection
    read-your-writes.

    Each publication is one value: the new engine state and the query
    view of its session ({!Service_types.publish_state}).  Building the
    view costs what rendering the publication's ops as [diff] lines does —
    a pointer walk as short as the change, a few microseconds per op — so
    it happens right there, on the flusher (or in phase 1), and a
    [@query] does no view work at all ({!Service_query}).

    A flush failure fails the whole batch: every waiter reacquires the
    writer lock to degrade the variant's breaker and evict the session —
    which also {e retracts} the published snapshot.  The writer refuses
    any batch queued behind the failed one until the next load of the
    variant ({!Service_admin.load_session}, behind [@open], a query's
    first read, or a merge into it) starts a fresh writer.  A mid-flight
    death in phase 1 (chaos hook, crash during encode) degrades and evicts
    under the lock it already holds. *)

open Service_types

(** A command whose records were enqueued in phase 1; phase 2 owns it. *)
type staged = {
  st_session : session;
  st_variant : string;
  st_conn : conn;
  st_ticket : Group_commit.ticket;
  st_version : int ref;  (** written by [on_durable] on the flusher *)
  st_feedback : Designer.Feedback.t list;
  st_records : int;  (** journal records in the delta *)
}

let persistence_failed e =
  "persistence failed; operation not accepted; session evicted (reopen \
   with @open): " ^ Printexc.to_string e

(* Record a persistence failure on the variant's breaker (thread-safe),
   counting the edge into open. *)
let degrade t variant =
  let breaker = breaker_of t variant in
  let was_open = Breaker.is_open breaker in
  Breaker.record_failure breaker ~now:(t.config.now ());
  if Breaker.is_open breaker && not was_open then
    Obs.Metrics.incr t.i.c_breaker_trips

(* Render the feedback as the response, stamped with [version]. *)
let respond t ~sp ~version feedback =
  let t_respond = t.config.now () in
  let body = feedback_body feedback in
  let respond_seconds = t.config.now () -. t_respond in
  Obs.Histo.observe t.i.h_respond respond_seconds;
  Obs.Trace.add_phase sp "respond" respond_seconds;
  if List.exists Designer.Feedback.is_error feedback then
    Protocol.err ~body ~version "command rejected"
  else Protocol.ok ~version body

let evict_staged t (st : staged) =
  match find_session t st.st_variant with
  | Some s when s == st.st_session ->
      Obs.Metrics.incr t.i.c_evicted;
      Hashtbl.reset s.conns;
      evict t s
  | Some _ | None -> () (* another waiter of the failed batch got here first *)

(* Phase-2 failure: the batch fsync failed (or the writer refused the
   records).  Reacquire the writer lock to evict — phase 1 released it —
   then answer [!err].  If the variant is so contended the lock cannot be
   had by the deadline, evict anyway: serving a session whose disk state
   is unknown is strictly worse than the benign race (a writer admitted
   meanwhile stages records that do not extend the durable session; the
   writer refuses them and it lands here too). *)
let fail_staged t (st : staged) e =
  degrade t st.st_variant;
  let deadline = t.config.now () +. t.config.request_deadline in
  (match
     Locks.with_key ~max_waiters:max_int ~sleep:t.config.sleep
       ~now:t.config.now t.locks st.st_variant ~deadline (fun () ->
         evict_staged t st)
   with
  | Ok () -> ()
  | Error _ -> evict_staged t st);
  st.st_conn.variant <- None;
  Protocol.err (persistence_failed e)

(* Phase 2: wait out the batch fsync.  The stall gauge tracks how many
   writers are parked on tickets right now (set from a shared atomic, so
   concurrent updates may briefly show a stale count — it is a gauge, not
   an invariant).  The wait is the request's [journal] phase: the
   durable wait its ack pays for. *)
let complete t ~sp (st : staged) =
  let i = t.i in
  Obs.Metrics.set i.g_commit_stalled
    (Atomic.fetch_and_add t.commit_waiting 1 + 1);
  let t0 = t.config.now () in
  let settled = Group_commit.await st.st_ticket in
  Obs.Trace.add_phase sp "journal" (t.config.now () -. t0);
  Obs.Metrics.set i.g_commit_stalled
    (Atomic.fetch_and_add t.commit_waiting (-1) - 1);
  match settled with
  | Error e -> fail_staged t st e
  | Ok () ->
      if st.st_records > 0 then
        Breaker.record_success
          (breaker_of t st.st_variant)
          ~now:(t.config.now ());
      respond t ~sp ~version:!(st.st_version) st.st_feedback

(* Count the op steps a write commits, each with the size of the
   neighbourhood the incremental checker re-examines for it: the closure
   of the names its events touch, local when every event changes members
   only (the index's own classification of the updates).  Runs in
   phase 1, under the writer lock; the dirty set is taken on the
   committed index, so a multi-op delta (a merge) sizes every op against
   the final state. *)
let observe_committed t (session : Core.Session.t) steps =
  if Obs.enabled t.i.obs then begin
    let idx = Core.Session.index session in
    List.iter
      (fun (st : Core.Session.step) ->
        let events = Core.Session.step_events st in
        Obs.Metrics.incr t.i.c_ops;
        Obs.Histo.observe t.i.h_dirty
          (float_of_int
             (Core.Schema_index.affected_count
                ~local:(Core.Change.members_only events)
                idx
                (Core.Change.touched_names events))))
      steps
  end

(** The generic single-writer pipeline: run [exec] on the variant's engine
    state under its writer lock, journal the session delta, publish, and
    acknowledge only once durable.  [exec] is the only moving part —
    {!do_command} passes {!Engine.exec} on a designer command, and the
    merge path ({!Service_branch}) passes the op-log rebase; everything
    else (breaker, chaos hook, group commit, publish order, eviction on
    failure) is this one pipeline.

    [load_if_absent] loads the session from disk first when nothing is live
    (merge targets a variant no connection has open); the default answers
    "session expired" like a designer command does. *)
let execute ?(load_if_absent = false) t ~sp (conn : conn) variant ~mutating
    ~exec ~line =
  let phase1 =
    try_writer ~sp t variant (fun () ->
        let found =
          match find_session t variant with
          | Some s -> Ok s
          | None when load_if_absent ->
              Service_admin.load_session t variant
              |> Result.map_error Protocol.err
          | None ->
              conn.variant <- None;
              Error
                (Protocol.err "session expired (idle); use @open to resume")
        in
        match found with
        | Error response -> `Respond response
        | Ok s ->
            let i = t.i in
            let now = t.config.now () in
            let breaker = breaker_of t variant in
            if mutating && not (Breaker.allows breaker ~now) then begin
              Obs.Metrics.incr i.c_breaker_rejected;
              `Respond
                (Protocol.err
                   ("variant is read-only: circuit " ^ Breaker.describe breaker))
            end
            else
              (* the on-disk journal state is unknown after a killed worker
                 (chaos hook) or a crash mid-append: degrade the variant and
                 evict the session, so the next @open reloads through
                 recovery *)
              let degrade_and_evict why =
                degrade t variant;
                Obs.Metrics.incr i.c_evicted;
                Hashtbl.reset s.conns;
                evict t s;
                conn.variant <- None;
                Protocol.err why
              in
              let run () =
                (match t.config.chaos_hook with
                | Some hook -> hook ~variant ~line
                | None -> ());
                let before = s.state in
                let t_apply = t.config.now () in
                let after, feedback = exec before in
                let apply_seconds = t.config.now () -. t_apply in
                Obs.Histo.observe i.h_apply apply_seconds;
                Obs.Trace.add_phase sp "apply" apply_seconds;
                let n, steps, data =
                  Repository.Journal.encoded_delta
                    ~before:before.Engine.session ~after:after.Engine.session
                in
                observe_committed t after.Engine.session steps;
                s.last_used <- t.config.now ();
                let path = log_path s in
                s.state <- after;
                if mutating || n > 0 then s.dirty <- true;
                if
                  n > 0
                  || after != before
                     && not
                          (Group_commit.quiescent t.commit ~path
                          && Store.holds s.writer before.Engine.session)
                then begin
                  (* A changed state with an empty delta (e.g. [focus])
                     still submits — an empty record — when the lane is
                     busy, so its publish is ordered behind the pending
                     records' publishes, or after a failed batch, which
                     the writer refuses it behind. *)
                  let version = ref (Publish.seq t.pub variant) in
                  let ticket =
                    Group_commit.submit t.commit ~path
                      ~on_durable:(fun () ->
                        (* runs on the flusher in submission order, so the
                           hub receives records in stamp order *)
                        let stamp = publish_state t variant after in
                        version := stamp;
                        ship t ~variant ~stamp ~data)
                      {
                        d_session = s;
                        d_from = before.Engine.session;
                        d_upto = after.Engine.session;
                        d_data = data;
                      }
                  in
                  `Staged
                    {
                      st_session = s;
                      st_variant = variant;
                      st_conn = conn;
                      st_ticket = ticket;
                      st_version = version;
                      st_feedback = feedback;
                      st_records = n;
                    }
                end
                else
                  (* Nothing to append, and nothing pending to order
                     behind: publish before the ack, here and now.  An
                     unchanged state (read-class fallback, rejected op)
                     keeps the current stamp; a state-only change
                     ([focus]) ships its empty [data] anyway so follower
                     stamps track the leader's. *)
                  let version =
                    if after != before then begin
                      let stamp = publish t s in
                      ship t ~variant ~stamp ~data;
                      stamp
                    end
                    else Publish.seq t.pub variant
                  in
                  `Respond (respond t ~sp ~version feedback)
              in
              (match run () with
              | r -> r
              | exception e ->
                  `Respond
                    (degrade_and_evict
                       ("request died mid-flight; session evicted: "
                       ^ Printexc.to_string e))))
  in
  match phase1 with
  | Error failure -> shed t failure
  | Ok (`Respond response) -> response
  | Ok (`Staged st) -> complete t ~sp st

let do_command t ~sp (conn : conn) variant (cmd : Designer.Command.t) ~line =
  execute t ~sp conn variant ~mutating:(Designer.Command.mutates cmd)
    ~exec:(fun before -> exec_command t before cmd)
    ~line
