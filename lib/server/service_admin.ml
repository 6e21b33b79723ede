(** The admin path: session lifecycle ([@open]/[@close]/[@quit]), the
    [@stats] snapshot, the idle reaper, and shutdown.

    All of it runs under the variant writer lock (lifecycle changes are
    writes), and everything that frees a session goes through
    {!Service_types.evict}, which retracts the published snapshot and flips
    the variant's epoch so lock-free readers notice.

    The idle reaper is defined against {e both} sides of the split: a
    variant is idle only when its writer-side [last_used] {e and} its
    read-side {!Publish.last_touched} are past the timeout, and no thread
    is currently inside a published snapshot ({!Publish.readers}).  A
    reader that slips in after the check finishes safely on its immutable
    snapshot and reattaches on its next request. *)

open Service_types

(* Load a variant from disk into a fresh shared session, with the journal
   writer the open made, and publish its state; the one way a session
   comes off disk.  Loading replays the journal and may rewrite a torn
   tail, so no batch append may race it: drain {e all} commit lanes first
   (the journal path is known only once the store is open).  Followers
   are re-seeded only when their copy of the variant may be stale: on its
   first load in this process (they may not hold it at all: a variant
   created or branched since they bootstrapped), or when the journal
   holds bytes the checkpoint does not cover (a torn tail this load
   repairs, records another process appended, or a failed flush's that
   landed unshipped).  A detach checkpoints the journal as it stands, so
   a plain close and reopen re-seeds no one.  Caller holds the variant
   writer lock. *)
let load_session t variant =
  Group_commit.drain_all t.commit;
  let flock =
    if t.config.use_file_locks then
      let path =
        Filename.concat (Repo.variant_dir t.repo variant) Locks.lock_file_name
      in
      match Locks.lock_file path with
      | Ok l -> Ok (Some l)
      | Error m -> Error ("variant is locked by another process: " ^ m)
    else Ok None
  in
  match flock with
  | Error _ as e -> e
  | Ok flock -> (
      (* Era fencing, checked {e before} the variant is opened: opening
         replays the journal and may rewrite a torn tail, and a fenced-out
         writer must not touch the files a newer era now owns.  The store
         manifest carries the high-water era ({!Store.fence}); a promotion
         bumps it on both the old and new homes of every variant. *)
      match
        match Repo.variant_store t.repo variant with
        | store -> Store.stored_era store
        | exception _ -> 0
      with
      | stored when stored > t.config.era ->
          Option.iter Locks.unlock_file flock;
          Error
            (Printf.sprintf
               "variant is fenced: stored era %d > writer era %d (a newer \
                writer took over after promotion)"
               stored t.config.era)
      | _ -> (
      let first = Publish.seq t.pub variant = 0 in
      match Repo.open_writer t.repo variant with
      | Error e ->
          Option.iter Locks.unlock_file flock;
          Error (Repo.open_error_to_string e)
      | exception e ->
          (* an injected crash while reading/repairing; nothing attached *)
          Option.iter Locks.unlock_file flock;
          Error ("could not load variant: " ^ Printexc.to_string e)
      | Ok writer ->
          let s =
            {
              variant;
              writer;
              conns = Hashtbl.create 4;
              state = Engine.start (Store.durable writer);
              dirty = false;
              last_used = t.config.now ();
              flock;
            }
          in
          locked t (fun () -> Hashtbl.replace t.sessions variant s);
          (* the stamp continues the variant's sequence across
             evict/reload cycles: readers never see it go backwards *)
          ignore (publish t s : int);
          (* a branched child's sequence starts at its fork stamp, so
             [#version] on its reads (readonly repl included) reports
             where on the parent's timeline it forked, and lineage diffs
             can anchor there *)
          (match Store.lineage (Store.writer_store writer) with
          | Some (_, fork) when fork > Publish.seq t.pub variant ->
              ignore (publish_state t variant ~at:fork s.state : int)
          | Some _ | None -> ());
          if first || Store.uncovered writer then invalidate t variant;
          Obs.Metrics.incr t.i.c_opened;
          Ok s))

let attach t (s : session) (conn : conn) ~readonly =
  locked t (fun () -> Hashtbl.replace s.conns conn.id ());
  conn.variant <- Some s.variant;
  conn.readonly <- readonly;
  s.last_used <- t.config.now ()

let do_open t ~sp (conn : conn) variant ~create ~readonly =
  match conn.variant with
  | Some v when v = variant ->
      Protocol.ok
        ~version:(Publish.seq t.pub variant)
        [ "already attached to " ^ variant ]
  | Some v -> Protocol.err ("already attached to " ^ v ^ "; @close first")
  | None when t.config.follower ->
      (* A follower never loads sessions from disk — its published
         snapshots come from the replication applier, which owns the
         variant's files.  [@open v readonly] attaches to whatever is
         published; everything else belongs on the leader. *)
      if create then Protocol.err "this server is a follower; create variants on the leader"
      else if not readonly then
        Protocol.err
          "this server is a follower; attach with: @open <variant> readonly \
           (or write to the leader)"
      else (
        match Publish.read t.pub variant with
        | Some (_, stamp) ->
            conn.variant <- Some variant;
            conn.readonly <- true;
            Protocol.ok ~version:stamp
              [ "attached to " ^ variant ^ " (readonly, replica)" ]
        | None ->
            if Repo.mem_variant t.repo variant then
              Protocol.err ("variant " ^ variant ^ " is not yet replicated; retry shortly")
            else Protocol.err ("no variant named " ^ variant))
  | None ->
      with_writer ~sp t variant (fun () ->
          let created =
            if not create then Ok false
            else
              match Repo.create_variant t.repo variant with
              | Ok _ -> Ok true
              | Error m -> Error m
              | exception e ->
                  Error ("could not create variant: " ^ Printexc.to_string e)
          in
          match created with
          | Error m -> Protocol.err m
          | Ok created -> (
              match find_session t variant with
              | Some s ->
                  attach t s conn ~readonly;
                  Protocol.ok
                    ~version:(Publish.seq t.pub variant)
                    [
                      Printf.sprintf "attached to %s (%d client(s))%s" variant
                        (Hashtbl.length s.conns)
                        (if readonly then " readonly" else "");
                    ]
              | None -> (
                  if not (Repo.mem_variant t.repo variant) then
                    Protocol.err ("no variant named " ^ variant)
                  else
                    match load_session t variant with
                    | Error m -> Protocol.err m
                    | Ok s ->
                        attach t s conn ~readonly;
                        Protocol.ok
                          ~version:(Publish.seq t.pub variant)
                          [
                            (if created then "created and attached to " ^ variant
                             else "attached to " ^ variant)
                            ^ (if readonly then " (readonly)" else "");
                          ])))

(* Detach [conn]; the last detach snapshots and frees the session.  Caller
   holds the variant writer lock. *)
let release t (s : session) (conn : conn) ~snapshot_on_free =
  locked t (fun () -> Hashtbl.remove s.conns conn.id);
  conn.variant <- None;
  conn.readonly <- false;
  if locked t (fun () -> Hashtbl.length s.conns) = 0 then begin
    let warn =
      if snapshot_on_free then
        match snapshot t s with
        | Ok () -> []
        | Error m -> [ "snapshot failed (journal remains authoritative): " ^ m ]
      else []
    in
    evict t s;
    warn
  end
  else []

let do_close t ~sp (conn : conn) =
  match conn.variant with
  | None -> Protocol.err "no open session"
  | Some variant ->
      with_writer ~sp t variant (fun () ->
          match find_session t variant with
          | None ->
              (* reaped underneath us; nothing left to release *)
              conn.variant <- None;
              conn.readonly <- false;
              Protocol.ok [ "session was already closed (idle)" ]
          | Some s ->
              let warn = release t s conn ~snapshot_on_free:true in
              Protocol.ok (warn @ [ "closed" ]))

let disconnect ?sp t (conn : conn) =
  match conn.variant with
  | None -> ()
  | Some variant ->
      with_writer ?sp t variant (fun () ->
          (match find_session t variant with
          | None ->
              conn.variant <- None;
              conn.readonly <- false
          | Some s -> ignore (release t s conn ~snapshot_on_free:true));
          Protocol.ok [])
      |> ignore

(* --- the @stats snapshot --------------------------------------------------- *)

(** Render the observability snapshot.  Dynamic state that has no standing
    instrument — per-variant breaker history, attached sessions, the
    publication stamp/epoch/live-reader counts — rides along as notes; the
    sessions/inflight gauges are refreshed here, at read time, rather than
    maintained on every transition. *)
let do_stats t fmt =
  let i = t.i in
  if not (Obs.enabled i.obs) then
    Protocol.err "observability is disabled (server started with --no-obs)"
  else begin
    Obs.Metrics.set i.g_inflight (Atomic.get t.inflight);
    let now = t.config.now () in
    let notes =
      locked t (fun () ->
          Obs.Metrics.set i.g_sessions (Hashtbl.length t.sessions);
          let sessions =
            Hashtbl.fold
              (fun v s acc ->
                ( "session." ^ v,
                  Printf.sprintf "%d client(s)%s, version %d, seq %d, epoch %d, readers %d"
                    (Hashtbl.length s.conns)
                    (if s.dirty then ", dirty" else "")
                    (Core.Session.version s.state.Engine.session)
                    (Publish.seq t.pub v) (Publish.epoch t.pub v)
                    (Publish.readers t.pub v) )
                :: acc)
              t.sessions []
          in
          let breakers =
            Hashtbl.fold
              (fun v b acc ->
                let in_state =
                  match Breaker.time_in_state b ~now with
                  | Some s -> Printf.sprintf " (%.1fs in state)" s
                  | None -> ""
                in
                ("breaker." ^ v, Breaker.describe b ^ in_state) :: acc)
              t.breakers []
          in
          List.sort compare (sessions @ breakers))
    in
    let notes = t.config.instance_notes @ notes in
    let sn = Obs.snapshot ~notes i.obs in
    let text =
      match fmt with
      | `Text -> Obs.Export.to_text sn
      | `Json -> Obs.Export.to_json sn
    in
    Protocol.ok [ String.trim text ]
  end

(* --- reaper and shutdown -------------------------------------------------- *)

(* Idle on both the writer and the reader side, with no live snapshot
   holder right now. *)
let idle t (s : session) ~now =
  let last = Float.max s.last_used (Publish.last_touched t.pub s.variant) in
  now -. last > t.config.idle_timeout && Publish.readers t.pub s.variant = 0

(** Snapshot and free sessions idle longer than [idle_timeout]; attached
    connections learn on their next request.  Returns how many were
    reaped.  Runs opportunistically: a variant busy right now is skipped
    (it is not idle). *)
let reap_idle t =
  let now = t.config.now () in
  let candidates =
    locked t (fun () ->
        Hashtbl.fold
          (fun v s acc -> if idle t s ~now then (v, s) :: acc else acc)
          t.sessions [])
  in
  List.fold_left
    (fun reaped (variant, _) ->
      let deadline = t.config.now () +. 0.05 in
      match
        Locks.with_key ~max_waiters:1 ~sleep:t.config.sleep ~now:t.config.now
          t.locks variant ~deadline (fun () ->
            match find_session t variant with
            | Some s when idle t s ~now:(t.config.now ()) ->
                (match snapshot t s with Ok () | Error _ -> ());
                Hashtbl.reset s.conns;
                evict t s;
                Obs.Metrics.incr t.i.c_reaped;
                true
            | _ -> false)
      with
      | Ok true -> reaped + 1
      | Ok false | Error _ -> reaped)
    0 candidates

(** Drain in-flight requests (bounded by [drain_timeout]), snapshot every
    dirty session, release all locks.  Further requests get [!err].
    Returns the sessions that failed to snapshot (their journals remain
    authoritative). *)
let shutdown t =
  t.stopping <- true;
  let give_up = t.config.now () +. t.config.drain_timeout in
  while Atomic.get t.inflight > 0 && t.config.now () < give_up do
    t.config.sleep 0.002
  done;
  (* Stop the commit coordinator only after the in-flight drain: waiters
     parked on tickets need the flusher alive to settle them.  [stop]
     flushes whatever is still pending, so the snapshots below see fully
     appended journals and nothing acked is lost. *)
  Group_commit.stop t.commit;
  let all =
    locked t (fun () -> Hashtbl.fold (fun v s acc -> (v, s) :: acc) t.sessions [])
  in
  List.filter_map
    (fun (variant, s) ->
      let deadline = t.config.now () +. 1.0 in
      let res =
        Locks.with_key ~max_waiters:1 ~sleep:t.config.sleep ~now:t.config.now
          t.locks variant ~deadline (fun () ->
            let r = snapshot t s in
            Hashtbl.reset s.conns;
            evict t s;
            r)
      in
      match res with
      | Ok (Ok ()) -> None
      | Ok (Error m) -> Some (variant, m)
      | Error _ ->
          (* still busy past the drain budget: free without snapshot; the
             journal holds every acknowledged op *)
          (match find_session t variant with Some s -> evict t s | None -> ());
          Some (variant, "busy at shutdown; journal remains authoritative"))
    all
