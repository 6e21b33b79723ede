(** Journal-shipping replication: the leader streams acked journal
    records to follower processes, which replay them through the same
    recovery path [@open] uses and serve the read-only protocol from
    published snapshots.

    The design leans entirely on invariants the rest of the system
    already maintains:

    - {b The journal is the replica.}  A live session provably equals the
      replay of its journal (the service's durability contract), so a
      follower that owns a byte-identical copy of [log.ops] and replays
      it is exactly as good as a crashed leader after recovery.  The
      leader therefore ships the {e exact} pre-encoded record bytes each
      commit appended ({!Service_types.ship}), after the fsync that made
      them durable, in publication-stamp order per variant.
    - {b Stamps are the staleness contract.}  Every shipped delta
      carries the leader's publication stamp; the follower publishes the
      replayed state with {!Publish.publish} [~at] at that exact stamp, so
      a follower's [#version] can never exceed the leader's — a client
      that needs read-your-writes compares stamps (or stays on the
      leader), one that accepts bounded staleness reads any follower.
    - {b Rewrites invalidate.}  A snapshot takes the journal as it
      stands and leaves the shipped byte stream whole.  A recovery repair
      rewrites the journal file, and so does a snapshot after a failed
      flush; a snapshot that changes the local names changes a file the
      stream does not carry.  Either way the hub re-seeds the followers
      from a fresh snapshot ([Reset] +
      [File]* + [Start]).  Replayed {e state} is unaffected — a rewrite
      collapses resolved undos but reproduces the same session — which
      is why the follower can keep serving its published snapshot while
      it catches up.
    - {b Promotion fences eras.}  {!promote} recovers the dead leader's
      variants through fsck, installs them in the replica's repository,
      and stamps a fresh era (1 + the highest era either directory has
      seen) into every manifest ({!Store.fence}).  A resurrected old
      leader refuses to open fenced variants for writing
      ({!Service_admin.load_session}), so there is exactly one writer
      per variant after promotion. *)

module Store = Repository.Store
module Repo = Repository.Repo
module Io = Repository.Io
module Journal = Repository.Journal
module Frame = Repository.Journal.Frame
module Engine = Designer.Engine
open Service_types

exception Stream_error of string

(* The variant artifacts a snapshot ships (and the only names a follower
   will write): everything {!Store.load_session} needs — the checkpoint
   included, so bootstrap and a promoted replica open from it rather than
   replaying the whole journal — plus the manifest, so a promoted replica
   starts from a complete store.  Never [.lock] (locks are per-process)
   and never the deliverables, [custom.odl] and reports (rendered on
   request). *)
let artifact_names =
  [ "shrinkwrap.odl"; "log.ops"; "aliases.map"; "checkpoint.odl"; "manifest" ]

(* --- the hub: leader-side fan-out ----------------------------------------- *)

type ev =
  | Rec of { variant : string; stamp : int; data : string }
  | Inval of { variant : string }

(** One hub per replicating server: commit paths push events into a
    bounded ring ({!Service_types.ship} / [invalidate] via the installed
    sink); each follower connection runs {!serve_stream} on its own
    thread, consuming the ring at its own cursor.  A follower that falls
    more than a ring behind is not a reason to stall the leader — it is
    re-seeded from a fresh snapshot instead (the [gap] branch), which is
    the same machinery bootstrap uses. *)
type hub = {
  h_svc : Service_types.t;
  h_mu : Mutex.t;
  h_cond : Condition.t;
  h_ring : ev option array;
  h_cap : int;  (** ring slots; a follower further behind is re-seeded *)
  mutable h_next : int;  (** events ever pushed; slot = next mod capacity *)
  mutable h_stopping : bool;
  h_followers : int Atomic.t;
  hg_followers : Obs.Metrics.gauge;
  hc_shipped : Obs.Metrics.counter;
  hc_snapshots : Obs.Metrics.counter;
  hc_resets : Obs.Metrics.counter;
  hc_acks : Obs.Metrics.counter;
  hg_lag : Obs.Metrics.gauge;
}

let default_ring = 1024

let hub ?(ring = default_ring) (svc : Service_types.t) =
  (* clamp: below 2 the ring cannot hold even one event plus headroom and
     every push would force a re-seed; a silly-large ask is capped rather
     than refused so a fat-fingered flag still serves *)
  let cap = max 2 (min ring (1 lsl 20)) in
  let obs = svc.i.obs in
  let h =
    {
      h_svc = svc;
      h_mu = Mutex.create ();
      h_cond = Condition.create ();
      h_ring = Array.make cap None;
      h_cap = cap;
      h_next = 0;
      h_stopping = false;
      h_followers = Atomic.make 0;
      hg_followers = Obs.gauge obs "swsd.repl.followers";
      hc_shipped = Obs.counter obs "swsd.repl.records_shipped_total";
      hc_snapshots = Obs.counter obs "swsd.repl.snapshots_shipped_total";
      hc_resets = Obs.counter obs "swsd.repl.resets_total";
      hc_acks = Obs.counter obs "swsd.repl.acks_total";
      hg_lag = Obs.gauge obs "swsd.repl.lag";
    }
  in
  let push ev =
    Mutex.lock h.h_mu;
    h.h_ring.(h.h_next mod h.h_cap) <- Some ev;
    h.h_next <- h.h_next + 1;
    Condition.broadcast h.h_cond;
    Mutex.unlock h.h_mu
  in
  svc.repl <-
    Some
      {
        rs_ship =
          (fun ~variant ~stamp ~data -> push (Rec { variant; stamp; data }));
        rs_invalidate = (fun ~variant -> push (Inval { variant }));
      };
  h

(** Wake every stream loop so it can observe [h_stopping]; called by the
    server's accept loop on the way down. *)
let stop_hub h =
  Mutex.lock h.h_mu;
  h.h_stopping <- true;
  Condition.broadcast h.h_cond;
  Mutex.unlock h.h_mu

(* Read a consistent snapshot of one variant's artifacts under its writer
   lock: the lane is drained first, so the bytes on disk contain exactly
   the records up to the [Publish.seq] sampled alongside — a [Records]
   frame with a stamp at or below the returned one is already inside the
   shipped [log.ops] and the follower's stamp dedup drops it.  Raises
   {!Stream_error} when the lock cannot be had (the follower reconnects
   and tries again rather than holding a writer-lock queue slot). *)
let snapshot_variant h variant =
  let svc = h.h_svc in
  let io = Repo.io svc.repo in
  let vdir = Repo.variant_dir svc.repo variant in
  let read () =
    (match find_session svc variant with
    | Some s -> drain_commits svc s
    | None -> ());
    let file name =
      let p = Filename.concat vdir name in
      if io.Io.file_exists p then Some (name, io.Io.read_file p) else None
    in
    (List.filter_map file artifact_names, Publish.seq svc.pub variant)
  in
  match try_writer svc variant read with
  | Ok r -> r
  | Error _ -> raise (Stream_error (variant ^ ": busy; could not snapshot"))

let ship_snapshot h ~send variant =
  let files, stamp = snapshot_variant h variant in
  List.iter (fun (name, data) -> send (Frame.File { variant; name; data })) files;
  send (Frame.Start { variant; stamp });
  Obs.Metrics.incr h.hc_snapshots

(** Serve one follower's frame stream: hello, bootstrap (root schema +
    a snapshot of every variant), then tail the ring.  [send] writes one
    frame (it may raise on a dead peer); [alive] is polled between
    batches so a dead connection stops consuming.  The cursor is taken
    {e before} the bootstrap snapshots are read, so no event between
    snapshot and tailing can be missed — at worst a record already inside
    a shipped snapshot is replayed and deduped by its stamp. *)
let serve_stream h ~send ~alive =
  let svc = h.h_svc in
  send (Frame.Hello { era = svc.config.era });
  Mutex.lock h.h_mu;
  let cursor = ref h.h_next in
  Mutex.unlock h.h_mu;
  let io = Repo.io svc.repo in
  let root = Filename.concat (Repo.dir svc.repo) "shrinkwrap.odl" in
  send (Frame.Root { data = io.Io.read_file root });
  List.iter (ship_snapshot h ~send) (Repo.variant_names svc.repo);
  send Frame.Live;
  let rec loop () =
    Mutex.lock h.h_mu;
    while (not h.h_stopping) && alive () && h.h_next <= !cursor do
      Condition.wait h.h_cond h.h_mu
    done;
    if h.h_stopping || not (alive ()) then Mutex.unlock h.h_mu
    else begin
      let next = h.h_next in
      let lo = max !cursor (next - h.h_cap) in
      let gap = lo > !cursor in
      let evs =
        if gap then []
        else
          List.init (next - lo) (fun k ->
              Option.get h.h_ring.((lo + k) mod h.h_cap))
      in
      cursor := next;
      Mutex.unlock h.h_mu;
      if gap then begin
        (* fell a full ring behind: cheaper (and simpler) to re-seed than
           to make the leader retain unbounded history *)
        List.iter
          (fun v ->
            send (Frame.Reset { variant = v });
            Obs.Metrics.incr h.hc_resets;
            ship_snapshot h ~send v)
          (Repo.variant_names svc.repo);
        send Frame.Live
      end
      else
        List.iter
          (function
            | Rec { variant; stamp; data } ->
                send (Frame.Records { variant; stamp; data });
                Obs.Metrics.incr h.hc_shipped
            | Inval { variant } ->
                send (Frame.Reset { variant });
                Obs.Metrics.incr h.hc_resets;
                ship_snapshot h ~send variant)
          evs;
      loop ()
    end
  in
  loop ()

(** Run a follower connection to completion: an ack-reader thread drains
    [+ack] frames coming back (feeding the lag gauge) and flags the
    stream dead on EOF, while this thread pumps {!serve_stream} over the
    socket.  Called by the server's [@follow] interception; returns when
    the follower disconnects or the hub stops. *)
let serve_follower h fd reader =
  Obs.Metrics.set h.hg_followers (1 + Atomic.fetch_and_add h.h_followers 1);
  let dead = Atomic.make false in
  let mark_dead () =
    Atomic.set dead true;
    Mutex.lock h.h_mu;
    Condition.broadcast h.h_cond;
    Mutex.unlock h.h_mu
  in
  let acks =
    Thread.create
      (fun () ->
        let rec go () =
          match
            Frame.read
              ~read_line:(fun () -> Transport.read_line reader)
              ~read_exact:(fun n -> Transport.read_exact reader n)
          with
          | Ok (Some (Frame.Ack { variant; stamp })) ->
              Obs.Metrics.incr h.hc_acks;
              Obs.Metrics.set h.hg_lag
                (max 0 (Publish.seq h.h_svc.pub variant - stamp));
              go ()
          | Ok (Some _) -> go () (* a follower only sends acks; tolerate *)
          | Ok None | Error _ -> mark_dead ()
          | exception (Unix.Unix_error _ | Sys_error _) -> mark_dead ()
        in
        go ())
      ()
  in
  let send f = Transport.write_all fd (Frame.to_string f) in
  (try serve_stream h ~send ~alive:(fun () -> not (Atomic.get dead))
   with Unix.Unix_error _ | Sys_error _ | Stream_error _ -> ());
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Atomic.set dead true;
  Thread.join acks;
  Obs.Metrics.set h.hg_followers (Atomic.fetch_and_add h.h_followers (-1) - 1)

(* --- the follower: frame application -------------------------------------- *)

(** The follower's replay state machine, factored apart from the socket
    pump so the chaos suite can drive it frame-by-frame in process.  One
    applier per follower service; it owns every variant's files (the
    service is in [follower] mode and never loads sessions itself). *)
module Apply = struct
  type entry = {
    mutable a_session : Core.Session.t;
    mutable a_stamp : int;  (** leader stamp last applied *)
    mutable a_stale : bool;  (** [Reset] seen: drop records until [Start] *)
  }

  type t = {
    a_svc : Service_types.t;
    a_states : (string, entry) Hashtbl.t;
    mutable a_era : int;  (** the leader's era from [Hello] *)
    a_live : bool Atomic.t;  (** bootstrap complete, stream is tailing *)
    ac_applied : Obs.Metrics.counter;
  }

  let create (svc : Service_types.t) =
    {
      a_svc = svc;
      a_states = Hashtbl.create 8;
      a_era = 0;
      a_live = Atomic.make false;
      ac_applied = Obs.counter svc.i.obs "swsd.repl.applied_records_total";
    }

  let live a = Atomic.get a.a_live
  let era a = a.a_era

  let stamp a variant =
    match Hashtbl.find_opt a.a_states variant with
    | Some e -> e.a_stamp
    | None -> 0

  let session a variant =
    Option.map (fun e -> e.a_session) (Hashtbl.find_opt a.a_states variant)

  (** Mark every variant stale and forget liveness: called before a
      reconnect, whose bootstrap will re-seed everything. *)
  let invalidate_all a =
    Atomic.set a.a_live false;
    Hashtbl.iter (fun _ e -> e.a_stale <- true) a.a_states

  let replay_error m = raise (Stream_error m)

  (** Apply one frame; [ack] is called with every newly durable stamp.
      Raises {!Stream_error} when the stream cannot be trusted any
      further (replay rejection, damaged record run, a stale leader) —
      the pump drops the connection and re-bootstraps. *)
  let frame a ~ack f =
    let svc = a.a_svc in
    let io = Repo.io svc.repo in
    match f with
    | Frame.Hello { era } ->
        (* a leader from a fenced-out era must not feed this follower *)
        if era < a.a_era then
          replay_error
            (Printf.sprintf "stale leader: era %d < last seen era %d" era
               a.a_era);
        a.a_era <- era
    | Frame.Root { data } ->
        Io.atomic_write io
          (Filename.concat (Repo.dir svc.repo) "shrinkwrap.odl")
          data
    | Frame.File { variant; name; data } ->
        if not (List.mem name artifact_names) then
          replay_error ("unexpected artifact in stream: " ^ name);
        let vdir = Repo.variant_dir svc.repo variant in
        Io.mkdir_p io vdir;
        Io.atomic_write io (Filename.concat vdir name) data
    | Frame.Reset { variant } -> (
        match Hashtbl.find_opt a.a_states variant with
        | Some e -> e.a_stale <- true
        | None -> ())
    | Frame.Start { variant; stamp } -> (
        (* the shipped files are in place: load through the exact
           recovery path [@open] uses, the repository's base included,
           and publish at the leader's stamp *)
        match Repo.open_variant svc.repo variant with
        | Error e ->
            replay_error (variant ^ ": " ^ Repo.open_error_to_string e)
        | Ok session ->
            Hashtbl.replace a.a_states variant
              { a_session = session; a_stamp = stamp; a_stale = false };
            let state = Engine.start session in
            ignore (publish_state svc variant ~at:stamp state : int);
            ack ~variant ~stamp)
    | Frame.Records { variant; stamp; data } -> (
        match Hashtbl.find_opt a.a_states variant with
        | None -> () (* never seeded: wait for this variant's [Start] *)
        | Some e when e.a_stale -> () (* reset pending; [Start] will reseed *)
        | Some e when stamp <= e.a_stamp -> () (* duplicate (snapshot overlap) *)
        | Some e ->
            (* append the exact leader bytes (fsync'd by [append_raw]) so
               the follower's journal stays promotion-ready, then replay
               them in memory — ack only after both *)
            if data <> "" then begin
              let t0 = svc.config.now () in
              Journal.append_raw io
                (Store.log_file (Repo.variant_store svc.repo variant))
                data;
              Obs.Histo.observe svc.i.h_journal_append (svc.config.now () -. t0)
            end;
            let parsed = Journal.parse data in
            (match parsed.Journal.damage with
            | Some d ->
                replay_error (variant ^ ": " ^ Journal.damage_to_string d)
            | None -> ());
            let session =
              List.fold_left
                (fun s -> function
                  | Journal.Op (kind, op) -> (
                      match Core.Session.apply s ~kind op with
                      | Ok (s', _) -> s'
                      | Error err ->
                          replay_error
                            (variant ^ ": replay rejected: "
                            ^ Core.Apply.error_to_string err))
                  | Journal.Undo -> (
                      match Core.Session.undo s with
                      | Some s' -> s'
                      | None ->
                          replay_error (variant ^ ": undo with empty log")))
                e.a_session parsed.Journal.entries
            in
            e.a_session <- session;
            e.a_stamp <- stamp;
            let state = Engine.start session in
            ignore (publish_state svc variant ~at:stamp state : int);
            Obs.Metrics.incr a.ac_applied;
            ack ~variant ~stamp)
    | Frame.Live -> Atomic.set a.a_live true
    | Frame.Ack _ -> () (* leader→follower legs never carry acks *)
end

(* --- the follower: socket pump --------------------------------------------- *)

module Follower = struct
  type t = {
    f_apply : Apply.t;
    f_leader : Protocol.address;
    f_stop : bool Atomic.t;
    mutable f_conn : Unix.file_descr option;
    mutable f_thread : Thread.t option;
    fc_reconnects : Obs.Metrics.counter;
    fg_connected : Obs.Metrics.gauge;
  }

  let service f = f.f_apply.Apply.a_svc
  let live f = Apply.live f.f_apply
  let stamp f variant = Apply.stamp f.f_apply variant

  (* Connect and run the replication handshake: greeting, [@follow],
     then the stream is frames.  Bounded per call; the caller loops. *)
  let dial leader =
    match Transport.Client.connect_to ~retry_for:1.0 leader with
    | Error _ as e -> e
    | Ok c -> (
        let fd = Transport.Client.fd c in
        (* Total: a peer that resets mid-handshake (a server mid-restart
           during promotion churn raises ECONNRESET out of the greeting
           read) is a failed dial, never an exception — an exception here
           would escape [run] and silently kill the applier thread,
           leaving the follower serving stale state forever. *)
        match
          match Transport.Client.read_response c with
          | None -> Error "leader hung up during greeting"
          | Some _greeting ->
              Transport.write_all fd "@follow\n";
              Ok (fd, c)
        with
        | Ok _ as r -> r
        | Error m ->
            Transport.Client.close c;
            Error m
        | exception (Unix.Unix_error _ | Sys_error _) ->
            Transport.Client.close c;
            Error "leader hung up during handshake")

  let rec dial_until_stopped stop leader =
    if Atomic.get stop then None
    else
      match dial leader with
      | Ok c -> Some c
      | Error _ -> dial_until_stopped stop leader

  (* Pump frames from one connection until it dies or [stop] is set. *)
  let pump f fd reader =
    let ack ~variant ~stamp =
      try Transport.write_all fd (Frame.to_string (Frame.Ack { variant; stamp }))
      with Unix.Unix_error _ | Sys_error _ -> ()
    in
    let rec go () =
      if not (Atomic.get f.f_stop) then
        match
          Frame.read
            ~read_line:(fun () -> Transport.read_line reader)
            ~read_exact:(fun n -> Transport.read_exact reader n)
        with
        | Ok (Some frame) ->
            Apply.frame f.f_apply ~ack frame;
            go ()
        | Ok None | Error _ -> ()
    in
    (* catch-all: whatever ends this connection, the applier thread must
       survive to reconnect and re-bootstrap — a dead applier is a
       follower that serves ever-staler state while claiming health *)
    try go () with _ -> ()

  let run f first =
    let serve conn =
      match conn with
      | None -> ()
      | Some (fd, reader) ->
          f.f_conn <- Some fd;
          Obs.Metrics.set f.fg_connected 1;
          pump f fd reader;
          f.f_conn <- None;
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Obs.Metrics.set f.fg_connected 0
    in
    serve (Some first);
    while not (Atomic.get f.f_stop) do
      (* anything already applied stays published (bounded staleness);
         the fresh bootstrap re-seeds every variant *)
      Apply.invalidate_all f.f_apply;
      match dial_until_stopped f.f_stop f.f_leader with
      | None -> ()
      | Some c ->
          Obs.Metrics.incr f.fc_reconnects;
          serve (Some c)
    done

  (** Bootstrap a follower of [leader] at [dir]: dial, read the stream
      head (through [Root]) to materialize the repository root, open the
      service in follower mode over it, then hand the connection to a
      background applier thread that replays the stream and reconnects
      (with {!Transport.connect}'s jittered backoff) until {!stop}.  The
      returned service serves [@open <v> readonly] from the replicated
      snapshots. *)
  let create ?(config = Service_types.default_config) ?io ?obs ~leader dir =
    let io = match io with Some io -> io | None -> Io.unix in
    let stop = Atomic.make false in
    match dial leader with
    | Error m -> Error ("cannot reach leader: " ^ m)
    | Ok (fd, reader) -> (
        (* consume the stream head up to [Root] so the repository root
           exists before the service opens the directory *)
        let rec head era =
          match
            Frame.read
              ~read_line:(fun () -> Transport.read_line reader)
              ~read_exact:(fun n -> Transport.read_exact reader n)
          with
          | Ok (Some (Frame.Hello { era })) -> head era
          | Ok (Some (Frame.Root { data })) -> Ok (era, data)
          | Ok (Some f) ->
              Error ("expected the stream head, got " ^ Frame.describe f)
          | Ok None -> Error "leader hung up during bootstrap"
          | Error m -> Error m
        in
        match head 0 with
        | Error m ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Error ("replication bootstrap failed: " ^ m)
        | Ok (era, root) -> (
            Io.mkdir_p io dir;
            Io.atomic_write io (Filename.concat dir "shrinkwrap.odl") root;
            match
              Service.open_service
                ~config:{ config with follower = true }
                ~io ?obs dir
            with
            | Error _ as e ->
                (try Unix.close fd with Unix.Unix_error _ -> ());
                e
            | Ok svc ->
                let apply = Apply.create svc in
                apply.Apply.a_era <- era;
                let obs = svc.i.obs in
                let f =
                  {
                    f_apply = apply;
                    f_leader = leader;
                    f_stop = stop;
                    f_conn = None;
                    f_thread = None;
                    fc_reconnects =
                      Obs.counter obs "swsd.repl.reconnects_total";
                    fg_connected = Obs.gauge obs "swsd.repl.connected";
                  }
                in
                f.f_thread <-
                  Some (Thread.create (fun () -> run f (fd, reader)) ());
                Ok f))

  (** Stop replaying: wakes the applier (shutting the live connection
      down unblocks its read) and joins it.  The service stays usable —
      the caller shuts it down through the normal server path. *)
  let stop f =
    Atomic.set f.f_stop true;
    (match f.f_conn with
    | Some fd -> (
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    | None -> ());
    (match f.f_thread with Some t -> Thread.join t | None -> ());
    f.f_thread <- None
end

(* --- promotion ------------------------------------------------------------- *)

(** Turn the replica repository at [dst] into the writer for everything
    the (dead) leader repository at [src] holds.  For each variant the
    {e leader's} directory is authoritative — every acked write is in its
    journal (ack-after-fsync), and a torn tail there is by construction
    unacknowledged — so each variant is recovered through fsck's
    longest-replayable-prefix rule and installed into [dst] via the
    ordinary {!Store.save_session} path, whose one manifest carries a
    fresh era ([1 +] the highest era either side has seen); the old
    leader's manifests are fenced at it too, so a resurrected old leader
    refuses writes.

    Returns the new era and the per-variant outcomes ([Error] for a
    variant whose base schema is unrecoverable — it is skipped, not
    silently dropped). *)
let promote ?(src_io = Io.unix) ?(dst_io = Io.unix) ~src ~dst () =
  match Repo.open_dir ~io:src_io src with
  | Error m -> Error ("cannot open the old leader repository: " ^ m)
  | Ok src_repo -> (
      (* a replica that never bootstrapped has no root yet: seed it from
         the leader so [open_dir] succeeds *)
      let root_dst = Filename.concat dst "shrinkwrap.odl" in
      if not (dst_io.Io.file_exists root_dst) then begin
        Io.mkdir_p dst_io dst;
        Io.atomic_write dst_io root_dst
          (src_io.Io.read_file (Filename.concat src "shrinkwrap.odl"))
      end;
      match Repo.open_dir ~io:dst_io dst with
      | Error m -> Error ("cannot open the replica repository: " ^ m)
      | Ok dst_repo ->
          let variants = Repo.variant_names src_repo in
          let era = 1 + max (Repo.max_era src_repo) (Repo.max_era dst_repo) in
          let results =
            List.map
              (fun v ->
                let src_store = Repo.variant_store src_repo v in
                let report = Store.fsck ~salvage:false src_store in
                let outcome =
                  match report.Store.fsck_session with
                  | None ->
                      Error
                        (String.concat "; "
                           (match report.Store.fsck_issues with
                           | [] -> [ "unrecoverable" ]
                           | issues -> issues))
                  | Some session ->
                      (* recovered on the leader's base, and saved
                         through a store at the replica's home that holds
                         it too, so no variant prints the shrink wrap *)
                      let dst_store =
                        Store.open_dir ~io:dst_io
                          ~base:(fun () -> Repo.base src_repo)
                          (Repo.variant_dir dst_repo v)
                      in
                      Store.save_session ~era dst_store session;
                      Ok ()
                in
                (* fence the old home even when unrecoverable: whatever
                   is left there must not accept writes again *)
                Store.fence src_store ~era;
                (v, outcome))
              variants
          in
          (* variants only the replica knows (created after the snapshot
             that seeded it? impossible today, but cheap to fence) *)
          List.iter
            (fun v ->
              if not (List.mem v variants) then
                Store.fence (Repo.variant_store dst_repo v) ~era)
            (Repo.variant_names dst_repo);
          Ok (era, results))
