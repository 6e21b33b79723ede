(** The multi-session design service (transport-agnostic core).

    One {!t} serves a multi-variant repository ({!Repository.Repo}) to many
    concurrent connections.  Each open variant is a shared session: an
    in-memory {!Designer.Engine} state plus the variant's durable store.
    The socket layer ({!Server}) is a thin thread-per-connection loop
    around {!request}; the chaos harness drives {!request} directly from
    test threads.

    Since the snapshot-concurrency refactor the implementation is split by
    path — this module is the assembler and request dispatcher:

    - {!Service_types} — config, instruments, the session/service records,
      and the helpers every path shares (writer lock, eviction, journal
      delta persistence);
    - {!Service_read} — command classification and the {e lock-free} read
      path: read-class commands run on the variant's published immutable
      snapshot with no variant lock at all ({!Publish});
    - {!Service_write} — the single-writer pipeline:
      lock → apply → check → enqueue → (await batch fsync) → publish → ack;
    - {!Service_admin} — session lifecycle, [@stats], the idle reaper
      (defined against live snapshot holders), and shutdown.

    Robustness discipline, in order of application to a request:

    - {b Admission}: a stopping service refuses new work; each request gets
      an absolute deadline ([request_deadline] from arrival).
    - {b Backpressure}: mutating requests serialize per variant through
      {!Locks}; when [max_waiters] requests are already queued on the
      variant the new one is shed immediately with [!busy]/[!retry-after],
      and a queued request that cannot start by its deadline is shed the
      same way — the accept loop never blocks behind a convoy.  Read-class
      requests bypass the queue entirely (they take no lock) and so are
      never shed.
    - {b Durability}: the engine runs with no repository attached; the
      service itself journals the delta of every accepted command (undo
      records, then fresh steps) through its {!Group_commit} lanes, whose
      flusher appends each batch through the session's journal writer
      ({!Repository.Store.append_records}) under {!Retry.with_retries},
      and only then acknowledges with [!ok]; the writer's durable length
      makes the retry safe and refuses a batch queued behind a failed
      one.  On any persistence failure the
      in-memory state is discarded and the session is evicted, so a live
      session provably equals the replay of its journal; the next [@open]
      reloads from disk, whose recovery repairs any torn tail, and starts
      a fresh writer from the length it read.
    - {b Degradation}: journal failures feed the variant's {!Breaker};
      a tripped breaker leaves the variant readable but refuses mutations
      until a cooled-down probe succeeds — the server never crashes over a
      failing disk.
    - {b Reaping}: sessions idle past [idle_timeout] — on the writer side
      {e and} the read side, with no live snapshot holder — are
      snapshotted and freed; their connections are told to [@open] again.
    - {b Shutdown}: {!shutdown} drains in-flight requests, snapshots every
      dirty session through the existing {!Repository.Store} path, and
      releases all locks. *)

module Repo = Repository.Repo
module Io = Repository.Io

type config = Service_types.config = {
  request_deadline : float;
  max_waiters : int;
  idle_timeout : float;
  drain_timeout : float;
  retry : Retry.policy;
  breaker_threshold : int;
  breaker_cooldown : float;
  use_file_locks : bool;
  retry_after_ms : int;
  flush_max_batch : int;
  flush_linger : float;
  flush_on_idle : bool;
  follower : bool;
  era : int;
  now : unit -> float;
  sleep : float -> unit;
  chaos_hook : (variant:string -> line:string -> unit) option;
  instance_notes : (string * string) list;
  shard_span : (int * int) option;
}

let default_config = Service_types.default_config

type t = Service_types.t
type conn = Service_types.conn

open Service_types

let open_service ?(config = default_config) ?io ?(obs = Obs.create ()) dir =
  let i = make_instruments obs in
  let io = match io with Some io -> io | None -> Io.unix in
  let io =
    if not (Obs.enabled obs) then io
    else
      Io.observed ~now:config.now
        ~record:(fun op seconds ->
          Obs.Histo.observe
            (match op with
            | "fsync" -> i.h_io_fsync
            | "append" -> i.h_io_append
            | "write" -> i.h_io_write
            | _ -> i.h_io_rename)
            seconds)
        io
  in
  (* The group-commit coordinator's flush runs on the flusher thread: it
     appends each batch through its session's writer, which restores the
     tail a failed call left before it appends again, so a retry writes
     nothing twice; its own jitter stream (the service's [rand] is only
     touched under variant locks) and a deadline keep a failing disk from
     pinning the batch in backoff longer than one request may wait.  A
     writer that rewrote the journal re-seeds the followers. *)
  let service = ref None in
  let make_commit () =
    let crand = Random.State.make [| 0x0ddba11 |] in
    Group_commit.create
      ~policy:
        {
          Group_commit.max_batch = config.flush_max_batch;
          max_linger = config.flush_linger;
          flush_on_idle = config.flush_on_idle;
        }
      ~now:config.now ~sleep:config.sleep
      ~flush:(fun ~path:_ batch ->
        let first = List.hd batch and last = List.hd (List.rev batch) in
        let data = String.concat "" (List.map (fun d -> d.d_data) batch) in
        let append () =
          let t0 = config.now () in
          let rewrote =
            Repository.Store.append_records first.d_session.writer
              ~from:first.d_from ~upto:last.d_upto data
          in
          if data <> "" then
            Obs.Histo.observe i.h_journal_append (config.now () -. t0);
          rewrote
        in
        match
          Retry.with_retries ~rand:crand ~sleep:config.sleep ~now:config.now
            ~deadline:(config.now () +. config.request_deadline)
            ~on_retry:(fun ~attempt:_ ~delay:_ -> Obs.Metrics.incr i.c_retries)
            config.retry append
        with
        | Ok true ->
            Option.iter (fun t -> invalidate t first.d_session.variant) !service
        | Ok false -> ()
        | Error e -> raise e)
      ~on_flush:(fun ~path:_ ~batch ~linger ~seconds ->
        Obs.Histo.observe i.h_commit_batch (float_of_int batch);
        Obs.Histo.observe i.h_commit_linger linger;
        Obs.Histo.observe i.h_commit_flush seconds)
      ()
  in
  Result.map
    (fun repo ->
      let t =
        {
          (* created only once the repository opened, so a failed open never
             leaks a flusher thread *)
          commit = make_commit ();
          repo;
          config;
          locks = Locks.create ();
          pub = Publish.create ~keep:(fun p -> Query.View.trail p.view) ();
          sessions = Hashtbl.create 8;
          breakers = Hashtbl.create 8;
          mu = Mutex.create ();
          inflight = Atomic.make 0;
          conn_ids = Atomic.make 0;
          stopping = false;
          rand = Random.State.make [| 0x5ca1ab1e |];
          commit_waiting = Atomic.make 0;
          repl = None;
          i;
        }
      in
      service := Some t;
      t)
    (Repo.open_dir ~io dir)

let obs (t : t) = t.i.obs

let disarm_hooks () = ()

let connect (t : t) =
  { id = Atomic.fetch_and_add t.conn_ids 1; variant = None; readonly = false }

let session_count (t : t) =
  Mutex.lock t.mu;
  let n = Hashtbl.length t.sessions in
  Mutex.unlock t.mu;
  n

let disconnect t conn = Service_admin.disconnect t conn
let reap_idle = Service_admin.reap_idle
let shutdown = Service_admin.shutdown

let request (t : t) (conn : conn) line =
  if t.stopping then Protocol.err "server is shutting down"
  else begin
    Atomic.incr t.inflight;
    Fun.protect
      ~finally:(fun () -> Atomic.decr t.inflight)
      (fun () ->
        let i = t.i in
        Obs.Metrics.incr i.c_requests;
        let arrived = t.config.now () in
        let label =
          let line = String.trim line in
          if String.length line > 0 && line.[0] = '@' then
            match String.index_opt line ' ' with
            | None -> line
            | Some j -> String.sub line 0 j
          else "command"
        in
        let sp = Obs.Trace.start i.tracer ~label ~detail:(String.trim line) () in
        let response =
          match
            match
              Obs.Trace.phase i.tracer sp "parse" (fun () ->
                  Protocol.parse_request line)
            with
            | Error m -> Protocol.err m
            | Ok List -> Protocol.ok (Repo.lineage_listing t.repo)
            | Ok Ping -> Protocol.ok [ "pong" ]
            | Ok (Stats fmt) -> Service_admin.do_stats t fmt
            | Ok (Open { variant; readonly }) ->
                Service_admin.do_open t ~sp conn variant ~create:false ~readonly
            | Ok (New v) ->
                Service_admin.do_open t ~sp conn v ~create:true ~readonly:false
            | Ok Close -> Service_admin.do_close t ~sp conn
            | Ok Quit ->
                Service_admin.disconnect ~sp t conn;
                Protocol.ok [ "bye" ]
            | Ok (Query q) -> Service_query.do_query t ~sp conn q
            | Ok (Branch { parent; child; at }) ->
                Service_branch.do_branch t ~sp ~parent ~child ~at ~line
            | Ok (Merge { source; dest; dry_run }) ->
                Service_branch.do_merge t ~sp conn ~source ~dest ~dry_run
                  ~line
            | Ok (Command c) -> Service_read.do_command t ~sp conn c
          with
          | response -> response
          (* no request may kill its worker thread: locks were released on
             the way out (Fun.protect), the session was evicted if its disk
             state became unknown — surface the rest as an error response *)
          | exception e -> Protocol.err ("internal: " ^ Printexc.to_string e)
        in
        (match response.Protocol.status with
        | Protocol.Ok -> Obs.Metrics.incr i.c_ok
        | Protocol.Err _ -> Obs.Metrics.incr i.c_err
        | Protocol.Readonly _ -> () (* counted at the rejection site *)
        | Protocol.Busy _ -> () (* already counted at the shed site *));
        Obs.Trace.finish i.tracer sp
          ~status:
            (match response.Protocol.status with
            | Protocol.Ok -> "ok"
            | Protocol.Err _ -> "err"
            | Protocol.Readonly _ -> "readonly"
            | Protocol.Busy _ -> "busy");
        Obs.Histo.observe i.h_request (t.config.now () -. arrived);
        response)
  end
