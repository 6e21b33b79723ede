(** Socket front end for {!Service} — Unix-domain or TCP
    ({!Protocol.address}).

    The listener, its accept loop and the per-connection request loop are
    {!Transport.serve}'s; this module supplies each connection's session
    (a {!Service} connection, with [@follow] handed to the replication
    hub), the idle-session reaper and the drain.  The accept loop never
    does repository work (admission, shedding, and serialization live in
    {!Service}), so a slow or hung client can never stall accepts.
    SIGTERM/SIGINT request a graceful stop: the listener closes, in-flight
    requests drain, every dirty session is snapshotted, locks are
    released, then idle connections are ended. *)

(* [server.ml] shares the library's name, so it is the library interface:
   re-export the inner modules for external users (bin, tests, bench). *)
module Retry = Retry
module Breaker = Breaker
module Locks = Locks
module Group_commit = Group_commit
module Protocol = Protocol
module Publish = Publish
module Service = Service
module Transport = Transport
module Router = Router
module Supervisor = Supervisor
module Serve = Serve
module Replication = Replication

type t = {
  service : Service.t;
  listener : Transport.listener;
  hub : Replication.hub option;
      (** present when this server replicates; [@follow] connections are
          handed to it instead of the request loop *)
}

(** Put an already open service on a socket — the follower path, where
    {!Replication.Follower.create} must open the service itself (it
    bootstraps the repository before the directory is servable). *)
let of_service ?hub ~listen service =
  Result.map
    (fun listener -> { service; listener; hub })
    (Transport.listen listen)

let create ?(config = Service.default_config) ?obs ?io ?(replicate = false)
    ~listen dir =
  match Service.open_service ~config ?io ?obs dir with
  | Error m -> Error m
  | Ok service ->
      let hub =
        if replicate then Some (Replication.hub service) else None
      in
      let served = of_service ?hub ~listen service in
      (* a refused address must not leave the service's threads behind *)
      if Result.is_error served then ignore (Service.shutdown service);
      served

let service t = t.service
let listen_address t = Transport.listen_address t.listener
let stop t = Transport.stop t.listener

let session t fd reader =
  let conn = Service.connect t.service in
  let reply line =
    if String.trim line <> "@follow" then
      Some (Protocol.to_string (Service.request t.service conn line))
    else
      match t.hub with
      | Some hub ->
          (* the connection stops speaking the line protocol and becomes
             a replication stream until the follower or the hub ends it *)
          Replication.serve_follower hub fd reader;
          None
      | None ->
          Some
            (Protocol.to_string
               (Protocol.err
                  "replication is not enabled on this server (start it \
                   with --replicate)"))
  in
  { Transport.reply; finish = (fun () -> Service.disconnect t.service conn) }

(** Serve until {!stop} (or SIGTERM via {!Transport.on_stop_signals}),
    then drain and snapshot through {!Service.shutdown}.  Blocks the
    calling thread; spawns one thread per connection plus the idle
    reaper. *)
let run t =
  let reaper =
    Thread.create
      (fun () ->
        while not (Transport.stopping t.listener) do
          Thread.delay 1.0;
          if not (Transport.stopping t.listener) then
            ignore (Service.reap_idle t.service)
        done)
      ()
  in
  Transport.serve t.listener (session t) ~wind_down:(fun () ->
      Thread.join reaper;
      (* wake follower streams before the drain so their worker threads
         wind down instead of waiting on the hub's condition forever *)
      Option.iter Replication.stop_hub t.hub;
      Service.shutdown t.service)

(* --- a minimal client (tests, bench, scripting) --------------------------- *)

module Client = Transport.Client
