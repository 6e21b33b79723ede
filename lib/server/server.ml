(** Socket front end for {!Service} — Unix-domain or TCP
    ({!Protocol.address}).

    Thread-per-connection over a listening socket: the accept loop never
    does repository work (admission, shedding, and serialization live in
    {!Service}), so a slow or hung client can never stall accepts.  A
    background reaper frees idle sessions.  SIGTERM/SIGINT request a
    graceful stop: the listener closes, in-flight requests drain, every
    dirty session is snapshotted, locks are released. *)

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
module Io = Repository.Io

type t = {
  service : Service.t;
  listen : Protocol.address;
  listen_fd : Unix.file_descr;
  stop_requested : bool Atomic.t;
  accepting : bool Atomic.t;
  hub : Replication.hub option;
      (** present when this server replicates; [@follow] connections are
          handed to it instead of the request loop *)
}

(** Put an already open service on a socket — the follower path, where
    {!Replication.Follower.create} must open the service itself (it
    bootstraps the repository before the directory is servable). *)
let of_service ?(backlog = 64) ?hub ~listen service =
  (* [Transport.bind] probes a Unix path first: a stale socket file
     from a kill -9'd server is reclaimed, a live listener (or a
     non-socket file) is refused instead of silently stolen. *)
  match Transport.bind ~backlog listen with
  | Error m -> Error m
  | Ok fd ->
      Ok
        {
          service;
          listen = Transport.bound_address fd listen;
          listen_fd = fd;
          stop_requested = Atomic.make false;
          accepting = Atomic.make false;
          hub;
        }

let create ?(config = Service.default_config) ?(backlog = 64) ?obs ?io
    ?(replicate = false) ~listen dir =
  match Service.open_service ~config ?io ?obs dir with
  | Error m -> Error m
  | Ok service ->
      let hub =
        if replicate then Some (Replication.hub service) else None
      in
      of_service ~backlog ?hub ~listen service

let service t = t.service

let listen_address t = t.listen

(** Ask the accept loop to wind down; safe from a signal handler or any
    thread.  Closing the listener unblocks a pending [accept]. *)
let stop t =
  if not (Atomic.exchange t.stop_requested true) then
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()

(* --- per-connection worker ------------------------------------------------ *)

let handle_client t fd =
  let conn = Service.connect t.service in
  let finish () =
    Service.disconnect t.service conn;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  (try
     let reader = Transport.reader fd in
     Transport.write_all fd
       (Protocol.to_string (Protocol.ok [ "swsd design service" ]));
     let rec loop () =
       match Transport.read_line reader with
       | None -> ()  (* client went away; disconnect snapshots for it *)
       | Some line when String.trim line = "@follow" -> (
           (* the connection stops speaking the line protocol and becomes
              a replication stream; it never returns to this loop *)
           match t.hub with
           | Some hub -> Replication.serve_follower hub fd reader
           | None ->
               Transport.write_all fd
                 (Protocol.to_string
                    (Protocol.err
                       "replication is not enabled on this server \
                        (start it with --replicate)"));
               loop ())
       | Some line ->
           let stop_after = String.trim line = "@quit" in
           let response = Service.request t.service conn line in
           Transport.write_all fd (Protocol.to_string response);
           if not stop_after then loop ()
     in
     loop ()
   with
  (* EPIPE here is the normal fate of a worker whose client hung up
     mid-response: tear the connection down cleanly, keep the process *)
  | Unix.Unix_error _ | Sys_error _ -> ()
  | Io.Crash -> ());
  finish ()

(* --- main loop ------------------------------------------------------------ *)

(** Accept connections until {!stop} (or SIGTERM via
    {!Transport.on_stop_signals}), then drain and snapshot through
    {!Service.shutdown}.  Blocks the calling thread; spawns one thread per
    connection plus the idle reaper. *)
let run ?(reap_every = 1.0) t =
  (* embedded servers (tests, benches) never install stop signals; they
     still must survive client hangups *)
  Transport.ignore_sigpipe ();
  let reaper =
    Thread.create
      (fun () ->
        while not (Atomic.get t.stop_requested) do
          Thread.delay reap_every;
          if not (Atomic.get t.stop_requested) then
            ignore (Service.reap_idle t.service)
        done)
      ()
  in
  (* A blocked [accept] is not reliably woken by a concurrent [close], so
     the loop polls readiness with a short select instead: [stop] lands
     within one timeout, and a closed listener surfaces as EBADF here. *)
  (try Unix.set_nonblock t.listen_fd with Unix.Unix_error _ -> ());
  let rec accept_loop () =
    if not (Atomic.get t.stop_requested) then begin
      match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> accept_loop ()
      | _ -> (
          match Unix.accept t.listen_fd with
          | client_fd, _ ->
              Unix.clear_nonblock client_fd;
              ignore (Thread.create (fun () -> handle_client t client_fd) ());
              accept_loop ()
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
            ->
              accept_loop ()
          | exception Unix.Unix_error _ -> Atomic.set t.stop_requested true)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error _ ->
          (* the listener was closed (stop/SIGTERM) or is unusable *)
          Atomic.set t.stop_requested true
    end
  in
  Atomic.set t.accepting true;
  accept_loop ();
  Thread.join reaper;
  (* wake follower streams before the drain so their worker threads wind
     down instead of waiting on the hub's condition forever *)
  (match t.hub with Some hub -> Replication.stop_hub hub | None -> ());
  let failures = Service.shutdown t.service in
  (match t.listen with
  | Protocol.Unix_path p -> (
      try Unix.unlink p with Unix.Unix_error _ -> ())
  | Protocol.Tcp _ -> ());
  failures

(* --- a minimal client (tests, bench, scripting) --------------------------- *)

module Client = Transport.Client
