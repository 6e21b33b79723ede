(** Socket front end for {!Service} — Unix-domain or TCP
    ({!Protocol.address}): a session per connection on {!Transport}'s
    listener, a periodic idle-session reaper, and graceful drain on
    SIGTERM/SIGINT.  The multi-process pieces live alongside:
    {!Transport} (the listener, connect, IO),
    {!Supervisor} (the shard and replica worker processes), {!Router}
    (the variant-hashing front end), {!Replication} (journal shipping,
    promotion) and {!Serve} (the [swsd serve] topology and era policy). *)

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

type t

val create :
  ?config:Service.config ->
  ?obs:Obs.t ->
  ?io:Repository.Io.t ->
  ?replicate:bool ->
  listen:Protocol.address ->
  string ->
  (t, string) result
(** [create ~listen dir] opens the repository at [dir] and binds a
    listener at [listen].  A stale Unix socket file left by a crashed
    server is probed and reclaimed; a path with a live listener (or a
    non-socket file) is an error — never silently stolen.  [obs] is
    passed to {!Service.open_service}; [Obs.noop] disables observability
    ([--no-obs]).  [io] overrides the repository IO (benchmarks inject
    fsync latency through it).  [replicate] (default [false]) installs a
    {!Replication.hub}: connections that send [@follow] become follower
    streams instead of protocol clients. *)

val of_service :
  ?hub:Replication.hub ->
  listen:Protocol.address ->
  Service.t ->
  (t, string) result
(** Put an already open service on a listener — the replication-follower
    path, where {!Replication.Follower.create} opens the service itself
    (bootstrapping the repository first). *)

val service : t -> Service.t

val listen_address : t -> Protocol.address
(** Effective listen address (TCP port 0 resolved to the bound port). *)

val run : t -> (string * string) list
(** Accept and serve until {!stop}; then drain, snapshot, and release
    locks via {!Service.shutdown}, returning its failures; then end the
    connections still open (a reply in flight is still written) and
    unlink a Unix socket path.  Idle sessions are reaped every second
    meanwhile.  Blocks.  Ignores SIGPIPE process-wide: a client hanging
    up mid-response is a clean per-connection teardown, never process
    death. *)

val stop : t -> unit
(** Request shutdown ({!Transport.stop}); safe from a signal handler or
    another thread. *)

(** Blocking line-protocol client used by the CLI, tests, and bench; see
    {!Transport.Client}.  [connect ?retry_for path] accepts a socket path
    or [host:port] and can retry transient startup races (ECONNREFUSED /
    ENOENT) until a deadline. *)
module Client = Transport.Client
