(** The sharding front end: accepts client connections (Unix socket or
    TCP), consistent-hashes variant names onto the shard workers of a
    {!Supervisor}, forwards the line protocol verbatim, and merges [@stats]
    across shards.  Mutating designer commands are never silently resent
    after a backend failure — a lost ack must not become a double apply. *)

val shard_of : shards:int -> string -> int
(** Rendezvous (highest-random-weight) hashing over FNV-1a 64-bit
    digests: deterministic across restarts, total (every name maps to
    exactly one shard in [0, shards)), and minimally disruptive (growing
    [shards] by one only moves names onto the new shard). *)

type t

val create :
  ?obs:Obs.t ->
  ?connect_retry:float ->
  listen:Protocol.address ->
  Supervisor.t ->
  (t, string) result
(** Bind the front-end listener ({!Transport.listen}).  [connect_retry]
    (default 5 s) bounds how long a request waits for a backend worker to
    accept — long enough to ride out a supervisor respawn; a request that
    cannot be served gets [!busy] with a 200 ms retry hint.  [obs] feeds
    the router's own counters ([swsd.router.*]); pass [Obs.noop] for
    [--no-obs]. *)

val listen_address : t -> Protocol.address
(** Effective listen address (TCP port 0 resolved to the bound port). *)

val run : t -> unit
(** Accept and route until {!stop} on {!Transport.serve}; blocks.  On the
    way out every client connection still open is ended (a reply in
    flight is still written) and a Unix socket path is unlinked.  The
    caller starts/stops the {!Supervisor} around this. *)

val stop : t -> unit
(** {!Transport.stop}: sets the flag and closes the listener, taking no
    lock, so it is safe from a signal handler. *)

