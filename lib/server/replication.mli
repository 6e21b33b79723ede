(** Journal-shipping replication (DESIGN.md §14).

    The leader streams acked journal records — the exact bytes its commit
    paths appended, after the fsync that made them durable — to follower
    processes over {!Transport}; each follower replays them through the
    same recovery path [@open] uses and serves the existing read-only
    protocol ([@open <v> readonly]) from published snapshots.  Shipped
    deltas carry the leader's publication stamp and followers publish
    with {!Publish.publish} [~at], so a follower's [#version] never exceeds
    the leader's: clients demand read-your-writes by staying on the
    leader (or comparing stamps) and accept bounded staleness on any
    follower.  Snapshot shipping covers bootstrap and catch-up after a
    gap; {!promote} turns a follower into the writer after the leader
    dies, fencing the old generation through the store manifest
    ({!Store.fence} / the [era] field of {!Service.config}). *)

exception Stream_error of string
(** The stream can no longer be trusted (replay rejection, damaged
    record run, a stale leader's era).  Both ends treat it as a dropped
    connection: the follower reconnects and re-bootstraps. *)

(** {1 The hub (leader side)} *)

type hub
(** Installed on a leader service; fans every durable commit out to the
    connected follower streams through a bounded event ring.  A follower
    that falls a full ring behind is re-seeded from a fresh snapshot
    rather than stalling the leader. *)

val hub : ?ring:int -> Service.t -> hub
(** Create the hub and install its sink on the service (at most one per
    service; the last installed wins).  Registers the [swsd.repl.*]
    leader instruments on the service's registry.  [ring] bounds the
    event ring (default 1024, clamped to [2, 2^20]): a follower that
    falls more than [ring] events behind is re-seeded from a fresh
    snapshot ([+reset]) instead of stalling the leader. *)

val stop_hub : hub -> unit
(** Wake every stream loop so it can wind down; called by {!Server.run}
    on the way out. *)

val serve_stream :
  hub -> send:(Repository.Journal.Frame.t -> unit) -> alive:(unit -> bool) -> unit
(** Serve one follower's frame stream over an arbitrary transport:
    [+hello], bootstrap ([+root], then [+file]*/[+start] per variant),
    [+live], then tail the ring until [alive] fails or the hub stops.
    Exceptions from [send] (dead peer) escape to the caller.  Exposed
    for the in-process chaos suite; socket servers use
    {!serve_follower}. *)

val serve_follower : hub -> Unix.file_descr -> Transport.reader -> unit
(** Run a socket follower to completion: {!serve_stream} over the fd,
    plus an ack-reader thread feeding the [swsd.repl.lag] gauge.
    Returns when the follower disconnects or the hub stops; the caller
    (the server's [@follow] interception) closes the fd. *)

(** {1 The follower} *)

(** The replay state machine, factored from the socket pump so tests can
    drive it frame-by-frame in process. *)
module Apply : sig
  type t

  val create : Service.t -> t
  (** The service must be in follower mode ([config.follower = true]);
      the applier owns its repository files and publishes every replayed
      state at the leader's stamp. *)

  val frame :
    t -> ack:(variant:string -> stamp:int -> unit) -> Repository.Journal.Frame.t -> unit
  (** Apply one frame; [ack] fires with each newly durable stamp.
      @raise Stream_error when the stream cannot be trusted further —
      drop the connection and re-bootstrap. *)

  val invalidate_all : t -> unit
  (** Mark every variant stale before a reconnect: records are ignored
      until the fresh bootstrap's [+start] re-seeds each variant.
      Already-published snapshots keep serving (bounded staleness). *)

  val live : t -> bool
  (** Bootstrap complete; the stream is tailing ([+live] seen). *)

  val era : t -> int
  (** The leader's write era from [+hello]. *)

  val stamp : t -> string -> int
  (** Last applied leader stamp for the variant (0 before its [+start]).
      Never exceeds the stamp the leader issued. *)

  val session : t -> string -> Core.Session.t option
  (** The session last applied for the variant; [None] before its [+start]. *)
end

(** A complete socket follower: bootstrap, background applier thread,
    reconnect with jittered backoff ({!Transport.connect}). *)
module Follower : sig
  type t

  val create :
    ?config:Service.config ->
    ?io:Repository.Io.t ->
    ?obs:Obs.t ->
    leader:Protocol.address ->
    string ->
    (t, string) result
  (** Bootstrap a follower of [leader] into the directory: dial, read
      the stream head to materialize the repository root, open the
      service in follower mode ([config.follower] is forced on), and
      start the applier thread.  The service serves [@open <v> readonly]
      from replicated snapshots; wrap it with {!Server.of_service} to
      put it on a socket. *)

  val service : t -> Service.t
  val live : t -> bool
  val stamp : t -> string -> int

  val stop : t -> unit
  (** Stop replaying and join the applier.  The service itself is shut
      down by the caller (normally via {!Server.run} winding down). *)
end

(** {1 Promotion} *)

val promote :
  ?src_io:Repository.Io.t ->
  ?dst_io:Repository.Io.t ->
  src:string ->
  dst:string ->
  unit ->
  (int * (string * (unit, string) result) list, string) result
(** Turn the replica repository at [dst] into the writer for everything
    the (dead) leader repository at [src] holds.  The leader's directory
    is authoritative — every acked write is in its journal, a torn tail
    is by construction unacknowledged — so each variant is recovered
    through fsck's longest-replayable-prefix rule and installed into
    [dst] via {!Store.save_session}, whose one manifest carries a fresh
    era (1 + the highest either side has seen); the leader's manifest is
    fenced at it too.  Safe with
    [src = dst] (self-recovery after a crash with no replica).  Returns
    the new era and per-variant outcomes; a variant whose base schema is
    unrecoverable is reported, not silently dropped. *)
