(** The worker processes behind [swsd serve --shards N] and [swsd serve
    --replicas K], under one supervisor (DESIGN.md §13–§14).

    Every worker is a fork+exec'd [EXE serve ...] on its own Unix socket,
    a direct child of the supervising process.  A supervisor thread reaps
    dead workers ([waitpid WNOHANG]) and applies the role's restart
    policy; the stale-socket probe in {!Transport.listen} lets a restarted
    worker rebind the path its kill -9'd predecessor left behind. *)

type topology =
  | Sharded of int
      (** N shard workers over one repository directory, for {!Router}:
          shard [k] serves [DIR/shard-k.sock] *)
  | Replicated of int
      (** a leader ([DIR/leader.sock], [--replicate]) plus K followers,
          follower [j] replicating into [DIR/replica-j] and serving
          read-only on [DIR/replica-j.sock] *)

type role = Shard of int | Leader | Follower of int

type t

val create :
  ?worker_args:string list -> exe:string -> dir:string -> topology -> t
(** Describe the workers; [worker_args] is appended to every worker's
    argv.  Nothing is spawned until {!start}. *)

val start : t -> (unit, string) result
(** Spawn the workers — a replicated topology's leader first, since
    followers dial it as they boot — and wait until each accepts a
    connection, then start supervising.  Fails fast, naming the role, if
    a worker exits during startup; gives up after 20 s overall.

    Restart policies, checked every 50 ms: a dead shard or follower is
    respawned in place.  A dead leader is replaced by the first live
    follower, restarted on the leader's socket with [--promote-from <old
    leader dir>]; the other followers reconnect to it, and the promoted
    follower's slot stays empty.  With no live follower the leader
    restarts in place with [--promote-from] on its own directory. *)

val stop : ?grace:float -> t -> unit
(** Stop supervising, SIGTERM every worker and reap them; SIGKILL
    stragglers after [grace] seconds (default 10). *)

val shards : t -> int
(** The shard count of a sharded topology; 0 for a replicated one. *)

val socket : t -> role -> string

val pid : t -> role -> int
(** The role's current worker pid; negative when it is not running. *)

val leader_dir : t -> string
(** The leader's repository directory; it moves on promotion. *)

val restarts : t -> int
(** Workers restarted in place since {!start}. *)

val promotions : t -> int

val kill_leader : t -> (unit, string) result
(** SIGKILL the leader and wait (up to 20 s) until a follower has been
    promoted in its place — the chaos and bench scenario. *)
