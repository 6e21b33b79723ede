(** The decisions behind [swsd serve], apart from its command line: which
    process topology the flags select, the flags every supervised worker
    inherits, and the write era a single writer presents. *)

val topology :
  shards:int ->
  replicas:int ->
  replicate:bool ->
  follow:string option ->
  promote_from:string option ->
  (Supervisor.topology option, string) result
(** [Some (Sharded n)] for [--shards n] with [n >= 2]; [Some (Replicated
    k)] for [--replicas k] with [k > 0]; [None] for a single process.
    [--shards] with any replication flag is refused. *)

val worker_flags :
  no_obs:bool ->
  flush_linger_ms:float ->
  flush_max_batch:int ->
  fsync_delay_ms:float ->
  string list
(** The [swsd serve] flags the front process passes on to its workers. *)

type writer = {
  promoted : (int * (string * (unit, string) result) list) option;
      (** with [--promote-from]: {!Replication.promote}'s new era and
          per-variant outcomes *)
  adopted : int option;
      (** the store's era, when it is above both [--era] and the
          promotion's *)
  era : int;  (** the era the writer presents at session load *)
  replicate : bool;  (** a promoted writer always accepts followers *)
}

val writer :
  ?io:Repository.Io.t ->
  ?promote_from:string ->
  replicate:bool ->
  era:int ->
  string ->
  (writer, string) result
(** Prepare the repository at the directory for a single writer.  With
    [promote_from], first recover that dead leader's directory into this
    one ({!Replication.promote}); [Error] is a failed promotion.  Then
    adopt the highest era the store already carries ({!Repository.Repo.max_era};
    an unreadable store counts as 0): fencing refuses a {e still
    running} stale writer, not the next clean start of this directory
    (DESIGN.md §14). *)
