(** Lock-free snapshot publication with epoch counters.

    One {!t} maps each variant to an atomically published immutable
    snapshot (the service publishes an {!Designer.Engine.state} with the
    query view of its session, but the table is generic).  Readers {!read}
    the current snapshot and run on it with no lock at all; the single
    writer (holding the variant's writer lock) {!publish}es each committed
    state, and eviction {!retract}s the cell, bumping the variant's epoch.
    The writer builds each value from what it kept of the previous one
    (['r], projected by [keep]) — kept across {!retract}, so a value can
    carry history over an evict/reload cycle while pinning only that
    projection.

    Three counters ride on every entry, all monotone for the lifetime of
    the service (entries are never removed from the table, so they survive
    session eviction):

    - {b seq} — the publication stamp: bumped by every {!publish} and
      stored {e with} the value, so a reader always sees a (value, stamp)
      pair that belongs together.  This is the [#version] surfaced in
      responses: per variant it never goes backwards, even across
      evict/reload cycles.
    - {b epoch} — bumped by every {!retract}: a cheap "the session you
      were reading was evicted" signal.  Stale readers finish on their
      snapshot (it is immutable), then reattach.
    - {b readers} — how many threads are inside {!with_snapshot} right
      now: the idle reaper treats a variant with live snapshot holders as
      busy.

    Thread-safe without locks: the variant map is copy-on-write behind an
    [Atomic], the per-variant cell is a single atomic load/store. *)

type ('a, 'r) t
(** Publishes ['a] values; keeps an ['r] of the newest one for the
    writer. *)

val create : keep:('a -> 'r) -> unit -> ('a, 'r) t

val read : ('a, _) t -> string -> ('a * int) option
(** The variant's current snapshot and its publication stamp; [None] when
    nothing is published (never opened, or retracted by eviction). *)

val with_snapshot : ('a, _) t -> string -> ('a * int -> 'b) -> 'b option
(** Like {!read}, but holds the variant's live-reader count across [f] so
    the reaper will not free the session mid-read.  [None] when nothing is
    published ([f] is not called). *)

val publish :
  ('a, 'r) t -> string -> ?at:int -> (stamp:int -> 'r option -> 'a) -> int
(** [publish t key build] mints the next stamp, builds the value from it
    and from the kept part of the last value published ([None] for the
    variant's first), publishes the pair and returns the stamp — one
    step, so the value always knows its own stamp.  Single writer per
    variant (the caller holds the writer lock, or is the one applier);
    concurrent readers observe either the old pair or the new, never a
    mixture.

    [~at] publishes under a caller-supplied stamp instead of minting one
    — the replication follower pins its published stamps to the
    leader's, so a follower's [#version] can never exceed the stamp the
    leader issued.  [seq] ratchets to [max seq at]. *)

val retract : _ t -> string -> unit
(** Eviction: clear the published cell and bump the epoch.  The stamp
    counter and the kept ['r] are retained, so a later re-publish
    continues the sequence and builds on the last value. *)

val seq : _ t -> string -> int
(** Last issued publication stamp (0 before the first publish). *)

val epoch : _ t -> string -> int
(** How many times the variant was retracted. *)

val readers : _ t -> string -> int
(** Live snapshot holders currently inside {!with_snapshot}. *)

val touch : _ t -> string -> now:float -> unit
(** Record read-path activity for the idle reaper (lock-free reads never
    touch the session record, so writer-side [last_used] alone would let
    the reaper free a read-hot variant). *)

val last_touched : _ t -> string -> float
(** Latest {!touch} time; [0.] when never touched. *)
