(** Indexed schema backend: map-backed name→interface lookup, reverse ISA /
    reverse-mention adjacency, and incremental consistency checking with a
    dirty-set diagnostics cache.

    Implements {!Schema_view.S}, so the functorized engine ({!Apply.Make},
    {!Propagate.Make}, {!Decompose.Make}) runs unchanged over it; the naive
    backend {!Schema_view.Naive} is the reference oracle it is
    differentially tested against.

    The index is persistent: every update returns a new value and old values
    remain usable (undo in {!Session} keeps superseded versions).  The
    mutable fields are memoization caches only; each version owns its own,
    so divergent versions cannot corrupt one another.

    Thread rule: a published version is read by many threads at once (the
    lock-free read path, and query threads refreshing their views).  Only
    the consistency checks — {!diagnostics}, {!errors}, {!is_valid} —
    write the caches, and each write stores a fully computed immutable
    value into a field of its own version (compute, then one store), so a
    racing reader sees the old value or the new one, both correct.  Every
    other query — lookups, {!names_from}, {!ancestors}, {!descendants},
    {!relationships_targeting}, {!changed_names}, and
    {!Decompose.Indexed.wagon_wheel}, [parts] and [wholes] over them, the
    whole path of a query view refresh and of a query's evaluation — only
    reads.  A new cache must keep to the same rule or
    publish through an [Atomic].

    {!diagnostics} equals [Odl.Validate.check (schema t)] for {e any}
    schema, including invalid ones.  The other queries assume interface
    names are unique (duplicate names are an error-level diagnostic, and
    {!Session.create} refuses such schemas). *)

type t

val build : Odl.Types.schema -> t
(** Index a schema from scratch; O(size of schema).  The diagnostics cache
    starts cold — the first {!diagnostics} call pays full-check cost. *)

include Schema_view.S with type t := t

val is_valid : t -> bool
(** No error-level diagnostics (cache-served where possible). *)

val affected_count : t -> Odl.Types.type_name list -> int
(** [List.length (affected_by t names)], without building, filtering or
    sorting the list: the size of the dirty neighbourhood. *)

type shelved
(** An index version without its materialized interface list: O(log n)
    words beyond what it shares with neighbouring versions, instead of
    O(n).  What a history of old versions keeps (undo in {!Session}). *)

val shelve : t -> shelved

val unshelve : shelved -> t
(** The shelved version again, its schema's interface list rebuilt in
    declaration order — O(n log n).  [schema (unshelve (shelve t))] equals
    [schema t]; every other query answers as on [t]. *)

val names_from : t -> string -> Odl.Types.type_name Seq.t
(** The interface names at or after a key, in ascending string order: a
    prefix scan stops at the first name past the prefix.  Read-only. *)

val changed_names : t -> t -> Odl.Types.type_name list
(** [changed_names old new_] — the interface names whose records differ
    between two index versions of one lineage, sorted.  Detected by pointer
    equality on the persistent [by_name] entries, which means folding both
    versions' maps: O(n log n) in the schema size, however small the
    change.  Sound for any two versions (unrelated versions report every
    differing entry).  This is the dirty seed the query views
    ({!Query.View}) refresh their attribute index from, and the whole fixed
    cost of such a refresh. *)
