(** Indexed schema backend: map-backed name→interface lookup, reverse ISA /
    reverse-mention adjacency, the attribute → declarers map, and
    incremental consistency checking through a per-version validity memo.

    Implements {!Schema_view.S}, so the functorized engine ({!Apply.Make},
    {!Propagate.Make}, {!Decompose.Make}) runs unchanged over it; the naive
    backend {!Schema_view.Naive} is the reference oracle it is
    differentially tested against.

    The index is persistent: every update returns a new value and old values
    remain usable (undo in {!Session} keeps superseded versions).  The one
    mutable field is the validity memo: one immutable record holding the
    per-interface diagnostics, the names still pending a re-check, the
    names whose diagnostics hold an error, and the schema-global block.
    Each version owns its own, so divergent versions cannot corrupt one
    another.  An update moves its dirty neighbourhood from the memo's
    diagnostics and error set into the pending set, so {!is_valid} and
    {!errors} on a valid schema re-check only those names: O(change), not
    O(schema).

    Thread rule: a published version is read by many threads at once (the
    lock-free read path, and query threads evaluating against it).  Only
    the consistency checks — {!diagnostics}, {!errors}, {!is_valid} —
    write the memo, and each write stores a fully computed memo record
    into its own version's field (compute, then one store), so a racing
    reader sees the old record or the new one, both correct.  Every other
    query — lookups, {!names_from}, {!declarers}, {!attrs_from},
    {!ancestors}, {!descendants}, {!relationships_targeting}, and
    {!Decompose.Indexed.wagon_wheel}, [parts] and [wholes] over them, the
    whole path of a query's evaluation — only reads.  A new cache must
    keep to the same rule or publish through an [Atomic].

    {!diagnostics} equals [Odl.Validate.check (schema t)] for {e any}
    schema, including invalid ones.  The other queries assume interface
    names are unique (duplicate names are an error-level diagnostic, and
    {!Session.create} refuses such schemas). *)

type t

val build : Odl.Types.schema -> t
(** Index a schema from scratch; O(size of schema).  The validity memo
    starts cold — the first consistency check pays full-check cost. *)

include Schema_view.S with type t := t

val patch : t -> Odl.Types.schema -> t
(** [patch t s] answers every query as [build s] does, reusing [t]: an
    interface of [s] physically equal to [t]'s interface of the same name
    is taken as unchanged, and only the others — changed, added, or absent
    from [s] (removed) — are re-filed and put in the dirty neighbourhood
    the next consistency check re-examines.  Cost: a pointer comparison
    per interface, map work for the touched ones, and (at the next
    {!errors}) a re-check of their dirty closure instead of a cold walk.
    Survivors keep their declaration positions and new names follow them,
    as {!add_interface} appends.  From the first survivor out of that
    order on (survivors reordered, a name inserted before a survivor, an
    interface deleted and declared again), every interface takes a fresh
    position and a survivor among them is touched, as if removed and
    added again.  Only duplicated names are {!build}. *)

val is_valid : t -> bool
(** No error-level diagnostics: the pending names are re-checked, then the
    global block and the memo's error set decide.  {!errors} is [[]] on
    that path and the error-level part of the full {!diagnostics}
    otherwise.  A schema with duplicate names takes the full walk. *)

val affected_count : ?local:bool -> t -> Odl.Types.type_name list -> int
(** [List.length (affected_by t names)], without building, filtering or
    sorting the list: the size of the dirty neighbourhood.  With
    [~local:true], the length of [locally_affected_by t names]: the local
    closure an update that keeps the names' supertypes and relationships
    dirties. *)

type counts = {
  interfaces : int;
  attributes : int;
  relationship_ends : int;
  operations : int;
}

val counts : t -> counts
(** The schema's interfaces and their attributes, relationship ends and
    operations, as {!Odl.Schema.count_constructs} and the length of the
    interface list count them: O(1), kept up by each update's delta.  A
    schema with duplicate names is built again on every update, and so
    counted from its list. *)

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

val declarers : t -> string -> Set.Make(String).t
(** The interfaces declaring an attribute of this name (empty when none):
    one map lookup.  Read-only. *)

val attrs_from : t -> string -> (string * Set.Make(String).t) Seq.t
(** The attribute names at or after a key, in ascending string order, each
    with its declarers: a prefix scan stops at the first name past the
    prefix.  Read-only. *)
