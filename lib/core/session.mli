(** A shrink wrap schema design session.

    The session owns the artifacts of the paper's architecture (Figure 1):
    the original shrink wrap schema, its concept schemas, the workspace for
    the schema under design, the operation log with recorded impacts, the
    local-name bindings, and — derived on demand — the custom schema, the
    consistency report, and the shrink-wrap → custom mapping.  Sessions are
    immutable values: applying an operation returns a new session, and undo
    is structural. *)

open Odl.Types

type source
(** Where a step's impact events come from: recorded when it committed,
    or — for the steps a checkpoint covers ({!of_checkpoint}) — replayed
    on first demand.  No step keeps its parsed op. *)

type step = {
  st_kind : Concept.kind;  (** concept schema type the op was issued from *)
  st_text : string;
      (** the op in the modification language, [Op_printer.to_string] of
          {!step_op}: printed once when {!apply} or {!redo} made the step,
          or — for a checkpointed step — cut from the journal bytes the
          checkpoint covers.  The [log] reply, the journal records, the
          snapshot, the [diff] lines and the reports all read it instead of
          printing. *)
  st_src : source;  (** read through {!step_op} and {!step_events} *)
}

val step_op : step -> Modop.t
(** The step's operation, parsed from [st_text] (the printer is
    injective).  For a checkpointed step the first call parses the texts
    of the checkpoint's whole log prefix once (thread-safe, shared by
    every session derived from the resumed one); a recorded step parses
    its own text on every call.  Redo, undo into the prefix, the impact
    events, rebase, merge and {!Oplog.pairs} need it, the log's
    renderings and the journal do not.
    @raise Failure when a checkpointed text does not parse — the caller of
    {!of_checkpoint} vouched that it does. *)

val step_events : step -> Change.event list
(** Direct + propagated impact of the step.  For a checkpointed step the
    first call replays the checkpoint's log prefix once (thread-safe,
    shared by every session derived from the resumed one). *)

val undo_depth : int
(** How many old index versions a session keeps for undo.  Undoing past
    them rebuilds the index from a memoized replay of the log — correct,
    not fast. *)

type t

exception Divergence of string
(** Raised in paranoid mode when the indexed engine's outcome for an
    operation differs from the naive reference engine's — acceptance,
    resulting workspace, impact events, or diagnostics.  Indicates a bug in
    the index; the operation is not committed. *)

val create : ?paranoid:bool -> schema -> (t, Odl.Validate.diagnostic list) result
(** Start a session; an invalid shrink wrap schema is rejected with its
    error diagnostics.  Operations run on the indexed engine; with
    [~paranoid:true] (default [false]) every operation is additionally run
    through the naive engine and compared (see {!Divergence}).

    Cost: one {!Schema_index.build} of the schema (map inserts, O(n log n)
    in its size) and the validity of every name — the index's cold
    consistency walk, one index-backed check per interface plus the
    schema-global block.  Only [~paranoid:true] also runs the naive
    [Odl.Validate.check], whose list scans are quadratic in the number of
    interfaces.  A repository pays it once for its shrink wrap, not once
    per variant open: its variants open on one base session. *)

val of_checkpoint :
  t ->
  workspace:schema ->
  (Concept.kind * string) list ->
  (t, Odl.Validate.diagnostic list) result
(** [of_checkpoint t ~workspace prefix] — [t] fresh from {!create} — is the
    session [prefix] replayed on [t] would give (same workspace, log,
    version stamp, undo/redo behaviour), built without replaying:
    [workspace] must be the state after [prefix], which the caller vouches
    for (the repository checkpoint is validated against the journal).
    Each prefix op is given as its text, which becomes the step's
    {!field-st_text}: the caller vouches that it is [Op_printer.to_string]
    of an op (the repository cuts it from the digest-checked journal bytes
    its own snapshot wrote).  [Error] when [workspace] has error
    diagnostics.

    Cost: O(interfaces of [workspace] not physically shared with [t]'s
    shrink wrap + steps).  The workspace index is [t]'s
    ({!Schema_index.patch}): the interfaces [workspace] shares with the
    shrink wrap are kept, the others re-filed, and validity re-checked on
    their dirty neighbourhood alone.  No op is parsed: the prefix texts
    are parsed the first time anything asks for an op ({!step_op}), so a
    text that does not parse is not noticed here — that first
    {!step_op}, and every later one into the prefix, raises [Failure].
    @raise Invalid_argument when [t] has a log. *)

val original : t -> schema
(** The shrink wrap schema; never modified. *)

val workspace : t -> schema
(** The schema under design: [Schema_index.schema (index t)]. *)

val index : t -> Schema_index.t
(** The workspace's schema index. *)
val concepts : t -> Concept.t list
(** The decomposition of the original schema (built on each call; a single
    id is {!find_concept}). *)

val log : t -> step list
(** The applied steps, oldest first (rebuilt on each call — report-path
    cost; the hot path uses {!steps_rev}). *)

val steps_rev : t -> step list
(** The applied steps, {e newest} first — the session's internal spine.
    Apply conses onto it and undo pops it, so two sessions of one lineage
    share the spine below their divergence point {e physically}; {!delta}
    diffs two logs by pointer equality on it in O(changed steps). *)

val step_count : t -> int
(** [List.length (log t)]: committed (not undone) steps.  O(1). *)

(** {1 Log deltas} *)

type spine
(** A session's step spine ({!steps_rev}) with its length, captured in
    O(1).  Holding one keeps that log alive, not the session. *)

val spine : t -> spine

val equal_step : step -> step -> bool
(** Same concept schema type and equal operation (impact ignored),
    compared by text: no checkpointed op is parsed. *)

val delta : spine -> spine -> step list * step list
(** [delta before after] is [(undone, added)], both oldest first: undoing
    the [undone] steps from [before]'s log, newest first, then applying
    the [added] steps gives [after]'s log.  Pairs undone and re-added
    unchanged are trimmed, so [delta s s = ([], [])].  O(changed steps)
    between spines of one lineage — the one walk behind every journal
    delta and every [diff] history line. *)

val version : t -> int
(** Monotonic change stamp: [0] at {!create}, bumped by every state
    transition (apply, undo, redo, alias changes).  Unlike {!step_count} it
    never goes backwards along a session's lineage, so snapshot readers can
    use it to detect staleness. *)
val find_concept : t -> string -> Concept.t option
(** [Decompose.find (concepts t) id], at the cost of that concept schema
    alone. *)

val apply :
  t -> kind:Concept.kind -> Modop.t -> (t * Change.event list, Apply.error) result

val apply_in :
  t -> concept_id:string -> Modop.t -> (t * Change.event list, Apply.error) result
(** Apply from a specific concept schema; the operation's subject must be
    covered by that concept schema. *)

val preview : t -> kind:Concept.kind -> Modop.t -> (Change.event list, Apply.error) result

val undo : t -> t option
(** Revert the most recent step; [None] when the log is empty.  The undone
    operation becomes redoable until the next fresh application. *)

val redo : t -> (t * Change.event list) option
(** Re-apply the most recently undone step; [None] when there is nothing to
    redo. *)

val redoable : t -> int
(** How many undone steps could be redone. *)

val custom_schema : ?name:string -> t -> schema
(** The customized user schema (default name: ["<original>_custom"]). *)

(** {1 The rendered log} *)

type log_text = { lt_spine : spine; lt_text : string }
(** A log rendering ({!Oplog.render_session}) and the spine it renders. *)

val log_text : t -> log_text Atomic.t
(** The lineage's cell holding the last [log] rendered along it.  Every
    session derived from this one by apply, undo, redo and local-name
    changes shares it, so a commit pays nothing for it; {!create},
    {!of_checkpoint} and {!new_lineage} start a cell of their own, which
    holds the empty log.  The cell may hold any rendering: a reader
    extends it only when its spine is physically below the reader's
    own ({!delta}). *)

val new_lineage : t -> t
(** The same session with a {!log_text} cell of its own.  Sessions taken
    from one shared value (a repository's base session, from which every
    variant starts) call it, so that two variants never share a cell. *)

(** {1 Local names} *)

val add_alias : t -> Aliases.target -> string -> (t, string) result
val remove_alias : t -> Aliases.target -> t
val aliases : t -> Aliases.t
(** Live bindings; stale ones are pruned on read. *)

val aliases_report : t -> string
val restore_aliases : t -> Aliases.t -> t

(** {1 Reports and deliverables} *)

val consistency_report : t -> Odl.Validate.diagnostic list
(** Equal to [Odl.Validate.check (workspace t)], served incrementally from
    the index's dirty-set validity memo. *)
val consistency_report_text : t -> string
val mapping : t -> Mapping.t
val mapping_report : t -> string
val impact_report : t -> string
val current_concepts : t -> Concept.t list
(** Decomposition of the workspace (reflects customizations).  O(size of
    the workspace); a single id is {!find_current_concept}. *)

val find_current_concept : t -> string -> Concept.t option
(** [Decompose.find (current_concepts t) id], at the cost of that concept
    schema alone. *)

val deliverables : t -> string
(** All designer deliverables in one document. *)

(** The replayable op-log projection of a session — serialization
    ([Oplog.render]), replay ([Oplog.replay]), and optimistic rebase across
    branched variants ([Oplog.rebase]) — lives in {!Oplog}. *)
