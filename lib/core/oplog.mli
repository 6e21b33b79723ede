(** The replayable operation log, extracted from {!Session} as a value of
    its own.

    A session records {e steps} (operation + impact + undo snapshot); an
    op-log is the durable, exchangeable projection of that record: the
    [(concept kind, operation)] pairs in application order, each with the
    impact events observed when it committed, stamped with the session
    version it was sealed at.  The log is what the repository journals,
    what [replay] rebuilds a session from — and, new here, what [rebase]
    replays onto a {e moved-ahead} base when two designers branched the
    same variant and one of them merges back.

    Rebase is optimistic and semantic, not textual: every branch operation
    is re-run through the permission matrix ({!Permission.allowed}) and the
    incremental consistency checker (via {!Session.apply}, i.e.
    {!Apply.Indexed} over {!Schema_index}) against the base as it stands
    now.  Each op is classified:

    - {e clean} — applies with exactly the impact recorded on the branch;
    - {e auto-merged} — already present on the base (both sides made the
      same change) or applies with {e different} propagated impact, which
      the merge adopts;
    - {e conflict} — refused, either by the permission matrix (the op's
      concept schema type no longer admits it) or by the checker
      (constraint violation / unknown construct on the rebased base).
      Conflicts are reported, never silently applied.

    The result folds into the shrink-wrap → custom {!Mapping} of the merged
    session plus a structured impact report. *)

open Odl.Types

type entry = {
  e_kind : Concept.kind;  (** concept schema type the op was issued from *)
  e_op : Modop.t;
  e_events : Change.event list;
      (** impact recorded when the op originally committed *)
}

type t = {
  steps : Session.step list;  (** application order (oldest first) *)
  sealed_at : int;  (** {!Session.version} stamp the log was taken at *)
}

val of_session : Session.t -> t
(** The committed (not undone) steps of [s], oldest first, stamped with the
    session's current version.  Reads no impact events, so it never forces
    a checkpointed session's prefix replay. *)

val entry_of_step : Session.step -> entry
(** The step with its impact events ({!Session.step_events}). *)
val pairs : t -> (Concept.kind * Modop.t) list
val length : t -> int

val render : t -> string
(** The log in the modification language (replayable via {!replay}); one
    [// in <concept schema>] comment line per op.  This is the designer's
    [log] reply.  It joins the steps' {!Session.field-st_text}s and prints
    no op.  It is the reference for {!render_session}. *)

val render_session : Session.t -> string
(** [render (of_session s)], the designer's [log] reply, at the cost of
    the steps since the last reply along [s]'s lineage: the lineage's
    cell ({!Session.log_text}) is extended by the steps [s] added above
    it, into one string of the exact size, and set to the result.  When an undo went below
    the cell, or [s] is of another lineage, the log is rendered whole.
    Safe from several threads at once: each reader checks the cell
    against its own spine. *)

val replay :
  ?paranoid:bool ->
  schema ->
  (Concept.kind * Modop.t) list ->
  (Session.t, Apply.error) result
(** Rebuild a session by replaying a [(kind, op)] log on a shrink wrap
    schema.  (Moved here from [Session.replay].) *)

val invalid_shrink_wrap : Odl.Validate.diagnostic list -> Apply.error
(** The error {!replay} gives when {!Session.create} refuses the shrink
    wrap with these diagnostics. *)

val replay_on :
  Session.t -> (Concept.kind * Modop.t) list -> (Session.t, Apply.error) result
(** {!replay} onto a given session — a fresh one the caller already holds,
    such as a repository's base session. *)

(** {1 Fork-point arithmetic} *)

val common_prefix : base:Session.t -> branch:Session.t -> int
(** Length of the longest shared leading run of [(kind, op)] steps — the
    fork point of two sessions that branched from one lineage.  Robust
    against undo on either side: steps only push and pop at the tail, so
    the prefix is exactly what both histories still agree on. *)

val branch_entries : base:Session.t -> branch:Session.t -> entry list
(** The branch's steps past {!common_prefix} — the ops to rebase. *)

(** {1 Rebase} *)

type reason =
  | Permission of string
      (** refused by the paper's Table 1: the op's concept schema type does
          not admit it against the rebased base *)
  | Rejected of Apply.error
      (** refused by the consistency checker: unknown construct, conflict,
          or constraint violation on the moved-ahead base *)

type outcome =
  | Clean of Change.event list  (** applied; impact identical to recorded *)
  | Auto_merged of string * Change.event list
      (** applied (or skipped as already-present), with the difference
          described; the events are the ones actually produced *)
  | Conflict of reason  (** not applied; surfaced in the report *)

type verdict = { v_entry : entry; v_outcome : outcome }

type report = {
  r_base_version : int;  (** base session version the rebase started from *)
  r_session : Session.t;  (** the merged session (conflicts excluded) *)
  r_mapping : Mapping.t;  (** shrink-wrap → custom mapping of the merge *)
  r_verdicts : verdict list;  (** one per branch op, in branch order *)
  r_clean : int;
  r_auto : int;
  r_conflict : int;
}

val rebase : base:Session.t -> branch_ops:entry list -> report
(** Replay [branch_ops] onto [base] (already moved ahead of the fork
    point), classifying each op as above.  Conflicting ops are skipped —
    the merged session contains only the clean and auto-merged ones. *)

val conflicts : report -> (entry * reason) list

val render_report : string -> report -> string
(** The structured merge impact report shown to the designer: per-op
    verdict lines (with impact events for applied ops and refusal reasons
    for conflicts), the clean/auto/conflict tally, and the merged mapping
    summary.  The first argument labels the merge (e.g. ["w into v"]). *)
