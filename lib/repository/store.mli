(** On-disk schema repository (crash-safe).

    Persistence reuses the system's own languages: schemas are stored as
    extended ODL text and operation logs in the modification language, so a
    repository is human-readable and round-trips through the parsers.

    Layout of a repository directory:
    {v
    <dir>/shrinkwrap.odl     the original shrink wrap schema
    <dir>/log.ops            operation journal:  @ww add_...(...);  @undo;
                             (absent while the history is empty)
    <dir>/aliases.map        local names:  Canonical = local
                             (absent while there are none)
    <dir>/checkpoint.odl     the workspace at the end of a journal prefix,
                             as the interfaces that differ from the shrink
                             wrap, with digests of the shrink wrap and that
                             prefix
                             (absent until a save covers an operation)
    <dir>/manifest           format version, generation, journal watermark
    <dir>/custom.odl         deliverables, written only by {!save_reports}
    <dir>/reports/*          and never read back
    v}

    Recovery reads the shrink wrap, the journal and the local names; the
    checkpoint and the deliverables are derived from them.  [custom.odl]
    and [reports/] reflect the last save that rendered deliverables: a
    copy an older build left in a served variant is stale, and nothing
    reads or checks it.

    Durability: every whole-file artifact is written via write-to-temp,
    fsync, atomic rename; the journal is append-only with a per-record
    fsync ({!Journal}) and rewritten only by a full {!save_session}; the
    snapshot, {!save_checkpoint}, takes it as it stands.  A live session's
    appends and snapshots go through one {!writer}, which knows the
    journal's durable length.  A save writes
    only what recovery reads and whose bytes changed, and the manifest
    last, so it witnesses a completed save.  All syscalls go through an
    injectable {!Io.t}.

    The checkpoint is derived data — a missing, damaged or stale one only
    sends the load back to the recovery walk, the full replay of the
    journal that {!fsck} runs too.

    Cost is bounded by what changed.  A load from the checkpoint is
    O(interfaces that differ from the shrink wrap + journal suffix): the
    checkpoint body holds only the interfaces that differ, so reading,
    digesting and parsing it is O(changed); the covered journal prefix
    is digest-checked and its op texts cut, not parsed
    ({!Core.Session.of_checkpoint} parses them on first demand), its
    [@undo;] records resolved as the cut goes ({!Journal.op_records});
    and the workspace index is the shrink wrap session's patched with the
    changed interfaces ({!Core.Schema_index.patch}).  A checkpoint is
    O(changed interfaces) printing, joining and digesting its body.  Both
    add, at memory speed, the files read (a save reads [shrinkwrap.odl]
    and [aliases.map] back, O(schema)), the digest of the journal
    (O(journal)) and pointer walks over the interfaces — and the writes.
    The shrink wrap costs O(schema) more, parsed and indexed by a load
    and printed by a save, unless the store holds its base.

    The base.  Every variant of a repository is designed against one
    published shrink wrap, printed and indexed once ({!type-base}); a
    store opened on it ({!open_dir}'s [base], {!Repo.variant_store})
    starts each load and fsck from the base's session, digest and chunks
    when [shrinkwrap.odl] holds exactly its text, and a save of a session
    derived from the base's session prints no shrink wrap.  Otherwise, as
    on a bare store, the base is built from [shrinkwrap.odl] (a load,
    fsck) or from the session (a save).  The results are the same. *)

type chunks
(** The shrink wrap's interfaces by position and by name: what a
    checkpoint body names instead of printing. *)

type base = private {
  b_text : string;  (** the shrink wrap, printed as {!save_session} stores it *)
  b_digest : string;  (** [b_text]'s hex digest, as a checkpoint records it *)
  b_session : Core.Session.t;  (** a session just created on it *)
  b_chunks : chunks;  (** its interfaces by position and by name *)
}
(** A repository's shrink wrap, printed and indexed once ({!Repo}): the
    session every variant of the repository starts from. *)

val base : Core.Session.t -> base
(** The base of a session just created on a shrink wrap: its schema
    printed, digested and indexed by position once. *)

type t

val open_dir : ?io:Io.t -> ?base:(unit -> base option) -> string -> t
(** Open (creating if needed) a repository rooted at the directory, on
    [base]: asked for only when a load, save or fsck needs the shrink wrap,
    so a store opened to read its manifest builds none.  The default is
    a bare store. *)

val dir : t -> string
val io : t -> Io.t
val shrinkwrap_file : t -> string
val log_file : t -> string
val custom_file : t -> string
val checkpoint_file : t -> string
val manifest_file : t -> string
val reports_dir : t -> string

(** {1 Operation log format} *)

exception Bad_log of string

val log_to_string : (Core.Concept.kind * Core.Modop.t) list -> string
(** One newline-terminated line per step: a [@ww]/[@gh]/[@ah]/[@ih] concept
    tag followed by the operation in the modification language. *)

val log_of_string : string -> (Core.Concept.kind * Core.Modop.t) list
(** Inverse of {!log_to_string}; blank lines and [// ...] comments are
    skipped and [@undo;] records are resolved.
    @raise Bad_log on malformed lines. *)

(** {1 Individual artifacts} *)

val save_shrinkwrap : t -> Odl.Types.schema -> unit
val load_shrinkwrap : t -> Odl.Types.schema
val load_aliases : t -> Core.Aliases.t

(** {1 Manifest} *)

type manifest = {
  m_generation : int;
      (** bumped by every {!save_session} and {!save_checkpoint} *)
  m_ops : int;
      (** resolved operation count at that save; {!fsck} asks for a
          checkpoint only when it is positive *)
  m_bytes : int option;
      (** length of the journal at that save.  The journal only grows
          until the next full save, so {!fsck} reports a lost tail only
          when the journal is shorter {e and} fewer than [m_ops] ops
          replay; [None] for manifests written before the line existed
          (fsck then compares op counts alone) *)
  m_era : int;
      (** write era for replication fencing; 0 for manifests written
          before replication existed (the parser tolerates the missing
          line).  Preserved by every save, raised by {!fence} and by
          {!save_session}'s [era]. *)
  m_lineage : (string * int) option;
      (** [(parent variant, fork stamp)] recorded when this variant was
          branched; [None] for root variants and manifests written before
          branching existed.  Preserved by every save and {!fence}; set
          by {!save_session}'s [lineage]. *)
}

val load_manifest : t -> manifest option
(** [None] when absent or unreadable (older repository or interrupted
    save — the artifacts themselves are still authoritative). *)

(** {1 Variant lineage} *)

val lineage : t -> (string * int) option
(** The (parent variant, fork stamp) recorded at branch time; [None] for
    root variants. *)

(** {1 Generation fencing} *)

val stored_era : t -> int
(** The write era recorded in the manifest; 0 when there is no manifest. *)

val fence : t -> era:int -> unit
(** Stamp [era] into the manifest (monotone — never lowers a higher
    stored era).  Promotion fences both the dead leader's store and the
    promoted replica's at the new era; a writer whose configured era is
    below a variant's stored era must refuse to open it for writing —
    a newer writer has taken over. *)

(** {1 Whole sessions} *)

val save_session :
  ?lineage:string * int -> ?era:int -> t -> Core.Session.t -> unit
(** The full save, for a directory that does not hold the session's
    history: a new variant, a branch's staging copy, [save DIR] into
    another directory than the writer's, a promotion and salvage.  It writes the journal as the session's
    resolved log ({!Journal.steps_to_string}, no op printed), then does
    what {!save_checkpoint} does over it: the shrink wrap, local names
    and checkpoint, and last the manifest — each atomically.  It renders
    no deliverables: [custom.odl] and [reports/] are {!save_reports}'s.
    An empty history writes no [log.ops] (an old one is removed): a
    missing journal reads as empty and the first append creates it.
    [lineage] records the branch point (parent variant, fork stamp) and
    [era] raises the write era to at least it ({!fence}), both in the one
    manifest the save writes; without them the manifest's are kept. *)

val save_checkpoint : t -> Core.Session.t -> unit
(** Checkpoint a session whose history the journal holds — its records,
    [@undo;]s included, resolve to the session's log.  That is the
    caller's to know, not this function's: nothing is compared.  A
    journal {!writer} knows it ({!snapshot}); a caller that cannot (a
    failed append, a directory that does not hold the history) calls
    {!save_session}.  The journal is read and not written, and the
    checkpoint covers all its bytes, with the full digest of them.

    Only what recovery reads and whose bytes changed is written:
    [shrinkwrap.odl] and [aliases.map] when reading them back gives other
    bytes (a read costs less than an fsync), no [aliases.map] without
    local names (an existing one is emptied), and no checkpoint for a
    session with no op (an old one is removed: it could never serve
    again).  The manifest is always written, and so is the checkpoint of
    a session with an op, so a snapshot that did not change local names
    costs two fsyncs.
    The checkpoint body holds only what differs from the shrink wrap:
    each run of workspace interfaces equal to consecutive shrink wrap
    interfaces is one line naming them by position,
    [// shrinkwrap <first> <count>], and the other interfaces are
    printed.  Its cost is the header's. *)

val aliases_differ : t -> Core.Session.t -> bool
(** Whether a save of the session would rewrite [aliases.map]: its local
    names are not the file's.  The journal does not carry local names, so
    a byte copy of the store (a follower's) that only receives appended
    records misses the change. *)

val save_reports : t -> Core.Session.t -> unit
(** Render the deliverables: the custom schema into [custom.odl]
    ({!Core.Session.custom_schema}, printed), and into [reports/]
    [impact.txt], [consistency.txt], [mapping.txt] and
    [deliverables.html].  The one writer of them all, called by an
    explicit designer [save] and the CLI's [--save]. *)

type load_error =
  | Damaged of { file : string; reason : string }
      (** an artifact is missing, unreadable, or corrupt *)
  | Replay of Core.Apply.error
      (** the journal is well-formed but an operation is rejected when
          replayed on the stored shrink wrap schema *)

val load_error_to_string : load_error -> string

val load_session : ?repair:bool -> t -> (Core.Session.t, load_error) result
(** Rebuild from the checkpoint plus the journal records appended after it,
    or — when the checkpoint is missing, covers no operation, is damaged,
    does not match the shrink wrap or journal prefix, has error
    diagnostics, is undone into by a later [@undo;], or the records after
    it are corrupt — by the recovery walk {!fsck} runs too: the whole
    journal replayed on the stored shrink wrap schema, local names
    restored, its first fault the error.  Both paths give the same
    session.  A torn journal tail (crash artifact of an unacknowledged
    append) is silently truncated; interior corruption is {!Damaged}.  No
    exception escapes the load.  One damage is not seen at the load: a
    covered record whose text does not parse — possible only when
    [log.ops] and the checkpoint header were altered together so the
    digests still match.  It raises [Failure] later, from the first
    {!Core.Session.step_op} into the covered prefix (deep undo, impact,
    rebase, merge); {!fsck} reports it as [log.ops] damage.  [~repair:false]
    (default [true]) suppresses the tail's rewrite — required when reading
    a store another process may be appending to (merge reads the branch
    lock-free; the longest valid prefix is the acknowledged history).

    The checkpoint body is split into its chunks by the one reader fsck
    uses too: a run takes the shrink wrap's interface values at its
    positions, every other chunk is parsed and must print back to its
    bytes (so a body printed whole, as older checkpoints are, still
    serves, at the cost of its parse).  A body not laid out in the
    printer's chunks, or a run the shrink wrap cannot resolve, cannot
    serve and the journal is replayed.  Its cost is the header's. *)

(** {1 The journal writer}

    The one writer of a live session's journal, [swsd repl --save]'s and
    each service session's.  It holds the session the journal durably
    holds and the journal's durable length, the bytes through the last
    successful fsync.  A failed [append] or [fsync] may have landed some,
    all or none of its records, so the next append first cuts the journal
    back to the durable length ({!Io.field-truncate}), then appends the
    whole missing delta; if the cut fails, it writes the full
    {!save_session} instead.  An fsync is never retried alone: after a
    failed one the kernel may have dropped the pages and marked them
    clean.  A restored tail is a byte prefix of what was durable, so a
    follower that received only durable bytes needs no re-seed; a rewrite
    does. *)

type writer

val writer : ?io:Io.t -> string -> Core.Session.t -> (writer, string) result
(** The repl's: open (creating) the store at the directory and
    {!save_session} the session into it. *)

val open_writer : t -> (writer, load_error) result
(** The service's: {!load_session} (repairing a torn tail) and the writer
    of the session it opened, its durable length the journal's as the
    open left it, so the journal is not read a second time. *)

val uncovered : writer -> bool
(** Whether, at {!open_writer}, the journal held bytes the checkpoint did
    not cover: records appended since the last snapshot, or a torn tail.
    [false] for {!writer}'s. *)

val writer_io : writer -> Io.t
(** The IO the writer's directory lives on. *)

val writer_store : writer -> t

val durable : writer -> Core.Session.t
(** The session the journal durably holds. *)

val holds : writer -> Core.Session.t -> bool
(** Whether the session's log is the durable session's, in O(changed
    steps) ({!Core.Session.delta}). *)

val append : writer -> Core.Session.t -> (unit, string) result
(** Make this session durable: journal the records turning the durable
    session into it ({!Journal.encoded_delta}) with one fsync, nothing
    when their logs are equal.  On [Error] the durable session stays, so
    the next append carries the missing records too and the journal
    always holds a session the designer passed through, each record
    once. *)

val append_records :
  writer -> from:Core.Session.t -> upto:Core.Session.t -> string -> bool
(** {!append} from pre-encoded records: the concatenated
    {!Journal.encoded_delta}s from [from] to [upto], a group-commit batch.
    [true] when the journal was rewritten rather than appended to.
    Raises [Sys_error] when the IO fails (a retry appends nothing twice)
    and [Failure] when not [holds w from]: the records do not extend the
    durable session, as when queued behind a batch that failed. *)

val snapshot : writer -> Core.Session.t -> bool
(** Save the final session: a {!save_checkpoint} when the journal is
    exactly the durable length and {!holds} the final session, the full
    {!save_session} otherwise; [true] when it rewrote the journal.
    Raises [Sys_error] as the saves do.  The service's detach snapshot. *)

val close : writer -> Core.Session.t -> (unit, string) result
(** The repl's exit, and a designer [save] into the writer's own
    directory: {!snapshot}, then {!save_reports}. *)

(** {1 Integrity checking} *)

type fsck_report = {
  fsck_issues : string list;  (** one line each, naming the file *)
  fsck_session : Core.Session.t option;
      (** best recoverable session; [None] only when the base schema
          itself is lost *)
  fsck_derived_only : bool;
      (** every issue concerns what recovery does not read — the
          checkpoint, a stale temporary file: nothing recovery depends on
          is damaged *)
}

val fsck : ?salvage:bool -> t -> fsck_report
(** Inspect every artifact and report damage: each fault of
    {!load_session}'s recovery walk is an issue.  The checkpoint is read
    as the open reads it and compared with the state the walk reached at
    the end of the prefix it covers; one the open cannot use or holding
    another state is reported as derived (it never makes the store
    unrecoverable), and so is a missing one once the manifest records a
    save that covered an operation.  A stale temporary file (a
    whole-file write interrupted, or one that landed and then failed) is
    derived too: recovery never reads it.  [custom.odl] and the reports
    are not checked: they are deliverables, rendered on request.  With
    [~salvage:true], rewrite the repository
    from the best recoverable session (longest replayable journal prefix),
    regenerating derived artifacts and removing stale temporary files.
    On the store's base, an fsck over V variants of one repository
    parses, digests and indexes the shrink wrap once, not V times. *)
