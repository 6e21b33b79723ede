(** Append-only operation journal.

    The journal is the durability backbone of a repository: one line per
    accepted operation, appended and fsync'd before the operation is
    acknowledged.  Undo is journalled as its own record rather than by
    rewriting history, so the file is strictly append-only between full
    saves ({!Store.save_session}); a snapshot checkpoints it as it stands.

    Line format (the modification language, prefixed with a concept tag):
    {v
    @ww add_attribute(Route, distance: Float);
    @gh delete_object_type(Depot);
    @undo;
    v}
    Blank lines and [// ...] comment lines are tolerated, so the file stays
    hand-editable.  Quoted identifiers keep pathological names (embedded
    newlines, leading slashes) from breaking the line discipline. *)

type entry =
  | Op of Core.Concept.kind * Core.Modop.t  (** an accepted operation *)
  | Undo  (** pops the most recent unresolved operation *)

type damage =
  | Torn_tail of string
      (** unterminated final fragment left by a crash mid-append; the
          operation was never acknowledged, so dropping it is a valid
          recovery — but the file needs repair before further appends *)
  | Corrupt of { line : int; reason : string }
      (** a terminated line that does not parse: interior corruption, not a
          crash artifact *)

val damage_to_string : damage -> string

type parsed = {
  entries : entry list;  (** longest valid prefix *)
  damage : damage option;
}

val entry_to_line : entry -> string
(** One record, without the trailing newline. *)

val to_string : entry list -> string
(** All records, each newline-terminated. *)

val parse : string -> parsed
(** Longest-valid-prefix read.  A parseable unterminated final fragment is
    kept as an entry (only its newline was lost); an unparseable one is
    dropped — both are reported as {!Torn_tail} so the caller can repair
    the file before appending again. *)

val resolve : entry list -> ((Core.Concept.kind * Core.Modop.t) list, string) result
(** Replay undo records: [Op] pushes, [Undo] pops.  [Error] when an [Undo]
    has nothing to pop (the writer never journals one in that state, so it
    is corruption). *)

(** {1 File operations} *)

val encode : entry -> string
(** One record, newline-terminated. *)

val append_raw : Io.t -> string -> string -> unit
(** Append pre-encoded record bytes — a concatenation of {!encode}
    results, i.e. a group-commit batch — and fsync {e once}; every record
    in the batch is durable on return. *)

val steps_to_string : Core.Session.step list -> string
(** The steps as records, each newline-terminated: the bytes {!to_string}
    gives for their [Op]s, joined from the steps' own
    {!Core.Session.field-st_text}s into one buffer, with no op printed. *)

val op_records : ?len:int -> string -> (Core.Concept.kind * string) list option
(** The resolved records of [text]'s first [len] bytes (default: all of
    it) with their op texts, cut and not parsed, when those bytes are
    exactly a run of records one a line, each newline-terminated — the
    shape {!steps_to_string} and the appends write.  Each [@undo;] record
    pops the newest op record, as {!resolve} does.  [None] for anything
    else (blank or comment lines, an unknown tag, an unterminated last
    line, an undo with nothing to undo).  The texts are not checked to
    parse. *)

val encoded_delta :
  before:Core.Session.t ->
  after:Core.Session.t ->
  int * Core.Session.step list * string
(** The records turning [before]'s log into [after]'s ({!Core.Session.delta}):
    their count, the added steps (oldest first), and their bytes — an
    {!Undo} per undone step, then an {!Op} per added one, each
    {!encode}d — ready for one {!append_raw}.  O(changed steps) between
    sessions of one lineage; the records use the steps' texts, so no op
    is printed. *)

val read : Io.t -> string -> parsed
(** Read and {!parse} the journal; an absent file is an empty journal. *)

val rewrite : Io.t -> string -> entry list -> unit
(** Atomically replace the journal with exactly [entries]; crash-safe via
    {!Io.atomic_write}. *)

(** {1 Concept tags} *)

val kind_tag : Core.Concept.kind -> string
val kind_of_tag : string -> Core.Concept.kind option

(** {1 Replication stream framing}

    The journal doubles as a physical replication log: a leader ships
    acked record runs (and, for bootstrap/catch-up, whole artifact files)
    to followers as a stream of frames.  A frame is a space-delimited
    header line carrying only integers and fixed tokens, followed by a
    length-prefixed binary payload holding every variable-length field
    (variant names may contain any quoted-identifier byte, including
    spaces and newlines, so they never ride on the header line). *)

module Frame : sig
  type t =
    | Hello of { era : int }  (** stream start; the leader's write era *)
    | Root of { data : string }  (** repository-root [shrinkwrap.odl] *)
    | File of { variant : string; name : string; data : string }
        (** one variant artifact ([shrinkwrap.odl], [log.ops],
            [aliases.map]) shipped during bootstrap or catch-up *)
    | Start of { variant : string; stamp : int }
        (** the variant's snapshot is complete: load it through recovery
            and publish at [stamp] *)
    | Records of { variant : string; stamp : int; data : string }
        (** one durable delta: concatenated {!encode} bytes (possibly
            empty, for publishes with no journal delta), publish at
            [stamp] *)
    | Reset of { variant : string }
        (** the leader's files for this variant changed other than by an
            append (a re-open, a repair, a snapshot that rewrote the
            journal or changed the local names); byte continuity is broken
            — ignore [Records] until the next [Start] *)
    | Live  (** bootstrap complete; the stream is now tailing *)
    | Ack of { variant : string; stamp : int }
        (** follower → leader: applied and durable through [stamp] *)

  val to_string : t -> string
  (** Exact wire bytes: header line + newline + payload. *)

  val describe : t -> string
  (** The frame's header tag, for logs and counters. *)

  val read :
    read_line:(unit -> string option) ->
    read_exact:(int -> string option) ->
    (t option, string) result
  (** Read one frame.  [Ok None] is clean end-of-stream at a frame
      boundary; [Error] is a malformed header or a stream truncated
      mid-payload.  The callbacks are the transport: [read_line] returns
      one line without its newline, [read_exact n] exactly [n] bytes. *)

  val of_string : string -> (t option, string) result
  (** {!read} from the front of a string, for tests. *)
end
