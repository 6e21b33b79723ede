(** A multi-variant design repository: one shrink wrap schema, many derived
    designs (the ACEDB situation as a subsystem).  Each variant is a full
    persisted session; the repository compares variants pairwise by affinity
    and by interoperation over their common objects.

    As in the paper, the shrink wrap is published once and each variant is
    that schema plus its op log: a [t] prints and indexes the shrink wrap
    once ({!base}), and every variant it opens, creates or branches starts
    from that one session. *)

type t

val init : ?io:Io.t -> string -> Odl.Types.schema -> (t, string) result
(** Initialize a repository at the directory for a (valid) shrink wrap
    schema. *)

val open_dir : ?io:Io.t -> string -> (t, string) result
(** Open an existing repository.  [Error] (never an exception) when the
    directory holds no repository or the stored schema is damaged; the
    message names the damaged file. *)

val shrink_wrap : t -> Odl.Types.schema

val base : t -> Store.base option
(** The shrink wrap printed and opened as a fresh session, built on the
    first call (under a mutex, so concurrent callers build it once) —
    {!init}'s validation build when [t] came from {!init}.  [None] when the
    shrink wrap is not valid.  Every store [t] opens holds it
    ({!variant_store}). *)

val variant_names : t -> string list
(** Subdirectories of [variants/], sorted (deterministic regardless of the
    filesystem's readdir order); dangling symlinks and unreadable entries
    are skipped. *)

val mem_variant : t -> string -> bool

val variant_store : t -> string -> Store.t
(** The variant's store, on {!base} ({!Store.open_dir}): its loads, saves
    and fsck start from the repository's shrink wrap session, built only
    when one of them first needs it. *)

val max_era : t -> int
(** The highest write era ({!Store.stored_era}) over the existing
    variants; 0 when there are none.  Never creates a variant directory;
    an unreadable store counts as 0. *)

val variant_dir : t -> string -> string
(** The variant's directory; the service keeps its advisory lock file
    ([.lock]) there. *)

val io : t -> Io.t
val dir : t -> string

(** Why a variant would not open. *)
type open_error =
  | No_variant of string  (** no variant of that name *)
  | Load of Store.load_error  (** its repository is damaged *)

val open_error_to_string : open_error -> string

val create_variant : t -> string -> (Core.Session.t, string) result
(** Start (and persist) a fresh design session under the variant's name. *)

val open_variant : t -> string -> (Core.Session.t, open_error) result
(** Load a variant's session by replaying its stored journal; a torn tail
    is repaired in place. *)

val open_writer : t -> string -> (Store.writer, open_error) result
(** {!open_variant} and the journal writer of the session it opened
    ({!Store.open_writer}): the design service's way in. *)

val open_variant_ro : t -> string -> (Core.Session.t, open_error) result
(** Read-only load: tolerates a torn journal tail (longest valid prefix
    replays) without repairing it in place — safe against a concurrent
    appender.  Merge reads its source branch through here, lock-free. *)

val branch_variant :
  t ->
  parent:string ->
  child:string ->
  ?at:int ->
  unit ->
  (Core.Session.t, string) result
(** Branch [child] off [parent]: a full copy of the parent's persisted
    session with a lineage record (parent, fork stamp) in its manifest,
    staged in a hidden directory and renamed into place atomically — a
    crash leaves either no child or a complete one.  [?at] branches after
    the parent's first [at] committed operations (the default is the whole
    log, stamped with the parent's current version). *)

val variant_lineage : t -> string -> (string * int) option
(** The (parent, fork stamp) recorded at branch time; [None] for root
    variants. *)

val lineage_listing : t -> string list
(** One deterministic sorted line per variant:
    ["<name> <parent>@<stamp> era <era>"] (or ["<name> root era <era>"]) —
    derived from the stores on disk, so shards render identical bytes. *)

val save_variant : t -> string -> Core.Session.t -> (unit, string) result

val affinity_matrix : t -> string

val interop : t -> string -> string -> (Core.Interop.report, open_error) result
val interop_report : t -> string -> string -> (string, open_error) result

val catalog : t -> string
(** One line per variant: inventory and mapping summary against the shrink
    wrap schema; damaged variants are listed as unreadable. *)

(** {1 Integrity checking} *)

val fsck_dir :
  ?io:Io.t -> salvage:bool -> string -> (int * string list, string) result
(** [swsd fsck]: check, and with [salvage] repair ({!Store.fsck}), a
    session store, or a multi-variant repository — its [shrinkwrap.odl],
    then each variant {!variant_names} would list (staging directories
    are skipped), even when [shrinkwrap.odl] is damaged.  Returns the exit
    class and the report lines, each naming the store ([.] or
    [variants/<name>]) and the file:
    - 0: clean (the one line [<dir>: clean]);
    - 1: damage found and [salvage] repaired it ([<store>: salvaged]), or
      found only in the checkpoint, a derived artifact recovery does not
      depend on ([custom.odl] and the reports are deliverables, not
      checked);
    - 2: corrupt — damage present and not repaired.
    A multi-variant repository takes the worst class of its parts.
    [Error] (class 2 as well) when the path is not a directory, so not a
    repository at all. *)
