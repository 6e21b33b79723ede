(** Injectable IO for the repository layer.

    Every syscall the durable repository performs goes through a first-class
    record of operations, so tests can substitute an in-memory filesystem
    with write-back-cache semantics and a fault injector that crashes the
    writer at any syscall.  Production code uses {!unix}.

    Durability model: data written with [write]/[append] is volatile until
    [fsync] succeeds on the file; [rename] and the other metadata operations
    are treated as immediately durable.  A file's directory entry is
    considered durable once the file has been fsync'd. *)

exception Crash
(** Raised by a {!faulty} IO at its injected crash point. *)

type t = {
  read_file : string -> string;  (** whole contents; [Sys_error] if absent *)
  write : string -> string -> unit;  (** create/truncate; NOT durable *)
  append : string -> string -> unit;  (** append, creating; NOT durable *)
  fsync : string -> unit;  (** make the file's current contents durable *)
  rename : string -> string -> unit;
      (** atomic replace; also moves a whole directory (one metadata
          operation — used to publish a staged variant branch) *)
  truncate : string -> int -> unit;
      (** cut the file to its first [n] bytes and fsync it: on return the
          file is durably that prefix.  A journal writer restores its tail
          with it after a failed append *)
  remove : string -> unit;
  file_exists : string -> bool;
  is_directory : string -> bool;  (** [false] on dangling symlinks *)
  mkdir : string -> unit;  (** one level; succeeds if it already exists *)
  readdir : string -> string list;
}

val unix : t
(** The real filesystem.  Every syscall is EINTR-safe ({!retry_eintr}) and
    short writes are resumed, so signals landing in a threaded server never
    surface as spurious IO failures; [readdir] is sorted so directory
    listings are deterministic across filesystems. *)

val retry_eintr : (unit -> 'a) -> 'a
(** Re-run the thunk whenever it raises [Unix_error (EINTR, _, _)] — the
    shared retry loop behind every {!unix} syscall. *)

val mkdir_p : t -> string -> unit
(** Create a directory and any missing parents; tolerant of concurrent
    creation (EEXIST is success). *)

val tmp_suffix : string
(** Suffix of the temporary files {!atomic_write} renames into place;
    leftovers from a crash are harmless and swept by fsck. *)

val atomic_write : t -> string -> string -> unit
(** Write-to-temp, fsync, atomically rename into place.  A crash at any
    point leaves either the old contents or the new, never a mixture. *)

(** {1 In-memory filesystem (for fault-injection tests)} *)

type mem

val mem_create : unit -> mem
val mem_io : mem -> t

val mem_crash : ?flush:int -> mem -> unit
(** Simulate power loss: for each file with un-fsync'd data, a deterministic
    rule keyed on [flush] keeps nothing, a torn prefix, or all of the
    pending delta; the surviving state becomes the new contents. *)

(** {1 Concurrency wrappers} *)

val locked : t -> t
(** Serialize every operation through one mutex.  Required around {!mem_io}
    (plain hashtables) whenever several threads share the filesystem, e.g.
    under the multi-session service. *)

val protected : t -> t
(** Wrap every operation in {!retry_eintr}; {!unix} already retries
    internally, this exposes the same discipline for composed IOs (and for
    driving {!eintr_faulty} in tests). *)

val observed : now:(unit -> float) -> record:(string -> float -> unit) -> t -> t
(** Time each write-path operation and report it as [record op seconds]
    ([op] is ["write"], ["append"], ["fsync"], or ["rename"]); reads and
    [truncate] are untimed.  Failed operations are not recorded. *)

val with_fsync_delay : float -> t -> t
(** [with_fsync_delay seconds io] models a slower disk: each fsync sleeps
    [seconds], then syncs; everything else keeps its speed.  Wrapped
    outside {!locked}, the sleep blocks only the fsyncing thread, as a
    real fsync would.  A non-positive delay returns [io] unchanged. *)

(** {1 Fault injection} *)

val eintr_faulty : eintr_at:int list -> t -> t * (unit -> int)
(** Raise [Unix_error (EINTR, _, _)] in place of each effectful syscall
    whose 0-based index is listed (no effect at the injection point; the
    retried call gets a fresh index).  The second component reads how many
    interrupts were delivered. *)

val counting : t -> t * (unit -> int)
(** Count every effectful syscall (write, append, fsync, rename, truncate,
    remove, mkdir); the second component reads the count. *)

(** How {!faulty}'s injected syscall fails. *)
type fault =
  | Power_loss
      (** raise {!Crash} in place of the call: a write/append first lands
          a torn half-prefix of its data, the other calls have no effect *)
  | Lands_then_fails
      (** the call takes effect whole, then raises [Sys_error]: the caller
          cannot tell what reached the disk *)

val faulty : ?fault:fault -> crash_at:int -> t -> t * (unit -> int)
(** Fail the [crash_at]-th (0-based) effectful syscall as [fault] says
    (default [Power_loss]); every other call passes through.  The second
    component reads how many effectful calls were made. *)
