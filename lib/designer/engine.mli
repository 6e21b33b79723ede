(** The interactive schema designer's engine: interprets commands against a
    design session and produces feedback.  The REPL in [bin/swsd.ml] is a
    read/print loop around {!exec_line}; keeping the engine pure makes the
    designer fully testable.  {!exec} journals nothing; {!exec_line} journals
    each command's session delta through a [Repository.Store.writer]
    ({!Repository.Store.append}, from the last session journalled
    durably) before it returns the command's feedback, and the caller's
    exit save is {!Repository.Store.close}. *)

type state = {
  session : Core.Session.t;
  focus : string option;  (** focused concept schema id *)
  reviewed : string list;  (** concept schemas already considered (the
      paper's one-by-one review process; [focus] marks them) *)
  store : Objects.Store.t option;
      (** instance data under the shrink wrap schema; applies report their
          data impact and [migrate] carries them onto the workspace *)
  finished : bool;  (** set by the [quit] command *)
}

val start : Core.Session.t -> state

val exec : state -> Command.t -> state * Feedback.t list
(** Execute one parsed command. *)

val exec_line :
  ?readonly:bool ->
  ?writer:Repository.Store.writer ->
  state ->
  string ->
  state * Feedback.t list
(** One command line as [swsd repl] runs it: parse it (a parse failure is
    error feedback), refuse a {!Command.mutates} command when [readonly],
    {!exec} it, then — with a [writer] — journal the resulting session
    ({!Repository.Store.append}).  A [save] runs on the writer's IO; one
    into the writer's own directory is the writer's
    {!Repository.Store.close} plus the loaded data, so the journal is
    written by the writer alone.  A failed append adds a
    [persistence failed: …] caution after the command's feedback. *)
