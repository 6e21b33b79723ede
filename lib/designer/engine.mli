(** The interactive schema designer's engine: interprets commands against a
    design session and produces feedback.  The REPL in [bin/swsd.ml] is a
    thin loop around {!exec_line}; keeping the engine pure makes the
    designer fully testable.  The engine journals nothing: a durable
    caller appends each command's session delta itself
    ([Repository.Store.append_delta] from the last session it journalled),
    before it shows the command's feedback. *)

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

val exec_line : state -> string -> state * Feedback.t list
(** Parse and execute one command line; parse failures become error
    feedback. *)
