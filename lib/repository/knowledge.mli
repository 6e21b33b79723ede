(** The knowledge component: cautionary statements for the designer.

    Beyond hard constraint enforcement and propagation, the paper's
    knowledge component issues advisory feedback — consequences the designer
    should be aware of even though the operation is legal. *)

module Make (V : Core.Schema_view.S) : sig
  val cautions : V.t -> Core.Modop.t -> string list
  (** Cautionary statements for applying the operation to the workspace,
      computed against it {e before} application.  Empty when nothing is
      noteworthy.  Equal on every backend, byte for byte. *)
end

val cautions : Odl.Types.schema -> Core.Modop.t -> string list
(** [Make (Core.Schema_view.Naive).cautions]: the cautions over a plain
    schema, every lookup a scan. *)

val cautions_indexed : Core.Schema_index.t -> Core.Modop.t -> string list
(** [Make (Core.Schema_index).cautions]: the cautions over a session's
    index, each lookup a map access — what the designer's engine asks
    before every [apply] and [preview]. *)

val rule_summaries : (string * string) list
(** The rule base by group, for documentation and the designer's [rules]
    command. *)
