(** Well-formedness checking for extended-ODL schemas.

    Diagnostics carry the knowledge-component classification of the paper:
    structural, hierarchy, semantic and naming categories, at error or
    warning severity.  A schema is {e valid} when it has no error-level
    diagnostics; warnings are designer feedback (e.g. multi-root
    generalization hierarchies, suspicious overriding). *)

type severity = Error | Warning

type category =
  | Structural  (** dangling references, inverse mismatches, end shapes *)
  | Hierarchy  (** cycles, multi-root components, branching chains *)
  | Semantic  (** keys, order-by, overriding, domains *)
  | Naming  (** uniqueness and identifier validity *)

type diagnostic = {
  severity : severity;
  category : category;
  subject : string;  (** the construct at fault, e.g. ["Employee.works_in"] *)
  message : string;
}

val equal_diagnostic : diagnostic -> diagnostic -> bool
val category_name : category -> string

val pp_diagnostic_line : Format.formatter -> diagnostic -> unit
(** One-line rendering: ["error [structural] A.r: unknown target type B"]. *)

(** {1 The check code, abstracted over its lookup backend}

    Every check is written once, against {!LOOKUP}.  The naive backend below
    scans the interface list; [Core.Schema_index] instantiates the same
    functor over its adjacency maps, so both checkers produce identical
    diagnostics (same order, same messages) by construction. *)

module type LOOKUP = sig
  type t

  val schema : t -> Types.schema
  (** The interfaces in declaration order, duplicates included: the
      hierarchy checks walk them, and their results follow this order. *)

  val find_interface : t -> Types.type_name -> Types.interface option
  val mem_interface : t -> Types.type_name -> bool

  val direct_supertypes : t -> Types.type_name -> Types.type_name list
  (** Declared supertypes that exist, in declaration order. *)

  val ancestors : t -> Types.type_name -> Types.type_name list
  val visible_attrs : t -> Types.type_name -> Types.attribute list
end

module Checks (L : LOOKUP) : sig
  val naming_global : L.t -> diagnostic list
  (** Duplicate interface names (the only schema-global naming check). *)

  val naming_interface : Types.interface -> diagnostic list
  (** Naming checks local to one interface; needs no schema context, so its
      results can be cached per interface record. *)

  val structural_interface : L.t -> Types.interface -> diagnostic list
  val hierarchy : L.t -> diagnostic list
  (** ISA, part-of and instance-of cycles, multi-root generalization
      hierarchies and branching instance-of chains, over the declared
      names numbered once: O(schema) after one lookup per name. *)

  val semantic_global : L.t -> diagnostic list
  (** Duplicate extent names (the only schema-global semantic check). *)

  val semantic_interface : L.t -> Types.interface -> diagnostic list

  val check : L.t -> diagnostic list
  (** [naming_global @ naming_interface* @ structural_interface* @ hierarchy
      @ semantic_global @ semantic_interface*], the canonical order. *)
end

val check : Types.schema -> diagnostic list
(** All diagnostics, naming checks first. *)

val errors : Types.schema -> diagnostic list
val warnings : Types.schema -> diagnostic list

val is_valid : Types.schema -> bool
(** No error-level diagnostics. *)
