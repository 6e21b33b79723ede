(** Algorithmic decomposition of a shrink wrap schema into concept schemas.

    Guarantees (tested): at least one wagon wheel exists per object type, and
    the union of all wagon wheel projections reconstructs the original schema
    ({!Recompose.reconstruct}).

    Functorized over {!Schema_view.S}; the top-level functions below are the
    naive instantiation ({!Naive}), {!Indexed} the one over
    {!Schema_index.t}.  Both backends produce identical concept lists
    (tested by property).

    A concept schema's existence is decided by one membership rule per
    kind, costing only the named interface's neighbourhood; the
    enumerations filter the schema's interfaces with those rules and
    {!concept} applies one of them to a single id. *)

open Odl.Types

module Make (V : Schema_view.S) : sig
  val wagon_wheel : V.t -> type_name -> Concept.t
  val wagon_wheels : V.t -> Concept.t list
  val generalization_hierarchy : V.t -> type_name -> Concept.t
  val aggregation_roots : V.t -> type_name list

  val parts : V.t -> type_name -> type_name list
  (** The transitive parts under a type, sorted, following part-of edges
      declared on either end; dangling targets are skipped.  The type
      itself is included only when a part-of cycle leads back to it. *)

  val wholes : V.t -> type_name -> type_name list
  (** The transitive wholes a type is a part of; the mirror of [parts]. *)

  val instance_heads : V.t -> type_name list
  val decompose : V.t -> Concept.t list

  val concept : V.t -> string -> Concept.t option
  (** [concept v id = find (decompose v) id], costing only the size of
      that concept schema. *)
end

module Naive : module type of Make (Schema_view.Naive)
module Indexed : module type of Make (Schema_index)

val wagon_wheel : schema -> type_name -> Concept.t
(** The wagon wheel centred on the given object type: the focal interface,
    every interface one relationship link away (any kind, either direction),
    and the focal point's direct supertypes and subtypes. *)

val wagon_wheels : schema -> Concept.t list
(** One per object type, in declaration order. *)

val generalization_hierarchy : schema -> type_name -> Concept.t
(** The ISA tree rooted at the given type. *)

val aggregation_roots : schema -> type_name list
(** Interfaces that aggregate parts but are not parts themselves. *)

val instance_heads : schema -> type_name list
(** Generic entities that are not themselves instances of anything. *)

val decompose : schema -> Concept.t list
(** Wagon wheels, then generalization, aggregation and instance-of
    hierarchies. *)

val concept : schema -> string -> Concept.t option
(** Look one concept schema of the decomposition up by id without building
    the rest: [ww:X] exists iff [X] is an interface, [gh:R] iff [R] is an
    ISA root with subtypes, [ah:R] iff [R] is an aggregation root, [ih:R]
    iff [R] is an instance-chain head.  The id splits at its first [':'];
    any other prefix gives [None].  Equal to [find (decompose s) id]. *)

val find : Concept.t list -> string -> Concept.t option
(** Look a concept schema up by its id (e.g. ["ww:Course_Offering"]). *)
