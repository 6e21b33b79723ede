(** Text rendering of concept schemas and schema graphs — the executable
    counterpart of the paper's figures.  Renderings are deterministic and
    parse-stable so tests can assert on them. *)

open Odl.Types

val wagon_wheel : schema -> Concept.t -> string
(** Figure-3 style: the focal type with attribute / operation / relationship
    spokes, incoming spokes last. *)

val generalization : schema -> Concept.t -> string
(** Figure-4 style: an indented ISA tree. *)

val aggregation : schema -> Concept.t -> string
(** Figure-5 style: an indented parts explosion. *)

val instance_chain : schema -> Concept.t -> string
(** Figure-6 style: the instantiation sequence with arrows. *)

val concept : schema -> Concept.t -> string
(** Dispatch on the concept schema's kind. *)

val object_type_graph : schema -> string
(** Figure-9/10/11 style: every object type with its outgoing links. *)

val summary : schema -> string
(** One-line inventory: interface / attribute / relationship / operation
    counts. *)

val inventory : string -> Schema_index.counts -> string
(** The line of {!summary} for a schema of this name with these counts;
    with {!Schema_index.counts}, O(1). *)
