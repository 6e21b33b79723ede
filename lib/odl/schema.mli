(** Queries and functional updates over schemas.

    All updates are pure: they return a new schema and preserve declaration
    order.  Hierarchy traversals are cycle-safe (they terminate even on
    invalid, cyclic ISA graphs), so they can be used from the validator
    itself. *)

open Types

(** {1 Interface lookup} *)

val find_interface : schema -> type_name -> interface option
val mem_interface : schema -> type_name -> bool

exception Unknown_interface of type_name

val get_interface : schema -> type_name -> interface
(** @raise Unknown_interface when absent. *)

val interface_names : schema -> type_name list
(** In declaration order. *)

(** {1 Functional updates} *)

val update_interface : schema -> type_name -> (interface -> interface) -> schema
(** Replace the named interface by a function of it.
    @raise Unknown_interface when absent. *)

val add_interface : schema -> interface -> schema
(** Appends; the caller must ensure the name is fresh. *)

val remove_interface : schema -> type_name -> schema
(** No-op when absent. *)

(** {1 Member lookup} *)

val find_attr : interface -> string -> attribute option
val find_rel : interface -> string -> relationship option
val find_op : interface -> string -> operation option
val has_attr : interface -> string -> bool
val has_rel : interface -> string -> bool
val has_op : interface -> string -> bool

(** {1 Generalization hierarchy} *)

val direct_supertypes : schema -> type_name -> type_name list
(** Declared supertypes that exist in the schema. *)

val direct_subtypes : schema -> type_name -> type_name list

val ancestors : schema -> type_name -> type_name list
(** Proper transitive supertypes, nearest first, duplicate-free. *)

val descendants : schema -> type_name -> type_name list
(** Proper transitive subtypes. *)

val same_isa_line : schema -> type_name -> type_name -> bool
(** Whether two interfaces lie on one ancestor/descendant line (including
    equality) — the paper's semantic-stability relation. *)

val isa_roots : schema -> type_name list
(** Interfaces without (existing) supertypes. *)

(** {1 Inheritance-aware visibility}

    A redefinition in a subtype shadows the same-named member above it. *)

val visible_attrs : schema -> type_name -> attribute list
val visible_rels : schema -> type_name -> relationship list

(** {1 Relationship queries} *)

val all_relationships : schema -> (interface * relationship) list
(** Every relationship end with its owning interface. *)

val relationships_targeting : schema -> type_name -> (interface * relationship) list

val inverse_of : schema -> relationship -> (interface * relationship) option
(** The declared inverse end, when present on the target. *)

(** {1 Size} *)

val count_constructs : schema -> int * int * int
(** (attributes, relationship ends, operations). *)

val size : schema -> int
(** Interfaces + attributes + relationship ends + operations. *)
