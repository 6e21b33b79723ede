(** An in-memory object store conforming to an extended-ODL schema.

    Mutations are conformance-checked: typed object creation, domain- and
    size-checked attribute writes, and relationship links that maintain
    their inverses and respect to-one cardinalities (linking a to-one end
    displaces its previous target).  All operations are pure — they return
    a new store. *)

open Odl.Types

type obj = {
  o_id : Value.oid;
  o_type : type_name;
  o_attrs : (string * Value.t) list;  (** set attributes, by name *)
  o_links : (string * Value.oid list) list;  (** links, by traversal path *)
}

type t

val create : schema -> t
val schema : t -> schema
val find : t -> Value.oid -> obj option
val objects : t -> obj list
val count : t -> int

val objects_of_type : ?include_subtypes:bool -> t -> type_name -> obj list
(** The extent of a type (subtypes included by default). *)

val new_object : t -> type_name -> (t * Value.oid, string) result
val set_attr : t -> Value.oid -> string -> Value.t -> (t, string) result
val get_attr : t -> Value.oid -> string -> Value.t option

val link : t -> Value.oid -> string -> Value.oid -> (t, string) result
(** [link t src path dst] — [path] must be visible on [src]'s type and
    [dst] must conform to its target; the inverse end is maintained. *)

val unlink : t -> Value.oid -> string -> Value.oid -> (t, string) result
val linked : t -> Value.oid -> string -> Value.oid list

val delete : t -> Value.oid -> (t, string) result
(** Removes the object and every link end pointing at it. *)

val restore : t -> obj -> t
(** Re-insert an existing object keeping its identity (migration). *)

val scrub_asymmetric : t -> t
(** Drop link ends whose far end no longer links back (migration). *)

val dump : t -> string
(** Deterministic text rendering of every object. *)
