(** The paper's Table 1: which modification operations are admissible in
    which concept schema type.  See the implementation header for the policy
    summary. *)

val ops_for : Concept.kind -> string list
(** Operation keywords admissible in the given concept schema type. *)

val all_op_names : string list
(** Every operation keyword of the modification language, in Appendix-A
    order. *)

val allowed_name : Concept.kind -> string -> bool

val homes : string -> Concept.kind list
(** The concept schema types that admit the given operation keyword. *)

val allowed : Concept.kind -> Modop.t -> (unit, string) result
(** [Ok ()] when admissible; [Error reason] names the concept schema type
    where the operation belongs. *)
