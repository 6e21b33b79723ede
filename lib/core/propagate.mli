(** Propagation rules of the knowledge component.

    After the primary effect of an operation, the workspace may contain
    constructs referring to things that no longer exist.  [repair] applies
    the propagation rules to a fixpoint:

    + supertype references to missing interfaces are dropped;
    + relationships whose target or inverse end is gone are removed;
    + attributes whose domain names a missing type are removed;
    + operations whose signature names a missing type are removed;
    + keys naming attributes no longer visible are dropped;
    + order-by entries naming attributes not visible on the relationship
      target are pruned. *)

module Make (V : Schema_view.S) : sig
  val repair_from :
    V.t -> primary:Change.event list -> V.t * Change.event list
  (** Apply the propagation rules to a fixpoint after an operation whose
      primary effect emitted the [primary] events, examining only
      interfaces that may react to a change of the names they touch: per
      [V.locally_affected_by] on the first pass when every event changes
      an attribute, an operation, a key or an extent, per [V.affected_by]
      otherwise and on every later pass.  On a workspace that was
      rule-closed before the operation, this emits exactly the events a
      full scan would, in the same order. *)
end

val repair : Odl.Types.schema -> Odl.Types.schema * Change.event list
(** The repaired schema and the propagated change events (the material of
    the impact report).  The event list is empty iff the schema was already
    closed under the rules.  Equivalent to [Make(Schema_view.Naive)] with
    every interface touched. *)
