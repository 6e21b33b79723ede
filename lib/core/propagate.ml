(** Propagation rules of the knowledge component.

    After the primary effect of an operation, the workspace may contain
    constructs that refer to things that no longer exist (relationships whose
    target was deleted, keys naming an attribute that moved away, ...).
    [repair] applies the propagation rules to a fixpoint, returning the
    repaired schema together with the propagated change events — the material
    of the impact report.

    The rules are written once, in {!Make}, against an abstract
    {!Schema_view.S} backend.  Each pass computes every repair against the
    frozen pre-pass state and only then applies the updates, so the emitted
    event sequence is independent of the backend: the naive backend scans
    every interface per pass, the indexed backend only the
    [affected_by]-candidates (the [locally_affected_by] ones on the first
    pass after a change of members only) — a sound superset of the
    interfaces whose rules can fire, because on a rule-closed workspace a
    rule only fires as a consequence of the change that seeded the pass. *)

open Odl.Types

module Make (V : Schema_view.S) = struct
  let known_domain v d =
    match base_name d with
    | None -> true
    | Some n -> V.mem_interface v n

  (* One interface's repairs against the frozen pre-pass state [v]; events
     are noted in rule order (the order the naive implementation emitted
     them in). *)
  let repair_interface v note i =
    (* rule 1: drop supertype references to missing interfaces *)
    let supertypes =
      List.filter
        (fun s ->
          let ok = V.mem_interface v s in
          if not ok then note (Change.Removed (Change.C_supertype (i.i_name, s)));
          ok)
        i.i_supertypes
    in
    (* rules 2-3: drop relationships whose target or inverse end is gone *)
    let rels =
      List.filter
        (fun r ->
          let ok =
            match V.find_interface v r.rel_target with
            | None -> false
            | Some target -> Odl.Schema.has_rel target r.rel_inverse
          in
          if not ok then
            note (Change.Removed (Change.C_relationship (i.i_name, r.rel_name)));
          ok)
        i.i_rels
    in
    (* rule 4: drop attributes whose domain names a missing type *)
    let attrs =
      List.filter
        (fun a ->
          let ok = known_domain v a.attr_type in
          if not ok then
            note (Change.Removed (Change.C_attribute (i.i_name, a.attr_name)));
          ok)
        i.i_attrs
    in
    (* rule 5: drop operations whose signature names a missing type *)
    let ops =
      List.filter
        (fun o ->
          let ok =
            known_domain v o.op_return
            && List.for_all (fun a -> known_domain v a.arg_type) o.op_args
          in
          if not ok then
            note (Change.Removed (Change.C_operation (i.i_name, o.op_name)));
          ok)
        i.i_ops
    in
    (* rule 6: drop keys naming attributes no longer visible here.  Uses the
       attribute sets of the pre-pass state; convergence comes from
       iterating to fixpoint. *)
    let visible = V.visible_attrs v i.i_name in
    let visible_attr n = List.exists (fun a -> String.equal a.attr_name n) visible in
    let keys =
      List.filter
        (fun k ->
          let ok = List.for_all visible_attr k in
          if not ok then note (Change.Removed (Change.C_key (i.i_name, k)));
          ok)
        i.i_keys
    in
    (* rule 7: prune order-by entries naming attributes not visible on the
       relationship target *)
    let rels =
      List.map
        (fun r ->
          if r.rel_order_by = [] then r
          else
            match V.find_interface v r.rel_target with
            | None -> r  (* already removed above on the next pass *)
            | Some _ ->
                let target_attrs = V.visible_attrs v r.rel_target in
                let ok a =
                  List.exists (fun ta -> String.equal ta.attr_name a) target_attrs
                in
                let kept, dropped = List.partition ok r.rel_order_by in
                if dropped = [] then r
                else begin
                  note
                    (Change.Altered
                       ( Change.C_relationship (i.i_name, r.rel_name),
                         "order_by pruned: "
                         ^ String.concat ", " dropped ));
                  { r with rel_order_by = kept }
                end)
        rels
    in
    { i with i_supertypes = supertypes; i_rels = rels; i_attrs = attrs;
      i_ops = ops; i_keys = keys }

  (* One pass over [candidates] (declaration order): compute all repairs
     against the frozen [v], then apply those that changed anything.
     Returns the new state, this pass's events, and the changed names. *)
  let pass v candidates =
    let updates =
      List.filter_map
        (fun name ->
          match V.find_interface v name with
          | None -> None
          | Some i ->
              let evs = ref [] in
              let note ch = evs := Change.propagated ch :: !evs in
              let i' = repair_interface v note i in
              if !evs = [] then None else Some (name, i', List.rev !evs))
        candidates
    in
    let v' =
      List.fold_left
        (fun v (name, i', _) -> V.update_interface v name (fun _ -> i'))
        v updates
    in
    ( v',
      List.concat_map (fun (_, _, evs) -> evs) updates,
      List.map (fun (name, _, _) -> name) updates )

  (* Passes to a fixpoint, the first over [candidates], each later one
     over the interfaces that may react to the previous pass's repairs. *)
  let fixpoint v candidates =
    let rec go v acc candidates guard =
      if guard = 0 then (v, acc)  (* defensive bound; rules only remove *)
      else
        let v', events, changed = pass v candidates in
        if events = [] then (v, acc)
        else go v' (acc @ events) (V.affected_by v' changed) (guard - 1)
    in
    go v [] candidates 1000

  (** Apply the propagation rules to a fixpoint after an operation's
      [primary] events.  The first pass examines the interfaces that may
      react to the names they touch: the local closure when every event
      changes an attribute, an operation, a key or an extent (rules 1–5
      read only names, supertypes and relationships, which such a change
      keeps, and the interface's own members; rules 6 and 7 read
      inherited visibility), else the full one. *)
  let repair_from v ~primary =
    let touched = Change.touched_names primary in
    fixpoint v
      (if Change.members_only primary then V.locally_affected_by v touched
       else V.affected_by v touched)
end

module Naive = Make (Schema_view.Naive)

(** Apply the propagation rules to a fixpoint (over a plain schema; every
    interface is a candidate on every pass). *)
let repair schema = Naive.fixpoint schema (Odl.Schema.interface_names schema)
