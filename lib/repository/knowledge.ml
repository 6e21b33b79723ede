(** The knowledge component: cautionary statements for the designer.

    Beyond hard constraint enforcement (done in [Core.Apply]) and propagation
    (in [Core.Propagate]), the paper's knowledge component issues cautionary
    feedback — consequences the designer should be aware of even though the
    operation is legal.  Cautions are computed against the workspace {e
    before} the operation is applied. *)

open Odl.Types
module Schema = Odl.Schema

module Make (V : Core.Schema_view.S) = struct
  let count_dependents v n =
    let incoming =
      V.relationships_targeting v n
      |> List.filter (fun (owner, _) -> not (String.equal owner.i_name n))
      |> List.length
    in
    let subtypes = List.length (V.direct_subtypes v n) in
    let domain_uses =
      (* an interface with an attribute whose domain is [n] mentions [n],
         so it is among the interfaces a change of [n] affects *)
      V.affected_by v [ n ]
      |> List.concat_map (fun m ->
             List.filter
               (fun a -> base_name a.attr_type = Some n)
               (V.get_interface v m).i_attrs)
      |> List.length
    in
    (incoming, subtypes, domain_uses)

  (* the caution of moving member [m] of [n] to [n'], down or up the
     hierarchy *)
  let move_caution v n m n' =
    if List.mem n' (V.descendants v n) then
      [
        Printf.sprintf
          "moving %s.%s down to %s hides it from the other subtypes of %s" n m
          n' n;
      ]
    else if List.mem n' (V.ancestors v n) then
      [
        Printf.sprintf
          "moving %s.%s up to %s makes it visible to every subtype of %s" n m
          n' n';
      ]
    else []

  let cautions v (op : Core.Modop.t) =
    match op with
    | Delete_type_definition n -> (
        match V.find_interface v n with
        | None -> []
        | Some i ->
            let incoming, subtypes, domain_uses = count_dependents v n in
            List.concat
              [
                (if incoming > 0 then
                   [
                     Printf.sprintf
                       "deleting %s also removes %d relationship end(s) on \
                        other interfaces"
                       n incoming;
                   ]
                 else []);
                (if subtypes > 0 then
                   [
                     Printf.sprintf
                       "%d subtype(s) of %s will be reconnected to its \
                        supertypes"
                       subtypes n;
                   ]
                 else []);
                (if domain_uses > 0 then
                   [
                     Printf.sprintf
                       "%d attribute(s) elsewhere use %s as their domain and \
                        will be removed"
                       domain_uses n;
                   ]
                 else []);
                (if List.length i.i_rels > 0 then
                   [
                     Printf.sprintf "%s itself declares %d relationship end(s)"
                       n (List.length i.i_rels);
                   ]
                 else []);
              ])
    | Delete_attribute (n, a) ->
        let key_uses =
          match V.find_interface v n with
          | None -> 0
          | Some i -> List.length (List.filter (List.mem a) i.i_keys)
        in
        let sub_visibility = List.length (V.descendants v n) in
        List.concat
          [
            (if key_uses > 0 then
               [
                 Printf.sprintf
                   "attribute %s.%s participates in %d key(s), which will be \
                    dropped"
                   n a key_uses;
               ]
             else []);
            (if sub_visibility > 0 then
               [
                 Printf.sprintf
                   "%d descendant type(s) will no longer inherit %s.%s"
                   sub_visibility n a;
               ]
             else []);
          ]
    | Modify_attribute (n, a, n') -> move_caution v n a n'
    | Modify_operation (n, o, n') -> move_caution v n o n'
    | Modify_relationship_target_type (owner, path, old_t, new_t)
    | Modify_part_of_target_type (owner, path, old_t, new_t)
    | Modify_instance_of_target_type (owner, path, old_t, new_t) ->
        let direction =
          if List.mem new_t (V.ancestors v old_t) then
            Some
              (Printf.sprintf
                 "widening: every subtype of %s can now participate in %s.%s"
                 new_t owner path)
          else if List.mem new_t (V.descendants v old_t) then
            Some
              (Printf.sprintf
                 "narrowing: instances of %s outside %s can no longer \
                  participate in %s.%s"
                 old_t new_t owner path)
          else None
        in
        Option.to_list direction
    | Delete_supertype (n, s) ->
        let inherited =
          match V.find_interface v s with
          | None -> 0
          | Some si ->
              List.length si.i_attrs + List.length si.i_ops
              + List.length si.i_rels
        in
        if inherited > 0 then
          [
            Printf.sprintf
              "%s loses up to %d inherited member(s) declared on or above %s" n
              inherited s;
          ]
        else []
    | Add_supertype (n, s) ->
        let clashes =
          match (V.find_interface v n, V.mem_interface v s) with
          | Some i, true ->
              V.visible_attrs v s
              |> List.filter (fun a -> Schema.has_attr i a.attr_name)
              |> List.map (fun a -> a.attr_name)
          | _ -> []
        in
        if clashes <> [] then
          [
            Printf.sprintf
              "%s already declares attribute(s) %s that %s also makes visible \
               (shadowing)"
              n (String.concat ", " clashes) s;
          ]
        else []
    | Delete_relationship (n, p)
    | Delete_part_of_relationship (n, p)
    | Delete_instance_of_relationship (n, p) -> (
        match V.find_interface v n with
        | None -> []
        | Some i -> (
            match Schema.find_rel i p with
            | None -> []
            | Some r ->
                [
                  Printf.sprintf "the inverse end %s.%s will also be removed"
                    r.rel_target r.rel_inverse;
                ]))
    | _ -> []
end

module On_schema = Make (Core.Schema_view.Naive)
module On_index = Make (Core.Schema_index)

(** Cautionary statements for applying [op] to [schema].  The empty list
    means nothing noteworthy. *)
let cautions = On_schema.cautions

let cautions_indexed = On_index.cautions

(** A summary of the rule base, for documentation and the REPL's [rules]
    command. *)
let rule_summaries =
  [
    ("consistency/structural", "dangling references, inverse mismatches, 1:N shape");
    ("consistency/hierarchy", "ISA, part-of, instance-of acyclicity; single roots");
    ("consistency/semantic", "keys, order-by, domains, overriding signatures");
    ("consistency/naming", "uniqueness and identifier validity");
    ("propagation", "cascading removal of constructs referring to deleted ones");
    ("stability", "moves restricted to the shrink wrap generalization hierarchy");
    ("permission", "operations restricted by concept schema type (Table 1)");
    ("caution", "advisory feedback on legal but consequential operations");
  ]
