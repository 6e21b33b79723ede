(** Application of modification operations to the workspace schema.

    An operation is accepted only if
    - it is admissible in the concept schema type it is issued from
      (Table 1, {!Permission.allowed});
    - its own constraints hold: referenced constructs exist, {e old} values
      match the workspace (stale-view protection), names stay unique, moves
      respect semantic stability with respect to the {e shrink wrap}
      generalization hierarchy, and no ISA / part-of / instance-of cycle is
      created;
    - after the primary effect and the propagation rules
      ({!Propagate.repair}), the workspace has no error-level diagnostics.

    Accepted operations therefore preserve schema validity (tested by
    property).  The returned events — the direct change plus all propagated
    ones — are the impact report for the operation. *)

open Odl.Types
module Schema = Odl.Schema
module Validate = Odl.Validate

type error =
  | Not_allowed of string  (** denied by the permission matrix *)
  | Unknown of string  (** a referenced construct does not exist *)
  | Conflict of string  (** a name is already taken *)
  | Violation of string  (** a semantic constraint fails *)

let error_to_string = function
  | Not_allowed m -> "not allowed: " ^ m
  | Unknown m -> "unknown: " ^ m
  | Conflict m -> "conflict: " ^ m
  | Violation m -> "violation: " ^ m

let pp_error ppf e = Fmt.string ppf (error_to_string e)

let ( let* ) = Result.bind

let fail_unknown fmt = Printf.ksprintf (fun m -> Error (Unknown m)) fmt
let fail_conflict fmt = Printf.ksprintf (fun m -> Error (Conflict m)) fmt
let fail_violation fmt = Printf.ksprintf (fun m -> Error (Violation m)) fmt
module Make (V : Schema_view.S) = struct
  module P = Propagate.Make (V)

  let require_interface schema n =
    match V.find_interface schema n with
    | Some i -> Ok i
    | None -> fail_unknown "interface %s" n

  let require_fresh_type schema n =
    if V.mem_interface schema n then fail_conflict "interface %s already exists" n
    else if not (Odl.Names.is_valid n) then fail_violation "invalid identifier %s" n
    else if Odl.Names.is_keyword n then
      fail_violation "%s is an ODL keyword and cannot name an interface" n
    else Ok ()

  (* New member names (attributes, traversal paths, operations, arguments,
     exceptions, extents) must be plain identifiers too: an accepted session
     is printed to ODL artifacts that must re-parse. *)
  let require_fresh_name what n =
    if not (Odl.Names.is_valid n) then fail_violation "invalid identifier %s" n
    else if Odl.Names.is_keyword n then
      fail_violation "%s is an ODL keyword and cannot name %s" n what
    else Ok ()

  let require_fresh_names what ns =
    List.fold_left
      (fun acc n -> Result.bind acc (fun () -> require_fresh_name what n))
      (Ok ()) ns

  (* Attributes and relationships share one property namespace per interface. *)
  let require_property_free i name =
    if Schema.has_attr i name || Schema.has_rel i name then
      fail_conflict "%s already has a property named %s" i.i_name name
    else Ok ()

  let require_attr i name =
    match Schema.find_attr i name with
    | Some a -> Ok a
    | None -> fail_unknown "attribute %s.%s" i.i_name name

  let require_rel i name =
    match Schema.find_rel i name with
    | Some r -> Ok r
    | None -> fail_unknown "relationship %s.%s" i.i_name name

  let require_op i name =
    match Schema.find_op i name with
    | Some o -> Ok o
    | None -> fail_unknown "operation %s.%s" i.i_name name

  let require_kind (r : relationship) kind what =
    if r.rel_kind = kind then Ok ()
    else
      fail_violation "%s.%s is not %s" "relationship" r.rel_name what

  (* Semantic stability: moves stay within the generalization hierarchy
     established by the shrink wrap schema; designer-added interfaces are
     judged against the workspace hierarchy instead. *)
  let require_stable ~original schema a b what =
    let line =
      if V.mem_interface original a && V.mem_interface original b then
        V.same_isa_line original a b
      else V.same_isa_line schema a b
    in
    if line then Ok ()
    else
      fail_violation
        "%s may only move within the generalization hierarchy (%s and %s are \
         not on one ancestor/descendant line)"
        what a b

  let require_no_isa_cycle schema sub super =
    if String.equal sub super || List.mem sub (V.ancestors schema super) then
      fail_violation "supertype link %s : %s would create an ISA cycle" sub super
    else Ok ()

  let visible_attr schema t name =
    List.exists
      (fun a -> String.equal a.attr_name name)
      (V.visible_attrs schema t)

  let require_visible_attrs schema t names what =
    match List.find_opt (fun n -> not (visible_attr schema t n)) names with
    | None -> Ok ()
    | Some n -> fail_violation "%s: attribute %s is not visible on %s" what n t

  let require_stale_eq eq old current what pp =
    if eq old current then Ok ()
    else
      fail_violation "%s: expected %s but the workspace has %s" what (pp old)
        (pp current)

  let pp_card = function
    | None -> "one"
    | Some k -> collection_kind_name k

  let pp_size = function None -> "none" | Some n -> string_of_int n

  let pp_domain d = Fmt.str "%a" Odl.Printer.pp_domain d

  let pp_names ns = "(" ^ String.concat ", " ns ^ ")"

  (* --- primary effects ---------------------------------------------------- *)

  open Change

  let complement_card = function Some _ -> None | None -> Some Set

  let add_relationship_ends schema kind (ar : Modop.add_rel) =
    let* owner = require_interface schema ar.ar_owner in
    let* target = require_interface schema ar.ar_target in
    let* () = require_fresh_name "a traversal path" ar.ar_name in
    let* () = require_fresh_name "a traversal path" ar.ar_inverse in
    let* () = require_property_free owner ar.ar_name in
    let* () =
      if String.equal ar.ar_owner ar.ar_target && String.equal ar.ar_name ar.ar_inverse
      then fail_conflict "a self-relationship needs distinct traversal paths"
      else Ok ()
    in
    let* () =
      (* for a self-relationship the owner end is not yet installed, so the
         plain free check suffices in both cases *)
      require_property_free target ar.ar_inverse
    in
    let* () =
      require_visible_attrs schema ar.ar_target ar.ar_order_by "order_by"
    in
    let forward =
      {
        rel_kind = kind;
        rel_name = ar.ar_name;
        rel_target = ar.ar_target;
        rel_inverse = ar.ar_inverse;
        rel_card = ar.ar_card;
        rel_order_by = ar.ar_order_by;
      }
    in
    let backward =
      {
        rel_kind = kind;
        rel_name = ar.ar_inverse;
        rel_target = ar.ar_owner;
        rel_inverse = ar.ar_name;
        rel_card = complement_card ar.ar_card;
        rel_order_by = [];
      }
    in
    let schema =
      V.update_interface schema ar.ar_owner (fun i ->
          { i with i_rels = i.i_rels @ [ forward ] })
    in
    let schema =
      V.update_interface schema ar.ar_target (fun i ->
          { i with i_rels = i.i_rels @ [ backward ] })
    in
    Ok
      ( schema,
        [
          direct (Added (C_relationship (ar.ar_owner, ar.ar_name)));
          propagated (Added (C_relationship (ar.ar_target, ar.ar_inverse)));
        ] )

  let delete_relationship_ends schema kind what owner path =
    let* i = require_interface schema owner in
    let* r = require_rel i path in
    let* () = require_kind r kind what in
    let schema =
      V.update_interface schema owner (fun i ->
          {
            i with
            i_rels =
              List.filter (fun r' -> not (String.equal r'.rel_name path)) i.i_rels;
          })
    in
    let events = [ direct (Removed (C_relationship (owner, path))) ] in
    (* remove the inverse end, if it is still there *)
    match V.find_interface schema r.rel_target with
    | Some target when Schema.has_rel target r.rel_inverse ->
        let schema =
          V.update_interface schema r.rel_target (fun i ->
              {
                i with
                i_rels =
                  List.filter
                    (fun r' -> not (String.equal r'.rel_name r.rel_inverse))
                    i.i_rels;
              })
        in
        Ok
          ( schema,
            events
            @ [ propagated (Removed (C_relationship (r.rel_target, r.rel_inverse))) ]
          )
    | _ -> Ok (schema, events)

  (* Move the far end of a relationship up or down the generalization
     hierarchy: retarget the owner end and physically relocate the inverse end
     from the old target to the new one. *)
  let modify_target_type ~original schema kind what owner path old_t new_t =
    let* i = require_interface schema owner in
    let* r = require_rel i path in
    let* () = require_kind r kind what in
    let* () =
      require_stale_eq String.equal old_t r.rel_target
        (Printf.sprintf "%s of %s.%s" what owner path)
        Fun.id
    in
    let* _new_target = require_interface schema new_t in
    if String.equal old_t new_t then
      fail_violation "new target type equals the old one"
    else
      let* () = require_stable ~original schema old_t new_t "a relationship end" in
      let* old_target = require_interface schema old_t in
      let* inv = require_rel old_target r.rel_inverse in
      let* () =
        let new_target = V.get_interface schema new_t in
        require_property_free new_target r.rel_inverse
      in
      let schema =
        V.update_interface schema owner (fun i ->
            {
              i with
              i_rels =
                List.map
                  (fun r' ->
                    if String.equal r'.rel_name path then
                      { r' with rel_target = new_t }
                    else r')
                  i.i_rels;
            })
      in
      let schema =
        V.update_interface schema old_t (fun i ->
            {
              i with
              i_rels =
                List.filter
                  (fun r' -> not (String.equal r'.rel_name r.rel_inverse))
                  i.i_rels;
            })
      in
      let schema =
        V.update_interface schema new_t (fun i ->
            { i with i_rels = i.i_rels @ [ inv ] })
      in
      Ok
        ( schema,
          [
            direct
              (Altered
                 ( C_relationship (owner, path),
                   Printf.sprintf "target type %s -> %s" old_t new_t ));
            propagated (Moved (C_relationship (old_t, r.rel_inverse), new_t));
          ] )

  let modify_order_by schema kind what owner path old_l new_l =
    let* i = require_interface schema owner in
    let* r = require_rel i path in
    let* () = require_kind r kind what in
    let* () =
      require_stale_eq ( = ) old_l r.rel_order_by
        (Printf.sprintf "order_by of %s.%s" owner path)
        pp_names
    in
    let* () = require_visible_attrs schema r.rel_target new_l "order_by" in
    let schema =
      V.update_interface schema owner (fun i ->
          {
            i with
            i_rels =
              List.map
                (fun r' ->
                  if String.equal r'.rel_name path then
                    { r' with rel_order_by = new_l }
                  else r')
                i.i_rels;
          })
    in
    Ok
      ( schema,
        [
          direct
            (Altered
               ( C_relationship (owner, path),
                 Printf.sprintf "order_by %s -> %s" (pp_names old_l) (pp_names new_l)
               ));
        ] )

  (* Collection-kind change on the collection end of a part-of / instance-of
     relationship (the 1:N shape itself is fixed by definition). *)
  let modify_collection_card schema kind what owner path old_k new_k =
    let* i = require_interface schema owner in
    let* r = require_rel i path in
    let* () = require_kind r kind what in
    match r.rel_card with
    | None ->
        fail_violation
          "%s.%s is the single-valued end; the cardinality of a %s \
           relationship may only change on its collection end"
          owner path what
    | Some current ->
        let* () =
          require_stale_eq ( = ) old_k current
            (Printf.sprintf "cardinality of %s.%s" owner path)
            collection_kind_name
        in
        let schema =
          V.update_interface schema owner (fun i ->
              {
                i with
                i_rels =
                  List.map
                    (fun r' ->
                      if String.equal r'.rel_name path then
                        { r' with rel_card = Some new_k }
                      else r')
                    i.i_rels;
              })
        in
        Ok
          ( schema,
            [
              direct
                (Altered
                   ( C_relationship (owner, path),
                     Printf.sprintf "collection %s -> %s"
                       (collection_kind_name old_k) (collection_kind_name new_k) ));
            ] )

  let delete_type_definition schema n =
    let* i = require_interface schema n in
    (* reconnect direct subtypes to the deleted interface's supertypes so the
       rest of the hierarchy keeps its inheritance paths *)
    let subtypes = V.direct_subtypes schema n in
    let reconnect schema sub =
      V.update_interface schema sub (fun s ->
          let without = List.filter (fun x -> not (String.equal x n)) s.i_supertypes in
          let inherited =
            List.filter (fun x -> not (List.mem x without)) i.i_supertypes
          in
          { s with i_supertypes = without @ inherited })
    in
    let schema = List.fold_left reconnect schema subtypes in
    let events =
      direct (Removed (C_interface n))
      :: List.concat_map
           (fun sub ->
             propagated (Removed (C_supertype (sub, n)))
             :: List.map
                  (fun sup -> propagated (Added (C_supertype (sub, sup))))
                  i.i_supertypes)
           subtypes
    in
    Ok (V.remove_interface schema n, events)

  (* Generic move of an instance property between interfaces on one ISA line. *)
  let move_attribute ~original schema owner attr_name new_owner =
    let* i = require_interface schema owner in
    let* a = require_attr i attr_name in
    let* ni = require_interface schema new_owner in
    if String.equal owner new_owner then
      fail_violation "attribute %s already resides in %s" attr_name owner
    else
      let* () = require_stable ~original schema owner new_owner "an attribute" in
      let* () = require_property_free ni attr_name in
      let schema =
        V.update_interface schema owner (fun i ->
            {
              i with
              i_attrs =
                List.filter
                  (fun a' -> not (String.equal a'.attr_name attr_name))
                  i.i_attrs;
            })
      in
      let schema =
        V.update_interface schema new_owner (fun i ->
            { i with i_attrs = i.i_attrs @ [ a ] })
      in
      Ok (schema, [ direct (Moved (C_attribute (owner, attr_name), new_owner)) ])

  let move_operation ~original schema owner op_name new_owner =
    let* i = require_interface schema owner in
    let* o = require_op i op_name in
    let* ni = require_interface schema new_owner in
    if String.equal owner new_owner then
      fail_violation "operation %s already resides in %s" op_name owner
    else
      let* () = require_stable ~original schema owner new_owner "an operation" in
      let* () =
        if Schema.has_op ni op_name then
          fail_conflict "%s already has an operation named %s" new_owner op_name
        else Ok ()
      in
      let schema =
        V.update_interface schema owner (fun i ->
            {
              i with
              i_ops =
                List.filter (fun o' -> not (String.equal o'.op_name op_name)) i.i_ops;
            })
      in
      let schema =
        V.update_interface schema new_owner (fun i ->
            { i with i_ops = i.i_ops @ [ o ] })
      in
      Ok (schema, [ direct (Moved (C_operation (owner, op_name), new_owner)) ])

  let update_attr schema owner attr_name f =
    V.update_interface schema owner (fun i ->
        {
          i with
          i_attrs =
            List.map
              (fun a -> if String.equal a.attr_name attr_name then f a else a)
              i.i_attrs;
        })

  let update_op schema owner op_name f =
    V.update_interface schema owner (fun i ->
        {
          i with
          i_ops =
            List.map
              (fun o -> if String.equal o.op_name op_name then f o else o)
              i.i_ops;
        })

  (* --- the dispatcher ------------------------------------------------------ *)

  let primary ~original schema (op : Modop.t) =
    match op with
    | Add_type_definition n ->
        let* () = require_fresh_type schema n in
        Ok
          ( V.add_interface schema (empty_interface n),
            [ direct (Added (C_interface n)) ] )
    | Delete_type_definition n -> delete_type_definition schema n
    | Add_supertype (n, s) ->
        let* i = require_interface schema n in
        let* _ = require_interface schema s in
        if List.mem s i.i_supertypes then
          fail_conflict "%s already has supertype %s" n s
        else
          let* () = require_no_isa_cycle schema n s in
          Ok
            ( V.update_interface schema n (fun i ->
                  { i with i_supertypes = i.i_supertypes @ [ s ] }),
              [ direct (Added (C_supertype (n, s))) ] )
    | Delete_supertype (n, s) ->
        let* i = require_interface schema n in
        if not (List.mem s i.i_supertypes) then
          fail_unknown "supertype link %s : %s" n s
        else
          Ok
            ( V.update_interface schema n (fun i ->
                  {
                    i with
                    i_supertypes =
                      List.filter (fun x -> not (String.equal x s)) i.i_supertypes;
                  }),
              [ direct (Removed (C_supertype (n, s))) ] )
    | Modify_supertype (n, olds, news) ->
        let* i = require_interface schema n in
        let* () =
          require_stale_eq ( = )
            (List.sort compare olds)
            (List.sort compare i.i_supertypes)
            (Printf.sprintf "supertypes of %s" n)
            pp_names
        in
        let* () =
          List.fold_left
            (fun acc s ->
              let* () = acc in
              let* _ = require_interface schema s in
              require_no_isa_cycle schema n s)
            (Ok ()) news
        in
        Ok
          ( V.update_interface schema n (fun i ->
                { i with i_supertypes = news }),
            [
              direct
                (Altered
                   ( C_interface n,
                     Printf.sprintf "supertypes %s -> %s" (pp_names olds)
                       (pp_names news) ));
            ] )
    | Add_extent_name (n, e) ->
        let* i = require_interface schema n in
        let* () = require_fresh_name "an extent" e in
        let* () =
          match i.i_extent with
          | Some e' -> fail_conflict "%s already has extent %s" n e'
          | None -> Ok ()
        in
        let* () =
          if
            List.exists
              (fun j -> j.i_extent = Some e)
              (V.schema schema).s_interfaces
          then fail_conflict "extent name %s is already in use" e
          else Ok ()
        in
        Ok
          ( V.update_interface schema n (fun i -> { i with i_extent = Some e }),
            [ direct (Added (C_extent n)) ] )
    | Delete_extent_name (n, e) ->
        let* i = require_interface schema n in
        let* () =
          require_stale_eq ( = ) (Some e) i.i_extent
            (Printf.sprintf "extent of %s" n)
            (function Some x -> x | None -> "none")
        in
        Ok
          ( V.update_interface schema n (fun i -> { i with i_extent = None }),
            [ direct (Removed (C_extent n)) ] )
    | Modify_extent_name (n, old_e, new_e) ->
        let* i = require_interface schema n in
        let* () = require_fresh_name "an extent" new_e in
        let* () =
          require_stale_eq ( = ) (Some old_e) i.i_extent
            (Printf.sprintf "extent of %s" n)
            (function Some x -> x | None -> "none")
        in
        let* () =
          if
            List.exists
              (fun j -> j.i_extent = Some new_e && not (String.equal j.i_name n))
              (V.schema schema).s_interfaces
          then fail_conflict "extent name %s is already in use" new_e
          else Ok ()
        in
        Ok
          ( V.update_interface schema n (fun i ->
                { i with i_extent = Some new_e }),
            [
              direct
                (Altered (C_extent n, Printf.sprintf "%s -> %s" old_e new_e));
            ] )
    | Add_key_list (n, k) ->
        let* i = require_interface schema n in
        let* () =
          if k = [] then fail_violation "a key needs at least one attribute"
          else Ok ()
        in
        let* () = require_visible_attrs schema n k "key" in
        if List.mem k i.i_keys then fail_conflict "%s already declares this key" n
        else
          Ok
            ( V.update_interface schema n (fun i ->
                  { i with i_keys = i.i_keys @ [ k ] }),
              [ direct (Added (C_key (n, k))) ] )
    | Delete_key_list (n, k) ->
        let* i = require_interface schema n in
        if not (List.mem k i.i_keys) then
          fail_unknown "key %s on %s" (pp_names k) n
        else
          Ok
            ( V.update_interface schema n (fun i ->
                  { i with i_keys = List.filter (fun k' -> k' <> k) i.i_keys }),
              [ direct (Removed (C_key (n, k))) ] )
    | Modify_key_list (n, old_k, new_k) ->
        let* i = require_interface schema n in
        if not (List.mem old_k i.i_keys) then
          fail_unknown "key %s on %s" (pp_names old_k) n
        else
          let* () =
            if new_k = [] then fail_violation "a key needs at least one attribute"
            else Ok ()
          in
          let* () = require_visible_attrs schema n new_k "key" in
          Ok
            ( V.update_interface schema n (fun i ->
                  {
                    i with
                    i_keys =
                      List.map (fun k' -> if k' = old_k then new_k else k') i.i_keys;
                  }),
              [
                direct
                  (Altered
                     ( C_key (n, old_k),
                       Printf.sprintf "-> %s" (pp_names new_k) ));
              ] )
    | Add_attribute (n, d, size, a) ->
        let* i = require_interface schema n in
        let* () = require_fresh_name "an attribute" a in
        let* () = require_property_free i a in
        let* () =
          match base_name d with
          | Some t when not (V.mem_interface schema t) ->
              fail_unknown "domain type %s" t
          | _ -> Ok ()
        in
        Ok
          ( V.update_interface schema n (fun i ->
                {
                  i with
                  i_attrs =
                    i.i_attrs @ [ { attr_name = a; attr_type = d; attr_size = size } ];
                }),
            [ direct (Added (C_attribute (n, a))) ] )
    | Delete_attribute (n, a) ->
        let* i = require_interface schema n in
        let* _ = require_attr i a in
        Ok
          ( V.update_interface schema n (fun i ->
                {
                  i with
                  i_attrs =
                    List.filter (fun a' -> not (String.equal a'.attr_name a)) i.i_attrs;
                }),
            [ direct (Removed (C_attribute (n, a))) ] )
    | Modify_attribute (n, a, n') -> move_attribute ~original schema n a n'
    | Modify_attribute_type (n, a, old_t, new_t) ->
        let* i = require_interface schema n in
        let* attr = require_attr i a in
        let* () =
          require_stale_eq equal_domain_type old_t attr.attr_type
            (Printf.sprintf "type of %s.%s" n a)
            pp_domain
        in
        let* () =
          match base_name new_t with
          | Some t when not (V.mem_interface schema t) ->
              fail_unknown "domain type %s" t
          | _ -> Ok ()
        in
        Ok
          ( update_attr schema n a (fun attr -> { attr with attr_type = new_t }),
            [
              direct
                (Altered
                   ( C_attribute (n, a),
                     Printf.sprintf "type %s -> %s" (pp_domain old_t)
                       (pp_domain new_t) ));
            ] )
    | Modify_attribute_size (n, a, old_s, new_s) ->
        let* i = require_interface schema n in
        let* attr = require_attr i a in
        let* () =
          require_stale_eq ( = ) old_s attr.attr_size
            (Printf.sprintf "size of %s.%s" n a)
            pp_size
        in
        Ok
          ( update_attr schema n a (fun attr -> { attr with attr_size = new_s }),
            [
              direct
                (Altered
                   ( C_attribute (n, a),
                     Printf.sprintf "size %s -> %s" (pp_size old_s) (pp_size new_s)
                   ));
            ] )
    | Add_relationship ar -> add_relationship_ends schema Association ar
    | Delete_relationship (n, p) ->
        delete_relationship_ends schema Association "an association" n p
    | Modify_relationship_target_type (n, p, o, w) ->
        modify_target_type ~original schema Association "an association" n p o w
    | Modify_relationship_cardinality (n, p, old_c, new_c) ->
        let* i = require_interface schema n in
        let* r = require_rel i p in
        let* () = require_kind r Association "an association" in
        let* () =
          require_stale_eq ( = ) old_c r.rel_card
            (Printf.sprintf "cardinality of %s.%s" n p)
            pp_card
        in
        let schema =
          V.update_interface schema n (fun i ->
              {
                i with
                i_rels =
                  List.map
                    (fun r' ->
                      if String.equal r'.rel_name p then { r' with rel_card = new_c }
                      else r')
                    i.i_rels;
              })
        in
        Ok
          ( schema,
            [
              direct
                (Altered
                   ( C_relationship (n, p),
                     Printf.sprintf "cardinality %s -> %s" (pp_card old_c)
                       (pp_card new_c) ));
            ] )
    | Modify_relationship_order_by (n, p, o, w) ->
        modify_order_by schema Association "an association" n p o w
    | Add_operation (n, ret, o, args, raises) ->
        let* i = require_interface schema n in
        let* () = require_fresh_name "an operation" o in
        let* () =
          require_fresh_names "an argument" (List.map (fun a -> a.arg_name) args)
        in
        let* () = require_fresh_names "an exception" raises in
        let* () =
          if Schema.has_op i o then
            fail_conflict "%s already has an operation named %s" n o
          else Ok ()
        in
        let* () =
          let domains = ret :: List.map (fun a -> a.arg_type) args in
          match
            List.find_map
              (fun d ->
                match base_name d with
                | Some t when not (V.mem_interface schema t) -> Some t
                | _ -> None)
              domains
          with
          | Some t -> fail_unknown "signature type %s" t
          | None -> Ok ()
        in
        Ok
          ( V.update_interface schema n (fun i ->
                {
                  i with
                  i_ops =
                    i.i_ops
                    @ [
                        {
                          op_name = o;
                          op_return = ret;
                          op_args = args;
                          op_raises = raises;
                        };
                      ];
                }),
            [ direct (Added (C_operation (n, o))) ] )
    | Delete_operation (n, o) ->
        let* i = require_interface schema n in
        let* _ = require_op i o in
        Ok
          ( V.update_interface schema n (fun i ->
                {
                  i with
                  i_ops =
                    List.filter (fun o' -> not (String.equal o'.op_name o)) i.i_ops;
                }),
            [ direct (Removed (C_operation (n, o))) ] )
    | Modify_operation (n, o, n') -> move_operation ~original schema n o n'
    | Modify_operation_return_type (n, o, old_t, new_t) ->
        let* i = require_interface schema n in
        let* op_def = require_op i o in
        let* () =
          require_stale_eq equal_domain_type old_t op_def.op_return
            (Printf.sprintf "return type of %s.%s" n o)
            pp_domain
        in
        Ok
          ( update_op schema n o (fun op_def -> { op_def with op_return = new_t }),
            [
              direct
                (Altered
                   ( C_operation (n, o),
                     Printf.sprintf "return type %s -> %s" (pp_domain old_t)
                       (pp_domain new_t) ));
            ] )
    | Modify_operation_arg_list (n, o, old_a, new_a) ->
        let* i = require_interface schema n in
        let* op_def = require_op i o in
        let* () =
          require_fresh_names "an argument"
            (List.map (fun a -> a.arg_name) new_a)
        in
        let* () =
          require_stale_eq ( = ) old_a op_def.op_args
            (Printf.sprintf "argument list of %s.%s" n o)
            (fun args ->
              pp_names (List.map (fun a -> pp_domain a.arg_type ^ " " ^ a.arg_name) args))
        in
        Ok
          ( update_op schema n o (fun op_def -> { op_def with op_args = new_a }),
            [ direct (Altered (C_operation (n, o), "argument list changed")) ] )
    | Modify_operation_exceptions_raised (n, o, old_e, new_e) ->
        let* i = require_interface schema n in
        let* op_def = require_op i o in
        let* () = require_fresh_names "an exception" new_e in
        let* () =
          require_stale_eq ( = ) old_e op_def.op_raises
            (Printf.sprintf "exceptions of %s.%s" n o)
            pp_names
        in
        Ok
          ( update_op schema n o (fun op_def -> { op_def with op_raises = new_e }),
            [
              direct
                (Altered
                   ( C_operation (n, o),
                     Printf.sprintf "raises %s -> %s" (pp_names old_e)
                       (pp_names new_e) ));
            ] )
    | Add_part_of_relationship ar -> add_relationship_ends schema Part_of ar
    | Delete_part_of_relationship (n, p) ->
        delete_relationship_ends schema Part_of "a part-of relationship" n p
    | Modify_part_of_target_type (n, p, o, w) ->
        modify_target_type ~original schema Part_of "a part-of relationship" n p o w
    | Modify_part_of_cardinality (n, p, o, w) ->
        modify_collection_card schema Part_of "part-of" n p o w
    | Modify_part_of_order_by (n, p, o, w) ->
        modify_order_by schema Part_of "a part-of relationship" n p o w
    | Add_instance_of_relationship ar -> add_relationship_ends schema Instance_of ar
    | Delete_instance_of_relationship (n, p) ->
        delete_relationship_ends schema Instance_of "an instance-of relationship" n p
    | Modify_instance_of_target_type (n, p, o, w) ->
        modify_target_type ~original schema Instance_of
          "an instance-of relationship" n p o w
    | Modify_instance_of_cardinality (n, p, o, w) ->
        modify_collection_card schema Instance_of "instance-of" n p o w
    | Modify_instance_of_order_by (n, p, o, w) ->
        modify_order_by schema Instance_of "an instance-of relationship" n p o w

  (** [apply ~original ~kind schema op] applies [op] to the workspace [schema]
      in a concept schema of type [kind].  [original] is the shrink wrap schema
      (the reference for semantic stability).  On success, returns the new
      workspace and the impact events (direct first). *)
  let apply ~original ~kind schema op =
    match Permission.allowed kind op with
    | Error m -> Error (Not_allowed m)
    | Ok () -> (
        let* schema', events = primary ~original schema op in
        let schema', prop_events =
          P.repair_from schema' ~primary:events
        in
        match V.errors schema' with
        | [] -> Ok (schema', events @ prop_events)
        | d :: _ ->
            fail_violation "operation would leave the schema invalid: %s"
              (Fmt.str "%a" Validate.pp_diagnostic_line d))

  (** Dry run of {!apply}: the impact report for [op] without committing. *)
  let preview ~original ~kind schema op =
    Result.map snd (apply ~original ~kind schema op)

  (** [apply_log ~original schema ops] replays a log of [(kind, op)] pairs,
      stopping at the first failure. *)
  let apply_log ~original schema ops =
    List.fold_left
      (fun acc (kind, op) ->
        let* schema, events = acc in
        let* schema, more = apply ~original ~kind schema op in
        Ok (schema, events @ more))
      (Ok (schema, []))
      ops
end

(* --- the two engine instantiations --------------------------------------- *)

module Naive = Make (Schema_view.Naive)
module Indexed = Make (Schema_index)

let apply = Naive.apply
let preview = Naive.preview
let apply_log = Naive.apply_log
let primary = Naive.primary
