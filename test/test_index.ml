(* Differential tests of the indexed schema core against the naive
   reference: Schema_index's incremental checking vs Odl.Validate.check,
   and Apply.Indexed vs the naive Apply engine.  Equality is demanded on
   everything observable — acceptance, error messages, resulting workspace,
   impact events, the full diagnostics list, and decompositions.

   Run with QCHECK_LONG=1 (the [fuzz-long] alias) for a 10x deeper pass. *)

open Odl.Types
module Apply = Core.Apply
module Index = Core.Schema_index
module Validate = Odl.Validate

let prop name ?(count = 500) gen f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~long_factor:10 gen f)

let diags_equal = List.equal Validate.equal_diagnostic

(* 1. a freshly built index reports exactly the naive checker's
   diagnostics, in the same order, with the same messages *)
let fresh_diagnostics_agree =
  prop "fresh index diagnostics = naive check" Gen.any_synth_schema (fun s ->
      diags_equal (Index.diagnostics (Index.build s)) (Validate.check s))

(* 2. same on deliberately broken schemas: dropping a random interface
   without repair leaves dangling supertypes, relationship targets and
   unpaired inverses — the checkers must agree on invalid input too *)
let broken_diagnostics_agree =
  let gen =
    QCheck2.Gen.(
      let* s = Gen.any_synth_schema in
      let* k = int_bound (max 0 (List.length s.s_interfaces - 1)) in
      return
        { s with s_interfaces = List.filteri (fun i _ -> i <> k) s.s_interfaces })
  in
  prop "broken-schema diagnostics agree" gen (fun s ->
      diags_equal (Index.diagnostics (Index.build s)) (Validate.check s))

(* 3. incremental re-check: after warming the diagnostics cache, mutate the
   index directly (bypassing the engine's validity gate) and compare the
   dirty-set re-check against a full naive check of the updated schema *)
let incremental_diagnostics_agree =
  let gen = QCheck2.Gen.(pair Gen.any_synth_schema (int_range 0 9999)) in
  prop "incremental re-check after raw index updates" gen (fun (s, r) ->
      let idx = Index.build s in
      ignore (Index.diagnostics idx);
      let names = Odl.Schema.interface_names s in
      let victim = List.nth names (r mod List.length names) in
      (* duplicate every attribute of the victim: naming errors appear *)
      let dup =
        Index.update_interface idx victim (fun i ->
            { i with i_attrs = i.i_attrs @ i.i_attrs })
      in
      (* remove the victim outright: dangling references appear *)
      let removed = Index.remove_interface idx victim in
      diags_equal (Index.diagnostics dup) (Validate.check (Index.schema dup))
      && diags_equal (Index.diagnostics removed)
           (Validate.check (Index.schema removed)))

(* 4. the engines agree on every step of an operation workload: both accept
   with identical workspace, events and diagnostics, or both reject with
   identical error messages.  Applies each accepted step and continues, so
   later steps run against customized workspaces. *)
let engines_agree_on (schema, steps) =
  let orig_idx = Index.build schema in
  let rec go ws idx = function
    | [] -> true
    | (kind, op) :: rest -> (
        let naive = Apply.apply ~original:schema ~kind ws op in
        let indexed = Apply.Indexed.apply ~original:orig_idx ~kind idx op in
        match (naive, indexed) with
        | Error e, Error e' ->
            Apply.error_to_string e = Apply.error_to_string e'
            && go ws idx rest
        | Ok (ws', evs), Ok (idx', evs') ->
            equal_schema ws' (Index.schema idx')
            && List.equal Core.Change.equal_event evs evs'
            && diags_equal (Validate.check ws') (Index.diagnostics idx')
            && go ws' idx' rest
        | Ok _, Error _ | Error _, Ok _ -> false)
  in
  go schema orig_idx steps

let engines_agree =
  prop "indexed engine = naive engine over op sequences" Gen.schema_and_ops
    engines_agree_on

(* 5. a paranoid session survives whole workloads (its per-op cross-check
   raises Divergence on any disagreement), including undo/redo, and its
   incremental consistency report equals a fresh naive check *)
let paranoid_session_agrees =
  prop "paranoid session never diverges" Gen.schema_and_ops
    (fun (schema, steps) ->
      match Core.Session.create ~paranoid:true schema with
      | Error _ -> false (* synthetic schemas are valid *)
      | Ok session ->
          let s =
            List.fold_left
              (fun s (kind, op) ->
                match Core.Session.apply s ~kind op with
                | Ok (s', _) -> s'
                | Error _ -> s)
              session steps
          in
          let s = match Core.Session.undo s with Some s' -> s' | None -> s in
          let s =
            match Core.Session.redo s with Some (s', _) -> s' | None -> s
          in
          diags_equal
            (Core.Session.consistency_report s)
            (Validate.check (Core.Session.workspace s)))

(* 6. both backends produce the identical concept-schema list, initially
   and after every accepted operation *)
let decompositions_agree =
  prop "indexed decompose = naive decompose" Gen.schema_and_ops
    (fun (schema, steps) ->
      let agree idx =
        List.equal Core.Concept.equal
          (Core.Decompose.decompose (Index.schema idx))
          (Core.Decompose.Indexed.decompose idx)
      in
      let orig_idx = Index.build schema in
      let rec go idx = function
        | [] -> true
        | (kind, op) :: rest -> (
            match Apply.Indexed.apply ~original:orig_idx ~kind idx op with
            | Error _ -> go idx rest
            | Ok (idx', _) -> agree idx' && go idx' rest)
      in
      agree orig_idx && go orig_idx steps)

(* 7. by-id lookup: on both backends, [concept] answers exactly what a
   search of the full decomposition does — for every id the decomposition
   holds and for near-misses (each hierarchy prefix on every interface,
   which covers non-roots, leaf roots, parts and instances; a wrong prefix;
   no ':'; an unknown name) — initially and after every accepted op *)
let lookup_ids s =
  let near name =
    [ "gh:" ^ name; "ah:" ^ name; "ih:" ^ name; "xx:" ^ name; name;
      "ww:" ^ name ^ "_ghost" ]
  in
  List.map (fun c -> c.Core.Concept.c_id) (Core.Decompose.decompose s)
  @ List.concat_map near (Odl.Schema.interface_names s)
  @ [ ""; ":"; "ww:"; "ww" ]

let lookups_agree idx =
  let s = Index.schema idx in
  let full = Core.Decompose.decompose s in
  List.for_all
    (fun id ->
      let expected = Core.Decompose.find full id in
      Option.equal Core.Concept.equal (Core.Decompose.Naive.concept s id) expected
      && Option.equal Core.Concept.equal
           (Core.Decompose.Indexed.concept idx id)
           expected)
    (lookup_ids s)

let concept_lookup_agrees =
  prop "concept lookup = find in the decomposition" Gen.schema_and_ops
    (fun (schema, steps) ->
      let orig_idx = Index.build schema in
      let rec go idx = function
        | [] -> true
        | (kind, op) :: rest -> (
            match Apply.Indexed.apply ~original:orig_idx ~kind idx op with
            | Error _ -> go idx rest
            | Ok (idx', _) -> lookups_agree idx' && go idx' rest)
      in
      lookups_agree orig_idx && go orig_idx steps)

(* the attribute map the index maintains equals a from-scratch fold of
   its schema's declarations *)
let attrs_agree idx =
  let module SMap = Map.Make (String) in
  let module SSet = Set.Make (String) in
  let scratch =
    List.fold_left
      (fun m i ->
        List.fold_left
          (fun m a ->
            SMap.update a.attr_name
              (fun s ->
                Some (SSet.add i.i_name (Option.value s ~default:SSet.empty)))
              m)
          m i.i_attrs)
      SMap.empty (Index.schema idx).s_interfaces
  in
  List.equal
    (fun (a, s) (b, s') -> String.equal a b && SSet.equal s s')
    (List.of_seq (Index.attrs_from idx ""))
    (SMap.bindings scratch)

(* 8. a shelved version (what the undo history keeps) comes back equal:
   same schema, same diagnostics, same decomposition, and an attribute
   map equal to a from-scratch fold *)
let shelve_roundtrip =
  prop "unshelve (shelve idx) = idx" Gen.schema_and_ops
    (fun (schema, steps) ->
      let orig_idx = Index.build schema in
      let same idx =
        let back = Index.unshelve (Index.shelve idx) in
        equal_schema (Index.schema back) (Index.schema idx)
        && diags_equal (Index.diagnostics back) (Index.diagnostics idx)
        && List.equal Core.Concept.equal
             (Core.Decompose.Indexed.decompose back)
             (Core.Decompose.Indexed.decompose idx)
        && attrs_agree back
      in
      let rec go idx = function
        | [] -> same idx
        | (kind, op) :: rest -> (
            match Apply.Indexed.apply ~original:orig_idx ~kind idx op with
            | Error _ -> go idx rest
            | Ok (idx', _) -> same idx && go idx' rest)
      in
      go orig_idx steps)

(* 9. the count-only dirty set (the service's [swsd.engine.dirty_set]
   histogram) is the length of the list the propagation engine walks, for
   every name — declared, just removed, or never declared — and for the
   whole name list at once *)
let affected_count_agrees =
  let gen = QCheck2.Gen.(pair Gen.any_synth_schema (int_range 0 9999)) in
  prop "affected_count = length of affected_by" gen (fun (s, r) ->
      let idx = Index.build s in
      let names = Odl.Schema.interface_names s in
      let victim = List.nth names (r mod List.length names) in
      let removed = Index.remove_interface idx victim in
      let agrees idx names =
        Index.affected_count idx names
        = List.length (Index.affected_by idx names)
      in
      List.for_all
        (fun n -> agrees idx [ n ] && agrees removed [ n ])
        ("No_such_interface" :: names)
      && agrees idx names && agrees removed names)

(* 10. the validity memo: [is_valid] and [errors] equal the naive checker
   on every version a session passes through — after each accepted op,
   undo and redo, on a shelved copy brought back, and on the invalid
   intermediate a rejected op would leave (its primary effect alone,
   before propagation repairs it), whose memo still holds the names the
   update left pending *)
let validity_agrees idx =
  let naive = Validate.errors (Index.schema idx) in
  Index.is_valid idx = (naive = []) && diags_equal (Index.errors idx) naive

let memo_agrees_over_sessions =
  prop "is_valid/errors = naive errors across a session" Gen.schema_and_ops
    (fun (schema, steps) ->
      match Core.Session.create schema with
      | Error _ -> false (* synthetic schemas are valid *)
      | Ok session ->
          let original = Index.build schema in
          let agrees s =
            let idx = Core.Session.index s in
            validity_agrees (Index.unshelve (Index.shelve idx))
            && validity_agrees idx
          in
          let step (s, ok) (kind, op) =
            let raw_ok =
              let idx = Core.Session.index s in
              match Apply.Indexed.primary ~original idx op with
              | Error _ -> true
              | Ok (raw, _) ->
                  validity_agrees (Index.unshelve (Index.shelve raw))
                  && validity_agrees raw
            in
            let s =
              match Core.Session.apply s ~kind op with
              | Ok (s', _) -> s'
              | Error _ -> s
            in
            (s, ok && raw_ok && agrees s)
          in
          let s, ok = List.fold_left step (session, agrees session) steps in
          let undone = Core.Session.undo s in
          let redone = Option.bind undone Core.Session.redo in
          ok
          && Option.fold ~none:true ~some:agrees undone
          && Option.fold ~none:true ~some:(fun (s, _) -> agrees s) redone)

(* 11. the same on broken schemas (the generator of property 3): each raw
   update is checked against the naive checker on a memo warmed by the
   version before, so error sets are entered, pruned and re-entered —
   including by re-adding the removed interface *)
let memo_agrees_on_broken =
  let gen = QCheck2.Gen.(pair Gen.any_synth_schema (int_range 0 9999)) in
  prop "is_valid/errors after raw index updates" gen (fun (s, r) ->
      let idx = Index.build s in
      let names = Odl.Schema.interface_names s in
      let victim = List.nth names (r mod List.length names) in
      let dup =
        Index.update_interface idx victim (fun i ->
            { i with i_attrs = i.i_attrs @ i.i_attrs })
      in
      let removed = Index.remove_interface idx victim in
      validity_agrees idx && validity_agrees dup && validity_agrees removed
      && validity_agrees (Index.remove_interface dup victim)
      && validity_agrees
           (Index.add_interface removed (Index.get_interface idx victim)))

(* 12. [patch]: the index of an edited schema, patched from the index of
   the schema before the edits, answers every query as a from-scratch
   [build] of it.  The edits add, remove, rename, reorder and change
   interfaces; unchanged ones stay physically shared, as they are in a
   checkpoint reconstructed from the shrink wrap's chunks.  Half the
   cases start from a warm memo (the base session's), half from a cold
   one; the patched index is then updated once more. *)
let edit s (what, r) =
  let is = s.s_interfaces in
  let n = List.length is in
  let nth k = List.nth is (k mod max 1 n) in
  let fresh = Printf.sprintf "Zz%d" r in
  let is =
    match what with
    | 0 ->
        (* add, at the end or in the middle, referring to an existing name *)
        let i =
          if n = 0 then empty_interface fresh
          else
            let model = nth r in
            { model with i_name = fresh; i_supertypes = [ model.i_name ] }
        in
        if r mod 2 = 0 then is @ [ i ]
        else List.concat (List.mapi (fun k j -> if k = n / 2 then [ i; j ] else [ j ]) is)
    | 1 -> List.filteri (fun k _ -> n = 0 || k <> r mod n) is
    | 2 ->
        (* rename in place; references to the old name dangle *)
        List.mapi (fun k i -> if n > 0 && k = r mod n then { i with i_name = fresh } else i) is
    | 3 ->
        (* swap two *)
        if n < 2 then is
        else
          let a = r mod n and b = (r / n) mod n in
          List.mapi (fun k i -> if k = a then nth b else if k = b then nth a else i) is
    | 5 ->
        (* delete one and declare it again, as the engine does: at the
           end, changed or not *)
        if n = 0 then is
        else
          let victim = nth r in
          let again =
            if r mod 2 = 0 then victim
            else { victim with i_attrs = victim.i_attrs @ [ { attr_name = "p" ^ fresh; attr_type = D_int; attr_size = None } ] }
          in
          List.filter (fun i -> i != victim) is @ [ again ]
    | _ ->
        List.mapi
          (fun k i ->
            if n > 0 && k = r mod n then
              { i with
                i_attrs = i.i_attrs @ [ { attr_name = "p" ^ fresh; attr_type = D_int; attr_size = None } ];
                i_supertypes = (if r mod 3 = 0 then [] else i.i_supertypes) }
            else i)
          is
  in
  { s with s_interfaces = is }

let views_agree a b =
  let names = "No_such_interface" :: Index.interface_names b in
  let some = List.filteri (fun k _ -> k < 6) names in
  let sorted xs = List.sort compare xs in
  equal_schema (Index.schema a) (Index.schema b)
  && diags_equal (Index.errors a) (Index.errors b)
  && Index.is_valid a = Index.is_valid b
  && diags_equal (Index.diagnostics a) (Index.diagnostics b)
  && Index.interface_names a = Index.interface_names b
  && List.of_seq (Index.names_from a "") = List.of_seq (Index.names_from b "")
  && attrs_agree a
  && List.for_all
       (fun n ->
         Index.find_interface a n = Index.find_interface b n
         && Index.mem_interface a n = Index.mem_interface b n
         && Index.direct_supertypes a n = Index.direct_supertypes b n
         && Index.direct_subtypes a n = Index.direct_subtypes b n
         && Index.ancestors a n = Index.ancestors b n
         && Index.descendants a n = Index.descendants b n
         && Index.visible_attrs a n = Index.visible_attrs b n
         && Index.relationships_targeting a n = Index.relationships_targeting b n
         && Index.affected_by a [ n ] = Index.affected_by b [ n ]
         && Index.affected_count a [ n ] = Index.affected_count b [ n ]
         && List.for_all (fun m -> Index.same_isa_line a n m = Index.same_isa_line b n m) some)
       names
  && List.for_all
       (fun i ->
         List.for_all
           (fun at ->
             let module SSet = Set.Make (String) in
             SSet.equal (Index.declarers a at.attr_name) (Index.declarers b at.attr_name))
           i.i_attrs)
       (Index.schema b).s_interfaces
  && sorted (Index.affected_by a names) = sorted (Index.affected_by b names)
  && List.equal Core.Concept.equal
       (Core.Decompose.Indexed.decompose a)
       (Core.Decompose.Indexed.decompose b)

let patch_equals_build =
  let gen =
    QCheck2.Gen.(
      triple Gen.any_synth_schema bool
        (list_size (int_range 0 6) (pair (int_range 0 5) (int_range 0 9999))))
  in
  prop "patched index = build, over add/remove/rename/reorder edits" ~count:300
    gen (fun (s, warm, edits) ->
      let base = Index.build s in
      if warm then ignore (Index.errors base);
      let s' = List.fold_left edit s edits in
      let patched = Index.patch base s' and built = Index.build s' in
      views_agree patched built
      &&
      match Index.interface_names built with
      | [] -> true
      | n :: _ ->
          let bump i = { i with i_attrs = i.i_attrs @ [ { attr_name = "bump"; attr_type = D_int; attr_size = None } ] } in
          views_agree (Index.update_interface patched n bump) (Index.update_interface built n bump))

(* A shrink wrap interface deleted and declared again (the engine appends
   it) leaves the survivors after it out of order.  The patch gives those
   fresh positions instead of building the index again: the attribute
   sets no edit touched are still the base's own, which a build would
   allocate afresh. *)
let patch_keeps_order_without_build () =
  let s = Schemas.Synth.generate (Schemas.Synth.default_params ~n_types:400) in
  let base = Index.build s in
  ignore (Index.errors base);
  let victim = Index.get_interface base "T390" in
  let s' =
    { s with s_interfaces = List.filter (fun i -> i != victim) s.s_interfaces @ [ victim ] }
  in
  let patched = Index.patch base s' in
  Alcotest.(check bool) "shared, not rebuilt" true
    (Index.declarers patched "a0_0" == Index.declarers base "a0_0");
  Alcotest.(check bool) "answers as a build" true (views_agree patched (Index.build s'));
  Alcotest.(check (list string)) "declaration order"
    (Odl.Schema.interface_names s') (Index.interface_names (Index.unshelve (Index.shelve patched)))

(* A deep ISA chain whose attributes shadow one another: the index's
   visible attributes, last declarations kept along a long line of
   ancestors, must be the naive scan's. *)
let deep_chain_visible_attrs () =
  let attr k j = { attr_name = Printf.sprintf "a%d" (((k * 3) + j) mod 50); attr_type = (if k mod 2 = 0 then D_int else D_string); attr_size = None } in
  let s =
    {
      s_name = "chain";
      s_interfaces =
        List.init 24 (fun k ->
            {
              (empty_interface (Printf.sprintf "C%d" k)) with
              i_supertypes = (if k = 0 then [] else [ Printf.sprintf "C%d" (k - 1) ]);
              i_attrs = List.init 3 (attr k);
            });
    }
  in
  let idx = Index.build s in
  List.iter
    (fun n ->
      Alcotest.(check bool) n true
        (Index.visible_attrs idx n = Odl.Schema.visible_attrs s n))
    ("Nowhere" :: Odl.Schema.interface_names s)

(* the near-miss kinds named one by one on a seed, plus an interface whose
   quoted name contains the id separator *)
let concept_lookup_units () =
  let absent s id =
    Alcotest.(check bool) id true
      (Core.Decompose.concept s id = None
      && Core.Decompose.Indexed.concept (Index.build s) id = None)
  in
  let u = Util.university () in
  List.iter (absent u)
    [ "gh:Student" (* a non-root *); "gh:Book" (* a root without subtypes *);
      "zz:Person"; "Person"; "ww:Ghost" ];
  (* a part that aggregates parts itself; an instance with instances *)
  absent (Util.lumber ()) "ah:Roof";
  absent (Util.emsl ()) "ih:Application_Version";
  let s =
    Util.parse
      "interface \"a:b\" { attribute string x; };\n\
       interface \"a:b:c\" : \"a:b\" { };"
  in
  List.iter
    (fun id ->
      let found = Core.Decompose.find (Core.Decompose.decompose s) id in
      Alcotest.(check bool) (id ^ " found") true (Option.is_some found);
      Alcotest.(check bool) (id ^ " agrees") true
        (Core.Decompose.concept s id = found
        && Core.Decompose.Indexed.concept (Index.build s) id = found))
    [ "ww:a:b"; "ww:a:b:c"; "gh:a:b" ];
  absent s "gh:a:b:c"

(* 9. seed schemas: the named examples and fixed-size synthetic schemas,
   checked deterministically *)
let seed_case name schema =
  Alcotest.test_case name `Quick (fun () ->
      let idx = Index.build schema in
      Alcotest.(check bool)
        "diagnostics agree" true
        (diags_equal (Index.diagnostics idx) (Validate.check schema));
      Alcotest.(check bool)
        "decompositions agree" true
        (List.equal Core.Concept.equal
           (Core.Decompose.decompose schema)
           (Core.Decompose.Indexed.decompose idx)))

let seed_units =
  seed_case "university seed" (Schemas.University.v ())
  :: seed_case "emsl seed" (Schemas.Emsl.v ())
  :: List.map
       (fun n ->
         seed_case
           (Printf.sprintf "synthetic seed n=%d" n)
           (Schemas.Synth.generate (Schemas.Synth.default_params ~n_types:n)))
       [ 10; 25; 50 ]

(* 13. the local closure is sound.  An attribute, operation, key or
   extent change — a generated op whose primary effect's events all name
   such members — is applied with the naive engine to a valid schema.
   Every interface whose naive per-interface diagnostics the primary
   effect changes, and every interface the naive propagation rules then
   repair, must be in the local closure of the names the events touch,
   taken on the index before the op.  The ops favour the members other
   interfaces read: first attributes (Synth orders relationships by
   them), inherited names, keys, and moves along the ISA line. *)
module Naive_checks = Validate.Checks (struct
  type t = schema

  let schema s = s
  let find_interface = Odl.Schema.find_interface
  let mem_interface = Odl.Schema.mem_interface
  let direct_supertypes = Odl.Schema.direct_supertypes
  let ancestors = Odl.Schema.ancestors
  let visible_attrs = Odl.Schema.visible_attrs
end)

let per_interface s i =
  ( Naive_checks.naming_interface i,
    Naive_checks.structural_interface s i,
    Naive_checks.semantic_interface s i )

let member_op s =
  let open QCheck2.Gen in
  let open Core.Modop in
  let names = Odl.Schema.interface_names s in
  let* n = oneofl names in
  let i = Odl.Schema.get_interface s n in
  let line = Odl.Schema.ancestors s n @ Odl.Schema.descendants s n in
  let* elsewhere = if line = [] then return n else oneofl line in
  let inherited =
    List.concat_map
      (fun a -> (Odl.Schema.get_interface s a).i_attrs)
      (Odl.Schema.ancestors s n)
  in
  let attr =
    match i.i_attrs with
    | [] -> Gen.ident
    | first :: _ ->
        frequency
          [
            (2, return first.attr_name);
            (3, oneofl (List.map (fun a -> a.attr_name) i.i_attrs));
            (1, Gen.ident);
          ]
  in
  let visible =
    match Odl.Schema.visible_attrs s n with
    | [] -> Gen.ident
    | vs -> oneofl (List.map (fun a -> a.attr_name) vs)
  in
  let new_attr =
    match inherited with
    | [] -> Gen.ident
    | _ ->
        frequency
          [ (1, oneofl (List.map (fun a -> a.attr_name) inherited)); (1, Gen.ident) ]
  in
  let op_name =
    match i.i_ops with
    | [] -> Gen.ident
    | ops -> oneofl (List.map (fun o -> o.op_name) ops)
  in
  let inherited_ops =
    List.concat_map
      (fun a -> (Odl.Schema.get_interface s a).i_ops)
      (Odl.Schema.ancestors s n)
  in
  let new_op =
    match inherited_ops with
    | [] -> Gen.ident
    | ops -> frequency [ (1, oneofl (List.map (fun o -> o.op_name) ops)); (1, Gen.ident) ]
  in
  let key = list_size (int_range 1 2) visible in
  let old_key = match i.i_keys with [] -> key | ks -> oneofl ks in
  let attr_type a =
    match Odl.Schema.find_attr i a with Some x -> x.attr_type | None -> D_int
  in
  let op_return o =
    match Odl.Schema.find_op i o with Some x -> x.op_return | None -> D_int
  in
  let domain = Gen.domain_type_sized 0 in
  oneof
    [
      (let* d = domain and* a = new_attr in
       return (Add_attribute (n, d, None, a)));
      map (fun a -> Delete_attribute (n, a)) attr;
      map (fun a -> Modify_attribute (n, a, elsewhere)) attr;
      (let* a = attr and* d = domain in
       return (Modify_attribute_type (n, a, attr_type a, d)));
      (let* ret = domain and* o = new_op in
       return (Add_operation (n, ret, o, [], [])));
      map (fun o -> Delete_operation (n, o)) op_name;
      map (fun o -> Modify_operation (n, o, elsewhere)) op_name;
      (let* o = op_name and* d = domain in
       return (Modify_operation_return_type (n, o, op_return o, d)));
      map (fun k -> Add_key_list (n, k)) key;
      map (fun k -> Delete_key_list (n, k)) old_key;
      (let* k = old_key and* k' = key in
       return (Modify_key_list (n, k, k')));
      map (fun e -> Add_extent_name (n, e)) Gen.ident;
      (match i.i_extent with
      | Some e -> return (Delete_extent_name (n, e))
      | None -> map (fun e -> Add_extent_name (n, e)) Gen.ident);
      Gen.plausible_op s;
    ]

let local_closure_sound =
  let gen =
    QCheck2.Gen.(
      let* s = Gen.any_synth_schema in
      let* steps = list_size (int_range 1 8) (member_op s) in
      return (s, steps))
  in
  prop "local closure covers every changed check and repair" gen
    (fun (schema, ops) ->
      let sound s op =
        match Apply.primary ~original:schema s op with
        | Ok (s', events) when Core.Change.members_only events ->
            let idx = Index.build s in
            let touched = Core.Change.touched_names events in
            let local = Index.locally_affected_by idx touched in
            let covered n = List.mem n local in
            let checks_covered =
              List.for_all
                (fun i' ->
                  match Odl.Schema.find_interface s i'.i_name with
                  | Some i -> per_interface s i = per_interface s' i' || covered i.i_name
                  | None -> false)
                s'.s_interfaces
            in
            let repaired, _ = Core.Propagate.repair s' in
            let repairs_covered =
              List.for_all
                (fun r ->
                  equal_interface r (Odl.Schema.get_interface s' r.i_name)
                  || covered r.i_name)
                repaired.s_interfaces
            in
            checks_covered && repairs_covered
            && Index.affected_count ~local:true idx touched = List.length local
        | _ -> true
      in
      let rec go s = function
        | [] -> true
        | op :: rest ->
            sound s op
            &&
            let s =
              match Apply.apply ~original:schema ~kind:Core.Concept.Wagon_wheel s op with
              | Ok (s', _) -> s'
              | Error _ -> (
                  match
                    Apply.apply ~original:schema ~kind:Core.Concept.Generalization s op
                  with
                  | Ok (s', _) -> s'
                  | Error _ -> s)
            in
            go s rest
      in
      go schema ops)

(* 14. deleting attribute [A.x] where the interfaces that read it are
   not [A]: the indexed engine, on a settled memo, against the naive one
   on the events, the diagnostics, and the first error of the primary
   effect alone (before propagation repairs it) *)
let delete_attr_agrees ~expect text () =
  let s = Util.parse text in
  let op = Util.parse_op "delete_attribute(A, x)" in
  let kind = Core.Concept.Wagon_wheel in
  let idx = Index.build s in
  Alcotest.(check bool) "valid before" true (Index.is_valid idx);
  (match (Apply.primary ~original:s s op, Apply.Indexed.primary ~original:idx idx op) with
  | Ok (raw, _), Ok (raw_idx, _) ->
      Alcotest.(check (option string)) "first error"
        (Option.map (Fmt.str "%a" Validate.pp_diagnostic_line)
           (List.nth_opt (Validate.errors raw) 0))
        (Option.map (Fmt.str "%a" Validate.pp_diagnostic_line)
           (List.nth_opt (Index.errors raw_idx) 0))
  | _ -> Alcotest.fail "the primary effect applies");
  match (Apply.apply ~original:s ~kind s op, Apply.Indexed.apply ~original:idx ~kind idx op) with
  | Ok (ws, evs), Ok (idx', evs') ->
      Alcotest.(check (list string)) "events"
        (List.map Core.Change.event_to_string evs)
        (List.map Core.Change.event_to_string evs');
      Alcotest.(check bool) "diagnostics" true
        (diags_equal (Validate.check ws) (Index.diagnostics idx'));
      Alcotest.(check bool) "the situation is exercised" true
        (expect (evs, Validate.check s, Validate.check ws))
  | Error e, Error e' ->
      Alcotest.(check string) "error" (Apply.error_to_string e) (Apply.error_to_string e')
  | _ -> Alcotest.fail "the engines disagree on acceptance"

let mentions_subject subject (ds : Validate.diagnostic list) =
  List.exists (fun (d : Validate.diagnostic) -> String.equal d.subject subject) ds

let delete_attr_cases =
  [
    ( "a descendant's key names the deleted attribute",
      delete_attr_agrees
        ~expect:(fun (evs, _, _) ->
          List.exists
            (fun e ->
              Core.Change.equal_change e.Core.Change.ev_change
                (Core.Change.Removed (Core.Change.C_key ("B", [ "x" ]))))
            evs)
        "interface A { attribute int x; attribute int y; };\n\
         interface B : A { key x; attribute int z; };\n\
         interface C : B { };" );
    ( "an order_by into a descendant names the deleted attribute",
      delete_attr_agrees
        ~expect:(fun (evs, _, _) ->
          List.exists
            (fun e ->
              match e.Core.Change.ev_change with
              | Core.Change.Altered (Core.Change.C_relationship ("C", "bs"), _) -> true
              | _ -> false)
            evs)
        "interface A { attribute int x; };\n\
         interface B : A { relationship C owner inverse C::bs; };\n\
         interface C { relationship set<B> bs inverse B::owner order_by (x); };" );
    ( "a descendant's attribute shadows the deleted one",
      delete_attr_agrees
        ~expect:(fun (_, before, after) ->
          mentions_subject "B.x" before && not (mentions_subject "B.x" after))
        "interface A { attribute int x; };\n\
         interface B : A { attribute string x; };\n\
         interface C : B { };" );
    ( "a descendant overrides an operation",
      delete_attr_agrees
        ~expect:(fun (_, before, after) ->
          mentions_subject "B.f" before && mentions_subject "B.f" after)
        "interface A { attribute int x; int f(); };\n\
         interface B : A { string f(); };\n\
         interface C : B { };" );
  ]

(* 15. the construct counts the index keeps equal a count of its schema's
   list: on every version a session passes through, undo and redo
   included; on the base index patched to the last workspace; and on a
   schema with a duplicated name, which is counted from its list *)
let counts_agree idx =
  let s = Index.schema idx in
  let attributes, relationship_ends, operations =
    Odl.Schema.count_constructs s
  in
  Index.counts idx
  = {
      Index.interfaces = List.length s.s_interfaces;
      attributes;
      relationship_ends;
      operations;
    }

let counts_over_sessions =
  prop "counts = count_constructs across a session" Gen.schema_and_ops
    (fun (schema, steps) ->
      match Core.Session.create schema with
      | Error _ -> false (* synthetic schemas are valid *)
      | Ok session ->
          let agrees s = counts_agree (Core.Session.index s) in
          let step (s, ok) (k, (kind, op)) =
            let s =
              match Core.Session.apply s ~kind op with
              | Ok (s', _) -> s'
              | Error _ -> s
            in
            (* every third step is undone, checked, and redone *)
            let ok = ok && agrees s in
            if k mod 3 <> 2 then (s, ok)
            else
              match Core.Session.undo s with
              | None -> (s, ok)
              | Some u -> (
                  match Core.Session.redo u with
                  | Some (r, _) -> (r, ok && agrees u && agrees r)
                  | None -> (u, false))
          in
          let s, ok =
            List.fold_left step (session, agrees session)
              (List.mapi (fun k st -> (k, st)) steps)
          in
          let rec undo_all s ok =
            match Core.Session.undo s with
            | None -> ok
            | Some u -> undo_all u (ok && agrees u)
          in
          let dup =
            { schema with s_interfaces = schema.s_interfaces @ [ List.hd schema.s_interfaces ] }
          in
          let dup_idx = Index.build dup in
          let first = (List.hd schema.s_interfaces).i_name in
          ok
          && counts_agree
               (Index.patch (Core.Session.index session) (Core.Session.workspace s))
          && counts_agree dup_idx
          && counts_agree
               (Index.update_interface dup_idx first (fun i -> { i with i_attrs = [] }))
          && undo_all s true)

(* 16. extents: the duplicate-extent check is cached apart from the naming
   and hierarchy checks, and an extent update drops only it.  Extents are
   drawn from a pool of three names, so updates make and clear
   duplicates.  Raw updates set or clear one interface's extent, each
   version checked against the naive checker on the memo the version
   before warmed, through [diagnostics] and [is_valid] alternately; the
   engines run add/delete/modify_extent_name ops over the same pool. *)
let extent_pool = [| "ex0"; "ex1"; "ex2" |]

let extent_updates_agree =
  let gen =
    QCheck2.Gen.(
      pair Gen.any_synth_schema
        (list_size (int_range 1 12) (pair (int_range 0 9999) (int_range 0 3))))
  in
  prop "extent updates: memo = naive as duplicates come and go" gen
    (fun (s, edits) ->
      let names = Array.of_list (Odl.Schema.interface_names s) in
      let step (idx, ok, k) (r, e) =
        let extent = if e = 3 then None else Some extent_pool.(e) in
        let idx =
          Index.update_interface idx
            names.(r mod Array.length names)
            (fun i -> { i with i_extent = extent })
        in
        let agrees =
          if k mod 2 = 0 then
            diags_equal (Index.diagnostics idx) (Validate.check (Index.schema idx))
          else validity_agrees idx
        in
        (idx, ok && agrees, k + 1)
      in
      let idx = Index.build s in
      ignore (Index.diagnostics idx);
      let _, ok, _ = List.fold_left step (idx, true, 0) edits in
      ok)

let extent_ops_agree =
  let gen =
    QCheck2.Gen.(
      let* schema = Gen.any_synth_schema in
      let names = Odl.Schema.interface_names schema in
      let pool = oneofa extent_pool in
      let op =
        let* n = oneofl names in
        oneof
          [ map (fun e -> Core.Modop.Add_extent_name (n, e)) pool;
            map (fun e -> Core.Modop.Delete_extent_name (n, e)) pool;
            map2 (fun e e' -> Core.Modop.Modify_extent_name (n, e, e')) pool pool ]
      in
      let* steps = list_size (int_range 1 12) (pair Gen.concept_kind op) in
      return (schema, steps))
  in
  prop "extent ops: indexed engine = naive engine" gen engines_agree_on

let tests =
  [
    fresh_diagnostics_agree;
    broken_diagnostics_agree;
    incremental_diagnostics_agree;
    engines_agree;
    paranoid_session_agrees;
    decompositions_agree;
  ]
  @ seed_units
  @ [
      concept_lookup_agrees;
      Alcotest.test_case "concept lookup near-misses" `Quick
        concept_lookup_units;
      shelve_roundtrip;
      affected_count_agrees;
      memo_agrees_over_sessions;
      memo_agrees_on_broken;
      extent_updates_agree;
      extent_ops_agree;
      patch_equals_build;
      Alcotest.test_case "a re-declared interface is patched, not rebuilt" `Quick
        patch_keeps_order_without_build;
      Alcotest.test_case "visible attributes along a deep chain" `Quick
        deep_chain_visible_attrs;
      local_closure_sound;
      counts_over_sessions;
    ]
  @ List.map
      (fun (name, f) -> Alcotest.test_case ("delete attribute: " ^ name) `Quick f)
      delete_attr_cases
