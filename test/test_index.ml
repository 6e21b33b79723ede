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
let engines_agree =
  prop "indexed engine = naive engine over op sequences" Gen.schema_and_ops
    (fun (schema, steps) ->
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
      go schema orig_idx steps)

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
      patch_equals_build;
      Alcotest.test_case "a re-declared interface is patched, not rebuilt" `Quick
        patch_keeps_order_without_build;
      Alcotest.test_case "visible attributes along a deep chain" `Quick
        deep_chain_visible_attrs;
    ]
