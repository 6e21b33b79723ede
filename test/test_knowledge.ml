(* The knowledge component's cautionary statements. *)

let test = Util.test
let contains = Str_contains.contains

let cautions schema text =
  String.concat "\n" (Repository.Knowledge.cautions schema (Util.parse_op text))

let u = Util.university

let delete_type_counts_dependents () =
  let c = cautions (u ()) "delete_type_definition(Course_Offering)" in
  Alcotest.(check bool) "incoming ends counted" true
    (contains c "relationship end(s) on other interfaces");
  Alcotest.(check bool) "own ends counted" true
    (contains c "itself declares")

let delete_type_subtype_reconnection () =
  let c = cautions (u ()) "delete_type_definition(Graduate)" in
  Alcotest.(check bool) "reconnection warned" true
    (contains c "3 subtype(s) of Graduate will be reconnected")

let delete_type_domain_uses () =
  let s =
    Util.parse
      "interface A { }; interface B { attribute A ref_a; attribute set<A> more; };"
  in
  let c = cautions s "delete_type_definition(A)" in
  Alcotest.(check bool) "domain attrs counted" true
    (contains c "2 attribute(s) elsewhere use A")

let delete_attr_keys_and_descendants () =
  let c = cautions (u ()) "delete_attribute(Person, ssn)" in
  Alcotest.(check bool) "key participation" true (contains c "1 key(s)");
  Alcotest.(check bool) "descendant visibility" true
    (contains c "descendant type(s) will no longer inherit")

let move_direction () =
  let up = cautions (u ()) "modify_attribute(Student, gpa, Person)" in
  Alcotest.(check bool) "up widens" true (contains up "visible to every subtype");
  let down = cautions (u ()) "modify_attribute(Student, gpa, Graduate)" in
  Alcotest.(check bool) "down hides" true (contains down "hides it from the other subtypes")

let target_move_direction () =
  let widen =
    cautions (u ())
      "modify_relationship_target_type(Department, has, Employee, Person)"
  in
  Alcotest.(check bool) "widening" true (contains widen "widening");
  let narrow =
    cautions (u ())
      "modify_relationship_target_type(Department, has, Employee, Faculty)"
  in
  Alcotest.(check bool) "narrowing" true (contains narrow "narrowing")

let supertype_cautions () =
  let del = cautions (u ()) "delete_supertype(Student, Person)" in
  Alcotest.(check bool) "inherited loss estimated" true
    (contains del "loses up to");
  let s =
    Util.parse
      "interface A { attribute int x; }; interface B { attribute int x; };"
  in
  let add = cautions s "add_supertype(B, A)" in
  Alcotest.(check bool) "shadowing flagged" true (contains add "shadowing")

let delete_relationship_inverse () =
  let c = cautions (u ()) "delete_relationship(Student, takes)" in
  Alcotest.(check bool) "names the inverse end" true
    (contains c "Course_Offering.taken_by")

let silent_operations () =
  List.iter
    (fun text ->
      Alcotest.(check string) (text ^ " is silent") "" (cautions (u ()) text))
    [
      "add_type_definition(Lab)";
      "add_attribute(Person, int, none, age)";
      "modify_extent_name(Person, people, persons)";
      "delete_type_definition(Ghost)" (* unknown: nothing to warn about *);
    ]

(* The cautions over a session's index are the cautions over its
   workspace, byte for byte, before every op of a generated workload.
   Beside the plausible ops, the workload declares attributes whose
   domain is another interface and deletes interfaces, so domain uses
   are counted. *)
let indexed_cautions_agree =
  let gen =
    QCheck2.Gen.(
      let* schema = Gen.any_synth_schema in
      let names = Odl.Schema.interface_names schema in
      let op =
        frequency
          [
            (3, Gen.plausible_op schema);
            ( 1,
              let* n = oneofl names and* m = oneofl names and* a = Gen.ident in
              return (Core.Modop.Add_attribute (n, Odl.Types.D_named m, None, a)) );
            (1, map (fun n -> Core.Modop.Delete_type_definition n) (oneofl names));
          ]
      in
      let* steps = list_size (int_range 0 12) (pair Gen.concept_kind op) in
      return (schema, steps))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"indexed cautions = schema cautions" ~count:300
       ~long_factor:10 gen (fun (schema, steps) ->
         match Core.Session.create schema with
         | Error _ -> false (* synthetic schemas are valid *)
         | Ok session ->
             let agree s op =
               String.equal
                 (String.concat "\n"
                    (Repository.Knowledge.cautions (Core.Session.workspace s) op))
                 (String.concat "\n"
                    (Repository.Knowledge.cautions_indexed (Core.Session.index s) op))
             in
             let step (s, ok) (kind, op) =
               let ok = ok && agree s op in
               match Core.Session.apply s ~kind op with
               | Ok (s', _) -> (s', ok)
               | Error _ -> (s, ok)
             in
             snd (List.fold_left step (session, true) steps)))

let tests =
  [
    test "delete type counts dependents" delete_type_counts_dependents;
    test "delete type warns about reconnection" delete_type_subtype_reconnection;
    test "delete type counts domain uses" delete_type_domain_uses;
    test "delete attribute: keys and descendants" delete_attr_keys_and_descendants;
    test "move direction phrasing" move_direction;
    test "target move direction phrasing" target_move_direction;
    test "supertype cautions" supertype_cautions;
    test "delete relationship names the inverse" delete_relationship_inverse;
    test "uneventful operations are silent" silent_operations;
    indexed_cautions_agree;
  ]
