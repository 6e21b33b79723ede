(** Regeneration of the paper's tables and figures from the implementation.

    Nothing here is transcribed from the paper: Table 1 is computed from the
    permission engine, Tables 2 and 3 from the coverage enumeration, and the
    figures from the decomposition of the bundled schemas — so these outputs
    drift if and only if the implementation drifts. *)

let line = String.make 78 '-'

let heading title =
  Printf.printf "\n%s\n%s\n%s\n" line title line

(* --- Table 1: operations per concept schema type ------------------------ *)

let kinds =
  [
    (Core.Concept.Wagon_wheel, "WW");
    (Core.Concept.Generalization, "GH");
    (Core.Concept.Aggregation, "AH");
    (Core.Concept.Instance_chain, "IH");
  ]

let table1 () =
  heading
    "Table 1 -- operations allowed per concept schema type (computed from \
     Permission)";
  Printf.printf "%-38s %4s %4s %4s %4s\n" "operation" "WW" "GH" "AH" "IH";
  List.iter
    (fun op_name ->
      let cells =
        List.map
          (fun (k, _) ->
            if Core.Permission.allowed_name k op_name then "yes" else "-")
          kinds
      in
      match cells with
      | [ a; b; c; d ] ->
          Printf.printf "%-38s %4s %4s %4s %4s\n" op_name a b c d
      | _ -> assert false)
    Core.Permission.all_op_names

(* --- Tables 2 and 3: coverage of the ODL candidates --------------------- *)

let print_coverage title rows =
  heading title;
  Printf.printf "%-26s %-34s %s\n" "candidate group" "field" "operation";
  List.iter
    (fun (group, field, op) -> Printf.printf "%-26s %-34s %s\n" group field op)
    rows

let table2 () =
  print_coverage
    "Table 2a -- addition operations on ODL candidates (computed from Coverage)"
    Core.Coverage.addition_table;
  print_coverage "Table 2b -- deletion operations on ODL candidates"
    Core.Coverage.deletion_table

let table3 () =
  print_coverage "Table 3 -- modify operations on ODL candidates"
    Core.Coverage.modification_table

(* --- Figures ------------------------------------------------------------ *)

let concept_of schema id =
  match Core.Decompose.find (Core.Decompose.decompose schema) id with
  | Some c -> c
  | None -> failwith ("missing concept schema " ^ id)

let figure3 () =
  heading "Figure 3 -- course offering wagon wheel";
  let u = Schemas.University.v () in
  print_string (Core.Render.concept u (concept_of u "ww:Course_Offering"))

let figure4 () =
  heading "Figure 4 -- student generalization hierarchy";
  let u = Schemas.University.v () in
  (* the paper's figure roots the view at Student; our decomposition roots
     hierarchies at Person, so render the Student subtree *)
  print_string
    (Core.Render.generalization u
       (Core.Decompose.generalization_hierarchy u "Student"))

let figure5 () =
  heading "Figure 5 -- house aggregation hierarchy";
  let l = Schemas.Lumber.v () in
  print_string (Core.Render.concept l (concept_of l "ah:House"))

let figure6 () =
  heading "Figure 6 -- software instance-of sequence";
  let e = Schemas.Emsl.v () in
  print_string (Core.Render.concept e (concept_of e "ih:Application"))

let parse_ops texts = List.map Core.Op_parser.parse texts

let must = function
  | Ok v -> v
  | Error e -> failwith (Core.Apply.error_to_string e)

let figure7 () =
  heading "Figure 7 -- elaborated course offering (Schedule aggregate added)";
  let u = Schemas.University.v () in
  let session = Result.get_ok (Core.Session.create u) in
  let steps =
    List.combine
      [ Core.Concept.Wagon_wheel; Core.Concept.Wagon_wheel; Core.Concept.Aggregation ]
      (parse_ops
         [
           "add_type_definition(Schedule)";
           "add_attribute(Schedule, string, 10, term_label)";
           "add_part_of_relationship(Schedule, set<Course_Offering>, slots, \
            scheduled_in)";
         ])
  in
  let session =
    List.fold_left
      (fun s (kind, op) -> must (Core.Session.apply s ~kind op) |> fst)
      session steps
  in
  let w = Core.Session.workspace session in
  print_string
    (Core.Render.concept w
       (Option.get
          (Core.Session.find_current_concept session "ww:Course_Offering")))

let figure8 () =
  heading "Figure 8 -- modify relationship target type (Employee -> Person)";
  let u = Schemas.University.v () in
  let session = Result.get_ok (Core.Session.create u) in
  let before i = Odl.Printer.interface_to_string (Odl.Schema.get_interface u i) in
  Printf.printf "before:\n%s\n%s\n" (before "Department") (before "Employee");
  let op =
    Core.Op_parser.parse
      "modify_relationship_target_type(Department, has, Employee, Person)"
  in
  let session, _ =
    must (Core.Session.apply session ~kind:Core.Concept.Generalization op)
  in
  let w = Core.Session.workspace session in
  let after i = Odl.Printer.interface_to_string (Odl.Schema.get_interface w i) in
  Printf.printf "after:\n%s\n%s\n" (after "Department") (after "Person")

let figures9_11 () =
  heading "Figures 9-11 -- the ACEDB schema family object-type graphs";
  List.iter
    (fun s -> print_string (Core.Render.object_type_graph s ^ "\n"))
    [
      Schemas.Genome.acedb_v ();
      Schemas.Genome.sacchdb_v ();
      Schemas.Genome.aatdb_v ();
    ];
  Printf.printf "object types common to all three: %s\n"
    (String.concat ", " (Schemas.Genome.common_object_types ()));
  print_newline ();
  print_endline
    "semantic affinity matrix (type-name overlap x mean structural \
     similarity of shared types):";
  print_string
    (Core.Affinity.matrix
       [
         Schemas.Genome.acedb_v (); Schemas.Genome.sacchdb_v ();
         Schemas.Genome.aatdb_v ();
       ]);
  print_newline ();
  print_endline "structural descriptors:";
  List.iter
    (fun s ->
      print_endline
        ("  " ^ Core.Affinity.descriptor_to_string (Core.Affinity.descriptor s)))
    [
      Schemas.Genome.acedb_v (); Schemas.Genome.sacchdb_v ();
      Schemas.Genome.aatdb_v ();
    ];
  print_newline ();
  print_endline
    "inferred customization scripts (Diff.infer, replayable operation logs):";
  List.iter
    (fun (name, target) ->
      let steps, _, converged =
        Core.Diff.infer ~original:(Schemas.Genome.acedb_v ()) ~target
      in
      Printf.printf "  ACEDB -> %s: %d operations, converged: %b\n" name
        (List.length steps) converged)
    [ ("AAtDB", Schemas.Genome.aatdb_v ()); ("SacchDB", Schemas.Genome.sacchdb_v ()) ]

let all () =
  table1 ();
  table2 ();
  table3 ();
  figure3 ();
  figure4 ();
  figure5 ();
  figure6 ();
  figure7 ();
  figure8 ();
  figures9_11 ()
