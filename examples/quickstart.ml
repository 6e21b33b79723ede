(* Quickstart: shrink wrap schema-based design in a dozen API calls.

   We load the university shrink wrap schema, look at its concept schemas,
   then perform the paper's Figure 7 elaboration: a course schedule object
   type that aggregates course offerings.  Run with

     dune exec examples/quickstart.exe
*)

let section title =
  Printf.printf "\n=== %s ===\n" title

let apply session kind text =
  let op = Core.Op_parser.parse text in
  match Core.Session.apply session ~kind op with
  | Ok (session, events) ->
      Printf.printf "applied: %s\n" text;
      List.iter (fun e -> print_endline ("  " ^ Core.Change.event_to_string e)) events;
      session
  | Error e ->
      Printf.printf "rejected: %s\n  %s\n" text (Core.Apply.error_to_string e);
      session

let () =
  (* 1. load the shrink wrap schema and open a design session *)
  let shrink_wrap = Schemas.University.v () in
  let session =
    match Core.Session.create shrink_wrap with
    | Ok s -> s
    | Error _ -> failwith "the bundled schema is valid; unreachable"
  in

  section "the shrink wrap schema";
  print_endline (Core.Render.summary shrink_wrap);

  (* 2. the decomposition: one wagon wheel per object type, plus the
        generalization / aggregation / instance-of hierarchies *)
  section "concept schemas";
  Core.Session.concepts session
  |> List.iter (fun (c : Core.Concept.t) ->
         Printf.printf "%-26s %s\n" c.c_id (Core.Concept.kind_name c.c_kind));

  (* 3. the course offering point of view (paper Figure 3) *)
  section "course offering wagon wheel (Figure 3)";
  let ww =
    Option.get (Core.Session.find_concept session "ww:Course_Offering")
  in
  print_string (Core.Render.wagon_wheel (Core.Session.workspace session) ww);

  (* 4. elaborate: a schedule consists of course offerings (Figure 7) *)
  section "elaboration (Figure 7)";
  let session = apply session Core.Concept.Wagon_wheel "add_type_definition(Schedule)" in
  let session =
    apply session Core.Concept.Wagon_wheel
      "add_attribute(Schedule, string, 10, term_label)"
  in
  let session =
    apply session Core.Concept.Aggregation
      "add_part_of_relationship(Schedule, set<Course_Offering>, slots, scheduled_in)"
  in

  section "elaborated course offering wagon wheel";
  let ww =
    Option.get (Core.Session.find_current_concept session "ww:Course_Offering")
  in
  print_string (Core.Render.wagon_wheel (Core.Session.workspace session) ww);

  (* 5. deliverables: custom schema, impact, consistency, mapping *)
  section "custom schema (excerpt)";
  let custom = Core.Session.custom_schema session in
  print_endline
    (Odl.Printer.interface_to_string (Odl.Schema.get_interface custom "Schedule"));

  section "deliverables";
  print_endline (Core.Session.deliverables session)
