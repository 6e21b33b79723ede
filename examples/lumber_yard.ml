(* Customizing an aggregation hierarchy (paper Figure 5).

   The lumber yard's house parts explosion is tailored for a builder of
   prefabricated homes: skylights become roof parts, plumbing is dropped
   (subcontracted), the studs of a framing are re-ordered as a list, and
   the whole decking moves up to be a structure-level part.

   Run with:  dune exec examples/lumber_yard.exe
*)

let apply session kind text =
  match Core.Session.apply session ~kind (Core.Op_parser.parse text) with
  | Ok (session, events) ->
      Printf.printf "applied: %s\n" text;
      List.iter (fun e -> print_endline ("  " ^ Core.Change.event_to_string e)) events;
      session
  | Error e -> failwith (text ^ ": " ^ Core.Apply.error_to_string e)

let show_house session =
  let c =
    Option.get (Core.Session.find_current_concept session "ah:House")
  in
  print_string (Core.Render.aggregation (Core.Session.workspace session) c)

let () =
  let session =
    match Core.Session.create (Schemas.Lumber.v ()) with
    | Ok s -> s
    | Error _ -> failwith "unreachable: bundled schema is valid"
  in

  print_endline "--- the shrink wrap parts explosion (Figure 5)";
  show_house session;

  print_endline "\n--- customization in the aggregation hierarchy";
  let ah = Core.Concept.Aggregation in
  let ww = Core.Concept.Wagon_wheel in

  (* skylights: a new supply item under the roof *)
  let session = apply session ah "add_type_definition(Skylight)" in
  let session = apply session ww "add_attribute(Skylight, string, 16, sku)" in
  let session = apply session ww "add_attribute(Skylight, float, none, unit_cost)" in
  let session =
    apply session ah
      "add_part_of_relationship(Roof, set<Skylight>, skylights, skylight_of)"
  in

  (* plumbing is subcontracted: drop the fixtures entirely *)
  let session = apply session ww "delete_type_definition(Plumbing_Fixture)" in

  (* studs are cut to order: their sequence matters, so list not set *)
  let session =
    apply session ah "modify_part_of_cardinality(Framing, studs, set, list)"
  in

  (* any supply item can top a roof, not just shingle bundles: the part end
     moves up the Supply_Item generalization hierarchy (semantic stability
     keeps it on that ISA line) *)
  let session =
    apply session ah
      "modify_part_of_target_type(Roof, shingles, Shingle_Bundle, Supply_Item)"
  in

  print_endline "\n--- the customized parts explosion";
  show_house session;

  print_endline "\n--- consistency and mapping";
  print_endline (Core.Session.consistency_report_text session);
  let p, md, mv, d, a = Core.Mapping.summary (Core.Session.mapping session) in
  Printf.printf "mapping: preserved=%d modified=%d moved=%d deleted=%d added=%d\n"
    p md mv d a
