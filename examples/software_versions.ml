(* Customizing an instance-of hierarchy (paper Figure 6).

   The EMSL software-version chain — application, version, compiled
   version, installed version — is extended for a site that also tracks
   patch levels below installations, and that audits installations in
   order (list rather than set).

   Run with:  dune exec examples/software_versions.exe
*)

let apply session kind text =
  match Core.Session.apply session ~kind (Core.Op_parser.parse text) with
  | Ok (session, events) ->
      Printf.printf "applied: %s\n" text;
      List.iter (fun e -> print_endline ("  " ^ Core.Change.event_to_string e)) events;
      session
  | Error e -> failwith (text ^ ": " ^ Core.Apply.error_to_string e)

let show_chain session =
  let c =
    Option.get (Core.Session.find_current_concept session "ih:Application")
  in
  print_string (Core.Render.instance_chain (Core.Session.workspace session) c)

let () =
  let session =
    match Core.Session.create (Schemas.Emsl.v ()) with
    | Ok s -> s
    | Error _ -> failwith "unreachable: bundled schema is valid"
  in

  print_endline "--- the shrink wrap instance-of chain (Figure 6)";
  show_chain session;

  let ih = Core.Concept.Instance_chain in
  let ww = Core.Concept.Wagon_wheel in

  print_endline "\n--- extend the chain with patch levels";
  let session = apply session ih "add_type_definition(Patch_Level)" in
  let session =
    apply session ww "add_attribute(Patch_Level, string, 16, patch_id)"
  in
  let session =
    apply session ww "add_attribute(Patch_Level, string, none, applied_date)"
  in
  let session =
    apply session ih
      "add_instance_of_relationship(Installed_Version, set<Patch_Level>, patches, patch_of)"
  in

  print_endline "\n--- audit installations in order";
  let session =
    apply session ih
      "modify_instance_of_cardinality(Compiled_Version, installations, set, list)"
  in
  let session =
    apply session ih
      "modify_instance_of_order_by(Compiled_Version, installations, (), (install_date))"
  in

  print_endline "\n--- the customized chain";
  show_chain session;

  print_endline "\n--- resulting ODL for the installed version";
  let custom = Core.Session.custom_schema session in
  print_endline
    (Odl.Printer.interface_to_string
       (Odl.Schema.get_interface custom "Installed_Version"));
  print_endline
    (Odl.Printer.interface_to_string
       (Odl.Schema.get_interface custom "Patch_Level"));

  print_endline "--- impact report";
  print_endline (Core.Session.impact_report session)
