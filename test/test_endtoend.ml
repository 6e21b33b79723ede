(* End-to-end workflows across all subsystems. *)

let test = Util.test
let ww = Core.Concept.Wagon_wheel
let gh = Core.Concept.Generalization
let ah = Core.Concept.Aggregation

let quickstart_workflow () =
  (* the full figure-3 -> figure-7 story, ending with persisted deliverables *)
  let session = Util.session_of (Util.university ()) in
  let session = Util.apply_many session [ "add_type_definition(Schedule)" ] in
  let session =
    Util.apply_many session [ "add_attribute(Schedule, string, 10, term_label)" ]
  in
  let session =
    Util.apply_many ~kind:ah session
      [ "add_part_of_relationship(Schedule, set<Course_Offering>, slots, scheduled_in)" ]
  in
  (* the elaboration shows up in the refreshed decomposition *)
  let concepts = Core.Session.current_concepts session in
  Alcotest.(check bool) "schedule aggregation appears" true
    (Option.is_some (Core.Decompose.find concepts "ah:Schedule"));
  let ww_co = Option.get (Core.Decompose.find concepts "ww:Course_Offering") in
  Alcotest.(check bool) "offering wheel sees the schedule link" true
    (Core.Concept.mem_type ww_co "Schedule");
  (* deliverables *)
  let d = Core.Session.deliverables session in
  Alcotest.(check bool) "impact in deliverables" true
    (Str_contains.contains d "added relationship Schedule.slots");
  (* persist and reload through the store *)
  let dir = Filename.temp_file "swsd_e2e" "" in
  Sys.remove dir;
  let repo = Repository.Store.open_dir dir in
  Repository.Store.save_session repo session;
  (match Repository.Store.load_session repo with
  | Ok loaded ->
      Alcotest.check Util.schema_testable "reload equals"
        (Core.Session.workspace session)
        (Core.Session.workspace loaded)
  | Error e -> Alcotest.fail (Repository.Store.load_error_to_string e));
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  rm dir

let genome_workflow () =
  (* diff -> replay -> interop -> affinity, across the whole family *)
  let acedb = Schemas.Genome.acedb_v () in
  let derive target =
    let steps, _, converged = Core.Diff.infer ~original:acedb ~target in
    Alcotest.(check bool) "diff converges" true converged;
    match Core.Oplog.replay acedb steps with
    | Ok s -> s
    | Error e -> Alcotest.fail (Core.Apply.error_to_string e)
  in
  let aatdb_session = derive (Schemas.Genome.aatdb_v ()) in
  let sacchdb_session = derive (Schemas.Genome.sacchdb_v ()) in
  (* the derived schemas really are the bundled ones *)
  Alcotest.check Util.schema_testable "aatdb derived"
    (Schemas.Genome.aatdb_v ())
    (Core.Session.workspace aatdb_session);
  (* interop over the common core *)
  let r =
    Core.Interop.analyse ~original:acedb
      ~custom_a:(Core.Session.workspace aatdb_session)
      ~custom_b:(Core.Session.workspace sacchdb_session)
  in
  Alcotest.(check int) "ten common object types" 10
    (List.length r.r_interchange.s_interfaces);
  (* affinity of the two derivatives *)
  let a =
    Core.Affinity.semantic_affinity
      (Core.Session.workspace aatdb_session)
      (Core.Session.workspace sacchdb_session)
  in
  Alcotest.(check bool) "derivatives stay related" true (a > 0.6)

let long_session_with_undo () =
  (* a long mixed session on a synthetic schema: after interleaved applies
     and undos, the log replays to the same workspace and validity holds *)
  let schema = Schemas.Synth.generate (Schemas.Synth.default_params ~n_types:30) in
  let session = Util.session_of schema in
  let ops =
    [
      (ww, "add_type_definition(Extra1)");
      (ww, "add_attribute(Extra1, string, 8, tag)");
      (ww, "add_extent_name(Extra1, extras)");
      (ww, "add_key_list(Extra1, (tag))");
      (gh, "add_supertype(Extra1, T0)");
      (ww, "delete_type_definition(T5)");
      (ww, "add_relationship(Extra1, set<T1>, friends, friend_of)");
      (ww, "delete_type_definition(T1)");
      (ww, "add_type_definition(Extra2)");
      (gh, "add_supertype(Extra2, Extra1)");
      (gh, "modify_attribute(Extra1, tag, Extra2)");
    ]
  in
  let session =
    List.fold_left
      (fun s (kind, text) ->
        match Core.Session.apply s ~kind (Util.parse_op text) with
        | Ok (s', _) -> s'
        | Error _ -> s)
      session ops
  in
  (* a couple of undos *)
  let session = Option.value (Core.Session.undo session) ~default:session in
  let session = Option.value (Core.Session.undo session) ~default:session in
  Util.check_valid "still valid" (Core.Session.workspace session);
  let steps =
    List.map
      (fun (st : Core.Session.step) -> (st.st_kind, (Core.Session.step_op st)))
      (Core.Session.log session)
  in
  match Core.Oplog.replay schema steps with
  | Ok replayed ->
      Alcotest.check Util.schema_testable "log replays"
        (Core.Session.workspace session)
        (Core.Session.workspace replayed)
  | Error e -> Alcotest.fail (Core.Apply.error_to_string e)

let designer_full_session () =
  (* drive a long scripted session through the designer engine *)
  let state = Designer.Engine.start (Util.session_of (Util.university ())) in
  let script =
    [
      "concepts"; "focus gh:Person"; "show"; "explain";
      "apply modify_relationship_target_type(Department, has, Employee, Person)";
      "focus ww:Course_Offering";
      "preview delete_type_definition(Time_Slot)";
      "apply delete_type_definition(Time_Slot)";
      "apply delete_attribute(Course_Offering, room)";
      "alias Course_Offering Correspondence_Course";
      "aliases"; "check"; "impact"; "mapping"; "log"; "summary";
      "custom Correspondence_University";
    ]
  in
  let state, error_count =
    List.fold_left
      (fun (st, errs) line ->
        let st, fb = Designer.Engine.exec_line st line in
        (st, errs + List.length (List.filter Designer.Feedback.is_error fb)))
      (state, 0) script
  in
  Alcotest.(check int) "no command errors" 0 error_count;
  let w = Core.Session.workspace state.Designer.Engine.session in
  Alcotest.(check bool) "time slot gone" false
    (Odl.Schema.mem_interface w "Time_Slot");
  Alcotest.(check bool) "target moved" true
    (Odl.Schema.has_rel (Odl.Schema.get_interface w "Person") "works_in_a");
  Util.check_valid "valid at the end" w

let library_to_custom_workflow () =
  (* sketch -> library pick -> customize -> interchange with a sibling *)
  let library = [ Util.university (); Util.lumber (); Util.emsl () ] in
  let sketch =
    Util.parse
      "interface Application { attribute string vendor; }; interface Machine \
       { attribute string architecture; };"
  in
  match Core.Affinity.best ~sketch library with
  | None -> Alcotest.fail "library nonempty"
  | Some (winner, _) ->
      Alcotest.(check string) "EMSL wins" "EMSL_Software" winner.s_name;
      let a = Util.session_of winner in
      let a, _ = Util.apply_ok a "delete_type_definition(Machine)" in
      let b = Util.session_of winner in
      let b, _ =
        Util.apply_ok b "delete_attribute(Application, discipline)"
      in
      let r =
        Core.Interop.analyse ~original:winner
          ~custom_a:(Core.Session.workspace a)
          ~custom_b:(Core.Session.workspace b)
      in
      Alcotest.(check bool) "Machine out of interchange" false
        (Odl.Schema.mem_interface r.r_interchange "Machine");
      Util.check_valid "interchange" r.r_interchange

let tests =
  [
    test "quickstart workflow" quickstart_workflow;
    test "genome family workflow" genome_workflow;
    test "long session with undo" long_session_with_undo;
    test "full designer session" designer_full_session;
    test "library to custom workflow" library_to_custom_workflow;
  ]
