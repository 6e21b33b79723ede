module Session = Core.Session

let test = Util.test

let create_rejects_invalid () =
  match Session.create (Util.parse "interface A : Ghost { };") with
  | Ok _ -> Alcotest.fail "invalid shrink wrap schema must be rejected"
  | Error ds -> Alcotest.(check bool) "diagnostics returned" true (ds <> [])

let create_keeps_original () =
  let u = Util.university () in
  let s = Util.session_of u in
  let s, _ = Util.apply_ok s "delete_type_definition(Book)" in
  Alcotest.check Util.schema_testable "original untouched" u (Session.original s);
  Alcotest.(check bool) "workspace differs" false
    (Core.Recompose.equal_content u (Session.workspace s))

let undo_restores () =
  let s0 = Util.session_of (Util.university ()) in
  let s1, _ = Util.apply_ok s0 "delete_type_definition(Book)" in
  match Session.undo s1 with
  | None -> Alcotest.fail "undo should be available"
  | Some s2 ->
      Alcotest.check Util.schema_testable "workspace restored"
        (Session.workspace s0) (Session.workspace s2);
      Alcotest.(check int) "log popped" 0 (List.length (Session.log s2))

let undo_empty () =
  let s = Util.session_of (Util.university ()) in
  Alcotest.(check bool) "nothing to undo" true (Option.is_none (Session.undo s))

let undo_is_lifo () =
  let s = Util.session_of (Util.university ()) in
  let s, _ = Util.apply_ok s "add_type_definition(A1)" in
  let s, _ = Util.apply_ok s "add_type_definition(A2)" in
  let s = Option.get (Session.undo s) in
  Alcotest.(check bool) "A1 kept" true
    (Odl.Schema.mem_interface (Session.workspace s) "A1");
  Alcotest.(check bool) "A2 undone" false
    (Odl.Schema.mem_interface (Session.workspace s) "A2")

let redo_reapplies () =
  let s = Util.session_of (Util.university ()) in
  let s, _ = Util.apply_ok s "add_type_definition(Lab)" in
  Alcotest.(check int) "nothing redoable yet" 0 (Session.redoable s);
  let s = Option.get (Session.undo s) in
  Alcotest.(check int) "one redoable" 1 (Session.redoable s);
  match Session.redo s with
  | Some (s, events) ->
      Alcotest.(check bool) "back" true
        (Odl.Schema.mem_interface (Session.workspace s) "Lab");
      Alcotest.(check int) "events replayed" 1 (List.length events);
      Alcotest.(check int) "log restored" 1 (List.length (Session.log s));
      Alcotest.(check bool) "redo exhausted" true (Session.redo s = None)
  | None -> Alcotest.fail "redo available"

let fresh_apply_clears_redo () =
  let s = Util.session_of (Util.university ()) in
  let s, _ = Util.apply_ok s "add_type_definition(Lab)" in
  let s = Option.get (Session.undo s) in
  let s, _ = Util.apply_ok s "add_type_definition(Other)" in
  Alcotest.(check int) "cleared" 0 (Session.redoable s);
  Alcotest.(check bool) "gone" true (Session.redo s = None)

let undo_undo_redo_redo () =
  let s = Util.session_of (Util.university ()) in
  let s, _ = Util.apply_ok s "add_type_definition(A1)" in
  let s, _ = Util.apply_ok s "add_type_definition(A2)" in
  let s = Option.get (Session.undo s) in
  let s = Option.get (Session.undo s) in
  Alcotest.(check int) "two redoable" 2 (Session.redoable s);
  let s, _ = Option.get (Session.redo s) in
  let s, _ = Option.get (Session.redo s) in
  Alcotest.(check bool) "both back" true
    (Odl.Schema.mem_interface (Session.workspace s) "A1"
    && Odl.Schema.mem_interface (Session.workspace s) "A2")

let log_records_steps () =
  let s = Util.session_of (Util.university ()) in
  let s, _ = Util.apply_ok s "add_type_definition(Lab)" in
  let s, _ =
    Util.apply_ok ~kind:Core.Concept.Generalization s "add_supertype(Lab, Person)"
  in
  let log = Session.log s in
  Alcotest.(check int) "two steps" 2 (List.length log);
  let step = List.nth log 1 in
  Alcotest.(check bool) "kind recorded" true
    (step.st_kind = Core.Concept.Generalization)

let rejected_ops_not_logged () =
  let s = Util.session_of (Util.university ()) in
  let _ = Util.apply_err s "delete_type_definition(Ghost)" in
  Alcotest.(check int) "log empty" 0 (List.length (Session.log s))

let custom_schema_name () =
  let s = Util.session_of (Util.university ()) in
  Alcotest.(check string) "default name" "University_custom"
    (Session.custom_schema s).s_name;
  Alcotest.(check string) "explicit name" "Mine"
    (Session.custom_schema ~name:"Mine" s).s_name

let preview_does_not_commit () =
  let s = Util.session_of (Util.university ()) in
  (match Session.preview s ~kind:Core.Concept.Wagon_wheel
           (Util.parse_op "delete_type_definition(Book)")
   with
  | Ok events -> Alcotest.(check bool) "events reported" true (events <> [])
  | Error e -> Alcotest.failf "preview failed: %s" (Core.Apply.error_to_string e));
  Alcotest.(check bool) "Book still present" true
    (Odl.Schema.mem_interface (Session.workspace s) "Book")

let apply_in_checks_membership () =
  let s = Util.session_of (Util.university ()) in
  (* Book is not in the Department wagon wheel *)
  (match Session.apply_in s ~concept_id:"ww:Department"
           (Util.parse_op "delete_attribute(Book, price)")
   with
  | Error (Core.Apply.Not_allowed m) ->
      Alcotest.(check bool) "names the concept" true
        (Str_contains.contains m "ww:Department")
  | Error e -> Alcotest.failf "wrong error: %s" (Core.Apply.error_to_string e)
  | Ok _ -> Alcotest.fail "should be rejected");
  (* but it is in its own wagon wheel *)
  match Session.apply_in s ~concept_id:"ww:Book"
          (Util.parse_op "delete_attribute(Book, price)")
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "should be accepted: %s" (Core.Apply.error_to_string e)

let apply_in_unknown_concept () =
  let s = Util.session_of (Util.university ()) in
  match Session.apply_in s ~concept_id:"ww:Ghost"
          (Util.parse_op "add_type_definition(X)")
  with
  | Error (Core.Apply.Unknown _) -> ()
  | _ -> Alcotest.fail "unknown concept should be an Unknown error"

let replay_matches_session () =
  let s = Util.session_of (Util.university ()) in
  let s =
    Util.apply_many s
      [ "add_type_definition(Lab)"; "delete_type_definition(Book)" ]
  in
  let steps =
    List.map (fun (st : Session.step) -> (st.st_kind, (Session.step_op st))) (Session.log s)
  in
  match Core.Oplog.replay (Util.university ()) steps with
  | Ok replayed ->
      Alcotest.check Util.schema_testable "same workspace"
        (Session.workspace s) (Session.workspace replayed)
  | Error e -> Alcotest.failf "replay failed: %s" (Core.Apply.error_to_string e)

let replay_stops_on_failure () =
  match
    Core.Oplog.replay (Util.university ())
      [ (Core.Concept.Wagon_wheel, Util.parse_op "delete_type_definition(Ghost)") ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "replay of a bad log must fail"

let consistency_report_warnings_only () =
  let s = Util.session_of (Util.university ()) in
  let s, _ =
    Util.apply_ok ~kind:Core.Concept.Generalization s
      "delete_supertype(Employee, Person)"
  in
  (* Employee and Person are now two roots of nothing shared; report must
     carry no errors (accepted ops preserve validity) *)
  let ds = Session.consistency_report s in
  Alcotest.(check bool) "no errors" true
    (List.for_all (fun d -> d.Odl.Validate.severity = Odl.Validate.Warning) ds)

let log_text_replayable () =
  let s = Util.session_of (Util.university ()) in
  let s, _ = Util.apply_ok s "add_type_definition(Lab)" in
  let text = Core.Oplog.(render (of_session s)) in
  Alcotest.(check bool) "contains the op" true
    (Str_contains.contains text "add_type_definition(Lab)")

let deliverables_contains_all_sections () =
  let s = Util.session_of (Util.university ()) in
  let s, _ = Util.apply_ok s "delete_type_definition(Book)" in
  let d = Session.deliverables s in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) ("contains " ^ fragment) true
        (Str_contains.contains d fragment))
    [ "shrink wrap schema"; "custom schema"; "impact report";
      "consistency report"; "mapping report" ]

let current_concepts_follow_workspace () =
  let s = Util.session_of (Util.university ()) in
  let s, _ = Util.apply_ok s "add_type_definition(Lab)" in
  Alcotest.(check bool) "new wagon wheel" true
    (Option.is_some (Session.find_current_concept s "ww:Lab"));
  Alcotest.(check bool) "original decomposition fixed" true
    (Option.is_none (Session.find_concept s "ww:Lab"))

(* --- the log delta ---------------------------------------------------------- *)

(* Apply [ops], each followed by a scripted undo/redo move, and return every
   session of the run, oldest first.  Move 4 undoes a step and applies it
   afresh: the same step on a new spine node, which [delta] trims. *)
let run_with_moves session ops moves =
  let move s = function
    | 1 -> Option.value (Session.undo s) ~default:s
    | 2 ->
        let s = Option.value (Session.undo s) ~default:s in
        let s = Option.value (Session.undo s) ~default:s in
        Option.fold ~none:s ~some:fst (Session.redo s)
    | 3 -> Option.fold ~none:s ~some:fst (Session.redo s)
    | 4 -> (
        match (Session.steps_rev s, Session.undo s) with
        | st :: _, Some u -> (
            match Session.apply u ~kind:st.Session.st_kind (Session.step_op st) with
            | Ok (s', _) -> s'
            | Error _ -> u)
        | _ -> s)
    | _ -> s
  in
  let states, _ =
    List.fold_left
      (fun (states, moves) (kind, op) ->
        let s = List.hd states in
        let s =
          match Session.apply s ~kind op with Ok (s', _) -> s' | Error _ -> s
        in
        let m, moves = match moves with m :: r -> (m, r) | [] -> (0, []) in
        (move s m :: s :: states, moves))
      ([ session ], moves) ops
  in
  List.rev states

(* [before] with [delta (spine before) (spine after)] replayed on it: one
   undo per undone step, then each added step applied. *)
let replay_delta before after =
  let undone, added =
    Session.delta (Session.spine before) (Session.spine after)
  in
  let s =
    List.fold_left
      (fun s _ ->
        match Session.undo s with Some s -> s | None -> failwith "undo")
      before undone
  in
  List.fold_left
    (fun s (st : Session.step) ->
      match Session.apply s ~kind:st.st_kind (Session.step_op st) with
      | Ok (s, _) -> s
      | Error e -> failwith (Core.Apply.error_to_string e))
    s added

let delta_replays =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~long_factor:10
       ~name:"delta (spine si) (spine sj) replayed on si gives sj"
       QCheck2.Gen.(
         pair Gen.schema_and_ops (list_size (int_range 0 10) (int_range 0 4)))
       (fun ((schema, ops), moves) ->
         match Session.create schema with
         | Error _ -> false (* synthetic schemas are valid *)
         | Ok session ->
             let states = run_with_moves session ops moves in
             let rec pairs = function
               | [] -> true
               | si :: later ->
                   (match Session.delta (Session.spine si) (Session.spine si) with
                   | [], [] -> true
                   | _ -> false)
                   && List.for_all
                        (fun sj ->
                          let r = replay_delta si sj in
                          List.equal Session.equal_step (Session.log r)
                            (Session.log sj)
                          && Odl.Types.equal_schema (Session.workspace r)
                               (Session.workspace sj))
                        (si :: later)
                   && pairs later
             in
             pairs states))

(* A step keeps only its text: its op is that text parsed, and those ops
   replay to the session's workspace — after undo, redo, re-application
   and a merge alike. *)
let step_op_is_parsed_text =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~long_factor:10
       ~name:"step_op = the step's text parsed, across undo, redo and merge"
       QCheck2.Gen.(
         pair Gen.schema_and_ops (list_size (int_range 0 10) (int_range 0 4)))
       (fun ((schema, ops), moves) ->
         match Session.create schema with
         | Error _ -> false (* synthetic schemas are valid *)
         | Ok session ->
             let states = run_with_moves session ops moves in
             let base = List.nth states (List.length states / 2)
             and branch = List.nth states (List.length states - 1) in
             let merged =
               (Core.Oplog.rebase ~base
                  ~branch_ops:(Core.Oplog.branch_entries ~base ~branch))
                 .Core.Oplog.r_session
             in
             let parsed s =
               List.for_all
                 (fun (st : Session.step) ->
                   Core.Modop.equal (Session.step_op st)
                     (Core.Op_parser.parse st.st_text))
                 (Session.log s)
               &&
               match
                 Core.Oplog.replay schema
                   (Core.Oplog.pairs (Core.Oplog.of_session s))
               with
               | Ok r ->
                   Odl.Types.equal_schema (Session.workspace r)
                     (Session.workspace s)
               | Error _ -> false
             in
             List.for_all parsed (merged :: states)))

let tests =
  [
    delta_replays;
    step_op_is_parsed_text;
    test "create rejects invalid shrink wrap" create_rejects_invalid;
    test "original is never modified" create_keeps_original;
    test "undo restores" undo_restores;
    test "undo on empty log" undo_empty;
    test "undo is LIFO" undo_is_lifo;
    test "redo re-applies" redo_reapplies;
    test "fresh apply clears redo" fresh_apply_clears_redo;
    test "undo undo redo redo" undo_undo_redo_redo;
    test "log records steps" log_records_steps;
    test "rejected operations are not logged" rejected_ops_not_logged;
    test "custom schema naming" custom_schema_name;
    test "preview does not commit" preview_does_not_commit;
    test "apply_in checks membership" apply_in_checks_membership;
    test "apply_in unknown concept" apply_in_unknown_concept;
    test "replay reproduces the workspace" replay_matches_session;
    test "replay stops on failure" replay_stops_on_failure;
    test "consistency report carries warnings only"
      consistency_report_warnings_only;
    test "log text is replayable" log_text_replayable;
    test "deliverables contain all sections" deliverables_contains_all_sections;
    test "current concepts follow the workspace" current_concepts_follow_workspace;
  ]
