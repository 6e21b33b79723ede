(* The HTML deliverables page. *)

let test = Util.test
let contains = Str_contains.contains

let session_with_work () =
  let s = Util.session_of (Util.university ()) in
  let s = Util.apply_many s [ "delete_type_definition(Book)" ] in
  let s =
    match
      Core.Session.add_alias s (Core.Aliases.For_interface "Student") "Learner"
    with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  s

let well_formed_shell () =
  let html = Repository.Html_report.render (session_with_work ()) in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("has " ^ frag) true (contains html frag))
    [
      "<!DOCTYPE html>"; "</html>"; "<title>"; "Design deliverables: University";
      "<h2>Schemas</h2>"; "<h2>Operation log and impact</h2>";
      "<h2>Consistency report</h2>"; "<h2>Mapping</h2>"; "<h2>Local names</h2>";
    ]

let content_present () =
  let html = Repository.Html_report.render (session_with_work ()) in
  Alcotest.(check bool) "log shows the op" true
    (contains html "delete_type_definition(Book)");
  Alcotest.(check bool) "propagated change marked" true
    (contains html "(propagated)");
  Alcotest.(check bool) "mapping flags the deletion" true
    (contains html "interface Book");
  Alcotest.(check bool) "alias listed" true (contains html "Learner");
  Alcotest.(check bool) "custom schema odl embedded" true
    (contains html "interface Person {")

let escaping () =
  Alcotest.(check string) "entities" "a&lt;b&gt;c&amp;d&quot;e"
    (Repository.Html_report.escape "a<b>c&d\"e");
  (* generated pages must not contain raw unescaped ODL angle brackets in
     text nodes: spot-check that set<...> appears escaped *)
  let html = Repository.Html_report.render (session_with_work ()) in
  Alcotest.(check bool) "odl collections escaped" true
    (contains html "set&lt;");
  Alcotest.(check bool) "no raw set< outside tags" false (contains html "set<Course")

let empty_session_renders () =
  let html = Repository.Html_report.render (Util.session_of (Util.emsl ())) in
  Alcotest.(check bool) "no operations note" true
    (contains html "No operations applied.");
  Alcotest.(check bool) "no findings note" true (contains html "No findings.");
  Alcotest.(check bool) "no aliases note" true
    (contains html "No local names defined.")

let saved_by_store () =
  let dir = Filename.temp_file "swsd_html" "" in
  Sys.remove dir;
  let repo = Repository.Store.open_dir dir in
  Repository.Store.save_reports repo (session_with_work ());
  let path = Filename.concat (Repository.Store.reports_dir repo) "deliverables.html" in
  Alcotest.(check bool) "written" true (Sys.file_exists path);
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  rm dir

let deterministic () =
  let s = session_with_work () in
  Alcotest.(check string) "stable" (Repository.Html_report.render s)
    (Repository.Html_report.render s)

let tests =
  [
    test "well-formed shell" well_formed_shell;
    test "content present" content_present;
    test "escaping" escaping;
    test "empty session renders" empty_session_renders;
    test "saved by the store" saved_by_store;
    test "deterministic" deterministic;
  ]
