(* The durable repository: artifact round trips, the append-only journal,
   and crash recovery.  The fault-injection sweeps crash the writer at every
   effectful syscall of generated save/append schedules (in-memory filesystem
   with write-back-cache semantics, plus a smaller sweep on the real
   filesystem) and demand that recovery always lands on a durable state with
   no exception escaping.

   Run with QCHECK_LONG=1 (the [fuzz-long] alias) for the full sweep. *)

(* every fsck here runs with and without the repository's base *)
module Store = struct
  include Repository.Store

  let fsck = Util.fsck_on_base
end
module Repo = Repository.Repo
module Io = Repository.Io
module Journal = Repository.Journal

let test = Util.test

let prop name ?(count = 200) gen f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~long_factor:10 gen f)

let tmp_dir = Util.tmp_dir
let rm_rf = Util.rm_rf

let with_repo f =
  let dir = tmp_dir () in
  let repo = Store.open_dir dir in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f repo)

let steps s =
  List.map
    (fun (st : Core.Session.step) -> (st.st_kind, (Core.Session.step_op st)))
    (Core.Session.log s)

let steps_equal =
  List.equal (fun (k1, o1) (k2, o2) -> k1 = k2 && Core.Modop.equal o1 o2)

let entry_equal a b =
  match (a, b) with
  | Journal.Op (k1, o1), Journal.Op (k2, o2) -> k1 = k2 && Core.Modop.equal o1 o2
  | Journal.Undo, Journal.Undo -> true
  | _ -> false

(* The reference recovery: the whole resolved journal replayed on the
   stored shrink wrap, local names restored. *)
let same_as_full_replay store s =
  let journal = Journal.read (Store.io store) (Store.log_file store) in
  match Journal.resolve journal.Journal.entries with
  | Error _ -> false
  | Ok journal -> (
      match Core.Oplog.replay (Store.load_shrinkwrap store) journal with
      | Error _ -> false
      | Ok r ->
          let r = Core.Session.restore_aliases r (Store.load_aliases store) in
          Odl.Types.equal_schema (Core.Session.workspace r) (Core.Session.workspace s)
          && steps_equal (steps r) (steps s)
          && Core.Session.version r = Core.Session.version s)

let ok_or_fail = function Ok v -> v | Error m -> Alcotest.fail m

(* The open and fsck reach the journal through one walk: whenever a
   read-only open succeeds, fsck's session is the same one — workspace,
   log texts and local names.  [Some] names the first difference. *)
let open_differs_from_fsck store =
  match Store.load_session ~repair:false store with
  | Error _ -> None
  | Ok s -> (
      let texts s =
        List.map
          (fun (st : Core.Session.step) ->
            (Core.Concept.kind_name st.st_kind, st.st_text))
          (Core.Session.log s)
      and names s = Core.Aliases.to_string (Core.Session.aliases s) in
      match (Store.fsck store).Store.fsck_session with
      | None -> Some "fsck recovers no session"
      | Some f ->
          if
            not
              (Odl.Types.equal_schema (Core.Session.workspace s)
                 (Core.Session.workspace f))
          then Some "workspace"
          else if texts s <> texts f then Some "log texts"
          else if names s <> names f then Some "local names"
          else None)

let rec take n l =
  if n <= 0 then []
  else match l with [] -> [] | x :: r -> x :: take (n - 1) r

(* --- artifact round trips (whole files) ---------------------------------- *)

let schema_roundtrip () =
  with_repo (fun repo ->
      Store.save_shrinkwrap repo (Util.university ());
      Alcotest.check Util.schema_testable "round trip" (Util.university ())
        (Store.load_shrinkwrap repo))

let log_roundtrip () =
  let steps =
    [
      (Core.Concept.Wagon_wheel, Util.parse_op "add_type_definition(Lab)");
      (Core.Concept.Generalization, Util.parse_op "add_supertype(Lab, Person)");
      (Core.Concept.Aggregation,
       Util.parse_op "add_part_of_relationship(A, set<B>, parts, whole)");
      (Core.Concept.Instance_chain,
       Util.parse_op "delete_instance_of_relationship(A, insts)");
    ]
  in
  let text = Store.log_to_string steps in
  let back = Store.log_of_string text in
  Alcotest.(check int) "same length" (List.length steps) (List.length back);
  List.iter2
    (fun (k1, o1) (k2, o2) ->
      Alcotest.(check bool) "kind" true (k1 = k2);
      Alcotest.check Util.op_testable "op" o1 o2)
    steps back

let log_comments_and_blanks () =
  let parsed =
    Store.log_of_string
      "// a comment\n\n@ww add_type_definition(A);\n   \n// more\n@gh add_supertype(A, B);"
  in
  Alcotest.(check int) "two ops" 2 (List.length parsed)

let bad_logs () =
  let expect_bad text =
    match Store.log_of_string text with
    | exception Store.Bad_log _ -> ()
    | _ -> Alcotest.failf "should be rejected: %s" text
  in
  expect_bad "@zz add_type_definition(A);";
  expect_bad "@ww";
  expect_bad "@ww frobnicate(A);";
  (* an undo with nothing to undo is corruption, not a crash artifact *)
  expect_bad "@undo;"

let session_roundtrip () =
  with_repo (fun repo ->
      let s = Util.session_of (Util.university ()) in
      let s =
        Util.apply_many s
          [ "add_type_definition(Lab)"; "delete_type_definition(Book)" ]
      in
      Store.save_session repo s;
      match Store.load_session repo with
      | Ok loaded ->
          Alcotest.check Util.schema_testable "workspace restored"
            (Core.Session.workspace s) (Core.Session.workspace loaded);
          Alcotest.(check int) "log restored" 2
            (List.length (Core.Session.log loaded))
      | Error e -> Alcotest.failf "load failed: %s" (Store.load_error_to_string e))

let reports_written () =
  with_repo (fun repo ->
      let s = Util.session_of (Util.university ()) in
      Store.save_session repo s;
      Alcotest.(check bool) "a snapshot renders no reports" false
        (Sys.file_exists (Store.reports_dir repo));
      Store.save_reports repo s;
      List.iter
        (fun name ->
          let path = Filename.concat (Store.reports_dir repo) (name ^ ".txt") in
          Alcotest.(check bool) (name ^ " written") true (Sys.file_exists path))
        [ "impact"; "consistency"; "mapping" ])

(* [custom.odl] is a deliverable: only [save_reports] writes it, and it
   parses to the session's custom schema. *)
let custom_written_and_parsable () =
  with_repo (fun repo ->
      let s = Util.session_of (Util.emsl ()) in
      let s, _ = Util.apply_ok s "add_type_definition(Extra)" in
      let no_custom what =
        Alcotest.(check bool) (what ^ " leaves no custom.odl") false
          (Sys.file_exists (Store.custom_file repo))
      in
      Store.save_session repo s;
      no_custom "save_session";
      Store.save_checkpoint repo s;
      no_custom "save_checkpoint";
      Store.save_reports repo s;
      let custom =
        Odl.Parser.parse_schema
          ((Store.io repo).Io.read_file (Store.custom_file repo))
      in
      Alcotest.(check bool) "custom.odl is the custom schema" true
        (Odl.Types.equal_schema (Core.Session.custom_schema s) custom);
      Alcotest.(check bool) "custom has the addition" true
        (Odl.Schema.mem_interface custom "Extra"))

let empty_log_on_fresh_repo () =
  with_repo (fun repo ->
      Store.save_session repo (Util.session_of (Util.university ()));
      Alcotest.(check bool) "no log.ops" false
        (Sys.file_exists (Store.log_file repo));
      match Store.load_session repo with
      | Ok s -> Alcotest.(check int) "no log" 0 (Core.Session.step_count s)
      | Error e -> Alcotest.fail (Store.load_error_to_string e))

(* --- the journal ---------------------------------------------------------- *)

let kind_tags () =
  List.iter
    (fun k ->
      Alcotest.(check bool) "tag round trips" true
        (Journal.kind_of_tag (Journal.kind_tag k) = Some k))
    [
      Core.Concept.Wagon_wheel; Core.Concept.Generalization;
      Core.Concept.Aggregation; Core.Concept.Instance_chain;
    ];
  Alcotest.(check bool) "unknown tag" true (Journal.kind_of_tag "@zz" = None)

let incremental_appends () =
  with_repo (fun repo ->
      Store.save_session repo (Util.session_of (Util.university ()));
      let journal e =
        Journal.append_raw (Store.io repo) (Store.log_file repo) (Journal.encode e)
      in
      journal
        (Journal.Op
           (Core.Concept.Wagon_wheel, Util.parse_op "add_type_definition(Lab)"));
      journal
        (Journal.Op
           (Core.Concept.Generalization,
            Util.parse_op "add_supertype(Lab, Person)"));
      journal Journal.Undo;
      let text = (Store.io repo).Io.read_file (Store.log_file repo) in
      Alcotest.(check bool) "undo journalled, not rewritten" true
        (Str_contains.contains text "@undo;");
      match Store.load_session repo with
      | Ok loaded ->
          Alcotest.(check int) "undo resolved on load" 1
            (Core.Session.step_count loaded)
      | Error e -> Alcotest.fail (Store.load_error_to_string e))

let torn_tail_selfheal () =
  with_repo (fun repo ->
      let s = Util.session_of (Util.university ()) in
      let s, _ = Util.apply_ok s "add_type_definition(Lab)" in
      Store.save_session repo s;
      (* a crash mid-append leaves an unterminated fragment *)
      (Store.io repo).Io.append (Store.log_file repo) "@gh add_supertype(La";
      (match Store.load_session repo with
      | Ok loaded ->
          Alcotest.(check int) "torn record dropped" 1
            (Core.Session.step_count loaded)
      | Error e -> Alcotest.fail (Store.load_error_to_string e));
      (* ... and loading repaired the file for the next appender *)
      match Journal.read (Store.io repo) (Store.log_file repo) with
      | { Journal.damage = None; entries } ->
          Alcotest.(check int) "journal repaired in place" 1 (List.length entries)
      | { damage = Some d; _ } ->
          Alcotest.failf "journal not repaired: %s" (Journal.damage_to_string d))

let interior_corruption_and_fsck () =
  with_repo (fun repo ->
      let s = Util.session_of (Util.university ()) in
      let s =
        Util.apply_many s
          [ "add_type_definition(Lab)"; "add_type_definition(Annex)" ]
      in
      Store.save_session repo s;
      let io = Store.io repo in
      let log = io.Io.read_file (Store.log_file repo) in
      (match String.index_opt log '\n' with
      | None -> Alcotest.fail "expected two records"
      | Some i ->
          io.Io.write (Store.log_file repo)
            (String.sub log 0 (i + 1)
            ^ "frobnicate the journal\n"
            ^ String.sub log (i + 1) (String.length log - i - 1)));
      (match Store.load_session repo with
      | Ok _ -> Alcotest.fail "interior corruption must not load"
      | Error (Store.Damaged { file; _ }) ->
          Alcotest.(check string) "names the journal" "log.ops" file
      | Error e ->
          Alcotest.failf "unexpected error: %s" (Store.load_error_to_string e));
      let report = Store.fsck repo in
      Alcotest.(check bool) "fsck reports the journal" true
        (List.exists
           (fun m -> Str_contains.contains m "log.ops")
           report.Store.fsck_issues);
      let report = Store.fsck ~salvage:true repo in
      (match report.Store.fsck_session with
      | Some s ->
          Alcotest.(check int) "valid prefix kept" 1 (Core.Session.step_count s)
      | None -> Alcotest.fail "salvage should recover a session");
      match Store.load_session repo with
      | Ok loaded ->
          Alcotest.(check int) "clean after salvage" 1
            (Core.Session.step_count loaded)
      | Error e ->
          Alcotest.failf "still damaged after salvage: %s"
            (Store.load_error_to_string e))

let fsck_clean () =
  with_repo (fun repo ->
      Store.save_session repo (Util.session_of (Util.university ()));
      let report = Store.fsck repo in
      Alcotest.(check (list string)) "no issues" [] report.Store.fsck_issues)

(* The checkpoint is derived: missing, damaged or stale, fsck reports it
   as such, the session stays recoverable (salvage exits 1, never 2), and
   salvage regenerates it.  Reports are not checked at all. *)
let fsck_checkpoint () =
  let damage_with f =
    with_repo (fun repo ->
        let s =
          Util.apply_many (Util.session_of (Util.university ()))
            [ "add_type_definition(Lab)"; "add_type_definition(Annex)" ]
        in
        Store.save_session repo s;
        f repo;
        let report = Store.fsck repo in
        let flagged =
          List.filter
            (fun m -> Str_contains.contains m "checkpoint.odl")
            report.Store.fsck_issues
        in
        Alcotest.(check int) "one checkpoint issue" 1 (List.length flagged);
        Alcotest.(check bool) "reported as derived" true
          (Str_contains.contains (List.hd flagged) "derived; regenerated by salvage");
        Alcotest.(check bool) "still recoverable" true
          (Option.is_some report.Store.fsck_session);
        Alcotest.(check bool) "nothing recovery needs is damaged" true
          report.Store.fsck_derived_only;
        let report = Store.fsck ~salvage:true repo in
        Alcotest.(check bool) "salvage recovers the session" true
          (Option.is_some report.Store.fsck_session);
        Alcotest.(check (list string)) "clean after salvage" []
          (Store.fsck repo).Store.fsck_issues;
        match Store.load_session repo with
        | Ok loaded ->
            Alcotest.(check bool) "reload is the journal's replay" true
              (same_as_full_replay repo loaded)
        | Error e -> Alcotest.fail (Store.load_error_to_string e))
  in
  let io repo = Store.io repo and path repo = Store.checkpoint_file repo in
  (* missing *)
  damage_with (fun repo -> (io repo).Io.remove (path repo));
  (* damaged: the body no longer matches its digest *)
  damage_with (fun repo -> (io repo).Io.append (path repo) "interface Junk {};\n");
  (* damaged: the header is gone *)
  damage_with (fun repo -> (io repo).Io.write (path repo) "schema s { };\n");
  (* stale: a later snapshot rewrote the journal (the last op undone and
     another applied) and crashed before replacing the checkpoint *)
  damage_with (fun repo ->
      Journal.rewrite (Store.io repo) (Store.log_file repo)
        (List.map
           (fun text -> Journal.Op (Core.Concept.Wagon_wheel, Util.parse_op text))
           [ "add_type_definition(Lab)"; "add_type_definition(Wing)" ]))

let fsck_ignores_reports () =
  with_repo (fun repo ->
      let s = Util.session_of (Util.university ()) in
      Store.save_session repo s;
      Alcotest.(check (list string)) "no reports, no issue" []
        (Store.fsck repo).Store.fsck_issues;
      Store.save_reports repo s;
      Sys.remove (Filename.concat (Store.reports_dir repo) "mapping.txt");
      Alcotest.(check (list string)) "a missing report is no issue" []
        (Store.fsck repo).Store.fsck_issues)

let missing_shrinkwrap () =
  with_repo (fun repo ->
      Journal.append_raw (Store.io repo) (Store.log_file repo)
        (Journal.encode
           (Journal.Op
              (Core.Concept.Wagon_wheel, Util.parse_op "add_type_definition(Lab)")));
      (match Store.load_session repo with
      | Error (Store.Damaged { file; _ }) ->
          Alcotest.(check string) "names the schema" "shrinkwrap.odl" file
      | Ok _ -> Alcotest.fail "no shrink wrap schema, must not load"
      | Error e ->
          Alcotest.failf "unexpected: %s" (Store.load_error_to_string e));
      let report = Store.fsck repo in
      Alcotest.(check bool) "unrecoverable" true
        (Option.is_none report.Store.fsck_session))

let manifest_generations () =
  with_repo (fun repo ->
      let s = Util.session_of (Util.university ()) in
      Store.save_session repo s;
      (match Store.load_manifest repo with
      | Some m -> Alcotest.(check int) "first generation" 1 m.Store.m_generation
      | None -> Alcotest.fail "manifest missing");
      let s, _ = Util.apply_ok s "add_type_definition(Lab)" in
      Store.save_session repo s;
      match Store.load_manifest repo with
      | Some m ->
          Alcotest.(check int) "generation bumped" 2 m.Store.m_generation;
          Alcotest.(check int) "ops watermark" 1 m.Store.m_ops
      | None -> Alcotest.fail "manifest missing")

(* The manifest's watermark is the journal length its save wrote.  An
   [@undo;] journalled after a snapshot resolves to fewer ops than were
   saved, yet loses nothing; a journal cut below the saved length lost a
   tail.  A manifest from before the byte watermark keeps the op-count
   check. *)
let fsck_undo_after_snapshot () =
  with_repo (fun repo ->
      let s = Util.session_of (Util.university ()) in
      let s, _ = Util.apply_ok s "add_type_definition(Lab)" in
      let w = ok_or_fail (Store.writer (Store.dir repo) s) in
      ok_or_fail (Store.append w (Option.get (Core.Session.undo s)));
      Alcotest.(check (list string)) "an undo after a snapshot is clean" []
        (Store.fsck repo).Store.fsck_issues;
      let io = Store.io repo in
      io.Io.write (Store.log_file repo) "";
      let lost report =
        List.exists
          (fun m -> Str_contains.contains m "a saved tail was lost")
          report.Store.fsck_issues
        && not report.Store.fsck_derived_only
      in
      Alcotest.(check bool) "a cut journal lost a tail" true
        (lost (Store.fsck repo));
      let manifest = io.Io.read_file (Store.manifest_file repo) in
      io.Io.write (Store.manifest_file repo)
        (String.concat "\n"
           (List.filter
              (fun l -> not (String.starts_with ~prefix:"bytes " l))
              (String.split_on_char '\n' manifest)));
      Alcotest.(check bool) "an old manifest counts ops" true
        (lost (Store.fsck repo)))

(* fsck judges the checkpoint with the open's own reader, against the
   state the walk reached at the end of the prefix it covers. *)
let fsck_checkpoint_derived what damage =
  with_repo (fun repo ->
      let s =
        Util.apply_many (Util.session_of (Util.university ()))
          [ "add_type_definition(Lab)"; "add_type_definition(Annex)" ]
      in
      Store.save_session repo s;
      damage repo s;
      let report = Store.fsck repo in
      Alcotest.(check (list string)) what
        [ "checkpoint.odl: " ^ what ^ " (derived; regenerated by salvage)" ]
        report.Store.fsck_issues;
      Alcotest.(check bool) "nothing recovery needs is damaged" true
        report.Store.fsck_derived_only;
      ignore (Store.fsck ~salvage:true repo);
      Alcotest.(check (list string)) "clean after salvage" []
        (Store.fsck repo).Store.fsck_issues)

(* The checkpoint body replaced, its digest recomputed. *)
let rewrite_body repo body =
  let io = Store.io repo and path = Store.checkpoint_file repo in
  let text = io.Io.read_file path in
  let header = String.sub text 0 (String.index text '\n' - 32) in
  io.Io.write path (header ^ Digest.to_hex (Digest.string body) ^ "\n" ^ body)

(* A forged checkpoint — a valid workspace, but not the journal's — after
   an [@undo;] that pops into the prefix it covers: the open replays the
   journal, and fsck still compares the body with the prefix's state. *)
let fsck_forged_checkpoint_after_undo () =
  fsck_checkpoint_derived "differs from the replayed log prefix"
    (fun repo s ->
      Journal.append_raw (Store.io repo) (Store.log_file repo)
        (Journal.encode Journal.Undo);
      rewrite_body repo
        (Odl.Printer.schema_to_string
           (Core.Session.workspace
              (Util.apply_many s [ "add_type_definition(Forged)" ]))))

(* A body that parses to the right workspace but is not laid out in the
   printer's chunks cannot serve the open, so fsck reports it. *)
let fsck_checkpoint_not_in_chunks () =
  fsck_checkpoint_derived "a chunk is not laid out as the printer lays it out"
    (fun repo s ->
      match
        Odl.Printer.split_chunks
          (Odl.Printer.schema_to_string (Core.Session.workspace s))
      with
      | Some (name, (_, c) :: rest) ->
          rewrite_body repo
            (Odl.Printer.schema_of_chunks name ((c ^ " ") :: List.map snd rest))
      | _ -> Alcotest.fail "the printer lays a workspace out in chunks")

(* A run the shrink wrap cannot resolve (here past its end) cannot serve
   the open, which replays the journal instead; fsck reports it. *)
let fsck_checkpoint_unresolved_run () =
  fsck_checkpoint_derived "a reference the shrink wrap cannot resolve"
    (fun repo _ ->
      rewrite_body repo "schema University {\n  // shrinkwrap 0 999\n};\n";
      match Store.load_session repo with
      | Ok s ->
          Alcotest.(check bool) "the open replays the journal" true
            (same_as_full_replay repo s)
      | Error e -> Alcotest.fail (Store.load_error_to_string e))

let stale_tmp_swept () =
  with_repo (fun repo ->
      Store.save_session repo (Util.session_of (Util.university ()));
      let stale = Store.custom_file repo ^ Io.tmp_suffix in
      (Store.io repo).Io.write stale "half a write";
      let report = Store.fsck repo in
      Alcotest.(check bool) "tmp reported" true
        (List.exists
           (fun m -> Str_contains.contains m Io.tmp_suffix)
           report.Store.fsck_issues);
      ignore (Store.fsck ~salvage:true repo);
      Alcotest.(check bool) "tmp swept" false (Sys.file_exists stale))

(* The in-memory filesystem's crash model, file by file: what an fsync
   made durable survives; of the rest, power loss keeps nothing, a torn
   prefix (of an extension: the durable bytes and half the rest; of a
   rewrite: half the new bytes) or all of it, by [flush mod 3].  Appends
   after an fsync, a rename of a written file and an unsynced rewrite
   each keep that rule. *)
let mem_crash_model () =
  let after flush =
    let m = Io.mem_create () in
    let io = Io.mem_io m in
    io.Io.write "/j" "aa";
    io.Io.fsync "/j";
    io.Io.append "/j" "bb";
    io.Io.append "/j" "cc";
    io.Io.write "/t" "xyz";
    io.Io.fsync "/t";
    io.Io.rename "/t" "/r";
    io.Io.write "/r" "new";
    io.Io.append "/n" "unsynced";
    Io.mem_crash ~flush m;
    let read p = if io.Io.file_exists p then Some (io.Io.read_file p) else None in
    (read "/j", read "/r", read "/n", read "/t")
  in
  let files = Alcotest.(testable (fun ppf (a, b, c, d) ->
      let s = function Some s -> s | None -> "-" in
      Fmt.pf ppf "%s %s %s %s" (s a) (s b) (s c) (s d)) ( = )) in
  Alcotest.check files "nothing pending survives" (Some "aa", Some "xyz", None, None) (after 0);
  Alcotest.check files "a torn prefix survives"
    (Some "aabb", Some "n", Some "unsy", None) (after 1);
  Alcotest.check files "everything survives"
    (Some "aabbcc", Some "new", Some "unsynced", None) (after 2);
  (* the survivors are durable: a second crash changes nothing *)
  let m = Io.mem_create () in
  let io = Io.mem_io m in
  io.Io.append "/j" "abc";
  Io.mem_crash ~flush:2 m;
  io.Io.append "/j" "def";
  Io.mem_crash ~flush:0 m;
  Alcotest.(check string) "crash survivors are synced" "abc" (io.Io.read_file "/j")

let mkdir_p_nested () =
  let base = tmp_dir () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists base then rm_rf base)
    (fun () ->
      let deep =
        Filename.concat (Filename.concat (Filename.concat base "a") "b") "c"
      in
      Io.mkdir_p Io.unix deep;
      Alcotest.(check bool) "created" true (Sys.is_directory deep);
      (* idempotent: EEXIST is success *)
      Io.mkdir_p Io.unix deep;
      Alcotest.(check bool) "still there" true (Sys.is_directory deep))

let check_reloads store st =
  match Store.load_session store with
  | Ok loaded ->
      let s = st.Designer.Engine.session in
      Alcotest.(check int) "journal tracks the designer"
        (Core.Session.step_count s)
        (Core.Session.step_count loaded);
      Alcotest.check Util.schema_testable "workspace restored"
        (Core.Session.workspace s)
        (Core.Session.workspace loaded)
  | Error e -> Alcotest.fail (Store.load_error_to_string e)

let step w st line = Designer.Engine.exec_line ~writer:w st line

(* The repl's durable loop: [Engine.exec_line] through a [Store.writer] on
   [dir], the journal reloaded after every line. *)
let repl_from ?io dir session lines =
  let w = ok_or_fail (Store.writer ?io dir session) in
  let st =
    List.fold_left
      (fun st line ->
        let st, _ = step w st line in
        check_reloads (Store.open_dir ?io dir) st;
        st)
      (Designer.Engine.start session)
      lines
  in
  (w, st)

let engine_persists_incrementally () =
  with_repo (fun repo ->
      let script = Filename.temp_file "swsd_source" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove script)
        (fun () ->
          Out_channel.with_open_text script (fun oc ->
              Out_channel.output_string oc
                "apply add_attribute(Person, string, 12, fax)\n\
                 undo\n\
                 undo\n\
                 redo\n\
                 apply add_attribute(Person, string, 12, pager)\n\
                 undo\n");
          ignore
            (repl_from (Store.dir repo)
               (Util.session_of (Util.university ()))
               [
                 "focus ww:Person";
                 "apply add_attribute(Person, string, 12, phone)";
                 "undo";
                 "redo";
                 "apply add_attribute(Person, string, 12, email)";
                 "source " ^ script;
                 "redo";
               ])))

(* An in-memory filesystem whose appends and writes fail while [full] is
   set. *)
let filling_io () =
  let io = Io.mem_io (Io.mem_create ()) in
  let full = ref false in
  let fill op path data =
    if !full then raise (Sys_error (path ^ ": No space left on device"))
    else op path data
  in
  ({ io with Io.append = fill io.Io.append; write = fill io.Io.write }, full)

let persistence_failed fb =
  List.exists
    (fun f ->
      Str_contains.contains (Designer.Feedback.to_string f) "persistence failed")
    fb

(* One failed append, then a successful one: the failed command's records
   ride on the next append, so the reloaded repository is the workspace
   the designer had, not one missing the failed command's op. *)
let engine_journal_survives_failed_append () =
  let io, full = filling_io () in
  let session = Util.session_of (Util.university ()) in
  let w, st = repl_from ~io "/repo" session [ "focus ww:Person" ] in
  full := true;
  let st, fb = step w st "apply add_attribute(Person, string, 12, phone)" in
  full := false;
  Alcotest.(check bool) "the failure is reported" true (persistence_failed fb);
  (match Store.load_session (Store.open_dir ~io "/repo") with
  | Ok s ->
      Alcotest.(check int) "the failed append journalled nothing" 0
        (Core.Session.step_count s)
  | Error e -> Alcotest.fail (Store.load_error_to_string e));
  let st, fb = step w st "apply add_attribute(Person, string, 12, email)" in
  Alcotest.(check bool) "the next append succeeds" false
    (persistence_failed fb);
  Alcotest.(check int) "both ops live" 2
    (Core.Session.step_count st.Designer.Engine.session);
  check_reloads (Store.open_dir ~io "/repo") st

(* The exit after a failed append: the journal lacks the last command's
   records, so [close] is the full save, and the store fscks clean. *)
let writer_close_after_failed_append () =
  let io, full = filling_io () in
  let session = Util.session_of (Util.university ()) in
  let w, st =
    repl_from ~io "/repo" session
      [ "focus ww:Person"; "apply add_attribute(Person, string, 12, phone)" ]
  in
  full := true;
  let st, _ = step w st "apply add_attribute(Person, string, 12, email)" in
  full := false;
  ok_or_fail (Store.close w st.Designer.Engine.session);
  let store = Store.open_dir ~io "/repo" in
  check_reloads store st;
  Alcotest.(check (list string)) "fsck clean" []
    (Store.fsck store).Store.fsck_issues

(* A failed [save] into the writer's own directory after a failed append:
   the save may have stopped anywhere, so the journal's state is unknown
   and the exit is the full save, not a checkpoint over a journal that
   lacks the failed append's records. *)
let writer_close_after_failed_self_save () =
  let io, full = filling_io () in
  let session = Util.session_of (Util.university ()) in
  let w, st =
    repl_from ~io "/repo" session
      [ "focus ww:Person"; "apply add_attribute(Person, string, 12, phone)" ]
  in
  full := true;
  let st, fb = step w st "apply add_attribute(Person, string, 12, email)" in
  Alcotest.(check bool) "the append failed" true (persistence_failed fb);
  let st, fb = step w st "save /repo" in
  Alcotest.(check bool) "the save failed" true
    (List.exists
       (fun f ->
         Str_contains.contains (Designer.Feedback.to_string f) "could not save")
       fb);
  full := false;
  let st, _ = step w st "quit" in
  ok_or_fail (Store.close w st.Designer.Engine.session);
  (match Repo.fsck_dir ~io ~salvage:false "/repo" with
  | Ok (code, lines) ->
      Alcotest.(check int)
        ("fsck class: " ^ String.concat "; " lines)
        0 code
  | Error m -> Alcotest.fail m);
  check_reloads (Store.open_dir ~io "/repo") st

(* A [save] into the writer's own directory from a [source]d script:
   the writer sees it, so the script's later lines are appended once, not
   the whole script again over the journal the save wrote. *)
let writer_sourced_self_save () =
  with_repo (fun repo ->
      let dir = Store.dir repo in
      let script = Filename.temp_file "swsd_source" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove script)
        (fun () ->
          Out_channel.with_open_text script (fun oc ->
              Out_channel.output_string oc
                ("apply add_attribute(Person, string, 12, fax)\nsave " ^ dir
               ^ "\napply add_attribute(Person, string, 12, pager)\n"));
          let w, st =
            repl_from dir
              (Util.session_of (Util.university ()))
              [ "focus ww:Person"; "source " ^ script ]
          in
          ok_or_fail (Store.close w st.Designer.Engine.session);
          match Repo.fsck_dir ~salvage:false dir with
          | Ok (code, lines) ->
              Alcotest.(check int)
                ("fsck class: " ^ String.concat "; " lines)
                0 code
          | Error m -> Alcotest.fail m))

(* The exit after clean appends is the checkpoint: the journal already
   holds the session, so [log.ops] is not written, and the fsyncs are the
   checkpoint's and the manifest's, then the five deliverables'
   ([custom.odl] and the four reports, through [save_reports]). *)
let writer_close_checkpoints () =
  let mem = Io.mem_io (Io.mem_create ()) in
  let counting, fsyncs = Io.counting mem in
  let journal_writes = ref 0 in
  let note p = if Filename.basename p = "log.ops" then incr journal_writes in
  let io =
    {
      mem with
      (* only fsync goes through [counting], so it counts fsyncs alone *)
      Io.fsync = counting.Io.fsync;
      write = (fun p c -> note p; mem.Io.write p c);
      append = (fun p c -> note p; mem.Io.append p c);
      rename = (fun a b -> note b; mem.Io.rename a b);
    }
  in
  let w, st =
    repl_from ~io "/repo"
      (Util.session_of (Util.university ()))
      [
        "focus ww:Person";
        "apply add_attribute(Person, string, 12, phone)";
        "undo";
        "apply add_attribute(Person, string, 12, email)";
      ]
  in
  let appended = !journal_writes and synced = fsyncs () in
  Alcotest.(check int) "one append per changing command" 3 appended;
  ok_or_fail (Store.close w st.Designer.Engine.session);
  Alcotest.(check int) "close does not write log.ops" appended !journal_writes;
  Alcotest.(check int) "close fsyncs" 7 (fsyncs () - synced);
  check_reloads (Store.open_dir ~io "/repo") st

(* Open and close report a failing filesystem as [Error]: no exception
   reaches the repl. *)
let writer_errors_are_results () =
  let session = Util.session_of (Util.university ()) in
  let mem = Io.mem_io (Io.mem_create ()) in
  let broken = ref true in
  let io =
    {
      mem with
      Io.write =
        (fun p c ->
          if !broken then raise (Sys_error (p ^ ": Input/output error"))
          else mem.Io.write p c);
    }
  in
  Alcotest.(check bool) "open" true
    (Result.is_error (Store.writer ~io "/repo" session));
  let file = Filename.temp_file "swsd_writer" "" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Alcotest.(check bool) "open under a file" true
        (Result.is_error (Store.writer (Filename.concat file "sub") session)));
  broken := false;
  let w = ok_or_fail (Store.writer ~io "/repo" session) in
  broken := true;
  Alcotest.(check bool) "close" true (Result.is_error (Store.close w session))

(* Crash the repl at every effectful syscall of open, appends and close,
   and lose whatever was not fsync'd: the reload is a session the
   designer passed through, and fsck --salvage classifies the store 0 or
   1, then 0.  Before the open's shrink wrap lands there is no
   repository to reload. *)
let writer_crash_sweep () =
  let lines =
    [
      "focus ww:Person";
      "apply add_attribute(Person, string, 12, phone)";
      "apply add_attribute(Person, string, 20, fax)";
      "undo";
      "apply add_attribute(Person, string, 30, email)";
    ]
  in
  let session = Util.session_of (Util.university ()) in
  let timeline =
    List.fold_left
      (fun (st, states) line ->
        let st, _ = Designer.Engine.exec_line st line in
        (st, steps st.Designer.Engine.session :: states))
      (Designer.Engine.start session, [ [] ])
      lines
    |> snd
  in
  let run io =
    let w = ok_or_fail (Store.writer ~io "/repo" session) in
    let st =
      List.fold_left
        (fun st l -> fst (step w st l))
        (Designer.Engine.start session)
        lines
    in
    ok_or_fail (Store.close w st.Designer.Engine.session)
  in
  let counted, total = Io.counting (Io.mem_io (Io.mem_create ())) in
  run counted;
  let reloaded = ref 0 in
  for k = 0 to total () - 1 do
    let mem = Io.mem_create () in
    let io = Io.mem_io mem in
    (try run (fst (Io.faulty ~crash_at:k io)) with Io.Crash -> ());
    Io.mem_crash ~flush:k mem;
    if io.Io.file_exists "/repo/shrinkwrap.odl" then begin
      (match open_differs_from_fsck (Store.open_dir ~io "/repo") with
      | Some what ->
          Alcotest.failf "crash at syscall %d: fsck's session differs: %s" k
            what
      | None -> ());
      (match Store.load_session (Store.open_dir ~io "/repo") with
      | Error e ->
          Alcotest.failf "crash at syscall %d: %s" k
            (Store.load_error_to_string e)
      | Ok s ->
          if not (List.exists (steps_equal (steps s)) timeline) then
            Alcotest.failf
              "crash at syscall %d: %d step(s), not a state the designer \
               passed through"
              k (Core.Session.step_count s));
      let fsck ~salvage =
        fst (ok_or_fail (Repository.Repo.fsck_dir ~io ~salvage "/repo"))
      in
      let salvaged = fsck ~salvage:true in
      if salvaged > 1 then
        Alcotest.failf "crash at syscall %d: fsck --salvage exits %d" k
          salvaged;
      Alcotest.(check int)
        (Printf.sprintf "crash at syscall %d: clean after salvage" k)
        0 (fsck ~salvage:false);
      incr reloaded
    end
  done;
  (* only the open's first few syscalls precede the shrink wrap *)
  Alcotest.(check bool) "most crash points leave a repository" true
    (!reloaded > total () - 8)

(* --- round-trip properties (pathological names included) ------------------ *)

let log_roundtrip_prop =
  prop "op log round trips (pathological names included)"
    QCheck2.Gen.(list_size (int_range 0 8) (pair Gen.concept_kind Gen.roundtrip_op))
    (fun steps -> steps_equal steps (Store.log_of_string (Store.log_to_string steps)))

let entry_gen =
  QCheck2.Gen.(
    frequency
      [
        (4, map (fun (k, o) -> Journal.Op (k, o)) (pair Gen.concept_kind Gen.roundtrip_op));
        (1, return Journal.Undo);
      ])

let journal_entry_roundtrip =
  prop "journal entries round trip (undo records included)"
    QCheck2.Gen.(list_size (int_range 0 8) entry_gen)
    (fun entries ->
      let p = Journal.parse (Journal.to_string entries) in
      p.Journal.damage = None && List.equal entry_equal entries p.Journal.entries)

(* Cutting the journal anywhere — the on-disk state after a torn write —
   recovers a clean prefix of the entries: a cut at a record boundary loses
   nothing, a cut inside the last record is reported as a torn tail and
   yields at most that record beyond the terminated prefix. *)
let journal_torn_prefix =
  prop "any journal prefix recovers a clean prefix of entries"
    QCheck2.Gen.(pair (list_size (int_range 1 6) entry_gen) nat)
    (fun (entries, n) ->
      let full = Journal.to_string entries in
      let cut = n mod (String.length full + 1) in
      let text = String.sub full 0 cut in
      let terminated =
        String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 text
      in
      let p = Journal.parse text in
      let m = List.length p.Journal.entries in
      let boundary = cut = 0 || text.[cut - 1] = '\n' in
      (m = terminated || ((not boundary) && m = terminated + 1))
      && List.for_all2 entry_equal (take m entries) p.Journal.entries
      &&
      if boundary then p.Journal.damage = None
      else
        match p.Journal.damage with
        | Some (Journal.Torn_tail _) -> true
        | _ -> false)

(* --- fault injection: crash at every syscall ------------------------------ *)

type action =
  | A_op of Core.Concept.kind * Core.Modop.t  (** apply + journal if accepted *)
  | A_undo  (** undo + journal if possible *)
  | A_snapshot  (** [save_session]: the full save, checkpoint included *)
  | A_checkpoint
      (** [save_checkpoint]: the service's snapshot, over the journal as
          it stands *)

let action_to_string = function
  | A_op (k, o) -> Journal.entry_to_line (Journal.Op (k, o))
  | A_undo -> "@undo;"
  | A_snapshot -> "(snapshot)"
  | A_checkpoint -> "(checkpoint)"

let schedule_print actions =
  String.concat "  " (List.map action_to_string actions)

(* Run a schedule the way the designer does: accepted operations are
   journalled one record at a time, snapshots are whole saves.  Returns the
   resolved step list after each durable record, newest first. *)
let run_actions store session actions =
  List.fold_left
    (fun (session, states) action ->
      match action with
      | A_op (kind, op) -> (
          match Core.Session.apply session ~kind op with
          | Ok (s, _) ->
              Journal.append_raw (Store.io store) (Store.log_file store)
                (Journal.encode (Journal.Op (kind, op)));
              (s, steps s :: states)
          | Error _ -> (session, states))
      | A_undo -> (
          match Core.Session.undo session with
          | Some s ->
              Journal.append_raw (Store.io store) (Store.log_file store)
                (Journal.encode Journal.Undo);
              (s, steps s :: states)
          | None -> (session, states))
      | A_snapshot ->
          Store.save_session store session;
          (session, states)
      | A_checkpoint ->
          Store.save_checkpoint store session;
          (session, states))
    (session, []) actions

(* Crash the writer at effectful syscall [k] of [actions] (the setup save is
   not faulted), let the write-back cache lose or tear whatever was not yet
   fsync'd, and demand that the repository reloads onto a durable state of
   the schedule with a clean journal. *)
let mem_sweep actions =
  let fresh () =
    let mem = Io.mem_create () in
    let io = Io.mem_io mem in
    let store = Store.open_dir ~io "/repo" in
    Store.save_session store (Util.session_of (Util.university ()));
    (mem, io)
  in
  let _, io = fresh () in
  let counted, total = Io.counting io in
  let _, states =
    run_actions
      (Store.open_dir ~io:counted "/repo")
      (Util.session_of (Util.university ()))
      actions
  in
  (* run to completion, the schedule leaves nothing for fsck to report,
     and the open — from a checkpoint the records after it extend, when
     the schedule ends so — is the full replay *)
  (let store = Store.open_dir ~io "/repo" in
   (match (Store.fsck store).Store.fsck_issues with
   | [] -> ()
   | issues ->
       QCheck2.Test.fail_reportf "uncrashed run: fsck reports %s"
         (String.concat "; " issues));
   match Store.load_session store with
   | Ok s when same_as_full_replay store s -> ()
   | Ok _ -> QCheck2.Test.fail_report "uncrashed run: reload differs from a full replay"
   | Error e ->
       QCheck2.Test.fail_reportf "uncrashed run: %s" (Store.load_error_to_string e));
  let timeline = [] :: List.rev states in
  for k = 0 to total () - 1 do
    let mem, io = fresh () in
    let faulty_io, _ = Io.faulty ~crash_at:k io in
    (try
       ignore
         (run_actions
            (Store.open_dir ~io:faulty_io "/repo")
            (Util.session_of (Util.university ()))
            actions)
     with Io.Crash -> ());
    (* power loss: un-fsync'd data survives in full, torn, or not at all *)
    Io.mem_crash ~flush:k mem;
    let store = Store.open_dir ~io "/repo" in
    (match open_differs_from_fsck store with
    | Some what ->
        QCheck2.Test.fail_reportf "crash at syscall %d: fsck's session differs: %s"
          k what
    | None -> ());
    (match Store.load_session store with
    | Error e ->
        QCheck2.Test.fail_reportf "crash at syscall %d: repository unreadable: %s"
          k
          (Store.load_error_to_string e)
    | Ok s ->
        if not (List.exists (steps_equal (steps s)) timeline) then
          QCheck2.Test.fail_reportf
            "crash at syscall %d: recovered %d step(s), not a durable state" k
            (List.length (steps s));
        (* whichever path the load took (a checkpoint may be mid-write,
           stale or whole), it equals replaying the journal *)
        if not (same_as_full_replay store s) then
          QCheck2.Test.fail_reportf
            "crash at syscall %d: reload differs from a full replay" k);
    (match Journal.read io (Store.log_file store) with
    | { Journal.damage = None; _ } -> ()
    | { damage = Some d; _ } ->
        QCheck2.Test.fail_reportf "crash at syscall %d: journal still damaged: %s"
          k
          (Journal.damage_to_string d));
    (* fsck exits 0 (clean) or 1 (salvaged), never 2: a crash leaves at
       worst derived debris — a stale checkpoint, a temporary file *)
    match Store.fsck ~salvage:true store with
    | { Store.fsck_session = None; fsck_issues; _ } ->
        QCheck2.Test.fail_reportf "crash at syscall %d: fsck finds it unrecoverable: %s"
          k (String.concat "; " fsck_issues)
    | { fsck_session = Some _; _ } ->
        if (Store.fsck store).Store.fsck_issues <> [] then
          QCheck2.Test.fail_reportf "crash at syscall %d: not clean after salvage" k
  done;
  true

let schedule_gen =
  let open QCheck2.Gen in
  let u = Util.university () in
  list_size (int_range 1 6)
    (frequency
       [
         (6, map (fun (k, o) -> A_op (k, o)) (pair Gen.concept_kind (Gen.plausible_op u)));
         (2, return A_undo);
         (1, return A_snapshot);
         (1, return A_checkpoint);
       ])

let crash_sweep =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"crash at every syscall recovers a durable state (mem fs)"
       ~count:10 ~long_factor:50 ~print:schedule_print schedule_gen mem_sweep)

(* A fixed schedule of the sweep that opens a checkpoint with a record
   after it at every run: the generated ones need not. *)
let crash_sweep_op_checkpoint_op () =
  let ww = Core.Concept.Wagon_wheel in
  ignore
    (mem_sweep
       [ A_op (ww, Util.parse_op "add_attribute(Person, string, 8, kept)");
         A_checkpoint;
         A_op (ww, Util.parse_op "add_type_definition(Lab)") ])

(* The same harness over the real filesystem: a fixed schedule, a fresh
   directory per crash point. *)
let disk_crash_sweep () =
  let actions =
    [
      A_op (Core.Concept.Wagon_wheel, Util.parse_op "add_type_definition(Lab)");
      A_op
        (Core.Concept.Wagon_wheel,
         Util.parse_op "add_attribute(Lab, string, 40, title)");
      A_undo;
      A_snapshot;
      A_op
        (Core.Concept.Generalization, Util.parse_op "add_supertype(Lab, Person)");
    ]
  in
  let with_dir f =
    let dir = tmp_dir () in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
      (fun () -> f dir)
  in
  let setup dir =
    let store = Store.open_dir dir in
    Store.save_session store (Util.session_of (Util.university ()));
    store
  in
  let total, timeline =
    with_dir (fun dir ->
        ignore (setup dir);
        let counted, total = Io.counting Io.unix in
        let _, states =
          run_actions
            (Store.open_dir ~io:counted dir)
            (Util.session_of (Util.university ()))
            actions
        in
        (total (), [] :: List.rev states))
  in
  Alcotest.(check int) "every action lands a durable record" 5
    (List.length timeline);
  for k = 0 to total - 1 do
    with_dir (fun dir ->
        ignore (setup dir);
        let faulty_io, _ = Io.faulty ~crash_at:k Io.unix in
        (try
           ignore
             (run_actions
                (Store.open_dir ~io:faulty_io dir)
                (Util.session_of (Util.university ()))
                actions)
         with Io.Crash -> ());
        match Store.load_session (Store.open_dir dir) with
        | Error e ->
            Alcotest.failf "crash at syscall %d: %s" k
              (Store.load_error_to_string e)
        | Ok s ->
            Alcotest.(check bool)
              (Printf.sprintf "crash at syscall %d lands on the timeline" k)
              true
              (List.exists (steps_equal (steps s)) timeline))
  done

(* A checkpoint's prefix steps take their op text from the journal bytes
   it covers: cut from each record as written, unparsed, an [@undo;]
   popping the newest; no texts at all (the open then replays the whole
   journal) when the bytes are not exactly one record a line. *)
let op_texts_cut_from_records () =
  let ww = Core.Concept.Wagon_wheel and gh = Core.Concept.Generalization in
  let records = Alcotest.(option (list (pair string string))) in
  let cut text =
    Option.map
      (List.map (fun (k, t) -> (Core.Concept.kind_name k, t)))
      (Journal.op_records text)
  in
  let named = List.map (fun (k, t) -> (Core.Concept.kind_name k, t)) in
  Alcotest.(check records) "cut as written"
    (Some (named [ (ww, "add_type_definition( Lab )"); (gh, "add_supertype(Lab, Person)") ]))
    (cut "@ww add_type_definition( Lab );\n@gh add_supertype(Lab, Person);\n");
  Alcotest.(check records) "no records" (Some []) (cut "");
  let two = "@ww add_type_definition(Lab);\n@gh add_supertype(Lab, Person);\n" in
  let first = String.index two '\n' + 1 in
  Alcotest.(check records) "the first [len] bytes"
    (Some (named [ (ww, "add_type_definition(Lab)") ]))
    (Option.map
       (List.map (fun (k, t) -> (Core.Concept.kind_name k, t)))
       (Journal.op_records ~len:first two));
  Alcotest.(check bool) "a [len] inside a record" true
    (Journal.op_records ~len:(first + 3) two = None);
  Alcotest.(check records) "an undo record pops the newest"
    (Some (named [ (ww, "add_type_definition(Lab)"); (gh, "add_supertype(Lab, Person)") ]))
    (cut
       "@ww add_type_definition(Lab);\n@ww add_type_definition(Room);\n\
        @undo;\n@gh add_supertype(Lab, Person);\n");
  Alcotest.(check records) "everything undone" (Some [])
    (cut "@ww add_type_definition(Lab);\n@undo;\n");
  List.iter
    (fun (what, text) -> Alcotest.(check records) what None (cut text))
    [
      ("a comment line", "// note\n@ww add_type_definition(Lab);\n");
      ("a blank line", "\n@ww add_type_definition(Lab);\n");
      ("an undo with nothing to undo", "@ww add_type_definition(Lab);\n@undo;\n@undo;\n");
      ("an undo record with a blank", "@undo; \n");
      ("an unknown tag", "@zz add_type_definition(Lab);\n");
      ("an unterminated line", "@ww add_type_definition(Lab);");
      ("no semicolon", "@ww add_type_definition(Lab)\n");
    ]

(* --- failed calls that took effect ------------------------------------------

   A disk can report an error for a call that reached it: the records of a
   failed append may be on disk, and after a failed fsync the kernel may
   have dropped the pages.  The writer cuts the journal back to its
   durable length before it appends again, so every op lands once. *)

(* A mem fs on which, once armed, the next fsync and the next truncate of
   [log.ops] each take effect and then fail. *)
let landing_io () =
  let io = Io.mem_io (Io.mem_create ()) in
  let fsync_fails = ref false and truncate_fails = ref false in
  let once armed path =
    if !armed && Filename.basename path = "log.ops" then begin
      armed := false;
      raise (Sys_error (path ^ ": Input/output error (injected)"))
    end
  in
  ( {
      io with
      Io.fsync = (fun p -> io.Io.fsync p; once fsync_fails p);
      truncate = (fun p n -> io.Io.truncate p n; once truncate_fails p);
    },
    fsync_fails,
    truncate_fails )

(* The store at [/repo] opens to the designer's session with each of its
   ops journalled once, and fscks clean. *)
let journalled_once io st =
  check_reloads (Store.open_dir ~io "/repo") st;
  Alcotest.(check int) "each op journalled once"
    (Core.Session.step_count st.Designer.Engine.session)
    (List.length (Journal.read io "/repo/log.ops").Journal.entries);
  match Repo.fsck_dir ~io ~salvage:false "/repo" with
  | Ok (code, lines) ->
      Alcotest.(check int) ("fsck class: " ^ String.concat "; " lines) 0 code
  | Error m -> Alcotest.fail m

let repl_focused ~io =
  repl_from ~io "/repo" (Util.session_of (Util.university ())) [ "focus ww:Person" ]

(* The append of [phone] lands and its fsync fails: the next command
   restores the tail, then journals [phone] and [email], once each. *)
let writer_fsync_lands_then_fails () =
  let io, fsync_fails, _ = landing_io () in
  let w, st = repl_focused ~io in
  fsync_fails := true;
  let st, fb = step w st "apply add_attribute(Person, string, 12, phone)" in
  Alcotest.(check bool) "the failure is reported" true (persistence_failed fb);
  let st, fb = step w st "apply add_attribute(Person, string, 12, email)" in
  Alcotest.(check bool) "the next append succeeds" false (persistence_failed fb);
  journalled_once io st

(* The same, with the restoring truncate failing too: the writer falls
   back to the full save, an atomic rewrite. *)
let writer_truncate_fails_too () =
  let io, fsync_fails, truncate_fails = landing_io () in
  let w, st = repl_focused ~io in
  fsync_fails := true;
  truncate_fails := true;
  let st, _ = step w st "apply add_attribute(Person, string, 12, phone)" in
  let st, fb = step w st "apply add_attribute(Person, string, 12, email)" in
  Alcotest.(check bool) "the next append succeeds" false (persistence_failed fb);
  Alcotest.(check bool) "the truncate was tried and failed" false !truncate_fails;
  Alcotest.(check bool) "the full save wrote a checkpoint" true
    (io.Io.file_exists "/repo/checkpoint.odl");
  journalled_once io st;
  let st, fb = step w st "apply add_attribute(Person, string, 12, fax)" in
  Alcotest.(check bool) "appends go on after the rewrite" false
    (persistence_failed fb);
  ok_or_fail (Store.close w st.Designer.Engine.session);
  journalled_once io st

(* Lands-then-fails at every effectful syscall of a repl session: the
   open, the appends and the close.  Whenever the writer opened, the
   store reopens as the designer's final session, each op once; it fscks
   clean when the close succeeded; otherwise, without salvage, it fscks
   as damaged in derived artifacts only (a failed whole-file write can
   leave its temporary file), and clean after salvage. *)
let writer_lands_then_fails_sweep () =
  let lines =
    [
      "focus ww:Person";
      "apply add_attribute(Person, string, 12, phone)";
      "apply add_attribute(Person, string, 20, fax)";
      "undo";
      "apply add_attribute(Person, string, 30, email)";
    ]
  in
  let session = Util.session_of (Util.university ()) in
  let run io =
    match Store.writer ~io "/repo" session with
    | Error _ -> None
    | Ok w ->
        let st =
          List.fold_left
            (fun st l -> fst (step w st l))
            (Designer.Engine.start session)
            lines
        in
        Some (st, Store.close w st.Designer.Engine.session)
  in
  let counted, total = Io.counting (Io.mem_io (Io.mem_create ())) in
  ignore (run counted);
  let opened = ref 0 in
  for k = 0 to total () - 1 do
    let io = Io.mem_io (Io.mem_create ()) in
    match run (fst (Io.faulty ~fault:Io.Lands_then_fails ~crash_at:k io)) with
    | None -> ()
    | Some (st, closed) ->
        incr opened;
        let final = st.Designer.Engine.session in
        (match Store.load_session (Store.open_dir ~io "/repo") with
        | Error e ->
            Alcotest.failf "failure at syscall %d: %s" k
              (Store.load_error_to_string e)
        | Ok s ->
            if not (steps_equal (steps s) (steps final)) then
              Alcotest.failf
                "failure at syscall %d: reopens with %d step(s), the designer \
                 has %d"
                k (Core.Session.step_count s) (Core.Session.step_count final));
        let fsck ~salvage =
          fst (ok_or_fail (Repository.Repo.fsck_dir ~io ~salvage "/repo"))
        in
        if Result.is_ok closed then
          Alcotest.(check int)
            (Printf.sprintf "failure at syscall %d: fsck clean" k)
            0 (fsck ~salvage:false)
        else begin
          let found = fsck ~salvage:false in
          if found > 1 then
            Alcotest.failf "failure at syscall %d: fsck exits %d" k found;
          let salvaged = fsck ~salvage:true in
          if salvaged > 1 then
            Alcotest.failf "failure at syscall %d: fsck --salvage exits %d" k
              salvaged;
          Alcotest.(check int)
            (Printf.sprintf "failure at syscall %d: clean after salvage" k)
            0 (fsck ~salvage:false)
        end
  done;
  Alcotest.(check bool) "most failure points leave an open writer" true
    (!opened > total () - 8)

(* The service's writer from the recovery open, and two sessions past its
   durable one: [s1] one op further, [s2] two. *)
let service_writer io =
  let store = Store.open_dir ~io "/repo" in
  Store.save_session store (Util.session_of (Util.university ()));
  let w =
    match Store.open_writer store with
    | Ok w -> w
    | Error e -> Alcotest.fail (Store.load_error_to_string e)
  in
  let apply s name =
    match
      Core.Session.apply s ~kind:Core.Concept.Wagon_wheel
        (Util.parse_op (Printf.sprintf "add_attribute(Person, string, 8, %s)" name))
    with
    | Ok (s, _) -> s
    | Error e -> Alcotest.fail (Core.Apply.error_to_string e)
  in
  let s0 = Store.durable w in
  let s1 = apply s0 "first" in
  (store, w, s0, s1, apply s1 "second")

let delta before after =
  let _, _, data = Journal.encoded_delta ~before ~after in
  data

(* A batch queued behind one whose append failed does not extend the
   writer's durable session: it is refused — never acknowledged — and
   nothing more reaches the journal until a fresh writer opens it. *)
let writer_refuses_batch_behind_failure () =
  let mem = Io.mem_io (Io.mem_create ()) in
  let full = ref false in
  let io =
    {
      mem with
      Io.append =
        (fun p c ->
          if !full then raise (Sys_error (p ^ ": No space left on device"))
          else mem.Io.append p c);
    }
  in
  let store, w, s0, s1, s2 = service_writer io in
  full := true;
  (match Store.append_records w ~from:s0 ~upto:s1 (delta s0 s1) with
  | _ -> Alcotest.fail "the failing append must raise"
  | exception Sys_error _ -> ());
  full := false;
  let journal () = Journal.read io (Store.log_file store) in
  let before = journal () in
  (match Store.append_records w ~from:s1 ~upto:s2 (delta s1 s2) with
  | _ -> Alcotest.fail "a batch behind the failed one must be refused"
  | exception Failure _ -> ());
  Alcotest.(check int) "nothing appended after the failure"
    (List.length before.Journal.entries)
    (List.length (journal ()).Journal.entries);
  (* the reload is a fresh writer, which appends again *)
  let w' =
    match Store.open_writer store with
    | Ok w -> w
    | Error e -> Alcotest.fail (Store.load_error_to_string e)
  in
  let r0 = Store.durable w' in
  Alcotest.(check int) "the reload holds no failed op" 0
    (Core.Session.step_count r0);
  let r1 = Result.get_ok (Result.map fst (Core.Session.apply r0
    ~kind:Core.Concept.Wagon_wheel
    (Util.parse_op "add_attribute(Person, string, 8, third)"))) in
  ignore (Store.append_records w' ~from:r0 ~upto:r1 (delta r0 r1) : bool);
  match Store.load_session store with
  | Ok s -> Alcotest.(check int) "the fresh writer's op" 1 (Core.Session.step_count s)
  | Error e -> Alcotest.fail (Store.load_error_to_string e)

(* An empty batch on an exact tail (a state change with no records, queued
   behind a busy lane) makes no syscall. *)
let writer_empty_batch_is_no_io () =
  let counted, calls = Io.counting (Io.mem_io (Io.mem_create ())) in
  let _, w, s0, _, _ = service_writer counted in
  let before = calls () in
  Alcotest.(check bool) "not rewritten" false
    (Store.append_records w ~from:s0 ~upto:s0 "");
  Alcotest.(check int) "no syscall" before (calls ())

(* The exit checkpoint's temporary file lands and then its write fails:
   the close fails and leaves [checkpoint.odl.tmp], which recovery never
   reads, so fsck finds derived damage only (class 1) and salvage sweeps
   it. *)
let stale_tmp_is_derived () =
  let mem = Io.mem_io (Io.mem_create ()) in
  let armed = ref false in
  let io =
    {
      mem with
      Io.write =
        (fun p c ->
          mem.Io.write p c;
          if !armed && Filename.basename p = "checkpoint.odl" ^ Io.tmp_suffix
          then begin
            armed := false;
            raise (Sys_error (p ^ ": Input/output error (injected)"))
          end);
    }
  in
  let w, st = repl_focused ~io in
  let st, _ = step w st "apply add_attribute(Person, string, 12, phone)" in
  armed := true;
  Alcotest.(check bool) "the close fails" true
    (Result.is_error (Store.close w st.Designer.Engine.session));
  Alcotest.(check bool) "the temporary file is left" true
    (mem.Io.file_exists ("/repo/checkpoint.odl" ^ Io.tmp_suffix));
  check_reloads (Store.open_dir ~io "/repo") st;
  let fsck ~salvage = ok_or_fail (Repo.fsck_dir ~io ~salvage "/repo") in
  let code, lines = fsck ~salvage:false in
  Alcotest.(check int) ("fsck class: " ^ String.concat "; " lines) 1 code;
  Alcotest.(check bool) "reported as derived" true
    (List.exists (fun l -> Str_contains.contains l "derived; removed by salvage") lines);
  Alcotest.(check int) "salvaged" 1 (fst (fsck ~salvage:true));
  Alcotest.(check int) "clean after salvage" 0 (fst (fsck ~salvage:false))

let tests =
  [
    test "schema round trip" schema_roundtrip;
    test "log round trip" log_roundtrip;
    test "log comments and blanks" log_comments_and_blanks;
    test "checkpoint op texts are cut from the journal records"
      op_texts_cut_from_records;
    test "bad logs rejected" bad_logs;
    test "session round trip" session_roundtrip;
    test "reports written" reports_written;
    test "custom schema written and parsable" custom_written_and_parsable;
    test "empty log on fresh repo" empty_log_on_fresh_repo;
    test "concept tags round trip" kind_tags;
    test "incremental appends and journalled undo" incremental_appends;
    test "torn journal tail self-heals" torn_tail_selfheal;
    test "interior corruption detected and salvaged" interior_corruption_and_fsck;
    test "fsck on a clean repository" fsck_clean;
    test "fsck: the checkpoint is derived, checked and regenerated" fsck_checkpoint;
    test "fsck: reports are not checked" fsck_ignores_reports;
    test "missing shrink wrap schema" missing_shrinkwrap;
    test "manifest generations" manifest_generations;
    test "stale temporary files swept" stale_tmp_swept;
    test "fsck: an undo after a snapshot loses nothing"
      fsck_undo_after_snapshot;
    test "fsck: a forged checkpoint after an undo into it is derived"
      fsck_forged_checkpoint_after_undo;
    test "fsck: a checkpoint not laid out in chunks is derived"
      fsck_checkpoint_not_in_chunks;
    test "mkdir_p nests and tolerates EEXIST" mkdir_p_nested;
    test "in-memory fs: the crash model keeps synced bytes, tears the rest"
      mem_crash_model;
    test "designer persists incrementally" engine_persists_incrementally;
    test "designer journal survives a failed append"
      engine_journal_survives_failed_append;
    log_roundtrip_prop;
    journal_entry_roundtrip;
    journal_torn_prefix;
    crash_sweep;
    test "crash at every syscall recovers (real fs)" disk_crash_sweep;
    test "writer: close after a failed append is a full save"
      writer_close_after_failed_append;
    test "writer: close after a failed save into its own directory is a full save"
      writer_close_after_failed_self_save;
    test "writer: a save in a sourced script is journalled once"
      writer_sourced_self_save;
    test "writer: close after clean appends only checkpoints"
      writer_close_checkpoints;
    test "writer: a failing open or close is an Error"
      writer_errors_are_results;
    test "writer: crash at every syscall of open, appends and close"
      writer_crash_sweep;
    test "fsck: a run the shrink wrap cannot resolve is derived"
      fsck_checkpoint_unresolved_run;
    test "crash at every syscall of op, (checkpoint), op recovers (mem fs)"
      crash_sweep_op_checkpoint_op;
    test "writer: an fsync that lands and fails journals the op once"
      writer_fsync_lands_then_fails;
    test "writer: when the restoring truncate fails too, a full save"
      writer_truncate_fails_too;
    test "writer: lands-then-fails at every syscall of open, appends and close"
      writer_lands_then_fails_sweep;
    test "writer: a batch behind a failed append is refused until reload"
      writer_refuses_batch_behind_failure;
    test "writer: an empty batch on an exact tail makes no syscall"
      writer_empty_batch_is_no_io;
    test "fsck: a stale temporary file is derived" stale_tmp_is_derived;
  ]
