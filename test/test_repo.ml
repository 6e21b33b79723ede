(* The multi-variant repository. *)

module Repo = Repository.Repo

let test = Util.test

let with_repo schema f =
  let dir = Filename.temp_file "swsd_repo" "" in
  Sys.remove dir;
  let rec rm p =
    (* [Sys.is_directory] raises on dangling symlinks; treat them as files *)
    if (try Sys.is_directory p with Sys_error _ -> false) then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () ->
      match Repo.init dir schema with
      | Ok repo -> f dir repo
      | Error m -> Alcotest.fail m)

let init_rejects_invalid () =
  let dir = Filename.temp_file "swsd_repo" "" in
  Sys.remove dir;
  match Repo.init dir (Util.parse "interface A : Ghost { };") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalid shrink wrap schema must be rejected"

let init_and_reopen () =
  with_repo (Util.university ()) (fun dir _repo ->
      match Repo.open_dir dir with
      | Error m -> Alcotest.fail m
      | Ok reopened ->
          Alcotest.check Util.schema_testable "schema survives"
            (Util.university ())
            (Repo.shrink_wrap reopened))

let open_missing () =
  match Repo.open_dir "/nonexistent/definitely/not" with
  | Error m ->
      Alcotest.(check bool) "error names the shrinkwrap file" true
        (Str_contains.contains m "shrinkwrap.odl")
  | Ok _ -> Alcotest.fail "should not open"

let variant_lifecycle () =
  with_repo (Util.university ()) (fun _dir repo ->
      Alcotest.(check (list string)) "empty" [] (Repo.variant_names repo);
      let session =
        match Repo.create_variant repo "night_school" with
        | Ok s -> s
        | Error m -> Alcotest.fail m
      in
      Alcotest.(check (list string)) "listed" [ "night_school" ]
        (Repo.variant_names repo);
      (* duplicate and invalid names rejected *)
      Alcotest.(check bool) "duplicate rejected" true
        (Result.is_error (Repo.create_variant repo "night_school"));
      Alcotest.(check bool) "bad name rejected" true
        (Result.is_error (Repo.create_variant repo "not a name"));
      (* customize and save *)
      let session, _ =
        Util.apply_ok session "delete_type_definition(Time_Slot)"
      in
      (match Repo.save_variant repo "night_school" session with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      match Repo.open_variant repo "night_school" with
      | Ok loaded ->
          Alcotest.(check bool) "customization survived" false
            (Odl.Schema.mem_interface (Core.Session.workspace loaded) "Time_Slot")
      | Error e -> Alcotest.fail (Repo.open_error_to_string e))

let open_unknown_variant () =
  with_repo (Util.emsl ()) (fun _dir repo ->
      match Repo.open_variant repo "ghost" with
      | Error (Repo.No_variant _) -> ()
      | _ -> Alcotest.fail "unknown variant must be No_variant")

let variant_names_skip_dangling () =
  with_repo (Util.university ()) (fun dir repo ->
      ignore (Repo.create_variant repo "real");
      let variants = Filename.concat dir "variants" in
      Unix.symlink "/nonexistent/target" (Filename.concat variants "ghostlink");
      Alcotest.(check (list string)) "dangling symlink skipped" [ "real" ]
        (Repo.variant_names repo))

let two_variants_interop () =
  with_repo (Util.university ()) (fun _dir repo ->
      let a = Result.get_ok (Repo.create_variant repo "campus") in
      let a, _ = Util.apply_ok a "delete_type_definition(Book)" in
      ignore (Repo.save_variant repo "campus" a);
      let b = Result.get_ok (Repo.create_variant repo "online") in
      let b, _ = Util.apply_ok b "delete_type_definition(Time_Slot)" in
      let b, _ = Util.apply_ok b "delete_attribute(Course_Offering, room)" in
      ignore (Repo.save_variant repo "online" b);
      match Repo.interop repo "campus" "online" with
      | Error e -> Alcotest.fail (Repo.open_error_to_string e)
      | Ok r ->
          let names =
            List.map (fun i -> i.Odl.Types.i_name) r.r_interchange.s_interfaces
          in
          Alcotest.(check bool) "Book out" false (List.mem "Book" names);
          Alcotest.(check bool) "Time_Slot out" false (List.mem "Time_Slot" names);
          Alcotest.(check bool) "Person in" true (List.mem "Person" names);
          Util.check_valid "interchange" r.r_interchange;
          match Repo.interop_report repo "campus" "online" with
          | Ok text ->
              Alcotest.(check bool) "report names variants" true
                (Str_contains.contains text "campus <-> online")
          | Error e -> Alcotest.fail (Repo.open_error_to_string e))

let catalog_and_affinity () =
  with_repo (Util.emsl ()) (fun _dir repo ->
      let a = Result.get_ok (Repo.create_variant repo "site1") in
      let a, _ = Util.apply_ok a "delete_type_definition(Machine)" in
      ignore (Repo.save_variant repo "site1" a);
      ignore (Repo.create_variant repo "site2");
      let catalog = Repo.catalog repo in
      Alcotest.(check bool) "both listed" true
        (Str_contains.contains catalog "site1"
        && Str_contains.contains catalog "site2");
      Alcotest.(check bool) "mapping summary present" true
        (Str_contains.contains catalog "deleted");
      let matrix = Repo.affinity_matrix repo in
      Alcotest.(check bool) "matrix has diagonal" true
        (Str_contains.contains matrix "1.000"))

(* The repository prints and indexes its shrink wrap once: variants open
   on the base session while their [shrinkwrap.odl] holds the base's
   bytes, and load as before when it does not.  A snapshot on the base
   leaves an equal [shrinkwrap.odl] alone and rewrites one that differs. *)
let variants_open_on_the_base () =
  let module Io = Repository.Io in
  let module Store = Repository.Store in
  let module Session = Core.Session in
  let writes = ref [] in
  let mem = Io.mem_io (Io.mem_create ()) in
  let io =
    { mem with Io.write = (fun p c -> writes := p :: !writes; mem.Io.write p c) }
  in
  let repo =
    match Repo.init ~io "/r" (Util.university ()) with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  let base =
    match Repo.base repo with
    | Some b -> b
    | None -> Alcotest.fail "a valid shrink wrap has a base"
  in
  let on_base s = Session.original s == Session.original base.b_session in
  let open_v () =
    match Repo.open_variant repo "v" with
    | Ok s -> s
    | Error e -> Alcotest.fail (Repo.open_error_to_string e)
  in
  let created =
    match Repo.create_variant repo "v" with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "a new variant starts from the base" true (on_base created);
  let s = Util.apply_many created [ "add_attribute(Person, string, 8, nick)" ] in
  ignore (Repo.save_variant repo "v" s);
  let opened = open_v () in
  Alcotest.(check bool) "the variant opens on the base" true (on_base opened);
  let store = Repo.variant_store repo "v" in
  let shrink_path = Store.shrinkwrap_file store in
  let shrink_writes () =
    List.length (List.filter (String.equal (shrink_path ^ Io.tmp_suffix)) !writes)
  in
  let before = shrink_writes () in
  Store.save_session store opened;
  Alcotest.(check int) "an equal shrinkwrap.odl is not rewritten" before
    (shrink_writes ());
  (* the same schema in other bytes: parsed as without a base *)
  io.Io.write shrink_path ("// edited\n" ^ base.b_text);
  let reopened = open_v () in
  Alcotest.(check bool) "other bytes are parsed again" false (on_base reopened);
  Alcotest.check Util.schema_testable "same workspace" (Session.workspace opened)
    (Session.workspace reopened);
  let log s = Core.Oplog.(render (of_session s)) in
  Alcotest.(check string) "same log" (log opened) (log reopened);
  Store.save_session store opened;
  Alcotest.(check string) "a differing shrinkwrap.odl is rewritten" base.b_text
    (io.Io.read_file shrink_path);
  Alcotest.(check bool) "and opens on the base again" true (on_base (open_v ()))

(* --- fsck_dir: one case per exit class, on the in-memory filesystem --- *)

module Io = Repository.Io

(* A repository at /r on a fresh in-memory filesystem, with variant [v]
   one op in (so it has a journal and a checkpoint). *)
let mem_repo () =
  let io = Io.mem_io (Io.mem_create ()) in
  let repo = Result.get_ok (Repo.init ~io "/r" (Util.university ())) in
  let s = Result.get_ok (Repo.create_variant repo "v") in
  let s, _ = Util.apply_ok s "add_type_definition(Lab)" in
  Result.get_ok (Repo.save_variant repo "v" s);
  io

let fsck ?(salvage = false) io dir =
  match Repo.fsck_dir ~io ~salvage dir with
  | Ok r -> r
  | Error m -> Alcotest.fail m

let damage io path = io.Io.append path "not a journal record\n"

let check_fsck what expected_code fragments (code, lines) =
  Alcotest.(check int) (what ^ ": exit class") expected_code code;
  List.iter
    (fun f ->
      if not (List.exists (fun l -> Str_contains.contains l f) lines) then
        Alcotest.failf "%s: no line has %S in:\n%s" what f
          (String.concat "\n" lines))
    fragments

let fsck_dir_classes () =
  let io = mem_repo () in
  check_fsck "clean" 0 [ "/r: clean" ] (fsck io "/r");
  (* a staging directory of a crashed branch is no variant, nor damage *)
  Io.mkdir_p io "/r/variants/.tmp-x";
  damage io "/r/variants/.tmp-x/log.ops";
  let code, lines = fsck io "/r" in
  check_fsck "a staging directory is skipped" 0 [ "/r: clean" ] (code, lines);
  Alcotest.(check bool) "and not reported" false
    (List.exists (fun l -> Str_contains.contains l ".tmp-x") lines);
  (* derived damage alone: the checkpoint *)
  damage io "/r/variants/v/checkpoint.odl";
  check_fsck "checkpoint damage" 1
    [ "variants/v: checkpoint.odl"; "derived; regenerated by salvage" ]
    (fsck io "/r");
  check_fsck "salvaging it" 1 [ "variants/v: salvaged" ]
    (fsck ~salvage:true io "/r");
  check_fsck "after salvage" 0 [ "/r: clean" ] (fsck io "/r");
  (* interior journal damage is corruption until salvaged *)
  damage io "/r/variants/v/log.ops";
  check_fsck "log.ops damage" 2 [ "variants/v: log.ops" ] (fsck io "/r");
  check_fsck "salvaging the journal" 1 [ "variants/v: salvaged" ]
    (fsck ~salvage:true io "/r");
  check_fsck "after the journal salvage" 0 [ "/r: clean" ] (fsck io "/r")

(* A damaged top-level schema is class 2, and every variant is still
   walked: each keeps its own copy of the shrink wrap. *)
let fsck_dir_damaged_shrinkwrap () =
  let io = mem_repo () in
  io.Io.write "/r/shrinkwrap.odl" "interface {{{";
  damage io "/r/variants/v/log.ops";
  check_fsck "damaged shrinkwrap.odl" 2
    [ "shrinkwrap.odl: "; "variants/v: log.ops" ]
    (fsck io "/r")

let fsck_dir_not_a_directory () =
  let io = mem_repo () in
  List.iter
    (fun path ->
      Alcotest.(check bool) (path ^ " is refused") true
        (Result.is_error (Repo.fsck_dir ~io ~salvage:false path)))
    [ "/nowhere"; "/r/shrinkwrap.odl" ]

(* fsck on the repository's base: two variants' recovered sessions share
   one shrink wrap value, where an fsck without it parses a copy for
   each; the reports are the same. *)
let fsck_on_the_base () =
  let module Store = Repository.Store in
  let io = mem_repo () in
  let repo = Result.get_ok (Repo.open_dir ~io "/r") in
  let w, _ =
    Util.apply_ok (Result.get_ok (Repo.create_variant repo "w"))
      "add_type_definition(Annex)"
  in
  Result.get_ok (Repo.save_variant repo "w" w);
  let based v = Store.fsck (Repo.variant_store repo v) in
  let fsck v = Store.fsck (Util.on_base None (Repo.variant_store repo v)) in
  let original (r : Store.fsck_report) =
    Core.Session.original (Option.get r.fsck_session)
  in
  Alcotest.(check bool) "one shrink wrap value" true
    (original (based "v") == original (based "w"));
  Alcotest.(check bool) "a copy each without the base" false
    (original (fsck "v") == original (fsck "w"));
  List.iter
    (fun v ->
      Alcotest.(check (list string)) "the same report"
        (fsck v).fsck_issues (based v).fsck_issues)
    [ "v"; "w" ]

(* Every way into a variant through [Repo] starts from the repository's
   one shrink wrap value: the open, the writer, fsck of its store with and
   without salvage, and the variant a promotion installs. *)
let entry_points_share_the_base () =
  let module Store = Repository.Store in
  let io = mem_repo () in
  let repo = Result.get_ok (Repo.open_dir ~io "/r") in
  let shares_base repo what s =
    let b = Option.get (Repo.base repo) in
    Alcotest.(check bool) what true
      (Core.Session.original s == Core.Session.original b.Store.b_session)
  in
  let shares = shares_base repo in
  shares "open_variant" (Result.get_ok (Repo.open_variant repo "v"));
  shares "open_writer" (Store.durable (Result.get_ok (Repo.open_writer repo "v")));
  let fsck ~salvage =
    Option.get (Store.fsck ~salvage (Repo.variant_store repo "v")).fsck_session
  in
  shares "fsck" (fsck ~salvage:false);
  (* a stale temporary file gives salvage something to rewrite *)
  io.Io.write "/r/variants/v/checkpoint.odl.tmp" "half a write";
  shares "fsck --salvage" (fsck ~salvage:true);
  match Server.Replication.promote ~src_io:io ~dst_io:io ~src:"/r" ~dst:"/d" () with
  | Error m -> Alcotest.fail m
  | Ok (_, outcomes) ->
      List.iter (fun (v, o) -> if Result.is_error o then Alcotest.fail v) outcomes;
      let promoted = Result.get_ok (Repo.open_dir ~io "/d") in
      shares_base promoted "a promoted variant"
        (Result.get_ok (Repo.open_variant promoted "v"))

let tests =
  [
    test "init rejects invalid shrink wrap" init_rejects_invalid;
    test "init and reopen" init_and_reopen;
    test "open missing repository" open_missing;
    test "variant lifecycle" variant_lifecycle;
    test "open unknown variant" open_unknown_variant;
    test "variant names skip dangling symlinks" variant_names_skip_dangling;
    test "two variants interoperate" two_variants_interop;
    test "catalog and affinity" catalog_and_affinity;
    test "variants open on the repository's base" variants_open_on_the_base;
    test "fsck_dir: clean, derived, salvaged, corrupt, staging skipped"
      fsck_dir_classes;
    test "fsck_dir: a damaged shrink wrap still walks the variants"
      fsck_dir_damaged_shrinkwrap;
    test "fsck_dir: a path that is not a directory" fsck_dir_not_a_directory;
    test "fsck on the base shares one shrink wrap value" fsck_on_the_base;
    test "every Repo entry point shares the base" entry_points_share_the_base;
  ]
