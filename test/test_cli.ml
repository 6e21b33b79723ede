(* End-to-end tests of the swsd command line binary. *)

let test = Util.test

let swsd = "../bin/swsd.exe"

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Run the binary with [args]; return (exit code, stdout, stderr). *)
let run_split args =
  let out = Filename.temp_file "swsd_cli" ".out"
  and err = Filename.temp_file "swsd_cli" ".err" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote swsd)
             (String.concat " " (List.map Filename.quote args))
             (Filename.quote out) (Filename.quote err))
      in
      (code, read_file out, read_file err))

(** Run the binary with [args]; return (exit code, stdout then stderr). *)
let run args =
  let code, out, err = run_split args in
  (code, out ^ err)

let check_run args expect_code fragments =
  let code, text = run args in
  Alcotest.(check int) (String.concat " " args ^ " exit code") expect_code code;
  List.iter
    (fun f ->
      if not (Str_contains.contains text f) then
        Alcotest.failf "%s: output lacks %S:\n%s" (String.concat " " args) f text)
    fragments

let rm_rf = Util.rm_rf

let write_temp suffix contents =
  let path = Filename.temp_file "swsd_cli" suffix in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let examples_cmd () =
  check_run [ "examples" ] 0 [ "university:"; "vlsi:"; "acedb:" ]

let decompose_cmd () =
  check_run [ "decompose"; "university" ] 0
    [ "ww:Course_Offering"; "gh:Person"; "ih:Course" ]

let show_cmd () =
  check_run [ "show"; "lumber"; "ah:House" ] 0 [ "aggregation hierarchy: House" ];
  check_run [ "show"; "lumber"; "ah:Ghost" ] 1 [ "no concept schema" ]

let explain_cmd () =
  check_run [ "explain"; "emsl"; "ih:Application" ] 0
    [ "instantiation sequence" ]

let check_cmd () =
  check_run [ "check"; "university" ] 0 [ "no findings" ];
  let bad = write_temp ".odl" "interface A : Ghost { };" in
  Fun.protect
    ~finally:(fun () -> Sys.remove bad)
    (fun () -> check_run [ "check"; bad ] 1 [ "unknown supertype" ])

let file_schema () =
  let path =
    write_temp ".odl" "schema Mini { interface Thing { attribute int n; }; };"
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> check_run [ "decompose"; path ] 0 [ "ww:Thing" ])

let parse_error_reported () =
  let path = write_temp ".odl" "interface {{{" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let code, text = run [ "decompose"; path ] in
      Alcotest.(check int) "fails" 1 code;
      Alcotest.(check bool) "has position" true (Str_contains.contains text ":1:"))

let custom_and_report_cmds () =
  let log =
    write_temp ".ops"
      "@ww add_type_definition(Lab);\n@gh add_supertype(Lab, Person);\n"
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove log)
    (fun () ->
      check_run [ "custom"; "university"; log ] 0 [ "interface Lab : Person" ];
      check_run [ "report"; "university"; log ] 0
        [ "impact report"; "mapping report"; "added interface Lab" ])

let bad_log_rejected () =
  let log = write_temp ".ops" "@ww frobnicate(X);\n" in
  Fun.protect
    ~finally:(fun () -> Sys.remove log)
    (fun () ->
      let code, _ = run [ "custom"; "university"; log ] in
      Alcotest.(check int) "fails" 1 code)

let diff_cmd () =
  check_run [ "diff"; "acedb"; "aatdb" ] 0
    [ "delete_type_definition(Strain)"; "add_type_definition(Phenotype)" ];
  check_run [ "diff"; "university"; "university" ] 0 []

let affinity_cmd () =
  check_run [ "affinity"; "acedb"; "sacchdb" ] 0
    [ "semantic affinity: 0.831"; "shared types" ]

let unknown_schema () =
  let code, text = run [ "decompose"; "not_a_schema" ] in
  Alcotest.(check int) "fails" 1 code;
  Alcotest.(check bool) "explains" true
    (Str_contains.contains text "not a built-in schema")

let repl_scripted () =
  (* drive the REPL through stdin *)
  let script =
    write_temp ".txt"
      "concepts\nfocus ww:Person\napply add_attribute(Person, string, 12, \
       phone)\nodl Person\nquit\n"
  in
  let out = Filename.temp_file "swsd_cli" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove script;
      Sys.remove out)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s repl university < %s > %s 2>&1"
             (Filename.quote swsd) (Filename.quote script) (Filename.quote out))
      in
      Alcotest.(check int) "exit" 0 code;
      let ic = open_in out in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check bool) "applied and visible" true
        (Str_contains.contains text "attribute string<12> phone"))

let library_cmd () =
  let dir = Filename.temp_file "swsd_cli_lib" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let schema_path = Filename.concat dir "mini.odl" in
  let oc = open_out schema_path in
  output_string oc "schema Mini { interface Gene { attribute string<20> gene_name; }; };";
  close_out oc;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove schema_path;
      Sys.rmdir dir)
    (fun () ->
      check_run [ "library"; dir ] 0 [ "Mini: 1 types" ])

let sql_cmd () =
  check_run [ "sql"; "university" ] 0
    [ "CREATE TABLE person ("; "ssn VARCHAR(11) PRIMARY KEY" ]

let graph_cmd () =
  check_run [ "graph"; "university" ] 0 [ "digraph \"University\" {" ];
  check_run [ "graph"; "university"; "gh:Person" ] 0
    [ "fillcolor=lightgoldenrod"; "arrowhead=empty" ]

let variants_workflow () =
  let dir = Util.tmp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      check_run [ "variants"; "init"; dir; "emsl" ] 0 [ "initialized" ];
      check_run [ "variants"; "new"; dir; "site1" ] 0 [ "variant site1 created" ];
      let log = write_temp ".ops" "@ww delete_type_definition(Machine);\n" in
      Fun.protect
        ~finally:(fun () -> Sys.remove log)
        (fun () ->
          check_run [ "variants"; "apply"; dir; "site1"; log ] 0
            [ "1 operation(s) applied" ]);
      check_run [ "variants"; "new"; dir; "site2" ] 0 [];
      check_run [ "variants"; "list"; dir ] 0 [ "site1"; "site2" ];
      check_run [ "variants"; "interop"; dir; "site1"; "site2" ] 0
        [ "site1 <-> site2" ];
      check_run [ "variants"; "affinity"; dir ] 0 [ "1.000" ];
      (* error paths *)
      check_run [ "variants"; "new"; dir; "site1" ] 1 [ "already exists" ];
      check_run [ "variants"; "interop"; dir; "site1"; "ghost" ] 1 [ "variant" ])

let repl_save_and_fsck () =
  (* with --save every accepted operation is journalled; the final state
     survives quitting the repl (not the initial session) *)
  let dir = Util.tmp_dir () in
  let script =
    write_temp ".txt"
      "focus ww:Person\napply add_attribute(Person, string, 12, phone)\nquit\n"
  in
  let out = Filename.temp_file "swsd_cli" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove script;
      Sys.remove out;
      rm_rf dir)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s repl university --save %s < %s > %s 2>&1"
             (Filename.quote swsd) (Filename.quote dir) (Filename.quote script)
             (Filename.quote out))
      in
      Alcotest.(check int) "repl exit" 0 code;
      let log = read_file (Filename.concat dir "log.ops") in
      Alcotest.(check bool) "accepted op persisted" true
        (Str_contains.contains log "add_attribute(Person, string, 12, phone)");
      check_run [ "fsck"; dir ] 0 [ "clean" ];
      (* --save renders the deliverables; they are not recovery state, so
         losing one is no damage *)
      let report = Filename.concat (Filename.concat dir "reports") "impact.txt" in
      Alcotest.(check bool) "reports rendered" true (Sys.file_exists report);
      Sys.remove report;
      check_run [ "fsck"; dir ] 0 [ "clean" ])

(* [--save] creates missing parents, as the repository's own stores do;
   a path that cannot be a directory exits 2 with the reason and no
   backtrace. *)
let repl_save_paths () =
  let root = Util.tmp_dir () in
  let file = Filename.concat root "afile" in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      Sys.mkdir root 0o755;
      Out_channel.with_open_text file (fun oc -> output_string oc "x");
      let nested = Filename.concat root "missing/a/b" in
      let code =
        Sys.command
          (Printf.sprintf "%s repl university --save %s < /dev/null > /dev/null 2>&1"
             (Filename.quote swsd) (Filename.quote nested))
      in
      Alcotest.(check int) "--save under missing parents" 0 code;
      Alcotest.(check bool) "the store was created" true
        (Sys.file_exists (Filename.concat nested "shrinkwrap.odl"));
      List.iter
        (fun (dir, reason) ->
          let code, text = run [ "repl"; "university"; "--save"; dir ] in
          Alcotest.(check int) (dir ^ " exit code") 2 code;
          Alcotest.(check bool) (dir ^ " names the reason") true
            (Str_contains.contains text reason);
          Alcotest.(check bool) (dir ^ " without a backtrace") false
            (Str_contains.contains text "exception"))
        [
          (file, "not a directory");
          (Filename.concat file "sub", "Not a directory");
        ])

(* Occurrences of [sub] in [s]. *)
let count_sub s sub =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* A designer [save] into the [--save] directory rewrites the journal with
   the session's whole log, so the repl counts that session as journalled
   instead of appending its delta on top.  The delta is only non-empty
   after a failed append left the journalled session behind, so [log.ops]
   is pointed at /dev/full (where the system has one) for the second
   apply: the [save] that follows must leave every op in the journal
   exactly once, and so must the apply after it. *)
let repl_save_into_save_dir () =
  let dir = Util.tmp_dir () in
  let ops =
    [
      "add_attribute(Person, string, 12, phone)";
      "add_attribute(Person, string, 20, fax)";
      "add_attribute(Person, string, 30, email)";
    ]
  in
  let log_path = Filename.concat dir "log.ops" in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process swsd
      [| swsd; "repl"; "university"; "--save"; dir |]
      stdin_r stdout_w stdout_w
  in
  Unix.close stdin_r;
  Unix.close stdout_w;
  let seen = Buffer.create 4096 in
  let send line =
    let b = Bytes.of_string (line ^ "\n") in
    ignore (Unix.write stdin_w b 0 (Bytes.length b))
  in
  (* read the repl's output until [fragment] shows up past [from] *)
  let expect fragment =
    let from = Buffer.length seen in
    let chunk = Bytes.create 4096 in
    let rec go () =
      let out = Buffer.sub seen from (Buffer.length seen - from) in
      if not (Str_contains.contains out fragment) then
        match Unix.select [ stdout_r ] [] [] 30.0 with
        | [], _, _ ->
            Alcotest.failf "repl: no %S within 30 s:\n%s" fragment
              (Buffer.contents seen)
        | _ ->
            let n = Unix.read stdout_r chunk 0 (Bytes.length chunk) in
            if n = 0 then
              Alcotest.failf "repl exited before %S:\n%s" fragment
                (Buffer.contents seen);
            Buffer.add_subbytes seen chunk 0 n;
            go ()
    in
    go ()
  in
  let each_once label expected =
    let log = read_file log_path in
    List.iter
      (fun op ->
        Alcotest.(check int)
          (Printf.sprintf "%s: %s journalled once" label op)
          (if List.mem op expected then 1 else 0)
          (count_sub log op))
      ops
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      Unix.close stdin_w;
      Unix.close stdout_r;
      rm_rf dir)
    (fun () ->
      let op1, op2, op3 =
        match ops with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      send "focus ww:Person";
      send ("apply " ^ op1);
      expect ("applied " ^ op1);
      if Sys.file_exists "/dev/full" then begin
        Sys.remove log_path;
        Unix.symlink "/dev/full" log_path;
        send ("apply " ^ op2);
        expect "persistence failed"
      end
      else begin
        send ("apply " ^ op2);
        expect ("applied " ^ op2)
      end;
      send ("save " ^ dir);
      expect "session saved to";
      each_once "after save" [ op1; op2 ];
      send ("apply " ^ op3);
      expect ("applied " ^ op3);
      each_once "after the next apply" ops;
      send "quit";
      expect "bye";
      Alcotest.(check bool) "repl exit" true
        (snd (Unix.waitpid [] pid) = Unix.WEXITED 0);
      each_once "after quit" ops;
      check_run [ "fsck"; dir ] 0 [ "clean" ];
      match
        Repository.Store.load_session (Repository.Store.open_dir dir)
      with
      | Error e ->
          Alcotest.fail (Repository.Store.load_error_to_string e)
      | Ok s ->
          Alcotest.(check (list string)) "reopened log = the script's ops" ops
            (List.map
               (fun (st : Core.Session.step) -> st.st_text)
               (Core.Session.log s)))

let fsck_corrupt_and_salvage () =
  let dir = Util.tmp_dir () in
  let append_file path text =
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    output_string oc text;
    close_out oc
  in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      check_run [ "variants"; "init"; dir; "emsl" ] 0 [ "initialized" ];
      check_run [ "variants"; "new"; dir; "site1" ] 0 [];
      let log = write_temp ".ops" "@ww delete_type_definition(Machine);\n" in
      Fun.protect
        ~finally:(fun () -> Sys.remove log)
        (fun () -> check_run [ "variants"; "apply"; dir; "site1"; log ] 0 []);
      (* interior corruption in the variant's journal: commands refuse with
         a one-line diagnostic naming the file and exit 2 *)
      let site_log =
        Filename.concat (Filename.concat (Filename.concat dir "variants") "site1")
          "log.ops"
      in
      append_file site_log "not a journal record\n";
      let more = write_temp ".ops" "@ww add_type_definition(Zed);\n" in
      Fun.protect
        ~finally:(fun () -> Sys.remove more)
        (fun () ->
          check_run [ "variants"; "apply"; dir; "site1"; more ] 2 [ "log.ops" ]);
      check_run [ "fsck"; dir ] 2 [ "variants/site1: log.ops" ];
      (* salvage keeps the valid journal prefix and leaves the repository
         usable again; exit 1 distinguishes "found damage and repaired it"
         from a clean 0 *)
      check_run [ "fsck"; "--salvage"; dir ] 1 [ "variants/site1: salvaged" ];
      check_run [ "fsck"; dir ] 0 [ "clean" ];
      check_run [ "variants"; "list"; dir ] 0 [ "site1" ];
      (* a damaged checkpoint is derived damage: reported with exit 1,
         never 2 (recovery falls back to the journal, so the variant
         still opens), and salvage regenerates it *)
      let checkpoint =
        Filename.concat (Filename.concat (Filename.concat dir "variants") "site1")
          "checkpoint.odl"
      in
      append_file checkpoint "interface Junk {};\n";
      check_run [ "fsck"; dir ] 1
        [ "variants/site1: checkpoint.odl"; "derived; regenerated by salvage" ];
      check_run [ "variants"; "list"; dir ] 0 [ "site1" ];
      check_run [ "fsck"; "--salvage"; dir ] 1 [ "variants/site1: salvaged" ];
      check_run [ "fsck"; dir ] 0 [ "clean" ];
      (* a corrupt top-level schema is corruption too *)
      let oc = open_out (Filename.concat dir "shrinkwrap.odl") in
      output_string oc "interface {{{";
      close_out oc;
      check_run [ "variants"; "list"; dir ] 2 [ "shrinkwrap.odl" ];
      check_run [ "fsck"; dir ] 2 [ "shrinkwrap.odl" ])

(* A new variant is its shrink wrap and manifest: no empty journal, no
   empty local names, no checkpoint of nothing, no custom schema (a
   deliverable) — and that is a clean repository, exit 0. *)
let fresh_variant_fscks_clean () =
  let dir = Util.tmp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      check_run [ "variants"; "init"; dir; "emsl" ] 0 [ "initialized" ];
      check_run [ "variants"; "new"; dir; "site1" ] 0 [ "variant site1 created" ];
      let vdir = Filename.concat (Filename.concat dir "variants") "site1" in
      Alcotest.(check (list string)) "two files"
        [ "manifest"; "shrinkwrap.odl" ]
        (List.sort compare (Array.to_list (Sys.readdir vdir)));
      check_run [ "fsck"; dir ] 0 [ "clean" ];
      check_run [ "variants"; "list"; dir ] 0 [ "site1" ])

let fsck_not_a_directory () =
  (* not a repository at all is corruption-grade: exit 2, like damage that
     cannot be repaired *)
  check_run [ "fsck"; "/nonexistent/definitely/not" ] 2 [ "not a directory" ]

let data_commands () =
  let data =
    write_temp ".objs"
      "object @1 : Department {\n  dept_name = \"CSE\";\n}\n\nobject @2 : \
       Faculty {\n  ssn = \"1\";\n  works_in_a -> @1;\n}\n"
  in
  let log = write_temp ".ops" "@ww delete_type_definition(Department);\n" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove data;
      Sys.remove log)
    (fun () ->
      (* the data as written is asymmetric: @1 lacks the inverse link *)
      check_run [ "data-check"; "university"; data ] 1 [ "does not link back" ];
      (* migrating drops the department and the dangling link *)
      check_run [ "migrate-data"; "university"; log; data ] 0
        [ "object @2 : Faculty"; "dropped: @1 object" ])

let oql_command () =
  let data =
    write_temp ".objs"
      "object @1 : Person { name = \"Alice\"; ssn = \"1\"; }\nobject @2 : \
       Person { name = \"Bob\"; ssn = \"2\"; }\n"
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove data)
    (fun () ->
      check_run
        [ "oql"; "university"; data; "select Person where name = \"Bob\"" ]
        0
        [ "@2 : Person" ];
      check_run [ "oql"; "university"; data; "select Person where" ] 1 [])

(* A data file that cannot be read is an ordinary error: exit 1 with
   [path: reason], never an uncaught exception. *)
let data_file_unreadable () =
  let missing = "/nonexistent/definitely/not.objs" in
  let log = write_temp ".ops" "" in
  Fun.protect
    ~finally:(fun () -> Sys.remove log)
    (fun () ->
      List.iter
        (fun args ->
          let code, text = run args in
          let what = String.concat " " args in
          Alcotest.(check int) (what ^ " exit code") 1 code;
          Alcotest.(check bool) (what ^ " names the path and reason") true
            (Str_contains.contains text
               (missing ^ ": No such file or directory"));
          Alcotest.(check bool) (what ^ " without a backtrace") false
            (Str_contains.contains text "exception"))
        [
          [ "data-check"; "university"; missing ];
          [ "oql"; "university"; missing; "select Person" ];
          [ "migrate-data"; "university"; log; missing ];
        ])

(* The socket clients against a live [swsd serve]: on [!ok] each prints
   the reply body on stdout, nothing on stderr, and exits 0; a refused
   request or an unreachable server goes to stderr with exit 1 (except a
   refused [stats] reply's body, which stays on stdout). *)
let socket_clients () =
  Test_server.with_watchdog ~secs:60.0 ~name:"cli socket clients" (fun () ->
      let dir = Util.tmp_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          check_run [ "variants"; "init"; dir; "emsl" ] 0 [ "initialized" ];
          check_run [ "variants"; "new"; dir; "v" ] 0 [ "variant v created" ];
          let sock = Filename.concat dir "swsd.sock" in
          let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
          let pid =
            Unix.create_process swsd [| "swsd"; "serve"; dir |] Unix.stdin null
              null
          in
          Unix.close null;
          Fun.protect
            ~finally:(fun () ->
              Unix.kill pid Sys.sigterm;
              ignore (Repository.Io.retry_eintr (fun () -> Unix.waitpid [] pid)))
            (fun () ->
              (match Server.Client.connect ~retry_for:30.0 sock with
              | Result.Ok c -> Server.Client.close c
              | Result.Error m -> Alcotest.failf "server never came up: %s" m);
              let expect args code ~out ~err =
                let got, stdout, stderr = run_split args in
                let label = String.concat " " args in
                Alcotest.(check int) (label ^ " exit code") code got;
                let has stream text f =
                  if not (Str_contains.contains text f) then
                    Alcotest.failf "%s: %s lacks %S:\n%s" label stream f text
                in
                List.iter (has "stdout" stdout) out;
                List.iter (has "stderr" stderr) err;
                if code = 0 then
                  Alcotest.(check string) (label ^ " stderr") "" stderr
              in
              expect [ "stats"; sock ] 0
                ~out:[ "observability snapshot"; "swsd.requests_total" ]
                ~err:[];
              expect [ "stats"; sock; "--json" ] 0
                ~out:[ "{\"at\": "; "\"counters\": {" ]
                ~err:[];
              expect [ "query"; sock; "name Machine"; "--variant"; "v" ] 0
                ~out:[ "Machine\n#version " ] ~err:[];
              expect [ "branch"; sock; "v"; "w" ] 0
                ~out:[ "branched w from v@" ] ~err:[];
              expect [ "merge"; sock; "w"; "v"; "--dry-run" ] 0
                ~out:[ "merge report: w into v (dry run)"; "rebased 0 op(s)" ]
                ~err:[];
              expect [ "query"; sock; "frobnicate"; "--variant"; "v" ] 1 ~out:[]
                ~err:[ "usage: @query"; "!err query parse error" ];
              expect
                [ "stats"; Filename.concat dir "absent.sock" ]
                1 ~out:[]
                ~err:[ "absent.sock: No such file or directory" ];
              (* A refused [@stats] with a body (a router shedding the
                 request): the body, [!busy] line included, goes to stdout
                 and only the terminating status to stderr. *)
              let fake = Filename.concat dir "fake.sock" in
              let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              Fun.protect
                ~finally:(fun () -> Unix.close lsock)
                (fun () ->
                  Unix.bind lsock (Unix.ADDR_UNIX fake);
                  Unix.listen lsock 1;
                  let shed () =
                    let fd, _ = Unix.accept lsock in
                    let ic = Unix.in_channel_of_descr fd
                    and oc = Unix.out_channel_of_descr fd in
                    output_string oc ". fake\n!ok\n";
                    flush oc;
                    ignore (input_line ic);
                    output_string oc
                      ". partial\n!busy shard 0 unavailable\n!retry-after 50\n";
                    flush oc;
                    Unix.close fd
                  in
                  let server = Thread.create shed () in
                  let got, stdout, stderr = run_split [ "stats"; fake ] in
                  Thread.join server;
                  Alcotest.(check int) "refused stats exit code" 1 got;
                  Alcotest.(check string) "refused stats stdout"
                    "partial\n!busy shard 0 unavailable\n" stdout;
                  Alcotest.(check string) "refused stats stderr"
                    "!retry-after 50\n" stderr))))

(* A worker that exits while the front process waits for it to accept
   fails startup at once, naming the worker, instead of running out the
   readiness budget: a directory with no repository in it. *)
let serve_worker_dies_at_startup () =
  List.iter
    (fun (flag, n, who) ->
      let dir = Util.tmp_dir () in
      Unix.mkdir dir 0o700;
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          let code, _, err = run_split [ "serve"; dir; flag; n ] in
          let secs = Unix.gettimeofday () -. t0 in
          Alcotest.(check int) (flag ^ " exit code") 1 code;
          if secs > 5.0 then Alcotest.failf "serve %s took %.1f s to fail" flag secs;
          if not (Str_contains.contains err (who ^ " exited during startup")) then
            Alcotest.failf "serve %s stderr does not name %s:\n%s" flag who err))
    [ ("--replicas", "1", "leader"); ("--shards", "2", "shard 0") ]

let tests =
  [
    test "examples" examples_cmd;
    test "decompose" decompose_cmd;
    test "show" show_cmd;
    test "explain" explain_cmd;
    test "check" check_cmd;
    test "schema from file" file_schema;
    test "parse errors are positioned" parse_error_reported;
    test "custom and report" custom_and_report_cmds;
    test "bad log rejected" bad_log_rejected;
    test "diff" diff_cmd;
    test "affinity" affinity_cmd;
    test "unknown schema argument" unknown_schema;
    test "scripted repl" repl_scripted;
    test "library" library_cmd;
    test "sql" sql_cmd;
    test "graph" graph_cmd;
    test "variants workflow" variants_workflow;
    test "repl --save persists and fsck is clean" repl_save_and_fsck;
    test "repl --save: a save into the --save directory journals nothing twice"
      repl_save_into_save_dir;
    test "repl --save creates parents and refuses a non-directory"
      repl_save_paths;
    test "fsck reports, refuses, and salvages corruption" fsck_corrupt_and_salvage;
    test "fsck on a non-directory" fsck_not_a_directory;
    test "a fresh variant is two files and fscks clean"
      fresh_variant_fscks_clean;
    test "data commands" data_commands;
    test "oql command" oql_command;
    test "socket clients: stats, query, branch, merge" socket_clients;
    test "serve: a worker dying at startup fails fast" serve_worker_dies_at_startup;
    test "data commands on an unreadable data file" data_file_unreadable;
  ]
