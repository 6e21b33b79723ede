(** swsd — the shrink wrap schema designer command line.

    A schema argument is either a path to an extended-ODL file or the name
    of a built-in example schema (university, lumber, emsl, acedb, aatdb,
    sacchdb). *)

let builtins =
  [
    ("university", Schemas.University.v);
    ("lumber", Schemas.Lumber.v);
    ("vlsi", Schemas.Vlsi.v);
    ("commerce", Schemas.Commerce.v);
    ("emsl", Schemas.Emsl.v);
    ("acedb", Schemas.Genome.acedb_v);
    ("aatdb", Schemas.Genome.aatdb_v);
    ("sacchdb", Schemas.Genome.sacchdb_v);
  ]

(* [let* x = r in body]: [body] on [Ok x]; on [Error m], [m] on stderr and
   exit code 1. *)
let ( let* ) r f =
  match r with
  | Ok x -> f x
  | Error m ->
      prerr_endline m;
      1

(* Every file the command line reads: its text, or [path: reason]. *)
let read_text path =
  try Ok (Repository.Io.unix.read_file path) with Sys_error m -> Error m

let load_schema arg =
  match List.assoc_opt arg builtins with
  | Some f -> Ok (f ())
  | None when not (Sys.file_exists arg) ->
      Error (Printf.sprintf "%s: not a file and not a built-in schema" arg)
  | None ->
      Result.bind (read_text arg) (fun text ->
          try Ok (Odl.Parser.parse_schema text) with
          | Odl.Parser.Parse_error (m, line, col)
          | Odl.Lexer.Lex_error (m, line, col) ->
              Error (Printf.sprintf "%s:%d:%d: %s" arg line col m))

let with_schema arg f =
  let* schema = load_schema arg in
  f schema

(* In paranoid mode the session cross-checks every operation against the
   naive reference engine; a divergence is an index bug, reported loudly. *)
let guard_divergence f session =
  try f session with
  | Core.Session.Divergence m ->
      prerr_endline ("engine divergence (index bug): " ^ m);
      2

let with_session ?(paranoid = false) arg f =
  with_schema arg (fun schema ->
      match Core.Session.create ~paranoid schema with
      | Error ds ->
          prerr_endline "the shrink wrap schema is not valid:";
          List.iter
            (fun d ->
              prerr_endline ("  " ^ Fmt.str "%a" Odl.Validate.pp_diagnostic_line d))
            ds;
          1
      | Ok session -> guard_divergence f session)

let load_log path =
  Result.bind (read_text path) (fun text ->
      try Ok (Repository.Store.log_of_string text)
      with Repository.Store.Bad_log m -> Error m)

(* An object store file under [schema]. *)
let load_data schema path =
  Result.bind (read_text path) (fun text ->
      try Ok (Objects.Serial.of_string schema text)
      with Objects.Serial.Bad_store m -> Error m)

let with_replayed ?(paranoid = false) arg log_path f =
  with_schema arg (fun schema ->
      let* steps = load_log log_path in
      (* the replay is paranoid too: one handler covers it and [f] *)
      guard_divergence
        (fun steps ->
          match Core.Oplog.replay ~paranoid schema steps with
          | Error e ->
              prerr_endline (Core.Apply.error_to_string e);
              1
          | Ok session -> f session)
        steps)

(* --- commands ------------------------------------------------------------ *)

let cmd_decompose arg =
  with_session arg (fun session ->
      Core.Session.concepts session
      |> List.iter (fun (c : Core.Concept.t) ->
             Printf.printf "%-24s %-26s %s\n" c.c_id
               (Core.Concept.kind_name c.c_kind)
               (String.concat ", " c.c_members));
      0)

let cmd_show arg concept_id =
  with_session arg (fun session ->
      match Core.Session.find_concept session concept_id with
      | None ->
          prerr_endline ("no concept schema named " ^ concept_id);
          1
      | Some c ->
          print_string (Core.Render.concept (Core.Session.workspace session) c);
          0)

let cmd_check arg paranoid =
  with_schema arg (fun schema ->
      let ds = Odl.Validate.check schema in
      let diverged =
        paranoid
        &&
        let di = Core.Schema_index.diagnostics (Core.Schema_index.build schema) in
        if List.equal Odl.Validate.equal_diagnostic di ds then begin
          print_endline "paranoid: indexed and naive checkers agree";
          false
        end
        else begin
          prerr_endline
            "engine divergence (index bug): indexed and naive diagnostics differ";
          true
        end
      in
      if diverged then 2
      else if ds = [] then begin
        print_endline "no findings";
        0
      end
      else begin
        List.iter
          (fun d -> print_endline (Fmt.str "%a" Odl.Validate.pp_diagnostic_line d))
          ds;
        if Odl.Validate.errors schema = [] then 0 else 1
      end)

let cmd_custom arg log_path paranoid =
  with_replayed ~paranoid arg log_path (fun session ->
      print_string (Odl.Printer.schema_to_string (Core.Session.custom_schema session));
      0)

let cmd_report arg log_path paranoid =
  with_replayed ~paranoid arg log_path (fun session ->
      print_endline (Core.Session.deliverables session);
      0)

let cmd_repl arg save_dir paranoid readonly =
  (* A readonly repl never journals, so pairing it with --save would
     promise durability it cannot deliver. *)
  if readonly && save_dir <> None then begin
    prerr_endline "--readonly cannot be combined with --save";
    Stdlib.exit 2
  end;
  let refuse dir m =
    prerr_endline ("cannot save to " ^ dir ^ ": " ^ m);
    Stdlib.exit 2
  in
  (* Fail fast if another process (a server, another repl) owns the save
     directory: a second writer would interleave journal appends. *)
  let flock =
    Option.map
      (fun dir ->
        if Sys.file_exists dir && not (Sys.is_directory dir) then
          refuse dir "not a directory";
        (try Repository.Io.mkdir_p Repository.Io.unix dir
         with Sys_error m -> refuse dir m);
        match
          Server.Locks.lock_file (Filename.concat dir Server.Locks.lock_file_name)
        with
        | Ok l -> l
        | Error m ->
            prerr_endline ("cannot save to locked repository: " ^ m);
            Stdlib.exit 2)
      save_dir
  in
  with_session ~paranoid arg (fun session ->
      let writer =
        Option.map
          (fun dir ->
            match Repository.Store.writer dir session with
            | Ok w -> w
            | Error m -> refuse dir m)
          save_dir
      in
      let rec loop state =
        if state.Designer.Engine.finished then state
        else begin
          print_string "swsd> ";
          match In_channel.input_line stdin with
          | None -> state
          | Some line when String.trim line = "" -> loop state
          | Some line ->
              let state, feedback =
                Designer.Engine.exec_line ~readonly ?writer state line
              in
              List.iter
                (fun f -> print_endline (Designer.Feedback.to_string f))
                feedback;
              loop state
        end
      in
      print_endline
        ("shrink wrap schema designer; 'help' lists commands"
        ^ if readonly then " (readonly)" else "");
      let final = (loop (Designer.Engine.start session)).session in
      let code =
        match Option.map (fun w -> Repository.Store.close w final) writer with
        | Some (Error m) ->
            prerr_endline ("persistence failed: " ^ m);
            1
        | None | Some (Ok ()) -> 0
      in
      Option.iter Server.Locks.unlock_file flock;
      code)

let cmd_diff arg_a arg_b =
  with_schema arg_a (fun a ->
      with_schema arg_b (fun b ->
          let steps, _reached, converged = Core.Diff.infer ~original:a ~target:b in
          print_endline (Repository.Store.log_to_string steps);
          if not converged then begin
            prerr_endline
              "// warning: the inferred log does not fully converge on the target";
            1
          end
          else 0))

let cmd_explain arg concept_id =
  with_session arg (fun session ->
      match Core.Session.find_concept session concept_id with
      | None ->
          prerr_endline ("no concept schema named " ^ concept_id);
          1
      | Some c ->
          print_endline
            (Core.Explain.concept_text (Core.Session.workspace session) c);
          0)

let cmd_affinity arg_a arg_b =
  with_schema arg_a (fun a ->
      with_schema arg_b (fun b ->
          Printf.printf "semantic affinity: %.3f\n"
            (Core.Affinity.semantic_affinity a b);
          Printf.printf "type overlap: %.3f (%d shared object types)\n"
            (Core.Affinity.type_overlap a b)
            (List.length (Core.Affinity.shared_types a b));
          print_endline "shared types by structural similarity:";
          List.iter
            (fun (n, sim) -> Printf.printf "  %-24s %.3f\n" n sim)
            (Core.Affinity.shared_type_detail a b);
          0))

let cmd_library dir sketch =
  let lib, failures = Repository.Library.load dir in
  List.iter
    (fun (path, reason) ->
      Printf.eprintf "warning: skipped %s (%s)\n" path reason)
    failures;
  match sketch with
  | None ->
      print_endline (Repository.Library.catalog lib);
      0
  | Some sketch_arg ->
      let* sketch = load_schema sketch_arg in
      print_endline "best shrink wrap schemas for the sketch:";
      Repository.Library.search lib ~sketch
      |> List.iter (fun (e, a) ->
             Printf.printf "  %-20s affinity %.3f (%s)\n"
               e.Repository.Library.e_schema.Odl.Types.s_name a e.e_path);
      0

let cmd_graph arg concept =
  match concept with
  | None -> with_schema arg (fun schema ->
      print_string (Core.Dot.schema_graph schema);
      0)
  | Some concept_id ->
      with_session arg (fun session ->
          match Core.Session.find_concept session concept_id with
          | None ->
              prerr_endline ("no concept schema named " ^ concept_id);
              1
          | Some c ->
              print_string
                (Core.Dot.concept_graph (Core.Session.workspace session) c);
              0)

let cmd_data_check arg data_path =
  let* schema = load_schema arg in
  let* store = load_data schema data_path in
  match Objects.Check.check store with
  | [] ->
      Printf.printf "%d object(s), consistent\n" (Objects.Store.count store);
      0
  | ps ->
      List.iter (fun p -> print_endline (Objects.Check.to_string p)) ps;
      1

let cmd_migrate_data arg log_path data_path =
  with_replayed arg log_path (fun session ->
      let original = Core.Session.original session in
      let custom = Core.Session.custom_schema session in
      let* store = load_data original data_path in
      let migrated, report = Objects.Migrate.migrate store ~custom in
      List.iter
        (fun d -> Printf.eprintf "dropped: %s\n" (Objects.Migrate.to_string d))
        report;
      List.iter
        (fun p ->
          Printf.eprintf "needs completion: %s\n" (Objects.Check.to_string p))
        (Objects.Migrate.residual_problems migrated);
      print_endline (Objects.Serial.to_string migrated);
      0)

let cmd_oql arg data_path query_text =
  let* schema = load_schema arg in
  let* store = load_data schema data_path in
  match Objects.Query.query store query_text with
  | exception Objects.Query.Bad_query m ->
      prerr_endline m;
      1
  | [] ->
      print_endline "no matches";
      0
  | objs ->
      List.iter
        (fun (o : Objects.Store.obj) ->
          Printf.printf "@%d : %s\n" o.o_id o.o_type)
        objs;
      0

let cmd_quality arg =
  with_schema arg (fun schema ->
      print_string (Core.Quality.report schema);
      0)

let cmd_er arg =
  with_schema arg (fun schema ->
      print_string (Core.Er.to_string (Core.Er.of_schema schema));
      0)

let cmd_sql arg =
  with_schema arg (fun schema ->
      print_string (Core.Relational.ddl schema);
      0)

(* --- variants: the multi-variant repository ----------------------------- *)

let with_variant_repo dir f =
  match Repository.Repo.open_dir dir with
  | Ok repo -> f repo
  | Error m ->
      prerr_endline m;
      (* a present-but-unreadable repository is corruption (exit 2); a
         directory that simply is not a repository is an ordinary error *)
      if Sys.file_exists (Filename.concat dir "shrinkwrap.odl") then 2 else 1

(* Exit code for a variant that would not open: damage is 2, like any
   corrupt repository; an unknown name is an ordinary error. *)
let variant_error e =
  prerr_endline (Repository.Repo.open_error_to_string e);
  match e with Repository.Repo.No_variant _ -> 1 | Repository.Repo.Load _ -> 2

let cmd_variants_init dir schema_arg =
  let* schema = load_schema schema_arg in
  let* _ = Repository.Repo.init dir schema in
  Printf.printf "initialized %s for schema %s\n" dir schema.s_name;
  0

let cmd_variants_list dir =
  with_variant_repo dir (fun repo ->
      print_endline (Repository.Repo.catalog repo);
      0)

let cmd_variants_new dir name =
  with_variant_repo dir (fun repo ->
      let* _ = Repository.Repo.create_variant repo name in
      Printf.printf "variant %s created\n" name;
      0)

let cmd_variants_apply dir name log_path =
  with_variant_repo dir (fun repo ->
      match Repository.Repo.open_variant repo name with
      | Error e -> variant_error e
      | Ok session -> (
          let* steps = load_log log_path in
          match Core.Oplog.replay_on session steps with
          | Error e ->
              prerr_endline (Core.Apply.error_to_string e);
              1
          | Ok session ->
              let* () = Repository.Repo.save_variant repo name session in
              Printf.printf "%d operation(s) applied to %s\n"
                (List.length steps) name;
              0))

let cmd_variants_interop dir a b =
  with_variant_repo dir (fun repo ->
      match Repository.Repo.interop_report repo a b with
      | Ok text ->
          print_string text;
          0
      | Error e -> variant_error e)

let cmd_variants_affinity dir =
  with_variant_repo dir (fun repo ->
      print_string (Repository.Repo.affinity_matrix repo);
      0)

(* Check (and with --salvage repair) a repository directory; the exit
   class (0 clean, 1 salvaged or derived-only damage, 2 corrupt) and the
   report are [Repository.Repo.fsck_dir]'s. *)
let cmd_fsck dir salvage =
  match Repository.Repo.fsck_dir ~salvage dir with
  | Ok (code, lines) ->
      List.iter print_endline lines;
      code
  | Error m ->
      prerr_endline m;
      2

(* Serve a multi-variant repository to concurrent designer sessions over
   a Unix domain socket or TCP.  SIGTERM/SIGINT drain gracefully:
   in-flight requests finish, dirty sessions are snapshotted, locks
   released.  With --shards N (N >= 2) this process becomes a
   variant-hashing router over supervised worker processes (each a plain
   single-process `swsd serve` on its own Unix socket).

   Replication (DESIGN.md §14): --replicate accepts follower streams;
   --follow ADDR serves this directory as a read-only replica of the
   leader at ADDR; --replicas N supervises a leader plus N followers and
   promotes a follower if the leader dies; --promote-from DIR recovers a
   dead leader's directory into this one and fences the old era before
   serving (what the supervisor passes to the follower it promotes).
   The decisions live in [Server.Serve]; this is flags and banners. *)
let cmd_serve dir socket listen shards shard_id shard_total no_obs
    flush_linger_ms flush_max_batch fsync_delay_ms replicate follow replicas
    promote_from era =
  let listen_spec =
    match listen with
    | Some s -> Server.Protocol.parse_address s
    | None ->
        Result.Ok
          (Server.Protocol.Unix_path
             (match socket with
             | Some p -> p
             | None -> Filename.concat dir "swsd.sock"))
  in
  let module Sup = Server.Supervisor in
  match
    Result.bind listen_spec (fun listen ->
        Result.map
          (fun topology -> (listen, topology))
          (Server.Serve.topology ~shards ~replicas ~replicate ~follow
             ~promote_from))
  with
  | Error m ->
      prerr_endline m;
      1
  | Ok (listen, Some topology) -> (
      let workers =
        Sup.create ~exe:Sys.executable_name ~dir topology
          ~worker_args:
            (Server.Serve.worker_flags ~no_obs ~flush_linger_ms
               ~flush_max_batch ~fsync_delay_ms)
      in
      let fail m =
        Sup.stop workers;
        prerr_endline m;
        1
      in
      match (Sup.start workers, topology) with
      | Error m, _ -> fail m
      | Ok (), Sup.Sharded n -> (
          let obs = if no_obs then Obs.noop else Obs.create () in
          match Server.Router.create ~obs ~listen workers with
          | Error m -> fail m
          | Ok router ->
              Server.Transport.on_stop_signals (fun () ->
                  Server.Router.stop router);
              Printf.printf "serving %s on %s (%d shards)\n%!" dir
                (Server.Protocol.address_to_string
                   (Server.Router.listen_address router))
                n;
              Server.Router.run router;
              Sup.stop workers;
              print_endline "server stopped";
              0)
      | Ok (), Sup.Replicated k ->
          let stopping = Atomic.make false in
          Server.Transport.on_stop_signals (fun () -> Atomic.set stopping true);
          Printf.printf "serving %s on %s (leader, %d replicas)\n" dir
            (Sup.socket workers Sup.Leader)
            k;
          for j = 0 to k - 1 do
            Printf.printf "replica %d (readonly) on %s\n%!" j
              (Sup.socket workers (Sup.Follower j))
          done;
          while not (Atomic.get stopping) do
            Thread.delay 0.2
          done;
          Sup.stop workers;
          print_endline "pool stopped";
          0)
  | Ok (listen, None) -> (
      let obs = if no_obs then Obs.noop else Obs.create () in
      (* benchmarks model a slower disk *)
      let io =
        Repository.Io.with_fsync_delay (fsync_delay_ms /. 1000.0)
          Repository.Io.unix
      in
      let instance_notes =
        (match shard_id with
        | Some k -> [ ("instance.shard", string_of_int k) ]
        | None -> [])
        @ [ ("instance.listen", Server.Protocol.address_to_string listen) ]
      in
      let shard_span =
        match (shard_id, shard_total) with
        | Some k, Some n when n >= 2 -> Some (k, n)
        | _ -> None
      in
      let base_config extra_notes =
        {
          Server.Service.default_config with
          flush_linger = Float.max 0.0 flush_linger_ms /. 1000.0;
          flush_max_batch = max 1 flush_max_batch;
          instance_notes = extra_notes @ instance_notes;
          shard_span;
        }
      in
      let serve_one ~banner make_server cleanup =
        let* server = make_server () in
        Server.Transport.on_stop_signals (fun () -> Server.stop server);
        Printf.printf "%s on %s\n%!" banner
          (Server.Protocol.address_to_string (Server.listen_address server));
        let failures = Server.run server in
        cleanup ();
        List.iter
          (fun (variant, reason) ->
            Printf.eprintf
              "warning: %s: snapshot failed (%s); journal remains \
               authoritative\n"
              variant reason)
          failures;
        print_endline "server stopped";
        0
      in
      match follow with
      | Some leader_spec ->
          (* follower: replicate the leader's repository into [dir] and
             serve it read-only; reconnects and re-bootstraps on its own *)
          let* leader = Server.Protocol.parse_address leader_spec in
          let config = base_config [ ("instance.role", "follower") ] in
          let* follower =
            Server.Replication.Follower.create ~config ~io ~obs ~leader dir
          in
          serve_one
            ~banner:(Printf.sprintf "following %s into %s" leader_spec dir)
            (fun () ->
              Server.of_service ~listen
                (Server.Replication.Follower.service follower))
            (fun () -> Server.Replication.Follower.stop follower)
      | None -> (
          (* leader (or plain single server) *)
          match Server.Serve.writer ~io ?promote_from ~replicate ~era dir with
          | Error m ->
              prerr_endline ("promotion failed: " ^ m);
              1
          | Ok w ->
              (match (w.promoted, promote_from) with
              | Some (new_era, outcomes), Some src ->
                  List.iter
                    (function
                      | v, Ok () ->
                          Printf.printf "promoted variant %s from %s\n" v src
                      | v, Error m ->
                          Printf.eprintf
                            "warning: variant %s not recovered during \
                             promotion: %s\n"
                            v m)
                    outcomes;
                  Printf.printf "promotion complete: era %d\n%!" new_era
              | _ -> ());
              Option.iter
                (Printf.printf "adopting write era %d from the store\n%!")
                w.adopted;
              let config =
                base_config
                  ((if w.replicate then [ ("instance.role", "leader") ]
                    else [])
                  @
                  if w.era > 0 then [ ("instance.era", string_of_int w.era) ]
                  else [])
              in
              serve_one
                ~banner:(Printf.sprintf "serving %s" dir)
                (fun () ->
                  Server.create ~config:{ config with era = w.era } ~obs ~io
                    ~replicate:w.replicate ~listen dir)
                (fun () -> ())))

(* Send request lines to a running server in one session and print the
   last reply's body: stdout and exit 0 on [!ok]; otherwise the error (a
   refused reply, or a server that cannot be reached) on stderr and exit
   1.  The socket subcommands below are thin shells over this — the
   server does the work, through its lock manager and commit pipeline, so
   concurrent designers are undisturbed. *)
let cmd_request addr lines =
  let* body = Server.Client.call addr lines in
  List.iter print_endline body;
  0

(* Ask a running server for its observability snapshot; refused under
   --no-obs.  Unlike the other socket commands, a refused reply keeps its
   body on stdout and puts only the status line on stderr. *)
let cmd_stats socket json =
  match
    Server.Client.call socket [ (if json then "@stats json" else "@stats") ]
  with
  | Result.Ok body ->
      List.iter print_endline body;
      0
  | Result.Error m ->
      (match List.rev (String.split_on_char '\n' m) with
      | status :: rev_body ->
          List.iter print_endline (List.rev rev_body);
          prerr_endline status
      | [] -> ());
      1

(* Ask a running server (leader, follower, or router front end) one
   [@query].  [--variant V] attaches readonly first; [all]-scoped and
   [explain] queries need no attachment. *)
let cmd_query addr variant expr =
  cmd_request addr
    ((match variant with None -> [] | Some v -> [ "@open " ^ v ^ " readonly" ])
    @ [ "@query " ^ expr ])

let cmd_branch addr parent child at =
  cmd_request addr
    [
      ("@branch " ^ parent ^ " " ^ child
      ^ match at with None -> "" | Some n -> " @at " ^ string_of_int n);
    ]

let cmd_merge addr source dest dry_run =
  cmd_request addr
    [
      ("@merge " ^ source ^ " into " ^ dest
      ^ if dry_run then " --dry-run" else "");
    ]

let cmd_examples () =
  List.iter
    (fun (name, f) -> print_endline (name ^ ": " ^ Core.Render.summary (f ())))
    builtins;
  0

(* --- cmdliner wiring ----------------------------------------------------- *)

open Cmdliner

let schema_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SCHEMA" ~doc:"ODL file or built-in schema name.")

let concept_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"CONCEPT" ~doc:"Concept schema id, e.g. ww:Course.")

let log_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"LOG" ~doc:"Operation log file (@ww/@gh/@ah/@ih lines).")

let save_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~docv:"DIR" ~doc:"Repository directory to save on exit.")

let paranoid_arg =
  Arg.(
    value & flag
    & info [ "paranoid" ]
        ~doc:
          "Cross-check the indexed engine against the naive reference \
           checker (full-scan oracle); abort with exit code 2 on any \
           divergence.")

let term_of f = Term.(const (fun x -> Stdlib.exit (f x)) $ schema_arg)

let decompose_cmd =
  Cmd.v
    (Cmd.info "decompose" ~doc:"List the concept schemas of a shrink wrap schema")
    (term_of cmd_decompose)

let show_cmd =
  Cmd.v
    (Cmd.info "show" ~doc:"Render one concept schema")
    Term.(const (fun s c -> Stdlib.exit (cmd_show s c)) $ schema_arg $ concept_arg)

let check_cmd =
  Cmd.v
    (Cmd.info "check" ~doc:"Run the consistency checks on a schema")
    Term.(
      const (fun s p -> Stdlib.exit (cmd_check s p)) $ schema_arg $ paranoid_arg)

let custom_cmd =
  Cmd.v
    (Cmd.info "custom" ~doc:"Replay an operation log and print the custom schema")
    Term.(
      const (fun s l p -> Stdlib.exit (cmd_custom s l p))
      $ schema_arg $ log_arg $ paranoid_arg)

let report_cmd =
  Cmd.v
    (Cmd.info "report" ~doc:"Replay an operation log and print all deliverables")
    Term.(
      const (fun s l p -> Stdlib.exit (cmd_report s l p))
      $ schema_arg $ log_arg $ paranoid_arg)

let readonly_arg =
  Arg.(
    value & flag
    & info [ "readonly" ]
        ~doc:
          "Browse without write access: mutating commands (apply, undo, \
           redo, alias, data, source, save) are refused.  Cannot be \
           combined with $(b,--save).")

let repl_cmd =
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive shrink wrap schema designer")
    Term.(
      const (fun s d p r -> Stdlib.exit (cmd_repl s d p r))
      $ schema_arg $ save_arg $ paranoid_arg $ readonly_arg)

let schema_b_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"TARGET" ~doc:"Target schema (ODL file or built-in name).")

let sketch_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "sketch" ] ~docv:"SCHEMA"
        ~doc:"Application sketch to rank the library against.")

let library_dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Directory of .odl schema files.")

let affinity_cmd =
  Cmd.v
    (Cmd.info "affinity" ~doc:"Measure the semantic affinity of two schemas")
    Term.(
      const (fun a b -> Stdlib.exit (cmd_affinity a b)) $ schema_arg $ schema_b_arg)

let library_cmd =
  Cmd.v
    (Cmd.info "library"
       ~doc:"Browse a schema library, or rank it against an application sketch")
    Term.(
      const (fun d s -> Stdlib.exit (cmd_library d s)) $ library_dir_arg $ sketch_arg)

let diff_cmd =
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Infer the operation log transforming one schema into another")
    Term.(const (fun a b -> Stdlib.exit (cmd_diff a b)) $ schema_arg $ schema_b_arg)

let explain_cmd =
  Cmd.v
    (Cmd.info "explain" ~doc:"Explain a concept schema in prose")
    Term.(const (fun s c -> Stdlib.exit (cmd_explain s c)) $ schema_arg $ concept_arg)

let optional_concept_arg =
  Arg.(
    value
    & pos 1 (some string) None
    & info [] ~docv:"CONCEPT" ~doc:"Optional concept schema id.")

let graph_cmd =
  Cmd.v
    (Cmd.info "graph" ~doc:"Emit a schema or concept schema as Graphviz DOT")
    Term.(
      const (fun s c -> Stdlib.exit (cmd_graph s c))
      $ schema_arg $ optional_concept_arg)

let repo_dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Variant repository directory.")

let variants_cmd =
  let init =
    Cmd.v
      (Cmd.info "init" ~doc:"Initialize a variant repository for a schema")
      Term.(
        const (fun d s -> Stdlib.exit (cmd_variants_init d s))
        $ repo_dir_arg
        $ Arg.(
            required
            & pos 1 (some string) None
            & info [] ~docv:"SCHEMA" ~doc:"ODL file or built-in name."))
  in
  let list =
    Cmd.v
      (Cmd.info "list" ~doc:"Catalog the variants")
      Term.(const (fun d -> Stdlib.exit (cmd_variants_list d)) $ repo_dir_arg)
  in
  let new_ =
    Cmd.v
      (Cmd.info "new" ~doc:"Create a fresh variant")
      Term.(
        const (fun d n -> Stdlib.exit (cmd_variants_new d n))
        $ repo_dir_arg
        $ Arg.(
            required
            & pos 1 (some string) None
            & info [] ~docv:"NAME" ~doc:"Variant name."))
  in
  let apply =
    Cmd.v
      (Cmd.info "apply" ~doc:"Apply an operation log to a variant")
      Term.(
        const (fun d n l -> Stdlib.exit (cmd_variants_apply d n l))
        $ repo_dir_arg
        $ Arg.(
            required
            & pos 1 (some string) None
            & info [] ~docv:"NAME" ~doc:"Variant name.")
        $ Arg.(
            required
            & pos 2 (some string) None
            & info [] ~docv:"LOG" ~doc:"Operation log file."))
  in
  let interop =
    Cmd.v
      (Cmd.info "interop"
         ~doc:"Interoperation report between two variants (common objects)")
      Term.(
        const (fun d a b -> Stdlib.exit (cmd_variants_interop d a b))
        $ repo_dir_arg
        $ Arg.(
            required
            & pos 1 (some string) None
            & info [] ~docv:"A" ~doc:"First variant.")
        $ Arg.(
            required
            & pos 2 (some string) None
            & info [] ~docv:"B" ~doc:"Second variant."))
  in
  let affinity =
    Cmd.v
      (Cmd.info "affinity" ~doc:"Pairwise affinity matrix of the variants")
      Term.(const (fun d -> Stdlib.exit (cmd_variants_affinity d)) $ repo_dir_arg)
  in
  Cmd.group
    (Cmd.info "variants"
       ~doc:"Manage a multi-variant repository (one shrink wrap schema, many              derived designs)")
    [ init; list; new_; apply; interop; affinity ]

let sql_cmd =
  Cmd.v
    (Cmd.info "sql" ~doc:"Translate a schema to relational DDL")
    (term_of cmd_sql)

let er_cmd =
  Cmd.v
    (Cmd.info "er" ~doc:"Translate a schema to an entity-relationship model")
    (term_of cmd_er)

let data_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"DATA" ~doc:"Object store file.")

let data2_arg =
  Arg.(
    required
    & pos 2 (some string) None
    & info [] ~docv:"DATA" ~doc:"Object store file.")

let oql_cmd =
  Cmd.v
    (Cmd.info "oql" ~doc:"Run an OQL query over an object store")
    Term.(
      const (fun s d q -> Stdlib.exit (cmd_oql s d q))
      $ schema_arg $ data_arg
      $ Arg.(
          required
          & pos 2 (some string) None
          & info [] ~docv:"QUERY" ~doc:"e.g. 'select Person where name = \"A\"'"))

let query_cmd =
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Query a running server's repository: interface names, \
          attributes, ISA/part-of reachability, wagon-wheel \
          neighborhoods, version diffs — served lock-free from the \
          view published with each snapshot (see LANGUAGE.md)")
    Term.(
      const (fun a v e -> Stdlib.exit (cmd_query a v e))
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"ADDR"
              ~doc:"The server's Unix socket path, or HOST:PORT for TCP.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "variant" ] ~docv:"V"
              ~doc:
                "Attach (readonly) to this variant first.  Required unless \
                 the query is $(b,all)-scoped or $(b,explain).")
      $ Arg.(
          required
          & pos 1 (some string) None
          & info [] ~docv:"QUERY"
              ~doc:
                "e.g. 'name \"Course*\"', 'all attr units', 'isa Person \
                 down', 'wheel Course', 'diff 4'"))

let data_check_cmd =
  Cmd.v
    (Cmd.info "data-check" ~doc:"Validate an object store against a schema")
    Term.(
      const (fun s d -> Stdlib.exit (cmd_data_check s d)) $ schema_arg $ data_arg)

let migrate_data_cmd =
  Cmd.v
    (Cmd.info "migrate-data"
       ~doc:"Migrate an object store through a customization log")
    Term.(
      const (fun s l d -> Stdlib.exit (cmd_migrate_data s l d))
      $ schema_arg $ log_arg $ data2_arg)

let quality_cmd =
  Cmd.v
    (Cmd.info "quality" ~doc:"Assess how well-crafted a schema is")
    (term_of cmd_quality)

let salvage_arg =
  Arg.(
    value & flag
    & info [ "salvage" ]
        ~doc:
          "Rewrite a damaged repository from its best recoverable state \
           (longest replayable journal prefix) and sweep stale temporary \
           files.")

let fsck_cmd =
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Check the integrity of a repository directory (a session store or \
          a variants repository) and optionally salvage it.  Exit status: 0 \
          the repository is clean; 1 damage was found and --salvage repaired \
          it, or found only in what recovery does not read (the checkpoint, \
          stale temporary files); 2 the repository is corrupt (damage present and not repaired, \
          or the path is not a repository).  Multi-variant repositories \
          report the worst variant's status.")
    Term.(
      const (fun d s -> Stdlib.exit (cmd_fsck d s)) $ repo_dir_arg $ salvage_arg)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a variant repository to concurrent designer sessions over a \
          Unix domain socket or TCP (line protocol; graceful drain on \
          SIGTERM).  With --shards N, route variants across a supervised \
          pool of worker processes by consistent hashing.  With --replicate \
          / --follow / --replicas, ship acked journal records to read-only \
          follower processes and promote one if the leader dies.")
    Term.(
      const (fun d s l sh sid st n lm mb fd rep fo nrep pf er ->
          Stdlib.exit (cmd_serve d s l sh sid st n lm mb fd rep fo nrep pf er))
      $ repo_dir_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "socket" ] ~docv:"PATH"
              ~doc:"Unix socket path (default: DIR/swsd.sock).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "listen" ] ~docv:"ADDR"
              ~doc:
                "Listen address: a Unix socket path, or HOST:PORT for TCP \
                 (port 0 picks a free port).  Overrides $(b,--socket).")
      $ Arg.(
          value & opt int 1
          & info [ "shards" ] ~docv:"N"
              ~doc:
                "Run N worker processes and route variants onto them by \
                 consistent hashing (rendezvous over the variant name); \
                 this process becomes the accept/router front end and \
                 restarts workers that crash.  Default 1: serve in-process.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "shard-id" ] ~docv:"K"
              ~doc:
                "Identity note reported in @stats (set by the router when \
                 it spawns workers; rarely useful by hand).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "shard-total" ] ~docv:"N"
              ~doc:
                "Total shard count of the pool this worker belongs to (set \
                 by the router alongside --shard-id): restricts @query all \
                 to the variants this shard owns under the router's \
                 consistent hash, so fan-out answers merge without \
                 duplicates.")
      $ Arg.(
          value & flag
          & info [ "no-obs" ]
              ~doc:
                "Disable observability: every metric, histogram, and trace \
                 hook becomes a no-op, and @stats reports an error.")
      $ Arg.(
          value & opt float 2.0
          & info [ "flush-linger-ms" ] ~docv:"MS"
              ~doc:
                "Group commit: maximum time a journal record waits for \
                 company before its batch is flushed anyway (default 2ms; \
                 idle lanes flush immediately).")
      $ Arg.(
          value & opt int 64
          & info [ "flush-max-batch" ] ~docv:"N"
              ~doc:
                "Group commit: flush a batch as soon as it holds this many \
                 records (default 64).")
      $ Arg.(
          value & opt float 0.0
          & info [ "fsync-delay-ms" ] ~docv:"MS"
              ~doc:
                "Stretch every fsync by this many milliseconds (benchmarks: \
                 model a slower disk; default 0).")
      $ Arg.(
          value & flag
          & info [ "replicate" ]
              ~doc:
                "Accept replication followers: a connection that sends \
                 $(b,@follow) receives the acked journal stream (bootstrap \
                 snapshots, then every durable record in stamp order) \
                 instead of the line protocol.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "follow" ] ~docv:"ADDR"
              ~doc:
                "Serve this directory as a read-only replica of the leader \
                 at ADDR (a Unix socket path or HOST:PORT).  The repository \
                 is bootstrapped from the leader's snapshot stream, then \
                 kept current by replaying its acked journal records; \
                 clients attach with $(b,@open <variant> readonly) and see \
                 bounded staleness (a follower's #version stamp never \
                 exceeds the leader's).  Reconnects with jittered backoff \
                 and re-bootstraps after any gap.")
      $ Arg.(
          value & opt int 0
          & info [ "replicas" ] ~docv:"N"
              ~doc:
                "Supervise a leader plus N follower processes: the leader \
                 serves DIR on $(i,DIR)/leader.sock with --replicate, each \
                 follower serves $(i,DIR)/replica-$(i,k) on \
                 $(i,DIR)/replica-$(i,k).sock.  Dead followers respawn in \
                 place; a dead leader is replaced by promoting the first \
                 live follower onto the leader's socket (--promote-from), \
                 fencing the old generation.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "promote-from" ] ~docv:"DIR"
              ~doc:
                "Before serving, recover the (dead) leader repository at \
                 DIR into this directory — every acked write is in its \
                 journal; a torn tail is unacknowledged — and fence both \
                 stores at a fresh era so the old leader, if it ever \
                 restarts without promotion, is refused at session load.  \
                 Implies --replicate.")
      $ Arg.(
          value & opt int 0
          & info [ "era" ] ~docv:"N"
              ~doc:
                "This writer's replication era (default 0; raised \
                 automatically by --promote-from).  A variant whose store \
                 manifest carries a higher era was taken over by a newer \
                 writer and is refused at session load."))

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Fetch the observability snapshot (request counters, latency \
          histogram quantiles, lock contention, breaker state, recent \
          traces) from a running server")
    Term.(
      const (fun s j -> Stdlib.exit (cmd_stats s j))
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"ADDR"
              ~doc:"The server's Unix socket path, or HOST:PORT for TCP.")
      $ Arg.(
          value & flag
          & info [ "json" ] ~doc:"Emit the snapshot as one JSON object."))

let addr_pos0_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"ADDR"
        ~doc:"The server's Unix socket path, or HOST:PORT for TCP.")

let branch_cmd =
  Cmd.v
    (Cmd.info "branch"
       ~doc:
         "Fork a variant on a running server: $(b,swsd branch ADDR V W) \
          copies variant V to a new variant W with a lineage record \
          (parent, fork stamp), crash-safely, without locking V — \
          designers attached to V are undisturbed")
    Term.(
      const (fun a p c at -> Stdlib.exit (cmd_branch a p c at))
      $ addr_pos0_arg
      $ Arg.(
          required
          & pos 1 (some string) None
          & info [] ~docv:"PARENT" ~doc:"The variant to branch from.")
      $ Arg.(
          required
          & pos 2 (some string) None
          & info [] ~docv:"CHILD" ~doc:"The new variant's name.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "at" ] ~docv:"N"
              ~doc:
                "Branch after the parent's first N committed operations \
                 instead of its tip."))

let merge_cmd =
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Merge one variant's work into another on a running server: \
          $(b,swsd merge ADDR W V) rebases the operations W made since \
          its fork onto V's current state.  Each operation replays \
          through the permission matrix and the consistency checker; \
          conflicts are reported in the impact report, never silently \
          applied.  $(b,--dry-run) classifies without changing anything")
    Term.(
      const (fun a s d n -> Stdlib.exit (cmd_merge a s d n))
      $ addr_pos0_arg
      $ Arg.(
          required
          & pos 1 (some string) None
          & info [] ~docv:"SOURCE" ~doc:"The branch to merge from.")
      $ Arg.(
          required
          & pos 2 (some string) None
          & info [] ~docv:"DEST" ~doc:"The variant to merge into.")
      $ Arg.(
          value & flag
          & info [ "dry-run" ]
              ~doc:"Classify and report only; mutate nothing."))

let examples_cmd =
  Cmd.v
    (Cmd.info "examples" ~doc:"List the built-in example schemas")
    Term.(const (fun () -> Stdlib.exit (cmd_examples ())) $ const ())

let () =
  let info =
    Cmd.info "swsd" ~version:"1.0.0"
      ~doc:"Shrink wrap schema-based database design with concept schemas"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            decompose_cmd; show_cmd; check_cmd; custom_cmd; report_cmd; repl_cmd;
            diff_cmd; explain_cmd; affinity_cmd; library_cmd; graph_cmd;
            sql_cmd; er_cmd; quality_cmd; data_check_cmd; migrate_data_cmd;
            oql_cmd;
            variants_cmd; serve_cmd; query_cmd; stats_cmd; fsck_cmd;
            branch_cmd; merge_cmd; examples_cmd;
          ]))
