(* The process supervisor and the [swsd serve] policy: which topology the
   flags select, the flags workers inherit, era adoption at a writer's
   start, and leader death at process level — a real leader and follower
   of [swsd serve] under {!Server.Supervisor}, the leader killed with
   SIGKILL mid-load and a follower promoted onto its socket. *)

module Io = Repository.Io
module Store = Repository.Store
module Repo = Repository.Repo
module Service = Server.Service
module Serve = Server.Serve
module Supervisor = Server.Supervisor
module Client = Server.Client

let test = Util.test

(* --- serve policy -------------------------------------------------------- *)

let topology_selection () =
  let pick ?(shards = 0) ?(replicas = 0) ?(replicate = false) ?follow
      ?promote_from () =
    Serve.topology ~shards ~replicas ~replicate ~follow ~promote_from
  in
  let expect label want got =
    if got <> want then Alcotest.failf "%s: unexpected topology" label
  in
  expect "no flags" (Ok None) (pick ());
  expect "--shards 1 is one process" (Ok None) (pick ~shards:1 ());
  expect "--shards 3" (Ok (Some (Supervisor.Sharded 3))) (pick ~shards:3 ());
  expect "--replicas 2" (Ok (Some (Supervisor.Replicated 2)))
    (pick ~replicas:2 ());
  expect "--replicate alone is one process" (Ok None) (pick ~replicate:true ());
  let refusal =
    "serve: --shards cannot be combined with \
     --replicate/--follow/--replicas/--promote-from (shard stores are \
     replicated individually)"
  in
  List.iter
    (fun (label, got) -> expect label (Error refusal) got)
    [
      ("--shards --replicate", pick ~shards:2 ~replicate:true ());
      ("--shards --follow", pick ~shards:2 ~follow:"x.sock" ());
      ("--shards --replicas", pick ~shards:2 ~replicas:1 ());
      ("--shards --promote-from", pick ~shards:2 ~promote_from:"d" ());
    ]

let worker_flags () =
  Alcotest.(check (list string))
    "defaults"
    [ "--flush-linger-ms"; "2."; "--flush-max-batch"; "64" ]
    (Serve.worker_flags ~no_obs:false ~flush_linger_ms:2.0 ~flush_max_batch:64
       ~fsync_delay_ms:0.0);
  Alcotest.(check (list string))
    "every flag passed on"
    [
      "--no-obs";
      "--flush-linger-ms";
      "0.5";
      "--flush-max-batch";
      "8";
      "--fsync-delay-ms";
      "2.";
    ]
    (Serve.worker_flags ~no_obs:true ~flush_linger_ms:0.5 ~flush_max_batch:8
       ~fsync_delay_ms:2.0)

(* DESIGN §14: the next clean start of a writer adopts the era its store
   already carries, so a once-promoted repository is not fenced against
   its own restart; an explicit higher era is kept. *)
let era_adoption () =
  let _, io = Test_server.mem_repo () in
  (match Repo.open_dir ~io "/repo" with
  | Result.Ok repo -> Store.fence (Repo.variant_store repo "v") ~era:2
  | Result.Error m -> Alcotest.fail m);
  let writer era =
    match Serve.writer ~io ~replicate:false ~era "/repo" with
    | Result.Ok w -> w
    | Result.Error m -> Alcotest.fail m
  in
  let w = writer 0 in
  Alcotest.(check int) "--era 0 selects the stored era" 2 w.Serve.era;
  Alcotest.(check (option int)) "adopted from the store" (Some 2) w.adopted;
  Alcotest.(check bool) "no promotion ran" true (w.promoted = None);
  let t =
    Test_server.service
      ~config:{ (Test_server.quick_config ()) with Service.era = w.era }
      io
  in
  let c = Service.connect t in
  ignore (Test_server.req_ok t c "@open v");
  ignore (Test_server.req_ok t c "focus ww:Person");
  ignore (Test_server.req_ok t c (Test_server.apply_line "adopted"));
  let w3 = writer 3 in
  Alcotest.(check int) "--era 3 is kept" 3 w3.era;
  Alcotest.(check (option int)) "nothing adopted" None w3.adopted

(* --- leader death at process level -------------------------------------- *)

(* tests run from _build/default/test, next to the built daemon *)
let exe = "../bin/swsd.exe"

let leader_kill9 () =
  Test_server.with_watchdog ~secs:120.0 ~name:"supervisor leader kill -9"
    (fun () ->
      (* a write racing the kill may hit a closed socket *)
      Server.Transport.ignore_sigpipe ();
      let dir = Util.tmp_dir () in
      (match Repo.init dir (Test_server.tiny ()) with
      | Result.Ok repo -> (
          match Repo.create_variant repo "v" with
          | Result.Ok _ -> ()
          | Result.Error e -> Alcotest.fail e)
      | Result.Error e -> Alcotest.fail e);
      let sup = Supervisor.create ~exe ~dir (Supervisor.Replicated 1) in
      Fun.protect
        ~finally:(fun () ->
          Supervisor.stop ~grace:5.0 sup;
          Util.rm_rf dir)
        (fun () ->
          (match Supervisor.start sup with
          | Result.Ok () -> ()
          | Result.Error m -> Alcotest.fail m);
          let socket = Supervisor.socket sup Supervisor.Leader in
          let attach () =
            match Client.connect ~retry_for:30.0 socket with
            | Result.Error m -> Alcotest.failf "leader unreachable: %s" m
            | Result.Ok c ->
                ignore (Client.read_response c);
                List.iter
                  (fun line ->
                    match Client.request c line with
                    | Some lines when List.mem "!ok" lines -> ()
                    | _ -> Alcotest.failf "%s refused" line)
                  [ "@open v"; "focus ww:Person" ];
                c
          in
          let acked = ref [] in
          let c = attach () in
          (* write until the leader dies under us; only acked tags count *)
          let writer =
            Thread.create
              (fun () ->
                let rec go k =
                  let tag = Printf.sprintf "k%d" k in
                  match Client.request c (Test_server.apply_line tag) with
                  | Some lines when List.mem "!ok" lines ->
                      acked := tag :: !acked;
                      go (k + 1)
                  | _ | (exception Unix.Unix_error _) -> ()
                in
                go 0;
                Client.close c)
              ()
          in
          let deadline = Unix.gettimeofday () +. 30.0 in
          while List.length !acked < 8 && Unix.gettimeofday () < deadline do
            Thread.delay 0.01
          done;
          if List.length !acked < 8 then Alcotest.fail "no writes acked";
          (match Supervisor.kill_leader sup with
          | Result.Ok () -> ()
          | Result.Error m -> Alcotest.fail m);
          Thread.join writer;
          Alcotest.(check int) "one promotion" 1 (Supervisor.promotions sup);
          let promoted = Supervisor.leader_dir sup in
          Alcotest.(check bool) "the follower's directory leads" true
            (promoted <> dir);
          let c = attach () in
          (match Client.request c (Test_server.apply_line "after") with
          | Some lines when List.mem "!ok" lines -> ()
          | _ -> Alcotest.fail "no write acked after promotion");
          Client.close c;
          let log =
            Io.unix.Io.read_file (Filename.concat promoted "variants/v/log.ops")
          in
          List.iter
            (fun tag ->
              if not (Str_contains.contains log ("8, " ^ tag ^ ")")) then
                Alcotest.failf "acked op %s lost across promotion" tag)
            ("after" :: !acked);
          Supervisor.stop ~grace:5.0 sup;
          List.iter
            (fun d ->
              let code, text = Test_cli.run [ "fsck"; d; "--salvage" ] in
              if code <> 0 && code <> 1 then
                Alcotest.failf "fsck %s exited %d:\n%s" d code text)
            [ dir; promoted ]))

let tests =
  [
    test "serve: the flags select the topology; --shards refuses replication"
      topology_selection;
    test "serve: workers inherit the tuning flags" worker_flags;
    test "serve: a writer adopts the era its store carries" era_adoption;
    test "supervisor: kill -9 the leader process, a follower is promoted, \
          nothing acked lost"
      leader_kill9;
  ]
