(* The sharding front end: rendezvous-hash properties, a two-shard
   end-to-end pass through a real {!Server.Router} over real worker
   processes, and the kill -9 chaos criterion run over both transports
   (Unix socket and TCP).  Worker pids come from {!Server.Supervisor.pid}
   — never from pattern-matching process listings. *)

module Io = Repository.Io
module Store = Repository.Store
module Repo = Repository.Repo
module Protocol = Server.Protocol
module Router = Server.Router
module Supervisor = Server.Supervisor
module Client = Server.Client

let test = Util.test

let prop name ?(count = 500) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* --- hashing --------------------------------------------------------------- *)

let name_gen =
  QCheck2.Gen.(string_size ~gen:(char_range ' ' '~') (int_range 0 64))

let hash_total_and_stable =
  prop "router: shard_of is total and deterministic"
    QCheck2.Gen.(pair name_gen (int_range 1 16))
    (fun (name, shards) ->
      let k = Router.shard_of ~shards name in
      0 <= k && k < shards && Router.shard_of ~shards name = k)

(* the rendezvous property that plain [hash mod n] lacks: growing the pool
   by one shard only moves names onto the new shard, never between
   survivors *)
let hash_minimal_disruption =
  prop "router: adding a shard only moves names onto the new shard"
    QCheck2.Gen.(pair name_gen (int_range 1 15))
    (fun (name, shards) ->
      let before = Router.shard_of ~shards name in
      let after = Router.shard_of ~shards:(shards + 1) name in
      after = before || after = shards)

(* routing is part of the on-disk contract (the same variant must land on
   the same shard across router restarts and releases), so pin a few
   digests against accidental hash changes *)
let hash_pinned () =
  List.iter
    (fun (name, shards, want) ->
      Alcotest.(check int)
        (Printf.sprintf "shard_of ~shards:%d %S" shards name)
        want
        (Router.shard_of ~shards name))
    [
      ("alpha", 2, 1);
      ("alpha", 4, 3);
      ("alpha", 8, 7);
      ("beta", 4, 3);
      ("gamma", 2, 0);
      ("gamma", 8, 4);
      ("delta", 4, 1);
      ("night_school", 8, 0);
      ("university", 4, 1);
      ("", 4, 1);
    ]

let hash_balanced () =
  let shards = 4 in
  let counts = Array.make shards 0 in
  for i = 0 to 999 do
    let k = Router.shard_of ~shards (Printf.sprintf "v%d" i) in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun k n ->
      if n < 200 then
        Alcotest.failf "shard %d got only %d of 1000 names (skewed hash)" k n)
    counts

(* --- a real cluster: pool + router + workers ------------------------------- *)

let tiny () =
  Util.parse
    "interface Person { attribute string name; attribute int age; };\n\
     interface Course { attribute string title; attribute string code; };"

let apply_line tag = Printf.sprintf "apply add_attribute(Person, string, 8, %s)" tag

let tmp_dir = Util.tmp_dir
let rm_rf = Util.rm_rf

let with_watchdog ~secs ~name f =
  let finished = Atomic.make false in
  ignore
    (Thread.create
       (fun () ->
         let deadline = Unix.gettimeofday () +. secs in
         while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
           Thread.delay 0.05
         done;
         if not (Atomic.get finished) then begin
           Printf.eprintf "watchdog: %s still running after %.0fs (deadlock?)\n%!"
             name secs;
           Stdlib.exit 125
         end)
       ());
  Fun.protect ~finally:(fun () -> Atomic.set finished true) f

type cluster = {
  dir : string;
  pool : Supervisor.t;
  router : Router.t;
  runner : Thread.t;
  addr : Protocol.address;
}

(* tests run from _build/default/test, next to the built daemon *)
let exe = "../bin/swsd.exe"

let start_cluster ?(shards = 2) transport =
  let dir = tmp_dir () in
  (match Repo.init dir (tiny ()) with
  | Result.Ok _ -> ()
  | Result.Error e -> Alcotest.fail e);
  let pool = Supervisor.create ~exe ~dir (Supervisor.Sharded shards) in
  (match Supervisor.start pool with
  | Result.Ok () -> ()
  | Result.Error m ->
      Supervisor.stop ~grace:2.0 pool;
      Alcotest.fail m);
  let listen =
    match transport with
    | `Unix -> Protocol.Unix_path (Filename.concat dir "front.sock")
    | `Tcp -> Protocol.Tcp ("127.0.0.1", 0)
  in
  match Router.create ~obs:(Obs.create ()) ~connect_retry:10.0 ~listen pool with
  | Result.Error m ->
      Supervisor.stop ~grace:2.0 pool;
      Alcotest.fail m
  | Result.Ok router ->
      let runner = Thread.create (fun () -> Router.run router) () in
      { dir; pool; router; runner; addr = Router.listen_address router }

let stop_cluster cl =
  Router.stop cl.router;
  Thread.join cl.runner;
  Supervisor.stop ~grace:5.0 cl.pool

let connect cl =
  match Client.connect_to ~retry_for:10.0 cl.addr with
  | Result.Error m -> Alcotest.failf "connect to router: %s" m
  | Result.Ok c -> (
      match Client.read_response c with
      | Some greeting ->
          if not (List.mem "!ok" greeting) then
            Alcotest.failf "bad greeting: %s" (String.concat " | " greeting);
          c
      | None -> Alcotest.fail "no greeting from router")

let roundtrip c line =
  match Client.request c line with
  | Some lines -> lines
  | None -> Alcotest.failf "%s: router hung up" line

let expect_ok c line =
  let lines = roundtrip c line in
  if not (List.mem "!ok" lines) then
    Alcotest.failf "%s: %s" line (String.concat " | " lines);
  lines

let version_of line_ctx lines =
  let prefix = "#version " in
  let np = String.length prefix in
  match
    List.find_map
      (fun l ->
        if String.length l > np && String.sub l 0 np = prefix then
          int_of_string_opt (String.sub l np (String.length l - np))
        else None)
      lines
  with
  | Some v -> v
  | None -> Alcotest.failf "%s: !ok without #version" line_ctx

(* the first names rendezvous-hashing onto each of two shards *)
let pick_variant ~shards target =
  let rec go i =
    if i > 10_000 then Alcotest.failf "no name hashes to shard %d" target
    else
      let n = Printf.sprintf "v%d" i in
      if Router.shard_of ~shards n = target then n else go (i + 1)
  in
  go 0

(* --- two shards, end to end: #version monotone through the router ---------- *)

let two_shard_versions () =
  with_watchdog ~secs:120.0 ~name:"router two-shard versions" (fun () ->
      let cl = start_cluster `Unix in
      Fun.protect
        ~finally:(fun () -> rm_rf cl.dir)
        (fun () ->
          Fun.protect
            ~finally:(fun () -> stop_cluster cl)
            (fun () ->
              let va = pick_variant ~shards:2 0
              and vb = pick_variant ~shards:2 1 in
              let ca = connect cl and cb = connect cl in
              ignore (expect_ok ca ("@new " ^ va));
              ignore (expect_ok cb ("@new " ^ vb));
              ignore (expect_ok ca "focus ww:Person");
              ignore (expect_ok cb "focus ww:Person");
              (* interleave writes on both shards; each variant's stamp
                 must be strictly monotone as seen through the router *)
              let last_a = ref 0 and last_b = ref 0 in
              for k = 1 to 6 do
                let bump c variant last =
                  let line = apply_line (Printf.sprintf "%s_%d" variant k) in
                  let v = version_of line (expect_ok c line) in
                  if v <= !last then
                    Alcotest.failf "%s: #version %d after %d (not monotone)"
                      variant v !last;
                  last := v
                in
                bump ca va last_a;
                bump cb vb last_b
              done;
              (* reads through the router carry the stamp too, and never
                 run it backwards *)
              let v =
                version_of "log" (expect_ok ca "log")
              in
              Alcotest.(check bool) "read-your-writes through the router" true
                (v >= !last_a);
              (* both variants are visible via @list whichever shard
                 answers (the pool shares one repository directory) *)
              let listing = String.concat "\n" (expect_ok ca "@list") in
              List.iter
                (fun n ->
                  if not (Str_contains.contains listing n) then
                    Alcotest.failf "@list through the router misses %s" n)
                [ va; vb ];
              (* merged stats name every shard and the router itself *)
              let stats = String.concat "\n" (expect_ok ca "@stats json") in
              List.iter
                (fun key ->
                  if not (Str_contains.contains stats (Printf.sprintf "%S" key))
                  then Alcotest.failf "@stats json misses %S" key)
                [ "router"; "shard-0"; "shard-1" ];
              (* the acked writes are durable in each variant's journal *)
              List.iter
                (fun variant ->
                  let journal =
                    Io.unix.Io.read_file
                      (Filename.concat cl.dir
                         (Filename.concat "variants"
                            (Filename.concat variant "log.ops")))
                  in
                  Alcotest.(check bool)
                    (variant ^ ": acked write durable")
                    true
                    (Str_contains.contains journal (variant ^ "_6")))
                [ va; vb ];
              Client.close ca;
              Client.close cb)))

(* --- branch and merge through the router ----------------------------------- *)

let body_of lines =
  List.filter_map
    (fun l ->
      if String.length l >= 2 && String.sub l 0 2 = ". " then
        Some (String.sub l 2 (String.length l - 2))
      else None)
    lines

(* a name that rendezvous-hashes onto [target], distinct from the v%d
   namespace [pick_variant] draws from *)
let pick_branch_name ~shards target =
  let rec go i =
    if i > 10_000 then Alcotest.failf "no branch name hashes to shard %d" target
    else
      let n = Printf.sprintf "b%d" i in
      if Router.shard_of ~shards n = target then n else go (i + 1)
  in
  go 0

(* The parent lives on shard 0, the child hashes onto shard 1: @branch
   must route by the child, the design sessions by their own variants,
   and @merge by the destination.  The lineage listing must come back
   byte-identical whichever shard answers (it is derived from the shared
   repository directory, never from per-shard state). *)
let branch_merge_routed transport () =
  let tname = match transport with `Unix -> "unix socket" | `Tcp -> "tcp" in
  with_watchdog ~secs:120.0 ~name:("router branch/merge over " ^ tname)
    (fun () ->
      let cl = start_cluster transport in
      Fun.protect
        ~finally:(fun () -> rm_rf cl.dir)
        (fun () ->
          Fun.protect
            ~finally:(fun () -> stop_cluster cl)
            (fun () ->
              let parent = pick_variant ~shards:2 0 in
              let child = pick_branch_name ~shards:2 1 in
              let c = connect cl in
              ignore (expect_ok c ("@new " ^ parent));
              ignore (expect_ok c "focus ww:Person");
              ignore (expect_ok c (apply_line "pre_fork"));
              ignore (expect_ok c "@close");
              let blines =
                expect_ok c (Printf.sprintf "@branch %s %s" parent child)
              in
              let fork =
                match
                  List.find_map
                    (fun l ->
                      match String.rindex_opt l '@' with
                      | Some i when Str_contains.contains l "branched" ->
                          int_of_string_opt
                            (String.sub l (i + 1) (String.length l - i - 1))
                      | _ -> None)
                    blines
                with
                | Some n -> n
                | None ->
                    Alcotest.failf "no fork stamp in: %s"
                      (String.concat " | " blines)
              in
              (* independent design on both sides, each on its own shard *)
              ignore (expect_ok c ("@open " ^ child));
              ignore (expect_ok c "focus ww:Person");
              ignore (expect_ok c (apply_line "on_branch"));
              ignore (expect_ok c "@close");
              ignore (expect_ok c ("@open " ^ parent));
              ignore (expect_ok c "focus ww:Person");
              ignore (expect_ok c (apply_line "on_base"));
              ignore (expect_ok c "@close");
              (* dry run writes nothing *)
              let dry =
                expect_ok c
                  (Printf.sprintf "@merge %s into %s --dry-run" child parent)
              in
              Alcotest.(check bool) "dry run labelled" true
                (List.exists
                   (fun l -> Str_contains.contains l "(dry run)")
                   dry);
              let parent_journal () =
                Io.unix.Io.read_file
                  (Filename.concat cl.dir
                     (Filename.concat "variants"
                        (Filename.concat parent "log.ops")))
              in
              Alcotest.(check bool) "dry run left the destination alone" false
                (Str_contains.contains (parent_journal ()) "on_branch");
              let merged =
                expect_ok c (Printf.sprintf "@merge %s into %s" child parent)
              in
              Alcotest.(check bool) "merge reports through the router" true
                (List.exists
                   (fun l -> Str_contains.contains l "merge report")
                   merged);
              Alcotest.(check bool) "merged op durable on the destination" true
                (Str_contains.contains (parent_journal ()) "on_branch");
              (* the lineage listing: same bytes from both connections,
                 and exactly the two variants with their lineage *)
              let want =
                List.sort compare
                  [
                    Printf.sprintf "%s root era 0" parent;
                    Printf.sprintf "%s %s@%d era 0" child parent fork;
                  ]
              in
              let c2 = connect cl in
              Alcotest.(check (list string)) "lineage listing, first client"
                want
                (body_of (expect_ok c "@list"));
              Alcotest.(check (list string)) "lineage listing, second client"
                want
                (body_of (expect_ok c2 "@list"));
              (* lineage queries route to the child's shard; branches-of
                 is repository-scoped and any shard may answer *)
              ignore (expect_ok c ("@open " ^ child));
              Alcotest.(check bool) "child's lineage via the router" true
                (List.exists
                   (fun l ->
                     Str_contains.contains l
                       (Printf.sprintf "parent %s@%d" parent fork))
                   (body_of (expect_ok c "@query lineage")));
              Alcotest.(check (list string)) "branches-of via the router"
                [ Printf.sprintf "%s fork %d" child fork ]
                (body_of (expect_ok c2 ("@query branches of " ^ parent)));
              Client.close c;
              Client.close c2)))

(* --- chaos: kill -9 a worker mid-load, over both transports ---------------- *)

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

(* after shutdown the journals are authoritative: fsck (with salvage, as a
   crashed worker may have left a stale snapshot) must come back clean and
   every acked op must appear, in ack order *)
let check_clean_and_durable ~dir ~variant acked =
  let vdir = Filename.concat (Filename.concat dir "variants") variant in
  let report = Store.fsck ~salvage:true (Store.open_dir vdir) in
  (match report.Store.fsck_session with
  | Some _ -> ()
  | None -> Alcotest.failf "%s: no recoverable session after kill -9" variant);
  (match (Store.fsck (Store.open_dir vdir)).Store.fsck_issues with
  | [] -> ()
  | issues ->
      Alcotest.failf "%s: fsck issues after salvage: %s" variant
        (String.concat "; " issues));
  let journal = Io.unix.Io.read_file (Filename.concat vdir "log.ops") in
  ignore
    (List.fold_left
       (fun last tag ->
         match find_sub journal tag with
         | None -> Alcotest.failf "%s: acked op %s lost" variant tag
         | Some p ->
             if p < last then
               Alcotest.failf "%s: acked ops out of order at %s" variant tag;
             p)
       (-1) acked)

let ops_per_client = 16

(* One client thread, one variant: apply tagged ops until [ops_per_client]
   are acked.  [!busy]/[!retry-after] (the router's answer when its
   backend died mid-request) waits and retries with a FRESH tag — the
   router never resends a mutation, and neither do we: the interrupted
   attempt may or may not be durable, and only acked tags are asserted
   on.  [!err] after a worker restart (e.g. lost focus) repairs the
   session and retries, also fresh. *)
let chaos_client cl variant acked record_error =
  let c = connect cl in
  let send line =
    match Client.request c line with
    | Some lines -> lines
    | None ->
        record_error (Printf.sprintf "%s: %s: router hung up" variant line);
        [ "!err router hung up" ]
  in
  let busy lines = List.exists (fun l -> String.length l >= 5 && String.sub l 0 5 = "!busy") lines in
  let rec settle tries line =
    if tries > 200 then
      record_error (Printf.sprintf "%s: %s never settled" variant line)
    else
      let lines = send line in
      if busy lines then begin
        Thread.delay 0.05;
        settle (tries + 1) line
      end
  in
  settle 0 ("@open " ^ variant);
  settle 0 "focus ww:Person";
  for i = 0 to ops_per_client - 1 do
    let rec attempt tries =
      if tries > 200 then
        record_error
          (Printf.sprintf "%s: op %d never acked after %d tries" variant i tries)
      else
        let tag = Printf.sprintf "%s_op%d_try%d" variant i tries in
        let lines = send (apply_line tag) in
        if List.mem "!ok" lines then acked := tag :: !acked
        else if busy lines then begin
          Thread.delay 0.05;
          attempt (tries + 1)
        end
        else begin
          (* worker restarted under us: the router replays the @open, but
             session repair (refocus) is on us *)
          ignore (send ("@open " ^ variant));
          ignore (send "focus ww:Person");
          Thread.delay 0.02;
          attempt (tries + 1)
        end
    in
    attempt 0
  done;
  Client.close c

let chaos_kill9 transport () =
  let tname =
    match transport with `Unix -> "unix socket" | `Tcp -> "tcp"
  in
  with_watchdog ~secs:180.0 ~name:("router chaos kill -9 over " ^ tname)
    (fun () ->
      let cl = start_cluster transport in
      let stopped = ref false in
      let stop_once () =
        if not !stopped then begin
          stopped := true;
          stop_cluster cl
        end
      in
      Fun.protect
        ~finally:(fun () ->
          stop_once ();
          rm_rf cl.dir)
        (fun () ->
          let va = pick_variant ~shards:2 0
          and vb = pick_variant ~shards:2 1 in
          let first_error = Atomic.make None in
          let record_error m =
            ignore (Atomic.compare_and_set first_error None (Some m))
          in
          let acked_a = ref [] and acked_b = ref [] in
          (* create both variants before any kills, through the router *)
          let setup = connect cl in
          ignore (expect_ok setup ("@new " ^ va));
          ignore (expect_ok setup "@close");
          ignore (expect_ok setup ("@new " ^ vb));
          Client.close setup;
          let clients =
            [
              Thread.create (fun () -> chaos_client cl va acked_a record_error) ();
              Thread.create (fun () -> chaos_client cl vb acked_b record_error) ();
            ]
          in
          (* kill -9 each worker once, mid-load: wait for some acks, kill
             the pid the pool reports, wait for the supervisor's respawn *)
          let total () = List.length !acked_a + List.length !acked_b in
          let wait_until ?(bound = 60.0) what pred =
            let deadline = Unix.gettimeofday () +. bound in
            while (not (pred ())) && Unix.gettimeofday () < deadline do
              Thread.delay 0.02
            done;
            if not (pred ()) then
              record_error (Printf.sprintf "timed out waiting for %s" what)
          in
          List.iteri
            (fun round shard ->
              wait_until "mid-load ack threshold" (fun () ->
                  total () >= (round + 1) * 4);
              let pid = Supervisor.pid cl.pool (Supervisor.Shard shard) in
              if pid > 0 then Unix.kill pid Sys.sigkill
              else record_error (Printf.sprintf "shard %d had no pid to kill" shard);
              wait_until "supervisor respawn" (fun () ->
                  Supervisor.restarts cl.pool >= round + 1))
            [ 0; 1 ];
          List.iter Thread.join clients;
          Alcotest.(check bool) "supervisor respawned both kills" true
            (Supervisor.restarts cl.pool >= 2);
          (match Atomic.get first_error with
          | Some m -> Alcotest.fail m
          | None -> ());
          List.iter
            (fun (v, acked) ->
              Alcotest.(check int)
                (v ^ ": every op eventually acked")
                ops_per_client (List.length !acked))
            [ (va, acked_a); (vb, acked_b) ];
          (* stop everything, then audit the disk *)
          stop_once ();
          check_clean_and_durable ~dir:cl.dir ~variant:va (List.rev !acked_a);
          check_clean_and_durable ~dir:cl.dir ~variant:vb (List.rev !acked_b)))

(* [stop] with an idle client connected: [run] returns, the client is
   hung up on, and the front socket file is gone. *)
let stop_ends_idle_connections () =
  with_watchdog ~secs:60.0 ~name:"router stop with an idle client" (fun () ->
      let cl = start_cluster `Unix in
      Fun.protect
        ~finally:(fun () -> rm_rf cl.dir)
        (fun () ->
          Fun.protect
            ~finally:(fun () -> stop_cluster cl)
            (fun () ->
              let c = connect cl in
              Router.stop cl.router;
              Thread.join cl.runner;
              let hung_up =
                match Unix.select [ Client.fd c ] [] [] 1.0 with
                | [], _, _ -> false
                | _ -> Client.read_line c = None
              in
              Client.close c;
              Alcotest.(check bool) "the idle client reads EOF within 1 s" true
                hung_up;
              Alcotest.(check bool) "front socket removed" false
                (Sys.file_exists (Filename.concat cl.dir "front.sock")))))

let tests =
  [
    hash_total_and_stable;
    hash_minimal_disruption;
    test "router: pinned digests (routing is an on-disk contract)" hash_pinned;
    test "router: 1000 names spread evenly over 4 shards" hash_balanced;
    test "router: two shards end to end, #version monotone per variant"
      two_shard_versions;
    test "router: branch on one shard, merge on another (unix socket)"
      (branch_merge_routed `Unix);
    test "router: branch on one shard, merge on another (tcp)"
      (branch_merge_routed `Tcp);
    test "router: kill -9 a worker mid-load (unix socket), nothing acked lost"
      (chaos_kill9 `Unix);
    test "router: kill -9 a worker mid-load (tcp), nothing acked lost"
      (chaos_kill9 `Tcp);
    test "router: stop ends idle connections and removes the socket"
      stop_ends_idle_connections;
  ]
