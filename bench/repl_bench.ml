(* P16: follower read scale-out and promotion-to-first-ack.

   Two claims under test.

   First, read scale-out: an swsd process is one OCaml runtime — its
   threads interleave on a single core, so read throughput has a
   single-process ceiling however cheap the lock-free snapshot reads are.
   Followers replicate the published state into separate processes, so
   spreading read-only clients over K followers multiplies the read
   pipelines while the leader keeps absorbing writes.  Cells run K in
   [0; 1; 2]: K = 0 serves every reader from the leader (the ceiling);
   K >= 1 spreads the same readers round-robin over the followers.  One
   writer thread drives the leader throughout, so followers are applying
   the live stream while they serve.

   Second, promotion-to-first-ack: after the K = 2 cell the leader is
   killed with SIGKILL and the clock runs until a write is acknowledged
   on the promoted follower (supervisor tick, fsck recovery of the dead
   leader's journal, era fence, socket takeover, connect, @open, apply).

   Topology per cell: a real-filesystem repository and a
   {!Server.Supervisor} of real [swsd serve] processes (the leader
   with --replicate, followers with --follow), exactly what `swsd serve
   --replicas K` runs.  6 read clients issue `quality` (an
   analysis-heavy read, over a 40-attribute pre-grown schema, so the
   server core and not the bench client is the measured ceiling) over
   their readonly attach; the writer alternates add/delete on the
   leader.

   Reported per cell: aggregate reads/s, read p99, writes/s.  Regression
   gates (exit 1): K = 2 aggregate reads/s must be >= 1.3x the K = 0
   cell — binding only when >= 4 cores are visible, since the claim is
   about escaping one process's core and needs leader, followers, and
   client on cores of their own — and promotion-to-first-ack must land
   inside its budget (always binding).

   Knobs: SWSD_REPL_SECS (seconds per cell, default 2.0),
   SWSD_REPL_PROMOTE_BUDGET_S (promotion budget, default 15). *)

module Repo = Repository.Repo
module Protocol = Server.Protocol
module Supervisor = Server.Supervisor
module Client = Server.Client
open Util

let schema_text =
  "interface Person { attribute string name; attribute int age; };\n\
   interface Course { attribute string title; attribute string code; };"

let levels = [ 0; 1; 2 ]
let readers = 6
let min_speedup = 1.3

let cell_secs () = env_float "SWSD_REPL_SECS" 2.0
let promote_budget () = env_float "SWSD_REPL_PROMOTE_BUDGET_S" 15.0

let must c line =
  match Client.request c line with
  | Some lines when List.mem "!ok" lines -> ()
  | Some lines ->
      failwith (Printf.sprintf "%s: %s" line (String.concat " | " lines))
  | None -> failwith (line ^ ": server hung up")

(* Attach readonly, riding out the window where a follower has not yet
   replicated the variant (bootstrap races the bench's connect). *)
let attach_readonly ~deadline c =
  let rec go () =
    match Client.request c "@open v readonly" with
    | Some lines when List.mem "!ok" lines -> ()
    | Some _ when Unix.gettimeofday () < deadline ->
        Thread.delay 0.05;
        go ()
    | Some lines ->
        failwith ("@open v readonly: " ^ String.concat " | " lines)
    | None -> failwith "@open v readonly: server hung up"
  in
  go ()

type cell = {
  replicas : int;
  reads : int;
  reads_per_s : float;
  read_p99_ms : float;
  writes_per_s : float;
}

let with_pool ~replicas f =
  let dir = tmp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (match Repo.init dir (Odl.Parser.parse_schema schema_text) with
      | Ok repo -> (
          match Repo.create_variant repo "v" with
          | Ok _ -> ()
          | Error e -> failwith e)
      | Error e -> failwith e);
      let pool =
        Supervisor.create ~exe:(swsd_exe ()) ~dir (Supervisor.Replicated replicas)
      in
      (match Supervisor.start pool with
      | Ok () -> ()
      | Error m ->
          Supervisor.stop pool;
          failwith m);
      Fun.protect ~finally:(fun () -> Supervisor.stop pool) (fun () ->
          f pool))

(* One measured cell: a writer hammers the leader while [readers] read
   clients issue `quality` over their readonly attach — on the leader
   when K = 0, round-robin over the followers otherwise.  The read is
   deliberately analysis-heavy and the schema pre-grown, so the measured
   ceiling is the server process's core, not the bench client's. *)
let grow_schema pool =
  let c =
    match
      Client.connect ~retry_for:10.0 (Supervisor.socket pool Supervisor.Leader)
    with
    | Ok c -> c
    | Error m -> failwith m
  in
  ignore (Client.read_response c);
  must c "@open v";
  must c "focus ww:Person";
  for k = 0 to 39 do
    must c (Printf.sprintf "apply add_attribute(Person, string, 8, g%d)" k)
  done;
  Client.close c

let measure ~replicas =
  with_pool ~replicas (fun pool ->
      grow_schema pool;
      let secs = cell_secs () in
      let read_socket k =
        if replicas = 0 then Supervisor.socket pool Supervisor.Leader
        else Supervisor.socket pool (Supervisor.Follower (k mod replicas))
      in
      let read_lats = Array.init readers (fun _ -> lats ()) in
      let writes = Atomic.make 0 in
      let ready = Atomic.make 0 and go = Atomic.make false in
      let t_end = ref infinity in
      let stop_writer = Atomic.make false in
      let deadline = Unix.gettimeofday () +. 30.0 in
      let writer =
        Thread.create
          (fun () ->
            let c =
              match
                Client.connect ~retry_for:10.0
                  (Supervisor.socket pool Supervisor.Leader)
              with
              | Ok c -> c
              | Error m -> failwith m
            in
            ignore (Client.read_response c);
            must c "@open v";
            must c "focus ww:Person";
            Atomic.incr ready;
            let k = ref 0 in
            while not (Atomic.get stop_writer) do
              let line =
                if !k land 1 = 0 then
                  Printf.sprintf "apply add_attribute(Person, string, 8, w%d)"
                    !k
                else Printf.sprintf "apply delete_attribute(Person, w%d)" (!k - 1)
              in
              must c line;
              Atomic.incr writes;
              incr k
            done;
            Client.close c)
          ()
      in
      let threads =
        List.init readers (fun k ->
            Thread.create
              (fun () ->
                let c =
                  match Client.connect ~retry_for:10.0 (read_socket k) with
                  | Ok c -> c
                  | Error m -> failwith m
                in
                ignore (Client.read_response c);
                attach_readonly ~deadline c;
                must c "quality" (* untimed warmup *);
                Atomic.incr ready;
                while not (Atomic.get go) do
                  Thread.yield ()
                done;
                while Unix.gettimeofday () < !t_end do
                  let t0 = Unix.gettimeofday () in
                  must c "quality";
                  observe read_lats.(k) (Unix.gettimeofday () -. t0)
                done;
                Client.close c)
              ())
      in
      while Atomic.get ready < readers + 1 do
        Thread.yield ()
      done;
      let w0 = Atomic.get writes in
      t_end := Unix.gettimeofday () +. secs;
      Atomic.set go true;
      List.iter Thread.join threads;
      let w1 = Atomic.get writes in
      Atomic.set stop_writer true;
      Thread.join writer;
      let all = lats () in
      Array.iter (fun l -> List.iter (observe all) l.xs) read_lats;
      {
        replicas;
        reads = all.n;
        reads_per_s = float_of_int all.n /. secs;
        read_p99_ms = p99_ms all;
        writes_per_s = float_of_int (w1 - w0) /. secs;
      })

(* SIGKILL the leader of a running pool and time the road back to an
   acknowledged write on the promoted follower. *)
let measure_promotion () =
  with_pool ~replicas:2 (fun pool ->
      (* some durable history so promotion has a journal to recover *)
      let c =
        match
          Client.connect ~retry_for:10.0 (Supervisor.socket pool Supervisor.Leader)
        with
        | Ok c -> c
        | Error m -> failwith m
      in
      ignore (Client.read_response c);
      must c "@open v";
      must c "focus ww:Person";
      for k = 0 to 19 do
        must c (Printf.sprintf "apply add_attribute(Person, string, 8, h%d)" k)
      done;
      Client.close c;
      let t0 = Unix.gettimeofday () in
      (match Supervisor.kill_leader pool with
      | Ok () -> ()
      | Error m -> failwith ("promotion: " ^ m));
      let c =
        match
          Client.connect ~retry_for:30.0 (Supervisor.socket pool Supervisor.Leader)
        with
        | Ok c -> c
        | Error m -> failwith ("promoted leader unreachable: " ^ m)
      in
      ignore (Client.read_response c);
      must c "@open v";
      must c "focus ww:Person";
      must c "apply add_attribute(Person, string, 8, after_promotion)";
      let dt = Unix.gettimeofday () -. t0 in
      Client.close c;
      (* the acked history must be on the new writer *)
      let promoted_dir = Supervisor.leader_dir pool in
      let log =
        In_channel.with_open_bin
          (Filename.concat promoted_dir "variants/v/log.ops")
          In_channel.input_all
      in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          if i + nn > nh then false
          else String.sub hay i nn = needle || go (i + 1)
        in
        go 0
      in
      for k = 0 to 19 do
        let needle = Printf.sprintf ", h%d)" k in
        if not (contains log needle) then
          failwith ("acked write lost across promotion: " ^ needle)
      done;
      dt)

let run ~json_path () =
  Printf.printf
    "P16: follower read scale-out, %d read clients + 1 writer, K replicas\n"
    readers;
  Printf.printf "  %-8s %10s %14s %10s\n" "replicas" "reads/s" "read p99 (ms)"
    "writes/s";
  let cells =
    List.map
      (fun replicas ->
        let c = measure ~replicas in
        Printf.printf "  %-8d %10.0f %14.3f %10.0f\n%!" c.replicas
          c.reads_per_s c.read_p99_ms c.writes_per_s;
        c)
      levels
  in
  let rate k = (List.find (fun c -> c.replicas = k) cells).reads_per_s in
  let speedup k = if rate 0 > 0.0 then rate k /. rate 0 else 0.0 in
  let s1 = speedup 1 and s2 = speedup 2 in
  Printf.printf "\n  read speedup over the leader-only cell: %.2fx at 1, %.2fx at 2\n"
    s1 s2;
  (* The scale-out claim is about escaping one process's core; proving it
     needs the leader, both followers, and the bench client on cores of
     their own.  On smaller machines the cells still run (followers must
     keep serving under load) but the speedup gate cannot bind — extra
     processes on a shared core only add context switches. *)
  let cores = Domain.recommended_domain_count () in
  let scaling_binding = cores >= 4 in
  if not scaling_binding then
    Printf.printf
      "  note: %d core(s) visible; the >= %.1fx gate needs >= 4 cores \
       (leader, 2 followers, client) and is not binding here\n"
      cores min_speedup;
  let promote_s = measure_promotion () in
  let budget = promote_budget () in
  Printf.printf "  promotion to first acked write: %.2f s (budget %.0f s)\n"
    promote_s budget;
  let scale_failed = scaling_binding && s2 < min_speedup in
  let promote_failed = promote_s > budget in
  let entry c =
    Printf.sprintf
      "    { \"replicas\": %d, \"reads\": %d, \"reads_per_s\": %.1f, \
       \"read_p99_ms\": %.3f, \"writes_per_s\": %.1f }"
      c.replicas c.reads c.reads_per_s c.read_p99_ms c.writes_per_s
  in
  let json =
    String.concat "\n"
      [
        "{";
        "  \"benchmark\": \"P16 journal-shipping replication (follower \
         read scale-out, promotion)\",";
        "  \"setup\": \"real-fs repo; a supervised pool of swsd processes \
         (leader --replicate, K followers --follow); 6 readonly clients \
         issuing quality round-robin over the followers (the leader when K \
         = 0) while one writer drives the leader; then SIGKILL the leader \
         and time the road to an acked write on the promoted follower\",";
        Printf.sprintf "  \"seconds_per_cell\": %.2f," (cell_secs ());
        Printf.sprintf "  \"read_clients\": %d," readers;
        Printf.sprintf "  \"speedup_1\": %.2f," s1;
        Printf.sprintf "  \"speedup_2\": %.2f," s2;
        Printf.sprintf
          "  \"scaling_gate\": { \"replicas\": 2, \"speedup\": %.2f, \
           \"min_speedup\": %.1f, \"cores\": %d, \"binding\": %b, \
           \"passed\": %b },"
          s2 min_speedup cores scaling_binding (not scale_failed);
        Printf.sprintf
          "  \"promotion\": { \"to_first_ack_s\": %.3f, \"budget_s\": %.1f, \
           \"passed\": %b },"
          promote_s budget (not promote_failed);
        "  \"results\": [";
        String.concat ",\n" (List.map entry cells);
        "  ]";
        "}";
        "";
      ]
  in
  let oc = open_out json_path in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s\n" json_path;
  if scale_failed then
    Printf.printf
      "FAIL: 2-follower aggregate read throughput is %.2fx the leader-only \
       cell (< %.1fx)\n"
      s2 min_speedup;
  if promote_failed then
    Printf.printf "FAIL: promotion took %.2f s (budget %.0f s)\n" promote_s
      budget;
  if scale_failed || promote_failed then exit 1
