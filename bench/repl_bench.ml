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
   inside its budget (always binding). *)

module Supervisor = Server.Supervisor
open Util

let levels = [ 0; 1; 2 ]
let readers = 6
let min_speedup = 1.3
let promote_budget_s = 15.0

(* Attach readonly, riding out the window where a follower has not yet
   replicated the variant (bootstrap races the bench's connect); past
   [deadline] the refusal raises. *)
let rec attach_readonly ~deadline c =
  match Client.request c "@open v readonly" with
  | Some lines when List.mem "!ok" lines -> ()
  | Some _ when Unix.gettimeofday () < deadline ->
      Thread.delay 0.05;
      attach_readonly ~deadline c
  | _ -> must_remote c "@open v readonly"

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
      init_repo dir [ "v" ];
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

let leader pool = Supervisor.socket pool Supervisor.Leader

(* A writer on the leader, attached and focused. *)
let dial_writer ?retry_for pool =
  let c = dial ?retry_for (leader pool) in
  must_remote c "@open v";
  must_remote c "focus ww:Person";
  c

(* [n] acked writes named [prefix]0 .. *)
let add_attributes c prefix n =
  for k = 0 to n - 1 do
    must_remote c (Printf.sprintf "apply add_attribute(Person, string, 8, %s%d)" prefix k)
  done

(* One measured cell: a writer hammers the leader while [readers] read
   clients issue `quality` over their readonly attach — on the leader
   when K = 0, round-robin over the followers otherwise.  The read is
   deliberately analysis-heavy and the schema pre-grown, so the measured
   ceiling is the server process's core, not the bench client's. *)
let measure ~replicas =
  with_pool ~replicas (fun pool ->
      let c = dial_writer pool in
      add_attributes c "g" 40;
      Client.close c;
      let secs = cell_secs () in
      let read_socket k =
        if replicas = 0 then leader pool
        else Supervisor.socket pool (Supervisor.Follower (k mod replicas))
      in
      let read_lats = List.init readers (fun _ -> lats ()) in
      let writes = ref 0 in
      let deadline = Unix.gettimeofday () +. 30.0 in
      let writer run =
        let c = dial_writer pool in
        run (fun k ->
            must_remote c (write_line ~w:0 k);
            incr writes);
        Client.close c
      in
      let reader k l run =
        let c = dial (read_socket k) in
        attach_readonly ~deadline c;
        must_remote c "quality" (* untimed warmup *);
        run (fun _ -> timed l (must_remote c) "quality");
        Client.close c
      in
      closed_loop ~secs (writer :: List.mapi reader read_lats);
      let all = merged read_lats in
      {
        replicas;
        reads = all.n;
        reads_per_s = float_of_int all.n /. secs;
        read_p99_ms = p99_ms all;
        writes_per_s = float_of_int !writes /. secs;
      })

(* SIGKILL the leader of a running pool and time the road back to an
   acknowledged write on the promoted follower. *)
let measure_promotion () =
  with_pool ~replicas:2 (fun pool ->
      (* some durable history so promotion has a journal to recover *)
      let c = dial_writer pool in
      add_attributes c "h" 20;
      Client.close c;
      let t0 = Unix.gettimeofday () in
      (match Supervisor.kill_leader pool with
      | Ok () -> ()
      | Error m -> failwith ("promotion: " ^ m));
      let c = dial_writer ~retry_for:30.0 pool in
      must_remote c "apply add_attribute(Person, string, 8, after_promotion)";
      let dt = Unix.gettimeofday () -. t0 in
      Client.close c;
      (* the acked history must be on the new writer *)
      let log =
        In_channel.with_open_bin
          (Filename.concat (Supervisor.leader_dir pool) "variants/v/log.ops")
          In_channel.input_all
      in
      for k = 0 to 19 do
        let needle = Printf.sprintf ", h%d)" k in
        if not (Core.Str_helpers.contains log needle) then
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
  Printf.printf "  promotion to first acked write: %.2f s (budget %.0f s)\n"
    promote_s promote_budget_s;
  let scales =
    gate
      ((not scaling_binding) || s2 >= min_speedup)
      "2-follower aggregate read throughput is %.2fx the leader-only cell (< \
       %.1fx)"
      s2 min_speedup
  in
  let promotes =
    gate (promote_s <= promote_budget_s) "promotion took %.2f s (budget %.0f s)"
      promote_s promote_budget_s
  in
  write_json json_path
    [
      ( "benchmark",
        Str
          "P16 journal-shipping replication (follower read scale-out, \
           promotion)" );
      ( "setup",
        Str
          "real-fs repo; a supervised pool of swsd processes (leader \
           --replicate, K followers --follow); 6 readonly clients issuing \
           quality round-robin over the followers (the leader when K = 0) \
           while one writer drives the leader; then SIGKILL the leader and \
           time the road to an acked write on the promoted follower" );
      ("seconds_per_cell", num 2 (cell_secs ()));
      ("read_clients", Int readers);
      ("speedup_1", num 2 s1);
      ("speedup_2", num 2 s2);
      ( "scaling_gate",
        Obj
          [ ("replicas", Int 2); ("speedup", num 2 s2); ("min_speedup", num 1 min_speedup);
            ("cores", Int cores); ("binding", Bool scaling_binding);
            ("passed", Bool scales.passed) ] );
      ( "promotion",
        Obj
          [ ("to_first_ack_s", num 3 promote_s); ("budget_s", num 1 promote_budget_s);
            ("passed", Bool promotes.passed) ] );
      ( "results",
        Arr
          (List.map
             (fun c ->
               Obj
                 [ ("replicas", Int c.replicas); ("reads", Int c.reads);
                   ("reads_per_s", num 1 c.reads_per_s); ("read_p99_ms", num 3 c.read_p99_ms);
                   ("writes_per_s", num 1 c.writes_per_s) ])
             cells) );
    ];
  report [ scales; promotes ]
