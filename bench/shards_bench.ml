(* P15: multi-shard scaling behind the variant-hashing router.

   The claim under test: a worker process has exactly ONE commit pipeline
   — the group-commit flusher thread writes lane batches sequentially
   (P14) — so once distinct variants keep that pipeline busy, a single
   process is pinned at ~(lanes x fsync)/cycle however many clients it
   serves.  Sharding the service across N worker processes multiplies the
   commit pipelines: with variants spread over the shards, aggregate
   throughput scales with N.

   Topology per cell: a real-filesystem repository, a {!Supervisor} of N
   [swsd serve] shard workers (N in [1; 2; 4]) with an injected fsync
   (--fsync-delay-ms {!Util.fsync_stall_ms}, the P13/P14 disk model), and an in-process
   {!Router} on a Unix socket.  8 client threads drive 8 distinct
   variants through the router in a 2:1 write:read mix (one connection,
   one in-flight op each — the protocol's limit).  Every cell, including
   N=1, runs the full router topology, so the comparison isolates shard
   count from routing overhead.

   Variants are assigned to clients round-robin over the shards (names
   are searched so client i's variant rendezvous-hashes to shard i mod
   N): the bench measures pipeline scaling under an even spread, not the
   hash's balance at tiny populations (the router suite pins that
   separately, over 1000 names).

   Reported per cell: aggregate req/s, writes/s, write p99, read p99.
   Regression gate (exit 1): 4-shard aggregate req/s must be >= 2.5x the
   1-shard cell (the paper-facing table claims ~Nx; the gate leaves CI
   headroom). *)

module Router = Server.Router
module Supervisor = Server.Supervisor
open Util

let levels = [ 1; 2; 4 ]
let clients = 8
let min_speedup = 2.5

(* distinct names, client i's hashing to shard i mod N *)
let pick_variants ~shards =
  let used = Hashtbl.create 16 in
  List.init clients (fun i ->
      let target = i mod shards in
      let rec go j =
        let n = Printf.sprintf "v%d" j in
        if (not (Hashtbl.mem used n)) && Router.shard_of ~shards n = target
        then begin
          Hashtbl.add used n ();
          n
        end
        else go (j + 1)
      in
      go 0)

type cell = {
  shards : int;
  requests : int;
  req_per_s : float;
  writes_per_s : float;
  write_p99_ms : float;
  read_p99_ms : float;
}

(* Client [w] on [variant]: an untimed warmup primes the worker's session
   and lane and leaves the schema as found, then 2:1 write:read, one op in
   flight; the add/delete alternation keeps its own counter so the
   interleaved reads never break its parity. *)
let client ~front ~writes ~reads w variant run =
  let c = dial front in
  List.iter (must_remote c)
    [ "@open " ^ variant; "focus ww:Person"; write_line ~w 0; write_line ~w 1; "summary" ];
  let wk = ref 0 in
  run (fun k ->
      if k mod 3 = 2 then timed reads (must_remote c) "summary"
      else begin
        timed writes (must_remote c) (write_line ~w !wk);
        incr wk
      end);
  Client.close c

let measure ~shards =
  let dir = tmp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let variants = pick_variants ~shards in
      init_repo dir variants;
      let pool =
        Supervisor.create
          ~worker_args:[ "--fsync-delay-ms"; Printf.sprintf "%g" fsync_stall_ms ]
          ~exe:(swsd_exe ()) ~dir (Supervisor.Sharded shards)
      in
      (match Supervisor.start pool with
      | Ok () -> ()
      | Error m ->
          Supervisor.stop pool;
          failwith m);
      let front = Filename.concat dir "front.sock" in
      let router =
        match Router.create ~obs:Obs.noop ~listen:(Protocol.Unix_path front) pool with
        | Ok r -> r
        | Error m ->
            Supervisor.stop pool;
            failwith m
      in
      let runner = Thread.create (fun () -> Router.run router) () in
      Fun.protect
        ~finally:(fun () ->
          Router.stop router;
          Thread.join runner;
          Supervisor.stop pool)
        (fun () ->
          let secs = cell_secs () in
          let writes = Array.init clients (fun _ -> lats ())
          and reads = Array.init clients (fun _ -> lats ()) in
          closed_loop ~secs
            (List.mapi
               (fun w ->
                 client ~front ~writes:writes.(w) ~reads:reads.(w) w)
               variants);
          let all_w = merged (Array.to_list writes)
          and all_r = merged (Array.to_list reads) in
          let total = all_w.n + all_r.n in
          {
            shards;
            requests = total;
            req_per_s = float_of_int total /. secs;
            writes_per_s = float_of_int all_w.n /. secs;
            write_p99_ms = p99_ms all_w;
            read_p99_ms = p99_ms all_r;
          }))

let run ~json_path () =
  Printf.printf
    "P15: sharded service behind the router, %d clients, %d variants, 2:1 \
     write:read, %.0f ms injected fsync\n"
    clients clients fsync_stall_ms;
  Printf.printf "  %-8s %10s %10s %15s %14s\n" "shards" "req/s" "writes/s"
    "write p99 (ms)" "read p99 (ms)";
  let cells =
    List.map
      (fun shards ->
        let c = measure ~shards in
        Printf.printf "  %-8d %10.0f %10.0f %15.3f %14.3f\n%!" c.shards
          c.req_per_s c.writes_per_s c.write_p99_ms c.read_p99_ms;
        c)
      levels
  in
  let rate n = (List.find (fun c -> c.shards = n) cells).req_per_s in
  let speedup n = if rate 1 > 0.0 then rate n /. rate 1 else 0.0 in
  let s2 = speedup 2 and s4 = speedup 4 in
  Printf.printf "\n  aggregate speedup over 1 shard: %.2fx at 2, %.2fx at 4\n"
    s2 s4;
  let scales =
    gate (s4 >= min_speedup)
      "4-shard aggregate throughput is %.2fx the 1-shard cell (< %.1fx)" s4
      min_speedup
  in
  write_json json_path
    [
      ("benchmark", Str "P15 sharded service (variant-hashing router)");
      ( "setup",
        Str
          "real-fs repo; N swsd workers with injected fsync delay behind an \
           in-process router on a unix socket; 8 clients on 8 variants \
           spread round-robin over the shards, 2:1 write:read, one op in \
           flight per connection" );
      ("seconds_per_cell", num 2 (cell_secs ()));
      ("fsync_delay_ms", num 1 fsync_stall_ms);
      ("clients", Int clients);
      ("speedup_2", num 2 s2);
      ("speedup_4", num 2 s4);
      ( "scaling_gate",
        Obj
          [ ("shards", Int 4); ("speedup", num 2 s4); ("min_speedup", num 1 min_speedup);
            ("passed", Bool scales.passed) ] );
      ( "results",
        Arr
          (List.map
             (fun c ->
               Obj
                 [ ("shards", Int c.shards); ("requests", Int c.requests);
                   ("req_per_s", num 1 c.req_per_s); ("writes_per_s", num 1 c.writes_per_s);
                   ("write_p99_ms", num 3 c.write_p99_ms);
                   ("read_p99_ms", num 3 c.read_p99_ms) ])
             cells) );
    ];
  report [ scales ]
