(* P15: multi-shard scaling behind the variant-hashing router.

   The claim under test: a worker process has exactly ONE commit pipeline
   — the group-commit flusher thread writes lane batches sequentially
   (P14) — so once distinct variants keep that pipeline busy, a single
   process is pinned at ~(lanes x fsync)/cycle however many clients it
   serves.  Sharding the service across N worker processes multiplies the
   commit pipelines: with variants spread over the shards, aggregate
   throughput scales with N.

   Topology per cell: a real-filesystem repository, a {!Supervisor} of N
   [swsd serve] shard workers (N in [1; 2; 4]) with a 5 ms injected fsync
   (--fsync-delay-ms, the P13/P14 disk model), and an in-process
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
   headroom).

   Knobs: SWSD_SHARDS_SECS (seconds per cell, default 2.0),
   SWSD_SHARDS_FSYNC_MS (injected fsync delay, default 5). *)

module Io = Repository.Io
module Repo = Repository.Repo
module Protocol = Server.Protocol
module Router = Server.Router
module Supervisor = Server.Supervisor
module Client = Server.Client
open Util

let schema_text =
  "interface Person { attribute string name; attribute int age; };\n\
   interface Course { attribute string title; attribute string code; };"

let levels = [ 1; 2; 4 ]
let clients = 8
let min_speedup = 2.5

let cell_secs () = env_float "SWSD_SHARDS_SECS" 2.0
let fsync_ms () = env_float "SWSD_SHARDS_FSYNC_MS" 5.0

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

let write_line ~w k =
  if k land 1 = 0 then
    Printf.sprintf "apply add_attribute(Person, string, 8, w%d)" w
  else Printf.sprintf "apply delete_attribute(Person, w%d)" w

type cell = {
  shards : int;
  requests : int;
  req_per_s : float;
  writes_per_s : float;
  write_p99_ms : float;
  read_p99_ms : float;
}

let must c line =
  match Client.request c line with
  | Some lines when List.mem "!ok" lines -> ()
  | Some lines ->
      failwith (Printf.sprintf "%s: %s" line (String.concat " | " lines))
  | None -> failwith (line ^ ": router hung up")

let measure ~shards =
  let dir = tmp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let variants = pick_variants ~shards in
      (match Repo.init dir (Odl.Parser.parse_schema schema_text) with
      | Ok repo ->
          List.iter
            (fun v ->
              match Repo.create_variant repo v with
              | Ok _ -> ()
              | Error e -> failwith e)
            variants
      | Error e -> failwith e);
      let pool =
        Supervisor.create
          ~worker_args:
            [ "--fsync-delay-ms"; Printf.sprintf "%g" (fsync_ms ()) ]
          ~exe:(swsd_exe ()) ~dir (Supervisor.Sharded shards)
      in
      (match Supervisor.start pool with
      | Ok () -> ()
      | Error m ->
          Supervisor.stop pool;
          failwith m);
      let listen = Protocol.Unix_path (Filename.concat dir "front.sock") in
      let router =
        match Router.create ~obs:Obs.noop ~listen pool with
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
          let ready = Atomic.make 0 and go = Atomic.make false in
          let t_end = ref infinity in
          let threads =
            List.mapi
              (fun w variant ->
                Thread.create
                  (fun () ->
                    let c =
                      match Client.connect_to ~retry_for:10.0 listen with
                      | Ok c -> c
                      | Error m -> failwith m
                    in
                    ignore (Client.read_response c);
                    must c ("@open " ^ variant);
                    must c "focus ww:Person";
                    (* untimed warmup: prime the worker's session and lane,
                       leave the schema as found *)
                    must c (write_line ~w 0);
                    must c (write_line ~w 1);
                    must c "summary";
                    Atomic.incr ready;
                    while not (Atomic.get go) do
                      Thread.yield ()
                    done;
                    let k = ref 0 and wk = ref 0 in
                    (* 2:1 write:read, one op in flight; the add/delete
                       alternation tracks its own counter so the
                       interleaved reads never break its parity *)
                    while Unix.gettimeofday () < !t_end do
                      let line, l =
                        if !k mod 3 = 2 then ("summary", reads.(w))
                        else begin
                          let line = write_line ~w !wk in
                          incr wk;
                          (line, writes.(w))
                        end
                      in
                      let t0 = Unix.gettimeofday () in
                      must c line;
                      observe l (Unix.gettimeofday () -. t0);
                      incr k
                    done;
                    Client.close c)
                  ())
              variants
          in
          while Atomic.get ready < clients do
            Thread.yield ()
          done;
          t_end := Unix.gettimeofday () +. secs;
          Atomic.set go true;
          List.iter Thread.join threads;
          let all_w = lats () and all_r = lats () in
          Array.iter (fun l -> List.iter (observe all_w) l.xs) writes;
          Array.iter (fun l -> List.iter (observe all_r) l.xs) reads;
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
    clients clients (fsync_ms ());
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
  let failed = s4 < min_speedup in
  let entry c =
    Printf.sprintf
      "    { \"shards\": %d, \"requests\": %d, \"req_per_s\": %.1f, \
       \"writes_per_s\": %.1f, \"write_p99_ms\": %.3f, \"read_p99_ms\": \
       %.3f }"
      c.shards c.requests c.req_per_s c.writes_per_s c.write_p99_ms
      c.read_p99_ms
  in
  let json =
    String.concat "\n"
      [
        "{";
        "  \"benchmark\": \"P15 sharded service (variant-hashing router)\",";
        "  \"setup\": \"real-fs repo; N swsd workers with injected fsync \
         delay behind an in-process router on a unix socket; 8 clients on \
         8 variants spread round-robin over the shards, 2:1 write:read, \
         one op in flight per connection\",";
        Printf.sprintf "  \"seconds_per_cell\": %.2f," (cell_secs ());
        Printf.sprintf "  \"fsync_delay_ms\": %.1f," (fsync_ms ());
        Printf.sprintf "  \"clients\": %d," clients;
        Printf.sprintf "  \"speedup_2\": %.2f," s2;
        Printf.sprintf "  \"speedup_4\": %.2f," s4;
        Printf.sprintf
          "  \"scaling_gate\": { \"shards\": 4, \"speedup\": %.2f, \
           \"min_speedup\": %.1f, \"passed\": %b },"
          s4 min_speedup (not failed);
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
  if failed then begin
    Printf.printf
      "FAIL: 4-shard aggregate throughput is %.2fx the 1-shard cell (< \
       %.1fx)\n"
      s4 min_speedup;
    exit 1
  end
