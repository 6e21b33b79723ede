(* P13: lock-free read path under a 95/5 read/write mix.

   The claim under test: publishing each variant's immutable session
   through an atomic snapshot lets read-only requests scale past the
   writer instead of convoying behind it.  One variant, N connections
   ([1; 8; 32]): at N=1 a single connection interleaves the 95/5 mix
   (every 20th request is a mutation); at N>1 one dedicated connection
   writes continuously and the other N-1 read continuously.  Each cell
   runs for a fixed wall-clock window.

   The repository lives on the in-memory filesystem with an injected
   per-fsync delay (default 5 ms) modelling a real disk: writes are
   journalled and fsync'd before the ack, so the writer spends most of
   its time stalled in "I/O" — exactly the window in which snapshot
   readers should keep running.

   Reported per cell: reads/s, read p99, writes/s, write p99.  The run
   FAILS (exit 1) unless read throughput at 32 connections is at least
   3x the single-connection rate: readers that convoyed behind the
   writer would stay pinned near it instead.

   Knobs: SWSD_READS_SECS (seconds per cell, default 2.0),
   SWSD_READS_FSYNC_MS (injected fsync delay, default 5). *)

module Io = Repository.Io
module Repo = Repository.Repo
module Service = Server.Service
module Protocol = Server.Protocol
open Util

let schema_text =
  "interface Person { attribute string name; attribute int age; };\n\
   interface Course { attribute string title; attribute string code; };"

let levels = [ 1; 8; 32 ]

let cell_secs () = env_float "SWSD_READS_SECS" 2.0
let fsync_delay () = env_float "SWSD_READS_FSYNC_MS" 5.0 /. 1000.0

let config =
  {
    Service.default_config with
    Service.use_file_locks = false;
    (* all 32 connections attach through the writer lock at once: give
       the queue room for them and don't shed on latency *)
    max_waiters = 64;
    request_deadline = 30.0;
  }

(* A one-variant mem-fs service whose fsyncs stall like a disk's.  The
   delay wraps *outside* the serializing [Io.locked] layer, so it blocks
   only the fsyncing thread (as a real fsync would), not all I/O. *)
let fresh_service () =
  let m = Io.mem_create () in
  let io = Io.locked (Io.mem_io m) in
  (match Repo.init ~io "/repo" (Odl.Parser.parse_schema schema_text) with
  | Ok repo -> (
      match Repo.create_variant repo "v" with
      | Ok _ -> ()
      | Error e -> failwith e)
  | Error e -> failwith e);
  let d = fsync_delay () in
  let io =
    { io with Io.fsync = (fun p -> Thread.delay d; io.Io.fsync p) }
  in
  match Service.open_service ~config ~io "/repo" with
  | Ok t -> t
  | Error e -> failwith e

let must t c line =
  let r = Service.request t c line in
  match r.Protocol.status with
  | Protocol.Ok -> ()
  | _ -> failwith (Printf.sprintf "%s failed: %s" line (Protocol.to_string r))

(* Alternating apply/undo keeps the schema the same size however long the
   cell runs, so read cost doesn't drift with the clock. *)
let write_line k =
  if k land 1 = 0 then
    Printf.sprintf "apply add_attribute(Person, string, 8, w_%d)" k
  else "undo"

let read_line = "summary"

let timed t c line l =
  let t0 = Unix.gettimeofday () in
  must t c line;
  observe l (Unix.gettimeofday () -. t0)

type cell = {
  conns : int;
  reads : int;
  reads_per_s : float;
  read_p99_ms : float;
  writes_per_s : float;
  write_p99_ms : float;
}

let measure ~conns =
  let t = fresh_service () in
  let secs = cell_secs () in
  let reads = lats () and writes = lats () in
  (if conns = 1 then begin
     (* one connection, 95/5 interleaved *)
     let c = Service.connect t in
     must t c "@open v";
     must t c "focus ww:Person";
     let t_end = Unix.gettimeofday () +. secs in
     let k = ref 0 and i = ref 0 in
     while Unix.gettimeofday () < t_end do
       incr i;
       if !i mod 20 = 0 then begin
         timed t c (write_line !k) writes;
         incr k
       end
       else timed t c read_line reads
     done;
     Service.disconnect t c
   end
   else begin
     (* One dedicated writer, the rest read continuously.  Everyone
        attaches before the clock starts (a continuously-writing
        connection would starve late attachers of the writer lock), and
        readers pause ~0.2 ms between requests: real clients sit behind
        sockets and parse responses, but on one core an in-process spin
        loop would instead hog the runtime lock for whole scheduler
        ticks and starve the writer of CPU, polluting its p99 with
        artifacts of the harness rather than the service. *)
     let reader_lats = Array.init (conns - 1) (fun _ -> lats ()) in
     let ready = Atomic.make 0 and go = Atomic.make false in
     let t_end = ref infinity in
     let wait_go () =
       Atomic.incr ready;
       while not (Atomic.get go) do
         Thread.yield ()
       done
     in
     let writer =
       Thread.create
         (fun () ->
           let c = Service.connect t in
           must t c "@open v";
           must t c "focus ww:Person";
           wait_go ();
           let k = ref 0 in
           while Unix.gettimeofday () < !t_end do
             timed t c (write_line !k) writes;
             incr k;
             Thread.yield ()
           done;
           Service.disconnect t c)
         ()
     in
     let rs =
       Array.mapi
         (fun ri l ->
           Thread.create
             (fun () ->
               let c = Service.connect t in
               must t c (if ri land 1 = 0 then "@open v readonly" else "@open v");
               wait_go ();
               while Unix.gettimeofday () < !t_end do
                 timed t c read_line l;
                 Thread.delay 0.0002
               done;
               Service.disconnect t c)
             ())
         reader_lats
     in
     while Atomic.get ready < conns do
       Thread.yield ()
     done;
     t_end := Unix.gettimeofday () +. secs;
     Atomic.set go true;
     Thread.join writer;
     Array.iter Thread.join rs;
     Array.iter (fun l -> List.iter (observe reads) l.xs) reader_lats
   end);
  ignore (Service.shutdown t);
  {
    conns;
    reads = reads.n;
    reads_per_s = float_of_int reads.n /. secs;
    read_p99_ms = p99_ms reads;
    writes_per_s = float_of_int writes.n /. secs;
    write_p99_ms = p99_ms writes;
  }

let run ~json_path () =
  Printf.printf
    "P13: lock-free reads, 95/5 mix, one variant, %.0f ms injected fsync\n"
    (fsync_delay () *. 1000.0);
  Printf.printf "  %-6s %12s %14s %12s %15s\n" "conns" "reads/s"
    "read p99 (ms)" "writes/s" "write p99 (ms)";
  let cells =
    List.map
      (fun conns ->
        let c = measure ~conns in
        Printf.printf "  %-6d %12.0f %14.3f %12.0f %15.3f\n%!" c.conns
          c.reads_per_s c.read_p99_ms c.writes_per_s c.write_p99_ms;
        c)
      levels
  in
  let find conns = List.find (fun c -> c.conns = conns) cells in
  let one = find 1 and many = find 32 in
  let scaling =
    if one.reads_per_s > 0.0 then many.reads_per_s /. one.reads_per_s else 0.0
  in
  Printf.printf "\n  read scaling, 32 conns vs 1: %.2fx\n" scaling;
  (* regression gate: snapshot readers must scale past the writer *)
  let min_scaling = 3.0 in
  let regressed = scaling < min_scaling in
  let entry c =
    Printf.sprintf
      "    { \"conns\": %d, \"reads\": %d, \"reads_per_s\": %.1f, \
       \"read_p99_ms\": %.3f, \"writes_per_s\": %.1f, \"write_p99_ms\": \
       %.3f }"
      c.conns c.reads c.reads_per_s c.read_p99_ms c.writes_per_s
      c.write_p99_ms
  in
  let json =
    String.concat "\n"
      [
        "{";
        "  \"benchmark\": \"P13 lock-free read path (95/5 mix)\",";
        "  \"setup\": \"one variant, mem fs with injected fsync delay; \
         N=1 interleaves 95/5 on one connection, N>1 is one continuous \
         writer plus N-1 readers\",";
        Printf.sprintf "  \"seconds_per_cell\": %.2f," (cell_secs ());
        Printf.sprintf "  \"fsync_delay_ms\": %.1f,"
          (fsync_delay () *. 1000.0);
        Printf.sprintf "  \"read_scaling_32_vs_1\": %.2f," scaling;
        Printf.sprintf
          "  \"scaling_gate\": { \"read_scaling_32_vs_1\": %.2f, \
           \"min_scaling\": %.1f, \"passed\": %b },"
          scaling min_scaling (not regressed);
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
  if regressed then begin
    Printf.printf
      "FAIL: read throughput at 32 connections is %.2fx the single-connection \
       rate (< %.1fx)\n"
      scaling min_scaling;
    exit 1
  end
