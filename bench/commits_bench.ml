(* P14: group commit under concurrent writers.

   The claim under test: batching concurrent writers' journal records into
   one fsync amortizes the dominant write cost, so write throughput scales
   with the writer count instead of being pinned at ~1/fsync-latency.
   One variant, W writer connections ([1; 2; 8; 16]), each looping one
   mutation at a time (the protocol allows one in-flight op per
   connection, so W is also the largest batch a flush can see).  Each
   cell runs for a fixed wall-clock window.  Two writers is the shape of
   perfbench's hot-variant workload: a regrouped pair should leave as its
   second writer boards, so its write p10/p50 sit near one fsync.

   The repository lives on the in-memory filesystem with an injected
   per-fsync delay (default 5 ms) modelling a real disk, wrapped outside
   the serializing [Io.locked] layer so it stalls only the fsyncing
   thread.  Writers alternate adding and deleting a per-writer attribute,
   so the schema — and the cost of an engine step — stays the same size
   however long the cell runs.

   Reported per cell: writes/s, write p10, p50 and p99 (p10 and p50
   ungated).  Two regression gates (exit 1):

   - throughput: writes/s at the 16-writer cell must be >= 10x the
     per-op ceiling, 1 / fsync delay: the most any pipeline paying one
     fsync per record could deliver, whatever its writer count.  With one
     op in flight per writer the best possible ratio at W writers is W,
     so the ">=10x at 8+ writers" claim is evaluated at the 16-writer
     level; the 8-writer ratio is reported (its ceiling is 8x).
   - latency: group-commit write p99 at 16 writers must stay within one
     batch interval — linger + 2 fsyncs (a writer landing just after a
     flush started waits out that flush, its own batch's linger, and its
     own batch's fsync) — plus a small scheduling allowance.

   Knobs: SWSD_COMMITS_SECS (seconds per cell, default 2.0),
   SWSD_COMMITS_FSYNC_MS (injected fsync delay, default 5). *)

module Io = Repository.Io
module Repo = Repository.Repo
module Service = Server.Service
module Protocol = Server.Protocol
open Util

let schema_text =
  "interface Person { attribute string name; attribute int age; };\n\
   interface Course { attribute string title; attribute string code; };"

let levels = [ 1; 2; 8; 16 ]
let gate_level = 16

let cell_secs () = env_float "SWSD_COMMITS_SECS" 2.0
let fsync_delay () = env_float "SWSD_COMMITS_FSYNC_MS" 5.0 /. 1000.0
let linger = 0.002

let config =
  {
    Service.default_config with
    Service.use_file_locks = false;
    flush_linger = linger;
    (* every writer fits in one batch and nobody is shed: the cell
       measures the commit path, not admission control *)
    flush_max_batch = 64;
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
  match Service.open_service ~config ~obs:Obs.noop ~io "/repo" with
  | Ok t -> t
  | Error e -> failwith e

let must t c line =
  let r = Service.request t c line in
  match r.Protocol.status with
  | Protocol.Ok -> ()
  | _ -> failwith (Printf.sprintf "%s failed: %s" line (Protocol.to_string r))

(* Writer [w] alternately adds and deletes its own attribute: every op is
   accepted, every op journals exactly one record, and the schema size is
   constant (undo is unusable here — it pops the session-global op, not
   the connection's own). *)
let write_line ~w k =
  if k land 1 = 0 then
    Printf.sprintf "apply add_attribute(Person, string, 8, w%d)" w
  else Printf.sprintf "apply delete_attribute(Person, w%d)" w

let timed t c line l =
  let t0 = Unix.gettimeofday () in
  must t c line;
  observe l (Unix.gettimeofday () -. t0)

type cell = {
  writers : int;
  writes : int;
  writes_per_s : float;
  write_p10_ms : float;
  write_p50_ms : float;
  write_p99_ms : float;
}

let measure ~writers =
  let t = fresh_service () in
  let secs = cell_secs () in
  let per_writer = Array.init writers (fun _ -> lats ()) in
  let ready = Atomic.make 0 and go = Atomic.make false in
  let t_end = ref infinity in
  let threads =
    Array.mapi
      (fun w l ->
        Thread.create
          (fun () ->
            let c = Service.connect t in
            must t c "@open v";
            must t c "focus ww:Person";
            (* untimed warmup: bootstrap the commit lane, let the batch
               heuristics calibrate, and absorb first-touch costs (thread
               stacks, heap growth) outside the measured window; one
               add/delete pair leaves the schema as found *)
            must t c (write_line ~w 0);
            must t c (write_line ~w 1);
            Atomic.incr ready;
            while not (Atomic.get go) do
              Thread.yield ()
            done;
            let k = ref 0 in
            while Unix.gettimeofday () < !t_end do
              timed t c (write_line ~w !k) l;
              incr k
            done;
            Service.disconnect t c)
          ())
      per_writer
  in
  while Atomic.get ready < writers do
    Thread.yield ()
  done;
  t_end := Unix.gettimeofday () +. secs;
  Atomic.set go true;
  Array.iter Thread.join threads;
  ignore (Service.shutdown t);
  let all = lats () in
  Array.iter (fun l -> List.iter (observe all) l.xs) per_writer;
  {
    writers;
    writes = all.n;
    writes_per_s = float_of_int all.n /. secs;
    write_p10_ms = quantile_ms 0.10 all;
    write_p50_ms = quantile_ms 0.50 all;
    write_p99_ms = p99_ms all;
  }

let run ~json_path () =
  Printf.printf
    "P14: group commit, concurrent writers, one variant, %.0f ms injected \
     fsync\n"
    (fsync_delay () *. 1000.0);
  Printf.printf "  %-8s %12s %10s %10s %10s\n" "writers" "writes/s" "p10 (ms)"
    "p50 (ms)" "p99 (ms)";
  let cells =
    List.map
      (fun writers ->
        let c = measure ~writers in
        Printf.printf "  %-8d %12.0f %10.3f %10.3f %10.3f\n%!" c.writers
          c.writes_per_s c.write_p10_ms c.write_p50_ms c.write_p99_ms;
        c)
      levels
  in
  let find writers = List.find (fun c -> c.writers = writers) cells in
  (* one fsync per record caps any per-op pipeline at 1 / fsync delay *)
  let ceiling = 1.0 /. fsync_delay () in
  let ratio_at w = (find w).writes_per_s /. ceiling in
  let ratio8 = ratio_at 8 and ratio16 = ratio_at gate_level in
  Printf.printf
    "\n  writes/s over the per-op ceiling (%.0f/s): %.2fx at 8 writers \
     (ceiling 8x), %.2fx at %d writers\n"
    ceiling ratio8 ratio16 gate_level;
  (* gate 1: amortization must actually happen at scale *)
  let min_ratio = 10.0 in
  let too_slow = ratio16 < min_ratio in
  (* gate 2: a batched writer's p99 stays within one batch interval *)
  let g16 = find gate_level in
  let interval_ms = ((2.0 *. fsync_delay ()) +. linger) *. 1000.0 in
  let budget_ms = interval_ms +. 3.0 (* scheduling allowance *) in
  let too_laggy = g16.write_p99_ms > budget_ms in
  Printf.printf
    "  write p99 at %d writers: %.3f ms; batch interval %.3f ms (budget \
     %.3f ms)\n"
    gate_level g16.write_p99_ms interval_ms budget_ms;
  let entry c =
    Printf.sprintf
      "    { \"writers\": %d, \"writes\": %d, \"writes_per_s\": %.1f, \
       \"write_p10_ms\": %.3f, \"write_p50_ms\": %.3f, \"write_p99_ms\": \
       %.3f }"
      c.writers c.writes c.writes_per_s c.write_p10_ms c.write_p50_ms
      c.write_p99_ms
  in
  let json =
    String.concat "\n"
      [
        "{";
        "  \"benchmark\": \"P14 group commit (concurrent writers)\",";
        "  \"setup\": \"one variant, mem fs with injected fsync delay; W \
         writer connections each looping one accepted mutation at a time; \
         throughput against the per-op ceiling 1 / fsync delay\",";
        Printf.sprintf "  \"seconds_per_cell\": %.2f," (cell_secs ());
        Printf.sprintf "  \"fsync_delay_ms\": %.1f,"
          (fsync_delay () *. 1000.0);
        Printf.sprintf "  \"flush_linger_ms\": %.1f," (linger *. 1000.0);
        Printf.sprintf "  \"per_op_ceiling_writes_per_s\": %.1f," ceiling;
        Printf.sprintf "  \"ratio_to_ceiling_8\": %.2f," ratio8;
        Printf.sprintf "  \"ratio_to_ceiling_%d\": %.2f," gate_level ratio16;
        Printf.sprintf
          "  \"throughput_gate\": { \"writers\": %d, \"writes_per_s\": \
           %.1f, \"ratio\": %.2f, \"min_ratio\": %.1f, \"passed\": %b },"
          gate_level g16.writes_per_s ratio16 min_ratio (not too_slow);
        Printf.sprintf
          "  \"p99_gate\": { \"writers\": %d, \"write_p99_ms\": %.3f, \
           \"batch_interval_ms\": %.3f, \"budget_ms\": %.3f, \"passed\": \
           %b },"
          gate_level g16.write_p99_ms interval_ms budget_ms (not too_laggy);
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
  if too_slow then
    Printf.printf
      "FAIL: write throughput at %d writers is %.2fx the per-op ceiling \
       (< %.1fx)\n"
      gate_level ratio16 min_ratio;
  if too_laggy then
    Printf.printf
      "FAIL: write p99 at %d writers (%.3f ms) exceeds one batch interval \
       (budget %.3f ms)\n"
      gate_level g16.write_p99_ms budget_ms;
  if too_slow || too_laggy then exit 1
