(* P13: lock-free read path under a 95/5 read/write mix.

   The claim under test: publishing each variant's immutable session
   through an atomic snapshot lets read-only requests scale past the
   writer instead of convoying behind it.  One variant, N connections
   ([1; 8; 32]): at N=1 a single connection interleaves the 95/5 mix
   (every 20th request is a mutation); at N>1 one dedicated connection
   writes continuously and the other N-1 read continuously.  Each cell
   runs for a fixed wall-clock window.

   The repository lives on the in-memory filesystem with an injected
   per-fsync delay ({!Util.fsync_stall_ms}) modelling a real disk: writes
   are journalled and fsync'd before the ack, so the writer spends most
   of its time stalled in "I/O" — exactly the window in which snapshot
   readers should keep running.

   Reported per cell: reads/s, read p99, writes/s, write p99.  The run
   FAILS (exit 1) unless read throughput at 32 connections is at least
   3x the single-connection rate: readers that convoyed behind the
   writer would stay pinned near it instead. *)

open Util

let levels = [ 1; 8; 32 ]
let min_scaling = 3.0

let config =
  {
    Service.default_config with
    (* all 32 connections attach through the writer lock at once: give
       the queue room for them and don't shed on latency *)
    Service.max_waiters = 64;
    request_deadline = 30.0;
  }

(* Alternating apply/undo keeps the schema the same size however long the
   cell runs, so read cost doesn't drift with the clock. *)
let write k =
  if k land 1 = 0 then Printf.sprintf "apply add_attribute(Person, string, 8, w_%d)" k
  else "undo"

let read = "summary"

type cell = {
  conns : int;
  reads : int;
  reads_per_s : float;
  read_p99_ms : float;
  writes_per_s : float;
  write_p99_ms : float;
}

let measure ~conns =
  let t = mem_service ~config ~stall:true [ "v" ] in
  let secs = cell_secs () in
  let writes = lats () in
  let attach lines =
    let c = Service.connect t in
    List.iter (must t c) lines;
    c
  in
  let writer_attach () = attach [ "@open v"; "focus ww:Person" ] in
  let reader_lats =
    if conns = 1 then begin
      (* one connection, 95/5 interleaved *)
      let reads = lats () and k = ref 0 in
      closed_loop ~secs
        [
          (fun run ->
            let c = writer_attach () in
            run (fun i ->
                if (i + 1) mod 20 = 0 then begin
                  timed writes (must t c) (write !k);
                  incr k
                end
                else timed reads (must t c) read);
            Service.disconnect t c);
        ];
      [ reads ]
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
      let reader_lats = List.init (conns - 1) (fun _ -> lats ()) in
      let writer run =
        let c = writer_attach () in
        run (fun k ->
            timed writes (must t c) (write k);
            Thread.yield ());
        Service.disconnect t c
      in
      let reader ri l run =
        let c = attach [ (if ri land 1 = 0 then "@open v readonly" else "@open v") ] in
        run (fun _ ->
            timed l (must t c) read;
            Thread.delay 0.0002);
        Service.disconnect t c
      in
      closed_loop ~secs (writer :: List.mapi reader reader_lats);
      reader_lats
    end
  in
  ignore (Service.shutdown t);
  let reads = merged reader_lats in
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
    fsync_stall_ms;
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
  let scaled =
    gate (scaling >= min_scaling)
      "read throughput at 32 connections is %.2fx the single-connection \
       rate (< %.1fx)"
      scaling min_scaling
  in
  write_json json_path
    [
      ("benchmark", Str "P13 lock-free read path (95/5 mix)");
      ( "setup",
        Str
          "one variant, mem fs with injected fsync delay; N=1 interleaves \
           95/5 on one connection, N>1 is one continuous writer plus N-1 \
           readers" );
      ("seconds_per_cell", num 2 (cell_secs ()));
      ("fsync_delay_ms", num 1 fsync_stall_ms);
      ("read_scaling_32_vs_1", num 2 scaling);
      ( "scaling_gate",
        Obj
          [ ("read_scaling_32_vs_1", num 2 scaling); ("min_scaling", num 1 min_scaling);
            ("passed", Bool scaled.passed) ] );
      ( "results",
        Arr
          (List.map
             (fun c ->
               Obj
                 [ ("conns", Int c.conns); ("reads", Int c.reads);
                   ("reads_per_s", num 1 c.reads_per_s); ("read_p99_ms", num 3 c.read_p99_ms);
                   ("writes_per_s", num 1 c.writes_per_s);
                   ("write_p99_ms", num 3 c.write_p99_ms) ])
             cells) );
    ];
  report [ scaled ]
