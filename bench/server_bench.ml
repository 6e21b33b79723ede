(* P11: concurrent design service throughput.

   How does the multi-session service scale with concurrent designers?
   Each of [1; 8; 32] clients opens its own variant of a small university
   repository (distinct variants run in parallel; the per-variant lock
   only serializes within one variant) and issues a fixed mix of requests:
   two mutations (journalled, fsync'd, acknowledged only once durable) to
   one read-only query.  The repository lives on the in-memory filesystem
   so the numbers characterize the service layer — locks, admission,
   retry, journal encoding — not the disk.

   Reported per level: aggregate requests/sec and p99 request latency. *)

open Util

let levels = [ 1; 8; 32 ]
let requests_per_client () = sized 300 20
let variant i = Printf.sprintf "v%02d" i

(* One client's workload, every request's latency recorded in [l]. *)
let client_run t ~client l =
  let c = Service.connect t in
  must t c ("@open " ^ variant client);
  must t c "focus ww:Person";
  for i = 0 to requests_per_client () - 1 do
    let line =
      if i mod 3 = 2 then "log"
      else Printf.sprintf "apply add_attribute(Person, string, 8, c%d_%d)" client i
    in
    timed l (must t c) line
  done;
  Service.disconnect t c

type row = { sessions : int; requests : int; req_per_s : float; p99_ms : float }

let measure_level sessions =
  let t = mem_service (List.init sessions variant) in
  let per_client = List.init sessions (fun _ -> lats ()) in
  let t0 = Unix.gettimeofday () in
  parallel (List.mapi (fun i l () -> client_run t ~client:i l) per_client);
  let wall = Unix.gettimeofday () -. t0 in
  ignore (Service.shutdown t);
  let all = merged per_client in
  {
    sessions;
    requests = all.n;
    req_per_s = float_of_int all.n /. wall;
    p99_ms = p99_ms all;
  }

let run ~json_path () =
  Printf.printf
    "P11: concurrent design service (2:1 mutate:read, %d requests/client)\n"
    (requests_per_client ());
  Printf.printf "  %-10s %12s %12s\n" "sessions" "req/s" "p99 (ms)";
  let rows = List.map measure_level levels in
  List.iter
    (fun r -> Printf.printf "  %-10d %12.0f %12.3f\n" r.sessions r.req_per_s r.p99_ms)
    rows;
  write_json json_path
    [
      ("benchmark", Str "P11 concurrent design service throughput");
      ( "setup",
        Str
          "N clients, one variant each, 2:1 mutate:read mix, in-memory fs, \
           fsync'd journal appends acknowledged before reply" );
      ("requests_per_client", Int (requests_per_client ()));
      ( "results",
        Arr
          (List.map
             (fun r ->
               Obj
                 [ ("sessions", Int r.sessions); ("requests", Int r.requests);
                   ("req_per_s", num 1 r.req_per_s); ("p99_ms", num 3 r.p99_ms) ])
             rows) );
    ]
