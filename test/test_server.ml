(* The concurrent design service: protocol, retry/breaker/lock building
   blocks, EINTR discipline, and the chaos harness — N concurrent clients
   over a fault-injected in-memory filesystem, with injected crashes and
   killed workers; after every schedule the repository must fsck clean and
   every acknowledged operation must survive recovery.

   All service-level tests drive {!Server.Service.request} directly from
   threads (the socket layer adds nothing to the concurrency semantics);
   one test exercises the real Unix-domain-socket server end to end, and
   one the SIGTERM drain of a spawned [swsd serve] process. *)

module Io = Repository.Io
module Store = Repository.Store
module Repo = Repository.Repo
module Service = Server.Service
module Protocol = Server.Protocol
module Retry = Server.Retry
module Breaker = Server.Breaker
module Locks = Server.Locks

let test = Util.test

let tiny_text =
  "interface Person { attribute string name; attribute int age; };\n\
   interface Course { attribute string title; attribute string code; };"

let tiny () = Util.parse tiny_text

(* A deadlocked suite is worse than a failed one: if [f] does not finish
   within [secs], name the test and abort the whole run. *)
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

(* --- protocol ------------------------------------------------------------- *)

let parse_requests () =
  let ok l r =
    match Protocol.parse_request l with
    | Result.Ok got when got = r -> ()
    | Result.Ok _ -> Alcotest.failf "%s: wrong request" l
    | Result.Error m -> Alcotest.failf "%s: %s" l m
  in
  ok "@list" Protocol.List;
  ok "  @open night_school "
    (Protocol.Open { variant = "night_school"; readonly = false });
  ok "@open night_school readonly"
    (Protocol.Open { variant = "night_school"; readonly = true });
  (match Protocol.parse_request "@open night_school sideways" with
  | Result.Error _ -> ()
  | Result.Ok _ -> Alcotest.fail "bad @open mode must be rejected");
  ok "@new v1" (Protocol.New "v1");
  ok "@branch v w" (Protocol.Branch { parent = "v"; child = "w"; at = None });
  ok "  @branch v w @at 3 "
    (Protocol.Branch { parent = "v"; child = "w"; at = Some 3 });
  (match Protocol.parse_request "@branch v" with
  | Result.Error _ -> ()
  | Result.Ok _ -> Alcotest.fail "bad @branch must be rejected");
  (match Protocol.parse_request "@branch v w @at -1" with
  | Result.Error _ -> ()
  | Result.Ok _ -> Alcotest.fail "negative @at must be rejected");
  ok "@merge w into v"
    (Protocol.Merge { source = "w"; dest = "v"; dry_run = false });
  ok "@merge w into v --dry-run"
    (Protocol.Merge { source = "w"; dest = "v"; dry_run = true });
  (match Protocol.parse_request "@merge w v" with
  | Result.Error _ -> ()
  | Result.Ok _ -> Alcotest.fail "bad @merge must be rejected");
  ok "@close" Protocol.Close;
  ok "@ping" Protocol.Ping;
  ok "@quit" Protocol.Quit;
  ok "focus ww:Person" (Protocol.Command "focus ww:Person");
  ok "apply add_attribute(Person, string, 8, x)"
    (Protocol.Command "apply add_attribute(Person, string, 8, x)");
  (match Protocol.parse_request "@frobnicate" with
  | Result.Error m ->
      Alcotest.(check bool) "names the request" true
        (Str_contains.contains m "@frobnicate")
  | Result.Ok _ -> Alcotest.fail "unknown control must be rejected");
  match Protocol.parse_request "   " with
  | Result.Error _ -> ()
  | Result.Ok _ -> Alcotest.fail "empty must be rejected"

let render_responses () =
  Alcotest.(check string) "ok" "!ok\n" (Protocol.to_string (Protocol.ok []));
  Alcotest.(check string) "body prefixed" ". a\n. b\n!ok\n"
    (Protocol.to_string (Protocol.ok [ "a\nb" ]));
  Alcotest.(check string) "err" "!err boom\n"
    (Protocol.to_string (Protocol.err "boom"));
  Alcotest.(check string) "busy is two lines"
    "!busy queue full\n!retry-after 250\n"
    (Protocol.to_string (Protocol.busy ~retry_after_ms:250 "queue full"));
  Alcotest.(check string) "readonly" "!readonly no writes\n"
    (Protocol.to_string (Protocol.readonly "no writes"));
  Alcotest.(check string) "version meta line precedes the status"
    ". a\n#version 7\n!ok\n"
    (Protocol.to_string (Protocol.ok ~version:7 [ "a" ]));
  List.iter
    (fun (line, expect) ->
      Alcotest.(check bool) line expect (Protocol.is_terminator line))
    [
      ("!ok", true);
      ("!err nope", true);
      ("!readonly no writes", true);
      ("!retry-after 100", true);
      ("!busy queue full", false);
      ("#version 7", false);
      (". body", false);
    ]

(* The framing, written the direct way: split every body entry at its
   newlines, prefix each line, then the meta and status lines, joined.
   [to_lines] and [to_string] must give exactly these bytes. *)
let reference_lines (r : Protocol.response) =
  List.concat_map (String.split_on_char '\n') r.body
  |> List.map (fun l -> Protocol.body_prefix ^ l)
  |> Fun.flip ( @ )
       (Option.fold ~none:[] ~some:(fun v -> [ Printf.sprintf "#version %d" v ])
          r.version)
  |> Fun.flip ( @ )
       (match r.status with
       | Protocol.Ok -> [ "!ok" ]
       | Err m -> [ "!err " ^ m ]
       | Readonly m -> [ "!readonly " ^ m ]
       | Busy { reason; retry_after_ms } ->
           [ "!busy " ^ reason; Printf.sprintf "!retry-after %d" retry_after_ms ])

let framing_matches_reference =
  let open QCheck2.Gen in
  (* entries with empty lines, multi-line items and leading/trailing
     newlines *)
  let entry =
    map (String.concat "\n")
      (list_size (int_range 0 4) (string_size ~gen:(oneofl [ 'a'; ' '; '.'; '!' ]) (int_range 0 5)))
  in
  let response =
    let* body = list_size (int_range 0 6) entry in
    let* version = opt (int_range 0 1000) in
    let* status =
      oneof
        [
          return Protocol.Ok;
          map (fun m -> Protocol.Err m) (string_size ~gen:printable (int_range 0 8));
          map (fun m -> Protocol.Readonly m) (string_size ~gen:printable (int_range 0 8));
          map2
            (fun reason retry_after_ms -> Protocol.Busy { reason; retry_after_ms })
            (string_size ~gen:printable (int_range 0 8))
            (int_range 0 5000);
        ]
    in
    return { Protocol.body; status; version }
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"protocol: framing = split, prefix and join"
       ~count:500 ~long_factor:10 response (fun r ->
         let lines = reference_lines r in
         Protocol.to_lines r = lines
         && Protocol.to_string r = String.concat "\n" lines ^ "\n"))

(* --- retry ---------------------------------------------------------------- *)

let retry_policy =
  { Retry.max_attempts = 3; base_delay = 0.001; max_delay = 0.01; jitter = 0.5 }

let retry_transient () =
  let calls = ref 0 in
  let result =
    Retry.with_retries ~sleep:(fun _ -> ()) retry_policy (fun () ->
        incr calls;
        if !calls < 3 then raise (Sys_error "transient EIO");
        "done")
  in
  Alcotest.(check int) "three attempts" 3 !calls;
  (match result with
  | Result.Ok s -> Alcotest.(check string) "value" "done" s
  | Result.Error _ -> Alcotest.fail "should succeed on the third attempt");
  calls := 0;
  (match
     Retry.with_retries ~sleep:(fun _ -> ()) retry_policy (fun () ->
         incr calls;
         raise (Sys_error "always"))
   with
  | Result.Error (Sys_error _) -> ()
  | _ -> Alcotest.fail "exhausted retries must report the failure");
  Alcotest.(check int) "gives up after max_attempts" 3 !calls

let retry_non_transient () =
  let calls = ref 0 in
  (try
     ignore
       (Retry.with_retries ~sleep:(fun _ -> ()) retry_policy (fun () ->
            incr calls;
            raise Io.Crash));
     Alcotest.fail "Crash must fly through"
   with Io.Crash -> ());
  Alcotest.(check int) "no retry of a crash" 1 !calls

let retry_delays_bounded () =
  let rand = Random.State.make [| 42 |] in
  for attempt = 0 to 10 do
    let d = Retry.delay_for ~policy:Retry.default ~rand attempt in
    if d < 0.0 || d > Retry.default.Retry.max_delay then
      Alcotest.failf "attempt %d: delay %f out of bounds" attempt d
  done

(* The absolute deadline clamps every backoff to the remaining budget, and
   a spent budget stops the loop at the next failure — no sleeping past
   the deadline, and no busy-spin on zero-length sleeps.  (The group
   commit flusher leans on this: its flush retries under a request-scale
   deadline, so a failing disk can pin a batch for at most one deadline,
   not max_attempts * max_delay.) *)
let retry_deadline_clamped () =
  let clock = ref 0.0 in
  let slept = ref 0.0 in
  let sleep d =
    if d <= 0.0 then Alcotest.failf "zero-length sleep (busy spin): %f" d;
    slept := !slept +. d;
    clock := !clock +. d
  in
  let calls = ref 0 in
  let policy =
    { Retry.max_attempts = 50; base_delay = 0.4; max_delay = 0.4; jitter = 0.0 }
  in
  (match
     Retry.with_retries ~sleep ~now:(fun () -> !clock) ~deadline:1.0 policy
       (fun () ->
         incr calls;
         raise (Sys_error "always"))
   with
  | Result.Error (Sys_error _) -> ()
  | _ -> Alcotest.fail "a failing thunk must report its failure");
  if !slept > 1.0 +. 1e-9 then
    Alcotest.failf "slept %.3fs past a 1s deadline" !slept;
  Alcotest.(check int)
    "gave up when the deadline was spent, not at max_attempts"
    4 (* 0.4 + 0.4 + 0.2 (clamped), then the budget is zero *)
    !calls

(* --- breaker -------------------------------------------------------------- *)

let breaker_ladder () =
  let b = Breaker.create ~threshold:2 ~cooldown:10.0 () in
  Alcotest.(check bool) "starts closed" true (Breaker.allows b ~now:0.0);
  Breaker.record_failure b ~now:1.0;
  Alcotest.(check bool) "below threshold" true (Breaker.allows b ~now:1.0);
  Breaker.record_failure b ~now:2.0;
  Alcotest.(check bool) "tripped" false (Breaker.allows b ~now:3.0);
  Alcotest.(check bool) "is_open" true (Breaker.is_open b);
  (* half-open probe after the cooldown *)
  Alcotest.(check bool) "probe allowed" true (Breaker.allows b ~now:12.5);
  Breaker.record_failure b ~now:12.5;
  Alcotest.(check bool) "failed probe re-trips" false (Breaker.allows b ~now:13.0);
  Alcotest.(check bool) "new cooldown restarts" true (Breaker.allows b ~now:23.0);
  Breaker.record_success b ~now:23.0;
  Alcotest.(check bool) "success closes" true (Breaker.allows b ~now:23.0);
  Breaker.record_failure b ~now:24.0;
  Alcotest.(check bool) "counter was reset" true (Breaker.allows b ~now:24.0)

(* The transition log records every closed → open → half-open edge with its
   timestamp, newest first, and feeds [describe] and [time_in_state]. *)
let breaker_transition_log () =
  let b = Breaker.create ~threshold:2 ~cooldown:10.0 () in
  Alcotest.(check (list (pair (float 0.0) string)))
    "no transitions before the first trip" [] (Breaker.transitions b);
  Alcotest.(check (option (float 0.0)))
    "no time-in-state before the first trip" None
    (Breaker.time_in_state b ~now:5.0);
  Breaker.record_failure b ~now:1.0;
  Breaker.record_failure b ~now:2.0;
  (* trip at 2, half-open probe admitted at 12.5, probe fails at 13,
     cooled-down probe at 23.5 succeeds and closes at 24 *)
  ignore (Breaker.allows b ~now:12.5);
  Breaker.record_failure b ~now:13.0;
  ignore (Breaker.allows b ~now:23.5);
  Breaker.record_success b ~now:24.0;
  Alcotest.(check (list (pair (float 0.0) string)))
    "full history, newest first"
    [
      (24.0, "closed");
      (23.5, "half-open");
      (13.0, "open");
      (12.5, "half-open");
      (2.0, "open");
    ]
    (Breaker.transitions b);
  Alcotest.(check (option (float 1e-6)))
    "time in (closed) state counts from the closing transition" (Some 6.0)
    (Breaker.time_in_state b ~now:30.0);
  let d = Breaker.describe b in
  let mem needle =
    let nl = String.length needle and dl = String.length d in
    let rec go i = i + nl <= dl && (String.sub d i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "describe names the state" true (mem "closed");
  Alcotest.(check bool)
    "describe carries the timestamped history" true (mem "open@2.000")

(* --- locks ---------------------------------------------------------------- *)

let locks_shed_and_timeout () =
  let l = Locks.create () in
  let entered = Atomic.make false and release = Atomic.make false in
  let holder =
    Thread.create
      (fun () ->
        ignore
          (Locks.with_key l "v" ~deadline:(Unix.gettimeofday () +. 10.0)
             (fun () ->
               Atomic.set entered true;
               while not (Atomic.get release) do
                 Thread.delay 0.001
               done)))
      ()
  in
  while not (Atomic.get entered) do
    Thread.delay 0.001
  done;
  (* bound 0: shed on arrival while the lock is held *)
  (match
     Locks.with_key ~max_waiters:0 l "v"
       ~deadline:(Unix.gettimeofday () +. 10.0)
       (fun () -> ())
   with
  | Result.Error (Locks.Busy _) -> ()
  | _ -> Alcotest.fail "should shed with Busy at the queue bound");
  (* queued, but the deadline passes first *)
  (match
     Locks.with_key ~max_waiters:8 l "v"
       ~deadline:(Unix.gettimeofday () +. 0.05)
       (fun () -> ())
   with
  | Result.Error Locks.Timed_out -> ()
  | _ -> Alcotest.fail "should time out");
  (* a different key is free *)
  (match
     Locks.with_key l "w" ~deadline:(Unix.gettimeofday () +. 1.0) (fun () -> 7)
   with
  | Result.Ok 7 -> ()
  | _ -> Alcotest.fail "distinct keys must not contend");
  Atomic.set release true;
  Thread.join holder;
  match Locks.with_key l "v" ~deadline:(Unix.gettimeofday () +. 1.0) (fun () -> ()) with
  | Result.Ok () -> ()
  | _ -> Alcotest.fail "lock must be free after release"

(* --- EINTR discipline (satellite: every syscall survives signals) --------- *)

let eintr_retry_loop () =
  let calls = ref 0 in
  let v =
    Io.retry_eintr (fun () ->
        incr calls;
        if !calls < 3 then raise (Unix.Unix_error (Unix.EINTR, "read", ""));
        "through")
  in
  Alcotest.(check string) "eventually returns" "through" v;
  Alcotest.(check int) "retried twice" 3 !calls

let eintr_injection () =
  let m = Io.mem_create () in
  let base = Io.mem_io m in
  (* unprotected, the injected interrupt escapes *)
  let raw, _ = Io.eintr_faulty ~eintr_at:[ 0 ] base in
  (try
     raw.Io.write "/f" "x";
     Alcotest.fail "EINTR should escape an unprotected io"
   with Unix.Unix_error (Unix.EINTR, _, _) -> ());
  (* protected, every operation rides through the interrupts *)
  let fio, delivered = Io.eintr_faulty ~eintr_at:[ 0; 2; 4; 6 ] base in
  let io = Io.protected fio in
  io.Io.mkdir "/d";
  io.Io.write "/d/f" "hello";
  io.Io.append "/d/f" " world";
  io.Io.fsync "/d/f";
  io.Io.rename "/d/f" "/d/g";
  Alcotest.(check string) "contents intact" "hello world"
    (io.Io.read_file "/d/g");
  Alcotest.(check int) "all four interrupts delivered" 4 (delivered ())

(* --- mem-fs service helpers ----------------------------------------------- *)

let quick_retry =
  { Retry.max_attempts = 3; base_delay = 0.0002; max_delay = 0.001; jitter = 0.5 }

let quick_config ?now ?sleep ?(deadline = 2.0) ?(max_waiters = 8)
    ?(idle = 300.0) ?(threshold = 3) ?(cooldown = 30.0) ?(flush_max_batch = 64)
    ?(flush_linger = 0.002) ?(flush_on_idle = true) ?chaos_hook () =
  {
    Service.request_deadline = deadline;
    max_waiters;
    idle_timeout = idle;
    drain_timeout = 5.0;
    retry = quick_retry;
    breaker_threshold = threshold;
    breaker_cooldown = cooldown;
    use_file_locks = false (* lockf needs a real fd; mem fs has none *);
    retry_after_ms = 25;
    flush_max_batch;
    flush_linger;
    flush_on_idle;
    follower = false;
    era = 0;
    now = Option.value now ~default:Unix.gettimeofday;
    sleep = Option.value sleep ~default:Thread.delay;
    chaos_hook;
    instance_notes = [];
    shard_span = None;
  }

(* A mem-fs repository with one variant [v], ready to serve. *)
let mem_repo () =
  let m = Io.mem_create () in
  let io = Io.locked (Io.mem_io m) in
  (match Repo.init ~io "/repo" (tiny ()) with
  | Result.Ok repo -> (
      match Repo.create_variant repo "v" with
      | Result.Ok _ -> ()
      | Result.Error e -> Alcotest.fail e)
  | Result.Error e -> Alcotest.fail e);
  (m, io)

let service ?config ?obs io =
  match Service.open_service ?config ?obs ~io "/repo" with
  | Result.Ok t -> t
  | Result.Error m -> Alcotest.fail m

let req_ok t c line =
  let r = Service.request t c line in
  match r.Protocol.status with
  | Protocol.Ok -> r.Protocol.body
  | _ -> Alcotest.failf "%s should succeed, got: %s" line (Protocol.to_string r)

let req_err t c line =
  let r = Service.request t c line in
  match r.Protocol.status with
  | Protocol.Err m -> m
  | _ -> Alcotest.failf "%s should be refused, got: %s" line (Protocol.to_string r)

let apply_line name = Printf.sprintf "apply add_attribute(Person, string, 8, %s)" name

(* The journal as recovered after a full post-mortem: resolved steps. *)
let recovered_steps io =
  match Store.load_session (Store.open_dir ~io "/repo/variants/v") with
  | Result.Ok s ->
      List.map
        (fun (st : Core.Session.step) ->
          Core.Op_printer.to_string (Core.Session.step_op st))
        (Core.Session.log s)
  | Result.Error e -> Alcotest.fail (Store.load_error_to_string e)

(* --- service basics -------------------------------------------------------- *)

let service_lifecycle () =
  let _, io = mem_repo () in
  let t = service ~config:(quick_config ()) io in
  let c = Service.connect t in
  Alcotest.(check (list string)) "list" [ "v root era 0" ] (req_ok t c "@list");
  ignore (req_ok t c "@ping");
  Alcotest.(check bool) "command without a session refused" true
    (Str_contains.contains (req_err t c "concepts") "@open");
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c (apply_line "nickname"));
  (* the ack implies a durable journal record, before any snapshot *)
  Alcotest.(check bool) "journal holds the acked op" true
    (Str_contains.contains (io.Io.read_file "/repo/variants/v/log.ops") "nickname");
  (* engine rejections surface as !err with the feedback as body *)
  Alcotest.(check bool) "duplicate attribute rejected" true
    (Str_contains.contains (req_err t c (apply_line "nickname")) "rejected");
  (* server-session refusals *)
  Alcotest.(check bool) "save refused" true
    (Str_contains.contains (req_err t c "save /tmp/x") "@close");
  Alcotest.(check bool) "source refused" true
    (Str_contains.contains (req_err t c "source cmds.txt") "not available");
  ignore (req_ok t c "undo");
  ignore (req_ok t c "redo");
  ignore (req_ok t c "@close");
  Alcotest.(check int) "session freed on last close" 0 (Service.session_count t);
  (* a full shutdown on a quiet service reports nothing *)
  Alcotest.(check (list (pair string string))) "clean shutdown" [] (Service.shutdown t);
  Alcotest.(check bool) "stopped service refuses" true
    (Str_contains.contains (req_err t c "@ping") "shutting down")

let shared_session_attach () =
  let _, io = mem_repo () in
  let t = service ~config:(quick_config ()) io in
  let a = Service.connect t and b = Service.connect t in
  ignore (req_ok t a "@open v");
  let body = req_ok t b "@open v" in
  Alcotest.(check bool) "second client told it shares" true
    (List.exists (fun l -> Str_contains.contains l "2 client(s)") body);
  Alcotest.(check int) "one shared session" 1 (Service.session_count t);
  ignore (req_ok t a "@close");
  Alcotest.(check int) "still alive for b" 1 (Service.session_count t);
  ignore (req_ok t b "@close");
  Alcotest.(check int) "freed on last detach" 0 (Service.session_count t)

let idle_reaper () =
  let clock = ref 0.0 in
  let config =
    quick_config ~now:(fun () -> !clock) ~sleep:(fun d -> clock := !clock +. d)
      ~idle:300.0 ()
  in
  let _, io = mem_repo () in
  let t = service ~config io in
  let c = Service.connect t in
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c (apply_line "kept"));
  Alcotest.(check int) "not yet idle" 0 (Service.reap_idle t);
  clock := !clock +. 301.0;
  Alcotest.(check int) "reaped" 1 (Service.reap_idle t);
  Alcotest.(check int) "freed" 0 (Service.session_count t);
  Alcotest.(check bool) "connection learns on next use" true
    (Str_contains.contains (req_err t c "concepts") "expired");
  (* reopening resumes from the reaper's snapshot *)
  ignore (req_ok t c "@open v");
  let log = req_ok t c "log" in
  Alcotest.(check bool) "state survived the reap" true
    (List.exists (fun l -> Str_contains.contains l "kept") log)

(* --- backpressure and deadlines ------------------------------------------- *)

(* Block one request inside the variant lock via the chaos hook, then look
   at what happens to the others. *)
let blocked_variant ~max_waiters ~deadline k =
  with_watchdog ~secs:30.0 ~name:"backpressure" (fun () ->
      let entered = Atomic.make false and release = Atomic.make false in
      let hook ~variant:_ ~line =
        if Str_contains.contains line "slowpoke" then begin
          Atomic.set entered true;
          while not (Atomic.get release) do
            Thread.delay 0.001
          done
        end
      in
      let _, io = mem_repo () in
      let t = service ~config:(quick_config ~max_waiters ~deadline ~chaos_hook:hook ()) io in
      let a = Service.connect t and b = Service.connect t in
      ignore (req_ok t a "@open v");
      ignore (req_ok t b "@open v");
      ignore (req_ok t a "focus ww:Person");
      let slow =
        Thread.create (fun () -> ignore (req_ok t a (apply_line "slowpoke"))) ()
      in
      while not (Atomic.get entered) do
        Thread.delay 0.001
      done;
      Fun.protect
        ~finally:(fun () ->
          Atomic.set release true;
          Thread.join slow)
        (fun () -> k t b))

(* [focus] is write-class (it moves the shared cursor) but non-mutating:
   the cheapest probe that must queue on the writer lock. *)
let backpressure_sheds () =
  blocked_variant ~max_waiters:0 ~deadline:5.0 (fun t b ->
      (* a read-class command bypasses the full queue entirely *)
      (match (Service.request t b "summary").Protocol.status with
      | Protocol.Ok -> ()
      | _ -> Alcotest.fail "reads must not queue behind a blocked writer");
      match (Service.request t b "focus ww:Course").Protocol.status with
      | Protocol.Busy { retry_after_ms; reason } ->
          Alcotest.(check int) "advertises the configured backoff" 25
            retry_after_ms;
          Alcotest.(check bool) "names the queue" true
            (Str_contains.contains reason "queued")
      | _ -> Alcotest.fail "should shed with !busy at the queue bound")

let deadline_sheds () =
  blocked_variant ~max_waiters:8 ~deadline:0.08 (fun t b ->
      match (Service.request t b "focus ww:Course").Protocol.status with
      | Protocol.Busy { reason; _ } ->
          Alcotest.(check bool) "names the deadline" true
            (Str_contains.contains reason "deadline")
      | _ -> Alcotest.fail "should shed with !busy when the deadline passes")

(* --- circuit breaker: degradation to read-only ----------------------------- *)

let breaker_degrades_variant () =
  let clock = ref 0.0 in
  let failing = ref false in
  let m = Io.mem_create () in
  let raw = Io.locked (Io.mem_io m) in
  let io =
    {
      raw with
      Io.append =
        (fun path data ->
          if !failing then raise (Sys_error (path ^ ": injected EIO"))
          else raw.Io.append path data);
    }
  in
  (match Repo.init ~io:raw "/repo" (tiny ()) with
  | Result.Ok repo -> (
      match Repo.create_variant repo "v" with
      | Result.Ok _ -> ()
      | Result.Error e -> Alcotest.fail e)
  | Result.Error e -> Alcotest.fail e);
  let config =
    quick_config ~now:(fun () -> !clock) ~sleep:(fun _ -> ()) ~threshold:1
      ~cooldown:30.0 ()
  in
  let t = service ~config io in
  let c = Service.connect t in
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c (apply_line "before"));
  failing := true;
  (* retries exhaust, the op is not accepted, the session is evicted *)
  let msg = req_err t c (apply_line "lost") in
  Alcotest.(check bool) "op refused on persistence failure" true
    (Str_contains.contains msg "persistence failed");
  Alcotest.(check int) "session evicted" 0 (Service.session_count t);
  (* the variant reopens read-only: the breaker has tripped *)
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "summary");
  let msg = req_err t c (apply_line "still_lost") in
  Alcotest.(check bool) "mutations refused while open" true
    (Str_contains.contains msg "read-only");
  (* after the cooldown a half-open probe goes through, and success closes *)
  failing := false;
  clock := !clock +. 31.0;
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c (apply_line "recovered"));
  ignore (req_ok t c (apply_line "and_again"));
  ignore (req_ok t c "@close");
  ignore (Service.shutdown t);
  (* nothing acked was lost; the refused op is nowhere *)
  let steps = String.concat "\n" (recovered_steps raw) in
  Alcotest.(check bool) "acked op kept" true (Str_contains.contains steps "before");
  Alcotest.(check bool) "recovered op kept" true
    (Str_contains.contains steps "recovered");
  Alcotest.(check bool) "refused op absent" true
    (not (Str_contains.contains steps "lost"))

(* A failed batch flush fails EVERY writer aboard — nothing in the batch
   is acked, every session is evicted, the breaker trips — and nothing
   more is appended until the variant is next loaded from disk, which
   reloads the journal with a fresh writer.  [reload] is that load; every
   way in must heal the variant, so once the disk heals and the breaker
   cools, writes flow again. *)
let reload_open t c = ignore (req_ok t c "@open v")

(* a query on a variant with nothing published loads it (ensure_loaded) *)
let reload_query t c =
  Alcotest.(check bool) "the query answers for v" true
    (List.mem "= v" (req_ok t c "@query all name Person"))

(* a merge into an evicted variant loads it first (load_if_absent); a dry
   run passes the tripped breaker *)
let reload_merge t c = ignore (req_ok t c "@merge w into v --dry-run")

let group_batch_failure_fails_all ~reload () =
  with_watchdog ~secs:60.0 ~name:"batch failure" (fun () ->
      let clock = ref 0.0 in
      let failing = ref false in
      let m = Io.mem_create () in
      let raw = Io.locked (Io.mem_io m) in
      let io =
        {
          raw with
          Io.append =
            (fun path data ->
              if !failing then raise (Sys_error (path ^ ": injected EIO"))
              else raw.Io.append path data);
        }
      in
      let ok_or_fail = function
        | Result.Ok x -> x
        | Result.Error e -> Alcotest.fail e
      in
      let repo = ok_or_fail (Repo.init ~io:raw "/repo" (tiny ())) in
      ignore (ok_or_fail (Repo.create_variant repo "v"));
      ignore (ok_or_fail (Repo.branch_variant repo ~parent:"v" ~child:"w" ()));
      (* three writers fill one batch exactly; the strict policy (no idle
         flush, long linger) makes the batch boundary deterministic *)
      let config =
        quick_config ~now:(fun () -> !clock) ~threshold:1 ~cooldown:30.0
          ~flush_max_batch:3 ~flush_linger:3600.0 ~flush_on_idle:false ()
      in
      let t = service ~config io in
      let conns =
        List.init 3 (fun _ ->
            let c = Service.connect t in
            ignore (req_ok t c "@open v");
            ignore (req_ok t c "focus ww:Person");
            c)
      in
      failing := true;
      let failures = Atomic.make 0 in
      let threads =
        List.mapi
          (fun i c ->
            Thread.create
              (fun () ->
                let r =
                  Service.request t c (apply_line (Printf.sprintf "doomed%d" i))
                in
                match r.Protocol.status with
                | Protocol.Err m
                  when Str_contains.contains m "persistence failed" ->
                    Atomic.incr failures
                | _ -> ())
              ())
          conns
      in
      List.iter Thread.join threads;
      Alcotest.(check int) "every waiter of the batch failed" 3
        (Atomic.get failures);
      Alcotest.(check int) "every session evicted" 0 (Service.session_count t);
      let c = List.hd conns in
      reload t c;
      (* the reload left v live: this attach does not load it again *)
      let attached = String.concat "\n" (req_ok t c "@open v") in
      Alcotest.(check bool) "attached to the reloaded session" true
        (Str_contains.contains attached "already attached"
        || Str_contains.contains attached "client(s)");
      (* the breaker tripped: the reloaded variant is read-only *)
      Alcotest.(check bool) "breaker tripped" true
        (Str_contains.contains (req_err t c (apply_line "still_down")) "read-only");
      (* disk heals, breaker cools; the reload's fresh writer appends —
         the next batch commits *)
      failing := false;
      clock := !clock +. 31.0;
      ignore (req_ok t c "focus ww:Person");
      ignore (req_ok t c (apply_line "healed"));
      ignore (Service.shutdown t);
      let steps = String.concat "\n" (recovered_steps raw) in
      Alcotest.(check bool) "post-heal op durable" true
        (Str_contains.contains steps "healed");
      Alcotest.(check bool) "no doomed op leaked" true
        (not (Str_contains.contains steps "doomed")))

(* The crash window between a batch's fsync and its acks: the record is
   durable but the writer never hears Ok.  That outcome is allowed — the
   durability contract is one-way (ack implies durable, not the reverse)
   — but it must leave the journal clean: the reopened session replays
   the unacked op, and fsck finds nothing to repair. *)
let durable_but_unacked () =
  with_watchdog ~secs:60.0 ~name:"durable but unacked" (fun () ->
      let failing = ref false in
      let m = Io.mem_create () in
      let raw = Io.locked (Io.mem_io m) in
      let io =
        {
          raw with
          Io.fsync =
            (fun path ->
              raw.Io.fsync path;
              (* the data IS durable; the failure hits on the way back *)
              if !failing then raise (Sys_error (path ^ ": injected: lost ack")));
        }
      in
      (match Repo.init ~io:raw "/repo" (tiny ()) with
      | Result.Ok repo -> (
          match Repo.create_variant repo "v" with
          | Result.Ok _ -> ()
          | Result.Error e -> Alcotest.fail e)
      | Result.Error e -> Alcotest.fail e);
      (* one attempt only: a retry after the durable-but-failed fsync
         would append the same record twice *)
      let config =
        {
          (quick_config ~threshold:max_int ()) with
          Service.retry = { quick_retry with Retry.max_attempts = 1 };
        }
      in
      let t = service ~config io in
      let c = Service.connect t in
      ignore (req_ok t c "@open v");
      ignore (req_ok t c "focus ww:Person");
      ignore (req_ok t c (apply_line "acked"));
      failing := true;
      Alcotest.(check bool) "ack withheld" true
        (Str_contains.contains (req_err t c (apply_line "limbo"))
           "persistence failed");
      Alcotest.(check int) "session evicted (state unknown)" 0
        (Service.session_count t);
      failing := false;
      (* the unacked op was durable after all: the reload replays it *)
      ignore (req_ok t c "@open v");
      let steps = String.concat "\n" (recovered_steps raw) in
      Alcotest.(check bool) "acked op present" true
        (Str_contains.contains steps "acked");
      Alcotest.(check bool) "unacked-but-durable op survives" true
        (Str_contains.contains steps "limbo");
      ignore (Service.shutdown t);
      (* and the journal needs no repair *)
      match (Store.fsck (Store.open_dir ~io:raw "/repo/variants/v")).Store.fsck_issues with
      | [] -> ()
      | issues ->
          Alcotest.failf "journal not clean: %s" (String.concat "; " issues))

(* --- lock discipline ------------------------------------------------------- *)

(* Same variant: requests must serialize.  The chaos hook briefly dwells
   inside the critical section; any overlap is a mutual-exclusion bug. *)
let same_variant_serializes () =
  with_watchdog ~secs:60.0 ~name:"same-variant serialization" (fun () ->
      let inside = Atomic.make 0 in
      let overlapped = Atomic.make false in
      let hook ~variant:_ ~line:_ =
        if Atomic.fetch_and_add inside 1 > 0 then Atomic.set overlapped true;
        Thread.delay 0.001;
        ignore (Atomic.fetch_and_add inside (-1))
      in
      let _, io = mem_repo () in
      let t = service ~config:(quick_config ~deadline:30.0 ~chaos_hook:hook ()) io in
      let clients = 4 and ops = 5 in
      let threads =
        List.init clients (fun i ->
            Thread.create
              (fun () ->
                let c = Service.connect t in
                ignore (req_ok t c "@open v");
                for j = 1 to ops do
                  ignore (req_ok t c "focus ww:Person");
                  ignore (req_ok t c (apply_line (Printf.sprintf "c%d_%d" i j)))
                done;
                Service.disconnect t c)
              ())
      in
      List.iter Thread.join threads;
      ignore (Service.shutdown t);
      Alcotest.(check bool) "no two requests inside one variant" false
        (Atomic.get overlapped);
      (* every acked op is recovered, in each client's order *)
      let steps = recovered_steps io in
      Alcotest.(check int) "all ops journalled" (clients * ops)
        (List.length steps);
      let position name =
        let rec go k = function
          | [] -> Alcotest.failf "%s missing from the recovered journal" name
          | s :: rest ->
              if Str_contains.contains s (name ^ ")") then k else go (k + 1) rest
        in
        go 0 steps
      in
      for i = 0 to clients - 1 do
        let ps =
          List.init ops (fun j -> position (Printf.sprintf "c%d_%d" i (j + 1)))
        in
        if List.sort compare ps <> ps then
          Alcotest.failf "client %d ops recovered out of order" i
      done)

(* Distinct variants: requests must run in parallel.  Both workers meet at
   a barrier inside their respective variant locks; a global lock could
   never let the second one arrive. *)
let distinct_variants_parallel () =
  with_watchdog ~secs:30.0 ~name:"distinct-variant parallelism" (fun () ->
      let arrived = Atomic.make 0 in
      let met = Atomic.make false in
      let hook ~variant:_ ~line =
        if Str_contains.contains line "barrier" then begin
          ignore (Atomic.fetch_and_add arrived 1);
          let deadline = Unix.gettimeofday () +. 10.0 in
          while Atomic.get arrived < 2 && Unix.gettimeofday () < deadline do
            Thread.delay 0.001
          done;
          if Atomic.get arrived >= 2 then Atomic.set met true
        end
      in
      let _, io = mem_repo () in
      let t = service ~config:(quick_config ~deadline:15.0 ~chaos_hook:hook ()) io in
      let setup = Service.connect t in
      ignore (req_ok t setup "@new w");
      ignore (req_ok t setup "@close");
      let worker variant =
        Thread.create
          (fun () ->
            let c = Service.connect t in
            ignore (req_ok t c ("@open " ^ variant));
            ignore (req_ok t c "focus ww:Person");
            ignore (req_ok t c (apply_line "barrier"));
            Service.disconnect t c)
          ()
      in
      let a = worker "v" and b = worker "w" in
      Thread.join a;
      Thread.join b;
      ignore (Service.shutdown t);
      Alcotest.(check bool)
        "both variants were inside their locks at the same time" true
        (Atomic.get met))

(* --- chaos: concurrent clients over a crashing filesystem ------------------ *)

(* One chaos schedule: 3 clients race 3 ops each onto the shared variant
   while (a) the filesystem fails a seed-chosen syscall — a crash that
   lands a torn half of a write, or a call that takes effect whole and
   then reports an error (a failed fsync whose data reached the disk),
   the kind also chosen by seed — (b) a
   seed-chosen subset of requests has its worker killed mid-flight, and
   (c) two readonly readers hammer the published snapshot throughout —
   every successful read must carry a never-backwards version stamp and a
   schema that passes the full consistency checker (snapshot isolation),
   and every writer must read its own acknowledged writes.  Then: power
   loss, salvage, and the recovered journal must contain every
   acknowledged op, per client in order, with a clean re-fsck.

   The group-commit flush policy is varied by seed (batch bound, linger,
   idle flush): batches then form differently across schedules, so the
   seed-chosen crash syscall lands in every phase of a batch's life —
   while records are queued but unflushed, inside a multi-record append
   (a torn half-batch tail for recovery to cut), and after the fsync but
   before the waiters ack.  The invariants don't care which: acked ops
   are durable in per-client order, unacked ops may go either way, and
   fsck always comes back clean.

   Assertions made on worker threads are collected into [first_error]
   (an Alcotest failure raised off the main thread would vanish with its
   thread) and re-raised on the main thread after the joins. *)
let chaos_schedule seed =
  let m = Io.mem_create () in
  let plain = Io.locked (Io.mem_io m) in
  (match Repo.init ~io:plain "/repo" (tiny ()) with
  | Result.Ok repo -> (
      match Repo.create_variant repo "v" with
      | Result.Ok _ -> ()
      | Result.Error e -> Alcotest.fail e)
  | Result.Error e -> Alcotest.fail e);
  (* the locked wrapper outermost also serializes the injector's counter;
     the fault is a power-loss crash or, on every other pair of seeds, a
     call that takes effect and then fails *)
  let fault = if seed / 4 mod 2 = 0 then Io.Power_loss else Io.Lands_then_fails in
  let faulted, _ =
    Io.faulty ~fault ~crash_at:(5 + (seed * 17 mod 120)) (Io.mem_io m)
  in
  let io = Io.locked faulted in
  let hook ~variant:_ ~line =
    if Hashtbl.hash (seed, line) mod 11 = 0 then
      failwith "chaos: worker killed mid-request"
  in
  let config =
    quick_config ~deadline:10.0 ~threshold:max_int ~chaos_hook:hook
      ~flush_max_batch:(1 + (seed mod 4))
      ~flush_linger:(float_of_int (seed mod 3) /. 1000.0)
      ~flush_on_idle:(seed mod 2 = 0) ()
  in
  let t = service ~config io in
  let clients = 3 and ops = 3 in
  let acked = Array.make clients [] in
  let first_error = Atomic.make None in
  let record fmt =
    Printf.ksprintf
      (fun m -> ignore (Atomic.compare_and_set first_error None (Some m)))
      fmt
  in
  let writers_done = Atomic.make false in
  let readers =
    List.init 2 (fun ri ->
        Thread.create
          (fun () ->
            let c = Service.connect t in
            ignore (Service.request t c "@open v readonly");
            let last = ref 0 in
            let flip = ref false in
            while not (Atomic.get writers_done) do
              flip := not !flip;
              let line = if !flip then "check" else "summary" in
              let r = Service.request t c line in
              (match r.Protocol.status with
              | Protocol.Ok -> (
                  (match r.Protocol.version with
                  | Some v ->
                      if v < !last then
                        record
                          "seed %d reader %d: version went backwards (%d \
                           after %d)"
                          seed ri v !last
                      else last := v
                  | None ->
                      record "seed %d reader %d: read response without #version"
                        seed ri);
                  if line = "check" then
                    List.iter
                      (fun b ->
                        if Str_contains.contains b "error [" then
                          record
                            "seed %d reader %d: torn read — snapshot failed \
                             the consistency checker: %s"
                            seed ri b)
                      r.Protocol.body)
              | Protocol.Err _ ->
                  (* evicted/expired under chaos: reattach and continue *)
                  ignore (Service.request t c "@open v readonly")
              | Protocol.Readonly m ->
                  record "seed %d reader %d: read refused as mutating: %s" seed
                    ri m
              | Protocol.Busy _ -> Thread.delay 0.0005);
              Thread.delay 0.0002
            done;
            Service.disconnect t c)
          ())
  in
  let threads =
    List.init clients (fun i ->
        Thread.create
          (fun () ->
            let c = Service.connect t in
            for j = 1 to ops do
              let name = Printf.sprintf "c%d_%d" i j in
              (* open (sessions get evicted under chaos), focus, apply; a
                 few attempts per op, give up on persistent refusal *)
              let rec attempt k =
                if k > 0 then begin
                  ignore (Service.request t c "@open v");
                  ignore (Service.request t c "focus ww:Person");
                  let r = Service.request t c (apply_line name) in
                  match r.Protocol.status with
                  | Protocol.Ok -> (
                      acked.(i) <- name :: acked.(i);
                      (* read-your-writes: a later read on this connection
                         must see at least the acked write's stamp *)
                      match r.Protocol.version with
                      | None ->
                          record "seed %d: acked write without #version" seed
                      | Some vw -> (
                          let r2 = Service.request t c "log" in
                          match (r2.Protocol.status, r2.Protocol.version) with
                          | Protocol.Ok, Some vr when vr < vw ->
                              record
                                "seed %d client %d: read-your-writes violated \
                                 (read %d after write %d)"
                                seed i vr vw
                          | _ -> ()))
                  | Protocol.Err m when Str_contains.contains m "rejected" ->
                      (* the engine refused it — e.g. a crashed-but-written
                         earlier attempt replayed into the reopened session.
                         Applied or not, it was never acknowledged. *)
                      ()
                  | _ ->
                      Thread.delay 0.001;
                      attempt (k - 1)
                end
              in
              attempt 4
            done;
            Service.disconnect t c)
          ())
  in
  List.iter Thread.join threads;
  Atomic.set writers_done true;
  List.iter Thread.join readers;
  (match Atomic.get first_error with
  | Some m -> Alcotest.fail m
  | None -> ());
  ignore (Service.shutdown t);
  (* power loss, then recovery with the fault injector unplugged *)
  Io.mem_crash ~flush:seed m;
  let store = Store.open_dir ~io:plain "/repo/variants/v" in
  let report = Store.fsck ~salvage:true store in
  (match report.Store.fsck_session with
  | Some _ -> ()
  | None -> Alcotest.failf "seed %d: repository unrecoverable" seed);
  (match (Store.fsck store).Store.fsck_issues with
  | [] -> ()
  | issues ->
      Alcotest.failf "seed %d: not clean after salvage: %s" seed
        (String.concat "; " issues));
  let steps = recovered_steps plain in
  let position name =
    let rec go k = function
      | [] -> None
      | s :: rest ->
          if Str_contains.contains s (name ^ ")") then Some k else go (k + 1) rest
    in
    go 0 steps
  in
  Array.iteri
    (fun i names ->
      ignore
        (List.fold_left
           (fun last name ->
             match position name with
             | None ->
                 Alcotest.failf "seed %d: acked op %s lost after recovery" seed
                   name
             | Some p ->
                 if p > last then
                   Alcotest.failf "seed %d: client %d acked ops out of order"
                     seed i;
                 p)
           max_int (* acked lists are newest-first *)
           names))
    acked

let chaos_soak_schedules = 200

let chaos_property () =
  with_watchdog ~secs:300.0 ~name:"chaos schedules" (fun () ->
      for seed = 0 to chaos_soak_schedules - 1 do
        chaos_schedule seed
      done)

(* The @soak alias: keep running fresh schedules for SWSD_SOAK_SECS wall
   seconds (tier-1 skips this; the suite is only registered when set). *)
let soak () =
  let secs =
    match float_of_string_opt (Sys.getenv "SWSD_SOAK_SECS") with
    | Some s -> s
    | None -> 30.0
  in
  with_watchdog ~secs:(secs +. 120.0) ~name:"chaos soak" (fun () ->
      let t0 = Unix.gettimeofday () in
      let n = ref 0 in
      while Unix.gettimeofday () -. t0 < secs do
        chaos_schedule (1000 + !n);
        incr n
      done;
      Printf.printf "soak: %d chaos schedule(s) in %.1fs, all clean\n%!" !n
        (Unix.gettimeofday () -. t0);
      if !n < chaos_soak_schedules then
        Alcotest.failf "soak ran only %d schedule(s) in %.0fs" !n secs)

(* --- the real socket server ------------------------------------------------ *)

let tmp_dir = Util.tmp_dir
let rm_rf = Util.rm_rf

let socket_end_to_end () =
  with_watchdog ~secs:60.0 ~name:"socket end-to-end" (fun () ->
      let dir = tmp_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          (match Repo.init dir (tiny ()) with
          | Result.Ok _ -> ()
          | Result.Error e -> Alcotest.fail e);
          let socket_path = Filename.concat dir "swsd.sock" in
          let server =
            match
              Server.create ~listen:(Server.Protocol.Unix_path socket_path) dir
            with
            | Result.Ok s -> s
            | Result.Error m -> Alcotest.fail m
          in
          let runner = Thread.create (fun () -> ignore (Server.run server)) () in
          let client =
            match Server.Client.connect socket_path with
            | Result.Ok c -> c
            | Result.Error m -> Alcotest.fail m
          in
          (match Server.Client.read_response client with
          | Some greeting ->
              Alcotest.(check bool) "greeting terminates with !ok" true
                (List.mem "!ok" greeting)
          | None -> Alcotest.fail "no greeting");
          let roundtrip line =
            match Server.Client.request client line with
            | Some lines -> lines
            | None -> Alcotest.failf "%s: server hung up" line
          in
          let expect_ok line =
            let lines = roundtrip line in
            if not (List.mem "!ok" lines) then
              Alcotest.failf "%s: %s" line (String.concat " | " lines)
          in
          expect_ok "@new night";
          expect_ok "focus ww:Person";
          expect_ok (apply_line "over_the_wire");
          Alcotest.(check bool) "journal durable behind the socket" true
            (Str_contains.contains
               (Io.unix.Io.read_file
                  (Filename.concat dir "variants/night/log.ops"))
               "over_the_wire");
          (* the branch/merge round trip over the same wire *)
          expect_ok "@close";
          expect_ok "@branch night day";
          expect_ok "@open day";
          expect_ok "focus ww:Person";
          expect_ok (apply_line "on_the_branch");
          expect_ok "@close";
          let merged = roundtrip "@merge day into night" in
          if not (List.mem "!ok" merged) then
            Alcotest.failf "@merge over the wire: %s"
              (String.concat " | " merged);
          Alcotest.(check bool) "merge report crosses the socket" true
            (List.exists
               (fun l ->
                 Str_contains.contains l "merge report: day into night")
               merged);
          Alcotest.(check bool) "merged op durable behind the socket" true
            (Str_contains.contains
               (Io.unix.Io.read_file
                  (Filename.concat dir "variants/night/log.ops"))
               "on_the_branch");
          expect_ok "@quit";
          Server.Client.close client;
          (* a second client arrives, then the server stops underneath it *)
          Server.stop server;
          Thread.join runner;
          Alcotest.(check bool) "socket file removed" false
            (Sys.file_exists socket_path)))

(* Does the peer hang up within [secs]?  The reader of a client that
   sent nothing is empty, so readiness here is the EOF itself. *)
let eof_within secs c =
  match Unix.select [ Server.Client.fd c ] [] [] secs with
  | [], _, _ -> false
  | _ -> Server.Client.read_line c = None

(* [stop] with an idle client connected: [run] returns, the client is
   hung up on, and the socket file is gone. *)
let stop_ends_idle_connections () =
  with_watchdog ~secs:30.0 ~name:"stop ends idle connections" (fun () ->
      let dir = tmp_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          (match Repo.init dir (tiny ()) with
          | Result.Ok _ -> ()
          | Result.Error e -> Alcotest.fail e);
          let path = Filename.concat dir "swsd.sock" in
          let server =
            match Server.create ~listen:(Protocol.Unix_path path) dir with
            | Result.Ok s -> s
            | Result.Error m -> Alcotest.fail m
          in
          let runner = Thread.create (fun () -> ignore (Server.run server)) () in
          let client =
            match Server.Client.connect ~retry_for:10.0 path with
            | Result.Ok c -> c
            | Result.Error m -> Alcotest.fail m
          in
          ignore (Server.Client.read_response client);
          Server.stop server;
          Thread.join runner;
          Alcotest.(check bool) "the idle client reads EOF within 1 s" true
            (eof_within 1.0 client);
          Alcotest.(check bool) "socket file removed" false
            (Sys.file_exists path);
          Server.Client.close client))

(* A write in flight when [stop] lands is drained, and its reply still
   reaches the client before the connection is ended.  The write is held
   inside its journal fsync until the stop has landed. *)
let stop_answers_request_in_flight () =
  with_watchdog ~secs:30.0 ~name:"stop answers the request in flight" (fun () ->
      let dir = tmp_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          (match Repo.init dir (tiny ()) with
          | Result.Ok _ -> ()
          | Result.Error e -> Alcotest.fail e);
          let hold = Atomic.make false and held = Atomic.make false in
          let io =
            {
              Io.unix with
              Io.fsync =
                (fun p ->
                  while Atomic.get hold do
                    Atomic.set held true;
                    Thread.delay 0.005
                  done;
                  Io.unix.Io.fsync p);
            }
          in
          let path = Filename.concat dir "swsd.sock" in
          let server =
            match Server.create ~io ~listen:(Protocol.Unix_path path) dir with
            | Result.Ok s -> s
            | Result.Error m -> Alcotest.fail m
          in
          let runner = Thread.create (fun () -> ignore (Server.run server)) () in
          let client =
            match Server.Client.connect ~retry_for:10.0 path with
            | Result.Ok c -> c
            | Result.Error m -> Alcotest.fail m
          in
          ignore (Server.Client.read_response client);
          let expect_ok line =
            match Server.Client.request client line with
            | Some lines when List.mem "!ok" lines -> ()
            | Some lines -> Alcotest.failf "%s: %s" line (String.concat " | " lines)
            | None -> Alcotest.failf "%s: server hung up" line
          in
          expect_ok "@new v";
          expect_ok "focus ww:Person";
          Atomic.set hold true;
          Server.Transport.write_all (Server.Client.fd client)
            (apply_line "in_flight" ^ "\n");
          while not (Atomic.get held) do
            Thread.delay 0.005
          done;
          Server.stop server;
          (* past one accept-loop poll: the listener is gone *)
          Thread.delay 0.3;
          Atomic.set hold false;
          (match Server.Client.read_response client with
          | Some lines ->
              Alcotest.(check bool)
                ("the write in flight is acknowledged: "
                ^ String.concat " | " lines)
                true (List.mem "!ok" lines)
          | None -> Alcotest.fail "hung up on the write in flight");
          Thread.join runner;
          Alcotest.(check bool) "then the client reads EOF within 1 s" true
            (eof_within 1.0 client);
          Server.Client.close client;
          Alcotest.(check bool) "the acknowledged write is durable" true
            (Str_contains.contains
               (Io.unix.Io.read_file (Filename.concat dir "variants/v/log.ops"))
               "in_flight")))

(* [swsd serve] as a child process: SIGTERM must drain gracefully (exit 0)
   and a concurrent [repl --save] on a served variant must fail fast. *)
let sigterm_drains () =
  with_watchdog ~secs:60.0 ~name:"sigterm drain" (fun () ->
      let dir = tmp_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          (match Repo.init dir (tiny ()) with
          | Result.Ok repo -> (
              match Repo.create_variant repo "v" with
              | Result.Ok _ -> ()
              | Result.Error e -> Alcotest.fail e)
          | Result.Error e -> Alcotest.fail e);
          let socket_path = Filename.concat dir "swsd.sock" in
          let pid =
            Unix.create_process "../bin/swsd.exe"
              [| "swsd"; "serve"; dir; "--socket"; socket_path |]
              Unix.stdin Unix.stdout Unix.stderr
          in
          (* poll for socket readiness against a wall-clock deadline (not a
             fixed try count x fixed sleep): a slow CI box gets the whole
             window, a fast one connects on the first probe, and a child
             that dies during startup fails the test immediately instead of
             burning the rest of the budget on connection refusals *)
          let deadline = Unix.gettimeofday () +. 30.0 in
          let rec connect () =
            match Server.Client.connect socket_path with
            | Result.Ok c -> c
            | Result.Error m ->
                (match Unix.waitpid [ Unix.WNOHANG ] pid with
                | 0, _ -> ()
                | _, status ->
                    Alcotest.failf "server died during startup (%s)"
                      (match status with
                      | Unix.WEXITED n -> Printf.sprintf "exited %d" n
                      | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
                      | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n));
                if Unix.gettimeofday () > deadline then
                  Alcotest.failf "server socket never came up: %s" m
                else begin
                  Thread.delay 0.02;
                  connect ()
                end
          in
          let client = connect () in
          ignore (Server.Client.read_response client);
          (match Server.Client.request client "@open v" with
          | Some lines -> Alcotest.(check bool) "opened" true (List.mem "!ok" lines)
          | None -> Alcotest.fail "open failed");
          (* the served variant is lockf-locked against other processes *)
          let rc =
            Sys.command
              (Printf.sprintf
                 "../bin/swsd.exe repl university --save %s </dev/null \
                  >/dev/null 2>&1"
                 (Filename.quote (Filename.concat dir "variants/v")))
          in
          Alcotest.(check int) "repl --save fails fast on a served variant" 2 rc;
          Server.Client.close client;
          Unix.kill pid Sys.sigterm;
          let _, status = Io.retry_eintr (fun () -> Unix.waitpid [] pid) in
          (match status with
          | Unix.WEXITED 0 -> ()
          | Unix.WEXITED n -> Alcotest.failf "server exited %d" n
          | Unix.WSIGNALED n -> Alcotest.failf "server killed by signal %d" n
          | Unix.WSTOPPED _ -> Alcotest.fail "server stopped");
          Alcotest.(check bool) "socket removed on drain" false
            (Sys.file_exists socket_path)))

(* --- socket lifecycle (satellites) ----------------------------------------- *)

(* The stale-socket bug: a kill -9'd server leaves its bound socket file
   behind, and [Server.create] used to die on EADDRINUSE at the next
   start.  The fix probes the path: a dead socket is unlinked and
   reclaimed; a live listener or a non-socket file is still refused. *)
let stale_socket_reclaimed () =
  with_watchdog ~secs:60.0 ~name:"stale socket reclamation" (fun () ->
      let dir = tmp_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          (match Repo.init dir (tiny ()) with
          | Result.Ok _ -> ()
          | Result.Error e -> Alcotest.fail e);
          let path = Filename.concat dir "swsd.sock" in
          (* the kill -9 shape, in-process: bind, listen, die without
             unlinking *)
          let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.bind dead (Unix.ADDR_UNIX path);
          Unix.listen dead 1;
          Unix.close dead;
          Alcotest.(check bool) "stale socket file left behind" true
            (Sys.file_exists path);
          let server =
            match Server.create ~listen:(Protocol.Unix_path path) dir with
            | Result.Ok s -> s
            | Result.Error m -> Alcotest.failf "stale socket not reclaimed: %s" m
          in
          let runner = Thread.create (fun () -> ignore (Server.run server)) () in
          let client =
            match Server.Client.connect ~retry_for:10.0 path with
            | Result.Ok c -> c
            | Result.Error m -> Alcotest.fail m
          in
          ignore (Server.Client.read_response client);
          (match Server.Client.request client "@ping" with
          | Some lines ->
              Alcotest.(check bool) "reclaimed server answers" true
                (List.mem "!ok" lines)
          | None -> Alcotest.fail "reclaimed server hung up");
          (* a LIVE listener is never stolen... *)
          (match Server.Transport.listen (Protocol.Unix_path path) with
          | Result.Ok l ->
              Server.Transport.stop l;
              Alcotest.fail "bind stole a live listener's socket"
          | Result.Error m ->
              Alcotest.(check bool) "refusal names the live listener" true
                (Str_contains.contains m "already listening"));
          (* ...and a regular file at the path is never unlinked *)
          let decoy = Filename.concat dir "not_a_socket" in
          Io.unix.Io.write decoy "precious";
          (match Server.Transport.listen (Protocol.Unix_path decoy) with
          | Result.Ok l ->
              Server.Transport.stop l;
              Alcotest.fail "bind replaced a regular file"
          | Result.Error m ->
              Alcotest.(check bool) "refusal names the non-socket" true
                (Str_contains.contains m "not a socket"));
          Alcotest.(check string) "the file survived the refusal" "precious"
            (Io.unix.Io.read_file decoy);
          Server.Client.close client;
          Server.stop server;
          Thread.join runner))

(* The same regression end to end: kill -9 a [swsd serve] process, then
   restart it on the very socket path the corpse left behind. *)
let kill9_restart_same_socket () =
  with_watchdog ~secs:60.0 ~name:"kill -9 then restart on the same socket"
    (fun () ->
      let dir = tmp_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          (match Repo.init dir (tiny ()) with
          | Result.Ok _ -> ()
          | Result.Error e -> Alcotest.fail e);
          let path = Filename.concat dir "swsd.sock" in
          let spawn () =
            Unix.create_process "../bin/swsd.exe"
              [| "swsd"; "serve"; dir; "--socket"; path |]
              Unix.stdin Unix.stdout Unix.stderr
          in
          let ping () =
            match Server.Client.connect ~retry_for:30.0 path with
            | Result.Error m -> Alcotest.failf "server never came up: %s" m
            | Result.Ok c ->
                ignore (Server.Client.read_response c);
                (match Server.Client.request c "@ping" with
                | Some lines ->
                    Alcotest.(check bool) "pong" true (List.mem "!ok" lines)
                | None -> Alcotest.fail "server hung up on @ping");
                Server.Client.close c
          in
          let pid = spawn () in
          ping ();
          Unix.kill pid Sys.sigkill;
          ignore (Io.retry_eintr (fun () -> Unix.waitpid [] pid));
          Alcotest.(check bool) "kill -9 leaves the socket file behind" true
            (Sys.file_exists path);
          (* the regression: this restart used to fail on EADDRINUSE *)
          let pid = spawn () in
          ping ();
          Unix.kill pid Sys.sigterm;
          let _, status = Io.retry_eintr (fun () -> Unix.waitpid [] pid) in
          match status with
          | Unix.WEXITED 0 -> ()
          | Unix.WEXITED n -> Alcotest.failf "restarted server exited %d" n
          | Unix.WSIGNALED n ->
              Alcotest.failf "restarted server killed by signal %d" n
          | Unix.WSTOPPED _ -> Alcotest.fail "restarted server stopped"))

(* [Client.connect ~retry_for] rides out the startup race (ECONNREFUSED /
   ENOENT while the server is still binding) but still fails honestly
   against a server that never arrives. *)
let connect_retry_deadline () =
  with_watchdog ~secs:60.0 ~name:"bounded connect retry" (fun () ->
      let dir = tmp_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          (match Repo.init dir (tiny ()) with
          | Result.Ok _ -> ()
          | Result.Error e -> Alcotest.fail e);
          let path = Filename.concat dir "swsd.sock" in
          (* nothing will ever listen here: the retry gives up at its
             deadline, not immediately and not never *)
          let t0 = Unix.gettimeofday () in
          (match Server.Client.connect ~retry_for:0.3 path with
          | Result.Ok _ -> Alcotest.fail "connected to nothing"
          | Result.Error _ -> ());
          let waited = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool)
            (Printf.sprintf "gave up near the deadline (%.2fs)" waited)
            true
            (waited >= 0.25 && waited < 10.0);
          (* a server that binds late: the retrying client wins the race a
             single-shot connect used to flake on *)
          let slot = Atomic.make None in
          let late =
            Thread.create
              (fun () ->
                Thread.delay 0.3;
                match Server.create ~listen:(Protocol.Unix_path path) dir with
                | Result.Error m -> Printf.eprintf "late server: %s\n%!" m
                | Result.Ok s ->
                    Atomic.set slot (Some s);
                    ignore (Server.run s))
              ()
          in
          (match Server.Client.connect ~retry_for:10.0 path with
          | Result.Error m -> Alcotest.failf "retrying connect lost: %s" m
          | Result.Ok c ->
              (match Server.Client.read_response c with
              | Some greeting ->
                  Alcotest.(check bool) "greeted" true (List.mem "!ok" greeting)
              | None -> Alcotest.fail "no greeting");
              Server.Client.close c);
          let rec stop_late () =
            match Atomic.get slot with
            | Some s -> Server.stop s
            | None ->
                Thread.delay 0.02;
                stop_late ()
          in
          stop_late ();
          Thread.join late))

(* A client that pipelines requests and vanishes without reading: the
   server hits EPIPE mid-response, which must be that connection's clean
   teardown — the process survives, the session detaches, and the next
   client gets full service. *)
let hangup_mid_response () =
  with_watchdog ~secs:60.0 ~name:"client hangup mid-response" (fun () ->
      let dir = tmp_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          (match Repo.init dir (tiny ()) with
          | Result.Ok _ -> ()
          | Result.Error e -> Alcotest.fail e);
          let path = Filename.concat dir "swsd.sock" in
          let server =
            match Server.create ~listen:(Protocol.Unix_path path) dir with
            | Result.Ok s -> s
            | Result.Error m -> Alcotest.fail m
          in
          let runner = Thread.create (fun () -> ignore (Server.run server)) () in
          (* rude clients: stuff the pipe with requests whose responses
             are large, never read a byte, slam the connection *)
          for _ = 1 to 5 do
            match Server.Transport.connect ~retry_for:10.0 (Protocol.Unix_path path) with
            | Result.Error m -> Alcotest.fail m
            | Result.Ok fd ->
                let burst =
                  "@open rude\n"
                  ^ String.concat ""
                      (List.init 50 (fun _ -> "@stats json\n@list\n"))
                in
                Server.Transport.write_all fd burst;
                Unix.close fd
          done;
          (* the server is intact and polite to the next client *)
          let client =
            match Server.Client.connect ~retry_for:10.0 path with
            | Result.Ok c -> c
            | Result.Error m ->
                Alcotest.failf "server died with its rude clients: %s" m
          in
          ignore (Server.Client.read_response client);
          let expect_ok line =
            match Server.Client.request client line with
            | Some lines ->
                if not (List.mem "!ok" lines) then
                  Alcotest.failf "%s: %s" line (String.concat " | " lines)
            | None -> Alcotest.failf "%s: server hung up" line
          in
          expect_ok "@new survivor";
          expect_ok "focus ww:Person";
          expect_ok (apply_line "after_the_rudeness");
          expect_ok "@quit";
          Server.Client.close client;
          (* every rude connection tore down cleanly: no session leaks *)
          let deadline = Unix.gettimeofday () +. 10.0 in
          while
            Service.session_count (Server.service server) > 0
            && Unix.gettimeofday () < deadline
          do
            Thread.delay 0.02
          done;
          Alcotest.(check int) "sessions drained back to zero" 0
            (Service.session_count (Server.service server));
          Server.stop server;
          Thread.join runner))

(* --- deterministic listings (satellite) ------------------------------------ *)

let variant_names_sorted () =
  let m = Io.mem_create () in
  let io = Io.mem_io m in
  (match Repo.init ~io "/repo" (tiny ()) with
  | Result.Ok repo ->
      List.iter
        (fun n ->
          match Repo.create_variant repo n with
          | Result.Ok _ -> ()
          | Result.Error e -> Alcotest.fail e)
        [ "zeta"; "alpha"; "mid" ]
  | Result.Error e -> Alcotest.fail e);
  (* a filesystem enumerating in any order must not leak through *)
  let scrambled = { io with Io.readdir = (fun p -> List.rev (io.Io.readdir p)) } in
  match Repo.open_dir ~io:scrambled "/repo" with
  | Result.Error e -> Alcotest.fail e
  | Result.Ok repo ->
      Alcotest.(check (list string)) "sorted regardless of readdir order"
        [ "alpha"; "mid"; "zeta" ]
        (Repo.variant_names repo)

(* --- snapshot concurrency: the lock-free read path ------------------------- *)

let readonly_connection () =
  let _, io = mem_repo () in
  let t = service ~config:(quick_config ()) io in
  let ro = Service.connect t and rw = Service.connect t in
  let r = Service.request t ro "@open v readonly" in
  (match r.Protocol.status with
  | Protocol.Ok -> ()
  | _ -> Alcotest.failf "readonly open failed: %s" (Protocol.to_string r));
  Alcotest.(check bool) "attach announces readonly" true
    (List.exists (fun l -> Str_contains.contains l "readonly") r.Protocol.body);
  (* reads flow, and so does focus (write-class but not mutating) *)
  ignore (req_ok t ro "summary");
  ignore (req_ok t ro "check");
  ignore (req_ok t ro "focus ww:Person");
  (* mutations get !readonly — a distinct status, not a generic !err *)
  let refused line =
    let r = Service.request t ro line in
    match r.Protocol.status with
    | Protocol.Readonly m ->
        Alcotest.(check bool) "refusal says how to get write access" true
          (Str_contains.contains m "reopen")
    | _ -> Alcotest.failf "%s not refused: %s" line (Protocol.to_string r)
  in
  refused (apply_line "nickname");
  refused "undo";
  refused "alias nick nickname";
  (* the refusal is connection-scoped: the variant stays writable *)
  ignore (req_ok t rw "@open v");
  ignore (req_ok t rw "focus ww:Person");
  ignore (req_ok t rw (apply_line "nickname"));
  (* ...and the readonly reader sees the committed write *)
  Alcotest.(check bool) "reader sees the committed write" true
    (List.exists
       (fun l -> Str_contains.contains l "nickname)")
       (req_ok t ro "log"));
  let sn = Obs.snapshot (Service.obs t) in
  (match List.assoc_opt "swsd.readonly.rejected_total" sn.Obs.sn_counters with
  | Some n when n >= 3 -> ()
  | v ->
      Alcotest.failf "readonly rejections miscounted: %s"
        (match v with Some n -> string_of_int n | None -> "absent"));
  (* reopening without readonly restores write access *)
  ignore (req_ok t ro "@close");
  ignore (req_ok t ro "@open v");
  ignore (req_ok t ro "focus ww:Course");
  ignore (req_ok t ro (apply_line "credits_note"));
  ignore (Service.shutdown t)

let version_stamps () =
  let _, io = mem_repo () in
  let t = service ~config:(quick_config ()) io in
  let c = Service.connect t in
  let version line =
    let r = Service.request t c line in
    match (r.Protocol.status, r.Protocol.version) with
    | Protocol.Ok, Some v -> v
    | Protocol.Ok, None -> Alcotest.failf "%s: !ok without #version" line
    | _ -> Alcotest.failf "%s failed: %s" line (Protocol.to_string r)
  in
  let v0 = version "@open v" in
  Alcotest.(check bool) "first publication stamps from 1" true (v0 >= 1);
  Alcotest.(check int) "a read does not advance the stamp" v0 (version "summary");
  let v1 = version "focus ww:Person" in
  Alcotest.(check bool) "a state change advances the stamp" true (v1 > v0);
  let v2 = version (apply_line "nickname") in
  Alcotest.(check bool) "a write advances the stamp" true (v2 > v1);
  Alcotest.(check bool) "read-your-writes" true (version "log" >= v2);
  let v3 = version "undo" in
  Alcotest.(check bool) "undo publishes a new state" true (v3 > v2);
  (* a rejected op responds with the stamp left where it was *)
  let r = Service.request t c "apply add_attribute(NoSuch, string, 8, x)" in
  (match (r.Protocol.status, r.Protocol.version) with
  | Protocol.Err _, Some v ->
      Alcotest.(check int) "rejected op keeps the stamp" v3 v
  | _ -> Alcotest.failf "bad apply should be !err with #version");
  (* the stamp survives eviction: @close frees the session (and retracts
     the snapshot); reopening reloads and republishes strictly above *)
  ignore (req_ok t c "@close");
  Alcotest.(check int) "session freed" 0 (Service.session_count t);
  let v4 = version "@open v" in
  Alcotest.(check bool) "stamps stay monotone across eviction" true (v4 > v3);
  ignore (Service.shutdown t)

let read_path_counters () =
  let _, io = mem_repo () in
  let t = service ~config:(quick_config ()) io in
  let c = Service.connect t in
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "summary");
  ignore (req_ok t c "check");
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c (apply_line "nickname"));
  let sn = Obs.snapshot (Service.obs t) in
  ignore (Service.shutdown t);
  let n name =
    match List.assoc_opt name sn.Obs.sn_counters with Some v -> v | None -> 0
  in
  let histos name =
    match List.assoc_opt name sn.Obs.sn_histos with
    | Some h -> h.Obs.Histo.s_count
    | None -> 0
  in
  Alcotest.(check int) "lock-free serves both reads" 2
    (n "swsd.read.lockfree_total");
  Alcotest.(check int) "no fallbacks with a live snapshot" 0
    (n "swsd.read.fallback_total");
  Alcotest.(check int) "focus and apply are writes" 2 (n "swsd.write_total");
  Alcotest.(check int) "read latencies recorded" 2 (histos "swsd.read_seconds");
  Alcotest.(check int) "write latencies recorded" 2
    (histos "swsd.write_seconds")

(* Snapshot isolation without chaos: three readonly readers hammer the
   snapshot while one writer storms; every read must be a consistent
   schema with a never-backwards stamp, and none may fail or shed. *)
let snapshot_isolation_storm () =
  with_watchdog ~secs:60.0 ~name:"snapshot isolation storm" (fun () ->
      let _, io = mem_repo () in
      let t = service ~config:(quick_config ~deadline:10.0 ()) io in
      let first_error = Atomic.make None in
      let record fmt =
        Printf.ksprintf
          (fun m -> ignore (Atomic.compare_and_set first_error None (Some m)))
          fmt
      in
      let storm_done = Atomic.make false in
      let reads = Atomic.make 0 in
      (* the readers spin; more of them than spare cores just preempts the
         writer (and on a 1-2 core CI box, stalls the whole storm) without
         adding any concurrency the test cares about *)
      let nreaders =
        max 1 (min 3 (Domain.recommended_domain_count () - 1))
      in
      let readers =
        List.init nreaders (fun ri ->
            Thread.create
              (fun () ->
                let c = Service.connect t in
                ignore (Service.request t c "@open v readonly");
                let last = ref 0 in
                let flip = ref false in
                while not (Atomic.get storm_done) do
                  flip := not !flip;
                  let line = if !flip then "check" else "summary" in
                  let r = Service.request t c line in
                  (match r.Protocol.status with
                  | Protocol.Ok ->
                      Atomic.incr reads;
                      (match r.Protocol.version with
                      | Some v when v >= !last -> last := v
                      | Some v ->
                          record "reader %d: version backwards (%d after %d)"
                            ri v !last
                      | None -> record "reader %d: read without #version" ri);
                      if line = "check" then
                        List.iter
                          (fun b ->
                            if Str_contains.contains b "error [" then
                              record "reader %d: torn read: %s" ri b)
                          r.Protocol.body
                  | _ ->
                      record "reader %d: read failed under storm: %s" ri
                        (Protocol.to_string r));
                  Thread.yield ()
                done;
                Service.disconnect t c)
              ())
      in
      let c = Service.connect t in
      ignore (req_ok t c "@open v");
      ignore (req_ok t c "focus ww:Person");
      (* the mem fs never blocks, so on one core the storm could finish
         before any reader thread is scheduled: wait for every reader to
         be reading, and yield between writes to keep them interleaved *)
      while Atomic.get reads < nreaders do
        Thread.yield ()
      done;
      for k = 1 to 30 do
        ignore (req_ok t c (apply_line (Printf.sprintf "storm_%d" k)));
        if k mod 5 = 0 then ignore (req_ok t c "undo");
        Thread.yield ()
      done;
      Atomic.set storm_done true;
      List.iter Thread.join readers;
      (match Atomic.get first_error with
      | Some m -> Alcotest.fail m
      | None -> ());
      Alcotest.(check bool) "readers actually overlapped the storm" true
        (Atomic.get reads > 0);
      ignore (Service.shutdown t))

(* --- branch and merge: optimistic concurrent design ------------------------ *)

let body_contains body needle =
  List.exists (fun l -> Str_contains.contains l needle) body

(* "branched w from v@N" -> N *)
let fork_of_branch_body body =
  match
    List.find_map
      (fun l ->
        match String.rindex_opt l '@' with
        | Some i when Str_contains.contains l "branched" ->
            int_of_string_opt
              (String.sub l (i + 1) (String.length l - i - 1))
        | _ -> None)
      body
  with
  | Some n -> n
  | None ->
      Alcotest.failf "branch response carries no fork stamp: %s"
        (String.concat " | " body)

(* The lineage listing (satellite): one deterministic line per variant —
   name, parent@stamp or root, era — sorted, pinned to the byte. *)
let branch_lineage_listing () =
  let _, io = mem_repo () in
  let t = service ~config:(quick_config ()) io in
  let c = Service.connect t in
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c (apply_line "pre_fork"));
  ignore (req_ok t c "@close");
  let body = req_ok t c "@branch v w" in
  Alcotest.(check bool) "response announces parent and fork" true
    (body_contains body "branched w from v@");
  let fork = fork_of_branch_body body in
  Alcotest.(check int) "forked at the parent's tip" 2 fork;
  Alcotest.(check (list string)) "pinned lineage listing"
    [ "v root era 0"; "w v@2 era 0" ]
    (req_ok t c "@list");
  (* @at forks at a historical point; the stamp is the branch point *)
  let body = req_ok t c "@branch v x @at 0" in
  Alcotest.(check int) "@at 0 forks before the first op" 0
    (fork_of_branch_body body);
  Alcotest.(check (list string)) "listing stays sorted and deterministic"
    [ "v root era 0"; "w v@2 era 0"; "x v@0 era 0" ]
    (req_ok t c "@list");
  (* the historical child really lacks the parent's later op *)
  ignore (req_ok t c "@open x readonly");
  Alcotest.(check bool) "x predates pre_fork" false
    (body_contains (req_ok t c "log") "pre_fork");
  (* refusals: unknown parent, duplicate child *)
  Alcotest.(check bool) "unknown parent refused" true
    (Str_contains.contains (req_err t c "@branch ghost y") "ghost");
  Alcotest.(check bool) "existing child refused" true
    (Str_contains.contains (req_err t c "@branch v w") "exists");
  ignore (Service.shutdown t)

(* A branched child's published stamp never falls below its fork stamp:
   a reader attaching to the fresh copy sees [#version >= fork], not a
   from-1 restart (satellite). *)
let branch_child_version_floor () =
  let _, io = mem_repo () in
  let t = service ~config:(quick_config ()) io in
  let c = Service.connect t in
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c (apply_line "one"));
  ignore (req_ok t c (apply_line "two"));
  ignore (req_ok t c (apply_line "three"));
  ignore (req_ok t c "@close");
  let r = Service.request t c "@branch v w" in
  let fork =
    match r.Protocol.status with
    | Protocol.Ok -> fork_of_branch_body r.Protocol.body
    | _ -> Alcotest.failf "branch failed: %s" (Protocol.to_string r)
  in
  Alcotest.(check bool) "fork stamp covers the parent's ops" true (fork >= 3);
  (match r.Protocol.version with
  | Some v when v >= fork -> ()
  | v ->
      Alcotest.failf "branch published w at %s, below fork %d"
        (match v with Some v -> string_of_int v | None -> "none")
        fork);
  (* a fresh readonly reader reports at least the fork stamp too *)
  let ro = Service.connect t in
  let r = Service.request t ro "@open w readonly" in
  (match (r.Protocol.status, r.Protocol.version) with
  | Protocol.Ok, Some v when v >= fork -> ()
  | Protocol.Ok, v ->
      Alcotest.failf "reader attached at %s, below fork %d"
        (match v with Some v -> string_of_int v | None -> "none")
        fork
  | _ -> Alcotest.failf "readonly attach failed: %s" (Protocol.to_string r));
  ignore (Service.shutdown t)

(* The full optimistic-concurrency round trip: fork, design independently
   on both sides, dry-run, merge.  The clean branch op lands on the
   destination; the branch itself is never written. *)
let merge_round_trip () =
  let _, io = mem_repo () in
  let t = service ~config:(quick_config ()) io in
  let c = Service.connect t in
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c (apply_line "pre_fork"));
  ignore (req_ok t c "@close");
  ignore (req_ok t c "@branch v w");
  ignore (req_ok t c "@open w");
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c (apply_line "on_branch"));
  ignore (req_ok t c "@close");
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c (apply_line "on_base"));
  ignore (req_ok t c "@close");
  (* dry run: the report comes back, nothing is written *)
  let dry = req_ok t c "@merge w into v --dry-run" in
  Alcotest.(check bool) "dry run labelled" true
    (body_contains dry "merge report: w into v (dry run)");
  Alcotest.(check bool) "dry run classifies the branch op clean" true
    (body_contains dry "1 clean");
  Alcotest.(check bool) "dry run writes nothing" false
    (Str_contains.contains (io.Io.read_file "/repo/variants/v/log.ops") "on_branch");
  (* the real merge: durable on the destination, branch untouched *)
  let body = req_ok t c "@merge w into v" in
  Alcotest.(check bool) "merge reports" true
    (body_contains body "merge report: w into v");
  Alcotest.(check bool) "merged op durable on the destination" true
    (Str_contains.contains (io.Io.read_file "/repo/variants/v/log.ops") "on_branch");
  Alcotest.(check bool) "the branch is never written by a merge" false
    (Str_contains.contains (io.Io.read_file "/repo/variants/w/log.ops") "on_base");
  (* a designer on v sees both lines of development *)
  ignore (req_ok t c "@open v");
  let log = req_ok t c "log" in
  Alcotest.(check bool) "merged history: base op" true
    (body_contains log "on_base");
  Alcotest.(check bool) "merged history: branch op" true
    (body_contains log "on_branch");
  (* merging a variant into itself is refused *)
  Alcotest.(check bool) "self-merge refused" true
    (Str_contains.contains (req_err t c "@merge v into v") "itself");
  (* the merge counters moved, and the trace shows a rebase phase *)
  let sn = Obs.snapshot (Service.obs t) in
  (match List.assoc_opt "swsd.merge.clean_total" sn.Obs.sn_counters with
  | Some n when n >= 2 -> () (* dry run + real merge *)
  | v ->
      Alcotest.failf "clean merges miscounted: %s"
        (match v with Some n -> string_of_int n | None -> "absent"));
  Alcotest.(check bool) "rebase phase traced" true
    (Str_contains.contains
       (String.concat "\n" (req_ok t c "@stats"))
       "rebase=");
  ignore (Service.shutdown t)

(* The paper's semantic conflict, end to end: the base deletes the type
   the branch decorated.  The merge still answers !ok — the conflict is
   *reported* in the impact report, never silently applied. *)
let merge_conflict_reported () =
  let _, io = mem_repo () in
  let t = service ~config:(quick_config ()) io in
  let c = Service.connect t in
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c (apply_line "pre_fork"));
  ignore (req_ok t c "@close");
  ignore (req_ok t c "@branch v w");
  ignore (req_ok t c "@open w");
  ignore (req_ok t c "focus ww:Person");
  ignore
    (req_ok t c "apply add_attribute(Course, string, 8, on_branch)");
  ignore (req_ok t c (apply_line "also_clean"));
  ignore (req_ok t c "@close");
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c "apply delete_type_definition(Course)");
  ignore (req_ok t c "@close");
  let r = Service.request t c "@merge w into v" in
  (match r.Protocol.status with
  | Protocol.Ok -> ()
  | _ ->
      Alcotest.failf "a conflicted merge still reports with !ok: %s"
        (Protocol.to_string r));
  let body = r.Protocol.body in
  Alcotest.(check bool) "impact report flags the conflict" true
    (body_contains body "CONFLICT");
  Alcotest.(check bool) "tallies one clean, one conflict" true
    (body_contains body "1 clean" && body_contains body "1 conflict(s)");
  (* the conflicted op never reached the destination; the clean one did *)
  let journal = io.Io.read_file "/repo/variants/v/log.ops" in
  Alcotest.(check bool) "conflicted op not applied" false
    (Str_contains.contains journal "on_branch");
  Alcotest.(check bool) "clean op applied" true
    (Str_contains.contains journal "also_clean");
  let sn = Obs.snapshot (Service.obs t) in
  (match List.assoc_opt "swsd.merge.conflict_total" sn.Obs.sn_counters with
  | Some n when n >= 1 -> ()
  | v ->
      Alcotest.failf "conflicts miscounted: %s"
        (match v with Some n -> string_of_int n | None -> "absent"));
  ignore (Service.shutdown t)

(* Lineage on the read side: @query lineage answers from the variant's
   materialized view; branches-of is repository-scoped. *)
let lineage_queries () =
  let _, io = mem_repo () in
  let t = service ~config:(quick_config ()) io in
  let c = Service.connect t in
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c (apply_line "pre_fork"));
  ignore (req_ok t c "@close");
  ignore (req_ok t c "@branch v w");
  ignore (req_ok t c "@open v");
  Alcotest.(check (list string)) "a root variant has no parent" [ "root" ]
    (req_ok t c "@query lineage");
  Alcotest.(check (list string)) "branches of the root" [ "w fork 2" ]
    (req_ok t c "@query branches of v");
  ignore (req_ok t c "@close");
  ignore (req_ok t c "@open w");
  let lines = req_ok t c "@query lineage" in
  Alcotest.(check bool) "child names its parent and fork" true
    (body_contains lines "parent v@2");
  Alcotest.(check bool) "child points at the fork diff" true
    (body_contains lines "diff since fork: @query diff 2");
  Alcotest.(check (list string)) "the child has no branches yet" []
    (req_ok t c "@query branches of w");
  Alcotest.(check bool) "unknown variant refused" true
    (Str_contains.contains (req_err t c "@query branches of ghost") "ghost");
  ignore (Service.shutdown t)

(* --- chaos: crash in the middle of a merge --------------------------------- *)

let merge_recovered_steps io variant =
  match
    Store.load_session (Store.open_dir ~io ("/repo/variants/" ^ variant))
  with
  | Result.Ok s ->
      List.map
        (fun (st : Core.Session.step) ->
          Core.Op_printer.to_string (Core.Session.step_op st))
        (Core.Session.log s)
  | Result.Error e -> Alcotest.fail (Store.load_error_to_string e)

(* One schedule: build divergent histories cleanly, then attempt the
   merge over a filesystem that crashes at a seed-chosen syscall while a
   seed-chosen subset of merge requests is killed mid-flight by the
   chaos hook; group-commit flush policy varies by seed so the crash
   lands in every phase of the write pipeline.  Then power loss, and the
   audit: both variants must fsck back to a session (salvageable — exit
   0/1, never 2), every acked op must survive — including the merged
   branch ops iff the merge was acknowledged — and the child's lineage
   record must still name its parent. *)
let merge_chaos_schedule seed =
  let m = Io.mem_create () in
  let plain = Io.locked (Io.mem_io m) in
  (match Repo.init ~io:plain "/repo" (tiny ()) with
  | Result.Ok repo -> (
      match Repo.create_variant repo "v" with
      | Result.Ok _ -> ()
      | Result.Error e -> Alcotest.fail e)
  | Result.Error e -> Alcotest.fail e);
  (* divergent histories, no faults: these acks are durable ground truth *)
  let setup = service ~config:(quick_config ()) plain in
  let c = Service.connect setup in
  ignore (req_ok setup c "@open v");
  ignore (req_ok setup c "focus ww:Person");
  ignore (req_ok setup c (apply_line "pre_fork"));
  ignore (req_ok setup c "@close");
  ignore (req_ok setup c "@branch v w");
  ignore (req_ok setup c "@open w");
  ignore (req_ok setup c "focus ww:Person");
  ignore (req_ok setup c (apply_line "w_one"));
  ignore (req_ok setup c (apply_line "w_two"));
  ignore (req_ok setup c "@close");
  ignore (req_ok setup c "@open v");
  ignore (req_ok setup c "focus ww:Person");
  ignore (req_ok setup c (apply_line "v_ahead"));
  ignore (req_ok setup c "@close");
  ignore (Service.shutdown setup);
  (* now the faults: crash syscall + mid-request kills, varied by seed *)
  let faulted, _ = Io.faulty ~crash_at:(3 + (seed * 13 mod 90)) (Io.mem_io m) in
  let io = Io.locked faulted in
  let hook ~variant:_ ~line =
    if
      Str_contains.contains line "@merge"
      && Hashtbl.hash (seed, line) mod 3 = 0
    then failwith "chaos: merge killed mid-request"
  in
  let config =
    quick_config ~deadline:10.0 ~threshold:max_int ~chaos_hook:hook
      ~flush_max_batch:(1 + (seed mod 4))
      ~flush_linger:(float_of_int (seed mod 3) /. 1000.0)
      ~flush_on_idle:(seed mod 2 = 0) ()
  in
  let t = service ~config io in
  let c = Service.connect t in
  let merge_acked = ref false in
  let dry = seed mod 5 = 0 in
  let line =
    if dry then "@merge w into v --dry-run" else "@merge w into v"
  in
  (let rec attempt k =
     if k > 0 && not !merge_acked then begin
       (match (Service.request t c line).Protocol.status with
       | Protocol.Ok -> merge_acked := true
       | _ -> Thread.delay 0.001);
       attempt (k - 1)
     end
   in
   attempt 3);
  ignore (Service.shutdown t);
  (* power loss; audit with the fault injector unplugged *)
  Io.mem_crash ~flush:seed m;
  List.iter
    (fun variant ->
      let store = Store.open_dir ~io:plain ("/repo/variants/" ^ variant) in
      let report = Store.fsck ~salvage:true store in
      (match report.Store.fsck_session with
      | Some _ -> ()
      | None ->
          Alcotest.failf "seed %d: %s unrecoverable after merge crash" seed
            variant);
      match (Store.fsck store).Store.fsck_issues with
      | [] -> ()
      | issues ->
          Alcotest.failf "seed %d: %s not clean after salvage: %s" seed variant
            (String.concat "; " issues))
    [ "v"; "w" ];
  let has variant needle =
    List.exists
      (fun s -> Str_contains.contains s needle)
      (merge_recovered_steps plain variant)
  in
  List.iter
    (fun op ->
      if not (has "v" op) then
        Alcotest.failf "seed %d: acked op %s lost from v" seed op)
    [ "pre_fork"; "v_ahead" ];
  List.iter
    (fun op ->
      if not (has "w" op) then
        Alcotest.failf "seed %d: acked op %s lost from w" seed op)
    [ "pre_fork"; "w_one"; "w_two" ];
  if !merge_acked && not dry then
    List.iter
      (fun op ->
        if not (has "v" op) then
          Alcotest.failf "seed %d: acked merge lost %s" seed op)
      [ "w_one"; "w_two" ];
  if !merge_acked && dry then
    List.iter
      (fun op ->
        if has "v" op then
          Alcotest.failf "seed %d: dry-run merge wrote %s" seed op)
      [ "w_one"; "w_two" ];
  match Repo.open_dir ~io:plain "/repo" with
  | Result.Error e -> Alcotest.fail e
  | Result.Ok repo -> (
      match Repo.variant_lineage repo "w" with
      | Some ("v", _) -> ()
      | Some _ | None ->
          Alcotest.failf "seed %d: lineage lost in the crash" seed)

(* 200 schedules by default; the nightly [@merge-chaos] alias scales to
   1000 via SWSD_MERGE_CHAOS_SCHEDULES. *)
let merge_chaos_schedules =
  match Sys.getenv_opt "SWSD_MERGE_CHAOS_SCHEDULES" with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> 200)
  | None -> 200

let merge_chaos_property () =
  with_watchdog
    ~secs:(300.0 +. (float_of_int merge_chaos_schedules /. 2.0))
    ~name:"merge chaos schedules" (fun () ->
      for seed = 0 to merge_chaos_schedules - 1 do
        merge_chaos_schedule seed
      done)

(* --- @stats (observability end to end) ------------------------------------- *)

let stats_snapshot () =
  let _, io = mem_repo () in
  let obs = Obs.create () in
  let t = service ~config:(quick_config ()) ~obs io in
  let c = Service.connect t in
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c (apply_line "nickname"));
  ignore (req_ok t c "check");
  ignore (req_err t c "no such command anywhere");
  let body = String.concat "\n" (req_ok t c "@stats") in
  let has n = Str_contains.contains body n in
  (* request counters are live and non-zero *)
  Alcotest.(check bool) "counts requests" true (has "swsd.requests_total");
  Alcotest.(check bool) "counts ok responses" true (has "swsd.responses.ok_total");
  (* the mutation went through the journal, lock, and engine instruments *)
  Alcotest.(check bool) "journal append histogram" true
    (has "swsd.journal.append_seconds");
  Alcotest.(check bool) "io fsync histogram" true (has "swsd.io.fsync_seconds");
  Alcotest.(check bool) "lock wait histogram" true (has "swsd.lock.wait_seconds");
  Alcotest.(check bool) "engine apply histogram" true
    (has "swsd.engine.apply_seconds");
  Alcotest.(check bool) "breaker note" true (has "breaker.v");
  Alcotest.(check bool) "session note" true (has "session.v");
  Alcotest.(check bool) "recent traces" true (has "recent traces");
  (* the same figures through the registry API: nothing is zero that the
     transcript above must have moved *)
  let sn = Obs.snapshot obs in
  let counter n =
    match List.assoc_opt n sn.Obs.sn_counters with Some v -> v | None -> 0
  in
  let histo_count n =
    match List.assoc_opt n sn.Obs.sn_histos with
    | Some h -> h.Obs.Histo.s_count
    | None -> 0
  in
  Alcotest.(check bool) "requests > 0" true (counter "swsd.requests_total" > 0);
  Alcotest.(check bool) "ok > 0" true (counter "swsd.responses.ok_total" > 0);
  Alcotest.(check bool) "err > 0" true (counter "swsd.responses.err_total" > 0);
  Alcotest.(check bool) "ops > 0" true (counter "swsd.engine.ops_total" > 0);
  Alcotest.(check bool) "fsyncs recorded" true
    (histo_count "swsd.io.fsync_seconds" > 0);
  Alcotest.(check bool) "journal appends recorded" true
    (histo_count "swsd.journal.append_seconds" > 0);
  Alcotest.(check bool) "lock waits recorded" true
    (histo_count "swsd.lock.wait_seconds" > 0);
  Alcotest.(check bool) "requests timed" true
    (histo_count "swsd.request_seconds" > 0);
  Alcotest.(check bool) "consistency checks timed" true
    (histo_count "swsd.engine.check_seconds" > 0);
  Alcotest.(check bool) "batches flushed" true
    (histo_count "swsd.commit.batch_size" > 0);
  Alcotest.(check int) "one linger observed per batch"
    (histo_count "swsd.commit.batch_size")
    (histo_count "swsd.commit.linger_seconds");
  (* the read/write split: "check" above was served lock-free, the focus
     and apply went through the writer lock *)
  Alcotest.(check bool) "lock-free reads counted" true
    (counter "swsd.read.lockfree_total" > 0);
  Alcotest.(check bool) "writes counted" true (counter "swsd.write_total" > 0);
  Alcotest.(check bool) "read latencies recorded" true
    (histo_count "swsd.read_seconds" > 0);
  Alcotest.(check bool) "write latencies recorded" true
    (histo_count "swsd.write_seconds" > 0);
  (* JSON rendering round-trips through the wire protocol in one body *)
  let json = String.concat "\n" (req_ok t c "@stats json") in
  Alcotest.(check bool) "json has counters" true
    (Str_contains.contains json "\"swsd.requests_total\"");
  Alcotest.(check bool) "json has quantiles" true
    (Str_contains.contains json "\"p99\"");
  ignore (Service.shutdown t)

(* Two enabled services in one process each record only their own work:
   every instrument is a value its service holds, so opening B after A
   must not redirect A's engine, journal, or check figures into B. *)
let stats_per_service () =
  let _, io_a = mem_repo () and _, io_b = mem_repo () in
  let obs_a = Obs.create () and obs_b = Obs.create () in
  let a = service ~config:(quick_config ()) ~obs:obs_a io_a in
  let b = service ~config:(quick_config ()) ~obs:obs_b io_b in
  let c = Service.connect a in
  ignore (req_ok a c "@open v");
  ignore (req_ok a c "focus ww:Person");
  ignore (req_ok a c (apply_line "nickname"));
  ignore (req_ok a c "check");
  let figures obs =
    let sn = Obs.snapshot obs in
    let histo_count n =
      match List.assoc_opt n sn.Obs.sn_histos with
      | Some h -> h.Obs.Histo.s_count
      | None -> 0
    in
    [
      ( "swsd.engine.ops_total",
        Option.value ~default:0
          (List.assoc_opt "swsd.engine.ops_total" sn.Obs.sn_counters) );
      ("swsd.journal.append_seconds", histo_count "swsd.journal.append_seconds");
      ("swsd.engine.check_seconds", histo_count "swsd.engine.check_seconds");
    ]
  in
  List.iter
    (fun (n, v) -> Alcotest.(check bool) ("A records " ^ n) true (v > 0))
    (figures obs_a);
  List.iter
    (fun (n, v) -> Alcotest.(check int) ("B records no " ^ n) 0 v)
    (figures obs_b);
  ignore (Service.shutdown a);
  ignore (Service.shutdown b)

(* A request's trace is explained by its phases: an acknowledged apply
   reads parse → wait → apply → journal (the durable wait) → respond, a
   lock-free check records one [check] phase, not a [read] around it, and
   a query records its evaluation as one [eval] phase.  The
   phases are disjoint intervals inside the span, so they sum to at most
   its total (measured on one clock; 1 ns absorbs float rounding). *)
let trace_phases_add_up () =
  let _, io = mem_repo () in
  let obs = Obs.create () in
  let t = service ~config:(quick_config ~now:Obs.Clock.now ()) ~obs io in
  let c = Service.connect t in
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c "@query name Person");
  ignore (req_ok t c (apply_line "nickname"));
  ignore (req_ok t c "check");
  ignore (req_ok t c "@query attr nickname");
  let traces = Obs.Trace.recent (Obs.tracer obs) in
  let trace detail =
    match List.find_opt (fun tr -> tr.Obs.Trace.tr_detail = detail) traces with
    | Some tr -> tr
    | None -> Alcotest.failf "no trace for %s" detail
  in
  let check_trace detail expected =
    let tr = trace detail in
    Alcotest.(check (list string))
      (detail ^ ": phases in order") expected
      (List.map (fun p -> p.Obs.Trace.ph_name) tr.Obs.Trace.tr_phases);
    let sum =
      List.fold_left (fun acc p -> acc +. p.Obs.Trace.ph_seconds) 0.0
        tr.Obs.Trace.tr_phases
    in
    if sum > tr.Obs.Trace.tr_seconds +. 1e-9 then
      Alcotest.failf "%s: phases sum to %.6f s > total %.6f s" detail sum
        tr.Obs.Trace.tr_seconds
  in
  check_trace (apply_line "nickname")
    [ "parse"; "wait"; "apply"; "journal"; "respond" ];
  check_trace "check" [ "parse"; "check" ];
  (* the write published the view with its state; the query after it
     only evaluates, and its trace attributes that *)
  check_trace "@query attr nickname" [ "parse"; "eval" ];
  (match (trace "@query attr nickname").Obs.Trace.tr_phases with
  | [ _; { Obs.Trace.ph_seconds; _ } ] when ph_seconds > 0.0 -> ()
  | _ -> Alcotest.fail "the eval phase should time the evaluation");
  ignore (Service.shutdown t)

let stats_disabled () =
  let _, io = mem_repo () in
  let t = service ~config:(quick_config ()) ~obs:Obs.noop io in
  let c = Service.connect t in
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c (apply_line "nickname"));
  Alcotest.(check bool) "@stats refused under --no-obs" true
    (Str_contains.contains (req_err t c "@stats") "disabled");
  ignore (Service.shutdown t)

(* --- failed calls that took effect ------------------------------------------ *)

(* A mem-fs repository with [v] whose next fsync of a [log.ops], once
   armed, lands and then fails. *)
let landing_repo () =
  let _, raw = mem_repo () in
  let armed = Atomic.make false in
  let io =
    {
      raw with
      Io.fsync =
        (fun p ->
          raw.Io.fsync p;
          if Filename.basename p = "log.ops" && Atomic.compare_and_set armed true false
          then raise (Sys_error (p ^ ": Input/output error (injected)")));
    }
  in
  (raw, io, armed)

let fsck_clean io =
  match Repo.fsck_dir ~io ~salvage:false "/repo" with
  | Result.Ok (code, lines) ->
      Alcotest.(check int) ("fsck class: " ^ String.concat "; " lines) 0 code
  | Result.Error m -> Alcotest.fail m

(* The flusher's append lands and its fsync fails; the retry restores the
   tail before it appends again, so the acknowledged op is journalled
   once and the store fscks clean after shutdown. *)
let flush_lands_then_fails () =
  let raw, io, armed = landing_repo () in
  let t = service ~config:(quick_config ()) io in
  let c = Service.connect t in
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "focus ww:Person");
  Atomic.set armed true;
  ignore (req_ok t c (apply_line "once"));
  Alcotest.(check bool) "the fsync failed" false (Atomic.get armed);
  ignore (req_ok t c (apply_line "after"));
  ignore (Service.shutdown t);
  fsck_clean raw;
  Alcotest.(check (list string)) "each acked op once"
    [ "add_attribute(Person, string, 8, once)";
      "add_attribute(Person, string, 8, after)" ]
    (recovered_steps raw)

(* A record queued behind a batch whose flush failed is never acked, and
   nothing more is appended until the variant is reloaded: the session's
   writer refuses records that do not extend its durable session. *)
let queued_behind_failure_refused () =
  with_watchdog ~secs:60.0 ~name:"queued behind a failure" (fun () ->
      let _, raw = mem_repo () in
      let failing = Atomic.make false
      and entered = Atomic.make false
      and go = Atomic.make false in
      let io =
        {
          raw with
          Io.append =
            (fun p data ->
              if Filename.basename p = "log.ops" && Atomic.get failing then begin
                Atomic.set entered true;
                while not (Atomic.get go) do Thread.delay 0.001 done;
                Atomic.set failing false;
                raise (Sys_error (p ^ ": injected: the append wrote nothing"))
              end;
              raw.Io.append p data);
        }
      in
      let config =
        {
          (quick_config ~threshold:max_int ()) with
          Service.retry = { quick_retry with Retry.max_attempts = 1 };
        }
      in
      let obs = Obs.create () in
      let t = service ~config ~obs io in
      let a = Service.connect t and b = Service.connect t in
      List.iter
        (fun c ->
          ignore (req_ok t c "@open v");
          ignore (req_ok t c "focus ww:Person"))
        [ a; b ];
      Atomic.set failing true;
      let answer c name =
        let r = ref "" in
        (Thread.create
           (fun () -> r := Protocol.to_string (Service.request t c (apply_line name)))
           (),
         r)
      in
      let ta, doomed = answer a "doomed" in
      while not (Atomic.get entered) do Thread.delay 0.001 done;
      (* [doomed]'s batch is in flight: [behind] queues after it *)
      let tb, behind = answer b "behind" in
      while Obs.gauge_value obs "swsd.commit.stalled" <> Some 2 do
        Thread.delay 0.001
      done;
      Atomic.set go true;
      Thread.join ta;
      Thread.join tb;
      List.iter
        (fun (what, r) ->
          Alcotest.(check bool) (what ^ " not acknowledged") true
            (Str_contains.contains !r "persistence failed"))
        [ ("the failed batch", doomed); ("the batch behind it", behind) ];
      Alcotest.(check (list string)) "nothing appended after the failure" []
        (recovered_steps raw);
      (* the reload is a fresh writer: writes flow again *)
      ignore (req_ok t a "@open v");
      ignore (req_ok t a "focus ww:Person");
      ignore (req_ok t a (apply_line "healed"));
      ignore (Service.shutdown t);
      fsck_clean raw;
      Alcotest.(check (list string)) "only the post-reload op"
        [ "add_attribute(Person, string, 8, healed)" ]
        (recovered_steps raw))

let tests =
  [
    test "protocol: request parsing" parse_requests;
    test "protocol: response rendering" render_responses;
    test "retry: transient failures retried, then reported" retry_transient;
    test "retry: crashes fly through untouched" retry_non_transient;
    test "retry: jittered delays stay bounded" retry_delays_bounded;
    test "retry: the deadline clamps backoff and stops the loop"
      retry_deadline_clamped;
    test "breaker: trip, half-open probe, close" breaker_ladder;
    test "breaker: timestamped transition log" breaker_transition_log;
    test "stats: @stats reports live counters, latencies, and traces"
      stats_snapshot;
    test "stats: @stats refused when observability is disabled" stats_disabled;
    test "locks: queue bound sheds, deadline sheds, keys independent"
      locks_shed_and_timeout;
    test "eintr: the shared retry loop" eintr_retry_loop;
    test "eintr: injected interrupts ride through a protected io" eintr_injection;
    test "service: session lifecycle over one connection" service_lifecycle;
    test "service: one variant is one shared session" shared_session_attach;
    test "service: idle sessions are snapshotted and reaped" idle_reaper;
    test "service: full queue sheds with !busy" backpressure_sheds;
    test "service: deadline expiry sheds with !busy" deadline_sheds;
    test "service: journal failures degrade the variant to read-only"
      breaker_degrades_variant;
    test "service: a failed batch flush fails every writer aboard; @open heals"
      (group_batch_failure_fails_all ~reload:reload_open);
    test "service: durable-but-unacked is clean after the lost-ack window"
      durable_but_unacked;
    test "service: readonly connections read but never write" readonly_connection;
    test "service: #version stamps are monotone and read-your-writes"
      version_stamps;
    test "service: read/write paths counted" read_path_counters;
    test "service: snapshot isolation holds under a writer storm"
      snapshot_isolation_storm;
    test "locks: same-variant requests serialize (journal intact)"
      same_variant_serializes;
    test "locks: distinct variants run in parallel" distinct_variants_parallel;
    Alcotest.test_case
      (Printf.sprintf "chaos: %d crash/kill schedules recover every acked op"
         chaos_soak_schedules)
      `Slow chaos_property;
    test "branch: @list shows lineage, pinned and deterministic"
      branch_lineage_listing;
    test "branch: a child's #version never falls below its fork stamp"
      branch_child_version_floor;
    test "merge: branch, design on both sides, dry-run, merge, audit"
      merge_round_trip;
    test "merge: a semantic conflict is reported, never silently applied"
      merge_conflict_reported;
    test "query: lineage and branches-of answer from views" lineage_queries;
    Alcotest.test_case
      (Printf.sprintf
         "chaos: %d crash-mid-merge schedules leave both variants salvageable"
         merge_chaos_schedules)
      `Slow merge_chaos_property;
    test "server: socket round trip, stop removes the socket" socket_end_to_end;
    test "server: SIGTERM drains; repl --save fails fast on a served variant"
      sigterm_drains;
    test "server: a stale socket is reclaimed, a live one never stolen"
      stale_socket_reclaimed;
    test "server: kill -9 then restart binds the same socket path"
      kill9_restart_same_socket;
    test "client: connect retries to a deadline, then gives up honestly"
      connect_retry_deadline;
    test "server: EPIPE mid-response is a clean per-connection teardown"
      hangup_mid_response;
    test "repo: variant names are sorted whatever readdir yields"
      variant_names_sorted;
    (* the other two ways a load heals a variant after a failed flush;
       appended so the suite's existing test indices stay put *)
    test
      "service: a failed batch flush fails every writer aboard; a @query \
       load heals"
      (group_batch_failure_fails_all ~reload:reload_query);
    test
      "service: a failed batch flush fails every writer aboard; a @merge \
       load heals"
      (group_batch_failure_fails_all ~reload:reload_merge);
    test "stats: two services in one process record only their own work"
      stats_per_service;
    test "stats: request phases are complete, ordered, and add up"
      trace_phases_add_up;
    framing_matches_reference;
    test "server: stop ends idle connections and removes the socket"
      stop_ends_idle_connections;
    test "server: a request in flight at stop still gets its reply"
      stop_answers_request_in_flight;
    test "service: a flush that lands and fails is retried and journalled once"
      flush_lands_then_fails;
    test "service: a record queued behind a failed batch is never acked"
      queued_behind_failure_refused;
  ]

let soak_tests = [ Alcotest.test_case "bounded chaos soak" `Slow soak ]
