(* The group-commit coordinator, in isolation and under the service.

   The contract under test (see group_commit.mli): records submitted to a
   lane are written as concatenated batches with one flush call each, in
   submission order; a ticket resolves [Ok] only after its batch's flush
   returned (ack implies durable); a failed flush fails every waiter of
   the batch and nothing else — refusing what queued behind it is the
   journal writer's ([test_repository.ml]); [drain]/[stop] force the
   remainder out.  The property test drives random concurrent writers
   against random policies and checks the flushed journal is an
   order-preserving interleaving of the per-writer streams — i.e. exactly
   what the per-op-fsync path would have produced for SOME admissible
   schedule — and that no writer was ever acked before its record was
   durable. *)

module Gc = Server.Group_commit

let test = Util.test

let prop ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* A deadlocked suite is worse than a failed one. *)
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

(* A recording sink: every flush appends (path, data) under a mutex, the
   batch's records concatenated as the journal writer appends them, so
   tests can assert batch count, contents, and the durable watermark. *)
type sink = {
  mu : Mutex.t;
  mutable flushes : (string * string) list;  (** newest first *)
  mutable fail_next : int;  (** this many upcoming flushes raise *)
}

let sink () = { mu = Mutex.create (); flushes = []; fail_next = 0 }

let sink_flush s ~path batch =
  let data = String.concat "" batch in
  Mutex.lock s.mu;
  let fail = s.fail_next > 0 in
  if fail then s.fail_next <- s.fail_next - 1
  else s.flushes <- (path, data) :: s.flushes;
  Mutex.unlock s.mu;
  if fail then raise (Sys_error "injected: flush failed")

let flush_count s =
  Mutex.lock s.mu;
  let n = List.length s.flushes in
  Mutex.unlock s.mu;
  n

(* All data flushed to [path], oldest first, concatenated. *)
let flushed s path =
  Mutex.lock s.mu;
  let d =
    List.fold_left
      (fun acc (p, data) -> if p = path then data ^ acc else acc)
      "" s.flushes
  in
  Mutex.unlock s.mu;
  d

let ok = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "ticket should ack: %s" (Printexc.to_string e)

let deterministic = { Gc.max_batch = 4; max_linger = 3600.0; flush_on_idle = false }

(* max_batch reached -> exactly one flush holding every record, in
   submission order, and nobody acks before it. *)
let batch_of_k () =
  with_watchdog ~secs:30.0 ~name:"batch of k" (fun () ->
      let s = sink () in
      let t = Gc.create ~policy:deterministic ~flush:(sink_flush s) () in
      let tks =
        List.map (fun i -> Gc.submit t ~path:"log" (Printf.sprintf "r%d;" i))
          [ 0; 1; 2; 3 ]
      in
      List.iter (fun tk -> ok (Gc.await tk)) tks;
      Alcotest.(check int) "one flush" 1 (flush_count s);
      Alcotest.(check string) "submission order, concatenated" "r0;r1;r2;r3;"
        (flushed s "log");
      Alcotest.(check bool) "lane quiescent" true (Gc.quiescent t ~path:"log");
      Gc.stop t)

(* Under max_batch, the linger bound departs the bus with what's aboard. *)
let linger_departs () =
  with_watchdog ~secs:30.0 ~name:"linger departs" (fun () ->
      let s = sink () in
      let t =
        Gc.create
          ~policy:{ deterministic with Gc.max_linger = 0.005 }
          ~flush:(sink_flush s) ()
      in
      let a = Gc.submit t ~path:"log" "a;" in
      let b = Gc.submit t ~path:"log" "b;" in
      ok (Gc.await a);
      ok (Gc.await b);
      Alcotest.(check int) "one flush for both" 1 (flush_count s);
      Alcotest.(check string) "both records" "a;b;" (flushed s "log");
      Gc.stop t)

(* flush_on_idle lets a paused stream out without waiting out a long
   linger. *)
let idle_departs () =
  with_watchdog ~secs:30.0 ~name:"idle departs" (fun () ->
      let s = sink () in
      let t =
        Gc.create
          ~policy:{ Gc.max_batch = 1000; max_linger = 3600.0; flush_on_idle = true }
          ~flush:(sink_flush s) ()
      in
      let tk = Gc.submit t ~path:"log" "solo;" in
      ok (Gc.await tk);
      Alcotest.(check string) "record out" "solo;" (flushed s "log");
      Gc.stop t)

(* Lanes are per path: batches never mix two journals' bytes. *)
let lanes_are_isolated () =
  with_watchdog ~secs:30.0 ~name:"lanes are isolated" (fun () ->
      let s = sink () in
      let t =
        Gc.create
          ~policy:{ deterministic with Gc.max_batch = 2 }
          ~flush:(sink_flush s) ()
      in
      let a1 = Gc.submit t ~path:"a/log" "a1;" in
      let b1 = Gc.submit t ~path:"b/log" "b1;" in
      let a2 = Gc.submit t ~path:"a/log" "a2;" in
      let b2 = Gc.submit t ~path:"b/log" "b2;" in
      List.iter (fun tk -> ok (Gc.await tk)) [ a1; a2; b1; b2 ];
      Alcotest.(check string) "lane a" "a1;a2;" (flushed s "a/log");
      Alcotest.(check string) "lane b" "b1;b2;" (flushed s "b/log");
      Gc.stop t)

(* on_durable callbacks run in submission order, before their tickets
   settle: the publish hook of record N can rely on records 0..N-1 having
   been published. *)
let on_durable_in_order () =
  with_watchdog ~secs:30.0 ~name:"on_durable order" (fun () ->
      let s = sink () in
      let t = Gc.create ~policy:deterministic ~flush:(sink_flush s) () in
      let mu = Mutex.create () in
      let order = ref [] in
      let published i () =
        Mutex.lock mu;
        order := i :: !order;
        Mutex.unlock mu
      in
      let tks =
        List.map
          (fun i ->
            Gc.submit t ~path:"log" ~on_durable:(published i)
              (Printf.sprintf "r%d;" i))
          [ 0; 1; 2; 3 ]
      in
      List.iter (fun tk -> ok (Gc.await tk)) tks;
      Alcotest.(check (list int)) "publish order = submission order"
        [ 0; 1; 2; 3 ] (List.rev !order);
      Gc.stop t)

(* A state change with no journal bytes still gets ordered through the
   lane (the service submits "" so publishes stay in order): the batch of
   empty records is one flush holding no bytes, which the journal writer
   turns into no syscall ([test_repository.ml]). *)
let empty_batch_orders () =
  with_watchdog ~secs:30.0 ~name:"empty batch orders" (fun () ->
      let s = sink () in
      let t =
        Gc.create
          ~policy:{ deterministic with Gc.max_batch = 2 }
          ~flush:(sink_flush s) ()
      in
      let a = Gc.submit t ~path:"log" "" in
      let b = Gc.submit t ~path:"log" "" in
      ok (Gc.await a);
      ok (Gc.await b);
      Alcotest.(check int) "one batch" 1 (flush_count s);
      Alcotest.(check string) "no bytes" "" (flushed s "log");
      Gc.stop t)

(* A failed flush fails the whole batch — nothing is acked — and the
   coordinator keeps no failure state: the next records go out as usual
   (the journal writer refuses those that do not extend its durable
   session, [test_repository.ml]). *)
let failure_fails_batch () =
  with_watchdog ~secs:30.0 ~name:"failure fails the batch" (fun () ->
      let s = sink () in
      s.fail_next <- 1;
      let t =
        Gc.create
          ~policy:{ deterministic with Gc.max_batch = 2 }
          ~flush:(sink_flush s) ()
      in
      let a = Gc.submit t ~path:"log" "a;" in
      let b = Gc.submit t ~path:"log" "b;" in
      (match (Gc.await a, Gc.await b) with
      | Error _, Error _ -> ()
      | _ -> Alcotest.fail "both waiters must fail with their batch");
      Alcotest.(check bool) "the lane is quiescent" true
        (Gc.quiescent t ~path:"log");
      let d = Gc.submit t ~path:"log" "d;" in
      let e = Gc.submit t ~path:"log" "e;" in
      ok (Gc.await d);
      ok (Gc.await e);
      Alcotest.(check string) "later records flushed, failed batch gone"
        "d;e;" (flushed s "log");
      Gc.stop t)

(* drain forces a short batch out; stop flushes the remainder and fails
   late submits instead of hanging them. *)
let drain_and_stop () =
  with_watchdog ~secs:30.0 ~name:"drain and stop" (fun () ->
      let s = sink () in
      let t = Gc.create ~policy:deterministic ~flush:(sink_flush s) () in
      let a = Gc.submit t ~path:"log" "a;" in
      Alcotest.(check bool) "pending lane is not quiescent" false
        (Gc.quiescent t ~path:"log");
      Gc.drain t ~path:"log";
      ok (Gc.await a);
      Alcotest.(check string) "drained early, under max_batch" "a;"
        (flushed s "log");
      let b = Gc.submit t ~path:"log" "b;" in
      Gc.stop t;
      ok (Gc.await b);
      Alcotest.(check string) "stop flushed the remainder" "a;b;"
        (flushed s "log");
      (match Gc.await (Gc.submit t ~path:"log" "late;") with
      | Error Gc.Stopped -> ()
      | Error e -> Alcotest.failf "want Stopped, got %s" (Printexc.to_string e)
      | Ok () -> Alcotest.fail "a stopped coordinator must refuse records");
      Alcotest.(check string) "late record never written" "a;b;"
        (flushed s "log"))

(* --- the event-driven linger ---------------------------------------------- *)

(* An injected [sleep] that blocks until the test hands out a tick: with
   no permit the tick never elapses, so whatever happens meanwhile was
   caused by a submit, a drain or a stop. *)
type gate = {
  g_mu : Mutex.t;
  g_cond : Condition.t;
  mutable permits : int;
  mutable asleep : int;
}

let gate () =
  { g_mu = Mutex.create (); g_cond = Condition.create (); permits = 0; asleep = 0 }

let gate_sleep g _ =
  Mutex.lock g.g_mu;
  g.asleep <- g.asleep + 1;
  Condition.broadcast g.g_cond;
  while g.permits = 0 do
    Condition.wait g.g_cond g.g_mu
  done;
  g.permits <- g.permits - 1;
  g.asleep <- g.asleep - 1;
  Mutex.unlock g.g_mu

let allow g n =
  Mutex.lock g.g_mu;
  g.permits <- g.permits + n;
  Condition.broadcast g.g_cond;
  Mutex.unlock g.g_mu

(* Block until a tick is being timed: the flusher is lingering. *)
let until_asleep g =
  Mutex.lock g.g_mu;
  while g.asleep = 0 do
    Condition.wait g.g_cond g.g_mu
  done;
  Mutex.unlock g.g_mu

(* A coordinator whose ticks pass the gate, with a linger bound no test
   reaches; every tick is let through at the end, so nothing is left
   blocked whatever the outcome. *)
let with_gate ~name f =
  with_watchdog ~secs:30.0 ~name (fun () ->
      let g = gate () and s = sink () in
      let t =
        Gc.create
          ~policy:{ Gc.max_batch = 64; max_linger = 3600.0; flush_on_idle = true }
          ~sleep:(gate_sleep g) ~flush:(sink_flush s) ()
      in
      Fun.protect
        ~finally:(fun () -> allow g 1_000_000; Gc.stop t)
        (fun () -> f g s t))

(* The ticket's outcome if it settles within [secs], else [None]. *)
let await_within secs tk =
  let r = Atomic.make None in
  ignore (Thread.create (fun () -> Atomic.set r (Some (Gc.await tk))) ());
  let deadline = Unix.gettimeofday () +. secs in
  while Atomic.get r = None && Unix.gettimeofday () < deadline do
    Thread.delay 0.001
  done;
  Atomic.get r

let settles tk =
  match await_within 5.0 tk with
  | Some r -> ok r
  | None -> Alcotest.fail "ticket did not settle while the tick was blocked"

let still_pending tk =
  Alcotest.(check bool) "still lingering" true (await_within 0.05 tk = None)

(* Two records drained out together: the lane now expects two writers. *)
let regroup_two g s t =
  let a = Gc.submit t ~path:"log" "a;" and b = Gc.submit t ~path:"log" "b;" in
  until_asleep g;
  Gc.drain t ~path:"log";
  ok (Gc.await a);
  ok (Gc.await b);
  Alcotest.(check string) "one batch of two" "a;b;" (flushed s "log")

(* A regrouped bus leaves as its last writer boards, while the tick is
   still blocked, and its publish hooks run in submission order. *)
let regroup_departs_on_submit () =
  with_gate ~name:"regroup departs" (fun g s t ->
      regroup_two g s t;
      let order = ref [] in
      let c =
        Gc.submit t ~path:"log" ~on_durable:(fun () -> order := 'c' :: !order) "c;"
      in
      still_pending c;
      let d =
        Gc.submit t ~path:"log" ~on_durable:(fun () -> order := 'd' :: !order) "d;"
      in
      settles c;
      settles d;
      Alcotest.(check string) "one batch for the regrouped pair" "a;b;c;d;"
        (flushed s "log");
      Alcotest.(check int) "two flushes" 2 (flush_count s);
      Alcotest.(check (list char)) "publish order = submission order"
        [ 'c'; 'd' ] (List.rev !order))

(* With nobody else boarding, the tick still ends a lone lane's linger. *)
let lone_lane_leaves_on_tick () =
  with_gate ~name:"lone lane" (fun g s t ->
      let solo = Gc.submit t ~path:"log" "solo;" in
      until_asleep g;
      still_pending solo;
      allow g 1;
      settles solo;
      Alcotest.(check string) "record out" "solo;" (flushed s "log"))

(* A drain or a stop ends a linger without waiting for the tick. *)
let drain_and_stop_end_linger () =
  with_gate ~name:"drain and stop end a linger" (fun g s t ->
      let a = Gc.submit t ~path:"log" "a;" in
      until_asleep g;
      Gc.drain t ~path:"log";
      ok (Gc.await a);
      let b = Gc.submit t ~path:"log" "b;" in
      Gc.stop t;
      ok (Gc.await b);
      Alcotest.(check string) "both out, tick still blocked" "a;b;"
        (flushed s "log"))

(* A regrouped batch whose flush fails still fails every waiter. *)
let regroup_failure_fails_batch () =
  with_gate ~name:"regroup failure" (fun g s t ->
      regroup_two g s t;
      s.fail_next <- 1;
      let c = Gc.submit t ~path:"log" "c;" and d = Gc.submit t ~path:"log" "d;" in
      (match (await_within 5.0 c, await_within 5.0 d) with
      | Some (Error _), Some (Error _) -> ()
      | _ -> Alcotest.fail "both waiters must fail with their batch");
      Alcotest.(check string) "the failed batch is not written" "a;b;"
        (flushed s "log"))

(* --- the property: equivalence with the per-op-fsync journal -------------- *)

(* Each of W writer threads submits its records one at a time, awaiting
   each ack before the next (the service's discipline: one in-flight op
   per connection).  Whatever the batching, the flushed journal must then
   be an order-preserving interleaving of the writer streams — the set of
   journals the per-op path could have produced — and at the moment a
   writer's await returns Ok its record must already be in the flushed
   bytes (ack implies durable). *)
let interleaving_prop (writers, ops, max_batch, linger_ms, flush_on_idle) =
  let s = sink () in
  let t =
    Gc.create
      ~policy:
        {
          Gc.max_batch;
          max_linger = float_of_int linger_ms /. 1000.0;
          flush_on_idle;
        }
      ~flush:(sink_flush s) ()
  in
  let failures = Atomic.make 0 in
  let threads =
    List.init writers (fun w ->
        Thread.create
          (fun () ->
            for i = 0 to ops - 1 do
              let r = Printf.sprintf "w%d.%d;" w i in
              match Gc.await (Gc.submit t ~path:"log" r) with
              | Error _ -> Atomic.incr failures
              | Ok () ->
                  (* durable watermark: the acked record is on disk *)
                  let bytes = flushed s "log" in
                  let sub = Str_contains.contains bytes r in
                  if not sub then Atomic.incr failures
            done)
          ())
  in
  List.iter Thread.join threads;
  Gc.drain_all t;
  Gc.stop t;
  if Atomic.get failures > 0 then
    QCheck2.Test.fail_reportf "%d acks missing or early" (Atomic.get failures);
  (* parse the journal back into records and check each writer's stream
     appears in order, exactly once *)
  let bytes = flushed s "log" in
  let records =
    String.split_on_char ';' bytes |> List.filter (fun r -> r <> "")
  in
  if List.length records <> writers * ops then
    QCheck2.Test.fail_reportf "journal holds %d records, submitted %d"
      (List.length records) (writers * ops);
  let next = Array.make writers 0 in
  List.iter
    (fun r ->
      Scanf.sscanf r "w%d.%d" (fun w i ->
          if next.(w) <> i then
            QCheck2.Test.fail_reportf
              "writer %d's records out of order: saw %d, expected %d" w i
              next.(w);
          next.(w) <- i + 1))
    records;
  Array.iteri
    (fun w n ->
      if n <> ops then
        QCheck2.Test.fail_reportf "writer %d: %d of %d records journaled" w n
          ops)
    next;
  true

let policy_gen =
  QCheck2.Gen.(
    tup5 (int_range 1 6) (* writers *)
      (int_range 1 8) (* ops per writer *)
      (int_range 1 8) (* max_batch *)
      (int_range 0 2) (* linger ms *)
      bool (* flush_on_idle *))

(* --- under the service: appends actually amortize ------------------------- *)

let tiny_text =
  "interface Person { attribute string name; attribute int age; };\n\
   interface Course { attribute string title; attribute string code; };"

(* Four writers, max_batch = 4, idle flush off, linger long: the flusher
   cannot depart before the fourth record boards, so the four concurrent
   applies produce exactly ONE journal append (counted on the service's
   io) where the per-op path would have made four. *)
let service_amortizes_appends () =
  with_watchdog ~secs:60.0 ~name:"service amortizes appends" (fun () ->
      let module Io = Repository.Io in
      let module Repo = Repository.Repo in
      let module Service = Server.Service in
      let module Protocol = Server.Protocol in
      let m = Io.mem_create () in
      let io = Io.locked (Io.mem_io m) in
      (match Repo.init ~io "/repo" (Util.parse tiny_text) with
      | Ok repo -> (
          match Repo.create_variant repo "v" with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e)
      | Error e -> Alcotest.fail e);
      let config =
        {
          Service.default_config with
          Service.use_file_locks = false;
          flush_max_batch = 4;
          flush_linger = 3600.0;
          flush_on_idle = false;
          max_waiters = 16;
        }
      in
      let appends = Atomic.make 0 in
      let io =
        Io.observed ~now:Unix.gettimeofday
          ~record:(fun op _ -> if op = "append" then Atomic.incr appends)
          io
      in
      let t =
        match Service.open_service ~config ~obs:Obs.noop ~io "/repo" with
        | Ok t -> t
        | Error e -> Alcotest.fail e
      in
      let ok c line =
        let r = Service.request t c line in
        match r.Protocol.status with
        | Protocol.Ok -> ()
        | _ ->
            Alcotest.failf "%s should succeed: %s" line
              (Protocol.to_string r)
      in
      (* barrier between focus and apply: a focus on a busy lane rides
         it as an empty ordering record, which would let a batch ripen
         on fewer than four real applies — all four focuses run while
         the lane is quiescent (direct publish, no submit), so exactly
         the four applies board the one batch *)
      let focused = Atomic.make 0 in
      let threads =
        List.init 4 (fun w ->
            Thread.create
              (fun () ->
                let c = Service.connect t in
                ok c "@open v";
                ok c "focus ww:Person";
                Atomic.incr focused;
                while Atomic.get focused < 4 do
                  Thread.yield ()
                done;
                ok c
                  (Printf.sprintf
                     "apply add_attribute(Person, string, 8, w%d)" w);
                Service.disconnect t c)
              ())
      in
      List.iter Thread.join threads;
      Alcotest.(check int)
        "four concurrent applies, one fsync'd append" 1
        (Atomic.get appends);
      ignore (Service.shutdown t))

let tests =
  [
    test "group commit: max_batch flushes once, in submission order" batch_of_k;
    test "group commit: linger departs a short batch" linger_departs;
    test "group commit: idle flush releases a paused stream" idle_departs;
    test "group commit: lanes are per journal path" lanes_are_isolated;
    test "group commit: on_durable fires in submission order" on_durable_in_order;
    test "group commit: empty records order through the lane, as one batch"
      empty_batch_orders;
    test "group commit: flush failure fails the batch, and only the batch"
      failure_fails_batch;
    test "group commit: drain and stop force the remainder out" drain_and_stop;
    test "group commit: a regrouped lane leaves as its last writer boards"
      regroup_departs_on_submit;
    test "group commit: a lone lane leaves when the tick elapses"
      lone_lane_leaves_on_tick;
    test "group commit: drain and stop end a linger at once"
      drain_and_stop_end_linger;
    test "group commit: a failed regrouped flush fails its batch"
      regroup_failure_fails_batch;
    prop ~count:60
      "group commit: batched journal = an order-preserving interleaving; \
       ack implies durable"
      policy_gen interleaving_prop;
    test "service: concurrent applies amortize to one append"
      service_amortizes_appends;
  ]
