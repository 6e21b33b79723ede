(* Journal-shipping replication: the frame wire format, the stamp
   ratchet, the follower apply state machine and follower-mode service,
   promotion with era fencing, retry determinism, and a chaos property
   over randomized leader-death schedules — every acked write must be on
   the new writer after promotion, follower stamps must never exceed the
   leader's, and both directories must come back fsck-clean.

   Everything runs in-process over the fault-injectable in-memory
   filesystem: the leader's stream is captured as a frame list, the
   "kill -9" is a cut at an arbitrary frame boundary (plus an optional
   torn journal tail on the leader's disk), and the follower replays the
   delivered prefix through {!Server.Replication.Apply} — the same state
   machine the socket pump drives. *)

module Io = Repository.Io
module Store = Repository.Store
module Repo = Repository.Repo
module Journal = Repository.Journal
module Frame = Repository.Journal.Frame
module Service = Server.Service
module Protocol = Server.Protocol
module Replication = Server.Replication
module Retry = Server.Retry
module Session = Core.Session

let test = Util.test
let quick_config = Test_server.quick_config
let mem_repo = Test_server.mem_repo
let service = Test_server.service
let req_ok = Test_server.req_ok
let req_err = Test_server.req_err
let apply_line = Test_server.apply_line

(* --- the frame wire format ------------------------------------------------- *)

let sample_frames =
  [
    Frame.Hello { era = 3 };
    Frame.Root { data = "interface A { attribute int x; };\n" };
    Frame.File
      { variant = "site one"; name = "log.ops"; data = "line1\nline2\n" };
    Frame.File { variant = "v"; name = "manifest"; data = "" };
    Frame.Start { variant = "site one"; stamp = 42 };
    Frame.Records
      { variant = "v"; stamp = 7; data = "@ww add_type_definition(Z);\n" };
    Frame.Records { variant = "v"; stamp = 8; data = "" };
    Frame.Reset { variant = "v" };
    Frame.Live;
    Frame.Ack { variant = "v"; stamp = 9 };
  ]

let frame_roundtrip () =
  List.iter
    (fun f ->
      match Frame.of_string (Frame.to_string f) with
      | Result.Ok (Some g) when g = f -> ()
      | Result.Ok (Some g) ->
          Alcotest.failf "%s round-tripped to %s" (Frame.describe f)
            (Frame.describe g)
      | Result.Ok None -> Alcotest.failf "%s read back empty" (Frame.describe f)
      | Result.Error m -> Alcotest.failf "%s: %s" (Frame.describe f) m)
    sample_frames

(* A concatenated stream reads back frame by frame through the transport
   callbacks, and clean EOF lands exactly on a frame boundary. *)
let frame_stream () =
  let blob = String.concat "" (List.map Frame.to_string sample_frames) in
  let pos = ref 0 in
  let read_line () =
    if !pos >= String.length blob then None
    else
      match String.index_from_opt blob !pos '\n' with
      | None ->
          let s = String.sub blob !pos (String.length blob - !pos) in
          pos := String.length blob;
          Some s
      | Some nl ->
          let s = String.sub blob !pos (nl - !pos) in
          pos := nl + 1;
          Some s
  in
  let read_exact n =
    if !pos + n > String.length blob then None
    else begin
      let s = String.sub blob !pos n in
      pos := !pos + n;
      Some s
    end
  in
  let rec all acc =
    match Frame.read ~read_line ~read_exact with
    | Result.Ok (Some f) -> all (f :: acc)
    | Result.Ok None -> List.rev acc
    | Result.Error m -> Alcotest.fail m
  in
  Alcotest.(check int) "every frame read back" (List.length sample_frames)
    (List.length (all []))

let frame_truncation_is_an_error () =
  let wire =
    Frame.to_string
      (Frame.File { variant = "v"; name = "log.ops"; data = "abcdef\n" })
  in
  match Frame.of_string (String.sub wire 0 (String.length wire - 3)) with
  | Result.Error _ -> ()
  | Result.Ok _ -> Alcotest.fail "a stream cut mid-payload must be an error"

(* --- the stamp ratchet ----------------------------------------------------- *)

let publish_at_ratchet () =
  let p = Server.Publish.create ~keep:Fun.id () in
  let publish_at v at =
    ignore (Server.Publish.publish p "v" ~at (fun ~stamp:_ _ -> v) : int)
  in
  publish_at "a" 5;
  Alcotest.(check int) "seq pinned to the leader stamp" 5
    (Server.Publish.seq p "v");
  (* a late-arriving lower stamp never rewinds the sequence *)
  publish_at "b" 3;
  Alcotest.(check int) "seq never rewinds" 5 (Server.Publish.seq p "v");
  publish_at "c" 9;
  Alcotest.(check int) "seq advances" 9 (Server.Publish.seq p "v");
  match Server.Publish.read p "v" with
  | Some ("c", 9) -> ()
  | _ -> Alcotest.fail "read must see the latest published pair"

(* --- retry determinism (satellite: pinned jitter streams) ------------------ *)

let connect_retry_determinism () =
  (* nothing ever listens at this path, so every attempt is a transient
     ENOENT/ECONNREFUSED; with a pinned jitter stream and a stubbed sleep
     the recorded delay sequence must reproduce exactly *)
  let path = Filename.temp_file "swsd_retry" ".sock" in
  Sys.remove path;
  let policy =
    { Retry.max_attempts = 5; base_delay = 0.01; max_delay = 0.05; jitter = 0.5 }
  in
  let delays seed =
    let recorded = ref [] in
    (match
       Server.Transport.connect ~retry_for:30.0 ~policy
         ~rand:(Random.State.make [| seed |])
         ~sleep:(fun _ -> ())
         ~on_retry:(fun ~attempt:_ ~delay -> recorded := delay :: !recorded)
         (Protocol.Unix_path path)
     with
    | Result.Error _ -> ()
    | Result.Ok fd ->
        Unix.close fd;
        Alcotest.fail "nothing listens here; connect cannot succeed");
    List.rev !recorded
  in
  let a = delays 7 and b = delays 7 and c = delays 1009 in
  Alcotest.(check bool) "retries actually happened" true (List.length a >= 2);
  Alcotest.(check (list (float 0.0))) "same seed, same delay sequence" a b;
  Alcotest.(check bool) "distinct seeds decorrelate" true (a <> c);
  List.iter
    (fun d ->
      if d < 0.0 || d > policy.Retry.max_delay then
        Alcotest.failf "delay %f outside [0, max_delay]" d)
    a

(* --- in-process stream plumbing -------------------------------------------- *)

(* Requests whose version stamp the test needs. *)
let req_v t c line =
  let r = Service.request t c line in
  match r.Protocol.status with
  | Protocol.Ok -> r.Protocol.version
  | _ -> Alcotest.failf "%s should succeed, got: %s" line (Protocol.to_string r)

(* Capture the bootstrap leg of a stream synchronously: with the hub
   already stopping, [serve_stream] sends hello + root + every variant
   snapshot + live, then exits instead of tailing. *)
let bootstrap_frames hub =
  Replication.stop_hub hub;
  let frames = ref [] in
  Replication.serve_stream hub
    ~send:(fun f -> frames := f :: !frames)
    ~alive:(fun () -> true);
  List.rev !frames

(* A follower service over a fresh in-memory fs, seeded with the root
   from the delivered stream prefix.  Returns [None] when the prefix was
   cut before [Root] — the follower never bootstrapped at all. *)
let open_follower ?(wrap = Fun.id) frames =
  match
    List.find_map
      (function Frame.Root { data } -> Some data | _ -> None)
      frames
  with
  | None -> None
  | Some root ->
      let m = Io.mem_create () in
      let io = wrap (Io.locked (Io.mem_io m)) in
      Io.mkdir_p io "/replica";
      Io.atomic_write io "/replica/shrinkwrap.odl" root;
      let config = { (quick_config ()) with Service.follower = true } in
      let svc =
        match Service.open_service ~config ~io "/replica" with
        | Result.Ok t -> t
        | Result.Error m -> Alcotest.fail m
      in
      Some (svc, io)

(* --- the follower-mode service --------------------------------------------- *)

let follower_serves_readonly () =
  let _, lio = mem_repo () in
  let lsvc = service ~config:(quick_config ()) lio in
  let hub = Replication.hub lsvc in
  let c = Service.connect lsvc in
  ignore (req_ok lsvc c "@open v");
  ignore (req_ok lsvc c "focus ww:Person");
  ignore (req_v lsvc c (apply_line "repl_a"));
  let leader_stamp =
    match req_v lsvc c (apply_line "repl_b") with
    | Some v -> v
    | None -> Alcotest.fail "an acked write must carry a version stamp"
  in
  let frames = bootstrap_frames hub in
  match open_follower frames with
  | None -> Alcotest.fail "bootstrap stream must carry the root"
  | Some (fsvc, _fio) ->
      let apply = Replication.Apply.create fsvc in
      let acked = ref [] in
      List.iter
        (Replication.Apply.frame apply ~ack:(fun ~variant:_ ~stamp ->
             acked := stamp :: !acked))
        frames;
      Alcotest.(check bool) "stream went live" true
        (Replication.Apply.live apply);
      Alcotest.(check int) "follower stamp equals the leader's" leader_stamp
        (Replication.Apply.stamp apply "v");
      (* readonly attach serves the replicated snapshot at that stamp *)
      let fc = Service.connect fsvc in
      let r = Service.request fsvc fc "@open v readonly" in
      (match (r.Protocol.status, r.Protocol.version) with
      | Protocol.Ok, Some v when v = leader_stamp -> ()
      | Protocol.Ok, v ->
          Alcotest.failf "attached at stamp %s, leader is at %d"
            (match v with Some v -> string_of_int v | None -> "none")
            leader_stamp
      | _ -> Alcotest.failf "readonly attach refused: %s" (Protocol.to_string r));
      let concepts = req_ok fsvc fc "concepts" in
      Alcotest.(check bool) "replicated state is readable" true
        (List.exists (fun l -> Str_contains.contains l "Person") concepts);
      (* every write-shaped request is refused in follower mode; a fresh
         connection (not yet attached) gets pointed at the leader *)
      (match (Service.request fsvc fc (apply_line "nope")).Protocol.status with
      | Protocol.Readonly _ -> ()
      | _ -> Alcotest.fail "a follower connection must be readonly");
      let fresh = Service.connect fsvc in
      Alcotest.(check bool) "non-readonly open points at the leader" true
        (Str_contains.contains (req_err fsvc fresh "@open v") "leader");
      Alcotest.(check bool) "variant creation points at the leader" true
        (Str_contains.contains (req_err fsvc fresh "@new w") "leader");
      Alcotest.(check bool) "unknown variant is a plain error" true
        (Str_contains.contains (req_err fsvc fresh "@open ghost readonly") "ghost")

(* A follower's [+start] opens the variant through the repository's
   base, as every variant load does: two variants' sessions share one
   shrink wrap value, where a load without the base parses a copy of its
   own each time. *)
let follower_start_loads_through_base () =
  let _, lio = mem_repo () in
  let lsvc = service ~config:(quick_config ()) lio in
  let hub = Replication.hub lsvc in
  let c = Service.connect lsvc in
  ignore (req_ok lsvc c "@open v");
  ignore (req_ok lsvc c "focus ww:Person");
  ignore (req_ok lsvc c (apply_line "on_v"));
  ignore (req_ok lsvc c "@close");
  ignore (req_ok lsvc c "@new w");
  ignore (req_ok lsvc c "focus ww:Person");
  ignore (req_ok lsvc c (apply_line "on_w"));
  ignore (req_ok lsvc c "@close");
  let frames = bootstrap_frames hub in
  match open_follower frames with
  | None -> Alcotest.fail "bootstrap stream must carry the root"
  | Some (fsvc, _fio) -> (
      let apply = Replication.Apply.create fsvc in
      List.iter
        (Replication.Apply.frame apply ~ack:(fun ~variant:_ ~stamp:_ -> ()))
        frames;
      match
        (Replication.Apply.session apply "v", Replication.Apply.session apply "w")
      with
      | Some v, Some w ->
          Alcotest.(check int) "v's op was applied" 1 (Session.step_count v);
          Alcotest.(check bool) "one shrink wrap value" true
            (Session.original v == Session.original w)
      | _ -> Alcotest.fail "both variants must be started")

(* A branched child crosses the bootstrap stream with its manifest, so a
   follower serves its lineage — parent, fork stamp, branches-of — at
   bounded staleness, and the fork stamp still floors [#version] on the
   replica.  Merging stays a leader-side affair: the follower refuses
   and points at the leader. *)
let follower_serves_lineage () =
  let _, lio = mem_repo () in
  let lsvc = service ~config:(quick_config ()) lio in
  let hub = Replication.hub lsvc in
  let c = Service.connect lsvc in
  ignore (req_ok lsvc c "@open v");
  ignore (req_ok lsvc c "focus ww:Person");
  ignore (req_ok lsvc c (apply_line "pre_fork"));
  ignore (req_ok lsvc c "@close");
  let fork =
    let body = req_ok lsvc c "@branch v w" in
    match
      List.find_map
        (fun l ->
          match String.rindex_opt l '@' with
          | Some i when Str_contains.contains l "branched" ->
              int_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
          | _ -> None)
        body
    with
    | Some n -> n
    | None ->
        Alcotest.failf "branch response carries no fork stamp: %s"
          (String.concat " | " body)
  in
  let leader_stamp =
    match (Service.request lsvc c "@open w readonly").Protocol.version with
    | Some v -> v
    | None -> Alcotest.fail "leader attach must carry a stamp"
  in
  let frames = bootstrap_frames hub in
  match open_follower frames with
  | None -> Alcotest.fail "bootstrap stream must carry the root"
  | Some (fsvc, _fio) ->
      let apply = Replication.Apply.create fsvc in
      List.iter
        (Replication.Apply.frame apply ~ack:(fun ~variant:_ ~stamp:_ -> ()))
        frames;
      let fc = Service.connect fsvc in
      let r = Service.request fsvc fc "@open w readonly" in
      (match (r.Protocol.status, r.Protocol.version) with
      | Protocol.Ok, Some v when v >= fork && v <= leader_stamp ->
          () (* the fork floors the stamp; staleness is bounded above *)
      | Protocol.Ok, v ->
          Alcotest.failf "follower serves w at %s (fork %d, leader %d)"
            (match v with Some v -> string_of_int v | None -> "none")
            fork leader_stamp
      | _ -> Alcotest.failf "readonly attach refused: %s" (Protocol.to_string r));
      let lineage = req_ok fsvc fc "@query lineage" in
      Alcotest.(check bool) "the replica knows w's parent and fork" true
        (List.exists
           (fun l -> Str_contains.contains l (Printf.sprintf "parent v@%d" fork))
           lineage);
      Alcotest.(check (list string)) "branches-of answers on the replica"
        [ Printf.sprintf "w fork %d" fork ]
        (req_ok fsvc fc "@query branches of v");
      (* the listing carries lineage on the follower too *)
      Alcotest.(check (list string)) "replicated lineage listing"
        [ "v root era 0"; Printf.sprintf "w v@%d era 0" fork ]
        (req_ok fsvc fc "@list");
      (* writes of every kind go to the leader *)
      Alcotest.(check bool) "@branch points at the leader" true
        (Str_contains.contains (req_err fsvc fc "@branch v x") "leader");
      Alcotest.(check bool) "@merge points at the leader" true
        (Str_contains.contains (req_err fsvc fc "@merge w into v") "leader")

(* A stale leader — an era below what the follower has already seen —
   must not feed the apply state machine. *)
let stale_leader_refused () =
  let _, lio = mem_repo () in
  let lsvc = service ~config:(quick_config ()) lio in
  let hub = Replication.hub lsvc in
  let c = Service.connect lsvc in
  ignore (req_ok lsvc c "@open v");
  let frames = bootstrap_frames hub in
  match open_follower frames with
  | None -> Alcotest.fail "bootstrap stream must carry the root"
  | Some (fsvc, _) -> (
      let apply = Replication.Apply.create fsvc in
      let nop ~variant:_ ~stamp:_ = () in
      List.iter (Replication.Apply.frame apply ~ack:nop) frames;
      (* a new leader at era 2 is fine; a later hello at era 1 is not *)
      Replication.Apply.frame apply ~ack:nop (Frame.Hello { era = 2 });
      match Replication.Apply.frame apply ~ack:nop (Frame.Hello { era = 1 }) with
      | () -> Alcotest.fail "a stale leader's hello must be refused"
      | exception Replication.Stream_error m ->
          Alcotest.(check bool) "names the stale era" true
            (Str_contains.contains m "era"))

(* --- era fencing at session load ------------------------------------------- *)

let fence_refuses_old_writer () =
  let _, io = mem_repo () in
  (match Repo.open_dir ~io "/repo" with
  | Result.Ok repo -> Store.fence (Repo.variant_store repo "v") ~era:2
  | Result.Error m -> Alcotest.fail m);
  (* the old writer (era 0) is refused before it can touch the journal *)
  let t = service ~config:(quick_config ()) io in
  let c = Service.connect t in
  Alcotest.(check bool) "refusal names the fence" true
    (Str_contains.contains (req_err t c "@open v") "fenced");
  (* the promoted writer (at or past the fence) is let in *)
  let t2 = service ~config:{ (quick_config ()) with Service.era = 2 } io in
  let c2 = Service.connect t2 in
  ignore (req_ok t2 c2 "@open v");
  ignore (req_ok t2 c2 "focus ww:Person");
  ignore (req_ok t2 c2 (apply_line "after_fence"))

(* --- the bounded event ring ------------------------------------------------
   A stream that falls a full ring behind is not a reason for the leader
   to retain history: the hub re-seeds it ([Reset] + snapshot + [Live])
   instead.  A ring of two and a stream held at its bootstrap [Live]
   while four writes land forces exactly that path. *)

let ring_of_two_forces_reset () =
  let _, lio = mem_repo () in
  let obs = Obs.create () in
  (* [on_durable] ships each record to the hub before its ticket settles,
     so the ring holds every acked write by the time [req_ok] returns *)
  let lsvc = service ~config:(quick_config ()) ~obs lio in
  let hub = Replication.hub ~ring:2 lsvc in
  let c = Service.connect lsvc in
  ignore (req_ok lsvc c "@open v");
  ignore (req_ok lsvc c "focus ww:Person");
  let mu = Mutex.create () and cond = Condition.create () in
  let frames = ref [] and gate_open = ref false in
  let live_count () =
    List.length (List.filter (fun f -> f = Frame.Live) !frames)
  in
  (* the stream's [send]: record every frame, and hold the stream at its
     bootstrap [Live] until the main thread has overflowed the ring *)
  let send f =
    Mutex.lock mu;
    frames := !frames @ [ f ];
    if f = Frame.Live && live_count () = 1 then begin
      Condition.broadcast cond;
      while not !gate_open do
        Condition.wait cond mu
      done
    end
    else Condition.broadcast cond;
    Mutex.unlock mu
  in
  let streamer =
    Thread.create
      (fun () -> Replication.serve_stream hub ~send ~alive:(fun () -> true))
      ()
  in
  Mutex.lock mu;
  while live_count () < 1 do
    Condition.wait cond mu
  done;
  Mutex.unlock mu;
  (* four pushes into a ring of two: the held stream's cursor is now more
     than a full ring behind *)
  for k = 1 to 4 do
    ignore (req_ok lsvc c (apply_line (Printf.sprintf "lag_%d" k)))
  done;
  Mutex.lock mu;
  gate_open := true;
  Condition.broadcast cond;
  while live_count () < 2 do
    Condition.wait cond mu
  done;
  Mutex.unlock mu;
  Replication.stop_hub hub;
  Thread.join streamer;
  (* the catch-up leg must be a re-seed, not replayed records: Reset,
     then a fresh snapshot ending in [Start], then [Live] *)
  let after_bootstrap =
    let rec drop = function
      | Frame.Live :: rest -> rest
      | _ :: rest -> drop rest
      | [] -> Alcotest.fail "stream never went live"
    in
    drop !frames
  in
  (match after_bootstrap with
  | Frame.Reset { variant = "v" } :: _ -> ()
  | f :: _ ->
      Alcotest.failf "expected Reset after the gap, got %s" (Frame.describe f)
  | [] -> Alcotest.fail "nothing followed the held Live");
  Alcotest.(check bool) "no stale record is replayed after the gap" true
    (not
       (List.exists
          (function Frame.Records _ -> true | _ -> false)
          after_bootstrap));
  Alcotest.(check bool) "the re-seed ships a complete snapshot" true
    (List.exists
       (function Frame.Start { variant = "v"; _ } -> true | _ -> false)
       after_bootstrap);
  (match after_bootstrap with
  | _ :: _ when List.nth after_bootstrap (List.length after_bootstrap - 1)
                = Frame.Live -> ()
  | _ -> Alcotest.fail "re-seed must end with Live");
  (match Obs.counter_value obs "swsd.repl.resets_total" with
  | Some n when n >= 1 -> ()
  | v ->
      Alcotest.failf "resets_total should count the re-seed, got %s"
        (match v with Some n -> string_of_int n | None -> "nothing"));
  (* a replayed re-seed really is the leader's state: apply it to a fresh
     follower and compare stamps *)
  match open_follower !frames with
  | None -> Alcotest.fail "re-seeded stream must still carry the root"
  | Some (fsvc, _) ->
      let apply = Replication.Apply.create fsvc in
      List.iter
        (Replication.Apply.frame apply ~ack:(fun ~variant:_ ~stamp:_ -> ()))
        !frames;
      let leader_stamp =
        match (Service.request lsvc c "log").Protocol.version with
        | Some v -> v
        | None -> Alcotest.fail "leader read must carry a stamp"
      in
      Alcotest.(check int) "re-seeded follower lands on the leader's stamp"
        leader_stamp
        (Replication.Apply.stamp apply "v")

(* Run [body] while a replication stream of [hub] is live; [body] gets
   [await], which blocks until a predicate holds of the frames sent so far
   (newest first) and returns them.  Returns every frame sent, oldest
   first.  Events travel one ring in order, so once a later write's
   records arrive, anything pushed before it (a re-seed included) has
   arrived too. *)
let capture_stream hub body =
  let mu = Mutex.create () and cond = Condition.create () in
  let frames = ref [] in
  let send f =
    Mutex.lock mu;
    frames := f :: !frames;
    Condition.broadcast cond;
    Mutex.unlock mu
  in
  let await p =
    Mutex.lock mu;
    while not (p !frames) do
      Condition.wait cond mu
    done;
    let fs = !frames in
    Mutex.unlock mu;
    fs
  in
  let streamer =
    Thread.create
      (fun () -> Replication.serve_stream hub ~send ~alive:(fun () -> true))
      ()
  in
  ignore (await (List.mem Frame.Live));
  body await;
  Replication.stop_hub hub;
  Thread.join streamer;
  List.rev !frames

(* [variant]'s records carrying [marker] were shipped *)
let shipped variant marker =
  List.exists (function
    | Frame.Records { variant = v; data; _ } ->
        v = variant && Str_contains.contains data marker
    | _ -> false)

let resets variant frames =
  List.length (List.filter (( = ) (Frame.Reset { variant })) frames)

(* A detach snapshot checkpoints the journal as it stands: the bytes
   already shipped still extend it, so no follower is re-seeded, neither
   by the detach nor when [v] is loaded again.  [v] is first opened
   before the stream starts: a variant's first load in a process
   re-seeds (the followers may not hold it); so does [w]'s, created
   while the stream is live. *)
let detach_does_not_reseed () =
  let _, lio = mem_repo () in
  let lsvc = service ~config:(quick_config ()) lio in
  let hub = Replication.hub lsvc in
  let c = Service.connect lsvc in
  ignore (req_ok lsvc c "@open v");
  ignore (req_ok lsvc c "focus ww:Person");
  let frames =
    capture_stream hub (fun await ->
        ignore (req_ok lsvc c (apply_line "before_detach"));
        ignore (req_ok lsvc c "@close");
        ignore (req_ok lsvc c "@new w");
        ignore (req_ok lsvc c "focus ww:Person");
        ignore (req_ok lsvc c (apply_line "on_w"));
        ignore (await (shipped "w" "on_w"));
        ignore (req_ok lsvc c "@close");
        ignore (req_ok lsvc c "@open v");
        ignore (req_ok lsvc c "focus ww:Person");
        ignore (req_ok lsvc c (apply_line "after_reopen"));
        ignore (await (shipped "v" "after_reopen")))
  in
  Alcotest.(check bool) "v's write was shipped" true
    (shipped "v" "before_detach" frames);
  Alcotest.(check int) "v was seeded once, at bootstrap" 1
    (List.length
       (List.filter
          (function Frame.Start { variant = "v"; _ } -> true | _ -> false)
          frames));
  Alcotest.(check int) "neither the detach nor the reopen re-seeded v" 0
    (resets "v" frames);
  Alcotest.(check int) "w's first load seeded it" 1 (resets "w" frames)

(* A flush whose every attempt lands its records and then fails leaves
   them on disk and never ships them: the reopen reads bytes the
   followers do not hold, and re-seeds.  Resets of [v] are counted at a
   marker written to [w] after the failure, so the count after the
   reopen is the reopen's own. *)
let failed_flush_reseeds_on_reopen () =
  let raw = Io.locked (Io.mem_io (Io.mem_create ())) in
  let failing = ref false in
  let io =
    {
      raw with
      Io.append =
        (fun path data ->
          raw.Io.append path data;
          if !failing then raise (Sys_error (path ^ ": injected EIO")));
    }
  in
  (match Repo.init ~io:raw "/repo" (Test_server.tiny ()) with
  | Result.Ok repo -> ignore (Repo.create_variant repo "v")
  | Result.Error e -> Alcotest.fail e);
  let lsvc = service ~config:(quick_config ()) io in
  let hub = Replication.hub lsvc in
  let c = Service.connect lsvc and c2 = Service.connect lsvc in
  ignore (req_ok lsvc c "@open v");
  ignore (req_ok lsvc c "focus ww:Person");
  let before_reopen = ref 0 in
  let frames =
    capture_stream hub (fun await ->
        failing := true;
        ignore (req_err lsvc c (apply_line "doomed"));
        failing := false;
        ignore (req_ok lsvc c2 "@new w");
        ignore (req_ok lsvc c2 "focus ww:Person");
        ignore (req_ok lsvc c2 (apply_line "marker"));
        before_reopen := resets "v" (await (shipped "w" "marker"));
        ignore (req_ok lsvc c "@open v");
        ignore (req_ok lsvc c "focus ww:Person");
        ignore (req_ok lsvc c (apply_line "after_reopen"));
        ignore (await (shipped "v" "after_reopen")))
  in
  Alcotest.(check int) "the reopen after a failed flush re-seeded v"
    (!before_reopen + 1) (resets "v" frames);
  Alcotest.(check bool) "the failed write was never shipped" false
    (shipped "v" "doomed" frames)

(* A torn fragment on [log.ops] between two loads: the reopen repairs it
   in place, so the bytes the followers were seeded from changed under
   them, and the reopen re-seeds them from the repaired file. *)
let torn_tail_reseeds_on_reopen () =
  let _, lio = mem_repo () in
  let lsvc = service ~config:(quick_config ()) lio in
  let hub = Replication.hub lsvc in
  let c = Service.connect lsvc in
  ignore (req_ok lsvc c "@open v");
  ignore (req_ok lsvc c "focus ww:Person");
  let frames =
    capture_stream hub (fun await ->
        ignore (req_ok lsvc c (apply_line "before_tear"));
        ignore (req_ok lsvc c "@close");
        lio.Io.append "/repo/variants/v/log.ops" "@ww add_attr";
        ignore (req_ok lsvc c "@open v");
        ignore (req_ok lsvc c "focus ww:Person");
        ignore (req_ok lsvc c (apply_line "after_repair"));
        ignore (await (shipped "v" "after_repair")))
  in
  Alcotest.(check int) "the repairing reopen re-seeded v" 1 (resets "v" frames);
  Alcotest.(check bool) "the re-seed ships the repaired journal" true
    (List.exists
       (function
         | Frame.File { variant = "v"; name = "log.ops"; data } ->
             Str_contains.contains data "before_tear"
             && String.ends_with ~suffix:"\n" data
         | _ -> false)
       frames)

(* the clamp: a ring below two slots (or an absurd ask) still serves *)
let ring_size_is_clamped () =
  List.iter
    (fun ring ->
      let _, lio = mem_repo () in
      let lsvc = service ~config:(quick_config ()) lio in
      let hub = Replication.hub ~ring lsvc in
      let frames = Test_server.with_watchdog ~secs:30.0 ~name:"clamped ring"
          (fun () -> bootstrap_frames hub)
      in
      Alcotest.(check bool)
        (Printf.sprintf "ring=%d still bootstraps" ring)
        true
        (List.mem Frame.Live frames))
    [ 0; -3; 1 lsl 24 ]

(* --- the chaos property ----------------------------------------------------
   For >= 200 randomized schedules: a leader applies ops while a follower
   consumes its stream; the leader "dies" at an arbitrary frame boundary
   (optionally leaving a torn, unacknowledged tail on its own disk); the
   follower is promoted.  Afterwards every acked write must be in the new
   writer's journal, no follower stamp may ever have exceeded the
   leader's, both directories must fsck clean, and the fenced old era
   must be refused while the promoted era is accepted. *)

(* Tier-1 runs 200; the nightly [@repl-chaos] alias raises it via
   SWSD_REPL_CHAOS_SCHEDULES for a deeper sweep of the same property. *)
let chaos_schedules =
  match
    Option.bind
      (Sys.getenv_opt "SWSD_REPL_CHAOS_SCHEDULES")
      int_of_string_opt
  with
  | Some n when n > 0 -> n
  | _ -> 200

let chaos_one rng =
  let _, lio = mem_repo () in
  let lsvc = service ~config:(quick_config ()) lio in
  let hub = Replication.hub lsvc in
  let c = Service.connect lsvc in
  ignore (req_ok lsvc c "@open v");
  ignore (req_ok lsvc c "focus ww:Person");
  let acked = ref [] in
  let last_stamp = ref 0 in
  let apply_one name =
    match req_v lsvc c (apply_line name) with
    | Some v ->
        acked := name :: !acked;
        last_stamp := max !last_stamp v
    | None -> Alcotest.fail "an acked write must carry a version stamp"
  in
  (* phase 1: ops that will reach the follower inside the bootstrap
     snapshot *)
  for k = 1 to 1 + Random.State.int rng 3 do
    apply_one (Printf.sprintf "p%d" k)
  done;
  (* phase 2: ops shipped through the live tail while a stream thread is
     consuming the ring *)
  let q = Queue.create () in
  let qmu = Mutex.create () in
  let tail =
    Thread.create
      (fun () ->
        try
          Replication.serve_stream hub
            ~send:(fun f ->
              Mutex.lock qmu;
              Queue.add f q;
              Mutex.unlock qmu)
            ~alive:(fun () -> true)
        with Replication.Stream_error _ -> ())
      ()
  in
  let phase2 = Random.State.int rng 4 in
  for k = 1 to phase2 do
    apply_one (Printf.sprintf "t%d" k)
  done;
  (* wait until the stream has caught up to the last acked stamp (the
     bootstrap snapshot alone covers it when phase 2 was empty) *)
  let caught_up () =
    Mutex.lock qmu;
    let hit =
      Queue.fold
        (fun acc f ->
          acc
          ||
          match f with
          | Frame.Start { variant = "v"; stamp } -> stamp >= !last_stamp
          | Frame.Records { variant = "v"; stamp; _ } -> stamp >= !last_stamp
          | _ -> false)
        false q
    in
    Mutex.unlock qmu;
    hit
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (caught_up ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.001
  done;
  if not (caught_up ()) then Alcotest.fail "stream never caught up";
  Replication.stop_hub hub;
  Thread.join tail;
  let frames = List.of_seq (Queue.to_seq q) in
  (* the leader dies: the stream is cut at an arbitrary frame boundary *)
  let cut = Random.State.int rng (List.length frames + 1) in
  let delivered = List.filteri (fun i _ -> i < cut) frames in
  let follower = open_follower delivered in
  (match follower with
  | None -> () (* cut before [Root]: the follower never bootstrapped *)
  | Some (fsvc, _) ->
      let apply = Replication.Apply.create fsvc in
      List.iter
        (Replication.Apply.frame apply ~ack:(fun ~variant:_ ~stamp ->
             if stamp > !last_stamp then
               Alcotest.failf "follower acked stamp %d beyond the leader's %d"
                 stamp !last_stamp))
        delivered;
      if Replication.Apply.stamp apply "v" > !last_stamp then
        Alcotest.fail "follower stamp exceeds the leader's");
  (* optionally the crash also tore the leader's journal tail: a partial
     record that was never acknowledged *)
  let torn = Random.State.bool rng in
  if torn then
    lio.Io.append "/repo/variants/v/log.ops" "@ww add_attribute(Per";
  (* promotion: the replica directory (possibly empty) takes over *)
  let fio =
    match follower with
    | Some (_, fio) -> fio
    | None -> Io.locked (Io.mem_io (Io.mem_create ()))
  in
  match Replication.promote ~src_io:lio ~dst_io:fio ~src:"/repo" ~dst:"/replica" () with
  | Result.Error m -> Alcotest.fail m
  | Result.Ok (era, outcomes) ->
      List.iter
        (fun (v, r) ->
          match r with
          | Result.Ok () -> ()
          | Result.Error m -> Alcotest.failf "%s unrecoverable: %s" v m)
        outcomes;
      if era < 1 then Alcotest.failf "promotion must fence a fresh era, got %d" era;
      (* every acked write is on the new writer *)
      let dst_repo =
        match Repo.open_dir ~io:fio "/replica" with
        | Result.Ok r -> r
        | Result.Error m -> Alcotest.fail m
      in
      let log_ops =
        match Store.load_session (Repo.variant_store dst_repo "v") with
        | Result.Ok s ->
            List.map
              (fun (st : Session.step) ->
                Core.Op_printer.to_string (Session.step_op st))
              (Session.log s)
        | Result.Error e -> Alcotest.fail (Store.load_error_to_string e)
      in
      List.iter
        (fun name ->
          if
            not
              (List.exists (fun op -> Str_contains.contains op name) log_ops)
          then
            Alcotest.failf "acked write %s lost across promotion (cut %d/%d)"
              name cut (List.length frames))
        !acked;
      (* both directories fsck clean: the promoted store as-is; the old
         leader's after its own crash recovery pass salvages the
         unacknowledged torn tail *)
      let dst_report = Store.fsck (Repo.variant_store dst_repo "v") in
      Alcotest.(check (list string)) "promoted store is clean" []
        dst_report.Store.fsck_issues;
      ignore (Store.fsck ~salvage:true (Store.open_dir ~io:lio "/repo/variants/v"));
      let src_report = Store.fsck (Store.open_dir ~io:lio "/repo/variants/v") in
      Alcotest.(check (list string)) "old leader store salvages clean" []
        src_report.Store.fsck_issues;
      (* exactly one writer: the old era is fenced out of both homes, the
         promoted era gets in *)
      let old = service ~config:(quick_config ()) lio in
      let oc = Service.connect old in
      Alcotest.(check bool) "old-era writer is fenced" true
        (Str_contains.contains (req_err old oc "@open v") "fenced");
      let nw =
        match
          Service.open_service
            ~config:{ (quick_config ()) with Service.era = era }
            ~io:fio "/replica"
        with
        | Result.Ok t -> t
        | Result.Error m -> Alcotest.fail m
      in
      let nc = Service.connect nw in
      ignore (req_ok nw nc "@open v");
      ignore (req_ok nw nc "focus ww:Person");
      ignore (req_ok nw nc (apply_line "post_promotion"))

let chaos_property () =
  (* budget scales with the sweep size so the nightly run can't trip it *)
  let secs = 120.0 +. (0.3 *. float_of_int chaos_schedules) in
  Test_server.with_watchdog ~secs ~name:"replication chaos" (fun () ->
      let rng = Random.State.make [| 0xD5C0; chaos_schedules |] in
      for _ = 1 to chaos_schedules do
        chaos_one rng
      done)

(* --- QCheck: any acked journal prefix reproduces the state ----------------- *)

(* The replication contract in one property: the journal bytes as they
   stood after any acknowledged request, replayed through the recovery
   path on a fresh store (exactly what a follower does with shipped
   bytes), reproduce the session state the leader had at that moment. *)
let prefix_replay_prop =
  let gen = QCheck2.Gen.(list_size (1 -- 10) (0 -- 5)) in
  QCheck2.Test.make ~name:"replaying any acked journal prefix reproduces state"
    ~count:25 ~print:QCheck2.Print.(list int) gen (fun picks ->
      let _, lio = mem_repo () in
      (* the variant's files before any service touched them *)
      let base =
        List.filter_map
          (fun name ->
            let p = "/repo/variants/v/" ^ name in
            if lio.Io.file_exists p then Some (name, lio.Io.read_file p)
            else None)
          [ "shrinkwrap.odl"; "log.ops"; "aliases.map"; "checkpoint.odl";
            "manifest" ]
      in
      let t = service ~config:(quick_config ()) lio in
      let c = Service.connect t in
      ignore (req_ok t c "@open v");
      ignore (req_ok t c "focus ww:Person");
      let expected = ref [] in
      (* (journal bytes, expected op strings newest-first) after each ack *)
      let recorded = ref [] in
      List.iter
        (fun pick ->
          let line, on_ok =
            if pick = 5 then ("undo", fun () -> expected := List.tl !expected)
            else
              ( apply_line (Printf.sprintf "q%d" pick),
                fun () ->
                  expected :=
                    Printf.sprintf "add_attribute(Person, string, 8, q%d)" pick
                    :: !expected )
          in
          match (Service.request t c line).Protocol.status with
          | Protocol.Ok ->
              on_ok ();
              recorded :=
                (lio.Io.read_file "/repo/variants/v/log.ops", !expected)
                :: !recorded
          | _ -> () (* rejected (duplicate attribute, empty undo): not acked *))
        picks;
      List.for_all
        (fun (journal, expect) ->
          let m = Io.mem_create () in
          let io = Io.locked (Io.mem_io m) in
          io.Io.mkdir "/s";
          List.iter
            (fun (name, data) -> io.Io.write ("/s/" ^ name) data)
            base;
          io.Io.write "/s/log.ops" journal;
          match Store.load_session (Store.open_dir ~io "/s") with
          | Result.Error e -> Alcotest.fail (Store.load_error_to_string e)
          | Result.Ok s ->
              let got =
                List.rev_map
                  (fun (st : Session.step) ->
                    Core.Op_printer.to_string (Session.step_op st))
                  (Session.log s)
              in
              got = expect)
        !recorded)

(* --- the read-only protocol over real sockets (regression) ----------------- *)

(* [@open <missing> readonly] must come back as a terminated [!err] over
   a Unix socket and over TCP alike — not a hang, not a dropped
   connection. *)
let open_missing_readonly_err () =
  Test_server.with_watchdog ~secs:60.0 ~name:"readonly missing variant" (fun () ->
      let dir = Util.tmp_dir () in
      Fun.protect
        ~finally:(fun () -> Util.rm_rf dir)
        (fun () ->
          (match Repo.init dir (Util.parse Test_server.tiny_text) with
          | Result.Ok repo -> (
              match Repo.create_variant repo "v" with
              | Result.Ok _ -> ()
              | Result.Error e -> Alcotest.fail e)
          | Result.Error e -> Alcotest.fail e);
          List.iter
            (fun listen ->
              match Server.create ~listen dir with
              | Result.Error m -> Alcotest.fail m
              | Result.Ok server ->
                  let th =
                    Thread.create (fun () -> ignore (Server.run server)) ()
                  in
                  Fun.protect
                    ~finally:(fun () ->
                      Server.stop server;
                      Thread.join th)
                    (fun () ->
                      let addr =
                        Protocol.address_to_string
                          (Server.listen_address server)
                      in
                      match Server.Client.connect ~retry_for:10.0 addr with
                      | Result.Error m -> Alcotest.fail m
                      | Result.Ok c ->
                          ignore (Server.Client.read_response c);
                          (match
                             Server.Client.request c "@open ghost readonly"
                           with
                          | None ->
                              Alcotest.failf "%s: server hung up" addr
                          | Some lines ->
                              Alcotest.(check bool)
                                (addr ^ ": !err names the variant") true
                                (List.exists
                                   (fun l ->
                                     String.length l >= 4
                                     && String.sub l 0 4 = "!err"
                                     && Str_contains.contains l "ghost")
                                   lines));
                          (* the connection survives for a correct retry *)
                          (match Server.Client.request c "@open v readonly" with
                          | Some lines ->
                              Alcotest.(check bool)
                                (addr ^ ": correct open still works") true
                                (List.exists
                                   (fun l ->
                                     Str_contains.contains l "!ok")
                                   lines)
                          | None -> Alcotest.failf "%s: server hung up" addr);
                          Server.Client.close c))
            [
              Protocol.Unix_path (Filename.concat dir "ro.sock");
              Protocol.Tcp ("127.0.0.1", 0);
            ]))

(* The applier thread must outlive its leader: when the leader goes away
   and a successor binds the same address, the follower redials,
   re-bootstraps, and keeps applying.  Regression for the applier thread
   dying on an exception escaping the reconnect handshake (ECONNRESET
   out of the greeting read during promotion churn), which left the
   follower serving ever-staler state while claiming health. *)
let follower_survives_leader_restart () =
  Test_server.with_watchdog ~secs:90.0 ~name:"follower reconnect" (fun () ->
      let dir = Util.tmp_dir () in
      Unix.mkdir dir 0o700;
      Fun.protect
        ~finally:(fun () -> Util.rm_rf dir)
        (fun () ->
          let ldir = Filename.concat dir "leader" in
          let fdir = Filename.concat dir "replica" in
          let sock = Filename.concat dir "leader.sock" in
          (match Repo.init ldir (Util.parse Test_server.tiny_text) with
          | Result.Ok repo -> (
              match Repo.create_variant repo "v" with
              | Result.Ok _ -> ()
              | Result.Error e -> Alcotest.fail e)
          | Result.Error e -> Alcotest.fail e);
          let start_leader () =
            match
              Server.create ~replicate:true
                ~listen:(Protocol.Unix_path sock) ldir
            with
            | Result.Error m -> Alcotest.fail m
            | Result.Ok server ->
                let th =
                  Thread.create (fun () -> ignore (Server.run server)) ()
                in
                (server, th)
          in
          let apply_on_leader name =
            match Server.Client.connect ~retry_for:10.0 sock with
            | Result.Error m -> Alcotest.fail m
            | Result.Ok c ->
                ignore (Server.Client.read_response c);
                List.iter
                  (fun line ->
                    match Server.Client.request c line with
                    | Some lines when List.mem "!ok" lines -> ()
                    | Some lines ->
                        Alcotest.failf "%s: %s" line (String.concat "|" lines)
                    | None -> Alcotest.failf "%s: leader hung up" line)
                  [ "@open v"; "focus ww:Person"; apply_line name ];
                Server.Client.close c
          in
          let follower_journal_has name =
            let path =
              Filename.concat fdir (Filename.concat "variants/v" "log.ops")
            in
            Sys.file_exists path
            && Str_contains.contains
                 (In_channel.with_open_bin path In_channel.input_all)
                 name
          in
          let await what pred =
            let deadline = Unix.gettimeofday () +. 30.0 in
            while (not (pred ())) && Unix.gettimeofday () < deadline do
              Thread.delay 0.05
            done;
            Alcotest.(check bool) what true (pred ())
          in
          let server1, th1 = start_leader () in
          let follower =
            match
              Replication.Follower.create
                ~config:(quick_config ())
                ~leader:(Protocol.Unix_path sock) fdir
            with
            | Result.Error m -> Alcotest.fail m
            | Result.Ok f -> f
          in
          Fun.protect
            ~finally:(fun () -> Replication.Follower.stop follower)
            (fun () ->
              apply_on_leader "before_restart";
              await "first leader's write replicated" (fun () ->
                  follower_journal_has "before_restart");
              Server.stop server1;
              Thread.join th1;
              let server2, th2 = start_leader () in
              Fun.protect
                ~finally:(fun () ->
                  Server.stop server2;
                  Thread.join th2)
                (fun () ->
                  apply_on_leader "after_restart";
                  await "follower reconnected and applied the new leader's \
                         write" (fun () ->
                      follower_journal_has "after_restart");
                  (* the bootstrap ships each variant's files (the journal
                     among them) before the final [Live] frame, so the
                     write can be on disk while the stream is still
                     bootstrapping: wait for liveness too *)
                  await "follower is live again" (fun () ->
                      Replication.Follower.live follower)))))

(* --- failed calls that took effect ------------------------------------------ *)

let journal_of io root = io.Io.read_file (root ^ "/variants/v/log.ops")

(* The leader's flush lands and its fsync fails; the retry appends over
   the restored tail, and the records ship once, after the retry's fsync:
   a follower applying the stream holds the leader's journal byte for
   byte, no record twice. *)
let leader_flush_lands_then_fails () =
  let raw, lio, armed = Test_server.landing_repo () in
  let lsvc = service ~config:(quick_config ()) lio in
  let hub = Replication.hub lsvc in
  let c = Service.connect lsvc in
  ignore (req_ok lsvc c "@open v");
  ignore (req_ok lsvc c "focus ww:Person");
  let frames =
    capture_stream hub (fun await ->
        Atomic.set armed true;
        ignore (req_ok lsvc c (apply_line "once"));
        ignore (req_ok lsvc c (apply_line "after"));
        ignore (await (shipped "v" "after")))
  in
  Alcotest.(check bool) "the fsync failed" false (Atomic.get armed);
  match open_follower frames with
  | None -> Alcotest.fail "bootstrap stream must carry the root"
  | Some (fsvc, fio) ->
      let apply = Replication.Apply.create fsvc in
      List.iter
        (Replication.Apply.frame apply ~ack:(fun ~variant:_ ~stamp:_ -> ()))
        frames;
      Alcotest.(check string) "the follower's journal is the leader's"
        (journal_of raw "/repo") (journal_of fio "/replica");
      Alcotest.(check int) "each record once" 2
        (List.length (Journal.parse (journal_of fio "/replica")).Journal.entries)

(* The follower's own append lands and fails: the frame raises, which
   ends the connection in the pump, and the reconnect's bootstrap
   replaces the follower's files — its journal ends as the leader's, the
   landed record once. *)
let follower_append_lands_then_fails () =
  let _, lio = mem_repo () in
  let lsvc = service ~config:(quick_config ()) lio in
  let hub = Replication.hub lsvc in
  let c = Service.connect lsvc in
  ignore (req_ok lsvc c "@open v");
  ignore (req_ok lsvc c "focus ww:Person");
  ignore (req_ok lsvc c (apply_line "seeded"));
  let frames =
    capture_stream hub (fun await ->
        ignore (req_ok lsvc c (apply_line "landed"));
        ignore (await (shipped "v" "landed")))
  in
  let armed = Atomic.make true in
  let wrap io =
    {
      io with
      Io.append =
        (fun p data ->
          io.Io.append p data;
          if Filename.basename p = "log.ops" && Atomic.compare_and_set armed true false
          then raise (Sys_error (p ^ ": Input/output error (injected)")));
    }
  in
  match open_follower ~wrap frames with
  | None -> Alcotest.fail "bootstrap stream must carry the root"
  | Some (fsvc, fio) ->
      let apply = Replication.Apply.create fsvc in
      let ack ~variant:_ ~stamp:_ = () in
      (match List.iter (Replication.Apply.frame apply ~ack) frames with
      | () -> Alcotest.fail "the failed append must end the stream"
      | exception Sys_error _ -> ());
      (* what [Follower.run] does after the pump's catch-all *)
      Replication.Apply.invalidate_all apply;
      List.iter (Replication.Apply.frame apply ~ack) (bootstrap_frames hub);
      Alcotest.(check string) "the follower's journal is the leader's"
        (journal_of lio "/repo") (journal_of fio "/replica");
      Alcotest.(check int) "each record once" 2
        (List.length (Journal.parse (journal_of fio "/replica")).Journal.entries)

let tests =
  [
    test "frame: every constructor round-trips exactly" frame_roundtrip;
    test "frame: a concatenated stream reads back frame by frame" frame_stream;
    test "frame: truncation mid-payload is an error" frame_truncation_is_an_error;
    test "publish: publish_at ratchets and never rewinds" publish_at_ratchet;
    test "retry: pinned jitter streams reproduce the delay sequence"
      connect_retry_determinism;
    test "follower: replicated state served readonly at the leader's stamp"
      follower_serves_readonly;
    test "follower: lineage served at bounded staleness, merges to the leader"
      follower_serves_lineage;
    test "follower: a stale leader's era is refused" stale_leader_refused;
    test "hub: a stream a full ring behind is re-seeded, not replayed"
      ring_of_two_forces_reset;
    test "hub: the ring size is clamped, never refused" ring_size_is_clamped;
    test "fence: an old-era writer is refused, the promoted era admitted"
      fence_refuses_old_writer;
    Alcotest.test_case
      (Printf.sprintf
         "chaos: %d leader-death schedules lose nothing across promotion"
         chaos_schedules)
      `Slow chaos_property;
    QCheck_alcotest.to_alcotest prefix_replay_prop;
    test "server: @open missing readonly is !err over unix and tcp"
      open_missing_readonly_err;
    test "follower: survives leader restart and reconnects"
      follower_survives_leader_restart;
    test "hub: a detach snapshot does not re-seed a follower"
      detach_does_not_reseed;
    test "replication: the reopen after a failed flush re-seeds"
      failed_flush_reseeds_on_reopen;
    test "replication: a reopen that repairs a torn tail re-seeds"
      torn_tail_reseeds_on_reopen;
    test "follower: a bootstrap loads every variant through the base"
      follower_start_loads_through_base;
    test "replication: a leader flush that lands and fails ships its records once"
      leader_flush_lands_then_fails;
    test "follower: an append that lands and fails re-bootstraps to the leader's bytes"
      follower_append_lands_then_fails;
  ]
