(* [@query] at the service boundary: structured errors over real sockets
   (Unix-domain and TCP), lock-free serving asserted through the obs
   counters, the all-scope block shape, shard-merged router answers
   byte-identical with a single process over the same repository, and
   follower answers at bounded staleness. *)

module Io = Repository.Io
module Repo = Repository.Repo
module Service = Server.Service
module Protocol = Server.Protocol
module Replication = Server.Replication
module Frame = Repository.Journal.Frame

let test = Util.test
let quick_config = Test_server.quick_config
let mem_repo = Test_server.mem_repo
let service = Test_server.service
let req_ok = Test_server.req_ok
let req_err = Test_server.req_err
let apply_line = Test_server.apply_line
let with_watchdog = Test_server.with_watchdog
let tmp_dir = Util.tmp_dir
let rm_rf = Util.rm_rf

let attr_line name = Printf.sprintf "apply add_attribute(Person, string, 8, %s)" name

(* wire-level helpers: the body lines of a framed response, unprefixed *)
let strip_body lines =
  List.filter_map
    (fun l ->
      if String.length l >= 2 && String.sub l 0 2 = ". " then
        Some (String.sub l 2 (String.length l - 2))
      else None)
    lines

let err_line lines =
  List.find_opt
    (fun l -> String.length l >= 4 && String.sub l 0 4 = "!err")
    lines

(* --- structured errors over both transports -------------------------------- *)

(* A malformed [@query] must come back as a structured [!err] with the
   usage line as body — and must not poison the connection — whether the
   server listens on a Unix socket or on TCP. *)
let malformed_query_over_sockets () =
  with_watchdog ~secs:60.0 ~name:"query over sockets" (fun () ->
      List.iter
        (fun transport ->
          let dir = tmp_dir () in
          Fun.protect
            ~finally:(fun () -> rm_rf dir)
            (fun () ->
              (match Repo.init dir (Test_server.tiny ()) with
              | Result.Ok _ -> ()
              | Result.Error e -> Alcotest.fail e);
              let listen =
                match transport with
                | `Unix -> Protocol.Unix_path (Filename.concat dir "q.sock")
                | `Tcp -> Protocol.Tcp ("127.0.0.1", 0)
              in
              let server =
                match Server.create ~listen dir with
                | Result.Ok s -> s
                | Result.Error m -> Alcotest.fail m
              in
              let runner =
                Thread.create (fun () -> ignore (Server.run server)) ()
              in
              let client =
                match
                  Server.Client.connect_to ~retry_for:10.0
                    (Server.listen_address server)
                with
                | Result.Ok c -> c
                | Result.Error m -> Alcotest.fail m
              in
              (match Server.Client.read_response client with
              | Some greeting ->
                  if not (List.mem "!ok" greeting) then
                    Alcotest.failf "bad greeting: %s"
                      (String.concat " | " greeting)
              | None -> Alcotest.fail "no greeting");
              let roundtrip line =
                match Server.Client.request client line with
                | Some lines -> lines
                | None -> Alcotest.failf "%s: server hung up" line
              in
              (* the usage line rides along — in the body for a parser
                 refusal, in the error itself for a bare [@query] the
                 protocol layer rejects *)
              let expect_structured_err line =
                let lines = roundtrip line in
                (match err_line lines with
                | Some _ -> ()
                | None ->
                    Alcotest.failf "%s should be !err, got: %s" line
                      (String.concat " | " lines));
                Alcotest.(check bool)
                  (Printf.sprintf "%s: usage rides along" line)
                  true
                  (List.exists
                     (fun l -> Str_contains.contains l "usage: @query")
                     lines)
              in
              expect_structured_err "@query frobnicate everything";
              expect_structured_err "@query";
              expect_structured_err "@query name";
              (* a lexer-level wound — an unterminated quote — is still a
                 structured refusal, not a hangup *)
              expect_structured_err "@query name \"unterminated";
              (* the connection survives and serves real queries *)
              let expect_ok line =
                let lines = roundtrip line in
                if not (List.mem "!ok" lines) then
                  Alcotest.failf "%s: %s" line (String.concat " | " lines);
                lines
              in
              ignore (expect_ok "@new night");
              ignore (expect_ok "focus ww:Person");
              ignore (expect_ok (attr_line "over_the_wire"));
              let body =
                strip_body (expect_ok "@query attr \"over*\"")
              in
              Alcotest.(check (list string))
                "the query answers over the same connection"
                [ "Person.over_the_wire" ] body;
              (* explain needs no session and no variant *)
              Alcotest.(check bool) "explain prints a plan" true
                (List.exists
                   (fun l -> Str_contains.contains l "plan:")
                   (strip_body (expect_ok "@query explain isa Person")));
              ignore (roundtrip "@quit");
              Server.Client.close client;
              Server.stop server;
              Thread.join runner))
        [ `Unix; `Tcp ])

(* --- lock-free serving, observed ------------------------------------------- *)

let query_counters () =
  let _, io = mem_repo () in
  let obs = Obs.create () in
  let t = service ~config:(quick_config ()) ~obs io in
  let counter name =
    match Obs.counter_value obs name with
    | Some n -> n
    | None -> Alcotest.failf "counter %s never registered" name
  in
  let c = Service.connect t in
  (* a cold variant: nothing is published yet, so the very first query
     falls back through the writer path once to load it — and the retry
     already serves lock-free *)
  let cold = req_ok t c "@query all name \"*\"" in
  Alcotest.(check bool) "cold all-scope names the variant" true
    (List.mem "= v" cold);
  Alcotest.(check int) "exactly one fallback for the cold load" 1
    (counter "swsd.query.fallback_total");
  let lockfree_after_cold = counter "swsd.query.lockfree_total" in
  Alcotest.(check bool) "the cold query still finished lock-free" true
    (lockfree_after_cold >= 1);
  (* warm queries never fall back again *)
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c (attr_line "warmed"));
  for _ = 1 to 5 do
    ignore (req_ok t c "@query attr \"warmed\"")
  done;
  Alcotest.(check int) "no further fallback once published" 1
    (counter "swsd.query.fallback_total");
  Alcotest.(check bool) "every warm query is lock-free" true
    (counter "swsd.query.lockfree_total" >= lockfree_after_cold + 5);
  Alcotest.(check bool) "requests are counted" true
    (counter "swsd.query.requests_total" >= 6)

(* --- the all-scope block shape --------------------------------------------- *)

let all_scope_blocks () =
  let _, io = mem_repo () in
  let t = service ~config:(quick_config ()) io in
  let c = Service.connect t in
  let seed variant attr =
    ignore (req_ok t c ("@new " ^ variant));
    ignore (req_ok t c "focus ww:Person");
    ignore (req_ok t c (attr_line attr));
    ignore (req_ok t c "@close")
  in
  (* created out of order: blocks must come back sorted by variant *)
  seed "beta" "badge_beta";
  seed "alpha" "badge_alpha";
  let body = req_ok t c "@query all attr \"badge*\"" in
  let headers =
    List.filter
      (fun l -> String.length l >= 2 && String.sub l 0 2 = "= ")
      body
  in
  Alcotest.(check (list string)) "blocks sorted by variant header"
    [ "= alpha"; "= beta"; "= v" ] headers;
  List.iter
    (fun l ->
      if not (List.mem l headers) && String.length l > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "body line indented: %S" l)
          true
          (String.length l >= 2 && String.sub l 0 2 = "  "))
    body;
  (* each attribute sits inside its own variant's block: alpha's line
     before the beta header, beta's line after it *)
  let idx what =
    let rec go i = function
      | [] -> Alcotest.failf "missing line %S" what
      | l :: _ when l = what -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 body
  in
  Alcotest.(check bool) "alpha's attribute is in alpha's block" true
    (idx "  Person.badge_alpha" < idx "= beta");
  Alcotest.(check bool) "beta's attribute is in beta's block" true
    (idx "= beta" < idx "  Person.badge_beta"
    && idx "  Person.badge_beta" < idx "= v");
  (* deterministic: ask again, same bytes *)
  Alcotest.(check (list string)) "the answer is reproducible" body
    (req_ok t c "@query all attr \"badge*\"");
  (* a per-variant evaluation error is a commented line inside the block,
     not a poisoned response *)
  let diff = req_ok t c "@query all diff 0 9999" in
  Alcotest.(check bool) "per-variant errors stay inside their block" true
    (List.exists
       (fun l -> Str_contains.contains l "# " && Str_contains.contains l "ahead")
       diff)

(* --- shard-merged answers match one process -------------------------------- *)

(* Two real worker processes behind a real router, variants pinned to
   different shards; then the same repository directory served by ONE
   in-process service.  The [@query all] answers must be byte-identical:
   the router's merge-by-header must reproduce exactly what a single
   process emits. *)
let shard_merge_matches_single_process () =
  with_watchdog ~secs:120.0 ~name:"query shard merge" (fun () ->
      let cl = Test_router.start_cluster `Unix in
      Fun.protect
        ~finally:(fun () -> Test_router.rm_rf cl.Test_router.dir)
        (fun () ->
          let merged =
            Fun.protect
              ~finally:(fun () -> Test_router.stop_cluster cl)
              (fun () ->
            let va = Test_router.pick_variant ~shards:2 0
            and vb = Test_router.pick_variant ~shards:2 1 in
            let ca = Test_router.connect cl and cb = Test_router.connect cl in
            ignore (Test_router.expect_ok ca ("@new " ^ va));
            ignore (Test_router.expect_ok cb ("@new " ^ vb));
            ignore (Test_router.expect_ok ca "focus ww:Person");
            ignore (Test_router.expect_ok cb "focus ww:Person");
            ignore (Test_router.expect_ok ca (attr_line ("only_" ^ va)));
            ignore (Test_router.expect_ok cb (attr_line ("only_" ^ vb)));
            (* a malformed query through the router is the same structured
               refusal a worker gives *)
            let bad = Test_router.roundtrip ca "@query what" in
            (match err_line bad with
            | Some _ -> ()
            | None ->
                Alcotest.failf "router should relay !err, got: %s"
                  (String.concat " | " bad));
            Alcotest.(check bool) "usage relayed through the router" true
              (List.exists
                 (fun l -> Str_contains.contains l "usage: @query")
                 (strip_body bad));
            (* a variant-scoped query follows the attached session to its
               owning shard *)
            let scoped =
              strip_body (Test_router.expect_ok ca "@query attr \"only_*\"")
            in
            Alcotest.(check (list string)) "scoped query reaches va's shard"
              [ Printf.sprintf "Person.only_%s" va ]
              scoped;
            (* an unattached connection is told how to proceed *)
            let cc = Test_router.connect cl in
            let refusal = Test_router.roundtrip cc "@query attr \"only_*\"" in
            Alcotest.(check bool) "unattached scoped query names @open" true
              (match err_line refusal with
              | Some l -> Str_contains.contains l "@open"
              | None -> false);
            (* the merged fan-out, collected while both shards serve *)
            strip_body (Test_router.expect_ok ca "@query all attr \"only_*\""))
          in
          (* the workers are gone; one process over the same directory *)
          let t =
            match
              Service.open_service ~config:(quick_config ())
                cl.Test_router.dir
            with
            | Result.Ok t -> t
            | Result.Error m -> Alcotest.fail m
          in
          let c = Service.connect t in
          let single = req_ok t c "@query all attr \"only_*\"" in
          Alcotest.(check (list string))
            "shard-merged and single-process answers are byte-identical"
            single merged;
          Alcotest.(check (list (pair string string))) "clean shutdown" []
            (Service.shutdown t)))

(* --- follower answers at bounded staleness --------------------------------- *)

let follower_query_bounded_staleness () =
  let _, lio = mem_repo () in
  let lsvc = service ~config:(quick_config ()) lio in
  let hub = Replication.hub lsvc in
  let c = Service.connect lsvc in
  ignore (req_ok lsvc c "@open v");
  ignore (req_ok lsvc c "focus ww:Person");
  let snap_stamp =
    match Test_replication.req_v lsvc c (attr_line "replicated_attr") with
    | Some v -> v
    | None -> Alcotest.fail "an acked write must carry a stamp"
  in
  (* bootstrap a follower at this stamp, then let the leader move on —
     those later writes never reach the follower *)
  let frames = Test_replication.bootstrap_frames hub in
  let leader_stamp =
    match Test_replication.req_v lsvc c (attr_line "leader_only") with
    | Some v -> v
    | None -> Alcotest.fail "an acked write must carry a stamp"
  in
  Alcotest.(check bool) "the leader really moved past the snapshot" true
    (leader_stamp > snap_stamp);
  match Test_replication.open_follower frames with
  | None -> Alcotest.fail "bootstrap stream must carry the root"
  | Some (fsvc, _) -> (
      let apply = Replication.Apply.create fsvc in
      List.iter
        (Replication.Apply.frame apply ~ack:(fun ~variant:_ ~stamp:_ -> ()))
        frames;
      (* variant-scoped: attach readonly, query, check the stamp *)
      let fc = Service.connect fsvc in
      (match (Service.request fsvc fc "@open v readonly").Protocol.status with
      | Protocol.Ok -> ()
      | _ -> Alcotest.fail "readonly attach must succeed on a follower");
      let r = Service.request fsvc fc "@query attr \"replicated*\"" in
      (match r.Protocol.status with
      | Protocol.Ok ->
          Alcotest.(check (list string)) "the replicated attribute is visible"
            [ "Person.replicated_attr" ] r.Protocol.body
      | _ ->
          Alcotest.failf "follower query refused: %s" (Protocol.to_string r));
      (match r.Protocol.version with
      | Some v ->
          Alcotest.(check int) "the answer is stamped where the stream left it"
            snap_stamp v;
          Alcotest.(check bool)
            "a follower never answers past the leader's #version" true
            (v <= leader_stamp)
      | None -> Alcotest.fail "a follower query answer must carry its stamp");
      (* the leader-only attribute is invisible at that stamp *)
      Alcotest.(check (list string)) "bounded staleness, not time travel" []
        (req_ok fsvc fc "@query attr \"leader_only\"");
      (* all-scope needs no session, even on a follower *)
      let all = req_ok fsvc fc "@query all attr \"replicated*\"" in
      Alcotest.(check (list string)) "all-scope serves replicated blocks"
        [ "= v"; "  Person.replicated_attr" ] all;
      (* malformed queries are the same structured refusal as on the
         leader — req_err fails the test unless the status is !err *)
      ignore (req_err fsvc fc "@query sideways");
      (* and name queries keep serving on the attached session *)
      Alcotest.(check bool) "follower name scan serves the schema" true
        (List.mem "Person" (req_ok fsvc fc "@query name \"*\"")))

(* --- the view is published with the write ------------------------------------

   Each publication carries its view, whether or not a query reads it.
   The [diff] history must not notice: each op keeps its own stamp, byte
   for byte as when a query followed every write, and across an eviction
   too. *)

let gap_writes =
  [ attr_line "gap_1"; attr_line "gap_2"; "undo"; attr_line "gap_3";
    attr_line "gap_4"; attr_line "gap_5" ]

let stamp_of t c line =
  match (Service.request t c line).Protocol.version with
  | Some v -> v
  | None -> Alcotest.failf "%s must carry a stamp" line

(* open v, focus, then the writes, with a query after each one when
   [eager]; the wire lines of [@query diff 0] *)
let diff_after_writes ~eager =
  let _, io = mem_repo () in
  let t = service ~config:(quick_config ()) io in
  let c = Service.connect t in
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "focus ww:Person");
  List.iter
    (fun line ->
      ignore (req_ok t c line);
      if eager then ignore (req_ok t c "@query name Person"))
    gap_writes;
  let lines = Protocol.to_lines (Service.request t c "@query diff 0") in
  ignore (Service.shutdown t);
  lines

let lazy_diff_matches_eager () =
  let lazy_ = diff_after_writes ~eager:false in
  Alcotest.(check (list string)) "byte-identical to a query after every write"
    (diff_after_writes ~eager:true) lazy_;
  (* each acknowledged write is its own publication in the history *)
  let stamps =
    strip_body lazy_
    |> List.filter_map (fun l ->
           int_of_string_opt (List.hd (String.split_on_char ' ' l)))
  in
  Alcotest.(check int) "one stamp per write" (List.length gap_writes)
    (List.length (List.sort_uniq compare stamps))

(* The idle reaper evicts the variant; reopened, it answers [diff] with
   the same lines, stamps included — the publication table keeps the last
   view's trail across the eviction. *)
let diff_survives_eviction () =
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
  List.iter (fun line -> ignore (req_ok t c line)) gap_writes;
  let before = req_ok t c "@query diff 0" in
  Alcotest.(check int) "the history lists every write, below its note"
    (List.length gap_writes + 1) (List.length before);
  clock := !clock +. 301.0;
  Alcotest.(check int) "reaped" 1 (Service.reap_idle t);
  let c' = Service.connect t in
  ignore (req_ok t c' "@open v");
  Alcotest.(check (list string)) "the same diff after the reload" before
    (req_ok t c' "@query diff 0");
  ignore (Service.shutdown t)

(* A follower publishes each applied record's view the same way: after k
   records and no follower query, its diff is the leader's, byte for
   byte. *)
let follower_diff_matches_leader () =
  let _, lio = mem_repo () in
  let lsvc = service ~config:(quick_config ()) lio in
  let hub = Replication.hub lsvc in
  let c = Service.connect lsvc in
  ignore (req_ok lsvc c "@open v");
  let base = stamp_of lsvc c "focus ww:Person" in
  let frames = Test_replication.bootstrap_frames hub in
  match Test_replication.open_follower frames with
  | None -> Alcotest.fail "bootstrap stream must carry the root"
  | Some (fsvc, _) ->
      let apply = Replication.Apply.create fsvc in
      let feed =
        Replication.Apply.frame apply ~ack:(fun ~variant:_ ~stamp:_ -> ())
      in
      List.iter feed frames;
      let fc = Service.connect fsvc in
      Alcotest.(check int) "the follower starts at the leader's stamp" base
        (stamp_of fsvc fc "@open v readonly");
      (* the leader acks each write; the follower applies its record *)
      let encode line =
        let prefix = "apply " in
        if line = "undo" then Repository.Journal.(encode Undo)
        else
          let op =
            String.sub line (String.length prefix)
              (String.length line - String.length prefix)
          in
          Repository.Journal.(
            encode (Op (Core.Concept.Wagon_wheel, Core.Op_parser.parse op)))
      in
      List.iter
        (fun line ->
          let stamp = stamp_of lsvc c line in
          feed (Frame.Records { variant = "v"; stamp; data = encode line }))
        gap_writes;
      let diff = Printf.sprintf "@query diff %d" base in
      let leader = Protocol.to_lines (Service.request lsvc c diff) in
      Alcotest.(check int) "the leader lists every write"
        (List.length gap_writes)
        (List.length (strip_body leader));
      Alcotest.(check (list string)) "follower diff = leader diff" leader
        (Protocol.to_lines (Service.request fsvc fc diff))

let tests =
  [
    test "sockets: malformed @query is a structured !err on Unix and TCP"
      malformed_query_over_sockets;
    test "counters: queries serve lock-free; one fallback per cold variant"
      query_counters;
    test "all-scope: sorted self-delimiting blocks, reproducible bytes"
      all_scope_blocks;
    test "router: shard-merged answers are byte-identical with one process"
      shard_merge_matches_single_process;
    test "follower: @query answers at a stamp bounded by the leader's"
      follower_query_bounded_staleness;
    test "lazy view: diff after unqueried writes = a query after each"
      lazy_diff_matches_eager;
    test "eviction: diff after a reap and reopen = diff before it"
      diff_survives_eviction;
    test "lazy view: follower diff after unqueried records = the leader's"
      follower_diff_matches_leader;
  ]
