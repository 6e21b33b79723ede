(* The observability subsystem: histogram algebra (QCheck properties
   against a naive oracle), counter exactness under an 8-thread hammer,
   the trace ring, the monotonized clock, export sanity, and the retry
   jitter defaults (the thundering-herd satellite). *)

module Metrics = Obs.Metrics
module Histo = Obs.Histo
module Trace = Obs.Trace
module Retry = Server.Retry

let test = Util.test

let prop name ?(count = 200) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* --- histogram properties -------------------------------------------------- *)

(* Latency-like samples spanning the bucket range, plus under/overflow. *)
let sample_gen =
  QCheck2.Gen.(
    oneof
      [
        float_range 1e-7 1e-5;  (* around and below lo *)
        float_range 1e-5 1e-2;  (* the realistic latency band *)
        float_range 1e-2 10.0;
        float_range 100.0 1e4;  (* around and above hi *)
      ])

let samples_gen = QCheck2.Gen.(list_size (int_range 0 60) sample_gen)

let histo_of samples =
  let h = Histo.create "t_seconds" in
  List.iter (Histo.observe h) samples;
  Histo.snapshot h

(* Structural equality, except the running sum: float addition commutes
   exactly but does not associate exactly, so [s_sum] may differ in the
   last ulp between merge orders.  Everything discrete must match bit for
   bit. *)
let snapshot_eq a b =
  a.Histo.s_lo = b.Histo.s_lo
  && a.Histo.s_hi = b.Histo.s_hi
  && a.Histo.s_per_decade = b.Histo.s_per_decade
  && a.Histo.s_count = b.Histo.s_count
  && a.Histo.s_min = b.Histo.s_min
  && a.Histo.s_max = b.Histo.s_max
  && a.Histo.s_buckets = b.Histo.s_buckets
  && Float.abs (a.Histo.s_sum -. b.Histo.s_sum)
     <= 1e-9 *. Float.max 1.0 (Float.abs a.Histo.s_sum)

let merge_is_commutative =
  prop "histo: merge is commutative"
    QCheck2.Gen.(pair samples_gen samples_gen)
    (fun (a, b) ->
      let sa = histo_of a and sb = histo_of b in
      Histo.merge sa sb = Histo.merge sb sa)

let merge_is_associative =
  prop "histo: merge is associative"
    QCheck2.Gen.(triple samples_gen samples_gen samples_gen)
    (fun (a, b, c) ->
      let sa = histo_of a and sb = histo_of b and sc = histo_of c in
      snapshot_eq
        (Histo.merge (Histo.merge sa sb) sc)
        (Histo.merge sa (Histo.merge sb sc)))

let merge_equals_union =
  prop "histo: merge of two snapshots equals the histogram of the union"
    QCheck2.Gen.(pair samples_gen samples_gen)
    (fun (a, b) ->
      snapshot_eq (Histo.merge (histo_of a) (histo_of b)) (histo_of (a @ b)))

(* The quantile estimate must land in the same bucket as the exact oracle:
   sort the samples, take the value at the quantile rank, and compare
   bucket indices.  (Within a bucket the estimate is the geometric
   midpoint, so same-bucket is the strongest guarantee available.) *)
let quantile_within_one_bucket =
  prop "histo: quantile lands in the exact oracle's bucket" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 60) sample_gen)
        (oneofl [ 0.5; 0.9; 0.99 ]))
    (fun (samples, q) ->
      let s = histo_of samples in
      let sorted = List.sort compare samples in
      let n = List.length sorted in
      let rank = max 0 (int_of_float (ceil (q *. float_of_int n)) - 1) in
      let exact = List.nth sorted rank in
      Histo.snapshot_bucket s (Histo.quantile s q)
      = Histo.snapshot_bucket s exact)

let quantile_edges () =
  let h = Histo.create "edges_seconds" in
  Alcotest.(check (float 0.0)) "empty quantile is 0" 0.0
    (Histo.quantile (Histo.snapshot h) 0.5);
  (* all mass in the underflow/overflow buckets answers with exact min/max *)
  List.iter (Histo.observe h) [ 1e-9; 2e-9; 1e5 ];
  let s = Histo.snapshot h in
  Alcotest.(check (float 0.0)) "underflow answers min" 1e-9 (Histo.quantile s 0.5);
  Alcotest.(check (float 0.0)) "overflow answers max" 1e5 (Histo.quantile s 1.0);
  Alcotest.(check int) "count" 3 s.Histo.s_count

(* --- counters under contention --------------------------------------------- *)

(* 8 threads, 10_000 increments each: the aggregate must be exact — sharded
   cells may race benignly on reads, never lose a write. *)
let counter_hammer () =
  let r = Metrics.create () in
  let c = Metrics.counter r "hammer_total" in
  let threads = 8 and per_thread = 10_000 in
  let ts =
    List.init threads (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to per_thread do
              Metrics.incr c
            done)
          ())
  in
  List.iter Thread.join ts;
  Alcotest.(check int) "no lost increments" (threads * per_thread)
    (Metrics.value c);
  Alcotest.(check (list (pair string int)))
    "registry read agrees"
    [ ("hammer_total", threads * per_thread) ]
    (Metrics.counters r)

let disabled_instruments () =
  let r = Metrics.create ~on:false () in
  let c = Metrics.counter r "dead_total" and g = Metrics.gauge r "dead" in
  Metrics.incr c;
  Metrics.add c 5;
  Metrics.set g 42;
  Alcotest.(check int) "disabled counter stays 0" 0 (Metrics.value c);
  Alcotest.(check int) "disabled gauge stays 0" 0 (Metrics.gauge_value g);
  let h = Histo.create ~on:false "dead_seconds" in
  Histo.observe h 1.0;
  Alcotest.(check int) "disabled histo records nothing" 0
    (Histo.snapshot h).Histo.s_count

(* --- trace ring ------------------------------------------------------------ *)

let trace_ring () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    let sp = Trace.start tr ~label:(Printf.sprintf "r%d" i) () in
    Trace.add_phase sp "work" 0.001;
    Trace.finish tr sp ~status:"ok"
  done;
  let recent = Trace.recent tr in
  Alcotest.(check int) "ring keeps capacity" 4 (List.length recent);
  Alcotest.(check (list string))
    "newest first, oldest overwritten" [ "r6"; "r5"; "r4"; "r3" ]
    (List.map (fun t -> t.Trace.tr_label) recent)

(* --- clock ----------------------------------------------------------------- *)

let clock_monotonic () =
  let prev = ref (Obs.Clock.now ()) in
  for _ = 1 to 1000 do
    let t = Obs.Clock.now () in
    if t < !prev then Alcotest.fail "Clock.now went backwards";
    prev := t
  done;
  (* monotonize clamps an injected clock that jumps back *)
  let seq = ref [ 1.0; 2.0; 1.5; 3.0 ] in
  let raw () =
    match !seq with
    | [] -> 4.0
    | t :: rest ->
        seq := rest;
        t
  in
  let mono = Obs.Clock.monotonize raw in
  let reads = List.init 4 (fun _ -> mono ()) in
  Alcotest.(check (list (float 0.0)))
    "backward jump clamped" [ 1.0; 2.0; 2.0; 3.0 ] reads

(* --- export sanity ---------------------------------------------------------- *)

let export_renders () =
  let obs = Obs.create () in
  Metrics.incr (Obs.counter obs "x.requests_total");
  Obs.Metrics.set (Obs.gauge obs "x.open") 3;
  Histo.observe (Obs.histo obs "x.latency_seconds") 0.012;
  let sp = Trace.start (Obs.tracer obs) ~label:"@ping" ~detail:"probe" () in
  Trace.add_phase sp "parse" 0.001;
  Trace.finish (Obs.tracer obs) sp ~status:"ok";
  let sn = Obs.snapshot ~notes:[ ("note.k", "v") ] obs in
  let text = Obs.Export.to_text sn in
  let has hay n = Str_contains.contains hay n in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " in text") true (has text n))
    [ "x.requests_total"; "x.open"; "x.latency_seconds"; "note.k"; "@ping" ];
  let json = Obs.Export.to_json sn in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " in json") true (has json n))
    [
      "\"x.requests_total\": 1";
      "\"x.open\": 3";
      "\"x.latency_seconds\"";
      "\"p99\"";
      "\"note.k\": \"v\"";
      "\"label\": \"@ping\"";
    ];
  (* no NaN/infinity may ever reach a JSON consumer *)
  Alcotest.(check bool) "json has no nan/inf" false
    (has json "nan" || has json "inf")

(* --- retry jitter defaults (thundering-herd satellite) ---------------------- *)

let policy =
  { Retry.max_attempts = 4; base_delay = 0.05; max_delay = 1.0; jitter = 0.5 }

let delays_of ~rand () =
  let delays = ref [] in
  ignore
    (Retry.with_retries ?rand
       ~sleep:(fun _ -> ())
       ~on_retry:(fun ~attempt:_ ~delay -> delays := delay :: !delays)
       policy
       (fun () -> raise (Sys_error "transient")));
  List.rev !delays

let retry_explicit_rand_is_deterministic () =
  let d1 = delays_of ~rand:(Some (Random.State.make [| 7 |])) () in
  let d2 = delays_of ~rand:(Some (Random.State.make [| 7 |])) () in
  Alcotest.(check (list (float 0.0))) "same seed, same jitter" d1 d2;
  Alcotest.(check int) "one delay per retry" (policy.Retry.max_attempts - 1)
    (List.length d1)

(* The default must be self-seeded: two independent calls drawing their
   jitter from a shared fixed seed would back off in lockstep — exactly
   the thundering herd the jitter exists to break.  Three samples of three
   delays each collide with probability ~0 for a self-seeded source. *)
let retry_default_rand_decorrelates () =
  let runs = List.init 3 (fun _ -> delays_of ~rand:None ()) in
  let all_equal =
    match runs with
    | first :: rest -> List.for_all (fun r -> r = first) rest
    | [] -> false
  in
  Alcotest.(check bool) "independent calls draw different jitter" false
    all_equal

let tests =
  [
    merge_is_commutative;
    merge_is_associative;
    merge_equals_union;
    quantile_within_one_bucket;
    test "histo: quantiles at the edges (empty, underflow, overflow)"
      quantile_edges;
    test "metrics: 8-thread hammer loses no increments" counter_hammer;
    test "metrics: disabled instruments record nothing" disabled_instruments;
    test "trace: fixed-size ring keeps the newest traces" trace_ring;
    test "clock: monotonized reads never go backwards" clock_monotonic;
    test "export: text and json render every section" export_renders;
    test "retry: explicit rand makes delays reproducible"
      retry_explicit_rand_is_deterministic;
    test "retry: default rand self-seeds (no thundering herd)"
      retry_default_rand_decorrelates;
  ]
