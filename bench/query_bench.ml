(* P17: query answers on the published view vs from-scratch evaluation.

   The claim under test: publishing each variant's {!Query.View} with its
   state makes [@query] answers cheap.  A view is the published session
   plus the little its schema index cannot answer — the [diff] lines and
   the lineage record; names, attributes, ISA and part-of closures and
   wagon wheels are probes, scans and walks of the session's index, which
   each op keeps up to date.  So a view's whole price is paid once per
   publication ({!Query.View.refresh}: render the publication's ops as
   [diff] lines), a cost that does not grow with the schema.  The naive
   alternative ({!Query.Eval.run_fresh}) indexes the whole workspace anew
   ({!Core.Schema_index.build}) per request — a cost proportional to the
   schema, paid on every query.

   Setup: one synthetic schema (default 1000 interfaces, the paper-scale
   stress point), 200 committed ops each followed by a publication
   ([maintain_us_per_op]: the view cost per publication, which the
   service pays on the publishing thread), then a battery of
   representative queries — point and glob name lookups, attribute search
   with inheritance, ISA and part-of closures, a wagon wheel — evaluated
   both ways over identical state.  ([diff] is absent: history slices
   only exist on a published view — a from-scratch rebuild has no stamps
   to slice, which is its own argument for publishing them.)

   Reported: the per-publication view cost, per-query latency for both
   paths (the published path's JSON keys keep their earlier name,
   [materialized_us]), and the aggregate speedup = naive / published.
   The run FAILS (exit 1) below 5x: at that point the views would not be
   paying for their cost at publication.

   Both paths produce answers over the same session, and the bench
   asserts they are line-identical before timing anything — a speedup
   over wrong answers would be worthless. *)

module View = Query.View
module Eval = Query.Eval
open Util

let n_types () = sized 1000 100
let n_ops () = sized 200 20
let rounds () = sized 20 2

(* the battery: one of each access path, over names the generator emits *)
let battery =
  [
    "name T1";
    "name \"T1*\"";
    "name \"*7\"";
    "attr a1_0";
    "attr \"a1_*\" inherited";
    "attr \"bench_*\"";
    "isa T0";
    "isa T1 up";
    "partof T0";
    "wheel T1";
  ]

let atom q =
  match Query.Parser.parse q with
  | Ok p -> p.Query.Ast.q_atom
  | Error m -> failwith (q ^ ": " ^ m)

let lines_of = function
  | Ok ls -> ls
  | Error m -> [ "error: " ^ m ]

type timing = { query : string; mat_us : float; naive_us : float }

let run ~json_path () =
  let types = n_types () and ops = n_ops () and reps = rounds () in
  Printf.printf "P17: published query views, %d interfaces, %d ops\n" types
    ops;
  let schema = Schemas.Synth.(generate (default_params ~n_types:types)) in
  let session = ref (session_of schema) in
  let view = ref (View.build ~stamp:1 !session) in
  (* one publication per committed op: the op's history line on top of
     the session; this is the price of keeping queries cheap *)
  let maintain_total = ref 0.0 in
  let stamp = ref 1 in
  for k = 1 to ops do
    let target = (k * 7919) mod types in
    session :=
      apply !session
        (Printf.sprintf "add_attribute(T%d, string, 8, bench_%d)" target k);
    incr stamp;
    let t0 = Unix.gettimeofday () in
    view := View.refresh !view ~stamp:!stamp !session;
    maintain_total := !maintain_total +. (Unix.gettimeofday () -. t0)
  done;
  let maintain_us = !maintain_total /. float_of_int ops *. 1e6 in
  Printf.printf "  publish: %.1f us/op over %d ops\n" maintain_us ops;
  (* both paths must answer identically before any timing matters *)
  List.iter
    (fun q ->
      let a = atom q in
      let mat = lines_of (Eval.run !view a)
      and fresh = lines_of (Eval.run_fresh ~stamp:!stamp !session a) in
      if mat <> fresh then
        failwith (Printf.sprintf "%s: published and fresh answers differ" q))
    battery;
  Printf.printf "  %-22s %14s %14s %9s\n" "query" "pub (us)" "naive (us)"
    "speedup";
  let timings =
    List.map
      (fun q ->
        let a = atom q in
        let mat_us = time_one ~reps (fun () -> Eval.run !view a) in
        let naive_us =
          time_one ~reps (fun () -> Eval.run_fresh ~stamp:!stamp !session a)
        in
        Printf.printf "  %-22s %14.1f %14.1f %8.1fx\n%!" q mat_us naive_us
          (if mat_us > 0.0 then naive_us /. mat_us else 0.0);
        { query = q; mat_us; naive_us })
      battery
  in
  let total which = List.fold_left (fun s t -> s +. which t) 0.0 timings in
  let mat_total = total (fun t -> t.mat_us)
  and naive_total = total (fun t -> t.naive_us) in
  let speedup = if mat_total > 0.0 then naive_total /. mat_total else 0.0 in
  let pays =
    gate (speedup >= 5.0)
      "battery speedup %.2fx is below the 5x floor — the views are not \
       paying for their cost at publication"
      speedup
  in
  Printf.printf "\n  battery: %.1f us published, %.1f us naive — %.1fx\n"
    mat_total naive_total speedup;
  write_json json_path
    [
      ("benchmark", Str "P17 published query views");
      ( "setup",
        Str
          "synthetic schema; the view built at each op's publication, then \
           a query battery evaluated on the published view vs a \
           from-scratch index build per request" );
      ("n_types", Int types);
      ("ops", Int ops);
      ("rounds", Int reps);
      ("maintain_us_per_op", num 2 maintain_us);
      ("battery_materialized_us", num 2 mat_total);
      ("battery_naive_us", num 2 naive_total);
      ( "speedup_gate",
        Obj [ ("speedup", num 2 speedup); ("floor", num 1 5.0); ("passed", Bool pays.passed) ] );
      ( "results",
        Arr
          (List.map
             (fun t ->
               Obj
                 [ ("query", Str t.query); ("materialized_us", num 2 t.mat_us);
                   ("naive_us", num 2 t.naive_us) ])
             timings) );
    ];
  report [ pays ]
