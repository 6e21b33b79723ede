(* P18: op-log rebase cost vs branch-log length.

   The claim under test: merging a branch is priced by what the branch
   did, not by what the repository holds — {!Core.Oplog.rebase} replays
   only the ops past the fork point, each through the permission matrix
   and the incremental checker, so its cost should track a plain
   sequential apply of the same ops (the floor: what a designer would pay
   re-typing their branch onto the moved-ahead base by hand).  The
   classification bookkeeping — recorded-impact comparison, verdicts, the
   report — must stay a constant factor, not a second algorithm.

   Setup: a synthetic schema; the base moves ahead by a handful of type
   definitions after the fork; the branch applies n in {10, 100, 1000}
   attribute ops.  For each n: time the rebase, time the bare sequential
   apply of the same entries on the same base, and time a full
   server-side [@merge --dry-run] round trip (mem-fs service) — the
   latency a designer pays to ask "what would this merge do?".

   The run FAILS (exit 1) if the rebases in aggregate exceed 2x their
   sequential applies: at that point the classification machinery has
   stopped being bookkeeping and started being an algorithm of its own.
   (The gate is aggregate across the lengths, not per length: a rebase
   pays one O(schema) constant for the report's shrink-wrap mapping,
   which dwarfs a 10-op replay but vanishes by 1000 — per-n ratios are
   still reported for the curve.) *)

module Session = Core.Session
module Oplog = Core.Oplog
open Util

let n_types () = sized 200 20
let reps () = sized 5 1
let lens () = smallest [ 10; 100; 1000 ]

let branch_op types k =
  Printf.sprintf "add_attribute(T%d, string, 8, m_%d)" ((k * 7919) mod types) k

(* A mem-fs service holding variant [v] plus a branch [w] that applied
   [n] ops since the fork; returns the mean [@merge --dry-run] latency. *)
let dry_run_us ~schema_text ~types ~n ~reps =
  let t = mem_service ~schema:(Odl.Parser.parse_schema schema_text) [ "v" ] in
  let c = Service.connect t in
  List.iter (must t c) [ "@open v"; "focus ww:T0"; "@close"; "@branch v w"; "@open w"; "focus ww:T0" ];
  for k = 1 to n do
    must t c ("apply " ^ branch_op types k)
  done;
  List.iter (must t c)
    [ "@close"; "@open v"; "focus ww:T0"; "apply add_type_definition(Basemovedahead)"; "@close" ];
  let us = time_one ~reps (fun () -> must t c "@merge w into v --dry-run") in
  ignore (Service.shutdown t);
  us

type row = {
  n : int;
  rebase_us : float;
  sequential_us : float;
  dry_us : float;
}

let ratio r =
  if r.sequential_us > 0.0 then r.rebase_us /. r.sequential_us else 0.0

let run ~json_path () =
  let types = n_types () and reps = reps () in
  Printf.printf "P18: op-log rebase vs branch-log length, %d interfaces\n"
    types;
  let schema = Schemas.Synth.(generate (default_params ~n_types:types)) in
  let schema_text = Odl.Printer.schema_to_string schema in
  let root = session_of schema in
  (* the base moves ahead after the fork: fresh type definitions the
     generated branch ops can never touch *)
  let base =
    List.fold_left
      (fun s k -> apply s (Printf.sprintf "add_type_definition(Basemoved%d)" k))
      root [ 1; 2; 3; 4; 5 ]
  in
  Printf.printf "  %-6s %14s %14s %8s %14s\n" "n" "rebase (us)" "seq (us)"
    "ratio" "dry run (us)";
  let rows =
    List.map
      (fun n ->
        let branch =
          List.init n (fun k -> branch_op types (k + 1))
          |> List.fold_left apply root
        in
        let branch_ops = Oplog.branch_entries ~base ~branch in
        if List.length branch_ops <> n then
          failwith (Printf.sprintf "expected %d branch ops" n);
        let rebase_us =
          time_one ~reps (fun () ->
              let report = Oplog.rebase ~base ~branch_ops in
              if report.Oplog.r_conflict > 0 then
                failwith "bench histories must be conflict-free";
              report)
        in
        let sequential_us =
          time_one ~reps (fun () ->
              List.fold_left
                (fun s (e : Oplog.entry) ->
                  match Session.apply s ~kind:e.Oplog.e_kind e.e_op with
                  | Ok (s', _) -> s'
                  | Error e ->
                      failwith (Core.Apply.error_to_string e))
                base branch_ops)
        in
        let dry_us = dry_run_us ~schema_text ~types ~n ~reps in
        let row = { n; rebase_us; sequential_us; dry_us } in
        Printf.printf "  %-6d %14.1f %14.1f %7.2fx %14.1f\n%!" n rebase_us
          sequential_us (ratio row) dry_us;
        row)
      (lens ())
  in
  let total which = List.fold_left (fun s r -> s +. which r) 0.0 rows in
  let rebase_total = total (fun r -> r.rebase_us)
  and sequential_total = total (fun r -> r.sequential_us) in
  let aggregate =
    if sequential_total > 0.0 then rebase_total /. sequential_total else 0.0
  in
  let bookkeeping =
    gate (aggregate <= 2.0)
      "rebase is %.2fx its sequential apply — classification has stopped \
       being bookkeeping"
      aggregate
  in
  Printf.printf "\n  aggregate rebase/sequential ratio: %.2fx (ceiling 2x)\n"
    aggregate;
  write_json json_path
    [
      ("benchmark", Str "P18 op-log rebase vs branch-log length");
      ( "setup",
        Str
          "synthetic schema; base moved ahead by 5 type definitions; branch \
           applies n attribute ops; rebase vs bare sequential apply of the \
           same entries, plus a server-side @merge --dry-run round trip \
           over the in-memory fs" );
      ("n_types", Int types);
      ("reps", Int reps);
      ( "ratio_gate",
        Obj
          [ ("aggregate_ratio", num 3 aggregate); ("ceiling", num 1 2.0);
            ("passed", Bool bookkeeping.passed) ] );
      ( "results",
        Arr
          (List.map
             (fun r ->
               Obj
                 [ ("branch_ops", Int r.n); ("rebase_us", num 2 r.rebase_us);
                   ("sequential_us", num 2 r.sequential_us); ("ratio", num 3 (ratio r));
                   ("dry_run_us", num 2 r.dry_us) ])
             rows) );
    ];
  report [ bookkeeping ]
