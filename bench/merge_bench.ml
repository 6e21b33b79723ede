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
   still reported for the curve.)

   Knobs: SWSD_MERGE_TYPES (schema size, default 200),
   SWSD_MERGE_REPS (repetitions per timing, default 5). *)

module Io = Repository.Io
module Repo = Repository.Repo
module Service = Server.Service
module Protocol = Server.Protocol
module Session = Core.Session
module Oplog = Core.Oplog
open Util

let n_types () = env_int "SWSD_MERGE_TYPES" 200
let reps () = env_int "SWSD_MERGE_REPS" 5
let lens = [ 10; 100; 1000 ]

let session_of schema =
  match Session.create schema with
  | Ok s -> s
  | Error _ -> failwith "synth schema should be valid"

let apply session text =
  match
    Session.apply session ~kind:Core.Concept.Wagon_wheel
      (Core.Op_parser.parse text)
  with
  | Ok (s, _) -> s
  | Error e -> failwith (text ^ ": " ^ Core.Apply.error_to_string e)

let branch_op types k =
  Printf.sprintf "add_attribute(T%d, string, 8, m_%d)" ((k * 7919) mod types) k

let time_one ~reps f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e6

(* --- the server-side dry run ----------------------------------------------- *)

let config = { Service.default_config with Service.use_file_locks = false }

let must t c line =
  let r = Service.request t c line in
  match r.Protocol.status with
  | Protocol.Ok -> ()
  | _ -> failwith (Printf.sprintf "%s failed: %s" line (Protocol.to_string r))

(* A mem-fs service holding variant [v] plus a branch [w] that applied
   [n] ops since the fork; returns the mean [@merge --dry-run] latency. *)
let dry_run_us ~schema_text ~types ~n ~reps =
  let m = Io.mem_create () in
  let io = Io.locked (Io.mem_io m) in
  (match Repo.init ~io "/repo" (Odl.Parser.parse_schema schema_text) with
  | Ok repo -> (
      match Repo.create_variant repo "v" with
      | Ok _ -> ()
      | Error e -> failwith e)
  | Error e -> failwith e);
  let t =
    match Service.open_service ~config ~io "/repo" with
    | Ok t -> t
    | Error e -> failwith e
  in
  let c = Service.connect t in
  must t c "@open v";
  must t c "focus ww:T0";
  must t c "@close";
  must t c "@branch v w";
  must t c "@open w";
  must t c "focus ww:T0";
  for k = 1 to n do
    must t c ("apply " ^ branch_op types k)
  done;
  must t c "@close";
  must t c "@open v";
  must t c "focus ww:T0";
  must t c "apply add_type_definition(Basemovedahead)";
  must t c "@close";
  let us = time_one ~reps (fun () -> must t c "@merge w into v --dry-run") in
  ignore (Service.shutdown t);
  us

(* --- results ---------------------------------------------------------------- *)

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
  let schema_text = Fmt.str "%a" Odl.Printer.pp_schema schema in
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
      lens
  in
  let total which = List.fold_left (fun s r -> s +. which r) 0.0 rows in
  let rebase_total = total (fun r -> r.rebase_us)
  and sequential_total = total (fun r -> r.sequential_us) in
  let aggregate =
    if sequential_total > 0.0 then rebase_total /. sequential_total else 0.0
  in
  let passed = aggregate <= 2.0 in
  Printf.printf "\n  aggregate rebase/sequential ratio: %.2fx (ceiling 2x)\n"
    aggregate;
  let entry r =
    Printf.sprintf
      "    { \"branch_ops\": %d, \"rebase_us\": %.2f, \"sequential_us\": \
       %.2f, \"ratio\": %.3f, \"dry_run_us\": %.2f }"
      r.n r.rebase_us r.sequential_us (ratio r) r.dry_us
  in
  let json =
    String.concat "\n"
      [
        "{";
        "  \"benchmark\": \"P18 op-log rebase vs branch-log length\",";
        "  \"setup\": \"synthetic schema; base moved ahead by 5 type \
         definitions; branch applies n attribute ops; rebase vs bare \
         sequential apply of the same entries, plus a server-side @merge \
         --dry-run round trip over the in-memory fs\",";
        Printf.sprintf "  \"n_types\": %d," types;
        Printf.sprintf "  \"reps\": %d," reps;
        Printf.sprintf
          "  \"ratio_gate\": { \"aggregate_ratio\": %.3f, \"ceiling\": 2.0, \
           \"passed\": %b },"
          aggregate passed;
        "  \"results\": [";
        String.concat ",\n" (List.map entry rows);
        "  ]";
        "}";
        "";
      ]
  in
  let oc = open_out json_path in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s\n" json_path;
  if not passed then begin
    Printf.printf
      "FAIL: rebase is %.2fx its sequential apply — classification has \
       stopped being bookkeeping\n"
      aggregate;
    exit 1
  end
