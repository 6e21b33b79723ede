(** Performance characterization (experiments P1-P5 of EXPERIMENTS.md).

    The paper reports no performance numbers — its evaluation is
    qualitative — so these benches characterize our implementation of its
    algorithms across synthetic shrink wrap schemas of growing size:

    - P1 decompose: full concept-schema decomposition
    - P2 apply: a representative operation applied under full constraint
      checking and propagation
    - P3 check: the complete consistency check
    - P4 parse: ODL text -> schema
    - P5 custom: custom schema generation + mapping derivation
    - P6 diff: operation-log inference between two schemas
    - P7 affinity: semantic affinity between two schemas
    - P8 index: incremental (dirty-set) consistency re-check vs a full
      naive check, and the indexed vs naive apply engine; and (ungated)
      the shrink wrap's cold path by stage: parse, index build, the cold
      consistency walk, print, and [Session.create]; and [Session.apply]
      of one op per family
    - P9 migrate: instance migration through a customization
    - P10 journal: appending one durable record to an n-record operation
      journal vs rewriting the whole log (the persistence cost per accepted
      operation before and after incremental persistence), a cold
      [Store.load_session] across history length, opened from the
      checkpoint vs by a full replay, the same open through
      [Repo.open_variant] on the repository's base, and the
      [Store.save_checkpoint] snapshot across history length; and
      (ungated) the open and the snapshot by interfaces differing from the
      shrink wrap at two schema sizes, and the [log] reply, cold and after
      one more op, across history length
*)

open Bechamel
open Toolkit
open Util

let sizes () = smallest [ 10; 25; 50; 100 ]

let schema_of n = Schemas.Synth.generate (Schemas.Synth.default_params ~n_types:n)

let staged_for n =
  let schema = schema_of n in
  let text = Odl.Printer.schema_to_string schema in
  let session = Result.get_ok (Core.Session.create schema) in
  let op =
    Core.Modop.Add_attribute ("T0", Odl.Types.D_string, Some 12, "bench_attr")
  in
  [
    Test.make
      ~name:(Printf.sprintf "decompose/%d" n)
      (Staged.stage (fun () -> ignore (Core.Decompose.decompose schema)));
    Test.make
      ~name:(Printf.sprintf "apply/%d" n)
      (Staged.stage (fun () ->
           ignore
             (Core.Apply.apply ~original:schema ~kind:Core.Concept.Wagon_wheel
                schema op)));
    Test.make
      ~name:(Printf.sprintf "check/%d" n)
      (Staged.stage (fun () -> ignore (Odl.Validate.check schema)));
    Test.make
      ~name:(Printf.sprintf "parse/%d" n)
      (Staged.stage (fun () -> ignore (Odl.Parser.parse_schema text)));
    Test.make
      ~name:(Printf.sprintf "custom/%d" n)
      (Staged.stage (fun () ->
           ignore (Core.Session.custom_schema session);
           ignore (Core.Session.mapping session)));
    (let other =
       Schemas.Synth.generate
         { (Schemas.Synth.default_params ~n_types:n) with seed = 7 }
     in
     Test.make
       ~name:(Printf.sprintf "diff/%d" n)
       (Staged.stage (fun () ->
            ignore (Core.Diff.infer ~original:schema ~target:other))));
    (let other =
       Schemas.Synth.generate
         { (Schemas.Synth.default_params ~n_types:n) with seed = 7 }
     in
     Test.make
       ~name:(Printf.sprintf "affinity/%d" n)
       (Staged.stage (fun () ->
            ignore (Core.Affinity.semantic_affinity schema other))));
  ]

(* Ablations: the cost of the guarantees, measured by running the machinery
   with a guarantee-providing stage removed. *)
let ablations_for n =
  let schema = schema_of n in
  let op =
    Core.Modop.Add_attribute ("T0", Odl.Types.D_string, Some 12, "bench_attr")
  in
  [
    (* A1: apply without post-validation and propagation — the marginal cost
       of the validity-preservation guarantee is apply/N minus this *)
    Test.make
      ~name:(Printf.sprintf "ablate-primary-only/%d" n)
      (Staged.stage (fun () -> ignore (Core.Apply.primary ~original:schema schema op)));
    (* A2: the propagation fixpoint on an already-closed schema — the
       steady-state overhead of cascade repair *)
    Test.make
      ~name:(Printf.sprintf "ablate-repair-noop/%d" n)
      (Staged.stage (fun () -> ignore (Core.Propagate.repair schema)));
    (* A3: wagon wheels only vs the full decomposition *)
    Test.make
      ~name:(Printf.sprintf "ablate-wheels-only/%d" n)
      (Staged.stage (fun () -> ignore (Core.Decompose.wagon_wheels schema)));
  ]

(* P8: the schema index — one interface of a warm-indexed schema is
   modified, then consistency is re-established.  check-full pays a naive
   whole-schema check; check-incremental pays the index update plus the
   full diagnostics list, re-checking the dirty set and walking the rest
   from the memo; errors-incremental pays the same update plus what
   [Apply] asks after every op, [errors], which on a valid schema
   re-checks only the dirty set.  apply vs apply-indexed measures the
   same contrast through the full operation engine (constraint check +
   propagation).  current-concepts vs find-concept is the designer's
   per-op lookup of the focused concept schema: decompose the whole
   workspace and search it, or build just that concept schema from the
   index. *)
let index_checks_for n =
  let schema = schema_of n in
  let probe i =
    {
      i with
      Odl.Types.i_attrs =
        { Odl.Types.attr_name = "bench_ix"; attr_type = D_int; attr_size = None }
        :: i.Odl.Types.i_attrs;
    }
  in
  let updated = Odl.Schema.update_interface schema "T0" probe in
  let warm = Core.Schema_index.build schema in
  ignore (Core.Schema_index.diagnostics warm);
  let session = Result.get_ok (Core.Session.create schema) in
  let op =
    Core.Modop.Add_attribute ("T0", Odl.Types.D_string, Some 12, "bench_attr")
  in
  [
    Test.make
      ~name:(Printf.sprintf "check-full/%d" n)
      (Staged.stage (fun () -> ignore (Odl.Validate.check updated)));
    Test.make
      ~name:(Printf.sprintf "check-incremental/%d" n)
      (Staged.stage (fun () ->
           let idx = Core.Schema_index.update_interface warm "T0" probe in
           ignore (Core.Schema_index.diagnostics idx)));
    Test.make
      ~name:(Printf.sprintf "errors-incremental/%d" n)
      (Staged.stage (fun () ->
           let idx = Core.Schema_index.update_interface warm "T0" probe in
           ignore (Core.Schema_index.errors idx)));
    Test.make
      ~name:(Printf.sprintf "apply-indexed/%d" n)
      (Staged.stage (fun () ->
           ignore
             (Core.Apply.Indexed.apply ~original:warm
                ~kind:Core.Concept.Wagon_wheel warm op)));
    Test.make
      ~name:(Printf.sprintf "current-concepts/%d" n)
      (Staged.stage (fun () ->
           ignore
             (Core.Decompose.find (Core.Session.current_concepts session) "ww:T0")));
    Test.make
      ~name:(Printf.sprintf "find-concept/%d" n)
      (Staged.stage (fun () ->
           ignore (Core.Decompose.Indexed.concept warm "ww:T0")));
  ]

(* P9: instance migration — a store of [3n] objects migrated through a
   customization that deletes one type *)
let migration_bench n =
  let schema = schema_of n in
  let store =
    (* one object per type, keyed, plus links along the instance chain *)
    List.fold_left
      (fun st i ->
        match Objects.Store.new_object st i.Odl.Types.i_name with
        | Ok (st, oid) -> (
            match i.Odl.Types.i_attrs with
            | a :: _ when a.attr_type = Odl.Types.D_int -> (
                match Objects.Store.set_attr st oid a.attr_name (Objects.Value.V_int oid) with
                | Ok st -> st
                | Error _ -> st)
            | _ -> st)
        | Error _ -> st)
      (Objects.Store.create schema) schema.s_interfaces
  in
  let custom =
    match
      Core.Apply.apply ~original:schema ~kind:Core.Concept.Wagon_wheel schema
        (Core.Modop.Delete_type_definition "T0")
    with
    | Ok (s, _) -> s
    | Error _ -> schema
  in
  Test.make
    ~name:(Printf.sprintf "migrate/%d" n)
    (Staged.stage (fun () -> ignore (Objects.Migrate.migrate store ~custom)))

let tests () =
  Test.make_grouped ~name:"swsd"
    (List.concat_map staged_for (sizes ())
    @ List.concat_map ablations_for (sizes ())
    @ List.concat_map index_checks_for (sizes ())
    @ List.map migration_bench (sizes ()))

(* Run a bechamel test tree and return (name, ns/run) rows, sorted. *)
let measure_rows tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second (sized 0.25 0.01)) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> est
        | _ -> Float.nan
      in
      (name, ns) :: acc)
    results []
  |> List.sort compare

let print_rows title rows =
  Tables.heading title;
  Printf.printf "%-32s %16s %14s\n" "benchmark" "ns/run" "us/run";
  List.iter
    (fun (name, ns) ->
      Printf.printf "%-32s %16.0f %14.2f\n" name ns (ns /. 1_000.))
    rows

(* "index/check-full/100" -> "check-full/100" *)
let strip_group name =
  match String.index_opt name '/' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let run_and_print () =
  print_rows "Performance characterization (ns/run, OLS on monotonic clock)"
    (measure_rows (tests ()))

(* P10: the durable journal on the real filesystem — appending one fsync'd
   record to a log already holding [n] records vs atomically rewriting all
   [n].  Append should stay flat as [n] grows; the rewrite pays O(n). *)
let journal_sizes () = smallest [ 10; 100; 1000 ]

let journal_benches_for ~dir n =
  let io = Repository.Io.unix in
  let op =
    Core.Modop.Add_attribute ("T0", Odl.Types.D_string, Some 12, "bench_attr")
  in
  let entries =
    List.init n (fun _ -> Repository.Journal.Op (Core.Concept.Wagon_wheel, op))
  in
  let log_path = Filename.concat dir (Printf.sprintf "log%d.ops" n) in
  Repository.Journal.rewrite io log_path entries;
  [
    Test.make
      ~name:(Printf.sprintf "append/%d" n)
      (Staged.stage (fun () ->
           Repository.Journal.append_raw io log_path
             (Repository.Journal.encode
                (Repository.Journal.Op (Core.Concept.Wagon_wheel, op)))));
    Test.make
      ~name:(Printf.sprintf "rewrite/%d" n)
      (Staged.stage (fun () -> Repository.Journal.rewrite io log_path entries));
  ]

(* P8, cold: what a repository pays for its shrink wrap before any
   variant opens, stage by stage, on Synth schemas to n = 6400.  parse is
   [Odl.Parser.parse_schema] of the printed text; build is
   [Schema_index.build]; walk is the first [Schema_index.errors] of a
   fresh index (the whole consistency walk, every interface checked);
   print is [Odl.Printer.schema_to_string]; create is [Session.create]
   (build + walk).  Medians of [cold_runs] after a settled heap and one
   untimed run; not gated. *)
let cold_sizes () = smallest [ 400; 1600; 3200; 6400 ]
let cold_runs () = sized 5 1

let cold_rows n =
  let schema = schema_of n and cold_runs = cold_runs () in
  let text = Odl.Printer.schema_to_string schema in
  [
    ("parse", median_ms cold_runs (fun () -> ignore (Odl.Parser.parse_schema text)));
    ("build", median_ms cold_runs (fun () -> ignore (Core.Schema_index.build schema)));
    (* each run walks a fresh index: the walk fills the index's memo *)
    ( "walk",
      median_ms_of cold_runs
        ~setup:(fun () -> Core.Schema_index.build schema)
        (fun idx -> ignore (Core.Schema_index.errors idx)) );
    ("print", median_ms cold_runs (fun () -> ignore (Odl.Printer.schema_to_string schema)));
    ("create", median_ms cold_runs (fun () -> ignore (Core.Session.create schema)));
  ]
  |> List.map (fun (stage, ms) -> (Printf.sprintf "%s/%d" stage n, ms))

(* P8, by op family (ungated): [Session.apply] of one accepted op of each
   family on a session over a Synth schema, to n = 6400.  Each op names
   the interface in the middle of the declaration order and, where it
   needs a second one, the last: a type definition, a supertype link
   (from the Generalization concept schema; the last to the middle one,
   or to the one before it when that link exists), a key, an attribute, an
   operation, an association, a part-of and an instance-of relationship,
   and a renamed extent (added where the interface has none; from a wagon
   wheel).  The session is the same value for every run, so each run
   applies the op afresh.  The structural families dirty the full closure
   of what they touch; key, attribute, operation and extent ops only the
   local one, and an extent op re-runs only the duplicate-extent part of
   the schema-global checks. *)
let family_sizes () = smallest [ 100; 400; 1600; 6400 ]

let family_ops schema n =
  let mid = Printf.sprintf "T%d" (n / 2) and last = Printf.sprintf "T%d" (n - 1) in
  (* the supertype link goes to [mid], or next to it when [last] has it *)
  let super =
    let declared = (Odl.Schema.get_interface schema last).i_supertypes in
    List.find
      (fun s -> not (List.mem s declared))
      (List.map (fun k -> Printf.sprintf "T%d" k) [ n / 2; (n / 2) - 1 ])
  in
  let rel ar_name ar_inverse =
    {
      Core.Modop.ar_owner = mid;
      ar_target = last;
      ar_card = Some Odl.Types.Set;
      ar_name;
      ar_inverse;
      ar_order_by = [];
    }
  in
  let ww = Core.Concept.Wagon_wheel in
  let extent =
    match (Odl.Schema.get_interface schema mid).i_extent with
    | Some e -> Core.Modop.Modify_extent_name (mid, e, "bench_extent")
    | None -> Core.Modop.Add_extent_name (mid, "bench_extent")
  in
  Core.Modop.
    [
      ("type", ww, Add_type_definition "Bench_type");
      ("supertype", Core.Concept.Generalization, Add_supertype (last, super));
      ("key", ww, Add_key_list (mid, [ Printf.sprintf "a%d_1" (n / 2) ]));
      ("attribute", ww, Add_attribute (mid, Odl.Types.D_string, Some 12, "bench_attr"));
      ("operation", ww, Add_operation (mid, Odl.Types.D_int, "bench_op", [], []));
      ("relationship", ww, Add_relationship (rel "bench_rel" "bench_rel_inv"));
      ("part-of", ww, Add_part_of_relationship (rel "bench_parts" "bench_whole"));
      ( "instance-of",
        ww,
        Add_instance_of_relationship (rel "bench_instances" "bench_generic") );
      ("extent", ww, extent);
    ]

let family_rows_for n =
  let schema = schema_of n in
  let session = Result.get_ok (Core.Session.create schema) in
  List.map
    (fun (family, kind, op) ->
      (* an op that does not apply would time its rejection *)
      (match Core.Session.apply session ~kind op with
      | Ok _ -> ()
      | Error e ->
          failwith
            (Printf.sprintf "P8 %s/%d: %s" family n (Core.Apply.error_to_string e)));
      Test.make
        ~name:(Printf.sprintf "apply-%s/%d" family n)
        (Staged.stage (fun () -> ignore (Core.Session.apply session ~kind op))))
    (family_ops schema n)

(* P8 baseline: incremental vs full checking, recorded as JSON so later
   work can compare against a committed reference.  The run FAILS (exit 1)
   unless find-concept at the largest size is at least [lookup_floor] times
   faster than current-concepts there. *)
let lookup_floor = 20.

let run_index ~json_path () =
  let sizes = sizes () and family_sizes = family_sizes () in
  let rows =
    measure_rows
      (Test.make_grouped ~name:"index" (List.concat_map index_checks_for sizes))
    |> List.map (fun (name, ns) -> (strip_group name, ns))
  in
  print_rows "P8: incremental vs full consistency check (ns/run)" rows;
  let largest = List.fold_left max 0 sizes in
  let ns_of bench = List.assoc (Printf.sprintf "%s/%d" bench largest) rows in
  let speedup = ns_of "current-concepts" /. ns_of "find-concept" in
  let families =
    measure_rows
      (Test.make_grouped ~name:"family" (List.concat_map family_rows_for family_sizes))
    |> List.map (fun (name, ns) -> (strip_group name, ns))
  in
  print_rows "P8: Session.apply by op family (ns/run)" families;
  let cold = List.concat_map cold_rows (cold_sizes ()) in
  Printf.printf "\nP8, cold: the shrink wrap's stages (ms, median of %d)\n" (cold_runs ());
  List.iter (fun (name, ms) -> Printf.printf "%-32s %10.2f\n" name ms) cold;
  let lookup =
    gate (speedup >= lookup_floor)
      "find-concept/%d is only %.1fx faster than current-concepts/%d (floor \
       %.0fx) — the per-op concept lookup is not O(concept)"
      largest speedup largest lookup_floor
  in
  let named unit digits rows =
    Arr (List.map (fun (name, x) -> Obj [ ("name", Str name); (unit, num digits x) ]) rows)
  in
  write_json json_path
    [
      ("benchmark", Str "P8 incremental vs full consistency check");
      ("schema", Str "Schemas.Synth.default_params, sizes below");
      ("sizes", ints sizes);
      ("unit", Str "ns/run");
      ( "lookup_gate",
        Obj
          [ ("size", Int largest); ("speedup", num 1 speedup); ("floor", num 1 lookup_floor);
            ("passed", Bool lookup.passed) ] );
      ("results", named "ns_per_run" 1 rows);
      ( "families",
        Obj
          [
            ( "what",
              Str
                "Session.apply of one accepted op per family (type \
                 definition, supertype, key, attribute, operation, \
                 relationship, part-of, instance-of, extent) on the \
                 interface in the middle of the declaration order; ungated" );
            ("sizes", ints family_sizes);
            ("unit", Str "ns/run");
            ("rows", named "ns_per_run" 1 families);
          ] );
      ( "cold",
        Obj
          [
            ( "what",
              Str
                "the shrink wrap's cold path by stage: parse, \
                 Schema_index.build, the first errors walk of a fresh \
                 index, schema_to_string, Session.create; ungated" );
            ("sizes", ints (cold_sizes ()));
            ("unit", Str (Printf.sprintf "ms (median of %d)" (cold_runs ())));
            ("rows", named "ms" 2 cold);
          ] );
    ];
  report [ lookup ]

(* P10, recovery and snapshot: a variant with [h] ops of history on a
   400-interface schema, plus a [recovery_suffix]-op journal tail appended
   after the last snapshot.  A cold open: [Store.load_session] from the
   checkpoint, [Repo.open_variant] (the same, on the repository's base
   session), and a full replay (the same store with its checkpoint
   removed).  A snapshot, as the service's detach takes it:
   [Store.save_checkpoint] of the session built op by op, and of one just
   opened from the checkpoint, each into a scratch store whose journal
   holds it.  In-memory Io, so the figures are CPU, not disk.  The
   history is add/delete pairs spread over every interface, as in
   perfbench's long-history.  Each figure is a median of [recovery_runs]
   after a full major collection and one untimed run (3, with no warm-up,
   for the full replay), so the 2x growth gates compare settled figures,
   not a cold first run. *)
let recovery_n = 400
let recovery_sizes () = smallest [ 100; 1000; 10000 ]
let recovery_suffix = 10
let recovery_growth_ceiling = 2.0
let recovery_runs () = sized 21 1

let history_op n k =
  let i = k / 2 * 7919 mod n in
  ( Core.Concept.Wagon_wheel,
    Core.Op_parser.parse
      (if k mod 2 = 0 then Printf.sprintf "add_attribute(T%d, string, 8, h%d)" i (k / 2)
       else Printf.sprintf "delete_attribute(T%d, h%d)" i (k / 2)) )

type recovery = {
  history : int;
  checkpoint_ms : float;  (** [Store.load_session], no base *)
  repo_open_ms : float;  (** [Repo.open_variant], on the base *)
  full_replay_ms : float;
  snapshot_ms : float;  (** [Store.save_checkpoint], session built op by op *)
  reopened_snapshot_ms : float;
      (** [Store.save_checkpoint] right after a checkpoint open *)
}

let recovery_row h =
  let module Store = Repository.Store in
  let module Repo = Repository.Repo in
  let schema = schema_of recovery_n in
  let io = Repository.Io.mem_io (Repository.Io.mem_create ()) in
  let repo = Result.get_ok (Repo.init ~io "/r" schema) in
  let session =
    Result.get_ok (Core.Oplog.replay schema (List.init h (history_op recovery_n)))
  in
  Result.get_ok (Repo.save_variant repo "v" session);
  let store = Repo.variant_store repo "v" in
  List.iter
    (fun k ->
      let kind, op = history_op recovery_n k in
      Repository.Journal.(
        append_raw (Store.io store) (Store.log_file store) (encode (Op (kind, op)))))
    (List.init recovery_suffix (fun i -> h + i));
  let opened = function
    | Ok s -> assert (Core.Session.step_count s = h + recovery_suffix)
    | Error e -> failwith e
  in
  let load () =
    opened
      (Result.map_error Store.load_error_to_string
         (Store.load_session ~repair:false store))
  in
  (* each snapshot into its own scratch store, seeded by a full save so
     that its journal holds the session *)
  let scratch name s =
    let st = Store.open_dir ~io name in
    Store.save_session st s;
    st
  in
  let snapshot_ms name s =
    let st = scratch name s in
    median_ms (recovery_runs ()) (fun () -> Store.save_checkpoint st s)
  in
  let snapshot = snapshot_ms "/scratch" session in
  let reopened =
    Result.get_ok (Store.load_session ~repair:false store)
  in
  let reopened_snapshot = snapshot_ms "/scratch-reopened" reopened in
  let checkpointed = median_ms (recovery_runs ()) load in
  let repo_open =
    median_ms (recovery_runs ()) (fun () ->
        opened
          (Result.map_error Repo.open_error_to_string (Repo.open_variant repo "v")))
  in
  io.Repository.Io.remove (Store.checkpoint_file store);
  let full = median_ms ~warm:false (sized 3 1) load in
  {
    history = h;
    checkpoint_ms = checkpointed;
    repo_open_ms = repo_open;
    full_replay_ms = full;
    snapshot_ms = snapshot;
    reopened_snapshot_ms = reopened_snapshot;
  }

(* P10, the changed-interface axis (ungated): the open and the snapshot
   cost what the variant changed, so at a fixed history they grow with the
   interfaces that differ from the shrink wrap, not with the schema.  [k]
   of the [n] interfaces get one attribute each, in a [recovery_n]-op
   history for every row; [Repo.open_variant] and the snapshot
   ([Store.save_checkpoint]) on the base. *)
let differing_counts () = smallest [ 0; 40; 400 ]
let differing_sizes () = smallest [ recovery_n; 3200 ]

type differing = {
  diff_n : int;
  differ : int;
  diff_open_ms : float;
  diff_snapshot_ms : float;
}

let differing_row n k =
  let module Repo = Repository.Repo in
  let schema = schema_of n in
  let io = Repository.Io.mem_io (Repository.Io.mem_create ()) in
  let repo = Result.get_ok (Repo.init ~io "/r" schema) in
  let base = Result.get_ok (Repo.create_variant repo "v") in
  (* [k] attributes on [k] interfaces, then add/delete pairs on one more
     that leave it as the shrink wrap has it *)
  let ops =
    List.init recovery_n (fun j ->
        ( Core.Concept.Wagon_wheel,
          Core.Op_parser.parse
            (if j < k then Printf.sprintf "add_attribute(T%d, string, 8, d%d)" j j
             else if (j - k) mod 2 = 0 then
               Printf.sprintf "add_attribute(T%d, string, 8, e%d)" (k mod n) j
             else
               Printf.sprintf "delete_attribute(T%d, e%d)" (k mod n) (j - 1)) ))
  in
  let session = Result.get_ok (Core.Oplog.replay_on base ops) in
  Result.get_ok (Repo.save_variant repo "v" session);
  let opened () = Result.get_ok (Repo.open_variant repo "v") in
  let diff_open_ms = median_ms (recovery_runs ()) (fun () -> ignore (opened ())) in
  let reopened = opened () in
  let diff_snapshot_ms =
    median_ms (recovery_runs ()) (fun () ->
        Repository.Store.save_checkpoint (Repo.variant_store repo "v") reopened)
  in
  { diff_n = n; differ = k; diff_open_ms; diff_snapshot_ms }

(* P10, the [log] reply (ungated): [Oplog.render_session] at [h] ops of
   history, cold (a lineage nothing rendered yet, as right after an open)
   and after one more op on a session whose log was just rendered. *)
type log_reply = { log_history : int; cold_ms : float; after_op_ms : float }

let log_reply_row h =
  let schema = schema_of recovery_n in
  let session =
    Result.get_ok (Core.Oplog.replay schema (List.init h (history_op recovery_n)))
  in
  let kind, op = history_op recovery_n h in
  let cold_ms =
    median_ms_of (recovery_runs ())
      ~setup:(fun () -> Core.Session.new_lineage session)
      (fun s -> ignore (Core.Oplog.render_session s))
  in
  let after_op_ms =
    median_ms_of (recovery_runs ())
      ~setup:(fun () ->
        let s = Core.Session.new_lineage session in
        ignore (Core.Oplog.render_session s);
        fst (Result.get_ok (Core.Session.apply s ~kind op)))
      (fun s -> ignore (Core.Oplog.render_session s))
  in
  { log_history = h; cold_ms; after_op_ms }

let run_recovery () =
  let rows = List.map recovery_row (recovery_sizes ()) in
  print_endline
    "\nP10: cold open (checkpoint + suffix; Repo.open_variant on the base; \
     full replay) and snapshot (built op by op; right after a checkpoint \
     open), ms";
  List.iter
    (fun r ->
      Printf.printf
        "  %6d ops  checkpoint %8.1f  repo open %8.1f  full replay %8.1f  \
         snapshot %8.1f  after open %8.1f\n"
        r.history r.checkpoint_ms r.repo_open_ms r.full_replay_ms r.snapshot_ms
        r.reopened_snapshot_ms)
    rows;
  let differing =
    List.concat_map
      (fun n -> List.map (differing_row n) (differing_counts ()))
      (differing_sizes ())
  in
  Printf.printf
    "\nP10: Repo.open_variant and the snapshot by interfaces differing \
     from the shrink wrap (%d ops), ms\n"
    recovery_n;
  List.iter
    (fun d ->
      Printf.printf "  n = %4d  %6d differ  open %8.2f  snapshot %8.2f\n"
        d.diff_n d.differ d.diff_open_ms d.diff_snapshot_ms)
    differing;
  let log_replies = List.map log_reply_row (recovery_sizes ()) in
  print_endline "\nP10: the log reply (Oplog.render_session), ms";
  List.iter
    (fun l ->
      Printf.printf "  %6d ops  cold %8.3f  after one more op %8.3f\n"
        l.log_history l.cold_ms l.after_op_ms)
    log_replies;
  (rows, differing, log_replies)

(* P10 baseline: journal append vs whole-log rewrite, recorded as JSON so
   the O(1)-ish append per accepted operation stays an auditable claim;
   plus the recovery and snapshot curves above.  The run FAILS (exit 1) if
   the checkpointed open or the snapshot of the session built op by op
   grows more than [recovery_growth_ceiling] times from the shortest to
   the longest history. *)
let run_journal ~json_path () =
  let dir = tmp_dir () in
  Repository.Io.mkdir_p Repository.Io.unix dir;
  let rows =
    measure_rows
      (Test.make_grouped ~name:"journal"
         (List.concat_map (journal_benches_for ~dir) (journal_sizes ())))
    |> List.map (fun (name, ns) -> (strip_group name, ns))
  in
  rm_rf dir;
  print_rows "P10: journal append vs whole-log rewrite (ns/run)" rows;
  let recovery, differing, log_replies = run_recovery () in
  let shortest = List.fold_left min max_int (recovery_sizes ())
  and longest = List.fold_left max 0 (recovery_sizes ()) in
  (* [field] at the longest history over [field] at the shortest *)
  let bounded what field =
    let at h = field (List.find (fun r -> r.history = h) recovery) in
    let g = at longest /. at shortest in
    ( g,
      gate (g <= recovery_growth_ceiling)
        "%s grew %.2fx from %d to %d ops of history (ceiling %.1fx)" what g
        shortest longest recovery_growth_ceiling )
  in
  let open_gate =
    bounded "the checkpointed open (recovery is not bounded by the journal suffix)"
      (fun r -> r.checkpoint_ms)
  and snapshot_gate =
    bounded "the snapshot (more than its read and digest of the journal grows)"
      (fun r -> r.snapshot_ms)
  in
  let gate_json (g, (v : Util.gate)) =
    Obj
      [ ("growth", num 2 g); ("ceiling", num 1 recovery_growth_ceiling);
        ("passed", Bool v.passed) ]
  in
  write_json json_path
    [
      ("benchmark", Str "P10 journal append vs whole-log rewrite");
      ( "setup",
        Str
          "one fsync'd append to an n-record log vs an atomic rewrite of \
           all n records, real filesystem" );
      ("sizes", ints (journal_sizes ()));
      ("unit", Str "ns/run");
      ( "results",
        Arr
          (List.map
             (fun (name, ns) -> Obj [ ("name", Str name); ("ns_per_run", num 1 ns) ])
             rows) );
      ( "recovery",
        Obj
          [
            ( "setup",
              Str
                (Printf.sprintf
                   "Synth n = %d, history ops + a %d-op journal suffix, \
                    in-memory Io.  Cold open: Store.load_session from the \
                    checkpoint, Repo.open_variant (the same on the \
                    repository's base), full replay; snapshot: \
                    Store.save_checkpoint of the session built op by op, \
                    and of one just opened from the checkpoint, into a \
                    scratch store whose journal holds it; median of %d \
                    after a full major collection and an untimed run (3, \
                    unwarmed, for the full replay)"
                   recovery_n recovery_suffix (recovery_runs ())) );
            ("unit", Str "ms");
            ( "results",
              Arr
                (List.map
                   (fun r ->
                     Obj
                       [ ("history", Int r.history); ("checkpoint_ms", num 1 r.checkpoint_ms);
                         ("repo_open_ms", num 1 r.repo_open_ms);
                         ("full_replay_ms", num 1 r.full_replay_ms);
                         ("snapshot_ms", num 1 r.snapshot_ms);
                         ("reopened_snapshot_ms", num 1 r.reopened_snapshot_ms) ])
                   recovery) );
            ("growth_gate", gate_json open_gate);
            ("snapshot_growth_gate", gate_json snapshot_gate);
          ] );
      ( "differing",
        Obj
          [
            ( "setup",
              Str
                (Printf.sprintf
                   "Synth n, a %d-op history whose workspace differs from \
                    the shrink wrap in k interfaces (one attribute each), \
                    in-memory Io; Repo.open_variant and \
                    Store.save_checkpoint on the repository's base; median \
                    of %d after a full major collection and an untimed \
                    run; ungated"
                   recovery_n (recovery_runs ())) );
            ("unit", Str "ms");
            ( "results",
              Arr
                (List.map
                   (fun d ->
                     Obj
                       [ ("n", Int d.diff_n); ("differing", Int d.differ);
                         ("open_ms", num 2 d.diff_open_ms);
                         ("snapshot_ms", num 2 d.diff_snapshot_ms) ])
                   differing) );
          ] );
      ( "log_reply",
        Obj
          [
            ( "setup",
              Str
                (Printf.sprintf
                   "Synth n = %d, the recovery history; \
                    Oplog.render_session cold (a lineage with nothing \
                    rendered) and after one more op on a session whose log \
                    was just rendered; median of %d after a full major \
                    collection and an untimed run; ungated"
                   recovery_n (recovery_runs ())) );
            ("unit", Str "ms");
            ( "results",
              Arr
                (List.map
                   (fun l ->
                     Obj
                       [ ("history", Int l.log_history); ("cold_ms", num 3 l.cold_ms);
                         ("after_op_ms", num 3 l.after_op_ms) ])
                   log_replies) );
          ] );
    ];
  report [ snd open_gate; snd snapshot_gate ]
