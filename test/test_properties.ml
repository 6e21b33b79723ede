(* Property-based tests of the system invariants (DESIGN.md section 4). *)

let count = 200

let prop name ?(count = count) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* 0. the synthetic generator only emits valid schemas *)
let synth_always_valid =
  prop "synthetic schemas are valid"
    QCheck2.Gen.(oneof [ Gen.synth_params; Gen.synth_params_hierarchical ])
    (fun p -> Odl.Validate.errors (Schemas.Synth.generate p) = [])

(* 1. union of all wagon wheels = the original schema *)
let union_reconstructs =
  prop "union of wagon wheels reconstructs" Gen.any_synth_schema (fun s ->
      Core.Recompose.equal_content s (Core.Recompose.reconstruct s))

(* 1b. the union invariant survives customization: after every accepted
   operation the workspace still reconstructs from its wagon wheels *)
let union_reconstructs_under_ops =
  prop "union of wagon wheels reconstructs after ops" Gen.schema_and_ops
    (fun (schema, steps) ->
      let rec go ws = function
        | [] -> true
        | (kind, op) :: rest -> (
            match Core.Apply.apply ~original:schema ~kind ws op with
            | Error _ -> go ws rest
            | Ok (ws', _) ->
                Core.Recompose.equal_content ws' (Core.Recompose.reconstruct ws')
                && go ws' rest)
      in
      go schema steps)

(* 1c. the same invariant on the named seed schemas, before and after an
   accepted operation *)
let union_reconstructs_seeds =
  Alcotest.test_case "union reconstructs on seed schemas" `Quick (fun () ->
      List.iter
        (fun (name, s) ->
          let reconstructs s =
            Core.Recompose.equal_content s (Core.Recompose.reconstruct s)
          in
          Alcotest.(check bool) (name ^ " reconstructs") true (reconstructs s);
          let focus = (List.hd s.Odl.Types.s_interfaces).Odl.Types.i_name in
          let op =
            Core.Modop.Add_attribute (focus, Odl.Types.D_int, None, "union_probe")
          in
          match Core.Apply.apply ~original:s ~kind:Core.Concept.Wagon_wheel s op with
          | Error e -> Alcotest.fail (name ^ ": " ^ Core.Apply.error_to_string e)
          | Ok (s', _) ->
              Alcotest.(check bool)
                (name ^ " reconstructs after op")
                true (reconstructs s'))
        [
          ("university", Schemas.University.v ());
          ("emsl", Schemas.Emsl.v ());
          ("synth-10", Schemas.Synth.generate (Schemas.Synth.default_params ~n_types:10));
          ("synth-25", Schemas.Synth.generate (Schemas.Synth.default_params ~n_types:25));
          ("synth-50", Schemas.Synth.generate (Schemas.Synth.default_params ~n_types:50));
        ])

(* 2. parser . printer = identity *)
let print_parse_roundtrip =
  prop "print/parse round trip" Gen.synth_schema (fun s ->
      Core.Recompose.equal_content s
        (Odl.Parser.parse_schema (Odl.Printer.schema_to_string s)))

(* 3. op parser . op printer = identity, over arbitrary operations *)
let op_roundtrip =
  prop "operation print/parse round trip" ~count:500 Gen.modop (fun op ->
      Core.Modop.equal op (Core.Op_parser.parse (Core.Op_printer.to_string op)))

(* 4 + 6. accepted operations preserve validity, and acceptance implies
   permission *)
let apply_preserves_validity =
  let gen =
    QCheck2.Gen.(
      let* schema = Gen.synth_schema in
      let* ops = list_size (int_range 1 8) (Gen.plausible_op schema) in
      let* kinds =
        list_size (return (List.length ops))
          (oneofl
             Core.Concept.
               [ Wagon_wheel; Generalization; Aggregation; Instance_chain ])
      in
      return (schema, List.combine kinds ops))
  in
  prop "accepted operations preserve validity" ~count:300 gen
    (fun (schema, steps) ->
      let rec go workspace = function
        | [] -> true
        | (kind, op) :: rest -> (
            match Core.Apply.apply ~original:schema ~kind workspace op with
            | Error _ -> go workspace rest
            | Ok (workspace', _) ->
                Result.is_ok (Core.Permission.allowed kind op)
                && Odl.Validate.errors workspace' = []
                && go workspace' rest)
      in
      go schema steps)

(* 5. accepted moves respect semantic stability in the original schema *)
let moves_respect_stability =
  let u = Schemas.University.v () in
  let gen =
    QCheck2.Gen.(
      let* a = oneofl (Odl.Schema.interface_names u) in
      let* b = oneofl (Odl.Schema.interface_names u) in
      let* attr =
        oneofl
          (List.concat_map
             (fun i ->
               List.map
                 (fun x -> (i.Odl.Types.i_name, x.Odl.Types.attr_name))
                 i.Odl.Types.i_attrs)
             u.s_interfaces)
      in
      return (a, b, attr))
  in
  prop "accepted moves stay on the ISA line" gen (fun (_, b, (owner, attr)) ->
      let op = Core.Modop.Modify_attribute (owner, attr, b) in
      match
        Core.Apply.apply ~original:u ~kind:Core.Concept.Generalization u op
      with
      | Error _ -> true
      | Ok _ -> Odl.Schema.same_isa_line u owner b)

(* 7a. the mapping classifies every shrink-wrap construct exactly once *)
let mapping_total =
  let gen =
    QCheck2.Gen.(
      let* schema = Gen.synth_schema in
      let* ops = list_size (int_range 0 6) (Gen.plausible_op schema) in
      return (schema, ops))
  in
  prop "mapping is total over the shrink wrap schema" gen (fun (schema, ops) ->
      match Core.Session.create schema with
      | Error _ -> false
      | Ok session ->
          let session =
            List.fold_left
              (fun s op ->
                List.fold_left
                  (fun s kind ->
                    match Core.Session.apply s ~kind op with
                    | Ok (s', _) -> s'
                    | Error _ -> s)
                  s
                  Core.Concept.
                    [ Wagon_wheel; Generalization; Aggregation; Instance_chain ])
              session ops
          in
          let m = Core.Session.mapping session in
          let a, r, o = Odl.Schema.count_constructs schema in
          List.length m.entries
          = List.length schema.s_interfaces + a + r + o)

(* 7b. replaying a session's log reproduces its workspace *)
let replay_reproduces =
  let gen =
    QCheck2.Gen.(
      let* schema = Gen.synth_schema in
      let* ops = list_size (int_range 0 8) (Gen.plausible_op schema) in
      return (schema, ops))
  in
  prop "replaying the log reproduces the workspace" ~count:100 gen
    (fun (schema, ops) ->
      match Core.Session.create schema with
      | Error _ -> false
      | Ok session ->
          let session =
            List.fold_left
              (fun s op ->
                match Core.Session.apply s ~kind:Core.Concept.Wagon_wheel op with
                | Ok (s', _) -> s'
                | Error _ -> s)
              session ops
          in
          let steps =
            List.map
              (fun (st : Core.Session.step) -> (st.st_kind, (Core.Session.step_op st)))
              (Core.Session.log session)
          in
          (match Core.Oplog.replay schema steps with
          | Ok replayed ->
              Core.Recompose.equal_content
                (Core.Session.workspace session)
                (Core.Session.workspace replayed)
          | Error _ -> false))

(* 8. undo restores the previous workspace exactly *)
let undo_exact =
  let gen =
    QCheck2.Gen.(
      let* schema = Gen.synth_schema in
      let* op = Gen.plausible_op schema in
      return (schema, op))
  in
  prop "undo restores the workspace" ~count:300 gen (fun (schema, op) ->
      match Core.Session.create schema with
      | Error _ -> false
      | Ok session -> (
          match Core.Session.apply session ~kind:Core.Concept.Wagon_wheel op with
          | Error _ -> true
          | Ok (session', _) -> (
              match Core.Session.undo session' with
              | None -> false
              | Some restored ->
                  Core.Recompose.equal_content
                    (Core.Session.workspace restored)
                    (Core.Session.workspace session))))

(* the operation-log persistence format round trips *)
let log_format_roundtrip =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 0 10)
        (pair
           (oneofl
              Core.Concept.
                [ Wagon_wheel; Generalization; Aggregation; Instance_chain ])
           Gen.modop))
  in
  prop "log format round trips" gen (fun steps ->
      let text = Repository.Store.log_to_string steps in
      let back = Repository.Store.log_of_string text in
      List.length back = List.length steps
      && List.for_all2
           (fun (k1, o1) (k2, o2) -> k1 = k2 && Core.Modop.equal o1 o2)
           steps back)

(* decomposition projections never stray outside their member set *)
let projections_stay_inside =
  prop "projections stay within members" ~count:100 Gen.synth_schema (fun s ->
      Core.Decompose.decompose s
      |> List.for_all (fun c ->
             (Core.Concept.project s c).s_interfaces
             |> List.for_all (fun i -> Core.Concept.mem_type c i.Odl.Types.i_name)))

(* diff of a schema against any reachable customization converges, and its
   log replays to the target *)
let diff_converges =
  let gen =
    QCheck2.Gen.(
      let* schema = Gen.synth_schema in
      let* ops = list_size (int_range 0 6) (Gen.plausible_op schema) in
      return (schema, ops))
  in
  prop "diff converges on reachable targets" ~count:100 gen (fun (schema, ops) ->
      let target =
        List.fold_left
          (fun w op ->
            match
              Core.Apply.apply ~original:schema ~kind:Core.Concept.Wagon_wheel w op
            with
            | Ok (w', _) -> w'
            | Error _ -> w)
          schema ops
      in
      let steps, _, converged = Core.Diff.infer ~original:schema ~target in
      converged
      &&
      match Core.Oplog.replay schema steps with
      | Ok session ->
          Core.Recompose.equal_content (Core.Session.workspace session) target
      | Error _ -> false)

(* diff between two independently generated schemas also converges *)
let diff_cross_schemas =
  let gen = QCheck2.Gen.pair Gen.synth_schema Gen.synth_schema in
  prop "diff converges across unrelated schemas" ~count:50 gen (fun (a, b) ->
      let _, _, converged = Core.Diff.infer ~original:a ~target:b in
      converged)

(* affinity is symmetric, bounded, and 1 on identical schemas *)
let affinity_properties =
  let gen = QCheck2.Gen.pair Gen.synth_schema Gen.synth_schema in
  prop "affinity symmetric and bounded" ~count:100 gen (fun (a, b) ->
      let ab = Core.Affinity.semantic_affinity a b in
      let ba = Core.Affinity.semantic_affinity b a in
      Float.abs (ab -. ba) < 1e-9
      && ab >= 0.0 && ab <= 1.0
      && Float.abs (Core.Affinity.semantic_affinity a a -. 1.0) < 1e-9)

(* cautions never raise, whatever the op *)
let cautions_total =
  let gen =
    QCheck2.Gen.(
      let* schema = Gen.synth_schema in
      let* op = Gen.plausible_op schema in
      return (schema, op))
  in
  prop "cautions are total" gen (fun (schema, op) ->
      ignore (Repository.Knowledge.cautions schema op);
      true)

(* the interchange schema of two random customizations is always valid *)
let interchange_valid =
  let gen =
    QCheck2.Gen.(
      let* schema = Gen.synth_schema in
      let* ops_a = list_size (int_range 0 5) (Gen.plausible_op schema) in
      let* ops_b = list_size (int_range 0 5) (Gen.plausible_op schema) in
      return (schema, ops_a, ops_b))
  in
  prop "interchange schemas are valid" ~count:100 gen
    (fun (schema, ops_a, ops_b) ->
      let customize ops =
        List.fold_left
          (fun w op ->
            match
              Core.Apply.apply ~original:schema ~kind:Core.Concept.Wagon_wheel w op
            with
            | Ok (w', _) -> w'
            | Error _ -> w)
          schema ops
      in
      let custom_a = customize ops_a and custom_b = customize ops_b in
      let interchange =
        Core.Interop.interchange_schema ~original:schema ~custom_a ~custom_b
      in
      Odl.Validate.errors interchange = [])

(* instance migration keeps stores consistent under any accepted
   customization *)
let migration_preserves_consistency =
  let university = Schemas.University.v () in
  (* a deterministic populated store; the randomness is in the ops *)
  let base_store =
    let ok = Result.get_ok in
    let s = Objects.Store.create university in
    let s, dept = ok (Objects.Store.new_object s "Department") in
    let s = ok (Objects.Store.set_attr s dept "dept_name" (Objects.Value.V_string "CSE")) in
    let s, fac = ok (Objects.Store.new_object s "Faculty") in
    let s = ok (Objects.Store.set_attr s fac "ssn" (Objects.Value.V_string "1")) in
    let s = ok (Objects.Store.link s fac "works_in_a" dept) in
    let s, course = ok (Objects.Store.new_object s "Course") in
    let s, offering = ok (Objects.Store.new_object s "Course_Offering") in
    let s = ok (Objects.Store.link s offering "offering_of" course) in
    let s = ok (Objects.Store.link s offering "taught_by" fac) in
    let s, stud = ok (Objects.Store.new_object s "Doctoral") in
    let s = ok (Objects.Store.set_attr s stud "ssn" (Objects.Value.V_string "2")) in
    let s = ok (Objects.Store.link s stud "takes" offering) in
    let s = ok (Objects.Store.link s stud "advised_by" fac) in
    let s, book = ok (Objects.Store.new_object s "Book") in
    let s = ok (Objects.Store.set_attr s book "isbn" (Objects.Value.V_string "b")) in
    ok (Objects.Store.link s offering "books" book)
  in
  let gen =
    QCheck2.Gen.(list_size (int_range 0 6) (Gen.plausible_op university))
  in
  prop "migration preserves store consistency" ~count:150 gen (fun ops ->
      let custom =
        List.fold_left
          (fun w op ->
            List.fold_left
              (fun w kind ->
                match Core.Apply.apply ~original:university ~kind w op with
                | Ok (w', _) -> w'
                | Error _ -> w)
              w
              Core.Concept.
                [ Wagon_wheel; Generalization; Aggregation; Instance_chain ])
          university ops
      in
      let migrated, _ = Objects.Migrate.migrate base_store ~custom in
      (* residual problems are only ever incompleteness on newly-mandatory
         ends — never dangling refs, broken symmetry, cardinality or key
         violations *)
      List.for_all
        (fun p ->
          Str_contains.contains p.Objects.Check.p_message "exactly one")
        (Objects.Check.check migrated))

(* translations are total and structurally sane over random schemas *)
let translations_total =
  prop "translations are total" ~count:100 Gen.synth_schema (fun s ->
      let ddl = Core.Relational.ddl s in
      let er = Core.Er.of_schema s in
      let dot = Core.Dot.schema_graph s in
      let opens =
        String.fold_left (fun n c -> if c = '(' then n + 1 else n) 0 ddl
      in
      let closes =
        String.fold_left (fun n c -> if c = ')' then n + 1 else n) 0 ddl
      in
      opens = closes
      && List.length er.Core.Er.m_entities = List.length s.s_interfaces
      && String.length dot > 0
      && Core.Quality.score s >= 0
      && Core.Quality.score s <= 100)

(* the store mutation API maintains referential integrity, link symmetry
   and to-one cardinality under arbitrary action sequences; only data-entry
   problems (unattached parts, duplicate keys) can remain *)
let store_mutations_sound =
  let university = Schemas.University.v () in
  let type_names = Odl.Schema.interface_names university in
  let action =
    QCheck2.Gen.(
      oneof
        [
          map (fun t -> `New t) (oneofl type_names);
          (let* o = int_range 1 12 in
           let* a = oneofl [ "name"; "ssn"; "gpa"; "room"; "dept_name" ] in
           let* v =
             oneof
               [
                 map (fun n -> Objects.Value.V_int n) (int_range 0 5);
                 map (fun s -> Objects.Value.V_string s) (oneofl [ "x"; "y" ]);
                 map (fun f -> Objects.Value.V_float f) (float_bound_inclusive 4.0);
               ]
           in
           return (`Set (o, a, v)));
          (let* o = int_range 1 12 in
           let* p =
             oneofl
               [ "works_in_a"; "takes"; "taught_by"; "advised_by"; "has";
                 "offering_of"; "books" ]
           in
           let* d = int_range 1 12 in
           return (`Link (o, p, d)));
          (let* o = int_range 1 12 in
           let* p = oneofl [ "works_in_a"; "takes"; "has" ] in
           let* d = int_range 1 12 in
           return (`Unlink (o, p, d)));
          map (fun o -> `Delete o) (int_range 1 12);
        ])
  in
  prop "store mutations are sound" ~count:150
    QCheck2.Gen.(list_size (int_range 0 40) action)
    (fun actions ->
      let store =
        List.fold_left
          (fun st act ->
            let keep = function Ok st -> st | Error _ -> st in
            match act with
            | `New t -> (
                match Objects.Store.new_object st t with
                | Ok (st, _) -> st
                | Error _ -> st)
            | `Set (o, a, v) -> keep (Objects.Store.set_attr st o a v)
            | `Link (o, p, d) -> keep (Objects.Store.link st o p d)
            | `Unlink (o, p, d) -> keep (Objects.Store.unlink st o p d)
            | `Delete o -> keep (Objects.Store.delete st o))
          (Objects.Store.create university)
          actions
      in
      Objects.Check.check store
      |> List.for_all (fun p ->
             Str_contains.contains p.Objects.Check.p_message "exactly one"
             || Str_contains.contains p.Objects.Check.p_message "duplicate key"))

(* 1c. a part-of edge is found from both of its ends, whichever end
   declares it: the whole's transitive parts hold the part and the part's
   transitive wholes hold the whole — on the naive and the indexed
   decomposer alike.  The one-sided schemas make the undeclaring end find
   the edge only through the relationships targeting it. *)
let part_of_from_either_end =
  prop "part-of closures follow an edge declared at one end only"
    Gen.one_sided_part_of (fun schema ->
      let index = Core.Schema_index.build schema in
      let holds owner (r : Odl.Types.relationship) =
        let whole, part =
          match Odl.Types.role_of_relationship r with
          | Odl.Types.Whole_end -> (owner, r.rel_target)
          | _ -> (r.rel_target, owner)
        in
        List.mem part (Core.Decompose.Naive.parts schema whole)
        && List.mem whole (Core.Decompose.Naive.wholes schema part)
        && List.mem part (Core.Decompose.Indexed.parts index whole)
        && List.mem whole (Core.Decompose.Indexed.wholes index part)
      in
      List.for_all
        (fun (i : Odl.Types.interface) ->
          List.for_all
            (fun (r : Odl.Types.relationship) ->
              r.rel_kind <> Odl.Types.Part_of || holds i.i_name r)
            i.i_rels)
        schema.Odl.Types.s_interfaces)

let tests =
  [
    synth_always_valid;
    union_reconstructs;
    union_reconstructs_under_ops;
    union_reconstructs_seeds;
    part_of_from_either_end;
    print_parse_roundtrip;
    op_roundtrip;
    apply_preserves_validity;
    moves_respect_stability;
    mapping_total;
    replay_reproduces;
    undo_exact;
    log_format_roundtrip;
    projections_stay_inside;
    cautions_total;
    diff_converges;
    diff_cross_schemas;
    affinity_properties;
    interchange_valid;
    migration_preserves_consistency;
    translations_total;
    store_mutations_sound;
  ]
