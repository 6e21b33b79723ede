(* The query subsystem's core: parser, planner, evaluator, and — the
   correctness foundation — the published {!Query.View}.  The central
   property is differential, in the house style of the index-vs-naive
   checker: along random op/undo/redo/republish/reload scripts, the view
   refreshed at every publication answers every query exactly as a
   from-scratch evaluation and the naive backend do, and its [diff]
   history is the per-publication log delta.

   Run with QCHECK_LONG=1 (the [fuzz-long] alias) for a 10x deeper pass;
   the [query-fuzz] alias scales the never-crash fuzz property instead. *)

module Ast = Query.Ast
module Parser = Query.Parser
module Plan = Query.Plan
module View = Query.View
module Eval = Query.Eval

let test = Util.test

let prop name ?(count = 500) gen f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~long_factor:10 gen f)

let parse_ok text =
  match Parser.parse text with
  | Ok q -> q
  | Error m -> Alcotest.failf "%S should parse: %s" text m

let parse_err text =
  match Parser.parse text with
  | Ok _ -> Alcotest.failf "%S should be rejected" text
  | Error m -> m

(* --- parser ---------------------------------------------------------------- *)

let parser_forms () =
  let q = parse_ok "name Person" in
  Alcotest.(check bool) "not all" false q.Ast.q_all;
  Alcotest.(check bool) "not explain" false q.Ast.q_explain;
  (match q.q_atom with
  | Ast.Name (Ast.Exact "Person") -> ()
  | _ -> Alcotest.fail "name Person should be an exact name atom");
  (match (parse_ok "name \"Per*\"").q_atom with
  | Ast.Name (Ast.Glob "Per*") -> ()
  | _ -> Alcotest.fail "quoted wildcard pattern should be a glob");
  (* a quoted pattern without wildcards is a point lookup *)
  (match (parse_ok "name \"Person\"").q_atom with
  | Ast.Name (Ast.Exact "Person") -> ()
  | _ -> Alcotest.fail "quoted non-wildcard pattern should be exact");
  (match (parse_ok "attr gpa inherited").q_atom with
  | Ast.Attr { pat = Ast.Exact "gpa"; inherited = true } -> ()
  | _ -> Alcotest.fail "attr ... inherited");
  (match (parse_ok "isa Person").q_atom with
  | Ast.Isa { name = "Person"; dir = Ast.Down } -> ()
  | _ -> Alcotest.fail "isa defaults down");
  (match (parse_ok "partof Engine up").q_atom with
  | Ast.Part { name = "Engine"; dir = Ast.Up } -> ()
  | _ -> Alcotest.fail "partof ... up");
  (match (parse_ok "diff 3").q_atom with
  | Ast.Diff { since = 3; until = None } -> ()
  | _ -> Alcotest.fail "diff with one stamp");
  (match (parse_ok "diff 3 9").q_atom with
  | Ast.Diff { since = 3; until = Some 9 } -> ()
  | _ -> Alcotest.fail "diff with a range");
  let q = parse_ok "all explain name Person" in
  Alcotest.(check bool) "all" true q.q_all;
  Alcotest.(check bool) "explain" true q.q_explain

let parser_rejects () =
  let contains m frag =
    if not (Str_contains.contains m frag) then
      Alcotest.failf "error %S should mention %S" m frag
  in
  contains (parse_err "") "expected a query form";
  contains (parse_err "frobnicate Person") "expected a query form";
  contains (parse_err "name") "expected a name";
  contains (parse_err "diff") "expected";
  (* trailing garbage is an error, not silently ignored *)
  contains (parse_err "name Person Person") "";
  contains (parse_err "isa Person sideways") "";
  (* lex errors surface with a position, not an exception *)
  contains (parse_err "name \"unterminated") "lex error"

let glob_semantics () =
  let m pat s = Ast.matches (Ast.Glob pat) s in
  Alcotest.(check bool) "* spans" true (m "P*n" "Person");
  Alcotest.(check bool) "* empty run" true (m "Person*" "Person");
  Alcotest.(check bool) "? is one char" true (m "Pers?n" "Person");
  Alcotest.(check bool) "? not empty" false (m "Person?" "Person");
  Alcotest.(check bool) "star runs collapse" true (m "P**n" "Person");
  Alcotest.(check bool) "no match" false (m "Q*" "Person");
  Alcotest.(check string) "literal prefix" "Per" (Ast.literal_prefix "Per*o?");
  Alcotest.(check string) "no prefix" "" (Ast.literal_prefix "*Person")

let planner_picks_access_paths () =
  let plan text = Plan.of_atom (parse_ok text).Ast.q_atom in
  (match plan "name Person" with
  | Plan.Name_point "Person" -> ()
  | _ -> Alcotest.fail "exact name should be a point lookup");
  (match plan "name \"Per*\"" with
  | Plan.Name_prefix { prefix = "Per"; _ } -> ()
  | _ -> Alcotest.fail "prefixed glob should be a bounded scan");
  (match plan "name \"*son\"" with
  | Plan.Name_scan _ -> ()
  | _ -> Alcotest.fail "prefixless glob should be a full scan");
  (match plan "attr gpa" with
  | Plan.Attr_point { attr = "gpa"; inherited = false } -> ()
  | _ -> Alcotest.fail "exact attr should probe the attribute index");
  (match plan "attr \"gp*\" inherited" with
  | Plan.Attr_prefix { prefix = "gp"; inherited = true; _ } -> ()
  | _ -> Alcotest.fail "prefixed attr glob should be a bounded scan");
  (match plan "attr \"*a\"" with
  | Plan.Attr_scan _ -> ()
  | _ -> Alcotest.fail "prefixless attr glob should be a full scan");
  List.iter
    (fun text ->
      let d = Plan.describe (plan text) in
      if not (Str_contains.contains d "plan:") then
        Alcotest.failf "describe %S should start with plan:" text)
    [ "name x"; "name \"x*\""; "attr \"*\" inherited"; "isa A up";
      "partof B"; "wheel C"; "diff 1 2" ];
  (* closures and wheels are walks of the schema index; attribute globs
     scan its attribute map *)
  List.iter
    (fun (text, expected) ->
      Alcotest.(check string) text expected (Plan.describe (plan text)))
    [
      ("isa A up", "plan: schema-index ISA walk (up) from A");
      ("partof B", "plan: schema-index part-of walk (down) from B");
      ("wheel C", "plan: schema-index wagon wheel of C from its adjacency");
      ( "attr \"gp*\" inherited",
        "plan: bounded attribute-index scan from prefix \"gp\", glob \"gp*\" \
         + descendant-closure widening" );
      ("attr \"*a\"", "plan: attribute-index scan, glob \"*a\"");
    ]

(* --- evaluation on the university schema ----------------------------------- *)

let university_view () =
  let session = Util.session_of (Util.university ()) in
  (session, View.build ~stamp:1 session)

let run view text =
  match Eval.run view (parse_ok text).Ast.q_atom with
  | Ok lines -> lines
  | Error m -> Alcotest.failf "%S should evaluate: %s" text m

let run_err view text =
  match Eval.run view (parse_ok text).Ast.q_atom with
  | Ok _ -> Alcotest.failf "%S should fail" text
  | Error m -> m

let eval_university () =
  let _, v = university_view () in
  Alcotest.(check (list string)) "point name" [ "Person" ] (run v "name Person");
  Alcotest.(check (list string)) "missing name" [] (run v "name Nobody");
  Alcotest.(check (list string))
    "glob name"
    [ "Course"; "Course_Offering" ]
    (run v "name \"Course*\"");
  Alcotest.(check (list string))
    "isa down is transitive"
    [ "Doctoral"; "Employee"; "Faculty"; "Graduate"; "Nonthesis_Masters";
      "Student"; "Thesis_Masters"; "Undergraduate" ]
    (run v "isa Person");
  Alcotest.(check (list string))
    "isa up" [ "Graduate"; "Person"; "Student" ] (run v "isa Doctoral up");
  Alcotest.(check (list string))
    "attr point" [ "Student.gpa" ] (run v "attr gpa");
  (* inherited attrs walk the ISA closure and report the declarer *)
  Alcotest.(check (list string))
    "attr inherited"
    [ "Doctoral.gpa (from Student)"; "Graduate.gpa (from Student)";
      "Nonthesis_Masters.gpa (from Student)"; "Student.gpa";
      "Thesis_Masters.gpa (from Student)"; "Undergraduate.gpa (from Student)" ]
    (run v "attr gpa inherited");
  let wheel = run v "wheel Course" in
  if not (List.mem "Course" wheel) then
    Alcotest.fail "wagon wheel should contain its focus";
  if not (Str_contains.contains (run_err v "isa Nobody") "no interface") then
    Alcotest.fail "closure of a missing interface names the problem";
  if not (Str_contains.contains (run_err v "diff 0 9") "ahead") then
    Alcotest.fail "a future stamp is refused"

(* A pinned digest over a battery of queries: the canonical (sorted)
   output is a wire-format promise — shard-merged answers reassemble to
   these exact bytes, so any ordering change must be deliberate and show
   up here. *)
let battery =
  [ "name \"*\""; "name \"Co*\""; "attr \"*\""; "attr \"*\" inherited";
    "isa Person"; "isa Person up"; "isa Doctoral up"; "partof Course";
    "partof Syllabus up"; "wheel Course"; "wheel Person"; "diff 0" ]

let pinned_digest () =
  let _, v = university_view () in
  let text =
    String.concat "\n"
      (List.concat_map
         (fun q ->
           (q ^ ":")
           ::
           (match Eval.run v (parse_ok q).Ast.q_atom with
           | Ok lines -> lines
           | Error m -> [ "error: " ^ m ]))
         battery)
  in
  Alcotest.(check string)
    "university battery digest"
    "222e112af2ae2b3d0ced3d535602ca5e"
    (Digest.to_hex (Digest.string text))

(* --- publication ----------------------------------------------------------- *)

let refresh_after_ops () =
  let s, v = university_view () in
  let s, _ = Util.apply_ok s "add_attribute(Person, string, 8, badge)" in
  let v = View.refresh v ~stamp:2 s in
  Alcotest.(check int) "at the publication's stamp" 2 (View.stamp v);
  Alcotest.(check (list string)) "new attr indexed" [ "Person.badge" ]
    (run v "attr badge");
  let s, _ = Util.apply_ok s "delete_attribute(Person, badge)" in
  let v = View.refresh v ~stamp:3 s in
  Alcotest.(check (list string)) "deleted attr deindexed" [] (run v "attr badge");
  Alcotest.(check (list string))
    "history records both steps, chronologically"
    [ "2 @ww add_attribute(Person, string, 8, badge)";
      "3 @ww delete_attribute(Person, badge)" ]
    (run v "diff 1");
  (* part-of answers follow the schema: an added edge shows from both
     ends, a deleted one from neither *)
  let s, _ =
    Util.apply_ok s
      "add_part_of_relationship(Course, set<Syllabus>, sections, section_of)"
  in
  let v = View.refresh v ~stamp:4 s in
  Alcotest.(check (list string)) "parts" [ "Syllabus" ] (run v "partof Course");
  Alcotest.(check (list string))
    "wholes" [ "Course" ] (run v "partof Syllabus up");
  let s, _ = Util.apply_ok s "delete_part_of_relationship(Course, sections)" in
  let v = View.refresh v ~stamp:5 s in
  Alcotest.(check (list string)) "no parts" [] (run v "partof Course");
  Alcotest.(check (list string)) "no wholes" [] (run v "partof Syllabus up");
  (* a re-declaration below the declarer shadows the inherited attribute *)
  let s, _ = Util.apply_ok s "add_attribute(Graduate, float, 8, gpa)" in
  let v = View.refresh v ~stamp:6 s in
  let lines = run v "attr gpa inherited" in
  Alcotest.(check bool) "re-declared" true (List.mem "Graduate.gpa" lines);
  Alcotest.(check bool)
    "not also inherited" false
    (List.mem "Graduate.gpa (from Student)" lines)

let refresh_sees_undo () =
  let s, v = university_view () in
  let s, _ = Util.apply_ok s "add_attribute(Person, string, 8, badge)" in
  let v = View.refresh v ~stamp:2 s in
  let s = Option.get (Core.Session.undo s) in
  let v = View.refresh v ~stamp:3 s in
  Alcotest.(check (list string)) "undo removed the attr" [] (run v "attr badge");
  Alcotest.(check (list string))
    "undo shows in the history"
    [ "2 @ww add_attribute(Person, string, 8, badge)";
      "3 undo @ww add_attribute(Person, string, 8, badge)" ]
    (run v "diff 1");
  match Core.Session.redo s with
  | None -> Alcotest.fail "redo should be available"
  | Some (s, _) ->
      let v = View.refresh v ~stamp:4 s in
      Alcotest.(check (list string))
        "redo restores the attr" [ "Person.badge" ] (run v "attr badge")

let history_is_bounded () =
  let s, v = university_view () in
  let n = 520 (* past max_history = 512 *) in
  let rec go s v i =
    if i > n then (s, v)
    else
      let s, _ =
        Util.apply_ok s
          (Printf.sprintf "add_attribute(Person, string, 8, b%04d)" i)
      in
      go s (View.refresh v ~stamp:(i + 1) s) (i + 1)
  in
  let _, v = go s v 1 in
  Alcotest.(check int) "stamp tracks" (n + 1) (View.stamp v);
  if View.floor_stamp v <= 1 then
    Alcotest.fail "floor should have moved past the dropped prefix";
  (match run v "diff 0" with
  | note :: _ when Str_contains.contains note "history truncated" -> ()
  | _ -> Alcotest.fail "a pre-floor diff should carry the truncation note");
  (* a slice entirely above the floor is complete: no note *)
  match run v (Printf.sprintf "diff %d" (View.floor_stamp v)) with
  | note :: _ when Str_contains.contains note "history truncated" ->
      Alcotest.fail "an in-window diff should not claim truncation"
  | _ -> ()

let refresh_is_monotone () =
  let s, v = university_view () in
  let s', _ = Util.apply_ok s "add_attribute(Person, string, 8, badge)" in
  let v2 = View.refresh v ~stamp:2 s' in
  (* a publication at or below the view's stamp (a follower republishing
     at its newest) keeps the newer view unchanged *)
  if not (View.refresh v2 ~stamp:1 s == v2 && View.refresh v2 ~stamp:2 s == v2)
  then Alcotest.fail "refresh must keep a newer view";
  (* resuming from the kept trail takes the session, not the history *)
  let r = View.resume (View.trail v2) ~stamp:2 s in
  if not (View.trail r == View.trail v2 && View.session r == s) then
    Alcotest.fail "a stale resume must keep the trail";
  Alcotest.(check int) "a build adopts its stamp" 5
    (View.stamp (View.build ~stamp:5 s'))

(* --- the differential property --------------------------------------------- *)

(* The answers a refreshed view gives, recomputed by the naive backend
   over the view's schema: every interface's ISA, part-of and wagon-wheel
   answers, and the whole inherited attribute listing. *)
let naive_answers_agree v schema =
  let module N = Core.Schema_view.Naive in
  let module Dn = Core.Decompose.Naive in
  let sorted = List.sort_uniq String.compare in
  let agrees atom expected =
    match Eval.run v atom with
    | Ok lines -> lines = sorted expected
    | Error _ -> false
  in
  let declares n attr =
    match N.find_interface schema n with
    | None -> false
    | Some i ->
        List.exists (fun a -> String.equal a.Odl.Types.attr_name attr) i.i_attrs
  in
  let inherited_attrs =
    List.concat_map
      (fun (i : Odl.Types.interface) ->
        List.concat_map
          (fun (a : Odl.Types.attribute) ->
            let attr = a.attr_name in
            (i.i_name ^ "." ^ attr)
            :: List.filter_map
                 (fun d ->
                   if declares d attr then None
                   else Some (d ^ "." ^ attr ^ " (from " ^ i.i_name ^ ")"))
                 (N.descendants schema i.i_name))
          i.i_attrs)
      schema.Odl.Types.s_interfaces
  in
  agrees (Ast.Attr { pat = Ast.Glob "*"; inherited = true }) inherited_attrs
  && List.for_all
       (fun name ->
         agrees (Ast.Isa { name; dir = Ast.Down }) (N.descendants schema name)
         && agrees (Ast.Isa { name; dir = Ast.Up }) (N.ancestors schema name)
         && agrees (Ast.Part { name; dir = Ast.Down }) (Dn.parts schema name)
         && agrees (Ast.Part { name; dir = Ast.Up }) (Dn.wholes schema name)
         && agrees (Ast.Wheel name)
              (Dn.wagon_wheel schema name).Core.Concept.c_members)
       (N.interface_names schema)

(* What can happen to a variant between two publications: an accepted op,
   an undo, a redo, a publication that changes no step (a [focus] or an
   alias: the designer state moves, the step spine does not), or a reload
   — the session rebuilt from its op log, a fresh step spine sharing
   nothing with the old one, as after eviction. *)
type act =
  | Op of Core.Concept.kind * Core.Modop.t
  | Undo
  | Redo
  | Republish
  | Reload

let perform schema session = function
  | Op (kind, op) -> (
      match Core.Session.apply session ~kind op with
      | Ok (s, _) -> Some s
      | Error _ -> None)
  | Undo -> Core.Session.undo session
  | Redo -> Option.map fst (Core.Session.redo session)
  | Republish -> Some session
  | Reload -> (
      match
        Core.Oplog.replay schema
          (Core.Oplog.pairs (Core.Oplog.of_session session))
      with
      | Ok s -> Some s
      | Error _ -> None)

(* acts, each with whether a query follows it; one reload always *)
let publication_script =
  QCheck2.Gen.(
    let* schema, ops = Gen.schema_and_ops in
    let* extras =
      list_repeat (List.length ops)
        (frequency
           [ (5, return []); (1, return [ Undo ]); (1, return [ Redo ]);
             (1, return [ Republish ]); (1, return [ Reload ]);
             (1, return [ Undo; Undo; Redo ]) ])
    in
    let acts =
      List.concat
        (List.map2 (fun (k, op) extra -> Op (k, op) :: extra) ops extras)
      @ [ Undo; Redo ]
    in
    let* reload_at = int_bound (List.length acts) in
    let acts =
      List.filteri (fun i _ -> i < reload_at) acts
      @ (Reload :: List.filteri (fun i _ -> i >= reload_at) acts)
    in
    let* queries =
      list_repeat (List.length acts)
        (frequency [ (2, return true); (3, return false) ])
    in
    return (schema, List.combine acts queries))

(* Every atom but [diff] over [schema]: the scans, and the point, closure
   and wheel atoms of every interface and attribute. *)
let atoms (schema : Odl.Types.schema) =
  let attrs =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (i : Odl.Types.interface) ->
           List.map (fun (a : Odl.Types.attribute) -> a.attr_name) i.i_attrs)
         schema.s_interfaces)
  in
  Ast.
    [ Name (Glob "*"); Name (Exact "Nobody");
      Attr { pat = Glob "*"; inherited = false };
      Attr { pat = Glob "*"; inherited = true }; Lineage ]
  @ List.map (fun a -> Ast.Attr { pat = Ast.Exact a; inherited = true }) attrs
  @ List.concat_map
      (fun (i : Odl.Types.interface) ->
        let name = i.i_name in
        Ast.
          [ Name (Exact name); Isa { name; dir = Down }; Isa { name; dir = Up };
            Part { name; dir = Down }; Part { name; dir = Up }; Wheel name ])
      schema.s_interfaces

(* a publication's [diff] events, rendered here rather than by the view *)
let publication_events ~before ~after =
  let render (s : Core.Session.step) =
    "@" ^ Core.Concept.id_prefix s.st_kind ^ " "
    ^ Core.Op_printer.to_string (Core.Session.step_op s)
  in
  let undone, added =
    Core.Session.(delta (spine before) (spine after))
  in
  List.rev_map (fun s -> "undo " ^ render s) undone @ List.map render added

(* [diff 0] over every (stamp, event) line so far, oldest first: the
   newest 512 kept, the floor at the newest dropped stamp (or the first
   publication's) *)
let expected_diff lines =
  let dropped = List.length lines - 512 in
  let floor =
    List.fold_left max 1
      (List.filteri (fun i _ -> i < dropped) (List.map fst lines))
  in
  Printf.sprintf "# history truncated below stamp %d" floor
  :: List.map
       (fun (s, e) -> Printf.sprintf "%d %s" s e)
       (List.filteri (fun i _ -> i >= dropped) lines)

type run = {
  session : Core.Session.t;
  stamp : int;
  view : View.t;  (** refreshed at every publication *)
  lines : (int * string) list;  (** every event so far, newest first *)
  ok : bool;
}

let published_answers_agree r =
  let schema = Core.Schema_index.schema (Core.Session.index r.session) in
  List.for_all
    (fun atom ->
      Eval.run r.view atom = Eval.run_fresh ~stamp:r.stamp r.session atom)
    (atoms schema)
  && naive_answers_agree r.view schema
  && Eval.run r.view (Ast.Diff { since = 0; until = None })
     = Ok (expected_diff (List.rev r.lines))

(* The server publishes [View.refresh] of the last view at every
   publication, and [View.resume] of its kept trail after an eviction
   (modelled by [Reload]). *)
let published_view_agrees =
  prop "published view = from-scratch, naive and per-publication answers"
    ~count:200 publication_script (fun (schema, script) ->
      match Core.Session.create schema with
      | Error _ -> QCheck2.assume_fail () (* synth schemas are valid *)
      | Ok session ->
          let step r (act, query) =
            match perform schema r.session act with
            | None -> r
            | Some session ->
                let stamp = r.stamp + 1 in
                let view =
                  match act with
                  | Reload -> View.resume (View.trail r.view) ~stamp session
                  | Op _ | Undo | Redo | Republish ->
                      View.refresh r.view ~stamp session
                in
                let lines =
                  List.rev_append
                    (List.map
                       (fun e -> (stamp, e))
                       (publication_events ~before:r.session ~after:session))
                    r.lines
                in
                let r = { r with session; stamp; view; lines } in
                if query then { r with ok = r.ok && published_answers_agree r }
                else r
          in
          let start =
            {
              session;
              stamp = 1;
              view = View.build ~stamp:1 session;
              lines = [];
              ok = true;
            }
          in
          let r = List.fold_left step start script in
          r.ok && published_answers_agree r)

(* Past [max_history] lines the oldest are dropped: the floor rises to
   the newest dropped one's stamp, and every retained op keeps its own
   stamp.  Each op here is followed by a publication that changes no step
   (a [focus]): it adds no line, so it must not push any op out.  The
   trail alone — what the server keeps across an eviction — carries the
   same history over a reload. *)
let dropped_marks_raise_the_floor () =
  let s, v = university_view () in
  let n = 520 (* ops, past max_history = 512 *) in
  let rec go s v i =
    if i > n then (s, v)
    else
      let s, _ =
        Util.apply_ok s
          (Printf.sprintf "add_attribute(Person, string, 8, b%04d)" i)
      in
      (* op i publishes at stamp 2i, its focus at 2i + 1 *)
      let v = View.refresh v ~stamp:(2 * i) s in
      go s (View.refresh v ~stamp:((2 * i) + 1) s) (i + 1)
  in
  let s, v = go s v 1 in
  (* ops 1..8 (stamps 2..16) fell off with their lines *)
  Alcotest.(check int) "floor at the newest dropped line" 16
    (View.floor_stamp v);
  let lines = run v "diff 16" in
  Alcotest.(check int) "one line per retained op" 512 (List.length lines);
  List.iteri
    (fun k line ->
      Alcotest.(check string) "each op under its own stamp"
        (Printf.sprintf "%d @ww add_attribute(Person, string, 8, b%04d)"
           (2 * (k + 9)) (k + 9))
        line)
    lines;
  (match run v "diff 15" with
  | note :: _ when Str_contains.contains note "truncated below stamp 16" -> ()
  | _ -> Alcotest.fail "a diff below the floor carries the truncation note");
  let reloaded =
    match
      Core.Oplog.replay (Util.university ())
        (Core.Oplog.pairs (Core.Oplog.of_session s))
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "the log should replay"
  in
  let v' = View.resume (View.trail v) ~stamp:((2 * n) + 2) reloaded in
  Alcotest.(check (list string)) "a reload keeps the history" (run v "diff 0")
    (run v' "diff 0")

(* --- the trail against one cut at every publication ------------------------ *)

(* The trail as a publication that cut it kept it: the newest 512 lines,
   the floor at the newest stamp dropped. *)
type model = { m_lines : (int * string) list; m_floor : int }

let model_publish m ~stamp events =
  let lines = List.rev_append (List.map (fun e -> (stamp, e)) events) m.m_lines in
  let rec take n acc = function
    | x :: tl when n > 0 -> take (n - 1) (x :: acc) tl
    | rest -> (List.rev acc, rest)
  in
  match take 512 [] lines with
  | kept, [] -> { m with m_lines = kept }
  | kept, (s, _) :: _ -> { m_lines = kept; m_floor = max m.m_floor s }

let model_diff m ~since =
  let ops =
    List.filter (fun (s, _) -> s > since) m.m_lines
    |> List.rev_map (fun (s, e) -> Printf.sprintf "%d %s" s e)
  in
  if since < m.m_floor then
    Printf.sprintf "# history truncated below stamp %d" m.m_floor :: ops
  else ops

(* One publication: [Ops k] applies k fresh ops, [Undos k]/[Redos k] a
   burst of up to k, [Again] changes nothing, [Evict] resumes the kept
   trail on a session replayed from the log, as a reload after an
   eviction does. *)
type trail_act = Ops of int | Undos of int | Redos of int | Again | Evict

let trail_agrees script =
  let fresh = ref 0 in
  let rec times k f s =
    if k = 0 then s else match f s with None -> s | Some s -> times (k - 1) f s
  in
  let add s =
    incr fresh;
    let op = Printf.sprintf "add_attribute(Person, string, 8, t%d)" !fresh in
    Some (fst (Util.apply_ok s op))
  in
  let step (s, v, m, ok) act =
    let stamp = View.stamp v + 1 in
    let s' =
      match act with
      | Ops k -> times k add s
      | Undos k -> times k Core.Session.undo s
      | Redos k -> times k (fun s -> Option.map fst (Core.Session.redo s)) s
      | Again -> s
      | Evict -> (
          match
            Core.Oplog.replay (Util.university ())
              (Core.Oplog.pairs (Core.Oplog.of_session s))
          with
          | Ok s -> s
          | Error _ -> Alcotest.fail "the log should replay")
    in
    let v =
      match act with
      | Evict -> View.resume (View.trail v) ~stamp s'
      | _ -> View.refresh v ~stamp s'
    in
    let m = model_publish m ~stamp (publication_events ~before:s ~after:s') in
    let agrees =
      View.history v = m.m_lines
      && View.floor_stamp v = m.m_floor
      && List.for_all
           (fun since ->
             Eval.run v (Ast.Diff { since; until = None })
             = Ok (model_diff m ~since))
           [ 0; m.m_floor - 1; m.m_floor; stamp - 1 ]
    in
    (s', v, m, ok && agrees)
  in
  let s, v = university_view () in
  let m = { m_lines = []; m_floor = View.floor_stamp v } in
  let _, _, m, ok = List.fold_left step (s, v, m, true) (Ops 30 :: script) in
  (ok, List.length m.m_lines)

(* Undo bursts mostly come with a redo burst, so most scripts pass 512
   lines and some 1024. *)
let trail_gen =
  QCheck2.Gen.(
    map List.concat
      (list_size (int_range 30 60)
         (frequency
            [ (2, map (fun k -> [ Ops k ]) (int_range 1 3));
              ( 4,
                map2
                  (fun a b -> [ Undos a; Redos b ])
                  (int_range 1 30) (int_range 1 30) );
              (1, map (fun k -> [ Undos k ]) (int_range 1 30));
              (1, return [ Again ]); (1, return [ Evict ]) ])))

let trail_equals_cut_at_every_publication =
  prop "view: history, floor and diff = a trail cut at every publication"
    ~count:20 trail_gen (fun script -> fst (trail_agrees script))

(* Past 2 x 512 lines, through undo bursts and an eviction. *)
let long_trail_equals_cut () =
  let bursts n = List.concat (List.init n (fun _ -> [ Undos 40; Redos 40 ])) in
  let ok, held = trail_agrees (bursts 8 @ [ Evict; Ops 1 ] @ bursts 8) in
  Alcotest.(check bool) "agrees with the cut trail" true ok;
  Alcotest.(check int) "a full window" 512 held

(* The evaluator's other invariant: every answer except [diff] is sorted
   and duplicate-free, whatever the view holds. *)
let answers_are_canonical =
  let gen =
    QCheck2.Gen.(
      let* schema, ops = Gen.schema_and_ops in
      let* pat = oneofl [ "*"; "a*"; "?*"; "x" ] in
      return (schema, ops, pat))
  in
  prop "non-diff answers are sorted and unique" gen (fun (schema, ops, pat) ->
      match Core.Session.create schema with
      | Error _ -> QCheck2.assume_fail ()
      | Ok session ->
          let session =
            List.fold_left
              (fun s (kind, op) ->
                match Core.Session.apply s ~kind op with
                | Ok (s', _) -> s'
                | Error _ -> s)
              session ops
          in
          let v = View.build ~stamp:1 session in
          let sorted_unique lines =
            lines = List.sort_uniq String.compare lines
          in
          let q text =
            match Eval.run v (parse_ok text).Ast.q_atom with
            | Ok lines -> sorted_unique lines
            | Error _ -> true
          in
          q (Printf.sprintf "name \"%s\"" pat)
          && q (Printf.sprintf "attr \"%s\"" pat)
          && q (Printf.sprintf "attr \"%s\" inherited" pat))

(* --- query fuzz: parse/evaluate never raises -------------------------------
   Tier-1 runs 500 random token soups; the nightly [query-fuzz] alias
   scales up through SWSD_QUERY_FUZZ. *)

let fuzz_count =
  match Sys.getenv_opt "SWSD_QUERY_FUZZ" with
  | Some n -> ( match int_of_string_opt n with Some n -> max 1 n | None -> 500)
  | None -> 500

let query_soup =
  QCheck2.Gen.(
    let fragment =
      oneofl
        [ "name"; "attr"; "isa"; "partof"; "wheel"; "diff"; "all"; "explain";
          "up"; "down"; "inherited"; "Person"; "Student"; "Nobody"; "x";
          "\"*\""; "\"Per?on\""; "\"\""; "\"unterminated"; "0"; "1"; "7";
          "999999"; "-3"; "("; "::"; "~"; "3.14"; "set<int>" ]
    in
    map (String.concat " ") (list_size (int_range 0 6) fragment))

let fuzz_never_crashes =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"parse+eval never raises on token soup"
       ~count:fuzz_count ~long_factor:10 query_soup
       (fun text ->
         let v = lazy (snd (university_view ())) in
         match Parser.parse text with
         | Error m -> String.length m > 0
         | Ok q -> (
             ignore (Eval.explain q.Ast.q_atom);
             match Eval.run (Lazy.force v) q.q_atom with
             | Ok _ | Error _ -> true)))

(* run_fresh (the bench baseline) answers exactly like the maintained view *)
let fresh_equals_materialized () =
  let s, v = university_view () in
  let s, _ = Util.apply_ok s "add_attribute(Person, string, 8, badge)" in
  let v = View.refresh v ~stamp:2 s in
  List.iter
    (fun q ->
      let atom = (parse_ok q).Ast.q_atom in
      match (Eval.run v atom, Eval.run_fresh ~stamp:2 s atom) with
      | Ok a, Ok b ->
          Alcotest.(check (list string)) (q ^ " agrees") a b
      | Error a, Error b -> Alcotest.(check string) (q ^ " agrees") a b
      | _ -> Alcotest.failf "%s: fresh and materialized disagree on status" q)
    [ "name \"*\""; "attr badge"; "attr \"*\" inherited"; "isa Person";
      "partof Course up"; "wheel Course" ]

let tests =
  [
    test "parser: every query form round-trips" parser_forms;
    test "parser: malformed queries are structured errors" parser_rejects;
    test "glob: * and ? semantics" glob_semantics;
    test "planner: picks the right access path" planner_picks_access_paths;
    test "eval: university answers are exact" eval_university;
    test "eval: pinned digest over the battery" pinned_digest;
    test "view: refresh tracks adds and deletes" refresh_after_ops;
    test "view: refresh tracks undo and redo" refresh_sees_undo;
    test "view: history is bounded with an honest floor" history_is_bounded;
    test "view: refresh is stamp-monotone" refresh_is_monotone;
    test "eval: fresh build answers = materialized answers"
      fresh_equals_materialized;
    test "view: dropped marks raise the floor, kept ones keep their stamps"
      dropped_marks_raise_the_floor;
    published_view_agrees;
    trail_equals_cut_at_every_publication;
    test "view: a trail past 1024 lines = one cut at every publication"
      long_trail_equals_cut;
    answers_are_canonical;
    fuzz_never_crashes;
  ]
