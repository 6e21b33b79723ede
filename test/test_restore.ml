(* Undo/redo across a session snapshot-restore boundary, and opening from
   a checkpoint.

   A snapshot (save_session) collapses the journal to the *resolved* log:
   undone operations and their [@undo;] records disappear, and with them
   the redo stack — redo history is session-local by design, while the
   undo chain survives because it is recomputed from the resolved log.
   These tests pin that contract, including a torn [@undo;] crash artifact
   at the journal tail.

   The snapshot also writes a checkpoint (the workspace at the end of the
   resolved log), and a load opens from it plus the records appended
   since.  The full replay of the journal is the oracle: the property
   below demands that every load — from an intact checkpoint, a damaged
   one, none (the snapshot covered no operation), one undone into by
   later [@undo;] records, one rewritten by salvage, or one over the
   journal as it stands with [@undo;] records in its prefix — gives the
   session the full replay gives: workspace, log, version stamp, local
   names, mapping,
   impact report and undo/redo behaviour.  Bounded undo (only the newest
   [Session.undo_depth] index versions are kept) is checked against the
   same oracle.  Run with QCHECK_LONG=1 (the [fuzz-long] alias) for 10x
   the cases. *)

module Io = Repository.Io
(* every fsck here runs with and without the repository's base *)
module Store = struct
  include Repository.Store

  let fsck = Util.fsck_on_base
end
module Repo = Repository.Repo
module Service = Server.Service
module Protocol = Server.Protocol

let test = Util.test

let tiny () =
  Util.parse
    "interface Person { attribute string name; attribute int age; };\n\
     interface Course { attribute string title; attribute string code; };"

let mem_repo () =
  let m = Io.mem_create () in
  let io = Io.locked (Io.mem_io m) in
  (match Repo.init ~io "/repo" (tiny ()) with
  | Result.Ok repo -> (
      match Repo.create_variant repo "v" with
      | Result.Ok _ -> ()
      | Result.Error e -> Alcotest.fail e)
  | Result.Error e -> Alcotest.fail e);
  io

let config =
  {
    Service.default_config with
    Service.use_file_locks = false;
    retry = { Server.Retry.default with Server.Retry.base_delay = 0.0002 };
  }

let service io =
  match Service.open_service ~config ~io "/repo" with
  | Result.Ok t -> t
  | Result.Error m -> Alcotest.fail m

let req_ok t c line =
  let r = Service.request t c line in
  match r.Protocol.status with
  | Protocol.Ok -> r.Protocol.body
  | _ -> Alcotest.failf "%s should succeed, got: %s" line (Protocol.to_string r)

let req_rejected t c line =
  let r = Service.request t c line in
  match r.Protocol.status with
  | Protocol.Err _ -> String.concat "\n" r.Protocol.body
  | _ -> Alcotest.failf "%s should be rejected, got: %s" line (Protocol.to_string r)

let apply name = Printf.sprintf "apply add_attribute(Person, string, 8, %s)" name

let ops_of_log io =
  match Store.load_session (Store.open_dir ~io "/repo/variants/v") with
  | Result.Ok s ->
      List.map
        (fun (st : Core.Session.step) ->
          Core.Op_printer.to_string (Core.Session.step_op st))
        (Core.Session.log s)
  | Result.Error e -> Alcotest.fail (Store.load_error_to_string e)

(* undo, snapshot (via @close), restore (via @open): the undone operation
   stays undone, and the redo stack does not survive the boundary *)
let redo_lost_across_snapshot () =
  let io = mem_repo () in
  let t = service io in
  let c = Service.connect t in
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c (apply "first"));
  ignore (req_ok t c (apply "second"));
  ignore (req_ok t c "undo");
  (* before the boundary, redo would work; cross it instead *)
  ignore (req_ok t c "@close");
  ignore (req_ok t c "@open v");
  let msg = req_rejected t c "redo" in
  Alcotest.(check bool) "redo does not survive a snapshot" true
    (Str_contains.contains msg "nothing to redo");
  (* the undo chain does survive: it is recomputed from the resolved log *)
  ignore (req_ok t c "undo");
  ignore (req_ok t c "@close");
  Alcotest.(check (list string)) "both operations undone" [] (ops_of_log io)

(* the same boundary, but the service is shut down (drain + snapshot)
   rather than politely closed *)
let redo_lost_across_shutdown () =
  let io = mem_repo () in
  let t = service io in
  let c = Service.connect t in
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c (apply "first"));
  ignore (req_ok t c "undo");
  Alcotest.(check (list (pair string string))) "shutdown snapshots" []
    (Service.shutdown t);
  Alcotest.(check (list string)) "resolved log is empty" [] (ops_of_log io);
  let t = service io in
  let c = Service.connect t in
  ignore (req_ok t c "@open v");
  let msg = req_rejected t c "redo" in
  Alcotest.(check bool) "nothing to redo after restore" true
    (Str_contains.contains msg "nothing to redo");
  ignore (Service.shutdown t)

(* A torn [@undo;] at the journal tail is the crash artifact of an
   unacknowledged undo: replay must silently drop the torn record and keep
   every complete one. *)
let torn_undo_tail () =
  let io = mem_repo () in
  let store = Store.open_dir ~io "/repo/variants/v" in
  let step name =
    (Core.Concept.Wagon_wheel,
     Util.parse_op (Printf.sprintf "add_attribute(Person, string, 8, %s)" name))
  in
  let journal e =
    Repository.Journal.(append_raw io (Store.log_file store) (encode e))
  in
  let op name = let kind, op = step name in Repository.Journal.Op (kind, op) in
  journal (op "first");
  journal (op "second");
  journal Repository.Journal.Undo;
  (* a complete undo resolves: first only *)
  Alcotest.(check int) "complete @undo; resolves" 1
    (List.length (ops_of_log io));
  (* now tear a second undo: the crash interrupted the append mid-line *)
  io.Io.append (Store.log_file store) "@un";
  (match Store.load_session store with
  | Result.Ok s ->
      Alcotest.(check int) "torn @undo; is dropped, not applied" 1
        (List.length (Core.Session.log s))
  | Result.Error e -> Alcotest.fail (Store.load_error_to_string e));
  (* tear again (the check above repaired the file in place) and let the
     service open the variant through the same recovery *)
  io.Io.append (Store.log_file store) "@un";
  let t = service io in
  let c = Service.connect t in
  ignore (req_ok t c "@open v");
  let log = req_ok t c "log" in
  Alcotest.(check bool) "recovered session still holds the first op" true
    (List.exists (fun l -> Str_contains.contains l "first") log);
  (* the next mutation journals cleanly after the torn tail *)
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c (apply "after_repair"));
  ignore (req_ok t c "@close");
  ignore (Service.shutdown t);
  let ops = String.concat "\n" (ops_of_log io) in
  Alcotest.(check bool) "first survives" true (Str_contains.contains ops "first");
  Alcotest.(check bool) "post-repair op survives" true
    (Str_contains.contains ops "after_repair");
  Alcotest.(check bool) "second stays undone" true
    (not (Str_contains.contains ops "second"))

(* --- checkpoint + suffix ≡ full replay -------------------------------- *)

module Session = Core.Session
module Journal = Repository.Journal

(* The reference: the whole journal replayed on the stored shrink wrap. *)
let full_replay store =
  let steps =
    let journal = Journal.read (Store.io store) (Store.log_file store) in
    match Journal.resolve journal.Journal.entries with
    | Ok steps -> steps
    | Error m -> Alcotest.fail m
  in
  match Core.Oplog.replay (Store.load_shrinkwrap store) steps with
  | Ok s -> Session.restore_aliases s (Store.load_aliases store)
  | Error e -> Alcotest.fail (Core.Apply.error_to_string e)

let pairs s = List.map (fun (st : Session.step) -> (st.st_kind, (Session.step_op st))) (Session.log s)
let texts s = List.map (fun (st : Session.step) -> st.st_text) (Session.log s)

let same_pairs =
  List.equal (fun (k, o) (k', o') ->
      Core.Concept.equal_kind k k' && Core.Modop.equal o o')

(* Every observable of two sessions, then the whole undo chain and back up
   the redo stack, state by state; [Some reason] on the first difference. *)
let differences a b =
  let state a b =
    if not (Odl.Types.equal_schema (Session.workspace a) (Session.workspace b)) then
      Some "workspace"
    else if not (same_pairs (pairs a) (pairs b)) then Some "log"
    else if texts a <> texts b then Some "op texts"
    else if Session.version a <> Session.version b then Some "version"
    else if Session.redoable a <> Session.redoable b then Some "redo stack"
    else None
  in
  let rec undo_all a b depth =
    match state a b with
    | Some what -> Some (Printf.sprintf "%s after %d undo(s)" what depth)
    | None -> (
        match (Session.undo a, Session.undo b) with
        | None, None -> redo_all a b depth
        | Some a, Some b -> undo_all a b (depth + 1)
        | _ -> Some (Printf.sprintf "undo availability after %d undo(s)" depth))
  and redo_all a b depth =
    match state a b with
    | Some what -> Some (Printf.sprintf "%s after %d redo(s)" what depth)
    | None -> (
        match (Session.redo a, Session.redo b) with
        | None, None -> None
        | Some (a, ea), Some (b, eb) ->
            if List.equal Core.Change.equal_event ea eb then redo_all a b (depth + 1)
            else Some "redo events"
        | _ -> Some "redo availability")
  in
  match state a b with
  | Some what -> Some what
  | None ->
      if Session.aliases_report a <> Session.aliases_report b then Some "local names"
      else if Session.mapping_report a <> Session.mapping_report b then Some "mapping"
      else if Session.impact_report a <> Session.impact_report b then Some "impact report"
      else undo_all a b 0

type action = Op of Core.Concept.kind * Core.Modop.t | Undo

type damage =
  | Intact
  | Corrupt_checkpoint  (** a byte of its workspace flipped *)
  | Empty_checkpoint  (** the only snapshot was taken before any op *)
  | Held_journal
      (** the snapshot checkpointed the journal as it stands: the covered
          prefix keeps its [@undo;] records *)
  | Salvaged  (** interior journal damage repaired by fsck before the suffix *)
  | Reformatted_chunk of int
      (** one interface's chunk of the checkpoint body re-spaced (it parses
          to the same interface, but no longer byte-matches the shrink
          wrap's or the printer's), the body digest recomputed *)

let damage_name = function
  | Intact -> "intact"
  | Corrupt_checkpoint -> "corrupt checkpoint"
  | Empty_checkpoint -> "0-op checkpoint"
  | Held_journal -> "journal as it stands"
  | Salvaged -> "salvaged log"
  | Reformatted_chunk k -> Printf.sprintf "chunk %d re-spaced" k

(* Apply and journal each action as the designer does; rejected ops and
   undos with nothing to undo are skipped. *)
let run store session actions =
  List.fold_left
    (fun session -> function
      | Op (kind, op) -> (
          match Session.apply session ~kind op with
          | Ok (s, _) ->
              Journal.append_raw (Store.io store) (Store.log_file store)
                (Journal.encode (Journal.Op (kind, op)));
              s
          | Error _ -> session)
      | Undo -> (
          match Session.undo session with
          | Some s ->
              Journal.append_raw (Store.io store) (Store.log_file store)
                (Journal.encode Journal.Undo);
              s
          | None -> session))
    session actions

(* Each damage applies to a checkpoint that is there: a snapshot of a
   session with no op writes none. *)
let if_exists io path f = if io.Io.file_exists path then f (io.Io.read_file path)

let flip_last_byte io path =
  if_exists io path @@ fun text ->
  let n = String.length text in
  let last = if text.[n - 2] = 'x' then "y" else "x" in
  io.Io.write path (String.sub text 0 (n - 2) ^ last ^ String.sub text (n - 1) 1)

(* Re-space the [k]th interface chunk (mod their count) of the checkpoint
   body, keeping every digest but the body's, which is recomputed. *)
let respace_chunk io path k =
  if_exists io path @@ fun text ->
  let i = String.index text '\n' in
  let header = String.sub text 0 i
  and body = String.sub text (i + 1) (String.length text - i - 1) in
  match Odl.Printer.split_chunks body with
  | Some (name, (_ :: _ as chunks)) ->
      let k = k mod List.length chunks in
      let chunks = List.mapi (fun j (_, c) -> if j = k then c ^ " " else c) chunks in
      let body = Odl.Printer.schema_of_chunks name chunks in
      let header = String.sub header 0 (String.length header - 32) in
      io.Io.write path (header ^ Digest.to_hex (Digest.string body) ^ "\n" ^ body)
  | _ -> Alcotest.fail "checkpoint body is not laid out in chunks"

(* A copy of the store's files whose checkpoint body holds one more
   interface, [Forged], every digest recomputed: the copy's open shows
   [Forged] only when it opened from the checkpoint. *)
let forged_copy io store =
  let io' = Io.mem_io (Io.mem_create ()) in
  let copy = Store.open_dir ~io:io' "/w" in
  List.iter
    (fun name ->
      let p = Filename.concat (Store.dir store) name in
      if io.Io.file_exists p then
        io'.Io.write (Filename.concat "/w" name) (io.Io.read_file p))
    (io.Io.readdir (Store.dir store));
  let path = Store.checkpoint_file copy in
  let text = io'.Io.read_file path in
  let i = String.index text '\n' in
  let header = String.sub text 0 (i - 32) in
  let body = String.sub text (i + 1) (String.length text - i - 1) in
  let forged =
    Odl.Parser.parse_schema "interface Forged { attribute string x; };"
  in
  let body =
    match Odl.Printer.split_chunks body with
    | Some (name, chunks) ->
        Odl.Printer.schema_of_chunks name
          (List.map snd chunks
          @ List.map Odl.Printer.interface_chunk forged.s_interfaces)
    | None -> Alcotest.fail "checkpoint body is not laid out in chunks"
  in
  io'.Io.write path (header ^ Digest.to_hex (Digest.string body) ^ "\n" ^ body);
  copy

let build (pre, post, damage) =
  let io = Io.mem_io (Io.mem_create ()) in
  let store = Store.open_dir ~io "/v" in
  let fresh = Util.session_of (Util.university ()) in
  Store.save_session store fresh;
  let session =
    if damage = Empty_checkpoint then run store fresh pre
    else begin
      let s = run store fresh pre in
      let s =
        match Session.add_alias s (Core.Aliases.For_interface "Person") "Human" with
        | Ok s -> s
        | Error _ -> s
      in
      (if damage <> Held_journal then Store.save_session store s
       else begin
         Store.save_checkpoint store s;
         (* a checkpoint whose prefix holds [@undo;] records serves the
            open: no full replay *)
         if io.Io.file_exists (Store.checkpoint_file store) then
           match Store.load_session (forged_copy io store) with
           | Ok s when Odl.Schema.mem_interface (Session.workspace s) "Forged" -> ()
           | Ok _ ->
               QCheck2.Test.fail_report
                 "the checkpoint over the journal as it stands did not serve"
           | Error e -> QCheck2.Test.fail_report (Store.load_error_to_string e)
       end);
      s
    end
  in
  let session =
    match damage with
    | Intact | Empty_checkpoint | Held_journal -> session
    | Corrupt_checkpoint ->
        flip_last_byte io (Store.checkpoint_file store);
        session
    | Reformatted_chunk k ->
        respace_chunk io (Store.checkpoint_file store) k;
        session
    | Salvaged -> (
        io.Io.append (Store.log_file store)
          "frobnicate the journal\n@ww add_type_definition(Zz);\n";
        match (Store.fsck ~salvage:true store).Store.fsck_session with
        | Some s -> s
        | None -> Alcotest.fail "salvage lost the session")
  in
  ignore (run store session post);
  (* fsck resolves the covered records the same way *)
  (if damage = Held_journal then
     match (Store.fsck store).Store.fsck_issues with
     | [] -> ()
     | issues -> QCheck2.Test.fail_reportf "fsck: %s" (String.concat "; " issues));
  store

let action_gen =
  let open QCheck2.Gen in
  let u = Util.university () in
  frequency
    [
      (4, map (fun (k, o) -> Op (k, o)) (pair Gen.concept_kind (Gen.plausible_op u)));
      ( 3,
        map
          (fun i ->
            Op (Core.Concept.Wagon_wheel,
                Core.Modop.Add_attribute
                  ("Person", Odl.Types.D_string, Some 8, Printf.sprintf "c%d" i)))
          (int_range 0 40) );
      (2, return Undo);
    ]

(* Workspaces whose interfaces differ from the shrink wrap's: one added, one
   removed, one removed and declared again (it moves to the end: the
   interface order is no longer the shrink wrap's), each as a run of
   actions. *)
let shape_gen =
  let open QCheck2.Gen in
  let ww = Core.Concept.Wagon_wheel in
  let names = Odl.Schema.interface_names (Util.university ()) in
  oneof
    [
      map
        (fun i -> [ Op (ww, Core.Modop.Add_type_definition (Printf.sprintf "Zq%d" i)) ])
        (int_range 0 5);
      map (fun n -> [ Op (ww, Core.Modop.Delete_type_definition n) ]) (oneofl names);
      map
        (fun n ->
          [ Op (ww, Core.Modop.Delete_type_definition n);
            Op (ww, Core.Modop.Add_type_definition n) ])
        (oneofl names);
    ]

let actions_gen size =
  let open QCheck2.Gen in
  map List.concat
    (list_size size
       (frequency [ (5, map (fun a -> [ a ]) action_gen); (1, shape_gen) ]))

let case_gen =
  let open QCheck2.Gen in
  triple (actions_gen (int_range 0 12)) (actions_gen (int_range 0 8))
    (frequency
       [
         (2, return Intact);
         (1, return Corrupt_checkpoint);
         (1, return Empty_checkpoint);
         (2, return Held_journal);
         (1, return Salvaged);
         (1, map (fun k -> Reformatted_chunk k) (int_range 0 20));
       ])

let print_case (pre, post, damage) =
  let show = function
    | Op (k, o) -> Journal.entry_to_line (Journal.Op (k, o))
    | Undo -> "@undo;"
  in
  Printf.sprintf "%s | pre: %s | post: %s" (damage_name damage)
    (String.concat "  " (List.map show pre))
    (String.concat "  " (List.map show post))

(* What needs the ops of a checkpointed session's prefix, against the same
   on the replayed session: the op pairs, and a rebase of the reference's
   whole log onto each (every op is already applied: found by comparing
   the base's ops) and onto a fresh session. *)
let ops_differences loaded reference =
  let verdicts (r : Core.Oplog.report) =
    List.map
      (fun (v : Core.Oplog.verdict) ->
        match v.v_outcome with
        | Clean _ -> "clean"
        | Auto_merged (why, _) -> why
        | Conflict _ -> "conflict")
      r.r_verdicts
  in
  let fresh = Util.session_of (Util.university ()) in
  let branch_ops = Core.Oplog.branch_entries ~base:fresh ~branch:reference in
  let rebase base = Core.Oplog.rebase ~base ~branch_ops in
  if not (same_pairs (Core.Oplog.pairs (Core.Oplog.of_session loaded))
            (Core.Oplog.pairs (Core.Oplog.of_session reference)))
  then Some "op pairs"
  else if verdicts (rebase loaded) <> verdicts (rebase reference) then
    Some "rebase verdicts"
  else if
    not
      (Odl.Types.equal_schema
         (Session.workspace (rebase loaded).r_session)
         (Session.workspace (rebase reference).r_session))
  then Some "rebased workspace"
  else if
    Core.Oplog.branch_entries ~base:fresh ~branch:loaded
    |> List.map (fun (e : Core.Oplog.entry) -> (e.e_kind, e.e_op))
    |> fun l -> not (same_pairs l (List.map (fun (e : Core.Oplog.entry) -> (e.e_kind, e.e_op)) branch_ops))
  then Some "branch entries"
  else None

(* A repository's base for the university schema: what {!Repo.base} holds. *)
let university_base () =
  let u = Util.university () in
  Store.base (Util.session_of u)

let checkpoint_equals_replay =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"opening from checkpoint + suffix = full replay"
       ~count:100 ~long_factor:10 ~print:print_case case_gen (fun case ->
         let store = build case in
         let reference = full_replay store in
         (* without a base, and on the repository's base session *)
         List.for_all
           (fun (label, base) ->
             match Store.load_session (Util.on_base base store) with
             | Error e ->
                 QCheck2.Test.fail_reportf "load %s failed: %s" label
                   (Store.load_error_to_string e)
             | Ok loaded -> (
                 match differences loaded reference with
                 | Some what ->
                     QCheck2.Test.fail_reportf
                       "load %s differs from the full replay: %s" label what
                 | None -> (
                     match ops_differences loaded reference with
                     | None -> true
                     | Some what ->
                         QCheck2.Test.fail_reportf
                           "load %s differs from the full replay: %s" label what)))
           [ ("without a base", None); ("on the base", Some (university_base ())) ]))

(* --- op texts: printed once, rendered byte for byte as the printer --- *)

(* The reference: each log rendering printed from the ops with
   [Op_printer].  The code joins the steps' texts instead and must give
   the same bytes. *)
module Printed = struct
  let op = Core.Op_printer.to_string

  let log s =
    Session.log s
    |> List.map (fun (st : Session.step) ->
           Printf.sprintf "// in %s\n%s;" (Core.Concept.kind_name st.st_kind)
             (op (Session.step_op st)))
    |> String.concat "\n"

  let records s =
    Journal.to_string
      (List.map (fun (k, o) -> Journal.Op (k, o)) (pairs s))

  let delta ~before ~after =
    let undone, added = Session.(delta (spine before) (spine after)) in
    String.concat ""
      (List.map (fun _ -> Journal.encode Journal.Undo) undone
      @ List.map
          (fun (st : Session.step) ->
            Journal.encode (Journal.Op (st.st_kind, (Session.step_op st))))
          added)

  let diff_line (st : Session.step) =
    "@" ^ Core.Concept.id_prefix st.st_kind ^ " " ^ op (Session.step_op st)

  let impact s =
    let pp_step ppf (idx, (st : Session.step)) =
      Fmt.pf ppf "@[<v 2>%d. [%s] %a" (idx + 1)
        (Core.Concept.kind_name st.st_kind)
        Core.Op_printer.pp (Session.step_op st);
      List.iter
        (fun e -> Fmt.pf ppf "@,%s" (Core.Change.event_to_string e))
        (Session.step_events st);
      Fmt.pf ppf "@]"
    in
    Fmt.str "@[<v>impact report for %s@,%a@]" (Session.original s).s_name
      Fmt.(list ~sep:(any "@,") pp_step)
      (List.mapi (fun i st -> (i, st)) (Session.log s))
end

type text_action =
  | T_op of Core.Concept.kind * Core.Modop.t
  | T_undo
  | T_redo
  | T_snapshot of bool  (** with the base? *)
  | T_reopen of bool

let text_action_gen =
  let open QCheck2.Gen in
  let u = Util.university () in
  frequency
    [
      (4, map (fun (k, o) -> T_op (k, o)) (pair Gen.concept_kind (Gen.plausible_op u)));
      ( 3,
        map
          (fun a ->
            T_op
              ( Core.Concept.Wagon_wheel,
                Core.Modop.Add_attribute ("Person", Odl.Types.D_string, Some 8, a) ))
          (oneof [ Gen.ident; Gen.pathological_name ]) );
      (2, return T_undo);
      (1, return T_redo);
      (1, map (fun b -> T_snapshot b) bool);
      (1, map (fun b -> T_reopen b) bool);
    ]

let show_text_action = function
  | T_op (k, o) -> Journal.entry_to_line (Journal.Op (k, o))
  | T_undo -> "undo"
  | T_redo -> "redo"
  | T_snapshot b -> if b then "snapshot on the base" else "snapshot"
  | T_reopen b -> if b then "reopen on the base" else "reopen"

(* Drive the designer's durable loop — journal each action's delta, take
   snapshots, reopen from the checkpoint — and after every action compare
   each rendering with the printer's. *)
let texts_are_printed actions =
  let base = university_base () in
  let io = Io.mem_io (Io.mem_create ()) in
  let store = Store.open_dir ~io "/v" in
  let fail fmt = QCheck2.Test.fail_reportf fmt in
  let check_session s =
    List.iter
      (fun (st : Session.step) ->
        if st.st_text <> Printed.op (Session.step_op st) then
          fail "step text %S, printer %S" st.st_text (Printed.op (Session.step_op st)))
      (Session.log s);
    let log = Core.Oplog.render (Core.Oplog.of_session s) in
    if log <> Printed.log s then fail "log reply differs:\n%s" log;
    let impact = Session.impact_report s in
    if impact <> Printed.impact s then fail "impact report differs:\n%s" impact
  in
  let journal ~before ~after =
    let _, added, data = Journal.encoded_delta ~before ~after in
    if data <> Printed.delta ~before ~after then fail "journal delta %S" data;
    List.iter
      (fun st ->
        if Query.View.render_step st <> Printed.diff_line st then
          fail "diff line %S" (Query.View.render_step st))
      added;
    Journal.append_raw io (Store.log_file store) data
  in
  let store_on on_base = Util.on_base (if on_base then Some base else None) store in
  let reopen on_base =
    match Store.load_session (store_on on_base) with
    | Ok s -> s
    | Error e -> fail "reopen: %s" (Store.load_error_to_string e)
  in
  let snapshot on_base s =
    Store.save_session (store_on on_base) s;
    (* an empty history is no journal *)
    let path = Store.log_file store in
    let bytes = if io.Io.file_exists path then io.Io.read_file path else "" in
    if bytes <> Printed.records s then fail "log.ops after a snapshot: %S" bytes
  in
  Store.save_session store base.b_session;
  let final =
    List.fold_left
      (fun s action ->
        let s' =
          match action with
          | T_op (kind, op) -> (
              match Session.apply s ~kind op with Ok (s', _) -> s' | Error _ -> s)
          | T_undo -> Option.value (Session.undo s) ~default:s
          | T_redo -> Option.fold ~none:s ~some:fst (Session.redo s)
          | T_snapshot b ->
              snapshot b s;
              s
          | T_reopen b -> reopen b
        in
        (match action with
        | T_op _ | T_undo | T_redo -> journal ~before:s ~after:s'
        | T_snapshot _ | T_reopen _ -> ());
        check_session s';
        s')
      (reopen false) actions
  in
  snapshot true final;
  check_session (reopen true);
  true

let op_texts_are_printed =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"log, log.ops, journal delta, diff and impact = the printer's bytes"
       ~count:100 ~long_factor:10
       ~print:(fun a -> String.concat " | " (List.map show_text_action a))
       QCheck2.Gen.(list_size (int_range 0 25) text_action_gen)
       texts_are_printed)

(* Steps opened from a checkpoint carry their text from the journal: two
   threads rendering the log of a freshly opened session get the same
   text, and neither raises. *)
let concurrent_log_renders () =
  let io = Io.mem_io (Io.mem_create ()) in
  let store = Store.open_dir ~io "/v" in
  let ops = List.init 40 (Printf.sprintf "add_attribute(Person, string, 8, t%d)") in
  Store.save_session store (Util.apply_many (Util.session_of (tiny ())) ops);
  let loaded =
    match Store.load_session store with
    | Ok s -> s
    | Error e -> Alcotest.fail (Store.load_error_to_string e)
  in
  let logs = Array.make 2 (Error "not run") in
  List.init 2 (fun i ->
      Thread.create
        (fun () ->
          logs.(i) <-
            (match Core.Oplog.(render (of_session loaded)) with
            | text -> Ok text
            | exception e -> Error (Printexc.to_string e)))
        ())
  |> List.iter Thread.join;
  let expected = Printed.log (full_replay store) in
  Array.iter
    (Alcotest.(check (result string string)) "same log" (Ok expected))
    logs

(* A checkpoint that validates is trusted: the load opens from it rather
   than replaying the prefix (here it was doctored, digests recomputed, so
   the result shows which path ran) — and fsck, which does replay, flags
   it as derived damage that salvage regenerates. *)
(* The checkpoint with [body] in place of its own: every digest is kept
   but the body's, which is recomputed. *)
let replace_body io store body =
  let path = Store.checkpoint_file store in
  let header = List.hd (String.split_on_char '\n' (io.Io.read_file path)) in
  let header = String.sub header 0 (String.length header - 32) in
  io.Io.write path (header ^ Digest.to_hex (Digest.string body) ^ "\n" ^ body)

let valid_checkpoint_is_trusted () =
  let io = Io.mem_io (Io.mem_create ()) in
  let store = Store.open_dir ~io "/v" in
  let s = Util.apply_many (Util.session_of (tiny ())) [ "add_type_definition(Lab)" ] in
  Store.save_session store s;
  replace_body io store
    (Odl.Printer.schema_to_string
       (Session.workspace (Util.apply_many s [ "add_type_definition(Forged)" ])));
  (match Store.load_session store with
  | Ok loaded ->
      Alcotest.(check bool) "opened from the checkpoint" true
        (Odl.Schema.mem_interface (Session.workspace loaded) "Forged")
  | Error e -> Alcotest.fail (Store.load_error_to_string e));
  let report = Store.fsck store in
  Alcotest.(check bool) "fsck flags the mismatch as derived" true
    (List.exists
       (fun m ->
         Str_contains.contains m "checkpoint.odl"
         && Str_contains.contains m "derived; regenerated by salvage")
       report.Store.fsck_issues);
  ignore (Store.fsck ~salvage:true store);
  Alcotest.(check (list string)) "clean after salvage" []
    (Store.fsck store).Store.fsck_issues;
  match Store.load_session store with
  | Ok loaded ->
      Alcotest.(check bool) "salvage rewrote it from the journal" true
        (Odl.Schema.mem_interface (Session.workspace loaded) "Lab")
  | Error e -> Alcotest.fail (Store.load_error_to_string e)

(* The prefix replay runs only when something needs a covered step's
   impact.  Here the checkpoint vouches for a journal that does not replay
   at all (its digests were forged to match), so a forced replay would
   raise: [log] must not raise, the impact report must. *)
let log_does_not_force_the_replay () =
  let io = Io.mem_io (Io.mem_create ()) in
  let store = Store.open_dir ~io "/v" in
  Store.save_session store (Util.session_of (tiny ()));
  let log_text = "@ww delete_type_definition(Nowhere);\n" in
  io.Io.write (Store.log_file store) log_text;
  let shrink_text = io.Io.read_file (Store.shrinkwrap_file store) in
  let body = Odl.Printer.schema_to_string (tiny ()) in
  let hex s = Digest.to_hex (Digest.string s) in
  io.Io.write (Store.checkpoint_file store)
    (Printf.sprintf
       "// checkpoint 1 ops 1 bytes %d log %s shrinkwrap %s body %s\n%s"
       (String.length log_text) (hex log_text) (hex shrink_text) (hex body) body);
  match Store.load_session store with
  | Error e -> Alcotest.fail (Store.load_error_to_string e)
  | Ok s ->
      Alcotest.(check bool) "the log is served" true
        (Str_contains.contains (Core.Oplog.render (Core.Oplog.of_session s)) "Nowhere");
      Alcotest.(check bool) "an impact report forces the replay" true
        (match Session.impact_report s with
        | _ -> false
        | exception Failure _ -> true)

(* Published sessions are read from many threads at once; the memoized
   prefix replay must serve them all (OCaml's [Lazy] would raise). *)
let concurrent_impact_reports () =
  let io = Io.mem_io (Io.mem_create ()) in
  let store = Store.open_dir ~io "/v" in
  let ops = List.init 40 (Printf.sprintf "add_attribute(Person, string, 8, t%d)") in
  Store.save_session store (Util.apply_many (Util.session_of (tiny ())) ops);
  let loaded =
    match Store.load_session store with
    | Ok s -> s
    | Error e -> Alcotest.fail (Store.load_error_to_string e)
  in
  let reports = Array.make 4 "" in
  List.init 4 (fun i ->
      Thread.create (fun () -> reports.(i) <- Session.impact_report loaded) ())
  |> List.iter Thread.join;
  let expected = Session.impact_report (full_replay store) in
  Array.iter (Alcotest.(check string) "same impact report" expected) reports

(* Undo past the newest [undo_depth] index versions rebuilds them from a
   replay of the log, and a checkpointed session undoes into its prefix
   the same way: both match a session that replayed everything. *)
let bounded_undo () =
  let ops =
    List.init (Session.undo_depth + 8)
      (Printf.sprintf "add_attribute(Person, string, 8, u%d)")
  in
  let live = Util.apply_many (Util.session_of (tiny ())) ops in
  let io = Io.mem_io (Io.mem_create ()) in
  let store = Store.open_dir ~io "/v" in
  Store.save_session store live;
  let rec undo s n = if n = 0 then s else undo (Option.get (Session.undo s)) (n - 1) in
  let rec redo s n =
    if n = 0 then s else redo (fst (Option.get (Session.redo s))) (n - 1)
  in
  let deep = Session.undo_depth + 1 in
  (* the oracle for the state [d] undos deep: the first [n - d] ops
     replayed from scratch *)
  let replayed k =
    match Core.Oplog.replay (tiny ()) (List.filteri (fun i _ -> i < k) (pairs live)) with
    | Ok s -> Session.workspace s
    | Error e -> Alcotest.fail (Core.Apply.error_to_string e)
  in
  let n = List.length ops in
  let check label s reference =
    for d = 0 to n do
      Alcotest.(check bool) (Printf.sprintf "%s: %d undo(s)" label d) true
        (Odl.Types.equal_schema (Session.workspace (undo s d)) (replayed (n - d)))
    done;
    Alcotest.(check bool) (label ^ ": redone state") true
      (Odl.Types.equal_schema (Session.workspace (redo (undo s deep) deep)) (replayed n));
    Alcotest.(check (option string)) (label ^ ": whole chain") None
      (differences s reference)
  in
  (match Core.Oplog.replay (tiny ()) (pairs live) with
  | Ok reference -> check "live session" live reference
  | Error e -> Alcotest.fail (Core.Apply.error_to_string e));
  match Store.load_session store with
  | Ok loaded -> check "checkpointed session" loaded (full_replay store)
  | Error e -> Alcotest.fail (Store.load_error_to_string e)

(* Published sessions are read from many threads at once; the prefix ops,
   parsed on first demand, must serve them all (OCaml's [Lazy] would
   raise on a concurrent force). *)
let concurrent_prefix_ops () =
  let io = Io.mem_io (Io.mem_create ()) in
  let store = Store.open_dir ~io "/v" in
  let ops = List.init 60 (Printf.sprintf "add_attribute(Person, string, 8, t%d)") in
  Store.save_session store (Util.apply_many (Util.session_of (tiny ())) ops);
  let loaded =
    match Store.load_session store with
    | Ok s -> s
    | Error e -> Alcotest.fail (Store.load_error_to_string e)
  in
  let got = Array.make 4 [] in
  List.init 4 (fun i ->
      Thread.create
        (fun () -> got.(i) <- Core.Oplog.pairs (Core.Oplog.of_session loaded))
        ())
  |> List.iter Thread.join;
  let expected = pairs (full_replay store) in
  Array.iter
    (fun p -> Alcotest.(check bool) "same op pairs" true (same_pairs expected p))
    got

(* The open reads only what differs from the shrink wrap: every workspace
   interface the variant left alone is the shrink wrap's own value, with
   and without a base, and the session answers as the full replay. *)
let open_shares_unchanged_interfaces () =
  let u = Util.university () in
  let live =
    Util.apply_many (Util.session_of u)
      [ "add_attribute(Person, string, 8, nick)"; "add_type_definition(Lab)" ]
  in
  let io = Io.mem_io (Io.mem_create ()) in
  let store = Store.open_dir ~io "/v" in
  Store.save_session store live;
  List.iter
    (fun (label, base) ->
      match Store.load_session (Util.on_base base store) with
      | Error e -> Alcotest.fail (Store.load_error_to_string e)
      | Ok loaded ->
          let shrink = Session.original loaded in
          List.iter
            (fun (i : Odl.Types.interface) ->
              let shared =
                List.exists (fun j -> j == i) shrink.Odl.Types.s_interfaces
              in
              let expected = i.i_name <> "Person" && i.i_name <> "Lab" in
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s shared" label i.i_name) expected shared)
            (Session.workspace loaded).s_interfaces;
          Alcotest.(check (option string)) (label ^ ": = full replay") None
            (differences loaded (full_replay store)))
    [ ("without a base", None); ("on the base", Some (university_base ())) ]

(* A snapshot writes [shrinkwrap.odl] and [aliases.map] only when their
   bytes changed, and [custom.odl], a deliverable, never: a second detach
   of an unchanged session rewrites the journal, the checkpoint and the
   manifest alone, and the repository stays fsck-clean. *)
let snapshot_skips_unchanged_artifacts () =
  let m = Io.mem_create () in
  let written = ref [] in
  let base_io = Io.mem_io m in
  let io =
    { base_io with
      Io.rename =
        (fun src dst ->
          written := Filename.basename dst :: !written;
          base_io.Io.rename src dst) }
  in
  let repo =
    match Repo.init ~io "/repo" (Util.university ()) with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let session =
    Util.apply_many (Util.session_of (Util.university ()))
      [ "add_attribute(Person, string, 8, nick)" ]
  in
  let session =
    match Session.add_alias session (Core.Aliases.For_interface "Person") "Human" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let save () =
    written := [];
    (match Repo.save_variant repo "v" session with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    List.sort compare !written
  in
  Alcotest.(check (list string)) "first snapshot writes every artifact"
    [ "aliases.map"; "checkpoint.odl"; "log.ops"; "manifest";
      "shrinkwrap.odl" ]
    (save ());
  Alcotest.(check (list string)) "an unchanged snapshot skips two"
    [ "checkpoint.odl"; "log.ops"; "manifest" ] (save ());
  let store = Repo.variant_store repo "v" in
  Alcotest.(check (list string)) "fsck clean" [] (Store.fsck store).Store.fsck_issues;
  match Repo.open_variant repo "v" with
  | Ok s ->
      Alcotest.(check (option string)) "reopens as saved" None (differences s session)
  | Error e -> Alcotest.fail (Repo.open_error_to_string e)

(* Fsync only what recovery needs.  A new variant fsyncs its shrink wrap
   and manifest — no empty journal, no empty local names, no checkpoint
   of nothing, no custom schema (a deliverable).  A detach whose local
   names did not change fsyncs the checkpoint and the manifest: the
   journal is checkpointed as it stands, [@undo;] records and all. *)
let fsyncs_per_create_and_detach () =
  let fsynced = ref [] in
  let mem = Io.mem_io (Io.mem_create ()) in
  let io =
    Io.locked
      { mem with
        Io.fsync =
          (fun p ->
            let name = Filename.basename p in
            fsynced :=
              Option.value ~default:name
                (Filename.chop_suffix_opt ~suffix:Io.tmp_suffix name)
              :: !fsynced;
            mem.Io.fsync p) }
  in
  let fsyncs f =
    fsynced := [];
    f ();
    List.sort compare !fsynced
  in
  let repo =
    match Repo.init ~io "/repo" (tiny ()) with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list string)) "create_variant: two fsyncs"
    [ "manifest"; "shrinkwrap.odl" ]
    (fsyncs (fun () ->
         match Repo.create_variant repo "v" with
         | Ok _ -> ()
         | Error e -> Alcotest.fail e));
  let vdir = "/repo/variants/v" in
  Alcotest.(check (list string)) "a fresh variant is those two files"
    [ "manifest"; "shrinkwrap.odl" ]
    (io.Io.readdir vdir);
  let t = service io in
  let c = Service.connect t in
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c (apply "first"));
  Alcotest.(check (list string)) "a detach that changed the workspace"
    [ "checkpoint.odl"; "manifest" ]
    (fsyncs (fun () -> ignore (req_ok t c "@close")));
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c (apply "second"));
  ignore (req_ok t c "undo");
  Alcotest.(check (list string)) "a detach with the workspace unchanged"
    [ "checkpoint.odl"; "manifest" ]
    (fsyncs (fun () -> ignore (req_ok t c "@close")));
  Alcotest.(check bool) "the covered journal keeps its undo record" true
    (Str_contains.contains (io.Io.read_file (vdir ^ "/log.ops")) "@undo;");
  ignore (Service.shutdown t);
  let store = Repo.variant_store repo "v" in
  Alcotest.(check (list string)) "fsck clean" [] (Store.fsck store).Store.fsck_issues;
  Alcotest.(check (list string)) "reopens with the first op only" [ "add_attribute(Person, string, 8, first)" ]
    (ops_of_log io)

(* A snapshot after a failed flush does not take the journal as it
   stands: the writer's durable session lacks the session's last op, and
   here the append that failed wrote nothing while the session had
   already applied its op.  The reaper takes the writer lock while that
   flush is in flight, so its snapshot drains the lane before the failed
   writer can evict the session.  It rewrites the journal from the session: the
   variant fscks clean and reopens as the session, the unacknowledged op
   durable, as the ack contract allows (ack implies durable, not the
   reverse).  Checkpointing the journal as it stood would have left a
   checkpoint one op ahead of the records it covers. *)
let snapshot_after_a_failed_flush () =
  let failing = Atomic.make false
  and entered = Atomic.make false
  and go = Atomic.make false in
  let mem = Io.locked (Io.mem_io (Io.mem_create ())) in
  let io =
    { mem with
      Io.append =
        (fun p data ->
          if Atomic.get failing && Filename.basename p = "log.ops" then begin
            Atomic.set entered true;
            while not (Atomic.get go) do Thread.delay 0.001 done;
            raise (Sys_error (p ^ ": injected: the append wrote nothing"))
          end;
          mem.Io.append p data) }
  in
  (match Result.bind (Repo.init ~io "/repo" (tiny ())) (fun repo ->
       Result.map ignore (Repo.create_variant repo "v"))
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let t =
    match
      Service.open_service ~io "/repo"
        ~config:
          { config with
            Service.idle_timeout = 0.0;
            retry = { config.Service.retry with Server.Retry.max_attempts = 1 } }
    with
    | Ok t -> t
    | Error m -> Alcotest.fail m
  in
  let c = Service.connect t in
  ignore (req_ok t c "@open v");
  ignore (req_ok t c "focus ww:Person");
  ignore (req_ok t c (apply "kept"));
  Atomic.set failing true;
  let answer = ref "" in
  let writer =
    Thread.create
      (fun () -> answer := Protocol.to_string (Service.request t c (apply "doomed")))
      ()
  in
  while not (Atomic.get entered) do Thread.delay 0.001 done;
  let releaser = Thread.create (fun () -> Thread.delay 0.2; Atomic.set go true) () in
  let reaped = Service.reap_idle t in
  Thread.join releaser;
  Thread.join writer;
  Atomic.set failing false;
  Alcotest.(check bool) "the write was not acknowledged" true
    (Str_contains.contains !answer "persistence failed");
  Alcotest.(check int) "the reaper snapshotted the live session" 1 reaped;
  ignore (Service.shutdown t);
  Alcotest.(check (list string)) "fsck clean" []
    (Store.fsck (Store.open_dir ~io "/repo/variants/v")).Store.fsck_issues;
  Alcotest.(check (list string)) "reopens as the snapshotted session"
    [ "add_attribute(Person, string, 8, kept)";
      "add_attribute(Person, string, 8, doomed)" ]
    (ops_of_log io)

(* The open does not parse the records its checkpoint covers: one whose
   text does not parse (log.ops and the checkpoint header altered
   together, digests recomputed) is not seen at the load.  The log is
   served from the texts; the first op asked of the prefix raises, and
   fsck, which parses the whole journal, reports the record. *)
(* The journal's first record made unparsable, with the checkpoint
   header's journal length and digest recomputed to match. *)
let forge_first_record io store =
  let log_text = io.Io.read_file (Store.log_file store) in
  let log_text =
    "@ww frobnicate(Lab;\n"
    ^ String.concat "\n" (List.tl (String.split_on_char '\n' log_text))
  in
  io.Io.write (Store.log_file store) log_text;
  let path = Store.checkpoint_file store in
  let text = io.Io.read_file path in
  let i = String.index text '\n' in
  let hex s = Digest.to_hex (Digest.string s) in
  let header =
    Scanf.sscanf (String.sub text 0 i)
      "// checkpoint 1 ops %d bytes %d log %s shrinkwrap %s body %s"
      (fun ops _ _ shrink body ->
        Printf.sprintf "// checkpoint 1 ops %d bytes %d log %s shrinkwrap %s body %s"
          ops (String.length log_text) (hex log_text) shrink body)
  in
  io.Io.write path (header ^ String.sub text i (String.length text - i))

let unparsable_prefix_record_surfaces_later () =
  let io = Io.mem_io (Io.mem_create ()) in
  let store = Store.open_dir ~io "/v" in
  Store.save_session store
    (Util.apply_many (Util.session_of (tiny ()))
       [ "add_type_definition(Lab)"; "add_type_definition(Room)" ]);
  forge_first_record io store;
  (match Store.load_session store with
  | Error e -> Alcotest.fail (Store.load_error_to_string e)
  | Ok s ->
      Alcotest.(check bool) "the log is served from the texts" true
        (Str_contains.contains (Core.Oplog.render (Core.Oplog.of_session s))
           "frobnicate");
      let raises f = match f () with _ -> false | exception Failure _ -> true in
      Alcotest.(check bool) "the first op asked of the prefix raises" true
        (raises (fun () -> Session.step_op (List.hd (Session.log s))));
      Alcotest.(check bool) "and so does the impact report" true
        (raises (fun () -> Session.impact_report s)));
  let report = Store.fsck store in
  Alcotest.(check bool) "fsck reports log.ops damage" true
    ((not report.Store.fsck_derived_only)
    && List.exists
         (fun m -> String.starts_with ~prefix:"log.ops: line 1" m)
         report.Store.fsck_issues)

(* The load parses the journal once, from the checkpoint's offset, and
   repairs a torn tail there before it knows whether the checkpoint
   serves: here an [@undo;] after the checkpoint pops into its prefix, so
   the journal is replayed, and log.ops is still written back once.  A
   corrupt record after the checkpoint is reported at its journal line. *)
let journal_after_checkpoint_parsed_once () =
  let m = Io.mem_create () in
  let base_io = Io.mem_io m in
  let log_writes = ref 0 in
  let io =
    { base_io with
      Io.rename =
        (fun src dst ->
          if Filename.basename dst = "log.ops" then incr log_writes;
          base_io.Io.rename src dst) }
  in
  let store = Store.open_dir ~io "/v" in
  Store.save_session store
    (Util.apply_many (Util.session_of (tiny ()))
       [ "add_type_definition(Lab)"; "add_type_definition(Room)" ]);
  let saved = io.Io.read_file (Store.log_file store) in
  io.Io.append (Store.log_file store) "@undo;\n@ww add_type_defin";
  log_writes := 0;
  (match Store.load_session store with
  | Error e -> Alcotest.fail (Store.load_error_to_string e)
  | Ok loaded ->
      Alcotest.(check int) "log.ops written back once" 1 !log_writes;
      Alcotest.(check string) "the surviving records" (saved ^ "@undo;\n")
        (io.Io.read_file (Store.log_file store));
      Alcotest.(check (option string)) "= full replay" None
        (differences loaded (full_replay store)));
  io.Io.append (Store.log_file store) "frobnicate the journal\n";
  match Store.load_session store with
  | Ok _ -> Alcotest.fail "a corrupt record loaded"
  | Error e ->
      Alcotest.(check bool) "reported at its journal line" true
        (Str_contains.contains (Store.load_error_to_string e) "log.ops is damaged: line 4:")


(* --- the [log] reply, rendered incrementally ------------------------------- *)

(* [Oplog.render_session] extends the lineage's last rendering; the
   reference renders the whole log. *)
let log_reply_differs s =
  let expected = Core.Oplog.render (Core.Oplog.of_session s) in
  let got = Core.Oplog.render_session s in
  if String.equal got expected then None
  else Some (Printf.sprintf "log reply %S, expected %S" got expected)

type log_action =
  | L_op of Core.Concept.kind * Core.Modop.t
  | L_undo
  | L_redo
  | L_log
  | L_merge of (Core.Concept.kind * Core.Modop.t) list
      (** a branch takes these ops, the base one more; the branch merges *)
  | L_reopen  (** full save, then the open from the checkpoint *)

let log_action_gen =
  let open QCheck2.Gen in
  let op = pair Gen.concept_kind (Gen.plausible_op (Util.university ())) in
  frequency
    [
      (5, map (fun (k, o) -> L_op (k, o)) op);
      (3, return L_undo);
      (1, return L_redo);
      (4, return L_log);
      (1, map (fun ops -> L_merge ops) (list_size (int_range 1 3) op));
      (1, return L_reopen);
    ]

let print_log_actions actions =
  let show = function
    | L_op (k, o) -> Journal.entry_to_line (Journal.Op (k, o))
    | L_undo -> "undo"
    | L_redo -> "redo"
    | L_log -> "log"
    | L_merge ops ->
        "merge ["
        ^ String.concat " " (List.map (fun (k, o) -> Journal.entry_to_line (Journal.Op (k, o))) ops)
        ^ "]"
    | L_reopen -> "reopen"
  in
  String.concat "  " (List.map show actions)

let apply_all s ops =
  List.fold_left
    (fun s (kind, op) ->
      match Session.apply s ~kind op with Ok (s, _) -> s | Error _ -> s)
    s ops

let log_reply_is_the_render =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"the incremental log reply = the whole render"
       ~count:100 ~long_factor:10 ~print:print_log_actions
       QCheck2.Gen.(list_size (int_range 0 30) log_action_gen)
       (fun actions ->
         let store = Store.open_dir ~io:(Io.mem_io (Io.mem_create ())) "/v" in
         let check s =
           match log_reply_differs s with
           | None -> ()
           | Some m -> QCheck2.Test.fail_report m
         in
         let final =
           List.fold_left
             (fun s -> function
               | L_op (kind, op) -> apply_all s [ (kind, op) ]
               | L_undo -> Option.value (Session.undo s) ~default:s
               | L_redo -> Option.fold ~none:s ~some:fst (Session.redo s)
               | L_log ->
                   check s;
                   s
               | L_merge ops ->
                   (* branch and base share the lineage's cell *)
                   let branch = apply_all s ops in
                   let base = apply_all s [ List.hd ops ] in
                   check branch;
                   check base;
                   let merged =
                     (Core.Oplog.rebase ~base
                        ~branch_ops:(Core.Oplog.branch_entries ~base ~branch))
                       .r_session
                   in
                   check merged;
                   merged
               | L_reopen -> (
                   Store.save_session store s;
                   match Store.load_session store with
                   | Ok s -> s
                   | Error e ->
                       QCheck2.Test.fail_report (Store.load_error_to_string e)))
             (Util.session_of (Util.university ()))
             actions
         in
         check final;
         true))

(* Published sessions are read from many threads: four render the log of
   one opened session and of one derived from it, over and over, each
   checking its own spine against the shared cell. *)
let concurrent_log_replies () =
  let io = Io.mem_io (Io.mem_create ()) in
  let store = Store.open_dir ~io "/v" in
  let ops = List.init 60 (Printf.sprintf "add_attribute(Person, string, 8, t%d)") in
  Store.save_session store (Util.apply_many (Util.session_of (tiny ())) ops);
  let opened =
    match Store.load_session store with
    | Ok s -> s
    | Error e -> Alcotest.fail (Store.load_error_to_string e)
  in
  let sessions =
    [| opened;
       Util.apply_many opened [ "add_attribute(Person, string, 8, later)" ];
       Option.get (Session.undo opened) |]
  in
  let expected = Array.map (fun s -> Core.Oplog.render (Core.Oplog.of_session s)) sessions in
  let wrong = Atomic.make 0 in
  List.init 4 (fun i ->
      Thread.create
        (fun () ->
          for k = 0 to 199 do
            let j = (i + k) mod Array.length sessions in
            if Core.Oplog.render_session sessions.(j) <> expected.(j) then
              Atomic.incr wrong
          done)
        ())
  |> List.iter Thread.join;
  Alcotest.(check int) "every reply is the whole render" 0 (Atomic.get wrong)

(* Two variants opened from one repository base never share a cell, nor
   with the base: the base's stays empty whatever the variants render. *)
let variants_keep_their_own_log =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"two variants of one base render their own logs"
       ~count:50 ~long_factor:10
       QCheck2.Gen.(
         pair
           (Gen.op_sequence ~max_len:6 (Util.university ()))
           (Gen.op_sequence ~max_len:6 (Util.university ())))
       (fun (ops_a, ops_b) ->
         let io = Io.mem_io (Io.mem_create ()) in
         let repo = Result.get_ok (Repo.init ~io "/r" (Util.university ())) in
         let base = Option.get (Repo.base repo) in
         List.iter
           (fun (v, ops) ->
             let fresh = Result.get_ok (Repo.create_variant repo v) in
             Result.get_ok (Repo.save_variant repo v (apply_all fresh ops)))
           [ ("a", ops_a); ("b", ops_b); ("c", []) ];
         let opened v = Result.get_ok (Repo.open_variant repo v) in
         let a = opened "a" and b = opened "b" and c = opened "c" in
         let cells = List.map Session.log_text [ base.b_session; a; b; c ] in
         let rec distinct = function
           | [] -> true
           | x :: rest -> List.for_all (fun y -> x != y) rest && distinct rest
         in
         if not (distinct cells) then QCheck2.Test.fail_report "a cell is shared";
         let c = apply_all c [ (Core.Concept.Wagon_wheel, Util.parse_op "add_type_definition(Cq)") ] in
         List.iter
           (fun s ->
             match log_reply_differs s with
             | None -> ()
             | Some m -> QCheck2.Test.fail_report m)
           [ a; b; c; a; b; c ];
         (Atomic.get (Session.log_text base.b_session)).lt_text = ""))

(* A checkpoint whose body is the whole workspace printed, as snapshots
   wrote it before bodies named the unchanged interfaces, still serves:
   every chunk is parsed and prints back to its bytes.  The open equals
   the full replay, with and without a base, and fsck reports the store
   clean.  That the open took the checkpoint shows once a covered record
   is forged unparsable (the journal digests recomputed): the walk would
   report it, the open from the checkpoint does not parse it. *)
let whole_printed_body_serves () =
  let io = Io.mem_io (Io.mem_create ()) in
  let store = Store.open_dir ~io "/v" in
  let live =
    Util.apply_many (Util.session_of (Util.university ()))
      [ "add_attribute(Person, string, 8, nick)"; "add_type_definition(Lab)" ]
  in
  Store.save_session store live;
  replace_body io store (Odl.Printer.schema_to_string (Session.workspace live));
  List.iter
    (fun (label, base) ->
      match Store.load_session (Util.on_base base store) with
      | Error e -> Alcotest.fail (Store.load_error_to_string e)
      | Ok loaded ->
          let reference = full_replay store in
          Alcotest.(check (option string)) (label ^ ": = full replay") None
            (differences loaded reference);
          Alcotest.(check (option string)) (label ^ ": same ops") None
            (ops_differences loaded reference))
    [ ("without a base", None); ("on the base", Some (university_base ())) ];
  Alcotest.(check (list string)) "fsck clean" []
    (Store.fsck store).Store.fsck_issues;
  forge_first_record io store;
  match Store.load_session store with
  | Ok s ->
      Alcotest.(check bool) "opened from the checkpoint" true
        (Odl.Schema.mem_interface (Session.workspace s) "Lab")
  | Error e ->
      Alcotest.failf "the open walked the journal: %s"
        (Store.load_error_to_string e)

let tests =
  [
    test "redo is lost across @close/@open (undo chain survives)"
      redo_lost_across_snapshot;
    test "redo is lost across shutdown/restart" redo_lost_across_shutdown;
    test "a torn @undo; tail is dropped on replay, then journalling resumes"
      torn_undo_tail;
    checkpoint_equals_replay;
    test "a checkpoint that validates is opened from, and fsck checks it"
      valid_checkpoint_is_trusted;
    test "undo past the kept index versions matches a full replay" bounded_undo;
    test "log never forces the prefix replay; impact does"
      log_does_not_force_the_replay;
    test "concurrent readers share one prefix replay" concurrent_impact_reports;
    op_texts_are_printed;
    test "two threads render a freshly opened log alike" concurrent_log_renders;
    test "four threads force the prefix ops alike" concurrent_prefix_ops;
    test "the open shares the interfaces the variant left alone"
      open_shares_unchanged_interfaces;
    test "a snapshot writes only the artifacts whose bytes changed"
      snapshot_skips_unchanged_artifacts;
    test "create fsyncs two files, an unchanged detach two"
      fsyncs_per_create_and_detach;
    test "a snapshot after a failed flush rewrites the journal"
      snapshot_after_a_failed_flush;
    test "a covered record that does not parse surfaces at its first op"
      unparsable_prefix_record_surfaces_later;
    test "the journal after a checkpoint is parsed and repaired once"
      journal_after_checkpoint_parsed_once;
    log_reply_is_the_render;
    test "four threads reply to log alike" concurrent_log_replies;
    variants_keep_their_own_log;
    test "a checkpoint body printed whole still serves the open and fsck"
      whole_printed_body_serves;
  ]
