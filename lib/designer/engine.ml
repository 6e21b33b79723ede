(** The interactive schema designer's engine: interprets commands against a
    design session and produces feedback.  The REPL in [bin/swsd.ml] is a
    read/print loop around {!exec_line}; keeping the engine pure makes the
    designer fully testable.  {!exec} journals nothing; {!exec_line} journals
    each command's session delta through a [Repository.Store.writer]. *)

module Session = Core.Session

type state = {
  session : Session.t;
  focus : string option;  (** focused concept schema id *)
  reviewed : string list;  (** concept schemas already considered *)
  store : Objects.Store.t option;
      (** instance data under the shrink wrap schema, for data impact *)
  finished : bool;
}

let start session =
  { session; focus = None; reviewed = []; store = None; finished = false }

(* what migrating the loaded data onto [schema] would drop *)
let data_impact state schema =
  match state.store with
  | None -> []
  | Some store ->
      let migrated, report = Objects.Migrate.migrate store ~custom:schema in
      let residual = Objects.Migrate.residual_problems migrated in
      (if report = [] then []
       else
         [
           Feedback.caution
             (Printf.sprintf "data impact: %d value/object drop(s) when migrating the loaded data"
                (List.length report));
         ])
      @
      if residual = [] then []
      else
        [
          Feedback.caution
            (Printf.sprintf
               "data impact: %d object(s) would need manual completion"
               (List.length residual));
        ]

let concept_line (c : Core.Concept.t) =
  Printf.sprintf "%-24s %-26s %d type(s)" c.c_id
    (Core.Concept.kind_name c.c_kind)
    (List.length c.c_members)

(* Look the concept up in the decomposition of the current workspace so
   customizations are visible, falling back to the original decomposition
   for concepts the customization removed; the tag says which one answered,
   and so which schema the concept must be rendered against. *)
let find_concept state id =
  let s = state.session in
  match Session.find_current_concept s id with
  | Some c -> Some (c, `Workspace)
  | None -> Option.map (fun c -> (c, `Original)) (Session.find_concept s id)

let focused_kind state =
  match state.focus with
  | None -> None
  | Some id ->
      Option.map (fun (c, _) -> c.Core.Concept.c_kind) (find_concept state id)

(* [show]/[explain]: render the named (or focused) concept schema against
   the schema it was found in. *)
let describe state id_opt ~verb render =
  let id = match id_opt with Some id -> Some id | None -> state.focus in
  match id with
  | None -> [ Feedback.error ("nothing focused; " ^ verb ^ " <concept-id>") ]
  | Some id -> (
      match find_concept state id with
      | Some (c, `Workspace) ->
          [ Feedback.output (render (Session.workspace state.session) c) ]
      | Some (c, `Original) ->
          [
            Feedback.info
              (id ^ " no longer exists in the workspace; shown as in the \
                     shrink wrap schema");
            Feedback.output (render (Session.original state.session) c);
          ]
      | None -> [ Feedback.error ("no concept schema named " ^ id) ])

let apply_feedback events =
  List.map (fun e -> Feedback.info (Core.Change.event_to_string e)) events

let do_apply state op =
  match focused_kind state with
  | None ->
      ( state,
        [ Feedback.error "no concept schema focused; use: focus <concept-id>" ] )
  | Some kind -> (
      let cautions =
        Repository.Knowledge.cautions_indexed (Session.index state.session) op
        |> List.map Feedback.caution
      in
      match Session.apply state.session ~kind op with
      | Ok (session, events) ->
          (* the step the apply just pushed carries the op's text *)
          let applied = List.hd (Session.steps_rev session) in
          ( { state with session },
            Feedback.info ("applied " ^ applied.Session.st_text)
            :: (cautions @ apply_feedback events
               @ data_impact state (Session.workspace session)) )
      | Error e ->
          let suggestions =
            Core.Advisor.suggest_text
              ~original:(Session.original state.session)
              (Session.workspace state.session)
              kind op e
            |> List.map Feedback.info
          in
          (state, Feedback.error (Core.Apply.error_to_string e) :: suggestions))

let do_preview state op =
  match focused_kind state with
  | None ->
      ( state,
        [ Feedback.error "no concept schema focused; use: focus <concept-id>" ] )
  | Some kind -> (
      let cautions =
        Repository.Knowledge.cautions_indexed (Session.index state.session) op
        |> List.map Feedback.caution
      in
      match Session.preview state.session ~kind op with
      | Ok events ->
          ( state,
            Feedback.info ("previewing " ^ Core.Op_printer.to_string op)
            :: (cautions @ apply_feedback events) )
      | Error e -> (state, [ Feedback.error (Core.Apply.error_to_string e) ]))

let do_plan state op =
  match focused_kind state with
  | None ->
      ( state,
        [ Feedback.error "no concept schema focused; use: focus <concept-id>" ] )
  | Some kind -> (
      let original = Session.original state.session in
      let workspace = Session.workspace state.session in
      match Core.Apply.apply ~original ~kind workspace op with
      | Ok _ ->
          (state, [ Feedback.info "the operation applies as is; no plan needed" ])
      | Error e -> (
          match Core.Advisor.repair_plan ~original workspace kind op with
          | Some steps ->
              ( state,
                Feedback.info
                  (Printf.sprintf "plan (%d steps) repairing: %s"
                     (List.length steps)
                     (Core.Apply.error_to_string e))
                :: List.map
                     (fun (k, o) ->
                       Feedback.output
                         (Printf.sprintf "  [%s] %s" (Core.Concept.kind_name k)
                            (Core.Op_printer.to_string o)))
                     steps )
          | None ->
              ( state,
                Feedback.error (Core.Apply.error_to_string e)
                :: List.map Feedback.info
                     (Core.Advisor.suggest_text ~original workspace kind op e) )))

let same_dir a b =
  a = b
  || try Unix.realpath a = Unix.realpath b with Unix.Unix_error _ -> false

(* [save DIR]: the session, its deliverables (custom schema, reports) and
   any loaded data.  Into the [writer]'s own directory it is the writer's
   exit save, {!Repository.Store.close}, which knows what the journal
   holds; elsewhere it is a full save, on the writer's IO. *)
let save_to ?writer dir state =
  let module Store = Repository.Store in
  let guard f = match f () with v -> Ok v | exception Sys_error m -> Error m in
  let saved =
    match writer with
    | Some w when same_dir dir (Store.dir (Store.writer_store w)) ->
        Result.map (fun () -> Store.writer_store w) (Store.close w state.session)
    | _ ->
        guard (fun () ->
            let repo = Store.open_dir ?io:(Option.map Store.writer_io writer) dir in
            Store.save_session repo state.session;
            Store.save_reports repo state.session;
            repo)
  in
  Result.bind saved (fun repo ->
      guard (fun () ->
          Option.iter
            (fun store ->
              (Store.io repo).write
                (Filename.concat dir "data.objs")
                (Objects.Serial.to_string store))
            state.store))

let save_feedback dir = function
  | Ok () -> [ Feedback.info ("session saved to " ^ dir) ]
  | Error m -> [ Feedback.error ("could not save to " ^ dir ^ ": " ^ m) ]

(* With a [writer], each line of a [source]d script is journalled as
   [exec_line] journals a typed one, so a [save] among them is seen. *)
let rec exec_with ?writer state (cmd : Command.t) =
  let workspace = Session.workspace state.session in
  match cmd with
  | Concepts ->
      let lines =
        Session.current_concepts state.session |> List.map concept_line
      in
      (state, List.map Feedback.output lines)
  | Focus id -> (
      match find_concept state id with
      | Some (c, _) ->
          ( {
              state with
              focus = Some id;
              reviewed =
                (if List.mem id state.reviewed then state.reviewed
                 else id :: state.reviewed);
            },
            [
              Feedback.info
                (Printf.sprintf "focused %s (%s)" id
                   (Core.Concept.kind_name c.c_kind));
            ] )
      | None -> (state, [ Feedback.error ("no concept schema named " ^ id) ]))
  | Show id_opt -> (state, describe state id_opt ~verb:"show" Core.Render.concept)
  | Odl name -> (
      match Odl.Schema.find_interface workspace name with
      | Some i -> (state, [ Feedback.output (Odl.Printer.interface_to_string i) ])
      | None -> (state, [ Feedback.error ("no interface named " ^ name) ]))
  | Print_schema ->
      (state, [ Feedback.output (Odl.Printer.schema_to_string workspace) ])
  | Summary ->
      ( state,
        [
          Feedback.output
            (Core.Render.inventory workspace.s_name
               (Core.Schema_index.counts (Session.index state.session)));
        ] )
  | Apply op -> do_apply state op
  | Preview op -> do_preview state op
  | Plan op -> do_plan state op
  | Undo -> (
      match Session.undo state.session with
      | Some session ->
          ( { state with session },
            [
              Feedback.info
                (Printf.sprintf "reverted last operation (%d redoable)"
                   (Session.redoable session));
            ] )
      | None -> (state, [ Feedback.error "nothing to undo" ]))
  | Redo -> (
      match Session.redo state.session with
      | Some (session, events) ->
          ( { state with session },
            Feedback.info "re-applied" :: apply_feedback events )
      | None -> (state, [ Feedback.error "nothing to redo" ]))
  | Source path -> (
      match In_channel.with_open_text path In_channel.input_all with
      | exception Sys_error m -> (state, [ Feedback.error m ])
      | contents ->
          let lines =
            String.split_on_char '\n' contents
            |> List.map String.trim
            |> List.filter (fun l ->
                   l <> "" && not (String.length l >= 1 && l.[0] = '#'))
          in
          List.fold_left
            (fun (st, fb) line ->
              let st, fb' = exec_line ?writer st line in
              (st, fb @ (Feedback.info ("> " ^ line) :: fb')))
            (state, []) lines)
  | Check ->
      (state, [ Feedback.output (Session.consistency_report_text state.session) ])
  | Quality -> (state, [ Feedback.output (Core.Quality.report workspace) ])
  | Load_data path -> (
      match In_channel.with_open_text path In_channel.input_all with
      | exception Sys_error m -> (state, [ Feedback.error m ])
      | text -> (
          match
            Objects.Serial.of_string (Session.original state.session) text
          with
          | exception Objects.Serial.Bad_store m ->
              (state, [ Feedback.error m ])
          | store ->
              let problems = Objects.Check.check store in
              ( { state with store = Some store },
                Feedback.info
                  (Printf.sprintf "loaded %d object(s)"
                     (Objects.Store.count store))
                :: List.map
                     (fun p -> Feedback.caution (Objects.Check.to_string p))
                     problems )))
  | Migrate_data -> (
      match state.store with
      | None -> (state, [ Feedback.error "no data loaded; use: data <file>" ])
      | Some store ->
          let migrated, report =
            Objects.Migrate.migrate store ~custom:workspace
          in
          ( state,
            List.map
              (fun d -> Feedback.info ("dropped: " ^ Objects.Migrate.to_string d))
              report
            @ List.map
                (fun p ->
                  Feedback.caution
                    ("needs completion: " ^ Objects.Check.to_string p))
                (Objects.Migrate.residual_problems migrated)
            @ [ Feedback.output (Objects.Serial.to_string migrated) ] ))
  | Query src -> (
      match state.store with
      | None -> (state, [ Feedback.error "no data loaded; use: data <file>" ])
      | Some store -> (
          match Objects.Query.query store src with
          | exception Objects.Query.Bad_query m -> (state, [ Feedback.error m ])
          | [] -> (state, [ Feedback.info "no matches" ])
          | objs ->
              ( state,
                List.map
                  (fun (o : Objects.Store.obj) ->
                    Feedback.output (Printf.sprintf "@%d : %s" o.o_id o.o_type))
                  objs )))
  | Todo ->
      (* the paper's process: the designer considers the concept schemas one
         by one; this lists the ones not yet visited *)
      let pending =
        Session.current_concepts state.session
        |> List.filter (fun c ->
               not (List.mem c.Core.Concept.c_id state.reviewed))
      in
      if pending = [] then
        (state, [ Feedback.info "every concept schema has been considered" ])
      else
        ( state,
          Feedback.info
            (Printf.sprintf "%d concept schema(s) not yet considered:"
               (List.length pending))
          :: List.map (fun c -> Feedback.output (concept_line c)) pending )
  | Mapping -> (state, [ Feedback.output (Session.mapping_report state.session) ])
  | Impact -> (state, [ Feedback.output (Session.impact_report state.session) ])
  | Custom name ->
      ( state,
        [
          Feedback.output
            (Odl.Printer.schema_to_string (Session.custom_schema ?name state.session));
        ] )
  | Explain id_opt ->
      (state, describe state id_opt ~verb:"explain" Core.Explain.concept_text)
  | Alias (canonical, local) -> (
      let target = Core.Aliases.target_of_string canonical in
      match Session.add_alias state.session target local with
      | Ok session ->
          ( { state with session },
            [ Feedback.info (Printf.sprintf "%s is locally known as %s" canonical local) ]
          )
      | Error m -> (state, [ Feedback.error m ]))
  | Unalias canonical ->
      let target = Core.Aliases.target_of_string canonical in
      ( { state with session = Session.remove_alias state.session target },
        [ Feedback.info ("local name of " ^ canonical ^ " dropped") ] )
  | List_aliases ->
      (state, [ Feedback.output (Session.aliases_report state.session) ])
  | Log -> (state, [ Feedback.output (Core.Oplog.render_session state.session) ])
  | Rules ->
      ( state,
        Repository.Knowledge.rule_summaries
        |> List.map (fun (name, what) ->
               Feedback.output (Printf.sprintf "%-24s %s" name what)) )
  | Save dir -> (state, save_feedback dir (save_to ?writer dir state))
  | Help -> (state, [ Feedback.output Command.help_text ])
  | Quit -> ({ state with finished = true }, [ Feedback.info "bye" ])

(** One command line as [swsd repl] runs it: parse, refuse a mutating
    command on a [readonly] session, execute, then journal the session
    through [writer] before the feedback is returned. *)
and exec_line ?(readonly = false) ?writer state line =
  let state, feedback =
    (* parse first, so a syntax error reads the same either way, as on
       the server's [!readonly] path *)
    match Command.parse line with
    | exception Command.Bad_command m -> (state, [ Feedback.error m ])
    | cmd when readonly && Command.mutates cmd ->
        ( state,
          [
            Feedback.error
              "readonly session; restart without --readonly to modify";
          ] )
    | cmd -> exec_with ?writer state cmd
  in
  match writer with
  | None -> (state, feedback)
  | Some w -> (
      match Repository.Store.append w state.session with
      | Ok () -> (state, feedback)
      | Error m ->
          (state, feedback @ [ Feedback.caution ("persistence failed: " ^ m) ]))

(** Execute one parsed command. *)
let exec state cmd = exec_with state cmd
