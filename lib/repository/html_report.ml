(** HTML deliverables: the designer feedback documents of a session as one
    self-contained page (paper activity 11: "generating deliverables for
    designer feedback as a result of shrink wrap schema customization").

    The page carries: the schema summaries, the concept schema inventory,
    the operation log with direct and propagated impacts, the consistency
    report, the full mapping table, and the local names.  No external
    assets; deterministic output. *)

module Session = Core.Session

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let style =
  {|  body { font-family: sans-serif; max-width: 60em; margin: 2em auto; color: #222; }
  h1 { border-bottom: 2px solid #558; }
  h2 { border-bottom: 1px solid #aac; margin-top: 2em; }
  table { border-collapse: collapse; width: 100%; }
  th, td { border: 1px solid #ccd; padding: 0.3em 0.6em; text-align: left; font-size: 90%; }
  th { background: #eef; }
  code, pre { background: #f5f5fa; }
  pre { padding: 0.6em; overflow-x: auto; }
  .direct { font-weight: bold; }
  .propagated { color: #666; }
  .warn { color: #a60; }
  .status-deleted { color: #a33; }
  .status-added { color: #383; }
  .status-moved { color: #338; }|}

let tag name ?(attrs = "") body =
  Printf.sprintf "<%s%s>%s</%s>"
    name
    (if attrs = "" then "" else " " ^ attrs)
    body name

let row cells = tag "tr" (String.concat "" (List.map (tag "td") cells))
let header_row cells = tag "tr" (String.concat "" (List.map (tag "th") cells))

let section title body = tag "h2" (escape title) ^ "\n" ^ body

let summaries session =
  tag "table"
    (header_row [ "schema"; "inventory" ]
    ^ row
        [ "shrink wrap"; escape (Core.Render.summary (Session.original session)) ]
    ^ row [ "custom"; escape (Core.Render.summary (Session.custom_schema session)) ]
    )

let concepts session =
  let rows =
    Session.current_concepts session
    |> List.map (fun (c : Core.Concept.t) ->
           row
             [
               tag "code" (escape c.c_id);
               escape (Core.Concept.kind_name c.c_kind);
               escape (String.concat ", " c.c_members);
             ])
  in
  tag "table"
    (header_row [ "concept schema"; "type"; "object types" ]
    ^ String.concat "" rows)

let event_html (e : Core.Change.event) =
  tag "li"
    ~attrs:
      (Printf.sprintf "class=\"%s\""
         (if e.ev_direct then "direct" else "propagated"))
    (escape (Core.Change.change_to_string e.ev_change)
    ^ if e.ev_direct then "" else " <em>(propagated)</em>")

let log session =
  match Session.log session with
  | [] -> tag "p" "No operations applied."
  | steps ->
      steps
      |> List.mapi (fun idx (s : Session.step) ->
             tag "li"
               (Printf.sprintf "%s <code>%s</code> <em>in the %s</em>"
                  (tag "strong" (string_of_int (idx + 1) ^ "."))
                  (escape s.st_text)
                  (escape (Core.Concept.kind_name s.st_kind))
               ^ tag "ul" (String.concat "" (List.map event_html (Session.step_events s)))))
      |> String.concat "\n"
      |> tag "ol"

let consistency session =
  match Session.consistency_report session with
  | [] -> tag "p" "No findings."
  | ds ->
      ds
      |> List.map (fun d ->
             row
               [
                 (match d.Odl.Validate.severity with
                 | Odl.Validate.Error -> tag "span" ~attrs:"class=\"status-deleted\"" "error"
                 | Odl.Validate.Warning -> tag "span" ~attrs:"class=\"warn\"" "warning");
                 escape (Odl.Validate.category_name d.category);
                 tag "code" (escape d.subject);
                 escape d.message;
               ])
      |> String.concat ""
      |> fun rows ->
      tag "table" (header_row [ "severity"; "category"; "subject"; "finding" ] ^ rows)

let status_class = function
  | Core.Mapping.Preserved -> ""
  | Core.Mapping.Modified _ -> "status-moved"
  | Core.Mapping.Moved _ | Core.Mapping.Moved_and_modified _ -> "status-moved"
  | Core.Mapping.Deleted -> "status-deleted"

let mapping session =
  let m = Session.mapping session in
  let entry_rows =
    m.Core.Mapping.entries
    |> List.map (fun (e : Core.Mapping.entry) ->
           row
             [
               tag "code" (escape (Core.Change.construct_to_string e.m_construct));
               tag "span"
                 ~attrs:(Printf.sprintf "class=\"%s\"" (status_class e.m_status))
                 (escape (Core.Mapping.status_to_string e.m_status));
             ])
  in
  let added_rows =
    m.Core.Mapping.added
    |> List.map (fun c ->
           row
             [
               tag "code" (escape (Core.Change.construct_to_string c));
               tag "span" ~attrs:"class=\"status-added\"" "added by designer";
             ])
  in
  let p, md, mv, d, a = Core.Mapping.summary m in
  tag "p"
    (Printf.sprintf
       "%d preserved &middot; %d modified &middot; %d moved &middot; %d \
        deleted &middot; %d added"
       p md mv d a)
  ^ tag "table"
      (header_row [ "shrink wrap construct"; "status" ]
      ^ String.concat "" (entry_rows @ added_rows))

let aliases session =
  match Core.Aliases.bindings (Session.aliases session) with
  | [] -> tag "p" "No local names defined."
  | bs ->
      tag "table"
        (header_row [ "canonical"; "local name" ]
        ^ String.concat ""
            (List.rev_map
               (fun (b : Core.Aliases.binding) ->
                 row
                   [
                     tag "code" (escape (Core.Aliases.target_to_string b.target));
                     tag "code" (escape b.local);
                   ])
               bs))

let custom_odl session =
  tag "pre"
    (escape (Odl.Printer.schema_to_string (Session.custom_schema session)))

(** The whole deliverables page. *)
let render session =
  let title =
    Printf.sprintf "Design deliverables: %s"
      (Session.original session).Odl.Types.s_name
  in
  String.concat "\n"
    [
      "<!DOCTYPE html>";
      "<html><head><meta charset=\"utf-8\">";
      tag "title" (escape title);
      tag "style" style;
      "</head><body>";
      tag "h1" (escape title);
      section "Schemas" (summaries session);
      section "Concept schemas" (concepts session);
      section "Operation log and impact" (log session);
      section "Consistency report" (consistency session);
      section "Mapping" (mapping session);
      section "Local names" (aliases session);
      section "Custom schema (extended ODL)" (custom_odl session);
      "</body></html>";
    ]
