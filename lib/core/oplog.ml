(** Replayable op-log values and optimistic rebase.  See the interface for
    the classification contract.

    The rebase loop deliberately reuses {!Session.apply} instead of calling
    the engines directly: that is the exact pipeline a designer's own op
    runs through (permission matrix, incremental constraint check,
    propagation, validity preservation), so a branch op merges cleanly iff
    the designer could have typed it against the base right now.  The only
    extra work is the up-front {!Permission.allowed} probe, which lets the
    report distinguish "Table 1 forbids this here" from "the checker
    refused it" — the paper's two different designer-facing answers. *)

type entry = {
  e_kind : Concept.kind;
  e_op : Modop.t;
  e_events : Change.event list;
}

type t = { steps : Session.step list; sealed_at : int }

let entry_of_step (st : Session.step) =
  {
    e_kind = st.st_kind;
    e_op = Session.step_op st;
    e_events = Session.step_events st;
  }

let of_session s = { steps = Session.log s; sealed_at = Session.version s }

let pairs t =
  List.map (fun (st : Session.step) -> (st.st_kind, Session.step_op st)) t.steps

let length t = List.length t.steps

let render t =
  t.steps
  |> List.map (fun (st : Session.step) ->
         "// in " ^ Concept.kind_name st.st_kind ^ "\n" ^ st.st_text ^ ";")
  |> String.concat "\n"

(* [render] of [text]'s steps followed by [steps]: one string of the
   exact size, [text] copied once. *)
let extend text steps =
  let lead = "// in " in
  (* a rendering opens with no newline *)
  let step_size n (st : Session.step) =
    n + (if n > 0 then 1 else 0) + String.length lead
    + String.length (Concept.kind_name st.st_kind)
    + String.length st.st_text + 2
  in
  let b = Bytes.create (List.fold_left step_size (String.length text) steps) in
  let at = ref 0 in
  let put s =
    Bytes.blit_string s 0 b !at (String.length s);
    at := !at + String.length s
  in
  put text;
  List.iter
    (fun (st : Session.step) ->
      if !at > 0 then put "\n";
      put lead;
      put (Concept.kind_name st.st_kind);
      put "\n";
      put st.st_text;
      put ";")
    steps;
  Bytes.unsafe_to_string b

let render_session s =
  let cell = Session.log_text s in
  let last = Atomic.get cell in
  let now = Session.spine s in
  match Session.delta last.lt_spine now with
  | [], [] -> last.lt_text
  | undone, added ->
      let text =
        if undone = [] then extend last.lt_text added
        else extend "" (Session.log s)
      in
      ignore
        (Atomic.compare_and_set cell last { Session.lt_spine = now; lt_text = text });
      text

let replay_on session steps =
  List.fold_left
    (fun acc (kind, op) ->
      Result.bind acc (fun s -> Result.map fst (Session.apply s ~kind op)))
    (Ok session) steps

let invalid_shrink_wrap ds =
  Apply.Violation
    (Fmt.str "shrink wrap schema invalid: %a"
       Fmt.(list ~sep:(any "; ") Odl.Validate.pp_diagnostic_line)
       ds)

let replay ?paranoid shrink_wrap steps =
  match Session.create ?paranoid shrink_wrap with
  | Error ds -> Error (invalid_shrink_wrap ds)
  | Ok session -> replay_on session steps

(* --- fork-point arithmetic ------------------------------------------------ *)

let common_prefix ~base ~branch =
  let rec go n = function
    | a :: xs, b :: ys when Session.equal_step a b -> go (n + 1) (xs, ys)
    | _ -> n
  in
  go 0 (Session.log base, Session.log branch)

let branch_entries ~base ~branch =
  let n = common_prefix ~base ~branch in
  Session.log branch
  |> List.filteri (fun i _ -> i >= n)
  |> List.map entry_of_step

(* --- rebase --------------------------------------------------------------- *)

type reason = Permission of string | Rejected of Apply.error

type outcome =
  | Clean of Change.event list
  | Auto_merged of string * Change.event list
  | Conflict of reason

type verdict = { v_entry : entry; v_outcome : outcome }

type report = {
  r_base_version : int;
  r_session : Session.t;
  r_mapping : Mapping.t;
  r_verdicts : verdict list;
  r_clean : int;
  r_auto : int;
  r_conflict : int;
}

(* Equal texts are equal ops (the printer is injective), so no step of
   the base is parsed to compare it. *)
let already_applied session e =
  let text = Op_printer.to_string e.e_op in
  List.exists
    (fun (st : Session.step) ->
      Concept.equal_kind st.st_kind e.e_kind && String.equal st.st_text text)
    (Session.steps_rev session)

let rebase_one session e =
  if already_applied session e then
    (session, Auto_merged ("already applied on base", []))
  else
    match Permission.allowed e.e_kind e.e_op with
    | Error why -> (session, Conflict (Permission why))
    | Ok () -> (
        match Session.apply session ~kind:e.e_kind e.e_op with
        | Error err -> (session, Conflict (Rejected err))
        | Ok (session', events) ->
            if List.equal Change.equal_event events e.e_events then
              (session', Clean events)
            else
              ( session',
                Auto_merged ("propagated impact differs on rebased base", events)
              ))

let rebase ~base ~branch_ops =
  let r_base_version = Session.version base in
  let session, rev_verdicts =
    List.fold_left
      (fun (session, acc) e ->
        let session, outcome = rebase_one session e in
        (session, { v_entry = e; v_outcome = outcome } :: acc))
      (base, []) branch_ops
  in
  let r_verdicts = List.rev rev_verdicts in
  let count p = List.length (List.filter p r_verdicts) in
  {
    r_base_version;
    r_session = session;
    r_mapping = Session.mapping session;
    r_verdicts;
    r_clean = count (fun v -> match v.v_outcome with Clean _ -> true | _ -> false);
    r_auto =
      count (fun v -> match v.v_outcome with Auto_merged _ -> true | _ -> false);
    r_conflict =
      count (fun v -> match v.v_outcome with Conflict _ -> true | _ -> false);
  }

let conflicts report =
  List.filter_map
    (fun v ->
      match v.v_outcome with
      | Conflict r -> Some (v.v_entry, r)
      | Clean _ | Auto_merged _ -> None)
    report.r_verdicts

let reason_to_string = function
  | Permission why -> "permission: " ^ why
  | Rejected err -> Apply.error_to_string err

let verdict_lines i v =
  let head verdict =
    Printf.sprintf "%d. [%s] %s : %s" (i + 1)
      (Concept.kind_name v.v_entry.e_kind)
      (Op_printer.to_string v.v_entry.e_op)
      verdict
  in
  match v.v_outcome with
  | Clean events ->
      head "clean" :: List.map (fun e -> "   " ^ Change.event_to_string e) events
  | Auto_merged (why, events) ->
      head (Printf.sprintf "auto-merged (%s)" why)
      :: List.map (fun e -> "   " ^ Change.event_to_string e) events
  | Conflict r -> [ head (Printf.sprintf "CONFLICT (%s)" (reason_to_string r)) ]

let render_report label report =
  let body = List.concat (List.mapi verdict_lines report.r_verdicts) in
  let tally =
    Printf.sprintf "rebased %d op(s): %d clean, %d auto-merged, %d conflict(s)"
      (List.length report.r_verdicts)
      report.r_clean report.r_auto report.r_conflict
  in
  String.concat "\n"
    ([ "merge report: " ^ label ]
    @ body
    @ [ tally; Fmt.str "%a" Mapping.pp report.r_mapping ])
