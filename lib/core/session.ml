(** A shrink wrap schema design session.

    The session owns the artifacts of the paper's architecture (Figure 1):
    the original shrink wrap schema, its concept schemas, the workspace for
    the schema under design, the operation log with recorded impacts, and —
    derived on demand — the custom schema, the consistency report, and the
    shrink-wrap → custom mapping.  Sessions are immutable values: applying
    an operation returns a new session, and undo is structural.

    A session resumed from a repository checkpoint ({!of_checkpoint}) holds
    the checkpointed workspace and the texts of the log prefix it covers,
    but not their per-step record: the ops are parsed from the texts, and
    the impact events and old index versions come from one replay of the
    prefix, each run the first time anything asks for it and shared by
    every session derived from it.  The same
    replay serves undo past the newest {!undo_depth} index versions, the
    only ones a session keeps.

    Operations run on the {e indexed} engine ({!Apply.Indexed} over
    {!Schema_index}): per-op constraint checking and propagation touch only
    the affected neighbourhood, and the consistency report is served from
    the index's validity memo, and the workspace value is the index's own
    schema.  In {e paranoid} mode every operation is additionally run
    through the naive reference engine and the two outcomes compared — a
    mismatch raises {!Divergence}. *)

open Odl.Types
module Validate = Odl.Validate

(* Undo keeps this many shelved index versions; deeper undos replay. *)
let undo_depth = 32

(* A step keeps its text, not its parsed op: the printer is injective,
   so {!step_op} parses the text back, as it does for a checkpointed
   step. *)
type source =
  | Recorded of Change.event list
  | Replayed of history * int

(* A memoized replay of a fixed op sequence — the first steps of the log
   it was taken from — on the shrink wrap schema.  A checkpoint's
   history holds its ops as text, parsed on first demand.  Published
   sessions are read from several threads, so [h_ops] is forced and the
   replay runs only under [h_lock] (OCaml's [Lazy] raises on a concurrent
   force). *)
and history = {
  h_original : Schema_index.t;
  h_ops : (Concept.kind * Modop.t) array Lazy.t;  (** forced under [h_lock] *)
  h_lock : Mutex.t;
  mutable h_replay : replayed option;
}

and replayed = {
  r_ops : (Concept.kind * Modop.t) array;
  r_events : Change.event list array;  (** per op *)
  r_marks : Schema_index.shelved array;
      (** [r_marks.(i)]: the index after [i * undo_depth] ops *)
}

type step = {
  st_kind : Concept.kind;  (** concept schema type the op was issued from *)
  st_text : string;
      (** [Op_printer.to_string] of the op, printed once when the step was
          made; every rendering of the log reads it *)
  st_src : source;  (** the op's impact, see {!step_events} *)
}

(* A session's step spine with its length. *)
type spine = { sp_steps : step list; sp_n : int }

(* The last [log] rendered along a lineage, see {!log_text}. *)
type log_text = { lt_spine : spine; lt_text : string }

type t = {
  original_index : Schema_index.t;
      (** index of the shrink wrap schema, never modified (stability
          checks) *)
  index : Schema_index.t;
      (** the index of the schema under design, updated per op *)
  past_indexes : Schema_index.shelved list;
      (** index versions before the newest steps, newest first (parallels
          the head of [rev_log], at most [undo_depth] of them), shelved so
          that each costs O(log n) words rather than a workspace list;
          undo restores from here in O(n log n), and past them from
          [history] *)
  history : history;  (** replay of a log prefix, see {!history} *)
  history_valid : int;
      (** leading steps of the log that still equal [history.h_ops] *)
  rev_log : step list;
      (** applied steps, {e newest} first: apply conses and undo pops, so
          the spine below any point is shared physically across every
          session derived from it — {!delta} relies on this to diff two
          lineage-related sessions in O(changed steps) instead of walking
          both full logs *)
  nlog : int;  (** [List.length rev_log], maintained for O(1) counting *)
  aliases : Aliases.t;  (** local names (presentation-level renaming) *)
  future : step list;  (** undone steps, newest first, for redo *)
  paranoid : bool;  (** cross-check every op against the naive engine *)
  version : int;
      (** monotonic change stamp: bumped by every state transition (apply,
          undo, redo, alias changes) and never decremented — two sessions
          with the same version along one lineage are the same value *)
  log_text : log_text Atomic.t;
      (** shared by every session derived from this one: a commit copies
          the cell, and only a [log] reply sets it *)
}

exception Divergence of string

let original t = Schema_index.schema t.original_index
let workspace t = Schema_index.schema t.index

let divergence fmt = Printf.ksprintf (fun m -> raise (Divergence m)) fmt

(* Differential cross-check of one operation: the indexed outcome must match
   the naive engine's exactly — acceptance, workspace, events, and the full
   diagnostics list (the error messages embed the first diagnostic, so
   diagnostic equality also pins error-message equality). *)
let check_divergence t ~kind op indexed_outcome =
  let naive = Apply.apply ~original:(original t) ~kind (workspace t) op in
  let ctx = Fmt.str "%a" Op_printer.pp op in
  match (indexed_outcome, naive) with
  | Ok (idx, evs), Ok (ws, evs') ->
      if not (equal_schema (Schema_index.schema idx) ws) then
        divergence "%s: indexed and naive workspaces differ" ctx;
      if not (List.equal Change.equal_event evs evs') then
        divergence "%s: indexed and naive impact events differ" ctx;
      if
        not
          (List.equal Validate.equal_diagnostic
             (Schema_index.diagnostics idx)
             (Validate.check ws))
      then divergence "%s: indexed and naive diagnostics differ" ctx
  | Error e, Error e' ->
      if Apply.error_to_string e <> Apply.error_to_string e' then
        divergence "%s: engines reject with different errors (%s vs %s)" ctx
          (Apply.error_to_string e) (Apply.error_to_string e')
  | Ok _, Error e ->
      divergence "%s: indexed engine accepted what the naive engine rejects (%s)"
        ctx (Apply.error_to_string e)
  | Error e, Ok _ ->
      divergence "%s: indexed engine rejected (%s) what the naive engine accepts"
        ctx (Apply.error_to_string e)

let new_history original ops =
  { h_original = original; h_ops = ops; h_lock = Mutex.create (); h_replay = None }

let no_log_text () =
  Atomic.make { lt_spine = { sp_steps = []; sp_n = 0 }; lt_text = "" }

(** Start a session on [shrink_wrap].  The shrink wrap schema must be valid;
    otherwise its error diagnostics are returned so the designer can fix the
    repository copy first.  [paranoid] turns on per-operation differential
    checking against the naive engine (see {!Divergence}). *)
let create ?(paranoid = false) shrink_wrap =
  let index = Schema_index.build shrink_wrap in
  if paranoid then begin
    let di = Schema_index.diagnostics index in
    let dn = Validate.check shrink_wrap in
    if not (List.equal Validate.equal_diagnostic di dn) then
      divergence "create: indexed and naive diagnostics differ"
  end;
  match Schema_index.errors index with
  | [] ->
      Ok
        {
          original_index = index;
          index;
          past_indexes = [];
          history = new_history index (Lazy.from_val [||]);
          history_valid = 0;
          rev_log = [];
          nlog = 0;
          aliases = Aliases.empty;
          future = [];
          paranoid;
          version = 0;
          log_text = no_log_text ();
        }
  | errors -> Error errors

let index t = t.index
let concepts t = Decompose.Indexed.decompose t.original_index
let log t = List.rev t.rev_log
let steps_rev t = t.rev_log
let step_count t = t.nlog
let version t = t.version

(* --- the spine delta ------------------------------------------------------ *)

let spine t = { sp_steps = t.rev_log; sp_n = t.nlog }
let log_text t = t.log_text
let new_lineage t = { t with log_text = no_log_text () }

(* The printer is injective (the op parser inverts it), so equal texts are
   equal ops: no checkpointed op is parsed to compare it. *)
let equal_step a b =
  Concept.equal_kind a.st_kind b.st_kind && String.equal a.st_text b.st_text

(* Walk the longer spine down to the shorter's length, then both in
   lockstep until they are pointer equal: below the divergence point two
   spines of one lineage are the same list, so everything popped on the way
   is the delta — O(changed steps).  Both lists come out oldest first. *)
let delta before after =
  let rec chop n popped l =
    if n = 0 then (popped, l)
    else
      match l with
      | s :: rest -> chop (n - 1) (s :: popped) rest
      | [] -> (popped, [])
  in
  let undone, b = chop (max 0 (before.sp_n - after.sp_n)) [] before.sp_steps in
  let added, a = chop (max 0 (after.sp_n - before.sp_n)) [] after.sp_steps in
  (* equal lengths now; [] == [] terminates the walk *)
  let rec sync undone added b a =
    if b == a then (undone, added)
    else
      match (b, a) with
      | sb :: b', sa :: a' -> sync (sb :: undone) (sa :: added) b' a'
      | _ -> (undone, added)
  in
  (* an undone-then-reapplied step is structurally unchanged even though
     its spine node is fresh: trim such pairs rather than emit an undo and
     a re-add for it *)
  let rec trim = function
    | u :: u', a :: a' when equal_step u a -> trim (u', a')
    | rest -> rest
  in
  trim (sync undone added b a)

let find_concept t id = Decompose.Indexed.concept t.original_index id

(* --- the memoized prefix replay ------------------------------------------ *)

let apply_replayed original index (kind, op) =
  match Apply.Indexed.apply ~original ~kind index op with
  | Ok r -> r
  | Error e ->
      (* a history is only ever taken from ops that applied in this order *)
      failwith
        ("Session: logged operation no longer replays: "
        ^ Apply.error_to_string e)

let replay_history h =
  let ops = Lazy.force h.h_ops in
  let r_events = Array.make (Array.length ops) [] in
  let marks = ref [ Schema_index.shelve h.h_original ] in
  ignore
    (Array.fold_left
       (fun (index, i) step ->
         let index, events = apply_replayed h.h_original index step in
         r_events.(i) <- events;
         if (i + 1) mod undo_depth = 0 then
           marks := Schema_index.shelve index :: !marks;
         (index, i + 1))
       (h.h_original, 0) ops);
  { r_ops = ops; r_events; r_marks = Array.of_list (List.rev !marks) }

let replayed h =
  Mutex.protect h.h_lock (fun () ->
      match h.h_replay with
      | Some r -> r
      | None ->
          let r = replay_history h in
          h.h_replay <- Some r;
          r)

let step_op st =
  match st.st_src with
  | Recorded _ -> Op_parser.parse st.st_text
  | Replayed (h, i) ->
      Mutex.protect h.h_lock (fun () -> snd (Lazy.force h.h_ops).(i))

let step_events st =
  match st.st_src with
  | Recorded events -> events
  | Replayed (h, i) -> (replayed h).r_events.(i)

(* The index after [m] ops of [h] ([m <= Array.length h.h_ops]), and the
   shelved versions before the ops between the nearest mark and [m],
   newest first: fewer than [undo_depth] applies. *)
let index_at h m =
  let r = replayed h in
  let from = m / undo_depth * undo_depth in
  let index = ref (Schema_index.unshelve r.r_marks.(m / undo_depth)) in
  let past = ref [] in
  for i = from to m - 1 do
    past := Schema_index.shelve !index :: !past;
    index := fst (apply_replayed h.h_original !index r.r_ops.(i))
  done;
  (!index, !past)

(* A checkpoint's op texts, parsed; the caller vouched for them. *)
let parse_texts texts =
  Array.map
    (fun (kind, text) ->
      match Op_parser.parse text with
      | op -> (kind, op)
      | exception (Op_parser.Parse_error _ | Odl.Lexer.Lex_error _) ->
          failwith ("Session: checkpointed operation does not parse: " ^ text))
    texts

(** Resume [t] — fresh from {!create} — at a checkpoint: [workspace] is the
    state after the [prefix] ops, taken on trust (the repository validates
    the checkpoint against its journal), and so is each op's text.  The
    workspace index is [t]'s patched with the interfaces [workspace] does
    not share with it, and only their neighbourhood is re-checked; the
    prefix's ops are parsed, and their impact events and old index
    versions replayed, when first needed.  The result equals [t] with
    [prefix] applied step by step, version stamp included. *)
let of_checkpoint t ~workspace prefix =
  if t.nlog <> 0 then invalid_arg "Session.of_checkpoint: the log is not empty";
  let index = Schema_index.patch t.index workspace in
  match Schema_index.errors index with
  | _ :: _ as errors -> Error errors
  | [] ->
      let texts = Array.of_list prefix in
      let n = Array.length texts in
      let history = new_history t.original_index (lazy (parse_texts texts)) in
      let rev_log =
        List.fold_left
          (fun (i, acc) (kind, text) ->
            ( i + 1,
              { st_kind = kind; st_text = text; st_src = Replayed (history, i) }
              :: acc ))
          (0, []) prefix
        |> snd
      in
      Ok
        {
          t with
          index;
          history;
          history_valid = n;
          rev_log;
          nlog = n;
          version = t.version + n;
          log_text = no_log_text ();
        }

let indexed_apply t ~kind op =
  let outcome = Apply.Indexed.apply ~original:t.original_index ~kind t.index op in
  if t.paranoid then check_divergence t ~kind op outcome;
  outcome

let commit t ~kind ~text (index, events) ~future =
  ( {
      t with
      index;
      past_indexes =
        Schema_index.shelve t.index
        :: List.filteri (fun i _ -> i < undo_depth - 1) t.past_indexes;
      future;
      version = t.version + 1;
      rev_log =
        { st_kind = kind; st_text = text; st_src = Recorded events }
        :: t.rev_log;
      nlog = t.nlog + 1;
    },
    events )

(** Apply [op] in a concept schema of type [kind].  A fresh application
    clears the redo history. *)
let apply t ~kind op =
  match indexed_apply t ~kind op with
  | Error _ as e -> e
  | Ok (index, events) ->
      Ok
        (commit t ~kind ~text:(Op_printer.to_string op) (index, events)
           ~future:[])

(** Apply [op] from the concept schema identified by [concept_id]; the
    operation must also mention only interfaces that concept schema covers
    (you modify what you are looking at). *)
let apply_in t ~concept_id op =
  match find_concept t concept_id with
  | None -> Error (Apply.Unknown (Printf.sprintf "concept schema %s" concept_id))
  | Some c ->
      let subj = Modop.subject op in
      if Concept.mem_type c subj || not (Schema_index.mem_interface t.index subj)
      then apply t ~kind:c.Concept.c_kind op
      else
        Error
          (Apply.Not_allowed
             (Printf.sprintf "%s is not part of concept schema %s" subj concept_id))

(** Impact preview: what would [op] change, without committing. *)
let preview t ~kind op =
  Apply.Indexed.preview ~original:t.original_index ~kind t.index op

(** Undo the most recent step; [None] when the log is empty.  The undone
    operation becomes redoable until the next fresh application.  The index
    version recorded at apply time is restored; past the newest
    [undo_depth], it is rebuilt from the memoized replay of the log (taken
    now if the session's history does not reach this far). *)
let undo t =
  match t.rev_log with
  | [] -> None
  | last :: rest ->
      let m = t.nlog - 1 in
      let index, past_indexes, history, history_valid =
        match t.past_indexes with
        | shelved :: past ->
            (Schema_index.unshelve shelved, past, t.history, min t.history_valid m)
        | [] ->
            let history =
              if m <= t.history_valid then t.history
              else
                new_history t.original_index
                  (Lazy.from_val
                     (Array.of_list
                        (List.rev_map
                           (fun st -> (st.st_kind, step_op st))
                           rest)))
            in
            let index, past = index_at history m in
            (index, past, history, m)
      in
      Some
        {
          t with
          index;
          past_indexes;
          history;
          history_valid;
          rev_log = rest;
          nlog = m;
          future = last :: t.future;
          version = t.version + 1;
        }

(** Redo the most recently undone step; [None] when there is nothing to
    redo.  Cannot fail otherwise: the operation applied before and the
    workspace is back in the state it applied to. *)
let redo t =
  match t.future with
  | [] -> None
  | ({ st_kind = kind; st_text = text; _ } as st) :: rest -> (
      let op = step_op st in
      match indexed_apply t ~kind op with
      | Error _ -> None  (* unreachable by construction; be defensive *)
      | Ok (index, events) ->
          Some (commit t ~kind ~text (index, events) ~future:rest))

let redoable t = List.length t.future

(** The customized user schema: the current workspace, renamed. *)
let custom_schema ?name t =
  let name = Option.value name ~default:((original t).s_name ^ "_custom") in
  { (workspace t) with s_name = name }

(* --- local names (paper section 5 extension) ----------------------------- *)

(** Bind a local (presentation) name to a construct of the workspace. *)
let add_alias t target local =
  Result.map
    (fun aliases -> { t with aliases; version = t.version + 1 })
    (Aliases.add (workspace t) t.aliases target local)

(** Remove a construct's local name. *)
let remove_alias t target =
  { t with aliases = Aliases.remove t.aliases target; version = t.version + 1 }

(** The live bindings: stale ones (whose construct was deleted since) are
    pruned on read. *)
let aliases t = fst (Aliases.prune (workspace t) t.aliases)

let aliases_report t = Aliases.report (aliases t)

(** Install persisted bindings wholesale (used when loading a repository);
    stale bindings are dropped lazily by {!aliases}. *)
let restore_aliases t aliases = { t with aliases; version = t.version + 1 }

(** Consistency report over the workspace (errors cannot occur — accepted
    operations preserve validity — so this surfaces the warnings).  Served
    from the index's validity memo: only checks invalidated since the last
    consistency check are recomputed. *)
let consistency_report t = Schema_index.diagnostics t.index

let mapping t = Mapping.compute ~original:(original t) ~custom:(workspace t)

(** Refresh the concept schemas against the workspace (after modifications,
    the decomposition of the workspace shows the customized concepts). *)
let current_concepts t = Decompose.Indexed.decompose t.index

(** One concept schema of {!current_concepts}, by id, at the cost of that
    concept schema alone — the per-operation lookup of the designer. *)
let find_current_concept t id = Decompose.Indexed.concept t.index id

(* --- deliverables -------------------------------------------------------- *)

let pp_step ppf (idx, s) =
  Fmt.pf ppf "@[<v 2>%d. [%s] %s" (idx + 1)
    (Concept.kind_name s.st_kind)
    s.st_text;
  List.iter (fun e -> Fmt.pf ppf "@,%s" (Change.event_to_string e)) (step_events s);
  Fmt.pf ppf "@]"

(** The impact report: every applied operation with its direct and
    propagated changes. *)
let impact_report t =
  Fmt.str "@[<v>impact report for %s@,%a@]" (original t).s_name
    Fmt.(list ~sep:(any "@,") pp_step)
    (List.mapi (fun i s -> (i, s)) (log t))

let consistency_report_text t =
  let ds = consistency_report t in
  if ds = [] then "consistency report: no findings"
  else
    Fmt.str "@[<v>consistency report (%d findings)@,%a@]" (List.length ds)
      Fmt.(list ~sep:(any "@,") Validate.pp_diagnostic_line)
      ds

let mapping_report t = Fmt.str "@[<v>mapping report@,%a@]" Mapping.pp (mapping t)

(** All designer deliverables in one document: schema summaries, the
    operation log with impacts, the consistency report, and the mapping. *)
let deliverables t =
  String.concat "\n"
    [
      "== shrink wrap schema ==";
      Render.summary (original t);
      "";
      "== custom schema ==";
      Render.summary (custom_schema t);
      "";
      "== " ^ impact_report t;
      "";
      "== " ^ consistency_report_text t;
      "";
      "== " ^ mapping_report t;
      "";
      "== local names ==";
      aliases_report t;
    ]

(* Serialization of the log and replay live in {!Oplog}, which builds on
   this module: the session records steps, the op-log is their durable,
   exchangeable (and rebase-capable) projection. *)
