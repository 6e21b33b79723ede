(** Incrementally maintained query views over one variant.

    A view holds only what the variant's schema index cannot answer by
    itself:

    - a bounded, newest-first history of (publication stamp, rendered op)
      pairs feeding [diff] queries, with the floor below which it is
      truncated;
    - the variant's cached lineage record.

    Beside them it carries the {!Core.Schema_index} version it reflects
    ({!index}); the evaluator answers names, attributes, ISA and part-of
    closures and wagon wheels from that index directly — the attribute →
    declarers map is maintained by the index's own updates.

    Views are kept per variant beside the published snapshot (see
    {!Service_query} in the server) and brought up to date lazily: the
    first query that finds the view behind the publication stamp
    {!refresh}es it, however many publications it trails by.  A refresh
    takes the session's index version and extends the history from the
    publication marks: nothing in it grows with the schema.  History keeps
    each op under its own publication's stamp across a gap through
    {!Marks}: each publication records its rendered lines as it happens,
    and the refresh takes the slice of its gap.  Those lines come from
    {!Core.Session.delta} between consecutive publications' spines — the
    walk that also encodes the journal records, so a [diff] line and the
    record that made it durable always agree.  The equivalences
    [refresh* ≡ build] and [refresh over a gap ≡ one refresh per
    publication] are the subsystem's correctness foundation,
    differentially tested by property. *)

module SSet = Set.Make (String)
module Si = Core.Schema_index

(** One publication: its stamp and the session's step spine (shared
    structure, so O(1) to capture). *)
type mark = { m_stamp : int; m_spine : Core.Session.spine }

type t = {
  v_mark : mark;  (** the publication this view reflects *)
  v_index : Si.t;  (** that publication's index version *)
  v_history : (int * string) list;  (** newest first; feeds [diff] *)
  v_floor : int;  (** stamps ≤ this have no retained history *)
  v_refreshes : int;  (** incremental refreshes since [build] *)
  v_lineage : (string * int) option;
      (** the variant's (parent, fork stamp) manifest record, cached at
          build time; feeds the [lineage] atom *)
}

let max_history = 512

let stamp v = v.v_mark.m_stamp
let floor_stamp v = v.v_floor
let lineage v = v.v_lineage
let refresh_count v = v.v_refreshes
let index v = v.v_index
let interface_count v = List.length (Si.interface_names v.v_index)

(* --- history -------------------------------------------------------------- *)

let render_step (s : Core.Session.step) =
  "@"
  ^ Core.Concept.id_prefix s.Core.Session.st_kind
  ^ " "
  ^ Core.Op_printer.to_string s.Core.Session.st_op

let bound_history v hist =
  let rec take n acc = function
    | x :: tl when n > 0 -> take (n - 1) (x :: acc) tl
    | rest -> (List.rev acc, rest)
  in
  let kept, dropped = take max_history [] hist in
  match dropped with
  | [] -> (kept, v)
  | (s, _) :: _ -> (kept, max v s)

(* --- publication marks ----------------------------------------------------

   A view may trail its variant by many publications, yet every op must
   keep the stamp of the publication that made it.  So each publication
   is recorded in the variant's {!Marks} as it happens: the steps it undid
   and added relative to the publication before it ({!Core.Session.delta}
   against the previous publication's spine — O(1) for one op, the whole
   history only when a reload brings a fresh spine), rendered at once into
   (stamp, line) entries.  Only the newest spine is kept, for the next
   delta.  The entries are capped by [bound_history], the rule a refresh
   applies to a view's history, so the marks hold exactly the lines a view
   refreshed at every publication would hold, and a refresh across a gap
   takes the slice of its gap. *)

let mark ~stamp session =
  { m_stamp = stamp; m_spine = Core.Session.spine session }

(* The lines publication [m] adds on top of [history] (newest first), each
   under its stamp, given [prev], the publication before it.
   Chronological event order: undos newest-popped first, then the fresh
   steps oldest first. *)
let publication_lines ~prev m history =
  let undone, done_ = Core.Session.delta prev.m_spine m.m_spine in
  let events =
    List.rev_map (fun s -> "undo " ^ render_step s) undone
    @ List.map render_step done_
  in
  List.rev_append (List.map (fun e -> (m.m_stamp, e)) events) history

module Marks = struct
  type t = {
    tip : mark option;  (** the newest publication recorded *)
    lines : (int * string) list;  (** newest first, capped by [bound_history] *)
    floor : int;  (** publications ≤ this have no retained lines *)
  }

  let empty = { tip = None; lines = []; floor = 0 }

  let record t ~stamp session =
    let m = mark ~stamp session in
    match t.tip with
    | None -> { tip = Some m; lines = []; floor = stamp }
    | Some prev when prev.m_stamp >= stamp ->
        (* a newer publication is already recorded (a follower's
           [publish_at] may republish below its newest stamp): marks stay
           stamp-monotone, like views *)
        t
    | Some prev ->
        let lines, floor =
          bound_history t.floor (publication_lines ~prev m t.lines)
        in
        { tip = Some m; lines; floor }

  (* marks whose only publication is the view's own *)
  let at m = { tip = Some m; lines = []; floor = m.m_stamp }
end

(* The history of the publications in (since, stamp], newest first on top
   of [history], each op under its own publication's stamp.  [marks] may
   not hold the publication at [stamp] yet (its publisher marks it just
   after publishing): then the delta from the newest mark to [session] is
   that publication's.  If the marks dropped lines past [since], the floor
   rises to theirs. *)
let gap_history ~history ~floor ~since marks ~stamp session =
  let marks =
    match marks.Marks.tip with
    | Some tip when tip.m_stamp >= stamp -> marks
    | Some _ | None -> Marks.record marks ~stamp session
  in
  let floor =
    if marks.Marks.floor > since then max floor (min marks.Marks.floor stamp)
    else floor
  in
  let gap =
    List.filter (fun (s, _) -> s > since && s <= stamp) marks.Marks.lines
  in
  bound_history floor (gap @ history)

(* --- build and refresh ---------------------------------------------------- *)

(* With [marks], a fresh view still carries the history the marks hold;
   without, its history starts empty at [stamp]. *)
let build ?lineage ?marks ~stamp (session : Core.Session.t) =
  let history, floor =
    match marks with
    | None -> ([], stamp)
    | Some marks ->
        let since = min marks.Marks.floor stamp in
        gap_history ~history:[] ~floor:since ~since marks ~stamp session
  in
  {
    v_mark = mark ~stamp session;
    v_index = Core.Session.index session;
    v_history = history;
    v_floor = floor;
    v_refreshes = 0;
    v_lineage = lineage;
  }

let refresh ?marks v ~stamp (session : Core.Session.t) =
  (* without marks, the view's own spine is the one publication before
     [stamp] *)
  let marks = match marks with Some m -> m | None -> Marks.at v.v_mark in
  let history, floor =
    gap_history ~history:v.v_history ~floor:v.v_floor ~since:v.v_mark.m_stamp
      marks ~stamp session
  in
  {
    v_mark = mark ~stamp session;
    v_index = Core.Session.index session;
    v_history = history;
    v_floor = floor;
    v_refreshes = v.v_refreshes + 1;
    v_lineage = v.v_lineage;
  }

(** Bring a (possibly absent) view to [stamp]: build when there is none,
    keep it when it is already at or past [stamp] (a racing reader
    advanced it first), refresh across the gap otherwise. *)
let update ?prev ?lineage ?marks ~stamp session =
  match prev with
  | None -> build ?lineage ?marks ~stamp session
  | Some v when v.v_mark.m_stamp >= stamp -> v
  | Some v -> refresh ?marks v ~stamp session

(* --- equivalence (differential testing) ----------------------------------- *)

(** Logical equality: the same schema with the same attribute index.
    Stamp, history and refresh bookkeeping are excluded — a from-scratch
    [build] has no history, and the property incremental ≡ from-scratch
    compares exactly the derived data. *)
let equal_logical a b =
  a.v_index == b.v_index
  || Si.schema a.v_index = Si.schema b.v_index
     && Seq.equal
          (fun (x, s) (y, s') -> String.equal x y && SSet.equal s s')
          (Si.attrs_from a.v_index "")
          (Si.attrs_from b.v_index "")

let history v = v.v_history
