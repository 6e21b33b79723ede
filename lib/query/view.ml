(** Materialized, incrementally maintained query views over one variant.

    A view is an immutable value carrying everything the evaluator reads:

    - per-interface entries — declared attribute names, transitive ISA
      ancestor/descendant sets, transitive part-of whole/part sets, and the
      materialized {!Core.Decompose} wagon wheel;
    - an attribute-name → declaring-interfaces index;
    - a bounded, newest-first history of (publication stamp, rendered op)
      pairs feeding [diff] queries.

    Views are kept per variant beside the published snapshot (see
    {!Service_query} in the server) and brought up to date lazily: the
    first query that finds the view behind the publication stamp
    {!refresh}es it, however many publications it trails by.  {!refresh}
    is incremental in the size of the change, not the schema: the dirty
    seed is {!Core.Schema_index.changed_names} (pointer diff of the
    persistent index, O(changed entries), sound across any gap), widened
    to every interface whose materialized row can react — the seed's old
    and new closure neighbourhoods — and only those rows are recomputed.
    History keeps each op under its own publication's stamp across a gap
    through {!Marks}: each publication records its rendered lines as it
    happens, and the refresh takes the slice of its gap.  The equivalences
    [refresh* ≡ build] and [refresh over a gap ≡ one refresh per
    publication] are the subsystem's correctness foundation,
    differentially tested by property. *)

module SMap = Map.Make (String)
module SSet = Set.Make (String)
module Si = Core.Schema_index
module D = Core.Decompose.Indexed
open Odl.Types

type entry = {
  e_attrs : string list;  (** declared attribute names, declaration order *)
  e_anc : SSet.t;  (** transitive ISA ancestors *)
  e_desc : SSet.t;  (** transitive ISA descendants *)
  e_wholes : SSet.t;  (** transitive part-of wholes this type belongs to *)
  e_parts : SSet.t;  (** transitive parts under this type *)
  e_wheel : Core.Concept.t;  (** materialized wagon wheel *)
}

(** One publication: its stamp and the session's step spine
    ([steps_rev], shared structure, so O(1) to capture) with its length. *)
type mark = {
  m_stamp : int;
  m_steps : Core.Session.step list;
  m_nsteps : int;
}

type t = {
  v_mark : mark;  (** the publication this view reflects *)
  v_index : Si.t;  (** the index version the entries were computed from *)
  v_entries : entry SMap.t;
  v_attrs : SSet.t SMap.t;  (** attribute name → declaring interfaces *)
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
let interface_count v = SMap.cardinal v.v_entries
let find_entry v name = SMap.find_opt name v.v_entries
let entries v = v.v_entries
let attr_index v = v.v_attrs

(* --- part-of adjacency ----------------------------------------------------

   A part-of edge is declared on either end ({!Odl.Types.role_of_relationship}):
   the whole holds a collection of parts ([Whole_end], target = part) or the
   part points at its whole ([Part_end], target = whole).  Both directions
   are walked through the index — forward via the owner's own rels, backward
   via [relationships_targeting] — so the closure is complete whichever end
   declared the edge.  Dangling targets are excluded, cycles are cut by the
   visited set. *)

let direct_parts idx name =
  let fwd =
    match Si.find_interface idx name with
    | None -> []
    | Some i ->
        List.filter_map
          (fun r ->
            match role_of_relationship r with
            | Whole_end when Si.mem_interface idx r.rel_target ->
                Some r.rel_target
            | _ -> None)
          i.i_rels
  in
  let bwd =
    Si.relationships_targeting idx name
    |> List.filter_map (fun (owner, r) ->
           match role_of_relationship r with
           | Part_end -> Some owner.i_name
           | _ -> None)
  in
  fwd @ bwd

let direct_wholes idx name =
  let fwd =
    match Si.find_interface idx name with
    | None -> []
    | Some i ->
        List.filter_map
          (fun r ->
            match role_of_relationship r with
            | Part_end when Si.mem_interface idx r.rel_target ->
                Some r.rel_target
            | _ -> None)
          i.i_rels
  in
  let bwd =
    Si.relationships_targeting idx name
    |> List.filter_map (fun (owner, r) ->
           match role_of_relationship r with
           | Whole_end -> Some owner.i_name
           | _ -> None)
  in
  fwd @ bwd

let closure_set step start =
  let rec go visited = function
    | [] -> visited
    | n :: rest ->
        if SSet.mem n visited then go visited rest
        else go (SSet.add n visited) (step n @ rest)
  in
  go SSet.empty (step start)

(* --- entry computation ---------------------------------------------------- *)

let compute_entry idx name =
  let i = Si.get_interface idx name in
  {
    e_attrs = List.map (fun a -> a.attr_name) i.i_attrs;
    e_anc = SSet.of_list (Si.ancestors idx name);
    e_desc = SSet.of_list (Si.descendants idx name);
    e_wholes = closure_set (direct_wholes idx) name;
    e_parts = closure_set (direct_parts idx) name;
    e_wheel = D.wagon_wheel idx name;
  }

(* Every name an entry's materialized row mentions: the set of rows that can
   react when this interface changes. *)
let entry_neighbourhood e =
  SSet.union e.e_anc e.e_desc
  |> SSet.union e.e_wholes |> SSet.union e.e_parts
  |> SSet.union (SSet.of_list e.e_wheel.Core.Concept.c_members)

let multi_add key v m =
  SMap.update key
    (function None -> Some (SSet.singleton v) | Some s -> Some (SSet.add v s))
    m

let multi_remove key v m =
  SMap.update key
    (function
      | None -> None
      | Some s ->
          let s = SSet.remove v s in
          if SSet.is_empty s then None else Some s)
    m

let deindex_attrs name e attrs =
  List.fold_left (fun m a -> multi_remove a name m) attrs e.e_attrs

let index_attrs name e attrs =
  List.fold_left (fun m a -> multi_add a name m) attrs e.e_attrs

(* --- history -------------------------------------------------------------- *)

let render_step (s : Core.Session.step) =
  "@"
  ^ Core.Concept.id_prefix s.Core.Session.st_kind
  ^ " "
  ^ Core.Op_printer.to_string s.Core.Session.st_op

(* The steps turning the captured spine into the session's: undos for the
   popped tail, then the fresh steps — the same pointer-equality walk as the
   service's journal delta (see Service_types.journal_delta), O(changed
   steps) because both spines share structure below the divergence point.
   Both results are oldest first; structurally equal pairs (undone then
   reapplied unchanged) are trimmed as noise. *)
let spine_delta ~old_steps ~old_n ~new_steps ~new_n =
  let rec chop n popped l =
    if n = 0 then (popped, l)
    else
      match l with
      | s :: rest -> chop (n - 1) (s :: popped) rest
      | [] -> (popped, [])
  in
  let popped, o = chop (max 0 (old_n - new_n)) [] old_steps in
  let added, a = chop (max 0 (new_n - old_n)) [] new_steps in
  let rec sync popped added o a =
    if o == a then (popped, added)
    else
      match (o, a) with
      | so :: o', sa :: a' -> sync (so :: popped) (sa :: added) o' a'
      | _ -> (popped, added)
  in
  let popped, added = sync popped added o a in
  let step_eq (s1 : Core.Session.step) (s2 : Core.Session.step) =
    s1.Core.Session.st_kind = s2.Core.Session.st_kind
    && Core.Modop.equal s1.st_op s2.st_op
  in
  let rec trim = function
    | pb :: p', aa :: a' when step_eq pb aa -> trim (p', a')
    | rest -> rest
  in
  trim (popped, added)

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
   and added relative to the publication before it ([spine_delta] against
   the previous publication's spine — O(1) for one op, the whole history
   only when a reload brings a fresh spine), rendered at once into
   (stamp, line) entries.  Only the newest spine is kept, for the next
   delta.  The entries are capped by [bound_history], the rule a refresh
   applies to a view's history, so the marks hold exactly the lines a view
   refreshed at every publication would hold, and a refresh across a gap
   takes the slice of its gap. *)

let mark ~stamp (session : Core.Session.t) =
  {
    m_stamp = stamp;
    m_steps = Core.Session.steps_rev session;
    m_nsteps = Core.Session.step_count session;
  }

(* The lines publication [m] adds on top of [history] (newest first), each
   under its stamp, given [prev], the publication before it.
   Chronological event order: undos newest-popped first, then the fresh
   steps oldest first. *)
let publication_lines ~prev m history =
  let undone, done_ =
    spine_delta ~old_steps:prev.m_steps ~old_n:prev.m_nsteps
      ~new_steps:m.m_steps ~new_n:m.m_nsteps
  in
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
  let idx = Core.Session.index session in
  let entries =
    List.fold_left
      (fun m name -> SMap.add name (compute_entry idx name) m)
      SMap.empty
      (Si.interface_names idx)
  in
  let attrs =
    SMap.fold (fun name e m -> index_attrs name e m) entries SMap.empty
  in
  let history, floor =
    match marks with
    | None -> ([], stamp)
    | Some marks ->
        let since = min marks.Marks.floor stamp in
        gap_history ~history:[] ~floor:since ~since marks ~stamp session
  in
  {
    v_mark = mark ~stamp session;
    v_index = idx;
    v_entries = entries;
    v_attrs = attrs;
    v_history = history;
    v_floor = floor;
    v_refreshes = 0;
    v_lineage = lineage;
  }

let refresh ?marks v ~stamp (session : Core.Session.t) =
  let idx = Core.Session.index session in
  let seeds = Si.changed_names v.v_index idx in
  (* widen each seed to every row its change can reach: the row itself,
     everything its *old* materialized row mentioned, and everything its
     *new* neighbourhood mentions (closures and wheel recomputed fresh on
     the new index) — then rebuild exactly those rows *)
  let recompute =
    List.fold_left
      (fun acc name ->
        let acc = SSet.add name acc in
        let acc =
          match SMap.find_opt name v.v_entries with
          | None -> acc
          | Some e -> SSet.union (entry_neighbourhood e) acc
        in
        if Si.mem_interface idx name then
          SSet.union (entry_neighbourhood (compute_entry idx name)) acc
        else acc)
      SSet.empty seeds
  in
  let entries, attrs =
    SSet.fold
      (fun name (entries, attrs) ->
        let attrs =
          match SMap.find_opt name v.v_entries with
          | None -> attrs
          | Some old -> deindex_attrs name old attrs
        in
        if Si.mem_interface idx name then
          let e = compute_entry idx name in
          (SMap.add name e entries, index_attrs name e attrs)
        else (SMap.remove name entries, attrs))
      recompute (v.v_entries, v.v_attrs)
  in
  (* without marks, the view's own spine is the one publication before
     [stamp] *)
  let marks = match marks with Some m -> m | None -> Marks.at v.v_mark in
  let history, floor =
    gap_history ~history:v.v_history ~floor:v.v_floor ~since:v.v_mark.m_stamp
      marks ~stamp session
  in
  {
    v_mark = mark ~stamp session;
    v_index = idx;
    v_entries = entries;
    v_attrs = attrs;
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

let entry_equal a b =
  a.e_attrs = b.e_attrs
  && SSet.equal a.e_anc b.e_anc
  && SSet.equal a.e_desc b.e_desc
  && SSet.equal a.e_wholes b.e_wholes
  && SSet.equal a.e_parts b.e_parts
  && Core.Concept.equal a.e_wheel b.e_wheel

(** Logical equality: same materialized rows and attribute index.  Stamp,
    history and refresh bookkeeping are excluded — a from-scratch [build]
    has no history, and the property incremental ≡ from-scratch compares
    exactly the derived data. *)
let equal_logical a b =
  SMap.equal entry_equal a.v_entries b.v_entries
  && SMap.equal SSet.equal a.v_attrs b.v_attrs

let history v = v.v_history
