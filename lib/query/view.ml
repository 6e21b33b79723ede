(** The published query value of one variant: a session as one
    publication made it visible, with the little the session alone cannot
    answer.

    The evaluator answers names, attributes, ISA and part-of closures and
    wagon wheels straight from the session's {!Core.Schema_index} — the
    index every op already keeps up to date, attribute → declarers map
    included — so a view holds no copy of the schema to keep in sync.
    What it adds is its {!trail}:

    - a bounded, newest-first history of (publication stamp, rendered op)
      pairs feeding [diff] queries, with the floor below which it is
      truncated.  A publication only conses its lines on; the trail is
      cut back to [max_history] lines once it holds twice that, and
      {!history} and {!floor_stamp} cut on read, so a publication is O(its
      lines) and the answers are those of a trail cut at every one;
    - the spine of the publication's session, from which the next
      publication finds its lines;
    - the variant's cached lineage record.

    {!refresh} is the publication step.  The server runs it on the
    publishing thread and publishes the view in the same atomic cell as
    the engine state, so a reader gets state, stamp and [diff] lines from
    one load.  It renders the steps the publication undid and added since
    the previous one — {!Core.Session.delta} between their spines, O(1)
    for one op, the whole history only when a reload brings a fresh spine
    — under the publication's own stamp.  That is the walk that also
    encodes the journal records, so a [diff] line and the record that made
    it durable always agree.  The trail alone is what the server keeps
    across the variant's eviction ({!resume}), so [diff] history survives
    a reload. *)

type trail = {
  stamp : int;  (** the publication this trail ends at *)
  spine : Core.Session.spine;  (** that publication's session steps *)
  lines : (int * string) list;
      (** newest first; feeds [diff] through {!history}, which reads only
          the newest [max_history] *)
  held : int;  (** [List.length lines], at most [2 * max_history] *)
  floor : int;
      (** stamps ≤ this have no retained lines; {!floor_stamp} also counts
          the lines past [max_history] as dropped *)
  lineage : (string * int) option;
      (** the variant's (parent, fork stamp) manifest record, read when
          its first view was built; feeds the [lineage] atom *)
}

type t = { session : Core.Session.t; trail : trail }

let max_history = 512

let stamp v = v.trail.stamp
let session v = v.session
let trail v = v.trail
let lineage v = v.trail.lineage

let render_step (s : Core.Session.step) =
  "@"
  ^ Core.Concept.id_prefix s.Core.Session.st_kind
  ^ " "
  ^ s.Core.Session.st_text

(* Keep the newest [max_history] lines; the floor rises to the newest
   stamp dropped.  Stamps only grow, so cutting late raises the floor to
   what cutting at every publication would have. *)
let bound_history floor lines =
  let rec take n acc = function
    | x :: tl when n > 0 -> take (n - 1) (x :: acc) tl
    | rest -> (List.rev acc, rest)
  in
  let kept, dropped = take max_history [] lines in
  match dropped with
  | [] -> (kept, floor)
  | (s, _) :: _ -> (kept, max floor s)

let history v =
  let tr = v.trail in
  if tr.held <= max_history then tr.lines else fst (bound_history tr.floor tr.lines)

let floor_stamp v =
  let tr = v.trail in
  if tr.held <= max_history then tr.floor
  else max tr.floor (fst (List.nth tr.lines max_history))

(** The first view of a variant: its history starts empty at [stamp]. *)
let build ?lineage ~stamp session =
  let spine = Core.Session.spine session in
  { session; trail = { stamp; spine; lines = []; held = 0; floor = stamp; lineage } }

(** Publication [stamp] of [session], continuing [tr]: the steps undone
    and added since [tr]'s publication, in chronological order (undos
    newest-popped first, then the fresh steps oldest first), each under
    [stamp].  A stamp at or below [tr]'s leaves the history as it is (a
    follower may republish at its newest stamp). *)
let resume tr ~stamp session =
  if stamp <= tr.stamp then { session; trail = tr }
  else
    let spine = Core.Session.spine session in
    let undone, added = Core.Session.delta tr.spine spine in
    let events =
      List.rev_map (fun s -> "undo " ^ render_step s) undone
      @ List.map render_step added
    in
    let tr =
      {
        tr with
        stamp;
        spine;
        lines = List.fold_left (fun l e -> (stamp, e) :: l) tr.lines events;
        held = tr.held + List.length events;
      }
    in
    if tr.held <= 2 * max_history then { session; trail = tr }
    else
      let lines, floor = bound_history tr.floor tr.lines in
      { session; trail = { tr with lines; held = max_history; floor } }

(** {!resume} from [v]'s trail; [v] itself when [stamp <= stamp v]. *)
let refresh v ~stamp session =
  if stamp <= v.trail.stamp then v else resume v.trail ~stamp session
