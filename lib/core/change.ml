(** The vocabulary of schema changes, used for impact reports and the
    shrink-wrap → custom mapping.

    Applying one operation produces one {e direct} change plus any number of
    {e propagated} changes (the knowledge component's propagation rules);
    showing the full event list before committing is the paper's impact
    report. *)

open Odl.Types

type construct =
  | C_interface of type_name
  | C_supertype of type_name * type_name  (** (subtype, supertype) link *)
  | C_extent of type_name
  | C_key of type_name * string list
  | C_attribute of type_name * string
  | C_relationship of type_name * string
  | C_operation of type_name * string
[@@deriving show, eq, ord]

type change =
  | Added of construct
  | Removed of construct
  | Altered of construct * string  (** in-place modification, described *)
  | Moved of construct * type_name  (** relocated to the named interface *)
[@@deriving show, eq, ord]

type event = {
  ev_change : change;
  ev_direct : bool;  (** [false] for propagated consequences *)
}
[@@deriving show, eq, ord]

let direct change = { ev_change = change; ev_direct = true }
let propagated change = { ev_change = change; ev_direct = false }

(* The interfaces whose records a construct lives in. *)
let construct_owners = function
  | C_interface n | C_extent n | C_key (n, _) | C_attribute (n, _)
  | C_relationship (n, _) | C_operation (n, _) ->
      [ n ]
  | C_supertype (sub, _) -> [ sub ]  (* the link is stored on the subtype *)

(** The interfaces whose records an event list touches — the seed of the
    dirty set for incremental re-checking and propagation.  Sorted,
    duplicate-free; may include names of just-removed interfaces. *)
let touched_names events =
  events
  |> List.concat_map (fun e ->
         match e.ev_change with
         | Added c | Removed c | Altered (c, _) -> construct_owners c
         | Moved (c, dest) -> dest :: construct_owners c)
  |> List.sort_uniq compare

(** Whether every event changes an attribute, an operation, a key or an
    extent: such events leave every interface's name, supertypes and
    relationships as they were, so their owners' updates are local (see
    {!Schema_view.S.locally_affected_by}). *)
let members_only events =
  List.for_all
    (fun e ->
      match e.ev_change with
      | Added c | Removed c | Altered (c, _) | Moved (c, _) -> (
          match c with
          | C_attribute _ | C_operation _ | C_key _ | C_extent _ -> true
          | C_interface _ | C_supertype _ | C_relationship _ -> false))
    events

let construct_to_string = function
  | C_interface n -> Printf.sprintf "interface %s" n
  | C_supertype (sub, super) -> Printf.sprintf "supertype link %s : %s" sub super
  | C_extent n -> Printf.sprintf "extent of %s" n
  | C_key (n, k) -> Printf.sprintf "key (%s) of %s" (String.concat ", " k) n
  | C_attribute (n, a) -> Printf.sprintf "attribute %s.%s" n a
  | C_relationship (n, r) -> Printf.sprintf "relationship %s.%s" n r
  | C_operation (n, o) -> Printf.sprintf "operation %s.%s" n o

let change_to_string = function
  | Added c -> "added " ^ construct_to_string c
  | Removed c -> "removed " ^ construct_to_string c
  | Altered (c, how) -> Printf.sprintf "altered %s (%s)" (construct_to_string c) how
  | Moved (c, dest) ->
      Printf.sprintf "moved %s to %s" (construct_to_string c) dest

let event_to_string e =
  (if e.ev_direct then "" else "  [propagated] ") ^ change_to_string e.ev_change

let pp_event ppf e = Fmt.string ppf (event_to_string e)
