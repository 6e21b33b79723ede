(** Queries and functional updates over schemas.

    Schemas are small (hundreds of interfaces at most), so everything is
    implemented over the interface list directly; order of declaration is
    preserved by all updates. *)

open Types

let find_interface schema name =
  List.find_opt (fun i -> String.equal i.i_name name) schema.s_interfaces

let mem_interface schema name = Option.is_some (find_interface schema name)

exception Unknown_interface of type_name

(** [get_interface schema name] is the interface named [name].
    @raise Unknown_interface if absent. *)
let get_interface schema name =
  match find_interface schema name with
  | Some i -> i
  | None -> raise (Unknown_interface name)

let interface_names schema = List.map (fun i -> i.i_name) schema.s_interfaces

(** [update_interface schema name f] replaces the interface named [name] by
    [f] of it.  @raise Unknown_interface if absent. *)
let update_interface schema name f =
  if not (mem_interface schema name) then raise (Unknown_interface name);
  let replace i = if String.equal i.i_name name then f i else i in
  { schema with s_interfaces = List.map replace schema.s_interfaces }

(** [add_interface schema i] appends [i]; the caller must ensure the name is
    fresh (see {!mem_interface}). *)
let add_interface schema i =
  { schema with s_interfaces = schema.s_interfaces @ [ i ] }

let remove_interface schema name =
  {
    schema with
    s_interfaces =
      List.filter (fun i -> not (String.equal i.i_name name)) schema.s_interfaces;
  }

(* Component lookups within one interface. *)

let find_attr i name = List.find_opt (fun a -> String.equal a.attr_name name) i.i_attrs
let find_rel i name = List.find_opt (fun r -> String.equal r.rel_name name) i.i_rels
let find_op i name = List.find_opt (fun o -> String.equal o.op_name name) i.i_ops

let has_attr i name = Option.is_some (find_attr i name)
let has_rel i name = Option.is_some (find_rel i name)
let has_op i name = Option.is_some (find_op i name)

(* Generalization hierarchy queries.  All traversals carry a visited set so
   they terminate even on (invalid) cyclic ISA graphs. *)

let direct_supertypes schema name =
  match find_interface schema name with
  | None -> []
  | Some i -> List.filter (mem_interface schema) i.i_supertypes

let direct_subtypes schema name =
  schema.s_interfaces
  |> List.filter (fun i -> List.mem name i.i_supertypes)
  |> List.map (fun i -> i.i_name)

let rec closure next visited frontier =
  match frontier with
  | [] -> List.rev visited
  | n :: rest ->
      if List.mem n visited then closure next visited rest
      else closure next (n :: visited) (next n @ rest)

(** Proper ancestors of [name] in ISA order (nearest first, duplicates
    removed); [name] itself is excluded. *)
let ancestors schema name =
  closure (direct_supertypes schema) [] (direct_supertypes schema name)

(** Proper descendants of [name]; [name] itself is excluded. *)
let descendants schema name =
  closure (direct_subtypes schema) [] (direct_subtypes schema name)

(** [same_isa_line schema a b] holds when [a] and [b] lie on one
    ancestor/descendant line of the generalization hierarchy (including
    [a = b]).  This is the paper's "semantic stability" relation: information
    may only move between such interfaces. *)
let same_isa_line schema a b =
  String.equal a b
  || List.mem b (ancestors schema a)
  || List.mem b (descendants schema a)

(** Interfaces without supertypes — the roots of generalization hierarchies. *)
let isa_roots schema =
  schema.s_interfaces
  |> List.filter (fun i ->
         not (List.exists (mem_interface schema) i.i_supertypes))
  |> List.map (fun i -> i.i_name)

(* Inheritance: collect inherited instance properties top-down so that a
   subtype redefinition overrides (by name) what a supertype declares. *)

let topo_ancestors schema name =
  (* ancestors from the most distant down to the interface itself *)
  List.rev (name :: ancestors schema name)

let dedup_by key xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    xs

(** All attributes visible on [name], inherited ones first; a redefinition in
    a subtype shadows the supertype's attribute of the same name. *)
let visible_attrs schema name =
  topo_ancestors schema name
  |> List.concat_map (fun n ->
         match find_interface schema n with None -> [] | Some i -> i.i_attrs)
  |> List.rev
  |> dedup_by (fun a -> a.attr_name)
  |> List.rev

let visible_rels schema name =
  topo_ancestors schema name
  |> List.concat_map (fun n ->
         match find_interface schema n with None -> [] | Some i -> i.i_rels)
  |> List.rev
  |> dedup_by (fun r -> r.rel_name)
  |> List.rev

(** All [(owner, relationship)] pairs in the schema. *)
let all_relationships schema =
  List.concat_map (fun i -> List.map (fun r -> (i, r)) i.i_rels) schema.s_interfaces

(** Relationships (with their owners) whose target is [name]. *)
let relationships_targeting schema name =
  all_relationships schema
  |> List.filter (fun (_, r) -> String.equal r.rel_target name)

(** The declared inverse of [(owner, r)], if present on the target. *)
let inverse_of schema (r : relationship) =
  match find_interface schema r.rel_target with
  | None -> None
  | Some target -> (
      match find_rel target r.rel_inverse with
      | Some inv -> Some (target, inv)
      | None -> None)

let count_constructs schema =
  List.fold_left
    (fun (a, r, o) i ->
      (a + List.length i.i_attrs, r + List.length i.i_rels, o + List.length i.i_ops))
    (0, 0, 0) schema.s_interfaces

let size schema =
  let a, r, o = count_constructs schema in
  List.length schema.s_interfaces + a + r + o
