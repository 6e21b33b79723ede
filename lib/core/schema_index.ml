(** The indexed schema backend: O(log n) lookups, adjacency maps and
    incremental, dirty-set consistency checking.

    A value of type {!t} carries, alongside the schema itself:

    - [by_name] — name → (interface record, declaration position);
    - [subs] — supertype name → set of interfaces declaring it (the reverse
      ISA adjacency; keys may be dangling names);
    - [mentions] — name → set of interfaces whose definition mentions it
      anywhere (supertype list, relationship target, attribute domain,
      operation signature).  This is the reverse dependency relation the
      dirty-set is computed from;
    - a per-interface diagnostics cache plus a cache of the schema-global
      check results.

    The index is {e persistent}: updates return a new value and old values
    stay usable, which is what lets {!Session} implement undo by keeping
    old index versions.  For that reason the maps are balanced trees
    ([Map.Make (String)]) rather than mutable hashtables — a hashtable
    would be shared across versions and corrupted by divergence (the caches
    are mutable, but they are {e per-version} fields holding persistent
    maps, so mutation is only ever memoization).

    Incrementality: when interface [x] changes, the set of interfaces whose
    per-interface check results (or propagation-rule firings) can change is

    {v affected(x) = B ∪ ⋃ {mentions(b) | b ∈ B}   where B = {x} ∪ descendants(x) v}

    — descendants because inherited visibility flows down the ISA graph,
    mentions because every cross-interface check first names the interface
    it depends on.  {!update_interface} invalidates exactly that
    neighbourhood, so a later {!diagnostics} recomputes O(degree) interface
    checks instead of O(schema).  The schema-global checks (duplicate
    names, hierarchy shape, duplicate extents) are cached as a block and
    invalidated only by updates that touch names, supertypes, relationships
    or extents.

    Degenerate schemas with duplicate interface names (always an error, and
    rejected by {!Session.create}) are handled by falling back to a full
    rebuild on update and bypassing the cache for the duplicated names, so
    {!diagnostics} still equals the naive checker's output exactly. *)

open Odl.Types
module Schema = Odl.Schema
module Validate = Odl.Validate
module SMap = Map.Make (String)
module SSet = Set.Make (String)

type iface_diags = {
  d_naming : Validate.diagnostic list;
  d_structural : Validate.diagnostic list;
  d_semantic : Validate.diagnostic list;
}

type global_diags = {
  g_naming : Validate.diagnostic list;
  g_hierarchy : Validate.diagnostic list;
  g_extents : Validate.diagnostic list;
  g_dups : SSet.t;  (** duplicated interface names (cache-bypass set) *)
}

type t = {
  sch : schema;
  by_name : (interface * int) SMap.t;
      (** position = declaration order; not contiguous after removals *)
  subs : SSet.t SMap.t;
  mentions : SSet.t SMap.t;
  next_pos : int;
  has_dups : bool;
  mutable cache : iface_diags SMap.t;
  mutable g_cache : global_diags option;
}

(* --- reverse-reference maintenance -------------------------------------- *)

let mentioned_names i =
  let add_domain d acc =
    match base_name d with None -> acc | Some n -> SSet.add n acc
  in
  SSet.empty
  |> (fun acc -> List.fold_left (Fun.flip SSet.add) acc i.i_supertypes)
  |> (fun acc ->
       List.fold_left (fun acc r -> SSet.add r.rel_target acc) acc i.i_rels)
  |> (fun acc ->
       List.fold_left (fun acc a -> add_domain a.attr_type acc) acc i.i_attrs)
  |> fun acc ->
  List.fold_left
    (fun acc o ->
      List.fold_left
        (fun acc a -> add_domain a.arg_type acc)
        (add_domain o.op_return acc) o.op_args)
    acc i.i_ops

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

let index_refs name i (subs, mentions) =
  let subs = List.fold_left (fun m s -> multi_add s name m) subs i.i_supertypes in
  let mentions =
    SSet.fold (fun m acc -> multi_add m name acc) (mentioned_names i) mentions
  in
  (subs, mentions)

let deindex_refs name i (subs, mentions) =
  let subs =
    List.fold_left (fun m s -> multi_remove s name m) subs i.i_supertypes
  in
  let mentions =
    SSet.fold (fun m acc -> multi_remove m name acc) (mentioned_names i) mentions
  in
  (subs, mentions)

let build sch =
  let by_name, subs, mentions, next_pos, has_dups =
    List.fold_left
      (fun (by, subs, mentions, pos, dups) i ->
        let dups = dups || SMap.mem i.i_name by in
        let by =
          if SMap.mem i.i_name by then by else SMap.add i.i_name (i, pos) by
        in
        let subs, mentions = index_refs i.i_name i (subs, mentions) in
        (by, subs, mentions, pos + 1, dups))
      (SMap.empty, SMap.empty, SMap.empty, 0, false)
      sch.s_interfaces
  in
  {
    sch;
    by_name;
    subs;
    mentions;
    next_pos;
    has_dups;
    cache = SMap.empty;
    g_cache = None;
  }

(* --- queries -------------------------------------------------------------

   Each must answer exactly as the corresponding [Odl.Schema] scan does,
   including result order; the traversal code below mirrors the naive
   algorithms with the list scans replaced by map lookups. *)

let schema t = t.sch
let find_interface t n = Option.map fst (SMap.find_opt n t.by_name)
let mem_interface t n = SMap.mem n t.by_name

let get_interface t n =
  match find_interface t n with
  | Some i -> i
  | None -> raise (Schema.Unknown_interface n)

let interface_names t = List.map (fun i -> i.i_name) t.sch.s_interfaces
let names_from t k = Seq.map fst (SMap.to_seq_from k t.by_name)

let pos_of t n =
  match SMap.find_opt n t.by_name with Some (_, p) -> p | None -> max_int

let in_declaration_order t names =
  List.sort (fun a b -> compare (pos_of t a) (pos_of t b)) names

let direct_supertypes t n =
  match find_interface t n with
  | None -> []
  | Some i -> List.filter (mem_interface t) i.i_supertypes

let direct_subtypes t n =
  match SMap.find_opt n t.subs with
  | None -> []
  | Some s -> in_declaration_order t (SSet.elements s)

(* Depth-first closure in first-visit order (that of [Odl.Schema.closure]);
   the visited set is kept beside the result so a hierarchy of [k] members
   costs O(k log k) rather than O(k^2). *)
let closure next frontier =
  let rec go seen acc = function
    | [] -> List.rev acc
    | n :: rest ->
        if SSet.mem n seen then go seen acc rest
        else go (SSet.add n seen) (n :: acc) (next n @ rest)
  in
  go SSet.empty [] frontier

let ancestors t n = closure (direct_supertypes t) (direct_supertypes t n)
let descendants t n = closure (direct_subtypes t) (direct_subtypes t n)

let same_isa_line t a b =
  String.equal a b || List.mem b (ancestors t a) || List.mem b (descendants t a)

let topo_ancestors t name = List.rev (name :: ancestors t name)

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

let visible_attrs t name =
  topo_ancestors t name
  |> List.concat_map (fun n ->
         match find_interface t n with None -> [] | Some i -> i.i_attrs)
  |> List.rev
  |> dedup_by (fun a -> a.attr_name)
  |> List.rev

let relationships_targeting t name =
  (match SMap.find_opt name t.mentions with
  | None -> []
  | Some owners -> in_declaration_order t (SSet.elements owners))
  |> List.filter_map (find_interface t)
  |> List.concat_map (fun owner ->
         owner.i_rels
         |> List.filter (fun r -> String.equal r.rel_target name)
         |> List.map (fun r -> (owner, r)))

(* --- the dirty neighbourhood --------------------------------------------- *)

(* [seeds] plus all their transitive subtypes, as a set (order irrelevant
   here).  Walks [subs] directly so it also works for just-removed names. *)
let desc_set t seeds =
  let rec go visited = function
    | [] -> visited
    | n :: rest ->
        if SSet.mem n visited then go visited rest
        else
          let subs =
            match SMap.find_opt n t.subs with
            | None -> []
            | Some s -> SSet.elements s
          in
          go (SSet.add n visited) (subs @ rest)
  in
  go SSet.empty seeds

let dirty_closure t names =
  let b = desc_set t names in
  SSet.fold
    (fun n acc ->
      match SMap.find_opt n t.mentions with
      | None -> acc
      | Some refs -> SSet.union refs acc)
    b b

let affected_by t names =
  dirty_closure t names |> SSet.elements
  |> List.filter (mem_interface t)
  |> in_declaration_order t

let affected_count t names =
  SSet.fold
    (fun n count -> if mem_interface t n then count + 1 else count)
    (dirty_closure t names) 0

(* --- updates -------------------------------------------------------------

   The dirty set is computed on the pre-update index; it is invariant under
   the update itself ([subs] entries reachable from the changed name and the
   [mentions] of that region only ever change in ways already covered by the
   seed), so pre- and post-computation agree. *)

let prune dirty cache = SSet.fold SMap.remove dirty cache

(* Schema-global checks survive an interface update that leaves names,
   supertype links, relationship ends and extents untouched. *)
let globals_survive old_i new_i =
  old_i.i_supertypes = new_i.i_supertypes
  && old_i.i_rels = new_i.i_rels
  && old_i.i_extent = new_i.i_extent

let update_interface t name f =
  match SMap.find_opt name t.by_name with
  | None -> raise (Schema.Unknown_interface name)
  | Some (old_i, p) ->
      let new_i = f old_i in
      if t.has_dups || not (String.equal new_i.i_name name) then
        (* rename or duplicated names: rare, degenerate — rebuild *)
        build (Schema.update_interface t.sch name f)
      else
        let dirty = dirty_closure t [ name ] in
        let refs = deindex_refs name old_i (t.subs, t.mentions) in
        let subs, mentions = index_refs name new_i refs in
        {
          t with
          sch = Schema.update_interface t.sch name (fun _ -> new_i);
          by_name = SMap.add name (new_i, p) t.by_name;
          subs;
          mentions;
          cache = prune dirty t.cache;
          g_cache =
            (if globals_survive old_i new_i then t.g_cache else None);
        }

let add_interface t i =
  let name = i.i_name in
  if t.has_dups || SMap.mem name t.by_name then
    build (Schema.add_interface t.sch i)
  else
    let dirty = dirty_closure t [ name ] in
    let subs, mentions = index_refs name i (t.subs, t.mentions) in
    {
      t with
      sch = Schema.add_interface t.sch i;
      by_name = SMap.add name (i, t.next_pos) t.by_name;
      subs;
      mentions;
      next_pos = t.next_pos + 1;
      cache = prune dirty t.cache;
      g_cache = None;
    }

let remove_interface t name =
  if t.has_dups then build (Schema.remove_interface t.sch name)
  else
    match SMap.find_opt name t.by_name with
    | None -> t  (* naive removal of an absent name is a no-op *)
    | Some (old_i, _) ->
        let dirty = dirty_closure t [ name ] in
        let subs, mentions = deindex_refs name old_i (t.subs, t.mentions) in
        {
          t with
          sch = Schema.remove_interface t.sch name;
          by_name = SMap.remove name t.by_name;
          subs;
          mentions;
          cache = prune dirty t.cache;
          g_cache = None;
        }

(* --- shelved versions ------------------------------------------------------

   An index version keeps its schema's interface list materialized, and
   every update builds a new list spine: O(n) words per version.  A
   history of old versions (undo) need not hold those spines, because
   [by_name] records each interface with its declaration position; a
   shelved version drops the list and rebuilds it on demand.  A schema with
   duplicated names cannot be recovered from [by_name], so it keeps its
   list. *)

type shelved = t

let shelve t =
  if t.has_dups then t else { t with sch = { t.sch with s_interfaces = [] } }

let unshelve t =
  if t.has_dups then t
  else
    let s_interfaces =
      SMap.fold (fun _ (i, p) acc -> (p, i) :: acc) t.by_name []
      |> List.sort (fun (p, _) (q, _) -> Int.compare p q)
      |> List.map snd
    in
    { t with sch = { t.sch with s_interfaces } }

(* --- version deltas ------------------------------------------------------ *)

(* Because updates rebuild only the touched [by_name] entries (persistent
   maps share the rest), two versions of one lineage disagree physically on
   exactly the entries some update replaced.  Comparing entries by pointer
   therefore recovers the changed-name set without storing any explicit
   changelog, but it folds both maps whole: O(n log n) for any change,
   even a one-entry one.  A no-op update that returns the old record
   unchanged compares equal and is (correctly) not reported. *)
let changed_names a b =
  if a.sch == b.sch then []
  else
    let s =
      SMap.fold
        (fun n (ia, _) acc ->
          match SMap.find_opt n b.by_name with
          | Some (ib, _) when ia == ib -> acc
          | _ -> SSet.add n acc)
        a.by_name SSet.empty
    in
    let s =
      SMap.fold
        (fun n _ acc -> if SMap.mem n a.by_name then acc else SSet.add n acc)
        b.by_name s
    in
    SSet.elements s

(* --- incremental consistency checking ------------------------------------ *)

module Lookup = struct
  type nonrec t = t

  let schema = schema
  let find_interface = find_interface
  let mem_interface = mem_interface
  let direct_supertypes = direct_supertypes
  let direct_subtypes = direct_subtypes
  let ancestors = ancestors
  let visible_attrs = visible_attrs
end

module C = Validate.Checks (Lookup)

let globals t =
  match t.g_cache with
  | Some g -> g
  | None ->
      let g_naming = C.naming_global t in
      let g =
        {
          g_naming;
          g_hierarchy = C.hierarchy t;
          g_extents = C.semantic_global t;
          g_dups =
            List.fold_left
              (fun s (d : Validate.diagnostic) -> SSet.add d.subject s)
              SSet.empty g_naming;
        }
      in
      t.g_cache <- Some g;
      g

let interface_diags t ~bypass i =
  let compute () =
    {
      d_naming = C.naming_interface i;
      d_structural = C.structural_interface t i;
      d_semantic = C.semantic_interface t i;
    }
  in
  if bypass then compute ()
  else
    match SMap.find_opt i.i_name t.cache with
    | Some d -> d
    | None ->
        let d = compute () in
        t.cache <- SMap.add i.i_name d t.cache;
        d

let diagnostics t =
  let g = globals t in
  let per =
    List.map
      (fun i ->
        (* duplicated names share one cache slot; bypass it so each record
           is checked individually, exactly as the naive checker does *)
        interface_diags t ~bypass:(t.has_dups && SSet.mem i.i_name g.g_dups) i)
      t.sch.s_interfaces
  in
  g.g_naming
  @ List.concat_map (fun d -> d.d_naming) per
  @ List.concat_map (fun d -> d.d_structural) per
  @ g.g_hierarchy @ g.g_extents
  @ List.concat_map (fun d -> d.d_semantic) per

let errors t =
  List.filter
    (fun (d : Validate.diagnostic) -> d.severity = Validate.Error)
    (diagnostics t)

let is_valid t = errors t = []
