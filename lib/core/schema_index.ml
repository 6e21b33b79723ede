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
    - [orderers] — name → set of interfaces holding a relationship with a
      non-empty [order_by] into it: the part of [mentions] that reads the
      target's attributes;
    - [attrs] — attribute name → set of interfaces declaring it (what the
      [@query attr] atom reads);
    - [counts] — the interfaces, attributes, relationship ends and
      operations of the schema, adjusted by each update's delta;
    - the validity memo: per-interface diagnostics, the names pending a
      re-check, the names whose diagnostics hold an error, and the
      schema-global block.

    The index is {e persistent}: updates return a new value and old values
    stay usable, which is what lets {!Session} implement undo by keeping
    old index versions.  For that reason the maps are balanced trees
    ([Map.Make (String)]) rather than mutable hashtables — a hashtable
    would be shared across versions and corrupted by divergence (the memo
    is mutable, but it is a {e per-version} field holding a persistent
    record, so mutation is only ever memoization).  An update re-files an
    interface in a reverse map only under the keys it gained or lost, so
    an update that leaves its supertypes, mentions or attribute names alone
    shares that map whole with the version before.

    Incrementality: when interface [x] changes, the set of interfaces whose
    per-interface check results (or propagation-rule firings) can change is

    {v affected(x) = B ∪ ⋃ {mentions(b) | b ∈ B}   where B = {x} ∪ descendants(x) v}

    — descendants because inherited visibility flows down the ISA graph,
    mentions because every cross-interface check first names the interface
    it depends on.  An update that keeps [x]'s name, supertypes and
    relationships changes only its attributes, operations, keys or extent;
    the only cross-interface reads of those are inherited visibility and an
    [order_by] naming a target's attribute, so for such an update

    {v affected(x) = B ∪ ⋃ {orderers(b) | b ∈ B} v}

    the {e local closure}.  {!update_interface} and {!patch} classify each
    update by these fields and move exactly that neighbourhood from the
    memo's diagnostics into its pending set, so {!is_valid} re-checks
    O(degree) interfaces instead of O(schema), and the schema is valid when
    the global block and the error set are both clear.  The schema-global
    checks are cached in two parts: duplicate names and hierarchy shape,
    invalidated only by updates that touch names, supertypes or
    relationships, and duplicate extents, invalidated only by updates that
    touch names or extents.

    Degenerate schemas with duplicate interface names (always an error, and
    rejected by {!Session.create}) are handled by falling back to a full
    rebuild on update and bypassing the cache for the duplicated names, so
    {!diagnostics} still equals the naive checker's output exactly; their
    validity is always decided by the full walk. *)

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
  g_dups : SSet.t;  (** duplicated interface names (cache-bypass set) *)
}

(* Invariant (schemas without duplicate names): every declared name is
   either pending, or has current diagnostics, which are in [diags] unless
   empty, and is in [failing] exactly when they hold an error. *)
type memo = {
  diags : iface_diags SMap.t;
      (** per-interface diagnostics, current; a settled name absent from it
          has none, as most names of a valid schema *)
  pending : SSet.t option;
      (** names whose diagnostics await a re-check; [None] while cold,
          meaning every name *)
  failing : SSet.t;  (** names whose diagnostics in [diags] hold an error *)
  global : global_diags option;
      (** the schema-global naming and hierarchy checks, once run *)
  extents : Validate.diagnostic list option;
      (** the schema-global duplicate-extent check, once run *)
}

type counts = {
  interfaces : int;
  attributes : int;
  relationship_ends : int;
  operations : int;
}

type t = {
  sch : schema;
  by_name : (interface * int) SMap.t;
      (** position = declaration order; not contiguous after removals *)
  subs : SSet.t SMap.t;
  mentions : SSet.t SMap.t;
  orderers : SSet.t SMap.t;
  attrs : SSet.t SMap.t;
  counts : counts;
  next_pos : int;
  has_dups : bool;
  mutable memo : memo;
}

let cold =
  {
    diags = SMap.empty;
    pending = None;
    failing = SSet.empty;
    global = None;
    extents = None;
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

let attr_names i =
  List.fold_left (fun s a -> SSet.add a.attr_name s) SSet.empty i.i_attrs

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

(* The keys an interface is filed under in [subs], [mentions], [orderers]
   and [attrs]; [no_refs] for an absent one. *)
type refs = {
  r_supers : SSet.t;
  r_mentions : SSet.t;
  r_ordered : SSet.t;
  r_attrs : SSet.t;
}

let no_refs =
  {
    r_supers = SSet.empty;
    r_mentions = SSet.empty;
    r_ordered = SSet.empty;
    r_attrs = SSet.empty;
  }

let refs_of i =
  {
    r_supers = SSet.of_list i.i_supertypes;
    r_mentions = mentioned_names i;
    r_ordered =
      List.fold_left
        (fun acc r ->
          if r.rel_order_by = [] then acc else SSet.add r.rel_target acc)
        SSet.empty i.i_rels;
    r_attrs = attr_names i;
  }

(* [name] leaves the keys of [old_keys] it is no longer under and joins the
   new ones: a map whose keys did not change comes back physically *)
let refile name old_keys new_keys m =
  SSet.fold (fun k m -> multi_add k name m) (SSet.diff new_keys old_keys) m
  |> SSet.fold (fun k m -> multi_remove k name m) (SSet.diff old_keys new_keys)

let reindex t name old_refs new_refs =
  {
    t with
    subs = refile name old_refs.r_supers new_refs.r_supers t.subs;
    mentions = refile name old_refs.r_mentions new_refs.r_mentions t.mentions;
    orderers = refile name old_refs.r_ordered new_refs.r_ordered t.orderers;
    attrs = refile name old_refs.r_attrs new_refs.r_attrs t.attrs;
  }

(* [c] with interface [i] added ([sign] = 1) or taken away ([sign] = -1) *)
let count sign i c =
  {
    interfaces = c.interfaces + sign;
    attributes = c.attributes + (sign * List.length i.i_attrs);
    relationship_ends = c.relationship_ends + (sign * List.length i.i_rels);
    operations = c.operations + (sign * List.length i.i_ops);
  }

let no_counts =
  { interfaces = 0; attributes = 0; relationship_ends = 0; operations = 0 }

(* The counts after [old_i] is replaced by [new_i]; an unchanged member
   list is skipped without being walked *)
let recount old_i new_i c =
  let delta xs ys = if xs == ys then 0 else List.length ys - List.length xs in
  {
    c with
    attributes = c.attributes + delta old_i.i_attrs new_i.i_attrs;
    relationship_ends = c.relationship_ends + delta old_i.i_rels new_i.i_rels;
    operations = c.operations + delta old_i.i_ops new_i.i_ops;
  }

let build sch =
  let empty =
    {
      sch;
      by_name = SMap.empty;
      subs = SMap.empty;
      mentions = SMap.empty;
      orderers = SMap.empty;
      attrs = SMap.empty;
      counts = no_counts;
      next_pos = 0;
      has_dups = false;
      memo = cold;
    }
  in
  List.fold_left
    (fun t i ->
      let t =
        { (reindex t i.i_name no_refs (refs_of i)) with counts = count 1 i t.counts }
      in
      if SMap.mem i.i_name t.by_name then { t with has_dups = true }
      else
        {
          t with
          by_name = SMap.add i.i_name (i, t.next_pos) t.by_name;
          next_pos = t.next_pos + 1;
        })
    empty sch.s_interfaces

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

(* [xs] less every element whose key appears again later in it: each
   key's last occurrence, in order. *)
let keep_last key xs =
  List.fold_left
    (fun (seen, acc) x ->
      let k = key x in
      if SSet.mem k seen then (seen, acc) else (SSet.add k seen, x :: acc))
    (SSet.empty, []) (List.rev xs)
  |> snd

let attrs_of t n = match find_interface t n with None -> [] | Some i -> i.i_attrs

let visible_attrs t name =
  let own = attrs_of t name in
  match ancestors t name with
  | [] -> keep_last (fun a -> a.attr_name) own
  | line ->
      keep_last
        (fun a -> a.attr_name)
        (List.fold_left (fun acc n -> attrs_of t n @ acc) own line)

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

(* [B] — [names] and their descendants — with every interface filed under
   a member of [B] in the reverse map [via] *)
let closure_via t via names =
  let b = desc_set t names in
  SSet.fold
    (fun n acc ->
      match SMap.find_opt n via with
      | None -> acc
      | Some refs -> SSet.union refs acc)
    b b

let dirty_closure t names = closure_via t t.mentions names
let local_closure t names = closure_via t t.orderers names

let declared t closure =
  closure |> SSet.elements |> List.filter (mem_interface t) |> in_declaration_order t

let affected_by t names = declared t (dirty_closure t names)
let locally_affected_by t names = declared t (local_closure t names)

let affected_count ?(local = false) t names =
  SSet.fold
    (fun n count -> if mem_interface t n then count + 1 else count)
    ((if local then local_closure else dirty_closure) t names)
    0

(* --- updates -------------------------------------------------------------

   The dirty set is computed on the pre-update index; it is invariant under
   the update itself ([subs] entries reachable from the changed name and the
   [mentions] of that region only ever change in ways already covered by the
   seed), so pre- and post-computation agree.  A local update changes
   neither [subs] nor [orderers], the maps its closure reads. *)

(* The memo after an update dirtying [dirty]: their diagnostics leave it
   and they join the pending set (a cold memo stays cold). *)
let invalidate m dirty ~keep_global ~keep_extents =
  {
    diags = SSet.fold SMap.remove dirty m.diags;
    pending = Option.map (SSet.union dirty) m.pending;
    failing = SSet.diff m.failing dirty;
    global = (if keep_global then m.global else None);
    extents = (if keep_extents then m.extents else None);
  }

(* An update leaves the fields it does not touch physically shared, so
   most comparisons end at the pointer. *)
let same a b = a == b || a = b

(* Of the schema-global checks, an interface update that keeps its name
   and position leaves the naming and hierarchy ones current when it
   keeps the supertype links and relationship ends, and the duplicate
   extent one when it keeps the extent. *)
let hierarchy_survives old_i new_i =
  same old_i.i_supertypes new_i.i_supertypes && same old_i.i_rels new_i.i_rels

let extents_survive old_i new_i = same old_i.i_extent new_i.i_extent

(* The classification every update shares: one that keeps the name, the
   supertypes and the relationships changes attributes, operations, keys
   or the extent only, and dirties the local closure; any other dirties
   the full one. *)
let keeps_structure old_i new_i =
  String.equal old_i.i_name new_i.i_name
  && same old_i.i_supertypes new_i.i_supertypes
  && same old_i.i_rels new_i.i_rels

let update_interface t name f =
  match SMap.find_opt name t.by_name with
  | None -> raise (Schema.Unknown_interface name)
  | Some (old_i, p) ->
      let new_i = f old_i in
      if t.has_dups || not (String.equal new_i.i_name name) then
        (* rename or duplicated names: rare, degenerate — rebuild *)
        build (Schema.update_interface t.sch name f)
      else
        let dirty =
          if keeps_structure old_i new_i then local_closure t [ name ]
          else dirty_closure t [ name ]
        in
        {
          (reindex t name (refs_of old_i) (refs_of new_i)) with
          sch = Schema.update_interface t.sch name (fun _ -> new_i);
          by_name = SMap.add name (new_i, p) t.by_name;
          counts = recount old_i new_i t.counts;
          memo =
            invalidate t.memo dirty
              ~keep_global:(hierarchy_survives old_i new_i)
              ~keep_extents:(extents_survive old_i new_i);
        }

let add_interface t i =
  let name = i.i_name in
  if t.has_dups || SMap.mem name t.by_name then
    build (Schema.add_interface t.sch i)
  else
    let dirty = dirty_closure t [ name ] in
    {
      (reindex t name no_refs (refs_of i)) with
      sch = Schema.add_interface t.sch i;
      by_name = SMap.add name (i, t.next_pos) t.by_name;
      counts = count 1 i t.counts;
      next_pos = t.next_pos + 1;
      memo = invalidate t.memo dirty ~keep_global:false ~keep_extents:false;
    }

let remove_interface t name =
  if t.has_dups then build (Schema.remove_interface t.sch name)
  else
    match SMap.find_opt name t.by_name with
    | None -> t  (* naive removal of an absent name is a no-op *)
    | Some (old_i, _) ->
        let dirty = dirty_closure t [ name ] in
        {
          (reindex t name (refs_of old_i) no_refs) with
          sch = Schema.remove_interface t.sch name;
          by_name = SMap.remove name t.by_name;
          counts = count (-1) old_i t.counts;
          memo = invalidate t.memo dirty ~keep_global:false ~keep_extents:false;
        }

let counts t = t.counts

(* --- patching a whole schema ------------------------------------------------

   [patch t sch] indexes [sch] starting from [t]: an interface of [sch]
   physically equal to [t]'s interface of that name is unchanged, every
   other one is changed, added or (absent from [sch]) removed.  Survivors
   keep their positions and new names take fresh ones after them, as
   [add_interface] gives them.  From the first survivor out of that order
   on — a survivor moved, a name inserted before one, an interface deleted
   and declared again (the engine appends it) — every interface takes a
   fresh position, a survivor among them counting as removed from its old
   one and added again.  Only a duplicated name is built from scratch.

   The memo is invalidated on the touched names' closures on [t]: the
   local closure of a survivor whose update keeps its structure (the
   classification of [update_interface]; a position only orders the
   global block, which a moved survivor invalidates), the full closure of
   every other touched name.  Applying the same changes one update at a
   time would take each closure on an intermediate index instead.  An
   edge there that [t] lacks is filed under a name touched with the full
   closure — its supertypes or relationships changed, or it was added or
   removed — and anything reached through it is a descendant of that name
   or mentions one, so it is in that name's closure on [t]; every other
   edge is in [t] too.  So every name those closures reach is in the
   closures on [t]. *)

let patch t sch =
  let exception Rebuild in
  (* The leading interfaces [sch] shares physically with [t]'s list, in
     its order, are survivors in place holding [t]'s lowest positions, up
     to [kept]: they are not looked up, and a rest of the list shared
     whole is not walked. *)
  let rec shared last olds news =
    match (olds, news) with
    | _ :: _, _ when olds == news -> (t.next_pos - 1, [], [])
    | o :: olds, i :: news when o == i -> shared (Some o) olds news
    | _ ->
        ( (match last with
          | None -> -1
          | Some o -> snd (SMap.find o.i_name t.by_name)),
          olds,
          news )
  in
  let kept, olds, news =
    if t.has_dups then (-1, [], sch.s_interfaces)
    else shared None t.sch.s_interfaces sch.s_interfaces
  in
  (* [t]'s positions past [kept]: 0 removed, 1 kept in place, 2 left for a
     fresh one *)
  let alive = Bytes.make t.next_pos '\000' in
  let is_alive p = p <= kept || Bytes.get alive p <> '\000' in
  let touched = ref [] and local = ref [] in
  let globals = ref true and extents = ref true in
  let counts = ref t.counts in
  let refile_to (t', by_name) i old_refs p =
    ( reindex t' i.i_name old_refs (refs_of i),
      SMap.add i.i_name (i, p) by_name )
  in
  let survivor acc old_i i p =
    if keeps_structure old_i i then local := i.i_name :: !local
    else touched := i.i_name :: !touched;
    counts := recount old_i i !counts;
    refile_to acc i (refs_of old_i) p
  in
  (* [prev]: the last position kept in place; [fresh]: whether the walk
     has left [t]'s order *)
  let place (acc, prev, next, fresh) i =
    match SMap.find_opt i.i_name t.by_name with
    | Some (old_i, p) when (not fresh) && p > prev ->
        Bytes.set alive p '\001';
        if old_i == i then (acc, p, next, fresh)
        else begin
          globals := !globals && hierarchy_survives old_i i;
          extents := !extents && extents_survive old_i i;
          (survivor acc old_i i p, p, next, fresh)
        end
    | Some (old_i, p) ->
        (* a name placed twice is a duplicate *)
        if is_alive p then raise Rebuild;
        Bytes.set alive p '\002';
        globals := false;
        extents := false;
        (survivor acc old_i i next, prev, next + 1, true)
    | None ->
        if SMap.mem i.i_name (snd acc) then raise Rebuild;
        globals := false;
        extents := false;
        touched := i.i_name :: !touched;
        counts := count 1 i !counts;
        (refile_to acc i no_refs next, prev, next + 1, true)
  in
  match
    if t.has_dups then raise Rebuild
    else List.fold_left place ((t, t.by_name), kept, t.next_pos, false) news
  with
  | exception Rebuild -> build sch
  | (t', by_name), _, next_pos, _ ->
      let t', by_name =
        (* none is removed when [sch] shares all of [t]'s list *)
        if olds = [] then (t', by_name)
        else
          SMap.fold
            (fun name (old_i, p) (t', by_name) ->
              if is_alive p then (t', by_name)
              else begin
                touched := name :: !touched;
                globals := false;
                extents := false;
                counts := count (-1) old_i !counts;
                (reindex t' name (refs_of old_i) no_refs, SMap.remove name by_name)
              end)
            t.by_name (t', by_name)
      in
      if !touched = [] && !local = [] then { t with sch }
      else
        {
          t' with
          sch;
          by_name;
          counts = !counts;
          next_pos;
          memo =
            invalidate t.memo
              (SSet.union (dirty_closure t !touched) (local_closure t !local))
              ~keep_global:!globals ~keep_extents:!extents;
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

(* --- incremental consistency checking ------------------------------------ *)

module Lookup = struct
  type nonrec t = t

  let schema = schema
  let find_interface = find_interface
  let mem_interface = mem_interface
  let direct_supertypes = direct_supertypes
  let ancestors = ancestors
  let visible_attrs = visible_attrs
end

module C = Validate.Checks (Lookup)

let is_error (d : Validate.diagnostic) = d.severity = Validate.Error

(* The schema-global block, each part from the memo when it has it. *)
let global_block t =
  let g =
    match t.memo.global with
    | Some g -> g
    | None ->
        let g_naming = C.naming_global t in
        {
          g_naming;
          g_hierarchy = C.hierarchy t;
          g_dups =
            List.fold_left
              (fun s (d : Validate.diagnostic) -> SSet.add d.subject s)
              SSet.empty g_naming;
        }
  in
  match t.memo.extents with
  | Some e -> (g, e)
  | None -> (g, C.semantic_global t)

let check_interface t i =
  {
    d_naming = C.naming_interface i;
    d_structural = C.structural_interface t i;
    d_semantic = C.semantic_interface t i;
  }

let has_error d =
  List.exists is_error d.d_naming
  || List.exists is_error d.d_structural
  || List.exists is_error d.d_semantic

let flag name d failing = if has_error d then SSet.add name failing else failing

let no_diags = { d_naming = []; d_structural = []; d_semantic = [] }

(* [name]'s fresh diagnostics [d] entered into the memo's maps; [name] is
   not in them yet *)
let note name d (diags, failing) =
  if d = no_diags then (diags, failing)
  else (SMap.add name d diags, flag name d failing)

(* Every interface's diagnostics in declaration order, served from the memo
   where it has them; the memo, settled, is stored back in one write.
   Duplicated names share one memo slot, so each of their records bypasses
   it and is checked individually, exactly as the naive checker does. *)
let walk t =
  let m = t.memo in
  let g, e = global_block t in
  let settled n =
    match m.pending with None -> false | Some p -> not (SSet.mem n p)
  in
  let (diags, failing), per =
    List.fold_left_map
      (fun acc i ->
        if t.has_dups && SSet.mem i.i_name g.g_dups then
          (acc, check_interface t i)
        else
          let diags, failing = acc in
          match SMap.find_opt i.i_name diags with
          | Some d -> ((diags, flag i.i_name d failing), d)
          | None when settled i.i_name -> (acc, no_diags)
          | None ->
              let d = check_interface t i in
              (note i.i_name d acc, d))
      (m.diags, SSet.empty) t.sch.s_interfaces
  in
  t.memo <-
    { diags; pending = Some SSet.empty; failing; global = Some g; extents = Some e };
  (g, e, failing, per)

let diagnostics t =
  let g, e, _, per = walk t in
  g.g_naming
  @ List.concat_map (fun d -> d.d_naming) per
  @ List.concat_map (fun d -> d.d_structural) per
  @ g.g_hierarchy @ e
  @ List.concat_map (fun d -> d.d_semantic) per

(* The global block and the error set with nothing pending: a cold memo
   pays the full walk, a warm one re-checks only its pending names. *)
let settle t =
  let m = t.memo in
  match (m.pending, m.global, m.extents) with
  | None, _, _ ->
      let g, e, failing, _ = walk t in
      (g, e, failing)
  | Some p, Some g, Some e when SSet.is_empty p -> (g, e, m.failing)
  | Some p, _, _ ->
      let g, e = global_block t in
      let diags, failing =
        SSet.fold
          (fun n acc ->
            match find_interface t n with
            | None -> acc
            | Some i -> note n (check_interface t i) acc)
          p (m.diags, m.failing)
      in
      t.memo <-
        { diags; pending = Some SSet.empty; failing; global = Some g; extents = Some e };
      (g, e, failing)

let is_valid t =
  if t.has_dups then not (List.exists is_error (diagnostics t))
  else
    let g, e, failing = settle t in
    SSet.is_empty failing
    && not
         (List.exists is_error g.g_naming
         || List.exists is_error g.g_hierarchy
         || List.exists is_error e)

let errors t = if is_valid t then [] else List.filter is_error (diagnostics t)

let declarers t attr =
  Option.value (SMap.find_opt attr t.attrs) ~default:SSet.empty

let attrs_from t k = SMap.to_seq_from k t.attrs
