(** Algorithmic decomposition of a shrink wrap schema into concept schemas.

    The paper requires that a schema defined in extended ODL can be
    decomposed algorithmically: at least one wagon wheel exists for every
    object type, and the union of all initial concept schemas gives back the
    original shrink wrap schema.

    Functorized over {!Schema_view.S}: the naive backend scans the schema
    for every neighbourhood query, the indexed backend answers them from
    its adjacency maps.  Both produce identical concept lists (tested by
    property). *)

open Odl.Types
module SSet = Set.Make (String)

module Make (V : Schema_view.S) = struct
  (** The wagon wheel centred on [focus]: the focal interface, every
      interface one relationship link away (any kind, either direction),
      and the focal point's direct supertypes and subtypes. *)
  let wagon_wheel v focus =
    let i = V.get_interface v focus in
    let own_edges = List.map (fun r -> (focus, r.rel_name)) i.i_rels in
    let incoming =
      V.relationships_targeting v focus
      |> List.filter (fun (owner, _) -> not (String.equal owner.i_name focus))
      |> List.map (fun (owner, r) -> (owner.i_name, r.rel_name))
    in
    let neighbours =
      List.map (fun r -> r.rel_target) i.i_rels
      @ List.map fst incoming
      @ List.filter (V.mem_interface v) i.i_supertypes
      @ V.direct_subtypes v focus
    in
    let members =
      focus
      :: (neighbours
         |> List.filter (fun n -> not (String.equal n focus))
         |> List.sort_uniq compare)
    in
    Concept.make Wagon_wheel focus members (own_edges @ incoming)

  let wagon_wheels v =
    List.map (fun i -> wagon_wheel v i.i_name) (V.schema v).s_interfaces

  (* Reachable closure with an explicit edge accumulator. *)
  let reach children_edges start =
    let rec go seen members edges = function
      | [] -> (List.rev members, List.rev edges)
      | n :: rest ->
          if SSet.mem n seen then go seen members edges rest
          else
            let es = children_edges n in
            let nexts = List.map (fun (_, _, target) -> target) es in
            go (SSet.add n seen) (n :: members)
              (List.rev_append
                 (List.map (fun (owner, path, _) -> (owner, path)) es)
                 edges)
              (nexts @ rest)
    in
    let members, edges = go SSet.empty [] [] [ start ] in
    (members, List.rev edges)

  (** The generalization hierarchy rooted at [root]: the root and all its
      descendants; edges are not relationship paths (ISA is structural), so
      [c_edges] is empty and the projection keeps ISA links among members. *)
  let generalization_hierarchy v root =
    let members = root :: V.descendants v root in
    Concept.make Generalization root members []

  (* [name]'s own relationships playing [role], as (owner, path, target). *)
  let role_edges role v name =
    match V.find_interface v name with
    | None -> []
    | Some i ->
        i.i_rels
        |> List.filter (fun r -> role_of_relationship r = role)
        |> List.map (fun r -> (name, r.rel_name, r.rel_target))

  (* [name] is the target of some relationship playing [role]. *)
  let targeted_by role v name =
    V.relationships_targeting v name
    |> List.exists (fun (_, r) -> role_of_relationship r = role)

  (** The aggregation hierarchy (parts explosion) rooted at [root]. *)
  let aggregation_hierarchy v root =
    let members, edges = reach (role_edges Whole_end v) root in
    Concept.make Aggregation root members edges

  (** The instance-of hierarchy headed at [head]: the chain (in our
      experience linear, but branching is representable) of instance-of
      links. *)
  let instance_chain v head =
    let members, edges = reach (role_edges Generic_end v) head in
    Concept.make Instance_chain head members edges

  (* Direct part-of neighbours in one direction.  A part-of edge is
     declared on either end ({!Odl.Types.role_of_relationship}): the whole
     holds its parts ([Whole_end], target = part) or the part points at its
     whole ([Part_end], target = whole).  A step toward the parts follows
     [name]'s own [Whole_end] rels and the [Part_end] rels targeting it
     ([fwd] and [bwd]); a step toward the wholes the mirror.  Dangling
     targets are excluded. *)
  let part_step ~fwd ~bwd v name =
    let own =
      match V.find_interface v name with
      | None -> []
      | Some i ->
          i.i_rels
          |> List.filter (fun r ->
                 role_of_relationship r = fwd && V.mem_interface v r.rel_target)
          |> List.map (fun r -> r.rel_target)
    in
    let declared_at_other_end =
      V.relationships_targeting v name
      |> List.filter (fun (_, r) -> role_of_relationship r = bwd)
      |> List.map (fun (owner, _) -> owner.i_name)
    in
    own @ declared_at_other_end

  (* Everything [step] reaches from [start] in one or more steps, sorted;
     [start] itself only when a cycle leads back to it. *)
  let part_closure step v start =
    let rec go visited = function
      | [] -> visited
      | n :: rest ->
          if SSet.mem n visited then go visited rest
          else go (SSet.add n visited) (step v n @ rest)
    in
    SSet.elements (go SSet.empty (step v start))

  (** The transitive parts under [name], whichever end declared each edge. *)
  let parts = part_closure (part_step ~fwd:Whole_end ~bwd:Part_end)

  (** The transitive wholes [name] is a part of. *)
  let wholes = part_closure (part_step ~fwd:Part_end ~bwd:Whole_end)

  (* Membership rules: which hierarchy concept schemas exist.  Each costs
     only the named interface's neighbourhood, and both the enumerations
     and the by-id lookup below use them. *)

  (* An ISA root (no supertype among the schema's interfaces) that actually
     has subtypes: a lone interface is not a hierarchy. *)
  let is_generalization_root v r =
    V.mem_interface v r
    && V.direct_supertypes v r = []
    && V.direct_subtypes v r <> []

  (* Aggregates parts but is not itself a part of anything. *)
  let is_aggregation_root v r =
    role_edges Whole_end v r <> [] && not (targeted_by Whole_end v r)

  (* A generic entity that is not itself an instance of anything. *)
  let is_instance_head v r =
    role_edges Generic_end v r <> [] && not (targeted_by Generic_end v r)

  let generalization_hierarchies v =
    V.interface_names v
    |> List.filter (is_generalization_root v)
    |> List.map (generalization_hierarchy v)

  let aggregation_roots v =
    V.interface_names v |> List.filter (is_aggregation_root v)

  let aggregation_hierarchies v =
    List.map (aggregation_hierarchy v) (aggregation_roots v)

  let instance_heads v = V.interface_names v |> List.filter (is_instance_head v)
  let instance_chains v = List.map (instance_chain v) (instance_heads v)

  (** Full decomposition: wagon wheels (one per object type) followed by the
      generalization, aggregation, and instance-of hierarchies. *)
  let decompose v =
    wagon_wheels v
    @ generalization_hierarchies v
    @ aggregation_hierarchies v
    @ instance_chains v

  (** [concept v id] = [find (decompose v) id], at the cost of that one
      concept schema: the id's prefix (up to its first [':']) names the
      kind, the rest its focus, and the kind's membership rule decides
      whether the decomposition has it. *)
  let concept v id =
    match String.index_opt id ':' with
    | None -> None
    | Some k ->
        let focus = String.sub id (k + 1) (String.length id - k - 1) in
        let found exists make =
          if exists v focus then Some (make v focus) else None
        in
        match String.sub id 0 k with
        | "ww" -> found V.mem_interface wagon_wheel
        | "gh" -> found is_generalization_root generalization_hierarchy
        | "ah" -> found is_aggregation_root aggregation_hierarchy
        | "ih" -> found is_instance_head instance_chain
        | _ -> None
end

module Naive = Make (Schema_view.Naive)
module Indexed = Make (Schema_index)

let wagon_wheel = Naive.wagon_wheel
let wagon_wheels = Naive.wagon_wheels
let generalization_hierarchy = Naive.generalization_hierarchy
let aggregation_roots = Naive.aggregation_roots
let instance_heads = Naive.instance_heads
let decompose = Naive.decompose
let concept = Naive.concept

let find concepts id = List.find_opt (fun c -> String.equal c.Concept.c_id id) concepts
