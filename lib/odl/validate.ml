(** Well-formedness checking for extended-ODL schemas.

    Diagnostics carry the paper's knowledge-component classification:
    structural, hierarchy, semantic and naming categories, at error or
    warning severity.  A schema is {e valid} when it has no error-level
    diagnostics; warnings are designer feedback.

    The checks themselves are written once, in the {!Checks} functor,
    against an abstract {!LOOKUP} backend.  The naive backend (this module's
    top-level [check]) resolves every lookup by scanning the interface list;
    [Core.Schema_index] instantiates the same functor over its adjacency
    maps, which is what makes the indexed checker's diagnostics equal to the
    naive checker's by construction (and differentially tested). *)

open Types

(* Note: no [@@deriving] on these types — a constructor named [Error] clashes
   with the [result] constructor re-exported by the deriving runtime. *)

type severity = Error | Warning

type category =
  | Structural  (** dangling references, inverse mismatches, end shapes *)
  | Hierarchy  (** cycles, multi-root components, branching chains *)
  | Semantic  (** keys, order-by, overriding, domains *)
  | Naming  (** uniqueness and identifier validity *)

type diagnostic = {
  severity : severity;
  category : category;
  subject : string;  (** the construct at fault, e.g. ["Employee.works_in"] *)
  message : string;
}

let equal_diagnostic (a : diagnostic) (b : diagnostic) = a = b

let diag severity category subject message =
  { severity; category; subject; message }

let err = diag Error
let warn = diag Warning

let category_name = function
  | Structural -> "structural"
  | Hierarchy -> "hierarchy"
  | Semantic -> "semantic"
  | Naming -> "naming"

let pp_diagnostic_line ppf d =
  Fmt.pf ppf "%s [%s] %s: %s"
    (match d.severity with Error -> "error" | Warning -> "warning")
    (category_name d.category)
    d.subject d.message

(* The keys of [xs] seen earlier in it, one per repeat, in order. *)
let duplicates key xs =
  let seen = Hashtbl.create (List.length xs) in
  List.filter_map
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then Some k
      else begin
        Hashtbl.add seen k ();
        None
      end)
    xs

(* --- the abstract lookup backend ---------------------------------------- *)

module type LOOKUP = sig
  type t

  val schema : t -> schema
  (** The interfaces in declaration order, duplicates included: the
      hierarchy checks walk them, and their results follow this order. *)

  val find_interface : t -> type_name -> interface option
  val mem_interface : t -> type_name -> bool

  val direct_supertypes : t -> type_name -> type_name list
  (** Declared supertypes that exist, in declaration order. *)

  val ancestors : t -> type_name -> type_name list
  val visible_attrs : t -> type_name -> attribute list
end

module Checks (L : LOOKUP) = struct
  (* --- naming ------------------------------------------------------------ *)

  (** Duplicate interface names; the only schema-global naming check. *)
  let naming_global t =
    duplicates (fun i -> i.i_name) (L.schema t).s_interfaces
    |> List.map (fun n -> err Naming n "duplicate interface name")

  (** Naming checks local to one interface (no schema context needed). *)
  let naming_interface i =
    let sub s = i.i_name ^ "." ^ s in
    let ident name =
      if not (Names.is_valid name) then
        Some (err Naming (sub name) "invalid identifier")
      else if Names.is_keyword name then
        Some (err Naming (sub name) "identifier is an ODL keyword")
      else None
    in
    let dup msg names =
      duplicates Fun.id names |> List.map (fun n -> err Naming (sub n) msg)
    in
    let attrs = List.map (fun a -> a.attr_name) i.i_attrs
    and rels = List.map (fun r -> r.rel_name) i.i_rels
    and ops = List.map (fun o -> o.op_name) i.i_ops in
    (* attributes and relationships share the property namespace: both are
       traversed by dot paths, so a clash is ambiguous. *)
    let properties = attrs @ rels in
    List.filter_map ident properties
    @ List.filter_map ident ops
    @ dup "duplicate property name (attribute/relationship)" properties
    @ dup "duplicate operation name" ops

  (* --- structural --------------------------------------------------------- *)

  let structural_interface t i =
    let sub s = i.i_name ^ "." ^ s in
    let missing_supers =
      i.i_supertypes
      |> List.filter_map (fun s ->
             if L.mem_interface t s then None
             else Some (err Structural i.i_name ("unknown supertype " ^ s)))
    in
    let rel_checks r =
      (* the subject is built only for a diagnostic *)
      let subject () = sub r.rel_name in
      match L.find_interface t r.rel_target with
      | None -> [ err Structural (subject ()) ("unknown target type " ^ r.rel_target) ]
      | Some target -> (
          match Schema.find_rel target r.rel_inverse with
          | None ->
              [
                err Structural (subject ())
                  (Printf.sprintf "inverse %s::%s does not exist" r.rel_target
                     r.rel_inverse);
              ]
          | Some inv ->
              let back =
                if not (String.equal inv.rel_target i.i_name) then
                  [
                    err Structural (subject ())
                      (Printf.sprintf
                         "inverse %s::%s targets %s instead of %s" r.rel_target
                         r.rel_inverse inv.rel_target i.i_name);
                  ]
                else if not (String.equal inv.rel_inverse r.rel_name) then
                  [
                    err Structural (subject ())
                      (Printf.sprintf "inverse %s::%s names %s as its inverse"
                         r.rel_target r.rel_inverse inv.rel_inverse);
                  ]
                else []
              in
              let kind =
                if inv.rel_kind <> r.rel_kind then
                  [
                    err Structural (subject ())
                      "relationship and its inverse have different kinds";
                  ]
                else []
              in
              let shape =
                match r.rel_kind with
                | Association -> []
                | Part_of | Instance_of -> (
                    let what =
                      match r.rel_kind with
                      | Part_of -> "part-of"
                      | _ -> "instance-of"
                    in
                    match (r.rel_card, inv.rel_card) with
                    | Some _, None | None, Some _ -> []
                    | Some _, Some _ ->
                        [
                          err Structural (subject ())
                            (what
                           ^ " relationship must be 1:N (both ends are \
                              collections)");
                        ]
                    | None, None ->
                        [
                          err Structural (subject ())
                            (what
                           ^ " relationship must be 1:N (neither end is a \
                              collection)");
                        ])
              in
              back @ kind @ shape)
    in
    missing_supers @ List.concat_map rel_checks i.i_rels

  (* --- hierarchy ----------------------------------------------------------- *)

  (* The targets of [name]'s relationship ends playing [role]. *)
  let children role t name =
    match L.find_interface t name with
    | None -> []
    | Some i ->
        List.filter_map
          (fun r -> if role_of_relationship r = role then Some r.rel_target else None)
          i.i_rels

  (* The hierarchy checks run on the declared names numbered in order of
     first declaration, each edge list derived once.  A name that is not
     declared has no edges, so it can close no cycle and joins no
     component: the numbered graphs leave it out. *)
  let hierarchy t =
    let records = (L.schema t).s_interfaces in
    let number = Hashtbl.create (List.length records) in
    let names =
      List.filter_map
        (fun i ->
          if Hashtbl.mem number i.i_name then None
          else begin
            Hashtbl.add number i.i_name (Hashtbl.length number);
            Some i.i_name
          end)
        records
      |> Array.of_list
    in
    let size = Array.length names in
    let numbered targets = List.filter_map (Hashtbl.find_opt number) targets in
    let supers = Array.map (fun n -> numbered (L.direct_supertypes t n)) names in
    let instances = Array.map (children Generic_end t) names in
    (* DFS colouring in declaration order; the names a back edge reaches *)
    let cycles next =
      let state = Bytes.make size '\000' in
      let found = ref [] in
      let rec visit k =
        match Bytes.get state k with
        | '\000' ->
            Bytes.set state k '\001';
            List.iter visit next.(k);
            Bytes.set state k '\002'
        | '\001' -> found := names.(k) :: !found
        | _ -> ()
      in
      for k = 0 to size - 1 do
        visit k
      done;
      List.sort_uniq compare !found
    in
    let cycle_errors what next =
      cycles next
      |> List.map (fun n ->
             err Hierarchy n ("interface participates in " ^ what ^ " cycle"))
    in
    let isa_cycles = cycle_errors "an ISA" supers in
    let part_cycles =
      (* whole -> part edges of the aggregation graph (declared on the
         whole) *)
      cycle_errors "a part-of"
        (Array.map (fun n -> numbered (children Whole_end t n)) names)
    in
    let inst_cycles = cycle_errors "an instance-of" (Array.map numbered instances) in
    let multi_root =
      (* connected components of the undirected ISA graph: a record joins
         every declared supertype it lists, duplicates included, as the
         supertype's [direct_subtypes] do; a component with two or more
         roots breaks the paper's single-root assumption *)
      if isa_cycles <> [] then []
      else begin
        let parent = Array.init size Fun.id in
        (* a component's root is its first name; paths are compressed *)
        let rec root k =
          let p = parent.(k) in
          if p = k then k
          else begin
            let r = root p in
            parent.(k) <- r;
            r
          end
        in
        List.iter
          (fun i ->
            let k = Hashtbl.find number i.i_name in
            List.iter
              (fun j ->
                let a = root k and b = root j in
                if a <> b then parent.(max a b) <- min a b)
              (numbered i.i_supertypes))
          records;
        (* members, then roots, gathered at each component's first name *)
        let members = Array.make size 0 and roots = Array.make size [] in
        for k = size - 1 downto 0 do
          let c = root k in
          members.(c) <- members.(c) + 1;
          if supers.(k) = [] then roots.(c) <- names.(k) :: roots.(c)
        done;
        List.init size Fun.id
        |> List.filter_map (fun c ->
               match roots.(c) with
               | _ :: _ :: _ as rs when parent.(c) = c && members.(c) > 1 ->
                   Some
                     (warn Hierarchy
                        (String.concat ", " (List.sort compare rs))
                        "generalization hierarchy has multiple roots; consider \
                         an abstract supertype")
               | _ -> None)
      end
    in
    let branching_chain =
      records
      |> List.filter_map (fun i ->
             match instances.(Hashtbl.find number i.i_name) with
             | _ :: _ :: _ ->
                 Some
                   (warn Hierarchy i.i_name
                      "instance-of hierarchy branches at this interface \
                       (chains are expected to be linear)")
             | _ -> None)
    in
    isa_cycles @ part_cycles @ inst_cycles @ multi_root @ branching_chain

  (* --- semantic ------------------------------------------------------------ *)

  (** Duplicate extent names; the only schema-global semantic check. *)
  let semantic_global t =
    (L.schema t).s_interfaces
    |> List.filter_map (fun i -> i.i_extent)
    |> duplicates Fun.id
    |> List.map (fun e -> err Semantic e "duplicate extent name")

  let semantic_interface t i =
    let known_domain d =
      match base_name d with
      | None -> true
      | Some n -> L.mem_interface t n
    in
    let sub s = i.i_name ^ "." ^ s in
    let attr_domains =
      i.i_attrs
      |> List.filter_map (fun a ->
             if known_domain a.attr_type then None
             else
               Some
                 (err Semantic (sub a.attr_name)
                    "attribute domain names an unknown type"))
    in
    let op_domains =
      i.i_ops
      |> List.concat_map (fun o ->
             let ret =
               if known_domain o.op_return then []
               else
                 [
                   err Semantic (sub o.op_name)
                     "operation return type names an unknown type";
                 ]
             in
             let args =
               o.op_args
               |> List.filter_map (fun a ->
                      if known_domain a.arg_type then None
                      else
                        Some
                          (err Semantic (sub o.op_name)
                             (Printf.sprintf
                                "argument %s names an unknown type" a.arg_name)))
             in
             ret @ args)
    in
    let order_by_checks =
      i.i_rels
      |> List.concat_map (fun r ->
             if r.rel_order_by = [] || not (L.mem_interface t r.rel_target)
             then [] (* nothing to order, or already a structural error *)
             else
               let target_attrs = L.visible_attrs t r.rel_target in
               r.rel_order_by
               |> List.filter_map (fun a ->
                      if
                        List.exists
                          (fun ta -> String.equal ta.attr_name a)
                          target_attrs
                      then None
                      else
                        Some
                          (err Semantic (sub r.rel_name)
                             (Printf.sprintf
                                "order_by attribute %s is not visible on %s" a
                                r.rel_target))))
    in
    (* the ancestors that exist, nearest first, with their definitions *)
    let supers =
      if i.i_ops = [] && i.i_attrs = [] && i.i_keys = [] then []
      else
        List.filter_map
          (fun s -> Option.map (fun si -> (s, si)) (L.find_interface t s))
          (L.ancestors t i.i_name)
    in
    let key_checks =
      if i.i_keys = [] then []
      else
        (* visible: declared by the interface of this name or an ancestor *)
        let own = L.find_interface t i.i_name in
        let visible_attr a =
          Option.fold ~none:false ~some:(fun o -> Schema.has_attr o a) own
          || List.exists (fun (_, si) -> Schema.has_attr si a) supers
        in
        i.i_keys
        |> List.concat_map (fun key ->
               key
               |> List.filter_map (fun a ->
                      if visible_attr a then None
                      else
                        Some
                          (err Semantic (sub a)
                             "key names an attribute not visible on this \
                              interface")))
    in
    let override_checks =
      (* a redefinition with a different signature is legal but suspicious *)
      i.i_ops
      |> List.concat_map (fun o ->
             supers
             |> List.filter_map (fun (s, si) ->
                    match Schema.find_op si o.op_name with
                    | Some so
                      when not (equal_domain_type so.op_return o.op_return)
                           || List.map (fun a -> a.arg_type) so.op_args
                              <> List.map (fun a -> a.arg_type) o.op_args ->
                        Some
                          (warn Semantic (sub o.op_name)
                             (Printf.sprintf
                                "overrides %s::%s with a different signature" s
                                o.op_name))
                    | _ -> None))
    in
    let shadow_checks =
      i.i_attrs
      |> List.concat_map (fun a ->
             supers
             |> List.filter_map (fun (s, si) ->
                    match Schema.find_attr si a.attr_name with
                    | Some sa when not (equal_domain_type sa.attr_type a.attr_type)
                      ->
                        Some
                          (warn Semantic (sub a.attr_name)
                             (Printf.sprintf
                                "shadows %s::%s with a different domain" s
                                a.attr_name))
                    | _ -> None))
    in
    key_checks @ attr_domains @ op_domains @ order_by_checks @ override_checks
    @ shadow_checks

  (** All diagnostics, in the canonical order: naming first (later categories
      assume the names are at least unique), then structural, hierarchy and
      semantic. *)
  let check t =
    let ifaces = (L.schema t).s_interfaces in
    naming_global t
    @ List.concat_map naming_interface ifaces
    @ List.concat_map (structural_interface t) ifaces
    @ hierarchy t @ semantic_global t
    @ List.concat_map (semantic_interface t) ifaces
end

(* --- the naive backend: direct list scans over the schema ---------------- *)

module Schema_lookup = struct
  type t = schema

  let schema s = s
  let find_interface = Schema.find_interface
  let mem_interface = Schema.mem_interface
  let direct_supertypes = Schema.direct_supertypes
  let ancestors = Schema.ancestors
  let visible_attrs = Schema.visible_attrs
end

module Naive = Checks (Schema_lookup)

(** All diagnostics for [schema], naming first (later categories assume the
    names are at least unique). *)
let check schema = Naive.check schema

let errors schema = List.filter (fun d -> d.severity = Error) (check schema)
let warnings schema = List.filter (fun d -> d.severity = Warning) (check schema)
let is_valid schema = errors schema = []
