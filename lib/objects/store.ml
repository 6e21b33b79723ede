(** An in-memory object store conforming to an extended-ODL schema.

    The store enforces conformance {e at mutation time}: objects are created
    with a known type, attribute writes are type- and size-checked against
    the visible (inherited) attributes, and relationship links maintain
    their inverses and respect to-one cardinalities.  {!Check} adds the
    whole-store validation (keys, mandatory wholes, dangling refs) used
    after bulk edits and after migration. *)

open Odl.Types
module Schema = Odl.Schema
module IntMap = Map.Make (Int)

type obj = {
  o_id : Value.oid;
  o_type : type_name;
  o_attrs : (string * Value.t) list;  (** set attributes, by name *)
  o_links : (string * Value.oid list) list;  (** links, by traversal path *)
}

type t = {
  st_schema : schema;
  st_objects : obj IntMap.t;
  st_next : Value.oid;
}

let create schema = { st_schema = schema; st_objects = IntMap.empty; st_next = 1 }

let schema t = t.st_schema
let find t oid = IntMap.find_opt oid t.st_objects
let objects t = List.map snd (IntMap.bindings t.st_objects)
let count t = IntMap.cardinal t.st_objects

let objects_of_type ?(include_subtypes = true) t name =
  objects t
  |> List.filter (fun o ->
         String.equal o.o_type name
         || include_subtypes
            && List.mem name (Schema.ancestors t.st_schema o.o_type))

let ( let* ) = Result.bind

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

let require_obj t oid =
  match find t oid with
  | Some o -> Ok o
  | None -> fail "no object @%d" oid

(** Allocate a fresh object of [type_name]. *)
let new_object t type_name =
  if not (Schema.mem_interface t.st_schema type_name) then
    fail "unknown type %s" type_name
  else
    let o = { o_id = t.st_next; o_type = type_name; o_attrs = []; o_links = [] } in
    Ok
      ( { t with st_objects = IntMap.add o.o_id o t.st_objects; st_next = t.st_next + 1 },
        o.o_id )

let update t oid f = { t with st_objects = IntMap.update oid (Option.map f) t.st_objects }

let isa t sub super =
  String.equal sub super || List.mem super (Schema.ancestors t.st_schema sub)

let type_of t oid = Option.map (fun o -> o.o_type) (find t oid)

(** Set an attribute; the attribute must be visible on the object's type and
    the value must conform to its domain and size. *)
let set_attr t oid attr_name v =
  let* o = require_obj t oid in
  let visible = Schema.visible_attrs t.st_schema o.o_type in
  match List.find_opt (fun a -> String.equal a.attr_name attr_name) visible with
  | None -> fail "%s has no attribute %s" o.o_type attr_name
  | Some a ->
      if not (Value.conforms ~type_of:(type_of t) ~isa:(isa t) v a.attr_type)
      then
        fail "value %s does not conform to the domain of %s.%s"
          (Value.to_string v) o.o_type attr_name
      else if not (Value.size_ok v a.attr_size) then
        fail "value %s exceeds the declared size of %s.%s" (Value.to_string v)
          o.o_type attr_name
      else
        Ok
          (update t oid (fun o ->
               {
                 o with
                 o_attrs =
                   (attr_name, v)
                   :: List.remove_assoc attr_name o.o_attrs;
               }))

let get_attr t oid attr_name =
  Option.bind (find t oid) (fun o -> List.assoc_opt attr_name o.o_attrs)

let links_of o path = Option.value (List.assoc_opt path o.o_links) ~default:[]

let visible_rel t type_name path =
  List.find_opt
    (fun r -> String.equal r.rel_name path)
    (Schema.visible_rels t.st_schema type_name)

let add_link_end t oid path target ~to_one =
  update t oid (fun o ->
      let current = links_of o path in
      let next =
        if to_one then [ target ]
        else if List.mem target current then current
        else current @ [ target ]
      in
      { o with o_links = (path, next) :: List.remove_assoc path o.o_links })

let remove_link_end t oid path target =
  update t oid (fun o ->
      {
        o with
        o_links =
          (path, List.filter (fun x -> x <> target) (links_of o path))
          :: List.remove_assoc path o.o_links;
      })

(** Link two objects through a relationship path declared (or inherited) on
    the source's type.  The inverse end is maintained; linking a to-one end
    replaces its previous target (and unlinks that target's inverse). *)
let link t src path dst =
  let* s = require_obj t src in
  let* d = require_obj t dst in
  match visible_rel t s.o_type path with
  | None -> fail "%s has no relationship %s" s.o_type path
  | Some r ->
      if not (isa t d.o_type r.rel_target) then
        fail "@%d is a %s, but %s.%s targets %s" dst d.o_type s.o_type path
          r.rel_target
      else
        let to_one = r.rel_card = None in
        let inv_to_one =
          match
            Option.bind
              (Schema.find_interface t.st_schema r.rel_target)
              (fun i -> Schema.find_rel i r.rel_inverse)
          with
          | Some inv -> inv.rel_card = None
          | None -> true
        in
        (* displacing a previous to-one target breaks its inverse first *)
        let t =
          if to_one then
            match Option.map (fun o -> links_of o path) (find t src) with
            | Some [ old ] when old <> dst ->
                remove_link_end t old r.rel_inverse src
            | _ -> t
          else t
        in
        let t = add_link_end t src path dst ~to_one in
        let t =
          if inv_to_one then
            (* the destination's to-one inverse displaces its previous source *)
            match Option.map (fun o -> links_of o r.rel_inverse) (find t dst) with
            | Some [ old ] when old <> src ->
                let t = remove_link_end t old path dst in
                add_link_end t dst r.rel_inverse src ~to_one:true
            | _ -> add_link_end t dst r.rel_inverse src ~to_one:true
          else add_link_end t dst r.rel_inverse src ~to_one:false
        in
        Ok t

(** Unlink two objects (both ends). *)
let unlink t src path dst =
  let* s = require_obj t src in
  match visible_rel t s.o_type path with
  | None -> fail "%s has no relationship %s" s.o_type path
  | Some r ->
      let t = remove_link_end t src path dst in
      Ok (remove_link_end t dst r.rel_inverse src)

let linked t oid path =
  match find t oid with None -> [] | Some o -> links_of o path

(** Delete an object and every link end pointing at it. *)
let delete t oid =
  let* _ = require_obj t oid in
  let without = IntMap.remove oid t.st_objects in
  let scrub o =
    {
      o with
      o_links =
        List.map (fun (p, ts) -> (p, List.filter (fun x -> x <> oid) ts)) o.o_links;
    }
  in
  Ok { t with st_objects = IntMap.map scrub without }

(** Re-insert an existing object (keeping its identity); used by migration
    to rebuild a store on a customized schema. *)
let restore t (o : obj) =
  {
    t with
    st_objects = IntMap.add o.o_id o t.st_objects;
    st_next = max t.st_next (o.o_id + 1);
  }

(** Make links symmetric by intersection: a link survives only if both ends
    still carry it.  Used after migration, where one end can lose its
    relationship while the other keeps it. *)
let scrub_asymmetric t =
  let back_ok o path target_oid =
    match visible_rel t o.o_type path with
    | None -> false
    | Some r -> (
        match find t target_oid with
        | None -> false
        | Some target ->
            List.mem o.o_id (links_of target r.rel_inverse))
  in
  let scrub o =
    {
      o with
      o_links =
        List.map
          (fun (path, targets) ->
            (path, List.filter (back_ok o path) targets))
          o.o_links;
    }
  in
  { t with st_objects = IntMap.map scrub t.st_objects }

let dump t =
  objects t
  |> List.map (fun o ->
         Printf.sprintf "@%d : %s%s%s" o.o_id o.o_type
           (o.o_attrs
           |> List.rev
           |> List.map (fun (n, v) -> Printf.sprintf "\n  %s = %s" n (Value.to_string v))
           |> String.concat "")
           (o.o_links
           |> List.rev
           |> List.filter (fun (_, ts) -> ts <> [])
           |> List.map (fun (p, ts) ->
                  Printf.sprintf "\n  %s -> %s" p
                    (String.concat ", " (List.map (Printf.sprintf "@%d") ts)))
           |> String.concat ""))
  |> String.concat "\n"
