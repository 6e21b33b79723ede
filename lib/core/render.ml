(** Text rendering of concept schemas and schema graphs — the executable
    counterpart of the paper's figures.

    The renderings are deterministic so that tests can assert on them, and
    informative enough to stand in for the OMT diagrams: a wagon wheel lists
    its spokes, hierarchies render as indented trees, and the object-type
    graph rendering used for the ACEDB family lists every interface with its
    outgoing links. *)

open Odl.Types
module Schema = Odl.Schema

let card_suffix = function
  | None -> ""
  | Some k -> Printf.sprintf " [%s]" (collection_kind_name k)

let spoke_label (r : relationship) =
  let kind =
    match role_of_relationship r with
    | Assoc_end -> ""
    | Whole_end -> "(has-part) "
    | Part_end -> "(part-of) "
    | Generic_end -> "(has-instance) "
    | Instance_end -> "(instance-of) "
  in
  Printf.sprintf "%s%s --> %s%s" kind r.rel_name r.rel_target (card_suffix r.rel_card)

let render_attr (a : attribute) =
  let size = match a.attr_size with Some n -> Printf.sprintf "<%d>" n | None -> "" in
  Printf.sprintf "%s : %s%s" a.attr_name
    (Fmt.str "%a" Odl.Printer.pp_domain a.attr_type)
    size

let render_op (o : operation) =
  Printf.sprintf "%s(%s) : %s" o.op_name
    (String.concat ", "
       (List.map
          (fun a -> Fmt.str "%a %s" Odl.Printer.pp_domain a.arg_type a.arg_name)
          o.op_args))
    (Fmt.str "%a" Odl.Printer.pp_domain o.op_return)

(** Figure-3 style: the focal object type with its attribute, operation, and
    relationship spokes, incoming spokes last. *)
let wagon_wheel schema (c : Concept.t) =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let i = Schema.get_interface schema c.c_focus in
  add "wagon wheel: %s" c.c_focus;
  if i.i_supertypes <> [] then add "  isa: %s" (String.concat ", " i.i_supertypes);
  let subs = Schema.direct_subtypes schema c.c_focus in
  if subs <> [] then add "  subtypes: %s" (String.concat ", " subs);
  List.iter (fun a -> add "  attr  %s" (render_attr a)) i.i_attrs;
  List.iter (fun o -> add "  op    %s" (render_op o)) i.i_ops;
  List.iter (fun r -> add "  rel   %s" (spoke_label r)) i.i_rels;
  c.c_edges
  |> List.filter (fun (owner, _) -> not (String.equal owner c.c_focus))
  |> List.iter (fun (owner, path) ->
         match Schema.find_interface schema owner with
         | None -> ()
         | Some oi -> (
             match Schema.find_rel oi path with
             | None -> ()
             | Some r ->
                 add "  rel   %s <-- %s.%s%s"
                   (match role_of_relationship r with
                   | Assoc_end -> ""
                   | Whole_end -> "(part of) "
                   | Part_end -> "(whole of) "
                   | Generic_end -> "(instance of) "
                   | Instance_end -> "(generic of) ")
                   owner path (card_suffix r.rel_card)));
  Buffer.contents buf

(* Indented tree under [root] following [children]; cycle-safe. *)
let tree children root =
  let buf = Buffer.create 256 in
  let rec go depth visited n =
    Buffer.add_string buf (String.make (depth * 2) ' ' ^ n ^ "\n");
    if not (List.mem n visited) then
      List.iter (go (depth + 1) (n :: visited)) (children n)
  in
  go 0 [] root;
  Buffer.contents buf

(** Figure-4 style: an ISA tree. *)
let generalization schema (c : Concept.t) =
  "generalization hierarchy: " ^ c.c_focus ^ "\n"
  ^ tree
      (fun n ->
        Schema.direct_subtypes schema n
        |> List.filter (fun s -> Concept.mem_type c s))
      c.c_focus

(** Figure-5 style: a parts explosion. *)
let aggregation schema (c : Concept.t) =
  "aggregation hierarchy: " ^ c.c_focus ^ "\n"
  ^ tree
      (fun n ->
        match Schema.find_interface schema n with
        | None -> []
        | Some i ->
            i.i_rels
            |> List.filter (fun r ->
                   role_of_relationship r = Whole_end
                   && Concept.mem_edge c n r.rel_name)
            |> List.map (fun r -> r.rel_target))
      c.c_focus

(** Figure-6 style: an instance-of chain, arrows downward. *)
let instance_chain schema (c : Concept.t) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf ("instance-of hierarchy: " ^ c.c_focus ^ "\n");
  let rec go visited n =
    if not (List.mem n visited) then begin
      Buffer.add_string buf ("  " ^ n ^ "\n");
      match Schema.find_interface schema n with
      | None -> ()
      | Some i ->
          i.i_rels
          |> List.filter (fun r ->
                 role_of_relationship r = Generic_end
                 && Concept.mem_edge c n r.rel_name)
          |> List.iter (fun r ->
                 Buffer.add_string buf
                   (Printf.sprintf "    | instance-of (%s)\n    v\n" r.rel_name);
                 go (n :: visited) r.rel_target)
    end
  in
  go [] c.c_focus;
  Buffer.contents buf

(** Render any concept schema according to its kind. *)
let concept schema (c : Concept.t) =
  match c.c_kind with
  | Concept.Wagon_wheel -> wagon_wheel schema c
  | Concept.Generalization -> generalization schema c
  | Concept.Aggregation -> aggregation schema c
  | Concept.Instance_chain -> instance_chain schema c

(** Figure-9/10/11 style: every object type with its outgoing relationship
    links — the view used to compare the ACEDB schema family. *)
let object_type_graph schema =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  add "object types of %s:" schema.s_name;
  List.iter
    (fun i ->
      add "  %s%s" i.i_name
        (if i.i_supertypes = [] then ""
         else " : " ^ String.concat ", " i.i_supertypes);
      List.iter (fun r -> add "    %s" (spoke_label r)) i.i_rels)
    schema.s_interfaces;
  Buffer.contents buf

(** The one-line inventory of a schema named [name] with these counts. *)
let inventory name (c : Schema_index.counts) =
  Printf.sprintf "%s: %d object types, %d attributes, %d relationship ends, %d operations"
    name c.interfaces c.attributes c.relationship_ends c.operations

(** A one-line inventory of a schema, used in reports. *)
let summary schema =
  let attributes, relationship_ends, operations = Schema.count_constructs schema in
  inventory schema.s_name
    {
      interfaces = List.length schema.s_interfaces;
      attributes;
      relationship_ends;
      operations;
    }
