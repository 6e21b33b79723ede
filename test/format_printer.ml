(* The Format printer the ODL printer replaced, kept as the layout oracle:
   [Odl.Printer] writes into a buffer and must give these bytes for every
   interface, chunk and schema (test_printer.ml). *)

open Odl.Types

let rec pp_domain ppf = function
  | D_int -> Fmt.string ppf "int"
  | D_float -> Fmt.string ppf "float"
  | D_string -> Fmt.string ppf "string"
  | D_char -> Fmt.string ppf "char"
  | D_boolean -> Fmt.string ppf "boolean"
  | D_void -> Fmt.string ppf "void"
  | D_named n -> Fmt.string ppf (Odl.Names.to_source n)
  | D_collection (k, t) ->
      Fmt.pf ppf "%s<%a>" (collection_kind_name k) pp_domain t

let pp_attribute ppf a =
  match a.attr_size with
  | Some n -> Fmt.pf ppf "attribute %a<%d> %s;" pp_domain a.attr_type n a.attr_name
  | None -> Fmt.pf ppf "attribute %a %s;" pp_domain a.attr_type a.attr_name

let rel_keyword = function
  | Association -> "relationship"
  | Part_of -> "part_of relationship"
  | Instance_of -> "instance_of relationship"

let pp_target ppf (r : relationship) =
  match r.rel_card with
  | None -> Fmt.string ppf r.rel_target
  | Some k -> Fmt.pf ppf "%s<%s>" (collection_kind_name k) r.rel_target

let pp_relationship ppf r =
  Fmt.pf ppf "%s %a %s inverse %s::%s" (rel_keyword r.rel_kind) pp_target r
    r.rel_name r.rel_target r.rel_inverse;
  if r.rel_order_by <> [] then
    Fmt.pf ppf " order_by (%a)" Fmt.(list ~sep:(any ", ") string) r.rel_order_by;
  Fmt.string ppf ";"

let pp_argument ppf a = Fmt.pf ppf "%a %s" pp_domain a.arg_type a.arg_name

let pp_operation ppf o =
  Fmt.pf ppf "%a %s(%a)" pp_domain o.op_return o.op_name
    Fmt.(list ~sep:(any ", ") pp_argument)
    o.op_args;
  if o.op_raises <> [] then
    Fmt.pf ppf " raises (%a)" Fmt.(list ~sep:(any ", ") string) o.op_raises;
  Fmt.string ppf ";"

let pp_key ppf = function
  | [ single ] -> Fmt.pf ppf "key %s;" single
  | parts -> Fmt.pf ppf "key (%a);" Fmt.(list ~sep:(any ", ") string) parts

let pp_interface ppf i =
  Fmt.pf ppf "@[<v 2>interface %s" i.i_name;
  if i.i_supertypes <> [] then
    Fmt.pf ppf " : %a" Fmt.(list ~sep:(any ", ") string) i.i_supertypes;
  Fmt.pf ppf " {";
  Option.iter (fun e -> Fmt.pf ppf "@,extent %s;" e) i.i_extent;
  List.iter (fun k -> Fmt.pf ppf "@,%a" pp_key k) i.i_keys;
  List.iter (fun a -> Fmt.pf ppf "@,%a" pp_attribute a) i.i_attrs;
  List.iter (fun r -> Fmt.pf ppf "@,%a" pp_relationship r) i.i_rels;
  List.iter (fun o -> Fmt.pf ppf "@,%a" pp_operation o) i.i_ops;
  Fmt.pf ppf "@]@,};"

let pp_schema ppf s =
  Fmt.pf ppf "@[<v 2>schema %s {" s.s_name;
  List.iter (fun i -> Fmt.pf ppf "@,%a" pp_interface i) s.s_interfaces;
  Fmt.pf ppf "@]@,};@."

let interface_to_string i = Fmt.str "@[<v>%a@]" pp_interface i

let interface_chunk i = Fmt.str "@[<v 2>@,%a@]" pp_interface i
let schema_to_string s = Fmt.str "%a" pp_schema s
