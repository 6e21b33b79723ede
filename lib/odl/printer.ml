(** Pretty printer for the extended ODL concrete syntax.  Output is accepted
    by {!Parser.parse_schema}; the round trip is the identity on well-formed
    schemas (tested by property). *)

open Types

let rec pp_domain ppf = function
  | D_int -> Fmt.string ppf "int"
  | D_float -> Fmt.string ppf "float"
  | D_string -> Fmt.string ppf "string"
  | D_char -> Fmt.string ppf "char"
  | D_boolean -> Fmt.string ppf "boolean"
  | D_void -> Fmt.string ppf "void"
  | D_named n -> Fmt.string ppf (Names.to_source n)
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

(* --- per-interface chunks --------------------------------------------------

   [pp_schema] lays a schema out as its header line, one block per
   interface, each opened by a newline and indented by two, and the closing
   line.  A block depends on its interface alone, so the schema text is the
   header, the blocks and the trailer concatenated: a caller holding the
   blocks of unchanged interfaces prints only the others. *)

let chunk_lead = "\n  interface "
let trailer = "\n};\n"
let header name = "schema " ^ name ^ " {"

let interface_chunk i = Fmt.str "@[<v 2>@,%a@]" pp_interface i

let schema_of_chunks name chunks =
  (* one allocation of the exact size: the text of a wide schema is large *)
  let parts = (header name :: chunks) @ [ trailer ] in
  let b =
    Bytes.create (List.fold_left (fun n c -> n + String.length c) 0 parts)
  in
  ignore
    (List.fold_left
       (fun at c ->
         Bytes.blit_string c 0 b at (String.length c);
         at + String.length c)
       0 parts);
  Bytes.unsafe_to_string b

let schema_to_string s =
  schema_of_chunks s.s_name (List.map interface_chunk s.s_interfaces)

let split_chunks text =
  let n = String.length text and tl = String.length trailer in
  let ll = String.length chunk_lead in
  let lead_at i = i + ll <= n && String.sub text i ll = chunk_lead in
  match String.index_opt text '\n' with
  | None -> None
  | Some h ->
      let stop = n - tl in
      if
        stop < h
        || not
             (String.starts_with ~prefix:"schema " text
             && h >= 9
             && String.sub text (h - 2) 2 = " {"
             && String.ends_with ~suffix:trailer text)
      then None
      else
        (* a block starts at every [chunk_lead] between the header and the
           trailer; the first must follow the header directly *)
        let named start j =
          (* the name runs from the lead to the space before the
             supertypes or the brace *)
          let name_end =
            match String.index_from_opt text (start + ll) ' ' with
            | Some e when e < j -> e
            | _ -> start + ll
          in
          ( String.sub text (start + ll) (name_end - start - ll),
            String.sub text start (j - start) )
        in
        let rec cut acc start i =
          match String.index_from_opt text i '\n' with
          | Some j when j < stop ->
              if lead_at j then cut (named start j :: acc) j (j + 1)
              else cut acc start (j + 1)
          | _ -> List.rev (named start stop :: acc)
        in
        let name = String.sub text 7 (h - 9) in
        if stop = h then Some (name, [])
        else if lead_at h then Some (name, cut [] h (h + 1))
        else None
