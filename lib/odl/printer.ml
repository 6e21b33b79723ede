(** Pretty printer for the extended ODL concrete syntax.  Output is accepted
    by {!Parser.parse_schema}; the round trip is the identity on well-formed
    schemas (tested by property). *)

open Types

(* One printer: every text is written into a buffer by the [add_*]
   functions below, and the [pp_*] formatters print those texts.  An
   interface is laid out at an indentation [ind]: its header line, then
   each member on a line of its own two further in, then its closing
   line back at [ind]. *)

let rec add_domain b = function
  | D_int -> Buffer.add_string b "int"
  | D_float -> Buffer.add_string b "float"
  | D_string -> Buffer.add_string b "string"
  | D_char -> Buffer.add_string b "char"
  | D_boolean -> Buffer.add_string b "boolean"
  | D_void -> Buffer.add_string b "void"
  | D_named n -> Buffer.add_string b (Names.to_source n)
  | D_collection (k, t) ->
      Buffer.add_string b (collection_kind_name k);
      Buffer.add_char b '<';
      add_domain b t;
      Buffer.add_char b '>'

let add_sep b add = function
  | [] -> ()
  | x :: xs ->
      add b x;
      List.iter
        (fun x ->
          Buffer.add_string b ", ";
          add b x)
        xs

let add_names b names = add_sep b Buffer.add_string names

let add_attribute b a =
  Buffer.add_string b "attribute ";
  add_domain b a.attr_type;
  Option.iter
    (fun n ->
      Buffer.add_char b '<';
      Buffer.add_string b (string_of_int n);
      Buffer.add_char b '>')
    a.attr_size;
  Buffer.add_char b ' ';
  Buffer.add_string b a.attr_name;
  Buffer.add_char b ';'

let rel_keyword = function
  | Association -> "relationship "
  | Part_of -> "part_of relationship "
  | Instance_of -> "instance_of relationship "

let add_relationship b r =
  Buffer.add_string b (rel_keyword r.rel_kind);
  (match r.rel_card with
  | None -> Buffer.add_string b r.rel_target
  | Some k ->
      Buffer.add_string b (collection_kind_name k);
      Buffer.add_char b '<';
      Buffer.add_string b r.rel_target;
      Buffer.add_char b '>');
  Buffer.add_char b ' ';
  Buffer.add_string b r.rel_name;
  Buffer.add_string b " inverse ";
  Buffer.add_string b r.rel_target;
  Buffer.add_string b "::";
  Buffer.add_string b r.rel_inverse;
  if r.rel_order_by <> [] then begin
    Buffer.add_string b " order_by (";
    add_names b r.rel_order_by;
    Buffer.add_char b ')'
  end;
  Buffer.add_char b ';'

let add_argument b a =
  add_domain b a.arg_type;
  Buffer.add_char b ' ';
  Buffer.add_string b a.arg_name

let add_operation b o =
  add_domain b o.op_return;
  Buffer.add_char b ' ';
  Buffer.add_string b o.op_name;
  Buffer.add_char b '(';
  add_sep b add_argument o.op_args;
  Buffer.add_char b ')';
  if o.op_raises <> [] then begin
    Buffer.add_string b " raises (";
    add_names b o.op_raises;
    Buffer.add_char b ')'
  end;
  Buffer.add_char b ';'

let add_key b = function
  | [ single ] ->
      Buffer.add_string b "key ";
      Buffer.add_string b single;
      Buffer.add_char b ';'
  | parts ->
      Buffer.add_string b "key (";
      add_names b parts;
      Buffer.add_string b ");"

(* [ind] is the indentation of the interface's first and last lines; the
   first is not preceded by it, the caller has placed the cursor *)
let add_interface b ind i =
  let member add x =
    Buffer.add_char b '\n';
    Buffer.add_string b ind;
    Buffer.add_string b "  ";
    add b x
  in
  Buffer.add_string b "interface ";
  Buffer.add_string b i.i_name;
  if i.i_supertypes <> [] then begin
    Buffer.add_string b " : ";
    add_names b i.i_supertypes
  end;
  Buffer.add_string b " {";
  Option.iter
    (member (fun b e ->
         Buffer.add_string b "extent ";
         Buffer.add_string b e;
         Buffer.add_char b ';'))
    i.i_extent;
  List.iter (member add_key) i.i_keys;
  List.iter (member add_attribute) i.i_attrs;
  List.iter (member add_relationship) i.i_rels;
  List.iter (member add_operation) i.i_ops;
  Buffer.add_char b '\n';
  Buffer.add_string b ind;
  Buffer.add_string b "};"

let to_string size add x =
  let b = Buffer.create size in
  add b x;
  Buffer.contents b

let interface_to_string = to_string 256 (fun b i -> add_interface b "" i)

(* --- per-interface chunks --------------------------------------------------

   A schema is laid out as its header line, one block per interface, each
   opened by a newline and indented by two, and the closing line.  A block
   depends on its interface alone, so the schema text is the header, the
   blocks and the trailer concatenated: a caller holding the blocks of
   unchanged interfaces prints only the others. *)

let chunk_lead = "\n  interface "
let trailer = "\n};\n"
let header name = "schema " ^ name ^ " {"

let add_chunk b i =
  Buffer.add_string b "\n  ";
  add_interface b "  " i

let interface_chunk = to_string 256 add_chunk

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
  to_string
    (64 + (512 * List.length s.s_interfaces))
    (fun b s ->
      Buffer.add_string b (header s.s_name);
      List.iter (add_chunk b) s.s_interfaces;
      Buffer.add_string b trailer)
    s

let pp_domain ppf d = Fmt.string ppf (to_string 16 add_domain d)
let pp_interface ppf i = Fmt.string ppf (interface_to_string i)
let pp_schema ppf s = Fmt.string ppf (schema_to_string s)

(* A line two in that opens a comment: the printer writes none, a reader
   of its layout may (a repository checkpoint names unchanged interfaces
   so), and it is a chunk of its own. *)
let comment_lead = "\n  //"

let split_chunks text =
  let n = String.length text and tl = String.length trailer in
  let ll = String.length chunk_lead in
  let at lead i =
    let l = String.length lead in
    i + l <= n && String.sub text i l = lead
  in
  let lead_at i = at chunk_lead i || at comment_lead i in
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
             supertypes or the brace; a comment declares none *)
          let name_end =
            match String.index_from_opt text (start + ll) ' ' with
            | Some e when e < j -> e
            | _ -> start + ll
          in
          ( (if at comment_lead start then ""
             else String.sub text (start + ll) (name_end - start - ll)),
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
