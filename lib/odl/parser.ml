(** Recursive-descent parser for the extended ODL concrete syntax.

    Grammar, with [{ x }] meaning zero or more repetitions of [x] and
    [[ x ]] meaning an optional [x]:
    {v
    schema      ::= 'schema' IDENT '{' { interface } '}' [ ';' ]
                  | { interface }                      -- anonymous schema
    interface   ::= 'interface' IDENT [ ':' IDENT { ',' IDENT } ]
                    '{' { member } '}' ';'
    member      ::= 'extent' IDENT ';'
                  | ('key'|'keys') key ';'
                  | 'attribute' domain IDENT ';'
                  | [ rel-kind ] 'relationship' target IDENT
                    'inverse' IDENT '::' IDENT [ order-by ] ';'
                  | domain IDENT '(' [ arg { ',' arg } ] ')'
                    [ 'raises' '(' IDENT { ',' IDENT } ')' ] ';'
    rel-kind    ::= 'part_of' | 'instance_of'
    target      ::= IDENT | coll '<' IDENT '>'
    domain      ::= base [ '<' INT '>' ] | coll '<' domain '>'
    base        ::= 'int'|'float'|'string'|'char'|'boolean'|'void'|IDENT
    coll        ::= 'set'|'list'|'bag'|'array'
    key         ::= IDENT | '(' IDENT { ',' IDENT } ')'
    order-by    ::= 'order_by' '(' IDENT { ',' IDENT } ')'
    v} *)

open Types
open Lexer
module T = Token_stream

exception Parse_error = T.Parse_error

let collection_of_ident = function
  | "set" -> Some Set
  | "list" -> Some List
  | "bag" -> Some Bag
  | "array" -> Some Array
  | _ -> None

let base_of_ident = function
  | "int" | "long" | "short" -> Some D_int
  | "float" | "double" -> Some D_float
  | "string" -> Some D_string
  | "char" -> Some D_char
  | "boolean" -> Some D_boolean
  | "void" -> Some D_void
  | _ -> None

let rec parse_domain t =
  let id = T.ident t in
  match collection_of_ident id with
  | Some k ->
      T.expect t Langle;
      let inner = parse_domain t in
      T.expect t Rangle;
      D_collection (k, inner)
  | None -> (
      match base_of_ident id with
      | Some d -> d
      | None -> D_named id)

(* 'attribute' domain ('<' size '>')? name ';' — the optional size follows
   the base domain, e.g. [attribute string<30> room;]. *)
let parse_attribute t =
  let id = T.ident t in
  let dom, size =
    match collection_of_ident id with
    | Some k ->
        T.expect t Langle;
        let inner = parse_domain t in
        T.expect t Rangle;
        (D_collection (k, inner), None)
    | None -> (
        let base =
          match base_of_ident id with Some d -> d | None -> D_named id
        in
        match T.peek t with
        | Langle ->
            T.advance t;
            let n = T.int t in
            T.expect t Rangle;
            (base, Some n)
        | _ -> (base, None))
  in
  let name = T.ident t in
  T.expect t Semi;
  { attr_name = name; attr_type = dom; attr_size = size }

let parse_rel_target t =
  let id = T.ident t in
  match collection_of_ident id with
  | Some k ->
      T.expect t Langle;
      let target = T.ident t in
      T.expect t Rangle;
      (target, Some k)
  | None -> (id, None)

let parse_order_by t =
  if T.eat_ident t "order_by" then T.paren_list t T.ident else []

let parse_relationship kind t =
  let target, card = parse_rel_target t in
  let name = T.ident t in
  T.expect_ident t "inverse";
  let inv_type = T.ident t in
  T.expect t Coloncolon;
  let inv_path = T.ident t in
  if not (String.equal inv_type target) then
    T.error t
      (Printf.sprintf
         "inverse of relationship %s must be qualified by its target %s, not %s"
         name target inv_type);
  let order_by = parse_order_by t in
  T.expect t Semi;
  {
    rel_kind = kind;
    rel_name = name;
    rel_target = target;
    rel_inverse = inv_path;
    rel_card = card;
    rel_order_by = order_by;
  }

let parse_key t =
  let key =
    match T.peek t with
    | Lparen -> T.paren_list t T.ident
    | _ -> [ T.ident t ]
  in
  T.expect t Semi;
  key

let parse_argument t =
  let ty = parse_domain t in
  let name = T.ident t in
  { arg_name = name; arg_type = ty }

(* Operation members start with a domain type followed by a name and '('. *)
let parse_operation_tail t return name =
  let args = T.paren_list t parse_argument in
  let raises =
    if T.eat_ident t "raises" then T.paren_list t T.ident else []
  in
  T.expect t Semi;
  { op_name = name; op_return = return; op_args = args; op_raises = raises }

type member =
  | M_extent of string
  | M_key of string list
  | M_attr of attribute
  | M_rel of relationship
  | M_op of operation

let parse_member t =
  match T.peek t with
  | Ident "extent" ->
      T.advance t;
      let e = T.ident t in
      T.expect t Semi;
      M_extent e
  | Ident ("key" | "keys") ->
      T.advance t;
      M_key (parse_key t)
  | Ident "attribute" ->
      T.advance t;
      M_attr (parse_attribute t)
  | Ident "relationship" ->
      T.advance t;
      M_rel (parse_relationship Association t)
  | Ident "part_of" ->
      T.advance t;
      T.expect_ident t "relationship";
      M_rel (parse_relationship Part_of t)
  | Ident "instance_of" ->
      T.advance t;
      T.expect_ident t "relationship";
      M_rel (parse_relationship Instance_of t)
  | Ident _ ->
      let return = parse_domain t in
      let name = T.ident t in
      M_op (parse_operation_tail t return name)
  | tok ->
      T.error t
        (Printf.sprintf "expected interface member, found %s"
           (Lexer.token_to_string tok))

let parse_interface t =
  T.expect_ident t "interface";
  let name = T.ident t in
  let supers = if T.eat t Colon then T.comma_list t T.ident else [] in
  T.expect t Lbrace;
  (* each kind of member in reverse declaration order; the last extent
     wins *)
  let rec members (extent, keys, attrs, rels, ops) =
    if T.eat t Rbrace then
      {
        (empty_interface name) with
        i_supertypes = supers;
        i_extent = extent;
        i_keys = List.rev keys;
        i_attrs = List.rev attrs;
        i_rels = List.rev rels;
        i_ops = List.rev ops;
      }
    else
      members
        (match parse_member t with
        | M_extent e -> (Some e, keys, attrs, rels, ops)
        | M_key k -> (extent, k :: keys, attrs, rels, ops)
        | M_attr a -> (extent, keys, a :: attrs, rels, ops)
        | M_rel r -> (extent, keys, attrs, r :: rels, ops)
        | M_op o -> (extent, keys, attrs, rels, o :: ops))
  in
  let i = members (None, [], [], [], []) in
  ignore (T.eat t Semi);
  i

let parse_schema_stream t =
  let named = T.eat_ident t "schema" in
  let name, delim =
    if named then begin
      let n = T.ident t in
      T.expect t Lbrace;
      (n, true)
    end
    else ("schema", false)
  in
  let rec interfaces acc =
    match T.peek t with
    | Ident "interface" -> interfaces (parse_interface t :: acc)
    | _ -> List.rev acc
  in
  let ifaces = interfaces [] in
  if delim then begin
    T.expect t Rbrace;
    ignore (T.eat t Semi)
  end;
  (match T.peek t with
  | Eof -> ()
  | tok ->
      T.error t
        (Printf.sprintf "unexpected %s after schema" (Lexer.token_to_string tok)));
  { s_name = name; s_interfaces = ifaces }

(** Parse a full schema from ODL source text.
    @raise Lexer.Lex_error on bad characters.
    @raise Parse_error on syntax errors. *)
let parse_schema src = parse_schema_stream (T.of_string src)

let parse_schema_result src =
  match parse_schema src with
  | schema -> Ok schema
  | exception (Parse_error (m, line, _) | Lexer.Lex_error (m, line, _)) ->
      Error (Printf.sprintf "line %d: %s" line m)

(** Parse a single interface definition (used by tests and the designer). *)
let parse_interface_string src =
  let t = T.of_string src in
  let i = parse_interface t in
  T.expect t Eof;
  i
