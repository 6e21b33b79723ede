(** Recursive-descent parser for the extended ODL concrete syntax.

    The accepted grammar is documented in the implementation header; in
    short: an optional [schema Name { ... };] wrapper around interface
    definitions with extents, keys, attributes, association / part-of /
    instance-of relationships (with mandatory inverse declarations), and
    operation signatures. *)

exception Parse_error of string * int * int
(** [(message, line, column)]. *)

val parse_schema : string -> Types.schema
(** Parse a complete schema (named or anonymous).
    @raise Parse_error on syntax errors.
    @raise Lexer.Lex_error on invalid characters. *)

val parse_schema_result : string -> (Types.schema, string) result
(** {!parse_schema}, a syntax or lexical error given as ["line L: message"]. *)

val parse_interface_string : string -> Types.interface
(** Parse exactly one interface definition. *)

(** {1 Building blocks}

    Exposed for the modification-language parser, which embeds ODL domain
    types and relationship targets in its operation arguments. *)

val parse_domain : Token_stream.t -> Types.domain_type
val collection_of_ident : string -> Types.collection_kind option
val base_of_ident : string -> Types.domain_type option
val parse_interface : Token_stream.t -> Types.interface
