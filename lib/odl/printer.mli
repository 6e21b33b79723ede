(** Pretty printer for the extended ODL concrete syntax.

    Output parses back through {!Parser.parse_schema}; the round trip is the
    identity on well-formed schemas and the printing is stable (printing the
    reparse reproduces the text). *)

open Types

val pp_domain : Format.formatter -> domain_type -> unit
val pp_attribute : Format.formatter -> attribute -> unit
val pp_relationship : Format.formatter -> relationship -> unit
val pp_operation : Format.formatter -> operation -> unit
val pp_interface : Format.formatter -> interface -> unit
val pp_schema : Format.formatter -> schema -> unit

val schema_to_string : schema -> string
(** Built from {!interface_chunk}s by {!schema_of_chunks}; byte for byte
    the text {!pp_schema} prints. *)

val interface_to_string : interface -> string

(** {1 Per-interface chunks}

    A schema's text is its header line, one chunk per interface and a
    closing line, concatenated: each chunk depends on its interface alone.
    A writer that keeps the chunks of unchanged interfaces prints only the
    others, and a reader can tell which interfaces of a printed schema are
    byte-identical to those of another. *)

val interface_chunk : interface -> string
(** The interface as {!schema_to_string} lays it out inside a schema:
    a newline, then the interface indented by two. *)

val schema_of_chunks : string -> string list -> string
(** [schema_of_chunks name chunks]: the schema text with this name and
    these chunks.  [schema_to_string s] is
    [schema_of_chunks s.s_name (List.map interface_chunk s.s_interfaces)],
    byte for byte. *)

val split_chunks : string -> (string * (string * string) list) option
(** The inverse framing: the schema name and the chunks of a text laid out
    as {!schema_of_chunks} lays it out, cut at every line that opens an
    interface two spaces in, each with the interface name it declares;
    [None] when the header or closing line is not the printer's.  The
    chunks are not parsed: for a text the printer made, they are its
    chunks and their interfaces' names. *)
