(** Pretty printer for the extended ODL concrete syntax.

    Output parses back through {!Parser.parse_schema}; the round trip is the
    identity on well-formed schemas and the printing is stable (printing the
    reparse reproduces the text).  There is one layout: every text is
    written straight into a buffer, and the formatters print those texts. *)

open Types

val pp_domain : Format.formatter -> domain_type -> unit

val pp_interface : Format.formatter -> interface -> unit
(** Prints {!interface_to_string}. *)

val pp_schema : Format.formatter -> schema -> unit
(** Prints {!schema_to_string}. *)

val schema_to_string : schema -> string
(** The header line, the {!interface_chunk} of every interface and the
    closing line, written into one buffer. *)

val interface_to_string : interface -> string
(** The interface unindented: its members two in, its closing line at the
    margin. *)

(** {1 Per-interface chunks}

    A schema's text is its header line, one chunk per interface and a
    closing line, concatenated: each chunk depends on its interface alone.
    A writer that keeps the chunks of unchanged interfaces prints only the
    others, and a reader cuts a printed schema back into them
    ({!split_chunks}). *)

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
    [None] when the header or closing line is not the printer's.  A line
    two spaces in that opens a [//] comment, which the printer never
    writes, is cut as a chunk of its own with the name [""]: a reader of
    this layout can annotate a text so (a repository checkpoint names
    the shrink wrap interfaces it does not print).  The chunks are not
    parsed: for a text the printer made, they are its chunks and their
    interfaces' names. *)
