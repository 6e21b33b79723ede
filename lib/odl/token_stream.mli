(** Imperative cursor over a lexed text ({!Lexer.lex}), shared by the ODL,
    modification-language and query parsers.  All [expect]/[ident]/[int]
    failures report the position of the offending token, not the one after
    it. *)

type t

exception Parse_error of string * int * int
(** [(message, line, column)]. *)

val of_string : string -> t
(** @raise Lexer.Lex_error on invalid characters. *)

val peek : t -> Lexer.token
val pos : t -> int * int
val error : t -> string -> 'a
(** @raise Parse_error at the current position. *)

val advance : t -> unit
val next : t -> Lexer.token
val expect : t -> Lexer.token -> unit
val ident : t -> string
val int : t -> int

val eat : t -> Lexer.token -> bool
(** Consume the token if it is next; report whether it was. *)

val eat_ident : t -> string -> bool
(** Same for a specific identifier (contextual keyword). *)

val expect_ident : t -> string -> unit

val comma_list : t -> (t -> 'a) -> 'a list
(** [elt (',' elt)*]. *)

val paren_list : t -> (t -> 'a) -> 'a list
(** ['(' [elt (',' elt)*] ')'] — the empty list parses as [()]. *)
