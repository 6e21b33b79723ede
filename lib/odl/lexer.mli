(** Lexer for the extended ODL syntax and the modification language. *)

type token =
  | Ident of string
  | Quoted of string
      (** a double-quoted identifier (backslash escapes for quote, backslash,
          newline, CR, tab); names that are not plain identifiers round-trip
          through it *)
  | Int of int
  | Lbrace
  | Rbrace
  | Lparen
  | Rparen
  | Langle
  | Rangle
  | Colon
  | Coloncolon
  | Semi
  | Comma
  | Eof

type located = { tok : token; line : int; col : int }

exception Lex_error of string * int * int
(** [(message, line, column)]. *)

val token_to_string : token -> string

type tokens = private {
  count : int;  (** the number of tokens, the last {!Eof} *)
  toks : token array;
  lines : int array;
  cols : int array;  (** token [k] is [toks.(k)] at [lines.(k)], [cols.(k)] *)
}
(** A text's tokens in parallel arrays, which may run past [count]. *)

val lex : string -> tokens
(** Tokenize a source string whole, so a lexical error anywhere in it is
    raised first.  Comments are [// ...] to end of line and non-nesting
    [/* ... */].
    @raise Lex_error on invalid characters or unterminated comments. *)

val tokenize : string -> located list
(** {!lex} as a list; it always ends with {!Eof}. *)
