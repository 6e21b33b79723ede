(** Hand-written lexer shared by the ODL parser and (via the token type) the
    modification-language parser.  Comments are [// ...] to end of line and
    [/* ... */] (non-nesting). *)

type token =
  | Ident of string
  | Quoted of string
      (** a double-quoted identifier: any string, with backslash escapes for
          quote, backslash, newline, CR and tab; lets names that are not
          plain identifiers (spaces, newlines, leading [//], ...) round-trip
          through the concrete syntax, notably in persisted operation logs *)
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
(** [Lex_error (message, line, col)] *)

let token_to_string = function
  | Ident s -> s
  | Quoted s -> Names.quoted s
  | Int n -> string_of_int n
  | Lbrace -> "{"
  | Rbrace -> "}"
  | Lparen -> "("
  | Rparen -> ")"
  | Langle -> "<"
  | Rangle -> ">"
  | Colon -> ":"
  | Coloncolon -> "::"
  | Semi -> ";"
  | Comma -> ","
  | Eof -> "<eof>"

(* The tokens of a text in three parallel arrays, the last token [Eof];
   the arrays may be longer than [count]. *)
type tokens = {
  count : int;
  toks : token array;
  lines : int array;
  cols : int array;
}

(** Lex [src] whole, so a lexical error anywhere in it is raised before
    any parsing. *)
let lex src =
  let n = String.length src in
  let line = ref 1 and bol = ref 0 in
  let col pos = pos - !bol + 1 in
  let newline pos =
    incr line;
    bol := pos + 1
  in
  let rec skip_line_comment pos =
    if pos >= n then pos
    else if src.[pos] = '\n' then pos
    else skip_line_comment (pos + 1)
  in
  let rec skip_block_comment pos =
    if pos + 1 >= n then
      raise (Lex_error ("unterminated comment", !line, col pos))
    else if src.[pos] = '*' && src.[pos + 1] = '/' then pos + 2
    else begin
      if src.[pos] = '\n' then newline pos;
      skip_block_comment (pos + 1)
    end
  in
  (* the scans below read [src] unchecked behind an explicit [pos < n] *)
  let rec ident_end pos =
    if pos < n && Names.is_ident_char (String.unsafe_get src pos) then
      ident_end (pos + 1)
    else pos
  in
  let rec int_end pos =
    if pos < n then
      match String.unsafe_get src pos with
      | '0' .. '9' -> int_end (pos + 1)
      | _ -> pos
    else pos
  in
  (* scan a quoted identifier starting after the opening double quote; raw
     newlines are rejected so a quoted name can never span lines *)
  let quoted_end start =
    let b = Buffer.create 8 in
    let rec go pos =
      if pos >= n then
        raise (Lex_error ("unterminated quoted identifier", !line, col start))
      else
        match src.[pos] with
        | '"' -> (Buffer.contents b, pos + 1)
        | '\n' ->
            raise
              (Lex_error ("newline in quoted identifier", !line, col pos))
        | '\\' ->
            if pos + 1 >= n then
              raise
                (Lex_error ("unterminated quoted identifier", !line, col start))
            else begin
              (match src.[pos + 1] with
              | '"' -> Buffer.add_char b '"'
              | '\\' -> Buffer.add_char b '\\'
              | 'n' -> Buffer.add_char b '\n'
              | 'r' -> Buffer.add_char b '\r'
              | 't' -> Buffer.add_char b '\t'
              | c ->
                  raise
                    (Lex_error
                       ( Printf.sprintf "unknown escape '\\%c' in quoted identifier" c,
                         !line, col pos )));
              go (pos + 2)
            end
        | c ->
            Buffer.add_char b c;
            go (pos + 1)
    in
    go start
  in
  (* printed ODL has a token every six bytes or so; the arrays double
     when that guess is short *)
  let cap = ref ((n / 5) + 16) in
  let toks = ref (Array.make !cap Eof)
  and lines = ref (Array.make !cap 0)
  and cols = ref (Array.make !cap 0) in
  let count = ref 0 in
  let push tok line col =
    if !count = !cap then begin
      let grow a fill =
        let b = Array.make (2 * !cap) fill in
        Array.blit a 0 b 0 !cap;
        b
      in
      toks := grow !toks Eof;
      lines := grow !lines 0;
      cols := grow !cols 0;
      cap := 2 * !cap
    end;
    Array.unsafe_set !toks !count tok;
    Array.unsafe_set !lines !count line;
    Array.unsafe_set !cols !count col;
    incr count
  in
  let rec go pos =
    if pos >= n then push Eof !line (col pos)
    else
      match String.unsafe_get src pos with
      | ' ' | '\t' | '\r' -> go (pos + 1)
      | '\n' ->
          newline pos;
          go (pos + 1)
      | '/' when pos + 1 < n && src.[pos + 1] = '/' -> go (skip_line_comment pos)
      | '/' when pos + 1 < n && src.[pos + 1] = '*' ->
          go (skip_block_comment (pos + 2))
      | '"' ->
          let s, e = quoted_end (pos + 1) in
          push (Quoted s) !line (col pos);
          go e
      | '{' -> emit pos Lbrace 1
      | '}' -> emit pos Rbrace 1
      | '(' -> emit pos Lparen 1
      | ')' -> emit pos Rparen 1
      | '<' -> emit pos Langle 1
      | '>' -> emit pos Rangle 1
      | ';' -> emit pos Semi 1
      | ',' -> emit pos Comma 1
      | ':' when pos + 1 < n && src.[pos + 1] = ':' -> emit pos Coloncolon 2
      | ':' -> emit pos Colon 1
      | c when Names.is_ident_start c ->
          let e = ident_end (pos + 1) in
          emit pos (Ident (String.sub src pos (e - pos))) (e - pos)
      | '0' .. '9' ->
          let e = int_end (pos + 1) in
          emit pos (Int (int_of_string (String.sub src pos (e - pos)))) (e - pos)
      | c ->
          raise
            (Lex_error (Printf.sprintf "unexpected character %C" c, !line, col pos))
  and emit pos tok len =
    push tok !line (col pos);
    go (pos + len)
  in
  go 0;
  { count = !count; toks = !toks; lines = !lines; cols = !cols }

(** The tokens of [src] as a list of located tokens ending with [Eof]. *)
let tokenize src =
  let t = lex src in
  List.init t.count (fun k -> { tok = t.toks.(k); line = t.lines.(k); col = t.cols.(k) })
