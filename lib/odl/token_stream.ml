(** Imperative cursor over a lexed text, shared by the ODL, modification-
    language and query parsers: an index into the lexer's arrays.  Past
    the final [Eof] it reads [Eof] at position (0, 0). *)

open Lexer

type t = { tokens : tokens; mutable at : int }

exception Parse_error of string * int * int
(** [Parse_error (message, line, col)] *)

let of_string src = { tokens = lex src; at = 0 }

let peek t = if t.at < t.tokens.count then t.tokens.toks.(t.at) else Eof

let pos t =
  if t.at < t.tokens.count then (t.tokens.lines.(t.at), t.tokens.cols.(t.at))
  else (0, 0)

let error t msg =
  let line, col = pos t in
  raise (Parse_error (msg, line, col))

let advance t = if t.at < t.tokens.count then t.at <- t.at + 1

let next t =
  let tok = peek t in
  advance t;
  tok

let expect t tok =
  let got = peek t in
  if got <> tok then
    error t
      (Printf.sprintf "expected %s but found %s" (token_to_string tok)
         (token_to_string got))
  else advance t

let ident t =
  match peek t with
  | Ident s | Quoted s ->
      advance t;
      s
  | got -> error t (Printf.sprintf "expected identifier, found %s" (token_to_string got))

let int t =
  match peek t with
  | Int n ->
      advance t;
      n
  | got -> error t (Printf.sprintf "expected integer, found %s" (token_to_string got))

(** Accept the identifier [kw] if it is next; return whether it was. *)
let eat_ident t kw =
  match peek t with
  | Ident s when String.equal s kw ->
      advance t;
      true
  | _ -> false

(** Require the identifier [kw]. *)
let expect_ident t kw =
  if not (eat_ident t kw) then
    error t
      (Printf.sprintf "expected '%s', found %s" kw (token_to_string (peek t)))

let eat t tok =
  if peek t = tok then begin
    advance t;
    true
  end
  else false

(** [comma_list t elt] parses [elt (',' elt)*]. *)
let comma_list t elt =
  let rec more acc = if eat t Comma then more (elt t :: acc) else List.rev acc in
  more [ elt t ]

(** [paren_list t elt] parses ['(' elt (',' elt)* ')'] or ['(' ')'] as []. *)
let paren_list t elt =
  expect t Lparen;
  if eat t Rparen then []
  else
    let xs = comma_list t elt in
    expect t Rparen;
    xs
