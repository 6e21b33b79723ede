(** Designer feedback: the messages the interactive schema designer returns
    for every command — outputs, confirmations, cautions, and errors. *)

type level = Output | Info | Caution | Error

type t = { level : level; text : string }

let output text = { level = Output; text }
let info text = { level = Info; text }
let caution text = { level = Caution; text }
let error text = { level = Error; text }

let level_prefix = function
  | Output -> ""
  | Info -> "info: "
  | Caution -> "caution: "
  | Error -> "error: "

(* an output is its text, not a copy of it: a [log] reply is long *)
let to_string f =
  match f.level with Output -> f.text | level -> level_prefix level ^ f.text

let pp ppf f = Fmt.string ppf (to_string f)

let is_error f = f.level = Error
