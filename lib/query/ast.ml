(** Abstract syntax for the read-side query language (the [@query] verb).

    A query is a scope ([all] = every variant in the repository, otherwise
    the connection's open variant), an optional [explain] prefix that asks
    for the plan instead of the answer, and one atom.  Patterns come in two
    shapes, mirroring the two identifier tokens of {!Odl.Lexer}: a plain
    identifier matches exactly; a double-quoted string may carry [*] (any
    run) and [?] (any character) wildcards. *)

type dir = Up | Down

type pattern =
  | Exact of string
  | Glob of string  (** [*] = any run of characters, [?] = any one *)

type atom =
  | Name of pattern  (** interfaces whose name matches *)
  | Attr of { pat : pattern; inherited : bool }
      (** interface.attribute pairs whose attribute name matches; with
          [inherited], attributes visible through the ISA hierarchy too *)
  | Isa of { name : string; dir : dir }
      (** transitive subtypes ([Down], default) or supertypes ([Up]) *)
  | Part of { name : string; dir : dir }
      (** transitive parts ([Down], default) or wholes ([Up]) *)
  | Wheel of string  (** members of the wagon wheel *)
  | Diff of { since : int; until : int option }
      (** operations between two publication stamps, [(since, until]];
          [until] defaults to the variant's current stamp *)
  | Lineage
      (** the variant's branch lineage: its parent and fork stamp (the
          stamp to [diff] from to see everything since the fork), or
          [root] for an unbranched variant *)
  | Branches of string
      (** the variants branched off the named variant, with their fork
          stamps — repository-scoped (answered from the stores on disk,
          identically by every shard) *)

type t = { q_all : bool; q_explain : bool; q_atom : atom }

let dir_name = function Up -> "up" | Down -> "down"

let has_wildcards s = String.exists (fun c -> c = '*' || c = '?') s

(** The literal chars before the first wildcard — the planner's prefix for
    a bounded index scan ([""] when the pattern starts with a wildcard). *)
let literal_prefix g =
  match String.index_opt g '*', String.index_opt g '?' with
  | None, None -> g
  | i, j ->
      let cut =
        match (i, j) with
        | Some i, Some j -> min i j
        | Some i, None -> i
        | None, Some j -> j
        | None, None -> assert false
      in
      String.sub g 0 cut

(* Classic backtracking glob matcher; runs of [*] collapse, so worst-case
   backtracking is bounded by the number of [*] groups (patterns are
   operator-typed and short). *)
let glob_match pat s =
  let np = String.length pat and ns = String.length s in
  let rec stars p = if p < np && pat.[p] = '*' then stars (p + 1) else p in
  let rec go p i =
    if p = np then i = ns
    else
      match pat.[p] with
      | '*' ->
          let p = stars p in
          if p = np then true
          else
            let rec try_from i = go p i || (i < ns && try_from (i + 1)) in
            try_from i
      | '?' -> i < ns && go (p + 1) (i + 1)
      | c -> i < ns && Char.equal s.[i] c && go (p + 1) (i + 1)
  in
  go 0 0

let matches p s =
  match p with Exact e -> String.equal e s | Glob g -> glob_match g s

let pattern_text = function
  | Exact s -> s
  | Glob g -> "\"" ^ g ^ "\""
