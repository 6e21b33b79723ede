(** The query planner: picks, per atom, which structure answers it and
    how — the {!View}'s history or lineage record, or a probe, scan or
    walk of the schema index of the view's session (its name, attribute
    and adjacency maps).  Trivial by design — every access path is a point
    lookup, a bounded scan or a walk from one interface — but making the
    choice explicit keeps the evaluator honest (it executes the plan,
    nothing else) and gives [explain] something true to print. *)

type t =
  | Name_point of string  (** point lookup in the name index *)
  | Name_prefix of { prefix : string; pat : Ast.pattern }
      (** bounded scan of the name index from the pattern's literal prefix *)
  | Name_scan of Ast.pattern  (** full scan of the name index *)
  | Attr_point of { attr : string; inherited : bool }
      (** probe of the attribute index *)
  | Attr_prefix of { prefix : string; pat : Ast.pattern; inherited : bool }
      (** bounded scan of the attribute index from the pattern's literal
          prefix *)
  | Attr_scan of { pat : Ast.pattern; inherited : bool }
  | Isa_closure of { name : string; dir : Ast.dir }
  | Part_closure of { name : string; dir : Ast.dir }
  | Wheel of string
  | Hist_slice of { since : int; until : int option }
  | Lineage_read  (** read of the view's cached manifest lineage record *)
  | Branch_scan of string
      (** scan of the repository's manifest lineage records (served at the
          repository layer — identical from every shard, like [@list]) *)

let of_atom = function
  | Ast.Name (Ast.Exact n) -> Name_point n
  | Ast.Name (Ast.Glob g as p) ->
      let prefix = Ast.literal_prefix g in
      if String.length prefix = 0 then Name_scan p
      else Name_prefix { prefix; pat = p }
  | Ast.Attr { pat = Ast.Exact a; inherited } -> Attr_point { attr = a; inherited }
  | Ast.Attr { pat = Ast.Glob g as pat; inherited } ->
      let prefix = Ast.literal_prefix g in
      if String.length prefix = 0 then Attr_scan { pat; inherited }
      else Attr_prefix { prefix; pat; inherited }
  | Ast.Isa { name; dir } -> Isa_closure { name; dir }
  | Ast.Part { name; dir } -> Part_closure { name; dir }
  | Ast.Wheel n -> Wheel n
  | Ast.Diff { since; until } -> Hist_slice { since; until }
  | Ast.Lineage -> Lineage_read
  | Ast.Branches n -> Branch_scan n

let widen inherited = if inherited then " + descendant-closure widening" else ""

let describe = function
  | Name_point n -> "plan: point lookup of " ^ n ^ " in the name index"
  | Name_prefix { prefix; pat } ->
      Printf.sprintf "plan: bounded name-index scan from prefix %S, glob %s"
        prefix (Ast.pattern_text pat)
  | Name_scan p -> "plan: full name-index scan, glob " ^ Ast.pattern_text p
  | Attr_point { attr; inherited } ->
      "plan: attribute-index probe at " ^ attr ^ widen inherited
  | Attr_prefix { prefix; pat; inherited } ->
      Printf.sprintf
        "plan: bounded attribute-index scan from prefix %S, glob %s" prefix
        (Ast.pattern_text pat)
      ^ widen inherited
  | Attr_scan { pat; inherited } ->
      "plan: attribute-index scan, glob " ^ Ast.pattern_text pat
      ^ widen inherited
  | Isa_closure { name; dir } ->
      Printf.sprintf "plan: schema-index ISA walk (%s) from %s"
        (Ast.dir_name dir) name
  | Part_closure { name; dir } ->
      Printf.sprintf "plan: schema-index part-of walk (%s) from %s"
        (Ast.dir_name dir) name
  | Wheel n -> "plan: schema-index wagon wheel of " ^ n ^ " from its adjacency"
  | Hist_slice { since; until } ->
      Printf.sprintf "plan: history slice (%d, %s]" since
        (match until with Some u -> string_of_int u | None -> "current")
  | Lineage_read -> "plan: read of the view's cached lineage record"
  | Branch_scan n ->
      "plan: repository-wide scan of manifest lineage records for children \
       of " ^ n
