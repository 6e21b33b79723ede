(** The query evaluator: executes a {!Plan} against a published {!View}:
    the schema index of its session for every atom but [diff] (the view's
    lines) and [lineage] (its cached manifest record).

    Every answer is a list of lines.  All result forms except [diff] are
    sorted (and de-duplicated) lexicographically, so answers are canonical:
    shard-merged cross-variant output and a single process's output are
    byte-identical, and tests can pin digests.  [diff] is chronological —
    order is its meaning — but equally deterministic. *)

module SSet = Set.Make (String)
module Si = Core.Schema_index
module D = Core.Decompose.Indexed

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let sorted lines = List.sort_uniq String.compare lines

(* interface.attribute lines for one matching attribute: its declarers,
   plus — under [inherited] — every descendant of a declarer that does not
   re-declare (shadow) the attribute itself *)
let attr_lines idx ~inherited attr declarers acc =
  let declares i =
    match Si.find_interface idx i with
    | None -> false
    | Some i ->
        List.exists (fun a -> String.equal attr a.Odl.Types.attr_name) i.i_attrs
  in
  let acc =
    SSet.fold (fun i acc -> (i ^ "." ^ attr) :: acc) declarers acc
  in
  if not inherited then acc
  else
    SSet.fold
      (fun d acc ->
        List.fold_left
          (fun acc i ->
            if declares i then acc
            else (i ^ "." ^ attr ^ " (from " ^ d ^ ")") :: acc)
          acc (Si.descendants idx d))
      declarers acc

(* a closure or concept read of one interface, straight from the index *)
let closure_lines idx name members =
  if Si.mem_interface idx name then Ok (sorted (members idx name))
  else Error ("no interface " ^ name)

let diff_lines v ~since ~until =
  let current = View.stamp v in
  let until = Option.value until ~default:current in
  if until > current then
    Error
      (Printf.sprintf "stamp %d is ahead of this variant (current %d)" until
         current)
  else if since > until then
    Error (Printf.sprintf "empty stamp range (%d, %d]" since until)
  else
    let ops =
      View.history v
      |> List.filter (fun (s, _) -> s > since && s <= until)
      |> List.rev_map (fun (s, text) -> Printf.sprintf "%d %s" s text)
    in
    let floor = View.floor_stamp v in
    if since < floor then
      Ok (Printf.sprintf "# history truncated below stamp %d" floor :: ops)
    else Ok ops

(* an index scan from [prefix], cut at the first key past the prefix *)
let rec take_prefixed ~prefix key seq () =
  match seq () with
  | Seq.Cons (x, rest) when starts_with ~prefix (key x) ->
      Seq.Cons (x, take_prefixed ~prefix key rest)
  | Seq.Cons _ | Seq.Nil -> Seq.Nil

let attr_scan idx ~inherited pat seq =
  Ok
    (sorted
       (Seq.fold_left
          (fun acc (attr, declarers) ->
            if Ast.matches pat attr then
              attr_lines idx ~inherited attr declarers acc
            else acc)
          [] seq))

(* [idx] is the view's session index, except for the from-scratch reference *)
let run_plan idx v plan =
  match plan with
  | Plan.Name_point n -> Ok (if Si.mem_interface idx n then [ n ] else [])
  | Plan.Name_prefix { prefix; pat } ->
      Si.names_from idx prefix
      |> take_prefixed ~prefix Fun.id
      |> Seq.filter (Ast.matches pat)
      |> List.of_seq |> sorted |> Result.ok
  | Plan.Name_scan pat ->
      Ok
        (sorted
           (List.of_seq (Seq.filter (Ast.matches pat) (Si.names_from idx ""))))
  | Plan.Attr_point { attr; inherited } ->
      Ok (sorted (attr_lines idx ~inherited attr (Si.declarers idx attr) []))
  | Plan.Attr_prefix { prefix; pat; inherited } ->
      attr_scan idx ~inherited pat
        (take_prefixed ~prefix fst (Si.attrs_from idx prefix))
  | Plan.Attr_scan { pat; inherited } ->
      attr_scan idx ~inherited pat (Si.attrs_from idx "")
  | Plan.Isa_closure { name; dir = Ast.Down } ->
      closure_lines idx name Si.descendants
  | Plan.Isa_closure { name; dir = Ast.Up } -> closure_lines idx name Si.ancestors
  | Plan.Part_closure { name; dir = Ast.Down } -> closure_lines idx name D.parts
  | Plan.Part_closure { name; dir = Ast.Up } -> closure_lines idx name D.wholes
  | Plan.Wheel name ->
      closure_lines idx name (fun idx name ->
          (D.wagon_wheel idx name).Core.Concept.c_members)
  | Plan.Hist_slice { since; until } -> diff_lines v ~since ~until
  | Plan.Lineage_read -> (
      match View.lineage v with
      | Some (parent, fork) ->
          (* the fork stamp doubles as the [diff] anchor: everything this
             variant did since it was cut is [diff <fork>] *)
          Ok
            [
              Printf.sprintf "parent %s@%d" parent fork;
              Printf.sprintf "diff since fork: @query diff %d" fork;
            ]
      | None -> Ok [ "root" ])
  | Plan.Branch_scan _ ->
      (* repository-scoped: the server answers it from the stores on disk
         (every shard identically); a bare view cannot *)
      Error "branches is repository-scoped; ask the server"

let run v atom =
  run_plan (Core.Session.index (View.session v)) v (Plan.of_atom atom)

let explain atom = [ Plan.describe (Plan.of_atom atom) ]

(** The from-scratch reference: index the workspace anew for this one
    request ({!Core.Schema_index.build}: names, adjacency and attribute
    maps), then evaluate — what every query would cost without an index
    kept up to date op by op (bench P17 measures the gap). *)
let run_fresh ~stamp session atom =
  run_plan
    (Si.build (Core.Session.workspace session))
    (View.build ~stamp session) (Plan.of_atom atom)
