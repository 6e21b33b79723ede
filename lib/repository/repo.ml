(** A multi-variant design repository: one shrink wrap schema, many derived
    designs.

    This is the ACEDB situation as a subsystem: a well-crafted schema is
    published once, and each adopting project keeps its own customization —
    its variant — in the same repository.  Variants are full sessions
    (operation journal, local names, checkpoint; the custom schema and
    reports on request), and the repository can compare variants
    pairwise: affinity and the interoperation report over their common
    objects.

    Layout:
    {v
    <dir>/shrinkwrap.odl
    <dir>/variants/<name>/     one Store repository per variant
    v}

    The shrink wrap is printed and indexed once per [t]: its base
    ({!Store.base}) is built on first use, under [base_lock], and every
    store [t] opens holds it, so each variant opened, created, branched
    or fscked through [t] starts from its session instead of parsing and
    indexing [shrinkwrap.odl] again. *)

type t = {
  dir : string;
  io : Io.t;
  shrink_wrap : Odl.Types.schema;
  base_lock : Mutex.t;
  mutable base : Store.base option option;
      (** [None] until built; [Some None] when the shrink wrap is invalid *)
}

let make ?base dir io shrink_wrap =
  { dir; io; shrink_wrap; base_lock = Mutex.create (); base }

let base t =
  Mutex.protect t.base_lock (fun () ->
      match t.base with
      | Some b -> b
      | None ->
          let b =
            Result.to_option (Core.Session.create t.shrink_wrap)
            |> Option.map Store.base
          in
          t.base <- Some b;
          b)

let variants_dir t = Filename.concat t.dir "variants"
let variant_dir t name = Filename.concat (variants_dir t) name

(* every store of a variant holds the base *)
let store t dir = Store.open_dir ~io:t.io ~base:(fun () -> base t) dir
let variant_store t name = store t (variant_dir t name)

let replay t steps =
  match base t with
  | Some b -> Core.Oplog.replay_on (Core.Session.new_lineage b.b_session) steps
  | None -> Core.Oplog.replay t.shrink_wrap steps

let io t = t.io
let dir t = t.dir

let valid_variant_name n = n <> "" && Odl.Names.is_valid n

(** Initialize a repository for [shrink_wrap] at [dir].  The shrink wrap
    schema must be valid. *)
let init ?(io = Io.unix) dir shrink_wrap =
  match Core.Session.create shrink_wrap with
  | Error _ -> Error "the shrink wrap schema is not valid"
  | Ok session ->
      Io.mkdir_p io dir;
      Io.mkdir_p io (Filename.concat dir "variants");
      (* the validation build is the base *)
      let base = Store.base session in
      Io.atomic_write io (Filename.concat dir "shrinkwrap.odl") base.b_text;
      Ok (make ~base:(Some base) dir io shrink_wrap)

(** Open an existing repository; every failure mode is an [Error] naming
    the damaged file, never an exception. *)
let open_dir ?(io = Io.unix) dir =
  let path = Filename.concat dir "shrinkwrap.odl" in
  if not (io.Io.file_exists path) then
    Error (dir ^ " has no shrinkwrap.odl")
  else
    match Odl.Parser.parse_schema_result (io.Io.read_file path) with
    | Ok shrink_wrap -> Ok (make dir io shrink_wrap)
    | Error m -> Error (Printf.sprintf "%s is damaged: %s" path m)
    | exception Sys_error m -> Error (path ^ ": " ^ m)

let shrink_wrap t = t.shrink_wrap

(* The variants under [d]: its subdirectories, sorted. *)
let names_in io d =
  if io.Io.is_directory d then
    (match io.Io.readdir d with
    | names -> names
    | exception Sys_error _ -> [])
    (* is_directory is false on dangling symlinks, so they are skipped;
       dot-prefixed entries are hidden staging directories (an in-flight or
       crashed {!branch_variant}) and never count as variants *)
    |> List.filter (fun n -> n <> "" && n.[0] <> '.')
    |> List.filter (fun n -> io.Io.is_directory (Filename.concat d n))
    |> List.sort compare
  else []

let variant_names t = names_in t.io (variants_dir t)

let mem_variant t name = List.mem name (variant_names t)

(** The highest write era any variant's store carries (0 for none).  Only
    existing variants are probed, so no variant directory is created, and
    an unreadable store counts as 0. *)
let max_era t =
  List.fold_left
    (fun acc v ->
      match Store.stored_era (variant_store t v) with
      | e -> max acc e
      | exception _ -> acc)
    0 (variant_names t)

type open_error =
  | No_variant of string
  | Load of Store.load_error

let open_error_to_string = function
  | No_variant name -> Printf.sprintf "no variant named %s" name
  | Load e -> Store.load_error_to_string e

(** Start a fresh variant: a new design session over the repository's shrink
    wrap schema, persisted under the variant's name. *)
let create_variant t name =
  if not (valid_variant_name name) then
    Error (Printf.sprintf "%s is not a valid variant name" name)
  else if mem_variant t name then
    Error (Printf.sprintf "variant %s already exists" name)
  else
    match base t with
    | None -> Error "the shrink wrap schema is not valid"
    | Some b ->
        Store.save_session (variant_store t name) b.b_session;
        Ok (Core.Session.new_lineage b.b_session)

(** Branch [child] off [parent]: persist a copy of the parent's session
    under the child's name with a lineage record (parent, fork stamp) in
    its manifest.  The copy is assembled in a hidden staging directory
    ([variants/.tmp-<child>]) and renamed into place in one metadata
    operation, so a crash leaves either no child or a complete one — never
    a half-branch ({!variant_names} hides staging directories).

    [at] branches at a historical point instead of the tip: the child
    replays only the parent's first [at] committed operations, and [at]
    becomes the fork stamp.  By default the child gets the parent's whole
    log and the fork stamp is the parent's current version stamp. *)
let branch_variant t ~parent ~child ?at () =
  if not (valid_variant_name child) then
    Error (Printf.sprintf "%s is not a valid variant name" child)
  else if mem_variant t child then
    Error (Printf.sprintf "variant %s already exists" child)
  else if not (mem_variant t parent) then
    Error (Printf.sprintf "no variant named %s" parent)
  else
    (* read-only parent load: the parent may be live on another shard,
       so a torn tail is tolerated but never repaired in place *)
    match Store.load_session ~repair:false (variant_store t parent) with
    | Error e -> Error (Store.load_error_to_string e)
    | Ok session -> (
        let forked =
          match at with
          | None -> Ok (Core.Session.version session, session)
          | Some n when n < 0 -> Error "branch point must be non-negative"
          | Some n ->
              let prefix =
                Core.Oplog.pairs (Core.Oplog.of_session session)
                |> List.filteri (fun i _ -> i < n)
              in
              Result.fold
                ~ok:(fun s ->
                  (* local names ride along; stale ones prune on read *)
                  Ok (n, Core.Session.restore_aliases s
                           (Core.Session.aliases session)))
                ~error:(fun e ->
                  Error
                    ("parent log does not replay: "
                    ^ Core.Apply.error_to_string e))
                (replay t prefix)
        in
        match forked with
        | Error _ as e -> e
        | Ok (fork, child_session) ->
            let staging =
              Filename.concat (variants_dir t) (".tmp-" ^ child)
            in
            (* leftovers of a crashed earlier attempt are simply
               overwritten: the full save rewrites or removes every
               artifact; the lineage rides in its one manifest *)
            Store.save_session ~lineage:(parent, fork) (store t staging)
              child_session;
            t.io.Io.rename staging (variant_dir t child);
            Ok child_session)

(** The (parent, fork stamp) recorded when [name] was branched; [None] for
    root variants (or unknown names). *)
let variant_lineage t name = Store.lineage (variant_store t name)

(** One deterministic line per variant, sorted by name:
    ["<name> <parent>@<stamp> era <era>"], with ["root"] in place of the
    lineage pair for unbranched variants.  Derived entirely from the stores
    on disk, so every process sharing the repository renders identical
    bytes — the sharded router's merged listing stays byte-identical to a
    single server's. *)
let lineage_listing t =
  variant_names t
  |> List.map (fun name ->
         let st = variant_store t name in
         let lineage =
           match Store.lineage st with
           | Some (parent, fork) -> Printf.sprintf "%s@%d" parent fork
           | None -> "root"
         in
         Printf.sprintf "%s %s era %d" name lineage (Store.stored_era st))

(** Load a variant's session by replaying its journal. *)
let open_variant t name =
  if not (mem_variant t name) then Error (No_variant name)
  else
    Result.map_error (fun e -> Load e) (Store.load_session (variant_store t name))

(** {!open_variant} and the journal writer of the session it opened. *)
let open_writer t name =
  if not (mem_variant t name) then Error (No_variant name)
  else
    Result.map_error (fun e -> Load e) (Store.open_writer (variant_store t name))

(** Like {!open_variant}, but strictly read-only: a torn journal tail is
    tolerated (its longest valid prefix replays) and {e never} repaired in
    place.  This is the safe way to read a variant another process — or
    another thread holding only its own variant's lock — may be appending
    to: merge reads its source branch through here, lock-free. *)
let open_variant_ro t name =
  if not (mem_variant t name) then Error (No_variant name)
  else
    Result.map_error
      (fun e -> Load e)
      (Store.load_session ~repair:false (variant_store t name))

(** Persist a session as (a new state of) the named variant. *)
let save_variant t name session =
  if not (valid_variant_name name) then
    Error (Printf.sprintf "%s is not a valid variant name" name)
  else begin
    Store.save_session (variant_store t name) session;
    Ok ()
  end

(** Pairwise affinity matrix over the custom schemas of the variants that
    open. *)
let affinity_matrix t =
  variant_names t
  |> List.filter_map (fun name ->
         Result.to_option (open_variant t name)
         |> Option.map (Core.Session.custom_schema ~name))
  |> Core.Affinity.matrix

(** Interoperation analysis between two variants (paper section 5): the
    constructs both kept from the shrink wrap schema, and the interchange
    schema. *)
let interop t name_a name_b =
  match (open_variant t name_a, open_variant t name_b) with
  | Ok a, Ok b ->
      Ok
        (Core.Interop.analyse ~original:t.shrink_wrap
           ~custom_a:(Core.Session.custom_schema a)
           ~custom_b:(Core.Session.custom_schema b))
  | Error e, _ | _, Error e -> Error e

let interop_report t name_a name_b =
  Result.map
    (Core.Interop.report_text ~name_a ~name_b)
    (interop t name_a name_b)

(** One catalog line per variant: its mapping summary against the shrink
    wrap schema. *)
let catalog t =
  variant_names t
  |> List.map (fun name ->
         match open_variant t name with
         | Ok session ->
             let p, md, mv, d, a =
               Core.Mapping.summary (Core.Session.mapping session)
             in
             Printf.sprintf
               "%-16s %s; vs shrink wrap: %d preserved, %d modified, %d \
                moved, %d deleted, %d added"
               name
               (Core.Render.summary (Core.Session.custom_schema session))
               p md mv d a
         | Error e ->
             Printf.sprintf "%-16s (unreadable: %s)" name
               (open_error_to_string e))
  |> String.concat "\n"

(* --- integrity checking --------------------------------------------------- *)

(* One store's exit class and report lines, each prefixed with [label]. *)
let fsck_store ~salvage label store =
  let report = Store.fsck ~salvage store in
  let lines = List.map (fun m -> label ^ ": " ^ m) report.fsck_issues in
  match report with
  | { fsck_issues = []; _ } -> (0, [])
  | { fsck_session = None; _ } -> (2, lines)
  | { fsck_derived_only; _ } ->
      if salvage then (1, lines @ [ label ^ ": salvaged" ])
      else ((if fsck_derived_only then 1 else 2), lines)

(** Check, and with [salvage] repair, a session store or a multi-variant
    repository: see the interface. *)
let fsck_dir ?(io = Io.unix) ~salvage dir =
  if not (io.Io.is_directory dir) then Error (dir ^ ": not a directory")
  else
    let variants = Filename.concat dir "variants" in
    let results =
      if io.Io.is_directory variants then
        (* the top-level schema, then every variant, even when the schema
           is damaged: each variant keeps its own copy.  The variants'
           stores share the repository's base, built once. *)
        let top, variant_store =
          match open_dir ~io dir with
          | Ok t -> ((0, []), variant_store t)
          | Error m ->
              ( (2, [ "shrinkwrap.odl: " ^ m ]),
                fun n -> Store.open_dir ~io (Filename.concat variants n) )
        in
        top
        :: List.map
             (fun n -> fsck_store ~salvage ("variants/" ^ n) (variant_store n))
             (names_in io variants)
      else [ fsck_store ~salvage "." (Store.open_dir ~io dir) ]
    in
    let code = List.fold_left (fun acc (c, _) -> max acc c) 0 results in
    let lines = List.concat_map snd results in
    Ok (code, if code = 0 then lines @ [ dir ^ ": clean" ] else lines)
