(** On-disk schema repository (crash-safe).

    Persistence reuses the system's own languages: schemas are stored as
    extended ODL text and operation logs in the modification language, so a
    repository is human-readable and round-trips through the parsers.

    Layout of a repository directory:
    {v
    <dir>/shrinkwrap.odl     the original shrink wrap schema
    <dir>/log.ops            operation journal:  @ww add_...(...);  @undo;
                             (absent while the history is empty)
    <dir>/aliases.map        local names:  Canonical = local
                             (absent while there are none)
    <dir>/checkpoint.odl     the workspace at the end of a journal prefix,
                             as the interfaces that differ from the shrink
                             wrap, with digests of the shrink wrap and that
                             prefix
                             (absent until a save covers an operation)
    <dir>/manifest           format version, generation, journal watermark
    <dir>/custom.odl         deliverables, written only on request
    <dir>/reports/*          ({!save_reports}); nothing reads them back
    v}

    Durability protocol: whole-file artifacts go through {!Io.atomic_write}
    (write-to-temp, fsync, rename); the journal is append-only with a
    per-record fsync, and only a full save ({!save_session}: a new
    variant, a branch, [save DIR], a promotion, salvage) rewrites it — its
    one compaction, dropping undone records.  The snapshot
    ({!save_checkpoint}) takes the journal as it stands and checkpoints all
    of it.  Appends and snapshots of a live session go through one
    {!writer}, which knows the journal's durable length and so when a
    snapshot may checkpoint and what a failed append left behind.
    Each save writes only what recovery reads and whose bytes
    changed, and the manifest last, so it witnesses a completed save.  All
    syscalls go through the injectable {!Io.t} the store was opened with.

    Recovery opens from the checkpoint, which records the workspace as the
    shrink wrap plus what changed, and replays only the journal records
    appended after it; the checkpoint is derived data, so whenever it is
    missing, damaged or does not match, the recovery walk — the full
    replay of the journal, the reference, which fsck runs too — takes
    over. *)

module SMap = Map.Make (String)

type chunks = {
  sw_from : Odl.Types.interface list array;
      (** the shrink wrap's interface list from each position on *)
  sw_at : int SMap.t;  (** position by name *)
}

type base = {
  b_text : string;
  b_digest : string;
  b_session : Core.Session.t;
  b_chunks : chunks;
}

type t = {
  dir : string;
  io : Io.t;
  base : unit -> base option;
      (** the repository's shrink wrap, asked for only when a load, save
          or fsck needs one; [None] on a bare store *)
}

let dir t = t.dir
let io t = t.io
let shrinkwrap_file t = Filename.concat t.dir "shrinkwrap.odl"
let aliases_file t = Filename.concat t.dir "aliases.map"
let log_file t = Filename.concat t.dir "log.ops"
let custom_file t = Filename.concat t.dir "custom.odl"
let checkpoint_file t = Filename.concat t.dir "checkpoint.odl"
let manifest_file t = Filename.concat t.dir "manifest"
let reports_dir t = Filename.concat t.dir "reports"

(** Open (creating if needed) a repository rooted at [dir], on [base]:
    see the interface. *)
let open_dir ?(io = Io.unix) ?(base = fun () -> None) dir =
  Io.mkdir_p io dir;
  { dir; io; base }

let write_file t path contents = Io.atomic_write t.io path contents
let read_file t path = t.io.Io.read_file path

(* --- operation log format ---------------------------------------------- *)

exception Bad_log of string

(** Serialize a [(kind, op)] log, one newline-terminated record per step. *)
let log_to_string steps =
  Journal.to_string (List.map (fun (kind, op) -> Journal.Op (kind, op)) steps)

(** Parse a log produced by {!log_to_string} (or written by hand: a missing
    final newline is tolerated, damage is not).
    @raise Bad_log on malformed lines. *)
let log_of_string text =
  let text =
    if text = "" || text.[String.length text - 1] = '\n' then text
    else text ^ "\n"
  in
  let { Journal.entries; damage } = Journal.parse text in
  (match damage with
  | Some d -> raise (Bad_log (Journal.damage_to_string d))
  | None -> ());
  match Journal.resolve entries with
  | Ok steps -> steps
  | Error m -> raise (Bad_log m)

(* --- individual artifacts ----------------------------------------------- *)

let save_shrinkwrap t schema =
  write_file t (shrinkwrap_file t) (Odl.Printer.schema_to_string schema)

let load_shrinkwrap t =
  Odl.Parser.parse_schema (read_file t (shrinkwrap_file t))

let read_log t =
  if t.io.Io.file_exists (log_file t) then read_file t (log_file t) else ""

let save_report t name contents =
  Io.mkdir_p t.io (reports_dir t);
  write_file t (Filename.concat (reports_dir t) (name ^ ".txt")) contents

let load_aliases t =
  if t.io.Io.file_exists (aliases_file t) then
    Core.Aliases.of_string (read_file t (aliases_file t))
  else Core.Aliases.empty

(* --- manifest ------------------------------------------------------------ *)

type manifest = {
  m_generation : int;
  m_ops : int;
  m_bytes : int option;
  m_era : int;
  m_lineage : (string * int) option;
}

let manifest_to_string m =
  (* [era], the lineage pair and the journal length ride along the
     tolerant key-value format: manifests written before replication,
     branching or the byte watermark existed simply lack the lines and
     parse as era 0 / no parent / no watermark, and older readers ignore
     them. *)
  Printf.sprintf "format 1\ngeneration %d\nops %d\n%sera %d\n%s" m.m_generation
    m.m_ops
    (match m.m_bytes with None -> "" | Some b -> Printf.sprintf "bytes %d\n" b)
    m.m_era
    (match m.m_lineage with
    | None -> ""
    | Some (parent, fork) -> Printf.sprintf "parent %s\nfork %d\n" parent fork)

let manifest_of_string text =
  let kv line =
    match String.index_opt line ' ' with
    | None -> None
    | Some i ->
        Some
          ( String.sub line 0 i,
            String.trim (String.sub line (i + 1) (String.length line - i - 1))
          )
  in
  let fields =
    text |> String.split_on_char '\n' |> List.map String.trim
    |> List.filter (fun l -> l <> "")
    |> List.filter_map kv
  in
  let int_field k =
    match List.assoc_opt k fields with
    | Some v -> int_of_string_opt v
    | None -> None
  in
  let era = match int_field "era" with Some e -> e | None -> 0 in
  let lineage =
    match List.assoc_opt "parent" fields with
    | None -> None
    | Some parent ->
        (* a [parent] line without a [fork] stamp parses as fork 0: the
           child branched at the root of the parent's history *)
        Some (parent, match int_field "fork" with Some f -> f | None -> 0)
  in
  match (List.assoc_opt "format" fields, int_field "generation", int_field "ops") with
  | Some "1", Some g, Some o ->
      Some
        {
          m_generation = g;
          m_ops = o;
          m_bytes = int_field "bytes";
          m_era = era;
          m_lineage = lineage;
        }
  | _ -> None

let load_manifest t =
  if t.io.Io.file_exists (manifest_file t) then
    match manifest_of_string (read_file t (manifest_file t)) with
    | m -> m
    | exception Sys_error _ -> None
  else None

let save_manifest t m = write_file t (manifest_file t) (manifest_to_string m)

(* --- generation fencing --------------------------------------------------- *)

(** The write era recorded in the manifest; 0 when there is no manifest or
    it predates replication. *)
let stored_era t =
  match load_manifest t with Some m -> m.m_era | None -> 0

(** Stamp [era] into the manifest (monotone: never lowers a higher stored
    era).  Promotion fences both the dead leader's store and the promoted
    replica's at the new era; a writer opening a variant whose stored era
    exceeds its own must refuse — a newer writer has taken over. *)
let fence t ~era =
  let m =
    match load_manifest t with
    | Some m -> { m with m_era = max era m.m_era }
    | None ->
        { m_generation = 0; m_ops = 0; m_bytes = None; m_era = era;
          m_lineage = None }
  in
  save_manifest t m

(* --- variant lineage ------------------------------------------------------ *)

(** The (parent variant, fork stamp) pair recorded when this store was
    branched; [None] for root variants. *)
let lineage t =
  match load_manifest t with Some m -> m.m_lineage | None -> None

(* --- checkpoint ------------------------------------------------------------

   One header line, then the workspace in ODL (the file still parses as a
   schema, of the interfaces the variant changed):
   {v
   // checkpoint 1 ops <n> bytes <b> log <md5> shrinkwrap <md5> body <md5>
   schema ... v}
   — the first [b] bytes of [log.ops], with digest [log], whose records
   ([@undo;] included) resolve to [n] operations, taken on the shrink
   wrap text with digest [shrinkwrap]; [body]
   is the digest of everything after the header line.  The header is
   checked before the workspace is read, so a checkpoint that cannot
   serve costs a digest, not a parse.

   The body is the printer's layout ({!Odl.Printer.split_chunks}) and
   holds only what differs from the shrink wrap: a run of workspace
   interfaces equal to consecutive shrink wrap interfaces is one line
   naming them by position,
   {v
     // shrinkwrap <first> <count> v}
   and every other interface is printed. *)

type checkpoint = {
  c_ops : int;  (** the operations the covered records resolve to *)
  c_bytes : int;  (** their length in bytes *)
  c_log : string;  (** hex digest of those bytes *)
  c_shrinkwrap : string;  (** hex digest of the shrink wrap text *)
  c_body : string;  (** the state after them, in ODL; read last *)
}

let hex s = Digest.to_hex (Digest.string s)

let checkpoint_to_string ~shrink_digest ~log_text ~ops body =
  Printf.sprintf "// checkpoint 1 ops %d bytes %d log %s shrinkwrap %s body %s\n"
    ops (String.length log_text) (hex log_text) shrink_digest (hex body)
  ^ body

let checkpoint_of_string text =
  let header, body =
    match String.index_opt text '\n' with
    | Some i ->
        (String.sub text 0 i, String.sub text (i + 1) (String.length text - i - 1))
    | None -> (text, "")
  in
  match
    Scanf.sscanf_opt header
      "// checkpoint 1 ops %d bytes %d log %s shrinkwrap %s body %s%!"
      (fun o b l s d -> (o, b, l, s, d))
  with
  | None -> Error "malformed header"
  | Some (c_ops, c_bytes, c_log, c_shrinkwrap, digest) ->
      if hex body <> digest then Error "workspace does not match its digest"
      else Ok { c_ops; c_bytes; c_log; c_shrinkwrap; c_body = body }

(* [None] when there is no checkpoint. *)
let load_checkpoint t =
  if t.io.Io.file_exists (checkpoint_file t) then
    Some
      (match read_file t (checkpoint_file t) with
      | text -> checkpoint_of_string text
      | exception Sys_error m -> Error m)
  else None

(* The checkpoint and the op records of the journal prefix it covers, when
   it covers at least one and was taken on the shrink wrap text with hex
   digest [shrink_digest] and on a journal whose first [c_bytes] bytes are
   these: digests only, the records cut and not parsed.  This is what the
   open trusts, and so what fsck checks. *)
let covered_prefix ~shrink_digest ~log_text checkpoint =
  let ( let* ) = Option.bind in
  let* c = Option.bind checkpoint Result.to_option in
  let* records =
    if
      c.c_ops > 0
      && shrink_digest = c.c_shrinkwrap
      && c.c_bytes <= String.length log_text
      && Digest.to_hex (Digest.substring log_text 0 c.c_bytes) = c.c_log
    then Journal.op_records ~len:c.c_bytes log_text
    else None
  in
  if List.length records = c.c_ops then Some (c, records) else None

(* --- the shrink wrap's interfaces ------------------------------------------ *)

let chunks_of (schema : Odl.Types.schema) =
  let rec tails = function [] -> [] | _ :: rest as l -> l :: tails rest in
  let sw_from = Array.of_list (tails schema.s_interfaces) in
  let sw_at = ref SMap.empty in
  Array.iteri
    (fun k l -> sw_at := SMap.add (List.hd l).Odl.Types.i_name k !sw_at)
    sw_from;
  { sw_from; sw_at = !sw_at }

(* The shrink wrap's interface at position [k]. *)
let sw chunks k = List.hd chunks.sw_from.(k)

(* The line naming the [count] shrink wrap interfaces from [first]. *)
let run_chunk first count = Printf.sprintf "\n  // shrinkwrap %d %d" first count

(* A workspace interface, as the checkpoint body holds it: the [count]
   shrink wrap interfaces from [first], or a chunk of its own. *)
type slot = Run of int * int | Own of string

(* The checkpoint body's slots for a workspace: each interface equal to
   the shrink wrap's of its name extends a run, the others are printed. *)
let body_slots chunks (workspace : Odl.Types.schema) =
  let extend slots k =
    match slots with
    | Run (first, count) :: rest when first + count = k ->
        Run (first, count + 1) :: rest
    | _ -> Run (k, 1) :: slots
  in
  List.fold_left
    (fun slots (i : Odl.Types.interface) ->
      let next =
        match slots with Run (first, count) :: _ -> first + count | _ -> -1
      in
      (* the shrink wrap's next interface itself needs no lookup *)
      if next >= 0 && next < Array.length chunks.sw_from && sw chunks next == i
      then extend slots next
      else
        match SMap.find_opt i.i_name chunks.sw_at with
        | Some k
          when i == sw chunks k || Odl.Types.equal_interface i (sw chunks k) ->
            extend slots k
        | _ -> Own (Odl.Printer.interface_chunk i) :: slots)
    [] workspace.s_interfaces
  |> List.rev

let body_of_slots name slots =
  Odl.Printer.schema_of_chunks name
    (List.map
       (function Run (first, count) -> run_chunk first count | Own c -> c)
       slots)

(* The one chunk reader, for the open and fsck: the checkpoint body's
   workspace, sharing with the shrink wrap every interface a run names;
   every other chunk is parsed.  Each parsed chunk, and each run, must
   print back to its own bytes.  [Error] for a body not laid out so or a
   run the shrink wrap cannot resolve — every body a snapshot writes is
   laid out so, on the shrink wrap its header names — which the caller
   treats as a checkpoint that cannot serve. *)
let checkpoint_workspace chunks body =
  let slot (n, c) =
    if n <> "" then Ok (Own c)
    else
      match
        Scanf.sscanf_opt c "\n  // shrinkwrap %d %d%!" (fun a b -> (a, b))
      with
      | Some (first, count)
        when first >= 0 && count > 0
             && first + count <= Array.length chunks.sw_from
             && String.equal c (run_chunk first count) ->
          Ok (Run (first, count))
      | _ -> Error "a reference the shrink wrap cannot resolve"
  in
  match Odl.Printer.split_chunks body with
  | None -> Error "not laid out in interface chunks"
  | Some (name, body_chunks) -> (
      let rec slots acc = function
        | [] -> Ok (List.rev acc)
        | c :: rest -> Result.bind (slot c) (fun s -> slots (s :: acc) rest)
      in
      match slots [] body_chunks with
      | Error _ as e -> e
      | Ok slots ->
          let own = List.filter_map (function Own c -> Some c | Run _ -> None) slots in
          Result.bind
            (Odl.Parser.parse_schema_result (Odl.Printer.schema_of_chunks name own))
            (fun parsed ->
              if
                List.compare_lengths parsed.s_interfaces own = 0
                && List.for_all2
                     (fun i c -> String.equal (Odl.Printer.interface_chunk i) c)
                     parsed.s_interfaces own
              then
                (* built from the end: a last run that ends the shrink
                   wrap is its list's tail itself, shared, not copied *)
                let n = Array.length chunks.sw_from in
                let fill (acc, parsed) = function
                  | Run (first, count) when acc = [] && first + count = n ->
                      (chunks.sw_from.(first), parsed)
                  | Run (first, count) ->
                      let acc = ref acc in
                      for k = first + count - 1 downto first do
                        acc := sw chunks k :: !acc
                      done;
                      (!acc, parsed)
                  | Own _ -> (
                      match parsed with
                      | p :: parsed -> (p :: acc, parsed)
                      | [] -> assert false)
                in
                Ok
                  {
                    Odl.Types.s_name = name;
                    s_interfaces =
                      fst
                        (List.fold_left fill
                           ([], List.rev parsed.s_interfaces)
                           (List.rev slots));
                  }
              else Error "a chunk is not laid out as the printer lays it out"))

(* --- whole sessions ------------------------------------------------------ *)

let base session =
  let schema = Core.Session.original session in
  let text = Odl.Printer.schema_to_string schema in
  { b_text = text; b_digest = hex text; b_session = session;
    b_chunks = chunks_of schema }

(* The store's base when [session] was derived from its session (every
   session derived from one shares its shrink wrap value physically), else
   the session's own, printed here. *)
let base_for t session =
  match t.base () with
  | Some b
    when Core.Session.original session == Core.Session.original b.b_session ->
      b
  | _ -> base session

let holds t path text =
  try t.io.Io.file_exists path && read_file t path = text
  with Sys_error _ -> false

(* An artifact whose bytes are already on disk is not written again: the
   read back costs less than a write's fsync. *)
let write_changed t path text =
  if not (holds t path text) then write_file t path text

let remove_if_exists t path =
  if t.io.Io.file_exists path then t.io.Io.remove path

(** Whether a save would rewrite [aliases.map]: see the interface.  No
    local names, no file — unless there is one to empty. *)
let aliases_differ t session =
  let text = Core.Aliases.to_string (Core.Session.aliases session) in
  (text <> "" || t.io.Io.file_exists (aliases_file t))
  && not (holds t (aliases_file t) text)

(* The journal rewritten as the resolved [steps]; an empty history is no
   journal at all (a missing one reads as empty, and the first append
   creates it). *)
let rewrite_journal t steps =
  let text = Journal.steps_to_string steps in
  if text = "" then remove_if_exists t (log_file t)
  else write_file t (log_file t) text;
  text

(* The one save.  Artifacts go in the order recovery trusts them — shrink
   wrap, journal, local names, checkpoint — and the manifest last;
   [journal] writes or reads the journal and gives its text, which the
   checkpoint covers. *)
let persist ?lineage ?(era = 0) t session ~journal =
  let ops = Core.Session.step_count session in
  let generation, era, lineage =
    match load_manifest t with
    | Some m ->
        ( m.m_generation + 1,
          max era m.m_era,
          match lineage with Some _ -> lineage | None -> m.m_lineage )
    | None -> (1, era, lineage)
  in
  let b = base_for t session in
  write_changed t (shrinkwrap_file t) b.b_text;
  let log_text = journal () in
  if aliases_differ t session then
    write_file t (aliases_file t)
      (Core.Aliases.to_string (Core.Session.aliases session));
  (* a checkpoint covering no op could never serve: none is written, and
     an earlier one — stale after a rewrite, undone into otherwise — goes *)
  (if ops = 0 then remove_if_exists t (checkpoint_file t)
   else
     let workspace = Core.Session.workspace session in
     write_file t (checkpoint_file t)
       (checkpoint_to_string ~shrink_digest:b.b_digest ~log_text ~ops
          (body_of_slots workspace.s_name (body_slots b.b_chunks workspace))));
  save_manifest t
    {
      m_generation = generation;
      m_ops = ops;
      m_bytes = Some (String.length log_text);
      m_era = era;
      m_lineage = lineage;
    };
  String.length log_text

(* The full save; gives the length of the journal it wrote. *)
let rewrite ?lineage ?era t session =
  persist ?lineage ?era t session ~journal:(fun () ->
      rewrite_journal t (Core.Session.log session))

(** Persist what recovery needs, the journal rewritten as the session's
    resolved log: see the interface. *)
let save_session ?lineage ?era t session =
  ignore (rewrite ?lineage ?era t session : int)

(** Checkpoint a session whose history the journal holds, the journal
    read and not written: see the interface. *)
let save_checkpoint t session =
  ignore (persist t session ~journal:(fun () -> read_log t) : int)

(** Render the designer deliverables: [custom.odl], and into [reports/]
    the impact, consistency and mapping reports and [deliverables.html]. *)
let save_reports t session =
  write_file t (custom_file t)
    (Odl.Printer.schema_to_string (Core.Session.custom_schema session));
  save_report t "impact" (Core.Session.impact_report session);
  save_report t "consistency" (Core.Session.consistency_report_text session);
  save_report t "mapping" (Core.Session.mapping_report session);
  write_file t
    (Filename.concat (reports_dir t) "deliverables.html")
    (Html_report.render session)

(* --- the journal writer ------------------------------------------------------ *)

(* What the journal holds past [w_length], the bytes through the last
   successful fsync. *)
type tail =
  | Exact  (** nothing: the journal is [w_length] bytes *)
  | Unknown  (** an append or fsync failed: anything past [w_length] *)
  | Unwritten  (** a full save failed: the journal may be anything *)

type writer = {
  w_store : t;
  w_uncovered : bool;
      (** at the open, the journal held bytes the checkpoint did not cover *)
  mutable w_durable : Core.Session.t;  (** the session the journal holds *)
  mutable w_length : int;
  mutable w_tail : tail;
}

let guard f = match f () with v -> Ok v | exception Sys_error m -> Error m

let make_writer ~uncovered store session length =
  { w_store = store; w_uncovered = uncovered; w_durable = session;
    w_length = length; w_tail = Exact }

(* The full save of [session] in place of whatever the journal holds. *)
let rewrite_all w session =
  w.w_tail <- Unwritten;
  w.w_length <- rewrite w.w_store session;
  w.w_durable <- session;
  w.w_tail <- Exact

let writer ?io dir session =
  guard (fun () ->
      let t = open_dir ?io dir in
      make_writer ~uncovered:false t session (rewrite t session))

let writer_io w = w.w_store.io
let writer_store w = w.w_store
let durable w = w.w_durable
let uncovered w = w.w_uncovered

let holds w session =
  match Core.Session.(delta (spine w.w_durable) (spine session)) with
  | [], [] -> true
  | _ -> false

(* Cut the journal back to its durable length; [false] when that failed
   and only a full save can make the journal known again. *)
let restore w =
  let t = w.w_store in
  match
    if w.w_length > 0 || t.io.Io.file_exists (log_file t) then
      t.io.Io.truncate (log_file t) w.w_length
  with
  | () ->
      w.w_tail <- Exact;
      true
  | exception Sys_error _ -> false

(* Make [upto] durable, [data] being the records from the durable session
   to it: appended with one fsync onto a restored tail, or else the full
   save of [upto].  [true] when the journal was rewritten. *)
let extend w upto data =
  let t = w.w_store in
  if w.w_tail = Unwritten || (w.w_tail = Unknown && not (restore w)) then begin
    rewrite_all w upto;
    true
  end
  else begin
    if data <> "" then begin
      w.w_tail <- Unknown;
      Journal.append_raw t.io (log_file t) data;
      w.w_length <- w.w_length + String.length data;
      w.w_tail <- Exact
    end;
    w.w_durable <- upto;
    false
  end

let append_records w ~from ~upto data =
  if not (holds w from) then
    failwith
      "journal append refused: the records do not extend the durable \
       session (queued behind a failed append)";
  extend w upto data

let append w after =
  guard (fun () ->
      let _, _, data = Journal.encoded_delta ~before:w.w_durable ~after in
      ignore (extend w after data : bool))

let snapshot w final =
  if w.w_tail = Exact && holds w final then begin
    save_checkpoint w.w_store final;
    w.w_durable <- final;
    false
  end
  else begin
    rewrite_all w final;
    true
  end

let close w final =
  guard (fun () ->
      ignore (snapshot w final : bool);
      save_reports w.w_store final)

(* --- recovery ----------------------------------------------------------------

   One walk serves the open and fsck: the shrink wrap read, the journal
   parsed, its [@undo;] records resolved, the ops applied and the local
   names restored.  Each problem it meets is a [fault], in the order met,
   that ends the part of the journal it is in, so the walk reaches the
   longest replayable prefix.  The open turns the first fault but a torn
   tail into its error; fsck turns each into a line of its report. *)

type load_error =
  | Damaged of { file : string; reason : string }
  | Replay of Core.Apply.error

let load_error_to_string = function
  | Damaged { file; reason } -> Printf.sprintf "%s is damaged: %s" file reason
  | Replay e ->
      "log.ops does not replay: " ^ Core.Apply.error_to_string e

(* The stored shrink wrap as a base: the store's own when [shrinkwrap.odl]
   holds exactly its text, so nothing is parsed, indexed or digested
   again. *)
let read_base t =
  let damaged reason = Error (Damaged { file = "shrinkwrap.odl"; reason }) in
  if not (t.io.Io.file_exists (shrinkwrap_file t)) then damaged "missing"
  else
    match (read_file t (shrinkwrap_file t), t.base ()) with
    | exception Sys_error m -> damaged m
    | text, Some b when String.equal b.b_text text -> Ok b
    | text, _ -> (
        match Odl.Parser.parse_schema_result text with
        | Error m -> damaged m
        | Ok schema -> (
            match Core.Session.create schema with
            | Error ds -> Error (Replay (Core.Oplog.invalid_shrink_wrap ds))
            | Ok s ->
                Ok
                  { b_text = text; b_digest = hex text; b_session = s;
                    b_chunks = chunks_of schema }))

(* [kept]: the records before a corrupt line, all that is read; [later]:
   the records, or ops, dropped after the one at fault. *)
type fault =
  | Torn_tail of string  (** the unterminated fragment the journal ends in *)
  | Corrupt_line of { line : int; reason : string; kept : int }
  | Undoes_nothing of { record : int; later : int }
  | Rejected of { op : int; error : Core.Apply.error; later : int }
  | Bad_aliases of string  (** local names reset *)

(* The walk's state at the end of a journal prefix. *)
type split = Unread | Unreplayable | Reached of Core.Session.t

type walk = {
  w_session : Core.Session.t;  (** local names restored *)
  w_faults : fault list;
  w_at_start : unit -> split;
}

let from start text = String.sub text start (String.length text - start)

let read_aliases t =
  if t.io.Io.file_exists (aliases_file t) then
    match Core.Aliases.of_string (read_file t (aliases_file t)) with
    | aliases -> Ok aliases
    | exception (Core.Aliases.Bad_aliases m | Sys_error m) -> Error m
  else Ok Core.Aliases.empty

(* The recovery walk over [log_text] from [b]'s session.  [start] ends a
   prefix of one record a line (a checkpoint's covered prefix) and
   [suffix] is the rest parsed; a corrupt line is reported at its line in
   the whole journal.  [w_at_start] is the state after the prefix, with no
   second replay: the walk's state after the [j] prefix ops the whole
   journal keeps, then those an [@undo;] after [start] popped (usually
   none). *)
let walk t b ~log_text ~start (suffix : Journal.parsed) =
  let faults = ref [] in
  let fault f = faults := f :: !faults in
  let prefix = Journal.parse (String.sub log_text 0 start) in
  (* [n]: how many records precede [start]; -1 when the walk stops before *)
  let n = if prefix.damage = None then List.length prefix.entries else -1 in
  let journal : Journal.parsed =
    if n < 0 then prefix
    else
      { entries = prefix.entries @ suffix.entries;
        damage =
          (match suffix.damage with
          | Some (Journal.Corrupt c) ->
              Some (Journal.Corrupt { c with line = c.line + n })
          | d -> d) }
  in
  (match journal.damage with
  | Some (Journal.Torn_tail fragment) -> fault (Torn_tail fragment)
  | Some (Journal.Corrupt { line; reason }) ->
      fault (Corrupt_line { line; reason; kept = List.length journal.entries })
  | None -> ());
  (* [@undo;] resolved as {!Journal.resolve} does, keeping the stack as it
     stood after the first [n] records *)
  let rec resolve i stack at entries =
    let at = if i = n then Some stack else at in
    match entries with
    | [] -> (stack, at)
    | Journal.Op (kind, op) :: rest ->
        resolve (i + 1) ((kind, op) :: stack) at rest
    | Journal.Undo :: rest -> (
        match stack with
        | _ :: stack -> resolve (i + 1) stack at rest
        | [] ->
            fault (Undoes_nothing { record = i + 1; later = List.length rest });
            (stack, at))
  in
  let stack, at = resolve 0 [] None journal.entries in
  let steps = List.rev stack in
  (* the two stacks share their ops below the deepest undo after [start] *)
  let j, undone =
    let rec common j = function
      | x :: xs, y :: ys when x == y -> common (j + 1) (xs, ys)
      | undone, _ -> (j, undone)
    in
    match at with Some at -> common 0 (List.rev at, steps) | None -> (0, [])
  in
  let at_j = ref None in
  let rec apply k s ops =
    if k = j then at_j := Some s;
    match ops with
    | [] -> s
    | (kind, op) :: rest -> (
        match Core.Session.apply s ~kind op with
        | Ok (s, _) -> apply (k + 1) s rest
        | Error error ->
            fault (Rejected { op = k + 1; error; later = List.length rest });
            s)
  in
  let session = apply 0 (Core.Session.new_lineage b.b_session) steps in
  let session =
    match read_aliases t with
    | Ok aliases -> Core.Session.restore_aliases session aliases
    | Error m ->
        fault (Bad_aliases m);
        session
  in
  let at_j = !at_j in
  { w_session = session;
    w_faults = List.rev !faults;
    w_at_start =
      (fun () ->
        match (at, at_j) with
        | None, _ -> Unread
        | Some _, None -> Unreplayable
        | Some _, Some s -> (
            match Core.Oplog.replay_on s undone with
            | Ok s -> Reached s
            | Error _ -> Unreplayable)) }

(* The open's error for a fault; none for a torn tail, which it repairs. *)
let load_error_of_fault = function
  | Torn_tail _ -> None
  | Corrupt_line { line; reason; _ } ->
      let reason = Journal.damage_to_string (Journal.Corrupt { line; reason }) in
      Some (Damaged { file = "log.ops"; reason })
  | Undoes_nothing _ ->
      let reason = "undo record with no operation to undo" in
      Some (Damaged { file = "log.ops"; reason })
  | Rejected { error; _ } -> Some (Replay error)
  | Bad_aliases reason -> Some (Damaged { file = "aliases.map"; reason })

(* fsck's report line for a fault. *)
let fault_line = function
  | Torn_tail fragment ->
      "log.ops: " ^ Journal.damage_to_string (Journal.Torn_tail fragment)
  | Corrupt_line { line; reason; kept } ->
      Printf.sprintf "log.ops: %s; kept the valid prefix (%d record(s))"
        (Journal.damage_to_string (Journal.Corrupt { line; reason }))
        kept
  | Undoes_nothing { record; later } ->
      Printf.sprintf
        "log.ops: record %d undoes nothing; dropped it and %d later record(s)"
        record later
  | Rejected { op; error; later } ->
      Printf.sprintf
        "log.ops: operation %d rejected on replay (%s); dropped it and %d \
         later operation(s)"
        op (Core.Apply.error_to_string error) later
  | Bad_aliases m -> Printf.sprintf "aliases.map: %s; local names reset" m

(* The session opened from checkpoint [c] — [records] the journal prefix
   it covers — plus the journal [entries] after it; [None] whenever the
   checkpoint cannot serve (its workspace does not reconstruct or is
   invalid, or an [@undo;] after it pops into the prefix) or an entry does
   not apply, leaving the walk — and its error report — to the caller. *)
let resume b (c, records) entries =
  let ( let* ) = Option.bind in
  (* resolving the records after the checkpoint on their own fails
     exactly when an [@undo;] pops into the covered prefix *)
  let* suffix = Result.to_option (Journal.resolve entries) in
  let* workspace = Result.to_option (checkpoint_workspace b.b_chunks c.c_body) in
  let* session =
    Result.to_option (Core.Session.of_checkpoint b.b_session ~workspace records)
  in
  Result.to_option (Core.Oplog.replay_on session suffix)

(** Open from the checkpoint plus the records after it, or else by the
    recovery walk: see the interface.  [repair] rewrites a torn tail in
    place so the next append lands on a clean file; a reader of a store
    another process may be appending to passes [~repair:false].  Gives
    the session, the journal's length as the load left it, and whether
    the checkpoint left journal bytes uncovered. *)
let load ~repair t =
  let ( let* ) = Result.bind in
  try
    let* b = read_base t in
    let log_text = read_log t in
    let covered =
      covered_prefix ~shrink_digest:b.b_digest ~log_text (load_checkpoint t)
    in
    (* Only the records after the covered prefix are parsed here; the
       prefix holds one record a line. *)
    let start = match covered with Some (c, _) -> c.c_bytes | None -> 0 in
    let suffix = Journal.parse (from start log_text) in
    let uncovered = String.length log_text > start in
    let length =
      match suffix.damage with
      | Some (Journal.Torn_tail _) when repair ->
          let text =
            String.sub log_text 0 start ^ Journal.to_string suffix.entries
          in
          Io.atomic_write t.io (log_file t) text;
          String.length text
      | _ -> String.length log_text
    in
    match
      match (covered, suffix.damage) with
      | Some cov, (None | Some (Journal.Torn_tail _)) ->
          resume b cov suffix.entries
      | _ -> None
    with
    | Some session -> (
        match read_aliases t with
        | Ok aliases ->
            Ok (Core.Session.restore_aliases session aliases, length, uncovered)
        | Error reason -> Error (Damaged { file = "aliases.map"; reason }))
    | None -> (
        let w = walk t b ~log_text ~start suffix in
        match List.find_map load_error_of_fault w.w_faults with
        | Some e -> Error e
        | None -> Ok (w.w_session, length, uncovered))
  with Sys_error m -> Error (Damaged { file = "repository"; reason = m })

let load_session ?(repair = true) t =
  Result.map (fun (session, _, _) -> session) (load ~repair t)

(** The writer of a live session, from the recovery open: see the
    interface. *)
let open_writer t =
  Result.map
    (fun (session, length, uncovered) -> make_writer ~uncovered t session length)
    (load ~repair:true t)

(* --- integrity checking -------------------------------------------------- *)

type fsck_report = {
  fsck_issues : string list;
  fsck_session : Core.Session.t option;
  fsck_derived_only : bool;
}

(** Inspect every artifact of the repository, reporting damage; with
    [~salvage:true] rewrite it from the best recoverable session (longest
    replayable journal prefix) and sweep stale temporary files. *)
let fsck ?(salvage = false) t =
  let issues = ref [] and damaged = ref false in
  let issue fmt =
    Printf.ksprintf (fun m -> damaged := true; issues := m :: !issues) fmt
  in
  (* damage to what recovery does not read: the checkpoint, a stale
     temporary file *)
  let derived fmt = Printf.ksprintf (fun m -> issues := m :: !issues) fmt in
  let derived_checkpoint fmt =
    Printf.ksprintf
      (derived "checkpoint.odl: %s (derived; regenerated by salvage)")
      fmt
  in
  let tmp_files =
    let under d =
      if t.io.Io.is_directory d then
        t.io.Io.readdir d
        |> List.filter (fun f -> Filename.check_suffix f Io.tmp_suffix)
        |> List.map (Filename.concat d)
        |> List.sort compare
      else []
    in
    under t.dir @ under (reports_dir t)
  in
  List.iter
    (fun p ->
      derived
        "%s: stale temporary file from an interrupted write (derived; \
         removed by salvage)"
        p)
    tmp_files;
  let sweep_tmp () =
    List.iter
      (fun p -> try t.io.Io.remove p with Sys_error _ -> ())
      tmp_files
  in
  let finish session =
    if salvage then begin
      sweep_tmp ();
      match session with
      | Some s when !issues <> [] -> save_session t s
      | _ -> ()
    end;
    {
      fsck_issues = List.rev !issues;
      fsck_session = session;
      fsck_derived_only = not !damaged;
    }
  in
  match read_base t with
  | Error (Damaged { reason; _ }) ->
      issue
        "shrinkwrap.odl: %s (unrecoverable: the base schema roots every \
         replay)"
        reason;
      finish None
  | Error (Replay _) ->
      issue "shrinkwrap.odl: parses but is not a valid schema (unrecoverable)";
      finish None
  | Ok b ->
      let log_text =
        match read_log t with
        | exception Sys_error m ->
            issue "log.ops: %s; treating the journal as empty" m;
            ""
        | log_text -> log_text
      in
      let checkpoint = load_checkpoint t in
      let covered = covered_prefix ~shrink_digest:b.b_digest ~log_text checkpoint in
      let start = match covered with Some (c, _) -> c.c_bytes | None -> 0 in
      let w = walk t b ~log_text ~start (Journal.parse (from start log_text)) in
      List.iter (fun f -> issue "%s" (fault_line f)) w.w_faults;
      let manifest = load_manifest t in
      (* the checkpoint must be what the open reads from it — its digests,
         the record cut, the chunk reconstruction — and hold the state the
         walk reached at the end of the prefix it covers *)
      (match (checkpoint, covered) with
      | None, _ -> (
          (* only a save that covered an op leaves one *)
          match manifest with
          | Some m when m.m_ops > 0 -> derived_checkpoint "missing"
          | Some _ | None -> ())
      | Some (Error m), _ -> derived_checkpoint "%s" m
      | Some (Ok _), None -> derived_checkpoint "does not match the log prefix"
      | Some (Ok _), Some (c, _) -> (
          match checkpoint_workspace b.b_chunks c.c_body with
          | Error m -> derived_checkpoint "%s" m
          | Ok workspace -> (
              match w.w_at_start () with
              | Unread -> derived_checkpoint "does not match the log prefix"
              | Unreplayable ->
                  derived_checkpoint "covers a log prefix that does not replay"
              | Reached s ->
                  if
                    not
                      (Odl.Types.equal_schema (Core.Session.workspace s)
                         workspace)
                  then derived_checkpoint "differs from the replayed log prefix")));
      (match manifest with
      | None ->
          if t.io.Io.file_exists (manifest_file t) then
            issue "manifest: unreadable (rewritten by salvage)"
          else issue "manifest: missing (rewritten by salvage)"
      | Some m ->
          (* The journal only grows between saves (an undo is a
             record too), so one at least as long as the save wrote
             lost nothing, however few ops it resolves to.  A shorter
             one may be the rewrite of a snapshot that crashed before
             its manifest: it lost a tail only if fewer ops replay as
             well.  A manifest without the byte watermark compares op
             counts alone. *)
          let shorter =
            match m.m_bytes with
            | Some saved -> String.length log_text < saved
            | None -> true
          in
          let actual = Core.Session.step_count w.w_session in
          if shorter && actual < m.m_ops then
            issue
              "manifest: records %d op(s) but only %d replay — a saved \
               tail was lost"
              m.m_ops actual;
          (* lineage sanity (branched variants): a damaged lineage line
             is an issue, never a crash — the variant's own artifacts
             are still whole and salvage keeps the record as parsed *)
          (match m.m_lineage with
          | None -> ()
          | Some (parent, fork) ->
              if not (Odl.Names.is_valid parent) then
                issue "manifest: parent %S is not a valid variant name"
                  parent;
              if parent = Filename.basename t.dir then
                issue "manifest: variant records itself as its own parent";
              if fork < 0 then
                issue "manifest: negative fork stamp %d" fork));
      finish (Some w.w_session)
