(** The design service's line protocol.

    Requests are single lines.  Lines starting with [@] are session
    control; anything else is a designer command executed by
    {!Designer.Engine} against the connection's open variant:

    {v
    @list                 list the variants (sorted): name, lineage
                          ([parent@stamp] or [root]), era — one line each
    @branch V W [@at STAMP]
                          fork variant W off V (lineage recorded); @at
                          forks after V's first STAMP operations
    @merge W into V [--dry-run]
                          rebase W's ops past the fork point onto V;
                          per-op clean/auto-merged/conflict report;
                          --dry-run reports without writing
    @open <variant>       attach to a variant (shared session)
    @open <variant> readonly
                          attach without write access: mutating commands
                          are refused with [!readonly]
    @new <variant>        create a variant, then attach
    @close                detach; last detach snapshots the session
    @ping                 liveness probe
    @stats [json]         observability snapshot (text, or JSON with [json])
    @query <expr>         read-side query over the variant's schema (see
                          {!Query.Parser}; [@query all ...] spans variants)
    @quit                 close the connection
    focus ww:Person       ... any designer command line ...
    v}

    Every request yields one response: zero or more body lines, each
    prefixed [". "] so arbitrary command output (schemas, reports) can
    never be mistaken for a status, then an optional [#version <n>] meta
    line (the variant's publication stamp, monotone per variant), then
    exactly one status line:

    {v
    !ok                   accepted; mutations are durable on disk
    !err <message>        rejected (parse error, read-only variant, ...)
    !readonly <message>   refused: the connection attached readonly
    !busy <reason>        shed by backpressure, followed by
    !retry-after <ms>     ... when to come back
    v}

    [!busy] is always immediately followed by its [!retry-after] line;
    clients treat [!retry-after] as the terminator. *)

(* --- transport addresses -------------------------------------------------- *)

type address = Unix_path of string | Tcp of string * int

(* A string with a '/' is always a filesystem path; otherwise [host:port]
   with a numeric port is TCP.  This keeps every pre-TCP invocation
   ([swsd serve DIR --socket /run/swsd.sock], [swsd stats sock]) parsing
   exactly as before: relative socket paths without slashes are unusual,
   and can always be written as [./name.sock]. *)
let parse_address s =
  let s = String.trim s in
  if s = "" then Result.Error "empty address"
  else if String.contains s '/' then Result.Ok (Unix_path s)
  else
    match String.rindex_opt s ':' with
    | Some i when i > 0 && i < String.length s - 1 -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p >= 0 && p <= 0xffff -> Result.Ok (Tcp (host, p))
        | Some _ -> Result.Error (s ^ ": port out of range")
        | None -> Result.Ok (Unix_path s))
    | _ -> Result.Ok (Unix_path s)

let address_to_string = function
  | Unix_path p -> p
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

type request =
  | List
  | Open of { variant : string; readonly : bool }
  | New of string
  | Close
  | Ping
  | Stats of [ `Text | `Json ]
  | Query of string
      (** a read-side query (the text after [@query], verbatim; parsed by
          {!Query.Parser} — scope and plan live in the query language) *)
  | Branch of { parent : string; child : string; at : int option }
      (** [@branch V W [@at STAMP]]: fork variant [W] off [V], recording
          lineage; [at] forks after V's first [at] operations *)
  | Merge of { source : string; dest : string; dry_run : bool }
      (** [@merge W into V [--dry-run]]: rebase W's ops past the fork point
          onto V and report clean/auto-merged/conflict per op; [--dry-run]
          reports without writing *)
  | Quit
  | Command of string  (** a designer command line, verbatim *)

type status =
  | Ok
  | Err of string
  | Readonly of string
  | Busy of { reason : string; retry_after_ms : int }

type response = { body : string list; status : status; version : int option }

let ok ?version body = { body; status = Ok; version }
let err ?(body = []) ?version message = { body; status = Err message; version }
let readonly message = { body = []; status = Readonly message; version = None }

let busy ?(body = []) ~retry_after_ms reason =
  { body; status = Busy { reason; retry_after_ms }; version = None }

let parse_request line =
  let line = String.trim line in
  let word, rest =
    match String.index_opt line ' ' with
    | None -> (line, "")
    | Some i ->
        ( String.sub line 0 i,
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
  in
  match (word, rest) with
  | "@list", "" -> Result.Ok List
  | "@open", v when v <> "" -> (
      match String.split_on_char ' ' v with
      | [ variant ] -> Result.Ok (Open { variant; readonly = false })
      | [ variant; "readonly" ] -> Result.Ok (Open { variant; readonly = true })
      | _ -> Result.Error "usage: @open <variant> [readonly]")
  | "@new", v when v <> "" -> Result.Ok (New v)
  | "@close", "" -> Result.Ok Close
  | "@ping", "" -> Result.Ok Ping
  | "@stats", "" -> Result.Ok (Stats `Text)
  | "@stats", "json" -> Result.Ok (Stats `Json)
  | "@query", q when q <> "" -> Result.Ok (Query q)
  | "@branch", v -> (
      match String.split_on_char ' ' v |> List.filter (fun s -> s <> "") with
      | [ parent; child ] -> Result.Ok (Branch { parent; child; at = None })
      | [ parent; child; "@at"; stamp ] -> (
          match int_of_string_opt stamp with
          | Some at when at >= 0 ->
              Result.Ok (Branch { parent; child; at = Some at })
          | _ -> Result.Error ("@branch: bad stamp " ^ stamp))
      | _ -> Result.Error "usage: @branch <parent> <child> [@at STAMP]")
  | "@merge", v -> (
      match String.split_on_char ' ' v |> List.filter (fun s -> s <> "") with
      | [ source; "into"; dest ] ->
          Result.Ok (Merge { source; dest; dry_run = false })
      | [ source; "into"; dest; "--dry-run" ] ->
          Result.Ok (Merge { source; dest; dry_run = true })
      | _ -> Result.Error "usage: @merge <branch> into <variant> [--dry-run]")
  | "@query", "" ->
      Result.Error
        "usage: @query [all] [explain] \
         <name|attr|isa|partof|wheel|diff|lineage|branches> ..."
  | "@quit", "" -> Result.Ok Quit
  | _ when String.length line > 0 && line.[0] = '@' ->
      Result.Error ("unknown control request: " ^ line)
  | _ when line = "" -> Result.Error "empty request"
  | _ -> Result.Ok (Command line)

(* --- rendering ------------------------------------------------------------ *)

let body_prefix = ". "

(* Every line of the response in order, as [emit ~body s off len]: the
   line is [len] bytes of [s] from [off], and [body] says whether it takes
   the body prefix.  One logical body entry may span lines (a rendered
   schema); each physical line is cut straight from it, with no list in
   between. *)
let iter_lines emit r =
  List.iter
    (fun entry ->
      let n = String.length entry in
      (* the end of the line from [i]: a newline or the entry's end *)
      let rec eol i =
        if i = n || String.unsafe_get entry i = '\n' then i else eol (i + 1)
      in
      let rec go i =
        let j = eol i in
        emit ~body:true entry i (j - i);
        if j < n then go (j + 1)
      in
      go 0)
    r.body;
  let meta l = emit ~body:false l 0 (String.length l) in
  Option.iter (fun v -> meta (Printf.sprintf "#version %d" v)) r.version;
  match r.status with
  | Ok -> meta "!ok"
  | Err m -> meta ("!err " ^ m)
  | Readonly m -> meta ("!readonly " ^ m)
  | Busy { reason; retry_after_ms } ->
      meta ("!busy " ^ reason);
      meta (Printf.sprintf "!retry-after %d" retry_after_ms)

(* Each line allocated once: a body line is the prefix and its bytes
   blitted into one string. *)
let to_lines r =
  let lines = ref [] in
  iter_lines
    (fun ~body s off len ->
      let line =
        if body then begin
          let p = String.length body_prefix in
          let b = Bytes.create (p + len) in
          Bytes.blit_string body_prefix 0 b 0 p;
          Bytes.blit_string s off b p len;
          Bytes.unsafe_to_string b
        end
        else String.sub s off len
      in
      lines := line :: !lines)
    r;
  List.rev !lines

let to_string r =
  (* room for the body, its prefixes at a line per 16 bytes, and the
     status: a long reply is not copied as the buffer grows *)
  let size = List.fold_left (fun n e -> n + String.length e) 64 r.body in
  let b = Buffer.create (size + (size / 8)) in
  iter_lines
    (fun ~body s off len ->
      if body then Buffer.add_string b body_prefix;
      Buffer.add_substring b s off len;
      Buffer.add_char b '\n')
    r;
  Buffer.contents b

let is_terminator line =
  let starts p =
    String.length line >= String.length p && String.sub line 0 (String.length p) = p
  in
  starts "!ok" || starts "!err" || starts "!readonly" || starts "!retry-after"
