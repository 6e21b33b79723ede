(** Append-only operation journal.  See journal.mli for the format. *)

type entry =
  | Op of Core.Concept.kind * Core.Modop.t
  | Undo

type damage =
  | Torn_tail of string
  | Corrupt of { line : int; reason : string }

let damage_to_string = function
  | Torn_tail frag ->
      Printf.sprintf "torn tail (%d bytes of unacknowledged record)"
        (String.length frag)
  | Corrupt { line; reason } -> Printf.sprintf "line %d: %s" line reason

type parsed = {
  entries : entry list;
  damage : damage option;
}

(* --- concept tags -------------------------------------------------------- *)

let kind_tag = function
  | Core.Concept.Wagon_wheel -> "@ww"
  | Core.Concept.Generalization -> "@gh"
  | Core.Concept.Aggregation -> "@ah"
  | Core.Concept.Instance_chain -> "@ih"

let kind_of_tag = function
  | "@ww" -> Some Core.Concept.Wagon_wheel
  | "@gh" -> Some Core.Concept.Generalization
  | "@ah" -> Some Core.Concept.Aggregation
  | "@ih" -> Some Core.Concept.Instance_chain
  | _ -> None

let undo_line = "@undo;"

(* --- serialization ------------------------------------------------------- *)

let op_line kind text = kind_tag kind ^ " " ^ text ^ ";"

let entry_to_line = function
  | Op (kind, op) -> op_line kind (Core.Op_printer.to_string op)
  | Undo -> undo_line

let to_string entries =
  entries |> List.map (fun e -> entry_to_line e ^ "\n") |> String.concat ""

(* --- parsing ------------------------------------------------------------- *)

(* [None] for lines to skip, [Ok entry] for records, [Error reason] for
   interior corruption. *)
let parse_line line =
  let line = String.trim line in
  if line = "" || (String.length line >= 2 && String.sub line 0 2 = "//") then
    None
  else if line = undo_line then Some (Ok Undo)
  else
    match String.index_opt line ' ' with
    | None -> Some (Error ("missing operation: " ^ line))
    | Some i -> (
        let tag = String.sub line 0 i in
        let rest = String.sub line (i + 1) (String.length line - i - 1) in
        match kind_of_tag tag with
        | None -> Some (Error ("unknown concept tag: " ^ tag))
        | Some kind -> (
            try Some (Ok (Op (kind, Core.Op_parser.parse rest))) with
            | Core.Op_parser.Parse_error (m, _, _) ->
                Some (Error (m ^ " in: " ^ rest))
            | Odl.Lexer.Lex_error (m, _, _) ->
                Some (Error (m ^ " in: " ^ rest))))

let parse text =
  (* Records are newline-terminated; the segment after the final newline is
     an in-flight record from a crashed append (quoted identifiers guarantee
     no record contains a raw newline, so a torn append never fabricates a
     terminated line). *)
  let terminated, fragment =
    match String.rindex_opt text '\n' with
    | None -> ([], text)
    | Some i ->
        ( String.split_on_char '\n' (String.sub text 0 i),
          String.sub text (i + 1) (String.length text - i - 1) )
  in
  let rec go n acc = function
    | [] -> (List.rev acc, None, n)
    | line :: rest -> (
        match parse_line line with
        | None -> go (n + 1) acc rest
        | Some (Ok e) -> go (n + 1) (e :: acc) rest
        | Some (Error reason) ->
            (List.rev acc, Some (Corrupt { line = n; reason }), n))
  in
  let entries, corrupt, _ = go 1 [] terminated in
  match corrupt with
  | Some _ as damage -> { entries; damage }
  | None ->
      if String.trim fragment = "" then { entries; damage = None }
      else
        (* A fragment that parses lost only its newline; keep it.  Either
           way the file needs repair before the next append. *)
        let entries =
          match parse_line fragment with
          | Some (Ok e) -> entries @ [ e ]
          | _ -> entries
        in
        { entries; damage = Some (Torn_tail fragment) }

let resolve entries =
  let rec go stack = function
    | [] -> Ok (List.rev stack)
    | Op (kind, op) :: rest -> go ((kind, op) :: stack) rest
    | Undo :: rest -> (
        match stack with
        | _ :: stack -> go stack rest
        | [] -> Error "undo record with no operation to undo")
  in
  go [] entries

(* --- file operations ----------------------------------------------------- *)

let encode entry = entry_to_line entry ^ "\n"

let encode_step (st : Core.Session.step) = op_line st.st_kind st.st_text ^ "\n"

(* One allocation of the exact size: a record is its 3-byte tag, a
   space, the text and ";\n". *)
let steps_to_string steps =
  let b =
    Bytes.create
      (List.fold_left
         (fun n (st : Core.Session.step) -> n + String.length st.st_text + 6)
         0 steps)
  in
  ignore
    (List.fold_left
       (fun at (st : Core.Session.step) ->
         let len = String.length st.st_text in
         Bytes.blit_string (kind_tag st.st_kind) 0 b at 3;
         Bytes.set b (at + 3) ' ';
         Bytes.blit_string st.st_text 0 b (at + 4) len;
         Bytes.blit_string ";\n" 0 b (at + 4 + len) 2;
         at + len + 6)
       0 steps);
  Bytes.unsafe_to_string b

(* The op records [text]'s first [n] bytes resolve to, newest first, each
   [@undo;] popping the newest: each record's kind and the span
   [(start, length)] of its line, newline included.  [None] unless those
   bytes are exactly records one a line, each newline-terminated. *)
let resolved_lines n text =
  let is_undo i j =
    j - i = String.length undo_line
    && String.equal (String.sub text i (j - i)) undo_line
  in
  (* the line at [i] ends at its newline [j] *)
  let rec go acc i =
    if i = n then Some acc
    else
      match String.index_from_opt text i '\n' with
      | Some j when j < n -> (
          if is_undo i j then
            match acc with _ :: acc -> go acc (j + 1) | [] -> None
          else if j - i > 5 && text.[i + 3] = ' ' && text.[j - 1] = ';' then
            match kind_of_tag (String.sub text i 3) with
            | Some kind -> go ((kind, i, j + 1 - i) :: acc) (j + 1)
            | None -> None
          else None)
      | _ -> None
  in
  go [] 0

let op_records ?len text =
  Option.map
    (* the op text sits between the tag's space and the [;\n] *)
    (List.rev_map (fun (kind, i, l) -> (kind, String.sub text (i + 4) (l - 6))))
    (resolved_lines (Option.value len ~default:(String.length text)) text)

let append_raw (io : Io.t) path data =
  io.append path data;
  io.fsync path

let encoded_delta ~before ~after =
  let undone, added = Core.Session.(delta (spine before) (spine after)) in
  let buf = Buffer.create 128 in
  List.iter (fun _ -> Buffer.add_string buf (encode Undo)) undone;
  List.iter (fun st -> Buffer.add_string buf (encode_step st)) added;
  (List.length undone + List.length added, added, Buffer.contents buf)

let read (io : Io.t) path =
  if io.file_exists path then parse (io.read_file path)
  else { entries = []; damage = None }

let rewrite io path entries = Io.atomic_write io path (to_string entries)

(* --- replication stream framing ------------------------------------------ *)

module Frame = struct
  type t =
    | Hello of { era : int }
    | Root of { data : string }
    | File of { variant : string; name : string; data : string }
    | Start of { variant : string; stamp : int }
    | Records of { variant : string; stamp : int; data : string }
    | Reset of { variant : string }
    | Live
    | Ack of { variant : string; stamp : int }

  (* Header lines carry only integers and fixed tokens; every
     variable-length field (variant names may hold any quoted-identifier
     byte, record runs are raw journal bytes) rides in a length-prefixed
     payload after the newline.  Nothing in a frame is ever parsed by
     line discipline, so pathological names cannot break the stream. *)
  let to_string = function
    | Hello { era } -> Printf.sprintf "+hello %d\n" era
    | Root { data } -> Printf.sprintf "+root %d\n%s" (String.length data) data
    | File { variant; name; data } ->
        Printf.sprintf "+file %d %d %s\n%s%s" (String.length variant)
          (String.length data) name variant data
    | Start { variant; stamp } ->
        Printf.sprintf "+start %d %d\n%s" (String.length variant) stamp variant
    | Records { variant; stamp; data } ->
        Printf.sprintf "+rec %d %d %d\n%s%s" (String.length variant) stamp
          (String.length data) variant data
    | Reset { variant } ->
        Printf.sprintf "+reset %d\n%s" (String.length variant) variant
    | Live -> "+live\n"
    | Ack { variant; stamp } ->
        Printf.sprintf "+ack %d %d\n%s" (String.length variant) stamp variant

  let describe = function
    | Hello _ -> "+hello"
    | Root _ -> "+root"
    | File _ -> "+file"
    | Start _ -> "+start"
    | Records _ -> "+rec"
    | Reset _ -> "+reset"
    | Live -> "+live"
    | Ack _ -> "+ack"

  let read ~read_line ~read_exact =
    match read_line () with
    | None -> Ok None
    | Some line -> (
        let int s = int_of_string_opt s in
        let payload n k =
          match read_exact n with
          | Some s -> k s
          | None -> Error ("stream ended inside a " ^ line ^ " frame")
        in
        let nonneg = function Some n when n >= 0 -> Some n | _ -> None in
        match String.split_on_char ' ' (String.trim line) with
        | [ "+hello"; e ] -> (
            match int e with
            | Some era -> Ok (Some (Hello { era }))
            | None -> Error ("bad frame header: " ^ line))
        | [ "+root"; len ] -> (
            match nonneg (int len) with
            | Some n -> payload n (fun data -> Ok (Some (Root { data })))
            | None -> Error ("bad frame header: " ^ line))
        | [ "+file"; vlen; dlen; name ] -> (
            match (nonneg (int vlen), nonneg (int dlen)) with
            | Some vn, Some dn ->
                payload (vn + dn) (fun s ->
                    Ok
                      (Some
                         (File
                            {
                              variant = String.sub s 0 vn;
                              name;
                              data = String.sub s vn dn;
                            })))
            | _ -> Error ("bad frame header: " ^ line))
        | [ "+start"; vlen; stamp ] -> (
            match (nonneg (int vlen), int stamp) with
            | Some vn, Some stamp ->
                payload vn (fun variant -> Ok (Some (Start { variant; stamp })))
            | _ -> Error ("bad frame header: " ^ line))
        | [ "+rec"; vlen; stamp; dlen ] -> (
            match (nonneg (int vlen), int stamp, nonneg (int dlen)) with
            | Some vn, Some stamp, Some dn ->
                payload (vn + dn) (fun s ->
                    Ok
                      (Some
                         (Records
                            {
                              variant = String.sub s 0 vn;
                              stamp;
                              data = String.sub s vn dn;
                            })))
            | _ -> Error ("bad frame header: " ^ line))
        | [ "+reset"; vlen ] -> (
            match nonneg (int vlen) with
            | Some vn ->
                payload vn (fun variant -> Ok (Some (Reset { variant })))
            | None -> Error ("bad frame header: " ^ line))
        | [ "+live" ] -> Ok (Some Live)
        | [ "+ack"; vlen; stamp ] -> (
            match (nonneg (int vlen), int stamp) with
            | Some vn, Some stamp ->
                payload vn (fun variant -> Ok (Some (Ack { variant; stamp })))
            | _ -> Error ("bad frame header: " ^ line))
        | _ -> Error ("unknown frame: " ^ line))

  let of_string text =
    let pos = ref 0 in
    let read_line () =
      if !pos >= String.length text then None
      else
        match String.index_from_opt text !pos '\n' with
        | Some i ->
            let line = String.sub text !pos (i - !pos) in
            pos := i + 1;
            Some line
        | None ->
            let line = String.sub text !pos (String.length text - !pos) in
            pos := String.length text;
            Some line
    in
    let read_exact n =
      if !pos + n > String.length text then None
      else begin
        let s = String.sub text !pos n in
        pos := !pos + n;
        Some s
      end
    in
    read ~read_line ~read_exact
end
