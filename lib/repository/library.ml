(** A library of shrink wrap schemas on disk.

    The repository side of the design-by-reuse story: a directory of
    [*.odl] files, each a shrink wrap schema, browsable by structural
    descriptor and searchable by affinity to an application sketch. *)

type entry = {
  e_path : string;
  e_schema : Odl.Types.schema;
  e_descriptor : Core.Affinity.descriptor;
}

type t = { lib_dir : string; entries : entry list }

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Load every parsable [*.odl] file under [dir]; unparsable files are
    returned separately so the caller can report them. *)
let load dir =
  let files =
    if Sys.file_exists dir && Sys.is_directory dir then
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".odl")
      |> List.sort compare
    else []
  in
  let entries, failures =
    List.fold_left
      (fun (oks, bads) f ->
        let path = Filename.concat dir f in
        match Odl.Parser.parse_schema_result (read_file path) with
        | Ok schema ->
            ( {
                e_path = path;
                e_schema = schema;
                e_descriptor = Core.Affinity.descriptor schema;
              }
              :: oks,
              bads )
        | Error m -> (oks, (path, m) :: bads))
      ([], []) files
  in
  ({ lib_dir = dir; entries = List.rev entries }, List.rev failures)

(** Add a schema to the library directory (file name from the schema name). *)
let store t schema =
  let path =
    Filename.concat t.lib_dir
      (String.lowercase_ascii schema.Odl.Types.s_name ^ ".odl")
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Odl.Printer.schema_to_string schema));
  {
    t with
    entries =
      t.entries
      @ [
          {
            e_path = path;
            e_schema = schema;
            e_descriptor = Core.Affinity.descriptor schema;
          };
        ];
  }

let schemas t = List.map (fun e -> e.e_schema) t.entries

(** Rank library entries against an application sketch, best first. *)
let search t ~sketch =
  Core.Affinity.rank ~sketch (schemas t)
  |> List.map (fun (s, a) ->
         ( List.find
             (fun e -> String.equal e.e_schema.Odl.Types.s_name s.Odl.Types.s_name)
             t.entries,
           a ))

let catalog t =
  t.entries
  |> List.map (fun e -> Core.Affinity.descriptor_to_string e.e_descriptor)
  |> String.concat "\n"
