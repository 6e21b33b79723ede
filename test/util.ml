(** Shared helpers for the test suite. *)

open Odl.Types

let schema_testable =
  Alcotest.testable
    (fun ppf s -> Fmt.string ppf (Odl.Printer.schema_to_string s))
    Core.Recompose.equal_content

let interface_testable =
  Alcotest.testable
    (fun ppf i -> Fmt.string ppf (Odl.Printer.interface_to_string i))
    equal_interface

let op_testable = Alcotest.testable Core.Modop.pp Core.Modop.equal

let parse s = Odl.Parser.parse_schema s
let parse_op s = Core.Op_parser.parse s

let university () = Schemas.University.v ()
let lumber () = Schemas.Lumber.v ()
let emsl () = Schemas.Emsl.v ()

let session_of schema =
  match Core.Session.create schema with
  | Ok s -> s
  | Error ds ->
      Alcotest.failf "schema should be valid: %a"
        Fmt.(list ~sep:(any "; ") Odl.Validate.pp_diagnostic_line)
        ds

(** Apply an operation text in [kind]; fail the test on rejection. *)
let apply_ok ?(kind = Core.Concept.Wagon_wheel) session text =
  match Core.Session.apply session ~kind (parse_op text) with
  | Ok (s, events) -> (s, events)
  | Error e -> Alcotest.failf "%s should be accepted: %s" text (Core.Apply.error_to_string e)

(** Expect rejection; return the error. *)
let apply_err ?(kind = Core.Concept.Wagon_wheel) session text =
  match Core.Session.apply session ~kind (parse_op text) with
  | Ok _ -> Alcotest.failf "%s should be rejected" text
  | Error e -> e

let apply_many ?(kind = Core.Concept.Wagon_wheel) session texts =
  List.fold_left (fun s text -> fst (apply_ok ~kind s text)) session texts

let workspace = Core.Session.workspace
let iface session name = Odl.Schema.get_interface (workspace session) name

(** Direct apply (no session) on a schema acting as its own original. *)
let raw_apply ?(kind = Core.Concept.Wagon_wheel) schema text =
  Core.Apply.apply ~original:schema ~kind schema (parse_op text)

let check_valid name schema =
  match Odl.Validate.errors schema with
  | [] -> ()
  | ds ->
      Alcotest.failf "%s should have no errors: %a" name
        Fmt.(list ~sep:(any "; ") Odl.Validate.pp_diagnostic_line)
        ds

let has_error_containing schema fragment =
  List.exists
    (fun (d : Odl.Validate.diagnostic) ->
      d.severity = Odl.Validate.Error
      &&
      let text = d.subject ^ " " ^ d.message in
      let re = Str_contains.contains text fragment in
      re)
    (Odl.Validate.check schema)

let has_warning_containing schema fragment =
  List.exists
    (fun (d : Odl.Validate.diagnostic) ->
      d.severity = Odl.Validate.Warning
      && Str_contains.contains (d.subject ^ " " ^ d.message) fragment)
    (Odl.Validate.check schema)

let test name f = Alcotest.test_case name `Quick f

(** A fresh, not-yet-created path under the system temp directory. *)
let tmp_dir () =
  let f = Filename.temp_file "swsd_test" "" in
  Sys.remove f;
  f

(** Remove a file or directory tree; a missing path is not an error. *)
let rec rm_rf p =
  if (try Sys.is_directory p with Sys_error _ -> false) then begin
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Sys.rmdir p
  end
  else if Sys.file_exists p then Sys.remove p

(** [store] opened again on base [b] ([None]: bare). *)
let on_base b store =
  Repository.Store.(open_dir ~io:(io store) ~base:(fun () -> b) (dir store))

(** [Repository.Store.fsck] of the store bare and on a base built from its
    own shrink wrap (when it parses and is valid): the two reports must
    list the same lines, since a base only saves the parse.  With
    [~salvage:true] both run unsalvaged first, then the salvage runs on
    the base.  Suites that shadow [Store.fsck] with it check every fsck
    fixture they hold both ways. *)
let fsck_on_base ?(salvage = false) store =
  let module Store = Repository.Store in
  let base =
    match Store.load_shrinkwrap store with
    | schema -> Result.to_option (Core.Session.create schema) |> Option.map Store.base
    | exception _ -> None
  in
  let based = on_base base store in
  let plain = Store.fsck store and report = Store.fsck based in
  Alcotest.(check (list string))
    "fsck reports the same with the repository's base" plain.fsck_issues
    report.fsck_issues;
  if salvage then Store.fsck ~salvage based else report
