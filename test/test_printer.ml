let test = Util.test

let roundtrip name schema =
  let printed = Odl.Printer.schema_to_string schema in
  let reparsed = Util.parse printed in
  Alcotest.check Util.schema_testable name schema reparsed;
  (* printing is stable: printing the reparse gives the same text *)
  Alcotest.(check string)
    (name ^ " stable") printed
    (Odl.Printer.schema_to_string reparsed)

let examples () =
  roundtrip "university" (Util.university ());
  roundtrip "lumber" (Util.lumber ());
  roundtrip "emsl" (Util.emsl ());
  roundtrip "acedb" (Schemas.Genome.acedb_v ());
  roundtrip "aatdb" (Schemas.Genome.aatdb_v ());
  roundtrip "sacchdb" (Schemas.Genome.sacchdb_v ())

let synthetic () =
  List.iter
    (fun n ->
      roundtrip
        (Printf.sprintf "synth%d" n)
        (Schemas.Synth.generate (Schemas.Synth.default_params ~n_types:n)))
    [ 1; 5; 20; 60 ]

let sized_attribute () =
  let s = Util.parse "interface A { attribute string<17> x; };" in
  Alcotest.(check bool) "prints size" true
    (Str_contains.contains (Odl.Printer.schema_to_string s) "string<17> x")

let key_forms () =
  let s =
    Util.parse
      "interface A { key x; key (y, z); attribute int x; attribute int y; \
       attribute int z; };"
  in
  let printed = Odl.Printer.schema_to_string s in
  Alcotest.(check bool) "single" true (Str_contains.contains printed "key x;");
  Alcotest.(check bool) "composite" true (Str_contains.contains printed "key (y, z);")

let part_of_keyword () =
  let src =
    "interface W { part_of relationship set<P> parts inverse P::whole; };\n\
     interface P { part_of relationship W whole inverse W::parts; };"
  in
  let printed = Odl.Printer.schema_to_string (Util.parse src) in
  Alcotest.(check bool) "keyword kept" true
    (Str_contains.contains printed "part_of relationship set<P> parts")

let order_by_printed () =
  let src =
    "interface A { attribute int x; relationship set<A> r inverse A::r_inv \
     order_by (x); relationship A r_inv inverse A::r; };"
  in
  let printed = Odl.Printer.schema_to_string (Util.parse src) in
  Alcotest.(check bool) "order_by" true
    (Str_contains.contains printed "order_by (x)")

let operation_raises_printed () =
  let src = "interface A { int f(string s) raises (Bad); };" in
  let printed = Odl.Printer.schema_to_string (Util.parse src) in
  Alcotest.(check bool) "raises" true
    (Str_contains.contains printed "raises (Bad)")

(* The schema text is the concatenation of per-interface chunks: the
   chunked printer gives the oracle's bytes, and splitting the text gives
   the chunks back. *)
let chunks_concatenate name schema =
  let chunks =
    List.map
      (fun (i : Odl.Types.interface) -> (i.i_name, Odl.Printer.interface_chunk i))
      schema.Odl.Types.s_interfaces
  in
  let text = Odl.Printer.schema_to_string schema in
  Alcotest.(check string) (name ^ ": schema_to_string = oracle")
    (Format_printer.schema_to_string schema) text;
  Alcotest.(check string) (name ^ ": schema_of_chunks = schema_to_string") text
    (Odl.Printer.schema_of_chunks schema.s_name (List.map snd chunks));
  Alcotest.(check (option (pair string (list (pair string string)))))
    (name ^ ": split gives the chunks back")
    (Some (schema.Odl.Types.s_name, chunks))
    (Odl.Printer.split_chunks text)

let chunked_examples () =
  chunks_concatenate "university" (Util.university ());
  chunks_concatenate "emsl" (Util.emsl ());
  chunks_concatenate "acedb" (Schemas.Genome.acedb_v ());
  chunks_concatenate "empty" { Odl.Types.s_name = "e"; s_interfaces = [] };
  List.iter
    (fun n ->
      chunks_concatenate (Printf.sprintf "synth%d" n)
        (Schemas.Synth.generate (Schemas.Synth.default_params ~n_types:n)))
    [ 1; 60; 400 ]

let chunked_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"chunked printing = pp_schema, split inverts it"
       ~count:200 ~long_factor:10 Gen.any_synth_schema (fun s ->
         let text = Odl.Printer.schema_to_string s in
         text = Fmt.str "%a" Odl.Printer.pp_schema s
         && Odl.Printer.split_chunks text
            = Some
             (s.s_name,
              List.map
                (fun (i : Odl.Types.interface) ->
                  (i.i_name, Odl.Printer.interface_chunk i))
                s.s_interfaces)))

(* The buffer printer against the Format printer it replaced
   (format_printer.ml), byte for byte: every interface as a chunk and
   unindented, and the whole schema.  The schemas carry names the printer
   must quote (named domains) and names it prints as they are (keywords,
   spaces, newlines in member names): one layout either way. *)
let same_as_oracle (s : Odl.Types.schema) =
  Odl.Printer.schema_to_string s = Format_printer.schema_to_string s
  && Fmt.str "%a" Odl.Printer.pp_schema s = Format_printer.schema_to_string s
  && List.for_all
       (fun i ->
         Odl.Printer.interface_chunk i = Format_printer.interface_chunk i
         && Odl.Printer.interface_to_string i = Format_printer.interface_to_string i
         && Fmt.str "%a" Odl.Printer.pp_interface i
            = Fmt.str "%a" Format_printer.pp_interface i)
       s.s_interfaces

let with_odd_names =
  let open QCheck2.Gen in
  let open Odl.Types in
  let* s = Gen.any_synth_schema in
  let* odd = list_size (int_range 1 6) (oneof [ Gen.pathological_name; oneofl Odl.Names.odl_keywords ]) in
  let* size = opt (int_range 1 200) in
  let pick k = List.nth odd (k mod List.length odd) in
  let dress k i =
    if k mod 3 <> 0 then i
    else
      let n = pick k and m = pick (k + 1) in
      {
        i with
        i_keys = i.i_keys @ [ [ n ]; [ n; m ] ];
        i_attrs =
          i.i_attrs
          @ [
              { attr_name = n; attr_type = D_named m; attr_size = size };
              { attr_name = m; attr_type = D_collection (Set, D_collection (List, D_named n)); attr_size = None };
            ];
        i_ops =
          i.i_ops
          @ [
              {
                op_name = n;
                op_return = D_named n;
                op_args = [ { arg_name = m; arg_type = D_named m }; { arg_name = "x"; arg_type = D_void } ];
                op_raises = [ m; n ];
              };
            ];
      }
  in
  return { s with s_interfaces = List.mapi dress s.s_interfaces }

let oracle_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"buffer printer = Format printer, odd names included"
       ~count:200 ~long_factor:10 with_odd_names same_as_oracle)

let oracle_seeds () =
  List.iter
    (fun (name, s) -> Alcotest.(check bool) name true (same_as_oracle s))
    [
      ("university", Util.university ());
      ("lumber", Util.lumber ());
      ("emsl", Util.emsl ());
      ("empty", { Odl.Types.s_name = "e"; s_interfaces = [] });
      ("synth400", Schemas.Synth.generate (Schemas.Synth.default_params ~n_types:400));
    ]

let split_rejects_foreign_text () =
  List.iter
    (fun text ->
      Alcotest.(check bool) (Printf.sprintf "%S" text) true
        (Odl.Printer.split_chunks text = None))
    [ ""; "schema s {"; "interface A { };\n"; "schema s { interface A { }; };\n";
      "schema s {\ninterface A {\n};\n" ]

let tests =
  [
    test "example schemas round trip" examples;
    test "synthetic schemas round trip" synthetic;
    test "sized attribute" sized_attribute;
    test "key forms" key_forms;
    test "part-of keyword" part_of_keyword;
    test "order_by" order_by_printed;
    test "operation raises" operation_raises_printed;
    test "chunked printing of the example schemas" chunked_examples;
    chunked_property;
    oracle_property;
    test "buffer printer = Format printer on the seeds" oracle_seeds;
    test "split refuses text the printer did not lay out" split_rejects_foreign_text;
  ]
