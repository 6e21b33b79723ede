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
   chunked printer gives pp_schema's bytes, and splitting the text gives
   the chunks back. *)
let chunks_concatenate name schema =
  let chunks =
    List.map
      (fun (i : Odl.Types.interface) -> (i.i_name, Odl.Printer.interface_chunk i))
      schema.Odl.Types.s_interfaces
  in
  let text = Odl.Printer.schema_to_string schema in
  Alcotest.(check string) (name ^ ": chunks = pp_schema")
    (Fmt.str "%a" Odl.Printer.pp_schema schema) text;
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
    test "split refuses text the printer did not lay out" split_rejects_foreign_text;
  ]
