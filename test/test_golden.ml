(* Diagnostics pinned to a committed file.  The naive checker and the
   index are one functor, [Odl.Validate.Checks], so the differential tests
   compare it with itself: a change inside a check moves both sides alike.
   This suite holds the checker's output for every built-in schema and a
   fixed-seed set of broken synthetic schemas to the bytes in
   [golden/diagnostics.txt], so an edit to the checks must leave every
   message, subject and order as it was.

   On a mismatch the output is written to [diagnostics.actual] in the
   test's working directory; after a deliberate change to the checks,
   review its diff and copy it over the golden file. *)

open Odl.Types

let builtin =
  [
    ("university", Schemas.University.v ());
    ("emsl", Schemas.Emsl.v ());
    ("lumber", Schemas.Lumber.v ());
    ("commerce", Schemas.Commerce.v ());
    ("vlsi", Schemas.Vlsi.v ());
    ("acedb", Schemas.Genome.acedb_v ());
    ("aatdb", Schemas.Genome.aatdb_v ());
    ("sacchdb", Schemas.Genome.sacchdb_v ());
  ]
  @ List.map
      (fun n ->
        ( Printf.sprintf "synth%d" n,
          Schemas.Synth.generate (Schemas.Synth.default_params ~n_types:n) ))
      [ 1; 20; 100 ]

(* --- fixed-seed breakage ------------------------------------------------- *)

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

let on rng s f =
  let victim = (pick rng s.s_interfaces).i_name in
  {
    s with
    s_interfaces =
      List.map (fun i -> if i.i_name = victim then f i else i) s.s_interfaces;
  }

let attr attr_name attr_type = { attr_name; attr_type; attr_size = None }

let rel ?(kind = Association) ?card ?(order_by = []) name target inverse =
  {
    rel_kind = kind;
    rel_name = name;
    rel_target = target;
    rel_inverse = inverse;
    rel_card = card;
    rel_order_by = order_by;
  }

let op ?(args = []) op_name op_return =
  { op_name; op_return; op_args = args; op_raises = [] }

(* One breakage of each kind the checks know, by number. *)
let break rng s k =
  let name () = (pick rng s.s_interfaces).i_name in
  match k with
  | 0 ->
      (* dropped interface: every reference to it dangles *)
      let victim = name () in
      { s with s_interfaces = List.filter (fun i -> i.i_name <> victim) s.s_interfaces }
  | 1 ->
      (* duplicated attributes *)
      on rng s (fun i -> { i with i_attrs = i.i_attrs @ i.i_attrs })
  | 2 ->
      (* a keyword and an invalid identifier as names *)
      on rng s (fun i ->
          {
            i with
            i_attrs = i.i_attrs @ [ attr "set" D_int; attr "1x" D_string ];
            i_ops = i.i_ops @ [ op "interface" D_void ];
          })
  | 3 ->
      (* an ISA cycle through two interfaces *)
      let a = name () and b = name () in
      {
        s with
        s_interfaces =
          List.map
            (fun i ->
              if i.i_name = a then { i with i_supertypes = i.i_supertypes @ [ b ] }
              else if i.i_name = b then { i with i_supertypes = i.i_supertypes @ [ a ] }
              else i)
            s.s_interfaces;
      }
  | 4 ->
      (* unknown target, missing inverse, a one-sided part-of *)
      let target = name () in
      on rng s (fun i ->
          {
            i with
            i_rels =
              i.i_rels
              @ [
                  rel "to_ghost" "Ghost" "back";
                  rel "no_inverse" target "undeclared";
                  rel ~kind:Part_of ~card:Set "parts_x" target "whole_x";
                ];
          })
  | 5 ->
      (* keys and order_by naming attributes nobody declares *)
      let target = name () in
      on rng s (fun i ->
          {
            i with
            i_keys = i.i_keys @ [ [ "nokey" ]; [ "k1"; "k2" ] ];
            i_rels = i.i_rels @ [ rel ~card:List ~order_by:[ "zz" ] "ordered" target "inv" ];
          })
  | 6 ->
      (* an override and a shadow with other signatures, on a subtype *)
      let sup = pick rng s.s_interfaces in
      let sub_name = "Sub_" ^ sup.i_name in
      let shadow =
        List.map (fun a -> { a with attr_type = D_collection (Bag, a.attr_type) }) sup.i_attrs
      in
      let override =
        List.map (fun o -> { o with op_return = D_named sup.i_name }) sup.i_ops
      in
      {
        s with
        s_interfaces =
          s.s_interfaces
          @ [
              {
                (empty_interface sub_name) with
                i_supertypes = [ sup.i_name ];
                i_attrs = shadow;
                i_ops = override;
              };
            ];
      }
  | 7 ->
      (* a duplicated interface and a duplicated extent *)
      let i = pick rng s.s_interfaces in
      let with_extent =
        List.map
          (fun j -> if j.i_name = i.i_name then { j with i_extent = Some "shared" } else j)
          s.s_interfaces
      in
      { s with s_interfaces = with_extent @ [ { i with i_extent = Some "shared" } ] }
  | 8 ->
      (* unknown domains and an unknown supertype *)
      on rng s (fun i ->
          {
            i with
            i_supertypes = i.i_supertypes @ [ "Nowhere" ];
            i_attrs = i.i_attrs @ [ attr "lost" (D_named "Missing") ];
            i_ops =
              i.i_ops
              @ [
                  op "f" (D_collection (Set, D_named "Gone"))
                    ~args:[ { arg_name = "x"; arg_type = D_named "Absent" } ];
                ];
          })
  | 9 ->
      (* one end of existing relationships turned: another kind, another
         inverse name, a collection at both ends, a target elsewhere *)
      let other = name () in
      on rng s (fun i ->
          {
            i with
            i_rels =
              List.mapi
                (fun k r ->
                  match k mod 4 with
                  | 0 -> { r with rel_kind = (if r.rel_kind = Association then Part_of else Association) }
                  | 1 -> { r with rel_inverse = r.rel_inverse ^ "_x" }
                  | 2 -> { r with rel_card = Some Set; rel_kind = Part_of }
                  | _ -> { r with rel_target = other })
                i.i_rels;
          })
  | _ ->
      (* an instance-of hierarchy branching at one generic, and a second
         root in a generalization hierarchy *)
      let g = name () in
      let inst k =
        {
          (empty_interface (Printf.sprintf "Inst%d_%s" k g)) with
          i_rels = [ rel ~kind:Instance_of "generic" g (Printf.sprintf "insts%d" k) ];
        }
      in
      let root = { (empty_interface ("Root2_" ^ g)) with i_attrs = [ attr "r" D_int ] } in
      {
        s with
        s_interfaces =
          List.map
            (fun i ->
              if i.i_name = g then
                {
                  i with
                  i_supertypes = i.i_supertypes @ [ root.i_name ];
                  i_rels =
                    i.i_rels
                    @ [
                        rel ~kind:Instance_of ~card:Set "insts1" (inst 1).i_name "generic";
                        rel ~kind:Instance_of ~card:Set "insts2" (inst 2).i_name "generic";
                      ];
                }
              else i)
            s.s_interfaces
          @ [ inst 1; inst 2; root ];
      }

let broken =
  List.init 40 (fun k ->
      let rng = Random.State.make [| 20261019; k |] in
      let params =
        {
          (Schemas.Synth.default_params ~n_types:(4 + Random.State.int rng 36)) with
          Schemas.Synth.isa_fraction = Random.State.float rng 0.9;
          seed = k;
        }
      in
      let s = Schemas.Synth.generate params in
      let kinds = List.init (1 + Random.State.int rng 3) (fun _ -> Random.State.int rng 11) in
      ( Printf.sprintf "broken%02d [%s]" k
          (String.concat " " (List.map string_of_int kinds)),
        List.fold_left (break rng) s kinds ))

let render diagnostics_of =
  let b = Buffer.create 65536 in
  List.iter
    (fun (name, s) ->
      Printf.bprintf b "== %s\n" name;
      List.iter
        (fun d -> Printf.bprintf b "%s\n" (Fmt.str "%a" Odl.Validate.pp_diagnostic_line d))
        (diagnostics_of s))
    (builtin @ broken);
  Buffer.contents b

let matches_golden which diagnostics_of () =
  let actual = render diagnostics_of in
  if actual <> Golden_diagnostics.text then begin
    let oc = open_out_bin "diagnostics.actual" in
    output_string oc actual;
    close_out oc;
    Alcotest.failf
      "%s diagnostics differ from golden/diagnostics.txt (output written to \
       diagnostics.actual)"
      which
  end

let tests =
  [
    Util.test "naive checker = golden file" (matches_golden "naive" Odl.Validate.check);
    Util.test "index = golden file"
      (matches_golden "indexed" (fun s ->
           Core.Schema_index.diagnostics (Core.Schema_index.build s)));
  ]
