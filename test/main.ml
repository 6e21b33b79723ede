(* The bounded chaos soak only exists when SWSD_SOAK_SECS is set (the
   [@soak] dune alias); tier-1 runs never see the suite. *)
let soak_suites =
  if Sys.getenv_opt "SWSD_SOAK_SECS" = None then []
  else [ ("server-soak", Test_server.soak_tests) ]

let () =
  Alcotest.run "shrinkwrap"
    ([
      ("lexer", Test_lexer.tests);
      ("parser", Test_parser.tests);
      ("printer", Test_printer.tests);
      ("schema", Test_schema.tests);
      ("validate", Test_validate.tests);
      ("golden", Test_golden.tests);
      ("concept", Test_concept.tests);
      ("modop", Test_modop.tests);
      ("permission", Test_permission.tests);
      ("apply", Test_apply.tests);
      ("apply-members", Test_apply_members.tests);
      ("propagate", Test_propagate.tests);
      ("mapping", Test_mapping.tests);
      ("session", Test_session.tests);
      ("oplog", Test_oplog.tests);
      ("coverage", Test_coverage.tests);
      ("render", Test_render.tests);
      ("schemas", Test_schemas.tests);
      ("repository", Test_repository.tests);
      ("designer", Test_designer.tests);
      ("explain", Test_explain.tests);
      ("aliases", Test_aliases.tests);
      ("advisor", Test_advisor.tests);
      ("diff", Test_diff.tests);
      ("affinity", Test_affinity.tests);
      ("interop", Test_interop.tests);
      ("plan", Test_plan.tests);
      ("knowledge", Test_knowledge.tests);
      ("cli", Test_cli.tests);
      ("repo", Test_repo.tests);
      ("dot", Test_dot.tests);
      ("relational", Test_relational.tests);
      ("er", Test_er.tests);
      ("quality", Test_quality.tests);
      ("objects", Test_objects.tests);
      ("migrate", Test_migrate.tests);
      ("serial", Test_serial.tests);
      ("query", Test_query.tests);
      ("query-view", Test_query_view.tests);
      ("query-service", Test_query_service.tests);
      ("html", Test_html.tests);
      ("end-to-end", Test_endtoend.tests);
      ("api-corners", Test_api_corners.tests);
      ("fuzz", Test_fuzz.tests);
      ("properties", Test_properties.tests);
      ("index", Test_index.tests);
      ("server", Test_server.tests);
      ("replication", Test_replication.tests);
      ("router", Test_router.tests);
      ("supervisor", Test_supervisor.tests);
      ("group-commit", Test_group_commit.tests);
      ("server-restore", Test_restore.tests);
      ("obs", Test_obs.tests);
    ]
    @ soak_suites)
