(* Benchmark harness: regenerates every table and figure of the paper from
   the implementation, then characterizes performance.

     dune exec bench/main.exe              tables and figures, then --perf
     dune exec bench/main.exe -- --tables  tables and figures only
     dune exec bench/main.exe -- --perf    performance benches only
     dune exec bench/main.exe -- --index   P8 only; writes BENCH_index.json
     dune exec bench/main.exe -- --journal P10 only; writes BENCH_journal.json
     dune exec bench/main.exe -- --server  P11 only; writes BENCH_server.json
     dune exec bench/main.exe -- --obs     P12 only; writes BENCH_obs.json
     dune exec bench/main.exe -- --reads   P13 only; writes BENCH_reads.json
     dune exec bench/main.exe -- --commits P14 only; writes BENCH_commits.json
     dune exec bench/main.exe -- --shards  P15 only; writes BENCH_shards.json
                                           (needs bin/swsd.exe built)
     dune exec bench/main.exe -- --repl    P16 only; writes BENCH_repl.json
                                           (needs bin/swsd.exe built)
     dune exec bench/main.exe -- --query   P17 only; writes BENCH_query.json
     dune exec bench/main.exe -- --merge   P18 only; writes BENCH_merge.json
     dune exec bench/main.exe -- --smoke   all of the above at their smallest
                                           sizes with 0.2 s cells; gates are
                                           non-binding and no JSON is written

   SWSD_BENCH_SECS sets the seconds per time-boxed cell (P13-P16; default
   2).  A gate that fails exits 1 once its bench's JSON is written. *)

let benches =
  [
    ("--tables", Tables.all);
    ("--perf", Perf.run_and_print);
    ("--index", Perf.run_index ~json_path:"BENCH_index.json");
    ("--journal", Perf.run_journal ~json_path:"BENCH_journal.json");
    ("--server", Server_bench.run ~json_path:"BENCH_server.json");
    ("--obs", Obs_bench.run ~json_path:"BENCH_obs.json");
    ("--reads", Reads_bench.run ~json_path:"BENCH_reads.json");
    ("--commits", Commits_bench.run ~json_path:"BENCH_commits.json");
    ("--shards", Shards_bench.run ~json_path:"BENCH_shards.json");
    ("--repl", Repl_bench.run ~json_path:"BENCH_repl.json");
    ("--query", Query_bench.run ~json_path:"BENCH_query.json");
    ("--merge", Merge_bench.run ~json_path:"BENCH_merge.json");
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  Util.smoke := List.mem "--smoke" args;
  let picked = List.filter (fun a -> a <> "--smoke") args in
  List.iter
    (fun (flag, run) ->
      let selected =
        if picked <> [] then List.mem flag picked
        else !Util.smoke || List.mem flag [ "--tables"; "--perf" ]
      in
      if selected then run ())
    benches
