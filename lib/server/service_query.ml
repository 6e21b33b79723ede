(** The query path: serve [@query] from the variant's published
    {!Query.View}, lock-free.

    The flow for a query line:

    + parse once ({!Query.Parser.parse}); a malformed query is answered
      with a structured [!err] — no session state is involved, nothing can
      hang or disconnect;
    + [explain] queries print the plan and stop — no variant needed;
    + variant-scoped queries read the published value with one atomic
      load and evaluate on its view: the session's schema index answers
      names, attributes and closures, the view's lines answer [diff].
      The publishing thread built the view with the state
      ({!Service_types.publish_state}), so a query does no view work and
      takes {e no variant writer lock}.  The evaluation is the trace's
      [eval] phase;
    + only a variant with {e nothing published at all} falls back through
      the writer path once, to load the session from disk (counted by
      [swsd.query.fallback_total]; the retry then serves lock-free);
    + [all]-scoped queries walk every variant of the repository (sorted,
      restricted to this shard's span under [--shard-total]) and emit one
      block per variant: a [= variant] header, then the answer lines
      indented two spaces.  Blocks are self-delimiting — body lines never
      start with [= ] — so the router can merge blocks from many shards
      and re-sort by header into the exact bytes one process would emit.

    The answer's [#version] is the view's stamp: on a follower that is the
    leader-issued stamp the applier pinned ({!Publish.publish} [~at]), so a
    follower's query answer never claims a version the leader has not
    acknowledged — the bounded-staleness contract queries inherit from
    the read path. *)

open Service_types

let usage =
  "usage: @query [all] [explain] \
   <name|attr|isa|partof|wheel|diff|lineage|branches> ..."

(* [branches of V]: the repository's manifest lineage records, read from
   the shared stores on disk — every shard (and a single process) renders
   the same sorted lines, like [@list]. *)
let do_branches t name =
  if not (Repo.mem_variant t.repo name) then
    Protocol.err ("no variant named " ^ name)
  else
    Repo.variant_names t.repo
    |> List.filter_map (fun v ->
           match Repo.variant_lineage t.repo v with
           | Some (p, f) when String.equal p name ->
               Some (Printf.sprintf "%s fork %d" v f)
           | Some _ | None -> None)
    |> Protocol.ok

(* Load a variant through the writer path so something is published; the
   caller retries its lock-free read afterwards.  The same load as
   [@open], but attaches no connection. *)
let ensure_loaded t ~sp variant =
  match
    try_writer ~sp t variant (fun () ->
        match find_session t variant with
        | Some _ ->
            (* a live session is published (load publishes it and
               eviction retracts it under this lock): a racing load won *)
            Ok ()
        | None -> Result.map ignore (Service_admin.load_session t variant))
  with
  | Ok r -> r
  | Error (Locks.Busy n) ->
      Error (Printf.sprintf "variant is busy (%d request(s) queued)" n)
  | Error Locks.Timed_out -> Error "variant is busy (deadline exceeded)"

(* The variant's published view; [Error] carries a user-facing reason. *)
let rec query_view ?(retried = false) t ~sp variant =
  match Publish.read t.pub variant with
  | Some ({ view; _ }, _) ->
      Obs.Metrics.incr t.i.c_query_lockfree;
      Publish.touch t.pub variant ~now:(t.config.now ());
      Ok view
  | None ->
      if retried then Error ("variant " ^ variant ^ " is unavailable")
      else if t.config.follower then
        if Repo.mem_variant t.repo variant then
          Error ("variant " ^ variant ^ " is not yet replicated; retry shortly")
        else Error ("no variant named " ^ variant)
      else if not (Repo.mem_variant t.repo variant) then
        Error ("no variant named " ^ variant)
      else begin
        Obs.Metrics.incr t.i.c_query_fallback;
        match ensure_loaded t ~sp variant with
        | Ok () -> query_view ~retried:true t ~sp variant
        | Error m -> Error m
      end

(* Evaluate on [view], timed as the request's [eval] phase (one per
   variant under [all]). *)
let eval t ~sp view atom =
  let t0 = t.config.now () in
  let r = Query.Eval.run view atom in
  Obs.Trace.add_phase sp "eval" (t.config.now () -. t0);
  r

let single t ~sp variant (q : Query.Ast.t) =
  match query_view t ~sp variant with
  | Error m -> Protocol.err m
  | Ok view -> (
      let version = Query.View.stamp view in
      match eval t ~sp view q.q_atom with
      | Ok lines -> Protocol.ok ~version lines
      | Error m -> Protocol.err ~version m)

(* Does this worker own the variant?  Outside a sharded deployment, always;
   inside one, exactly when rendezvous hashing routes it here — the same
   function the router steers by, so fan-out blocks partition cleanly. *)
let owned t variant =
  match t.config.shard_span with
  | None -> true
  | Some (shard, shards) -> Router.shard_of ~shards variant = shard

let all_scope t ~sp (q : Query.Ast.t) =
  let variants =
    Repo.variant_names t.repo |> List.filter (owned t)
    |> List.sort String.compare
  in
  let block variant =
    let lines =
      match query_view t ~sp variant with
      | Error m -> [ "# " ^ m ]
      | Ok view -> (
          match eval t ~sp view q.q_atom with
          | Ok lines -> lines
          | Error m -> [ "# " ^ m ])
    in
    ("= " ^ variant) :: List.map (fun l -> "  " ^ l) lines
  in
  Protocol.ok (List.concat_map block variants)

let do_query t ~sp (conn : conn) text =
  let i = t.i in
  Obs.Metrics.incr i.c_query;
  let t0 = t.config.now () in
  let finish response =
    Obs.Histo.observe i.h_query (t.config.now () -. t0);
    response
  in
  finish
    (match Query.Parser.parse text with
    | Error m -> Protocol.err ~body:[ usage ] m
    | Ok q when q.Query.Ast.q_explain -> Protocol.ok (Query.Eval.explain q.q_atom)
    | Ok { Query.Ast.q_atom = Query.Ast.Branches name; _ } -> do_branches t name
    | Ok q when q.q_all -> all_scope t ~sp q
    | Ok q -> (
        match conn.variant with
        | None ->
            Protocol.err
              "no open session; use: @open <variant> (or: @query all ...)"
        | Some variant -> single t ~sp variant q))
