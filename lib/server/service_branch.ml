(** Branch and merge: optimistic concurrent design on one shared schema.

    [@branch V W] forks variant [W] off [V] — a crash-safe copy with a
    lineage record (parent, fork stamp) in its manifest
    ({!Repository.Repo.branch_variant}).  The parent is read through the
    read-only loader, so branching never takes the parent's writer lock:
    designers keep working on [V] while [W] is cut.  Only the {e child}
    is locked, and only to publish it (so lock-free readers, followers,
    and the other shards' [@list] see the new variant immediately).

    [@merge W into V] rebases the ops [W] made since its fork onto [V]'s
    current state ({!Core.Oplog.rebase}): each branch op replays through
    the permission matrix and the incremental consistency checker against
    the moved-ahead base, classified clean / auto-merged / conflict.
    Conflicted ops are {e reported} (the impact report is the response
    body), never silently applied.  The merge runs through the generic
    single-writer pipeline ({!Service_write.execute}) on the destination
    — writer lock on [V] only, journal delta, group commit, publish,
    durable-before-ack — while the source branch is read lock-free.
    [--dry-run] classifies and reports without mutating anything. *)

open Service_types

let do_branch t ~sp ~parent ~child ~at ~line =
  if t.config.follower then
    Protocol.err "this server is a follower; branch variants on the leader"
  else
    with_writer ~sp t child (fun () ->
        (match t.config.chaos_hook with
        | Some hook -> hook ~variant:child ~line
        | None -> ());
        match Repo.branch_variant t.repo ~parent ~child ?at () with
        | Error m -> Protocol.err m
        | exception e ->
            Protocol.err ("branch failed: " ^ Printexc.to_string e)
        | Ok _ -> (
            (* publish the child like [@open] would, so readers on every
               shard (and followers) can see it without a designer
               attaching first; the load replays the fresh journal *)
            match Service_admin.load_session t child with
            | Error m ->
                (* the branch itself is complete and durable on disk *)
                Protocol.ok
                  [
                    Printf.sprintf "branched %s from %s" child parent;
                    "caution: branched but not loaded: " ^ m;
                  ]
            | Ok _ ->
                let fork =
                  match Repo.variant_lineage t.repo child with
                  | Some (_, f) -> f
                  | None -> 0
                in
                Protocol.ok
                  ~version:(Publish.seq t.pub child)
                  [ Printf.sprintf "branched %s from %s@%d" child parent fork ]))

let do_merge t ~sp (conn : conn) ~source ~dest ~dry_run ~line =
  if t.config.follower then
    Protocol.err "this server is a follower; merge variants on the leader"
  else if source = dest then
    Protocol.err "cannot merge a variant into itself"
  else
    Service_write.execute ~load_if_absent:true t ~sp conn dest
      ~mutating:(not dry_run)
      ~exec:(fun before ->
        (* the source branch is read lock-free: another shard may own it
           and even be appending — the read-only loader replays the
           longest valid (= acknowledged) journal prefix *)
        match Repo.open_variant_ro t.repo source with
        | Error e ->
            (before, [ Designer.Feedback.error (Repo.open_error_to_string e) ])
        | exception e ->
            ( before,
              [
                Designer.Feedback.error
                  ("could not read branch: " ^ Printexc.to_string e);
              ] )
        | Ok branch ->
            let base = before.Engine.session in
            let branch_ops = Core.Oplog.branch_entries ~base ~branch in
            let t0 = t.config.now () in
            let report = Core.Oplog.rebase ~base ~branch_ops in
            let rebase_seconds = t.config.now () -. t0 in
            Obs.Trace.add_phase sp "rebase" rebase_seconds;
            Obs.Metrics.add t.i.c_merge_clean report.Core.Oplog.r_clean;
            Obs.Metrics.add t.i.c_merge_auto report.Core.Oplog.r_auto;
            Obs.Metrics.add t.i.c_merge_conflict report.Core.Oplog.r_conflict;
            let label =
              Printf.sprintf "%s into %s%s" source dest
                (if dry_run then " (dry run)" else "")
            in
            let feedback =
              [ Designer.Feedback.output (Core.Oplog.render_report label report) ]
            in
            if dry_run then (before, feedback)
            else ({ before with Engine.session = report.Core.Oplog.r_session },
                  feedback))
      ~line
