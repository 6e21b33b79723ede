(** The read path: classify each designer command once, then serve
    read-class commands from the published snapshot with {e no variant
    lock at all}.

    The flow for a command line:

    + parse once ({!Designer.Command.parse}); a syntax error is answered
      immediately — no session state is involved;
    + commands that have no business in a server session ([source], [save],
      [quit]) are refused, as before;
    + a read-only connection ([@open v readonly]) gets [!readonly] for any
      mutating command, again without touching the writer lock;
    + [Command.access] splits the rest: [Read] commands execute against
      the variant's published snapshot (an immutable [Engine.state]) and
      the state the engine hands back is {e discarded} — by the
      classification contract it is the same value, and a defensive
      physical-equality check falls back to the writer lock if a
      misclassified command ever changes state, so the change cannot be
      lost; [Write] commands (and reads when nothing is published) take
      the {!Service_write} pipeline.

    A reader holds the variant's live-reader count for the duration of the
    engine call ({!Publish.with_snapshot}), which is what the idle reaper
    checks before freeing a session; a reader that loses that race simply
    finishes on its immutable snapshot and falls back on its next request. *)

open Service_types

let refusal (cmd : Designer.Command.t) =
  match cmd with
  | Source _ -> Some "source is not available in server sessions"
  | Save _ -> Some "save is not available in server sessions; @close snapshots"
  | Quit -> Some "quit is not available in server sessions; use @close or @quit"
  | _ -> None

(* Execute a read-class command on the published snapshot; [None] means
   "take the locked path" (nothing published, or the defensive state-change
   check tripped). *)
let try_lockfree t variant (cmd : Designer.Command.t) =
  match
    Publish.with_snapshot t.pub variant (fun ({ state = st; _ }, stamp) ->
        let after, feedback = exec_command t st cmd in
        if after != st then None  (* misclassified: must not lose the change *)
        else begin
          Publish.touch t.pub variant ~now:(t.config.now ());
          let body = feedback_body feedback in
          if List.exists Designer.Feedback.is_error feedback then
            Some (Protocol.err ~body ~version:stamp "command rejected")
          else Some (Protocol.ok ~version:stamp body)
        end)
  with
  | Some (Some response) -> Some response
  | Some None | None -> None

let do_command t ~sp (conn : conn) line =
  match conn.variant with
  | None -> Protocol.err "no open session; use: @open <variant>"
  | Some variant -> (
      match Designer.Command.parse line with
      | exception Designer.Command.Bad_command m ->
          (* same wire shape the engine used to produce, without a lock *)
          Protocol.err
            ~body:[ Designer.Feedback.(to_string (error m)) ]
            "command rejected"
      | cmd -> (
          match refusal cmd with
          | Some m -> Protocol.err m
          | None ->
              if conn.readonly && Designer.Command.mutates cmd then begin
                Obs.Metrics.incr t.i.c_readonly_rejected;
                Protocol.readonly
                  "connection attached readonly; reopen without readonly to \
                   modify"
              end
              else
                let i = t.i in
                let t0 = t.config.now () in
                let finish h response =
                  Obs.Histo.observe h (t.config.now () -. t0);
                  response
                in
                (match Designer.Command.access cmd with
                | Designer.Command.Read -> (
                    match try_lockfree t variant cmd with
                    | Some response ->
                        Obs.Metrics.incr i.c_read_lockfree;
                        Obs.Trace.add_phase sp
                          (match cmd with
                          | Designer.Command.Check -> "check"
                          | _ -> "read")
                          (t.config.now () -. t0);
                        finish i.h_read response
                    | None ->
                        Obs.Metrics.incr i.c_read_fallback;
                        finish i.h_read
                          (Service_write.do_command t ~sp conn variant cmd
                             ~line))
                | Designer.Command.Write ->
                    Obs.Metrics.incr i.c_write;
                    finish i.h_write
                      (Service_write.do_command t ~sp conn variant cmd ~line))))
