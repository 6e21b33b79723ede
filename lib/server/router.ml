(** The sharding front end: accept client connections, consistent-hash
    variant names onto the shard workers of a {!Supervisor}, and forward
    the line protocol verbatim.

    {b Hashing.} {!shard_of} is rendezvous (highest-random-weight) hashing
    over FNV-1a 64-bit digests of ["<variant>#<shard>"]: deterministic (a
    pure function of the name and the shard count, so the same variant
    lands on the same shard across router restarts), total (every name
    maps to exactly one shard), and minimally disruptive (going from [n]
    to [n+1] shards only moves names onto the {e new} shard).

    {b Connection model.} One router connection holds at most one backend
    connection per shard, opened lazily.  Attachment ([@open]/[@new]) is
    mirrored locally so designer commands route to the attached variant's
    shard; when a backend connection is re-established after a worker
    crash/restart, the router replays the [@open] before forwarding — the
    client never has to know the worker moved under it.

    {b What is never retried.} A designer command that may mutate
    ([Designer.Command.mutates]) is sent at most once: if the backend
    connection dies mid-request the client gets [!busy]/[!retry-after],
    never a silent resend — a lost ack must not become a double apply.
    Control requests and read-class commands are retried once on a fresh
    backend connection.

    {b Merging.} [@stats] fans out to every shard and merges: text as
    [== shard-k ==] sections, JSON as one object keyed by shard, each
    including the router's own counters under ["router"].  [@list] is
    served by any one healthy shard — the pool shares a single repository
    directory, so each worker already sees the full variant list. *)

(* --- consistent hashing ---------------------------------------------------- *)

(* FNV-1a, 64-bit *)
let fnv1a64 s =
  let h = ref (-3750763034362895579L) (* 0xcbf29ce484222325 *) in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 1099511628211L)
    s;
  !h

let weight name k = fnv1a64 (name ^ "#" ^ string_of_int k)

let shard_of ~shards name =
  if shards <= 1 then 0
  else begin
    let best = ref 0 and best_w = ref (weight name 0) in
    for k = 1 to shards - 1 do
      let w = weight name k in
      if Int64.unsigned_compare w !best_w > 0 then begin
        best := k;
        best_w := w
      end
    done;
    !best
  end

(* --- router state ---------------------------------------------------------- *)

type instruments = {
  obs : Obs.t;
  c_requests : Obs.Metrics.counter;
  c_forwarded : Obs.Metrics.counter array;  (** per shard *)
  c_retries : Obs.Metrics.counter;
  c_replays : Obs.Metrics.counter;  (** @open replays after reconnect *)
  c_unavailable : Obs.Metrics.counter;
  g_conns : Obs.Metrics.gauge;
  h_forward : Obs.Histo.t;
}

let make_instruments obs shards =
  {
    obs;
    c_requests = Obs.counter obs "swsd.router.requests_total";
    c_forwarded =
      Array.init shards (fun k ->
          Obs.counter obs (Printf.sprintf "swsd.router.shard.%d.forwarded_total" k));
    c_retries = Obs.counter obs "swsd.router.retries_total";
    c_replays = Obs.counter obs "swsd.router.open_replays_total";
    c_unavailable = Obs.counter obs "swsd.router.unavailable_total";
    g_conns = Obs.gauge obs "swsd.router.connections";
    h_forward = Obs.histo obs "swsd.router.forward_seconds";
  }

type t = {
  workers : Supervisor.t;
  shards : int;
  listener : Transport.listener;
  connect_retry : float;
  i : instruments;
}

(* per-client-connection forwarding state *)
type conn_state = {
  mutable attached : (string * bool) option;  (** variant, readonly *)
  backends : (int, Transport.Client.c) Hashtbl.t;
}

let create ?(obs = Obs.noop) ?(connect_retry = 5.0) ~listen workers =
  Result.map
    (fun listener ->
      let shards = Supervisor.shards workers in
      {
        workers;
        shards;
        listener;
        connect_retry;
        i = make_instruments obs shards;
      })
    (Transport.listen listen)

let listen_address t = Transport.listen_address t.listener
let stop t = Transport.stop t.listener

(* --- backend management ---------------------------------------------------- *)

let drop_backend (st : conn_state) shard =
  match Hashtbl.find_opt st.backends shard with
  | None -> ()
  | Some c ->
      Hashtbl.remove st.backends shard;
      Transport.Client.close c

let open_line v ro = "@open " ^ v ^ if ro then " readonly" else ""
let status_ok lines = Result.is_ok (Transport.Client.outcome lines)

let send_on c line =
  match Transport.Client.request c line with
  | Some lines -> Result.Ok lines
  | None -> Result.Error (`Conn "connection closed by shard")
  | exception Unix.Unix_error (e, _, _) ->
      Result.Error (`Conn (Unix.error_message e))
  | exception Sys_error m -> Result.Error (`Conn m)

(* Find or lazily (re-)establish the backend connection for [shard]; on a
   fresh connection, consume the greeting and replay this connection's
   attachment if its variant lives on that shard — this is how the router
   re-routes transparently after the supervisor restarts a worker. *)
let backend t (st : conn_state) shard =
  match Hashtbl.find_opt st.backends shard with
  | Some c -> Result.Ok c
  | None -> (
      match
        Transport.Client.connect_to ~retry_for:t.connect_retry
          (Protocol.Unix_path (Supervisor.socket t.workers (Supervisor.Shard shard)))
      with
      | Result.Error m -> Result.Error (`Conn m)
      | Result.Ok c -> (
          match Transport.Client.read_response c with
          | None ->
              Transport.Client.close c;
              Result.Error (`Conn "shard closed during greeting")
          | Some _greeting -> (
              let replay =
                match st.attached with
                | Some (v, ro) when shard_of ~shards:t.shards v = shard -> (
                    Obs.Metrics.incr t.i.c_replays;
                    match send_on c (open_line v ro) with
                    | Result.Ok lines when status_ok lines -> Result.Ok ()
                    | Result.Ok lines -> Result.Error (`Refused lines)
                    | Result.Error _ as e -> e)
                | _ -> Result.Ok ()
              in
              match replay with
              | Result.Ok () ->
                  Hashtbl.replace st.backends shard c;
                  Result.Ok c
              | Result.Error e ->
                  Transport.Client.close c;
                  Result.Error e)))

(* One round trip to [shard]: its reply, [`Refused] when the [@open]
   replay on a fresh connection was answered with an error (those are
   the lines to surface), or [`Conn] when the shard cannot be reached.
   A failed connection is dropped, so the next request reconnects and
   replays the attachment. *)
let ask t st shard line =
  let outcome = Result.bind (backend t st shard) (fun c -> send_on c line) in
  (match outcome with
  | Result.Ok _ -> Obs.Metrics.incr t.i.c_forwarded.(shard)
  | Result.Error _ -> drop_backend st shard);
  outcome

(* May this request line be resent on a fresh backend connection after a
   connection failure?  Mutations may have been applied and acked by a
   worker that died before we read the ack: resending could double-apply,
   so they are answered [!busy] instead. *)
let resend_safe line =
  match Protocol.parse_request line with
  | Result.Error _ -> true  (* any worker answers this with the same !err *)
  | Result.Ok (Protocol.List | Protocol.Ping | Protocol.Stats _) -> true
  | Result.Ok (Protocol.Open _ | Protocol.Close | Protocol.Quit) -> true
  | Result.Ok (Protocol.Query _) -> true  (* pure read of published views *)
  | Result.Ok (Protocol.New _) -> false  (* creates a variant: a mutation *)
  | Result.Ok (Protocol.Branch _) -> false  (* creates the child variant *)
  | Result.Ok (Protocol.Merge { dry_run; _ }) ->
      dry_run (* a dry run only classifies; a real merge mutates [dest] *)
  | Result.Ok (Protocol.Command l) -> (
      match Designer.Command.parse l with
      | exception Designer.Command.Bad_command _ -> true
      | cmd -> not (Designer.Command.mutates cmd))

let unavailable t shard m =
  Obs.Metrics.incr t.i.c_unavailable;
  Protocol.to_lines
    (Protocol.busy ~retry_after_ms:200
       (Printf.sprintf "shard %d unavailable: %s" shard m))

(* Forward one request line to [shard]; returns full response lines
   (terminator included), synthesizing [!busy] when the shard is
   unreachable. *)
let forward t st shard line =
  let t0 = Obs.Clock.now () in
  let rec go retried =
    match ask t st shard line with
    | Result.Ok lines | Result.Error (`Refused lines) -> lines
    | Result.Error (`Conn _) when (not retried) && resend_safe line ->
        Obs.Metrics.incr t.i.c_retries;
        go true
    | Result.Error (`Conn m) -> unavailable t shard m
  in
  let lines = go false in
  Obs.Histo.observe t.i.h_forward (Obs.Clock.now () -. t0);
  lines

(* --- per-request dispatch -------------------------------------------------- *)

(* [@list]: the pool shares one repository directory, so any healthy
   shard serves the complete list; walk the shards until one answers. *)
let do_list t st line =
  let rec go k last_err =
    if k >= t.shards then unavailable t (max 0 (t.shards - 1)) last_err
    else
      match ask t st k line with
      | Result.Ok lines | Result.Error (`Refused lines) -> lines
      | Result.Error (`Conn m) -> go (k + 1) m
  in
  go 0 "no shards"

(* Every shard's body, in shard order; the first shard that cannot answer,
   or answers other than [!ok] (a worker running --no-obs refuses
   [@stats]), ends the fan-out, and its reply is the [Error]. *)
let fan_out t st line =
  let rec collect k acc =
    if k >= t.shards then Result.Ok (List.rev acc)
    else
      match ask t st k line with
      | Result.Ok lines -> (
          match Transport.Client.outcome lines with
          | Result.Ok body -> collect (k + 1) (body :: acc)
          | Result.Error _ -> Result.Error lines)
      | Result.Error (`Refused lines) -> Result.Error lines
      | Result.Error (`Conn m) -> Result.Error (unavailable t k m)
  in
  collect 0 []

let router_snapshot t =
  Obs.Metrics.set t.i.g_conns (Transport.connections t.listener);
  Obs.snapshot
    ~notes:
      [
        ("router.shards", string_of_int t.shards);
        ("router.restarts", string_of_int (Supervisor.restarts t.workers));
        ("router.listen", Protocol.address_to_string (listen_address t));
      ]
    t.i.obs

(* [@stats [json]]: every shard's snapshot plus the router's own, merged
   into one document. *)
let do_stats t st fmt line =
  if not (Obs.enabled t.i.obs) then
    Protocol.to_lines
      (Protocol.err "observability is disabled (server started with --no-obs)")
  else
    match fan_out t st line with
    | Result.Error lines -> lines
    | Result.Ok bodies ->
        let parts =
          List.mapi
            (fun k body -> (Printf.sprintf "shard-%d" k, String.concat "\n" body))
            bodies
        in
        let sn = router_snapshot t in
        let merged =
          match fmt with
          | `Text ->
              Obs.Export.merge_labeled_text
                (("router", Obs.Export.to_text sn) :: parts)
          | `Json ->
              Obs.Export.merge_labeled_json
                (("router", Obs.Export.to_json sn) :: parts)
        in
        Protocol.to_lines (Protocol.ok [ String.trim merged ])

(* [@query all ...]: every shard answers only for the variants it owns
   (workers filter by [shard_span], the same rendezvous hash {!shard_of}
   steers by), so the per-variant blocks are disjoint; the merge is
   concatenation re-sorted by the [= variant] header.  Body lines are
   always indented two spaces, so a header line is unambiguous — and the
   single-process answer already emits blocks in sorted-variant order, so
   the merged bytes are identical to what one unsharded server says. *)
let do_query_all t st line =
  match fan_out t st line with
  | Result.Error lines -> lines
  | Result.Ok bodies ->
      let blocks =
        List.fold_left
          (fun acc l ->
            if String.length l >= 2 && String.sub l 0 2 = "= " then [ l ] :: acc
            else
              match acc with
              | b :: rest -> (l :: b) :: rest
              | [] -> [ [ l ] ] (* headerless stray: keep, never drop data *))
          [] (List.concat bodies)
        |> List.rev_map List.rev |> List.sort compare
      in
      Protocol.to_lines (Protocol.ok (List.concat blocks))

(* [@open]/[@new]: one attachment per connection, mirrored here so
   designer commands route to its shard. *)
let attach t st line variant readonly =
  match st.attached with
  | Some (v, _) when v <> variant ->
      (* same refusal the single-process service gives; forwarding
         would attach a second variant on another shard *)
      Protocol.to_lines
        (Protocol.err ("already attached to " ^ v ^ "; @close first"))
  | _ ->
      let lines = forward t st (shard_of ~shards:t.shards variant) line in
      if status_ok lines then st.attached <- Some (variant, readonly);
      lines

let handle_request t st line =
  Obs.Metrics.incr t.i.c_requests;
  let shards = t.shards in
  match Protocol.parse_request line with
  | Result.Error m -> Protocol.to_lines (Protocol.err m)
  | Result.Ok Protocol.Ping -> Protocol.to_lines (Protocol.ok [ "pong" ])
  | Result.Ok Protocol.List -> do_list t st line
  | Result.Ok (Protocol.Stats fmt) -> do_stats t st fmt line
  | Result.Ok (Protocol.Open { variant; readonly }) ->
      attach t st line variant readonly
  | Result.Ok (Protocol.New variant) -> attach t st line variant false
  | Result.Ok Protocol.Close -> (
      match st.attached with
      | None -> Protocol.to_lines (Protocol.err "no open session")
      | Some (v, _) ->
          let lines = forward t st (shard_of ~shards v) line in
          if status_ok lines then st.attached <- None;
          lines)
  | Result.Ok Protocol.Quit ->
      (* let every backend detach/snapshot for this connection *)
      Hashtbl.iter
        (fun _ c -> match send_on c "@quit" with _ -> ())
        st.backends;
      st.attached <- None;
      Protocol.to_lines (Protocol.ok [ "bye" ])
  | Result.Ok (Protocol.Query q) -> (
      match Query.Parser.parse q with
      (* malformed and [explain] queries get the same answer from every
         shard: serve from any one healthy worker, like [@list] *)
      | Result.Error _ -> do_list t st line
      | Result.Ok pq when pq.Query.Ast.q_explain -> do_list t st line
      | Result.Ok { Query.Ast.q_atom = Query.Ast.Branches _; _ } ->
          (* repository-scoped: the lineage records live in the shared
             stores, so any healthy shard renders the same lines *)
          do_list t st line
      | Result.Ok pq when pq.Query.Ast.q_all -> do_query_all t st line
      | Result.Ok _ -> (
          match st.attached with
          | None ->
              Protocol.to_lines
                (Protocol.err
                   "no open session; use: @open <variant> (or: @query all ...)")
          | Some (v, _) -> forward t st (shard_of ~shards v) line))
  | Result.Ok (Protocol.Branch { child; _ }) ->
      (* the child hashes independently of its parent: the branch runs on
         the shard that will own the child (the parent is read from the
         shared store, lock-free), so later writes land where the child
         session lives *)
      forward t st (shard_of ~shards child) line
  | Result.Ok (Protocol.Merge { dest; _ }) ->
      (* route by destination: merge takes the writer lock on [dest] only
         and reads the source branch from the shared store *)
      forward t st (shard_of ~shards dest) line
  | Result.Ok (Protocol.Command _) -> (
      match st.attached with
      | None ->
          Protocol.to_lines (Protocol.err "no open session; use: @open <variant>")
      | Some (v, _) -> forward t st (shard_of ~shards v) line)

let session t _fd _reader =
  let st = { attached = None; backends = Hashtbl.create 4 } in
  {
    Transport.reply =
      (fun line -> Some (String.concat "\n" (handle_request t st line) ^ "\n"));
    finish =
      (fun () ->
        Hashtbl.iter (fun _ c -> Transport.Client.close c) st.backends;
        Hashtbl.reset st.backends);
  }

(** Accept and route until {!stop}.  Blocks the calling thread; spawns
    one thread per client connection.  Does not manage the workers:
    callers start/stop the {!Supervisor} around this. *)
let run t = Transport.serve t.listener (session t) ~wind_down:ignore
