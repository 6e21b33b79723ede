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

module Io = Repository.Io

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
  listen : Protocol.address;
  listen_fd : Unix.file_descr;
  connect_retry : float;
  retry_after_ms : int;
  stop_requested : bool Atomic.t;
  mu : Mutex.t;
  clients : (int, Unix.file_descr) Hashtbl.t;  (** live client fds, by id *)
  next_id : int Atomic.t;
  i : instruments;
}

(* per-client-connection forwarding state *)
type conn_state = {
  reader : Transport.reader;
  fd : Unix.file_descr;
  mutable attached : (string * bool) option;  (** variant, readonly *)
  backends : (int, Transport.Client.c) Hashtbl.t;
}

let create ?(backlog = 64) ?(obs = Obs.noop) ?(connect_retry = 5.0)
    ?(retry_after_ms = 200) ~listen workers =
  match Transport.bind ~backlog listen with
  | Error m -> Error m
  | Ok fd ->
      Ok
        {
          workers;
          shards = Supervisor.shards workers;
          listen = Transport.bound_address fd listen;
          listen_fd = fd;
          connect_retry;
          retry_after_ms;
          stop_requested = Atomic.make false;
          mu = Mutex.create ();
          clients = Hashtbl.create 16;
          next_id = Atomic.make 0;
          i = make_instruments obs (Supervisor.shards workers);
        }

let listen_address t = t.listen

(* --- backend management ---------------------------------------------------- *)

let drop_backend (st : conn_state) shard =
  match Hashtbl.find_opt st.backends shard with
  | None -> ()
  | Some c ->
      Hashtbl.remove st.backends shard;
      Transport.Client.close c

let open_line v ro = "@open " ^ v ^ if ro then " readonly" else ""

let status_ok lines =
  match List.rev lines with
  | last :: _ ->
      String.length last >= 3 && String.sub last 0 3 = "!ok"
  | [] -> false

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
                | Some (v, ro)
                  when shard_of ~shards:(t.shards) v = shard
                  -> (
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
    (Protocol.busy ~retry_after_ms:t.retry_after_ms
       (Printf.sprintf "shard %d unavailable: %s" shard m))

(* Forward one request line to [shard]; returns full response lines
   (terminator included), synthesizing [!busy] when the shard is
   unreachable. *)
let forward t st shard line =
  let t0 = Unix.gettimeofday () in
  let retryable = resend_safe line in
  let rec go attempt =
    let outcome =
      match backend t st shard with
      | Result.Error e -> Result.Error e
      | Result.Ok c -> (
          match send_on c line with
          | Result.Ok _ as ok -> ok
          | Result.Error _ as e -> e)
    in
    match outcome with
    | Result.Ok lines -> lines
    | Result.Error (`Refused lines) ->
        (* the @open replay was answered with an error: surface it and
           force a fresh replay on the next request *)
        drop_backend st shard;
        lines
    | Result.Error (`Conn m) ->
        drop_backend st shard;
        if retryable && attempt = 0 then begin
          Obs.Metrics.incr t.i.c_retries;
          go 1
        end
        else unavailable t shard m
  in
  let lines = go 0 in
  Obs.Metrics.incr t.i.c_forwarded.(shard);
  Obs.Histo.observe t.i.h_forward (Unix.gettimeofday () -. t0);
  lines

(* --- per-request dispatch -------------------------------------------------- *)

let strip_body lines =
  let p = Protocol.body_prefix in
  let pl = String.length p in
  lines
  |> List.filter_map (fun l ->
         if String.length l >= pl && String.sub l 0 pl = p then
           Some (String.sub l pl (String.length l - pl))
         else None)
  |> String.concat "\n"

(* [@list]: the pool shares one repository directory, so any healthy
   shard serves the complete list; walk the shards until one answers. *)
let do_list t st line =
  let shards = t.shards in
  let rec go k last_err =
    if k >= shards then unavailable t (max 0 (shards - 1)) last_err
    else
      match backend t st k with
      | Result.Error (`Conn m) -> go (k + 1) m
      | Result.Error (`Refused lines) ->
          drop_backend st k;
          lines
      | Result.Ok c -> (
          match send_on c line with
          | Result.Ok lines ->
              Obs.Metrics.incr t.i.c_forwarded.(k);
              lines
          | Result.Error (`Conn m) ->
              drop_backend st k;
              go (k + 1) m)
  in
  go 0 "no shards"

let router_snapshot t =
  Obs.Metrics.set t.i.g_conns
    (Mutex.lock t.mu;
     let n = Hashtbl.length t.clients in
     Mutex.unlock t.mu;
     n);
  Obs.snapshot
    ~notes:
      [
        ("router.shards", string_of_int (t.shards));
        ("router.restarts", string_of_int (Supervisor.restarts t.workers));
        ("router.listen", Protocol.address_to_string t.listen);
      ]
    t.i.obs

(* [@stats [json]]: every shard's snapshot plus the router's own, merged
   into one document. *)
let do_stats t st fmt line =
  if not (Obs.enabled t.i.obs) then
    Protocol.to_lines
      (Protocol.err "observability is disabled (server started with --no-obs)")
  else begin
    let shards = t.shards in
    let rec collect k acc =
      if k >= shards then Result.Ok (List.rev acc)
      else
        let label = Printf.sprintf "shard-%d" k in
        match backend t st k with
        | Result.Error (`Conn m) -> Result.Error (`Down (k, m))
        | Result.Error (`Refused lines) ->
            drop_backend st k;
            Result.Error (`Lines lines)
        | Result.Ok c -> (
            match send_on c line with
            | Result.Error (`Conn m) ->
                drop_backend st k;
                Result.Error (`Down (k, m))
            | Result.Ok lines when not (status_ok lines) ->
                (* e.g. a worker running --no-obs: propagate its refusal *)
                Result.Error (`Lines lines)
            | Result.Ok lines ->
                Obs.Metrics.incr t.i.c_forwarded.(k);
                collect (k + 1) ((label, strip_body lines) :: acc))
    in
    match collect 0 [] with
    | Result.Error (`Down (k, m)) -> unavailable t k m
    | Result.Error (`Lines lines) -> lines
    | Result.Ok parts ->
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
  end

(* [@query all ...]: every shard answers only for the variants it owns
   (workers filter by [shard_span], the same rendezvous hash {!shard_of}
   steers by), so the per-variant blocks are disjoint; the merge is
   concatenation re-sorted by the [= variant] header.  Body lines are
   always indented two spaces, so a header line is unambiguous — and the
   single-process answer already emits blocks in sorted-variant order, so
   the merged bytes are identical to what one unsharded server says. *)
let do_query_all t st line =
  let shards = t.shards in
  let rec collect k acc =
    if k >= shards then Result.Ok (List.rev acc)
    else
      match backend t st k with
      | Result.Error (`Conn m) -> Result.Error (`Down (k, m))
      | Result.Error (`Refused lines) ->
          drop_backend st k;
          Result.Error (`Lines lines)
      | Result.Ok c -> (
          match send_on c line with
          | Result.Error (`Conn m) ->
              drop_backend st k;
              Result.Error (`Down (k, m))
          | Result.Ok lines when not (status_ok lines) ->
              Result.Error (`Lines lines)
          | Result.Ok lines ->
              Obs.Metrics.incr t.i.c_forwarded.(k);
              collect (k + 1) (strip_body lines :: acc))
  in
  match collect 0 [] with
  | Result.Error (`Down (k, m)) -> unavailable t k m
  | Result.Error (`Lines lines) -> lines
  | Result.Ok parts ->
      let lines =
        List.concat_map
          (fun s -> if s = "" then [] else String.split_on_char '\n' s)
          parts
      in
      let blocks =
        List.fold_left
          (fun acc l ->
            if String.length l >= 2 && String.sub l 0 2 = "= " then [ l ] :: acc
            else
              match acc with
              | b :: rest -> (l :: b) :: rest
              | [] -> [ [ l ] ] (* headerless stray: keep, never drop data *))
          [] lines
        |> List.rev_map List.rev |> List.sort compare
      in
      Protocol.to_lines (Protocol.ok (List.concat blocks))

let handle_request t st line =
  Obs.Metrics.incr t.i.c_requests;
  let shards = t.shards in
  match Protocol.parse_request line with
  | Result.Error m -> Protocol.to_lines (Protocol.err m)
  | Result.Ok Protocol.Ping -> Protocol.to_lines (Protocol.ok [ "pong" ])
  | Result.Ok Protocol.List -> do_list t st line
  | Result.Ok (Protocol.Stats fmt) -> do_stats t st fmt line
  | Result.Ok (Protocol.Open { variant; readonly }) -> (
      match st.attached with
      | Some (v, _) when v <> variant ->
          (* same refusal the single-process service gives; forwarding
             would attach a second variant on another shard *)
          Protocol.to_lines
            (Protocol.err ("already attached to " ^ v ^ "; @close first"))
      | _ ->
          let lines = forward t st (shard_of ~shards variant) line in
          if status_ok lines then st.attached <- Some (variant, readonly);
          lines)
  | Result.Ok (Protocol.New variant) -> (
      match st.attached with
      | Some (v, _) when v <> variant ->
          Protocol.to_lines
            (Protocol.err ("already attached to " ^ v ^ "; @close first"))
      | _ ->
          let lines = forward t st (shard_of ~shards variant) line in
          if status_ok lines then st.attached <- Some (variant, false);
          lines)
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

(* --- connection loop ------------------------------------------------------- *)

let handle_conn t fd =
  let id = Atomic.fetch_and_add t.next_id 1 in
  Mutex.lock t.mu;
  Hashtbl.replace t.clients id fd;
  Mutex.unlock t.mu;
  let st =
    { reader = Transport.reader fd; fd; attached = None; backends = Hashtbl.create 4 }
  in
  let finish () =
    Hashtbl.iter (fun _ c -> Transport.Client.close c) st.backends;
    Hashtbl.reset st.backends;
    Mutex.lock t.mu;
    Hashtbl.remove t.clients id;
    Mutex.unlock t.mu;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  (try
     Transport.write_all fd
       (Protocol.to_string (Protocol.ok [ "swsd design service" ]));
     let rec loop () =
       if not (Atomic.get t.stop_requested) then
         match Transport.read_line st.reader with
         | None -> ()
         | Some line ->
             let stop_after = String.trim line = "@quit" in
             let lines = handle_request t st line in
             Transport.write_all st.fd (String.concat "\n" lines ^ "\n");
             if not stop_after then loop ()
     in
     loop ()
   with
  | Unix.Unix_error _ | Sys_error _ -> ()
  | Io.Crash -> ());
  finish ()

(** Ask the accept loop to wind down; safe from a signal handler.  Live
    client connections are closed so their threads exit promptly. *)
let stop t =
  if not (Atomic.exchange t.stop_requested true) then begin
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Mutex.lock t.mu;
    let fds = Hashtbl.fold (fun _ fd acc -> fd :: acc) t.clients [] in
    Mutex.unlock t.mu;
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds
  end

(** Accept and route until {!stop}.  Blocks the calling thread; spawns
    one thread per client connection.  Does not manage the workers:
    callers start/stop the {!Supervisor} around this. *)
let run t =
  Transport.ignore_sigpipe ();
  (try Unix.set_nonblock t.listen_fd with Unix.Unix_error _ -> ());
  let rec accept_loop () =
    if not (Atomic.get t.stop_requested) then begin
      match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> accept_loop ()
      | _ -> (
          match Unix.accept t.listen_fd with
          | client_fd, _ ->
              Unix.clear_nonblock client_fd;
              ignore (Thread.create (fun () -> handle_conn t client_fd) ());
              accept_loop ()
          | exception
              Unix.Unix_error
                ( (Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED),
                  _,
                  _ ) ->
              accept_loop ()
          | exception Unix.Unix_error _ -> Atomic.set t.stop_requested true)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error _ -> Atomic.set t.stop_requested true
    end
  in
  accept_loop ();
  match t.listen with
  | Protocol.Unix_path p -> (
      try Unix.unlink p with Unix.Unix_error _ -> ())
  | Protocol.Tcp _ -> ()
