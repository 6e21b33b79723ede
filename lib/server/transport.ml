(** Socket plumbing shared by {!Server}, {!Router}, and the clients: the
    one listener (bind, accept loop, a thread per connection, the
    greeting and request loop, stop), connect over both transports
    ({!Protocol.address}), partial-write loops, a buffered line reader,
    and the blocking protocol client.

    This lives below [server.ml] (the library interface module) so that
    {!Router} and {!Supervisor} can use the same plumbing without a
    dependency cycle through [Server]. *)

module Io = Repository.Io

exception Bind_error of string

(* A client hanging up mid-response must surface as EPIPE on the write,
   never as a process-killing SIGPIPE.  Process-wide, idempotent; called
   by [serve] so embedded servers (tests, benches) are covered too, not
   only [swsd serve] which installs full signal handlers
   ({!on_stop_signals}). *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let on_stop_signals stop =
  let handle _ = stop () in
  List.iter
    (fun signum ->
      try Sys.set_signal signum (Sys.Signal_handle handle)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigterm; Sys.sigint ];
  ignore_sigpipe ()

let sockaddr_of = function
  | Protocol.Unix_path p -> Unix.ADDR_UNIX p
  | Protocol.Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
          | _ -> raise (Bind_error (host ^ ": cannot resolve host")))
      in
      Unix.ADDR_INET (ip, port)

let domain_of = function
  | Protocol.Unix_path _ -> Unix.PF_UNIX
  | Protocol.Tcp _ -> Unix.PF_INET

(* --- binding --------------------------------------------------------------- *)

(* Probe a Unix socket path before binding.  A path can hold:
   - a live listener (connect succeeds)      -> refuse to steal it;
   - a dead socket from a kill -9'd server   -> unlink and take over;
   - a non-socket file                       -> refuse to clobber it. *)
let prepare_unix_path path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Result.Ok ()
  | exception Unix.Unix_error (e, _, _) ->
      Result.Error (path ^ ": " ^ Unix.error_message e)
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let probe =
        match Io.retry_eintr (fun () -> Unix.connect fd (Unix.ADDR_UNIX path)) with
        | () -> `Live
        | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> `Dead
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> `Gone
        | exception Unix.Unix_error (e, _, _) -> `Err (Unix.error_message e)
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      match probe with
      | `Live -> Result.Error (path ^ ": a server is already listening here")
      | `Err m -> Result.Error (path ^ ": " ^ m)
      | `Gone -> Result.Ok ()
      | `Dead -> (
          (* stale socket left by a crashed server: safe to reclaim *)
          match Unix.unlink path with
          | () | (exception Unix.Unix_error (Unix.ENOENT, _, _)) -> Result.Ok ()
          | exception Unix.Unix_error (e, _, _) ->
              Result.Error (path ^ ": " ^ Unix.error_message e)))
  | _ -> Result.Error (path ^ ": exists and is not a socket; refusing to replace it")

(* Bind and listen on [address].  For Unix sockets, a stale socket file
   from a crashed server is detected (probe-connect) and unlinked; a path
   with a live listener — or holding a non-socket file — is an error.  For
   TCP, [SO_REUSEADDR] is set; port 0 picks a free port (recovered by
   [bound_address]). *)
let bind address =
  let prepared =
    match address with
    | Protocol.Unix_path p -> prepare_unix_path p
    | Protocol.Tcp _ -> Result.Ok ()
  in
  match prepared with
  | Result.Error _ as e -> e
  | Result.Ok () -> (
      match
        let fd = Unix.socket (domain_of address) Unix.SOCK_STREAM 0 in
        (match address with
        | Protocol.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
        | Protocol.Unix_path _ -> ());
        (try Unix.bind fd (sockaddr_of address)
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        Unix.listen fd 64;
        fd
      with
      | fd -> Result.Ok fd
      | exception Unix.Unix_error (e, _, _) ->
          Result.Error
            (Protocol.address_to_string address ^ ": " ^ Unix.error_message e)
      | exception Bind_error m -> Result.Error m)

(* The address a listener actually bound: TCP port 0 resolved to the
   kernel-assigned port. *)
let bound_address fd address =
  match address with
  | Protocol.Unix_path _ -> address
  | Protocol.Tcp (host, _) -> (
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> Protocol.Tcp (host, port)
      | _ | (exception Unix.Unix_error _) -> address)

(* --- connecting ------------------------------------------------------------ *)

(* The startup race: a client racing a server that is still binding sees
   ECONNREFUSED (socket exists, nobody listening) or ENOENT (file not
   created yet).  Both are transient; [Retry] only retries [Sys_error],
   so wrap them and let everything else escape untouched. *)
let transient_connect_errors =
  [ Unix.ECONNREFUSED; Unix.ENOENT; Unix.ECONNRESET; Unix.EAGAIN ]

let connect_once address =
  let fd = Unix.socket (domain_of address) Unix.SOCK_STREAM 0 in
  match Io.retry_eintr (fun () -> Unix.connect fd (sockaddr_of address)) with
  | () -> fd
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

(** Connect to [address].  [retry_for] (seconds, default [0.] = a single
    attempt) bounds a {!Retry} full-jitter backoff loop over the transient
    startup failures (ECONNREFUSED / ENOENT / ECONNRESET) so callers can
    ride out a server that is still binding — and so N followers
    reconnecting after a leader failure spread their storm instead of
    synchronizing on a fixed sleep.  [policy]/[rand]/[sleep]/[on_retry]
    are injection points for the backoff (tests pin the jitter stream and
    record delays without sleeping); the default policy retries until the
    deadline with delays capped at 250 ms, self-seeded per call. *)
let connect ?(retry_for = 0.) ?policy ?rand ?sleep ?on_retry address =
  let attempt () =
    try connect_once address
    with Unix.Unix_error (e, _, _) when List.mem e transient_connect_errors ->
      raise (Sys_error (Unix.error_message e))
  in
  let outcome =
    if retry_for <= 0. then (
      match attempt () with v -> Result.Ok v | exception e -> Result.Error e)
    else
      let policy =
        match policy with
        | Some p -> p
        | None ->
            { Retry.default with Retry.max_attempts = max_int; max_delay = 0.25 }
      in
      Retry.with_retries ?rand ?sleep ?on_retry
        ~deadline:(Obs.Clock.now () +. retry_for) policy attempt
  in
  match outcome with
  | Result.Ok fd -> Result.Ok fd
  | Result.Error (Sys_error m) ->
      Result.Error (Protocol.address_to_string address ^ ": " ^ m)
  | Result.Error (Unix.Unix_error (e, _, _)) ->
      Result.Error
        (Protocol.address_to_string address ^ ": " ^ Unix.error_message e)
  | Result.Error e -> raise e

(* --- IO helpers ------------------------------------------------------------ *)

(** Write all of [text], looping over partial writes; EINTR is retried and
    EAGAIN waits for writability.  Raises [Unix.Unix_error] (EPIPE when
    the peer hung up) — never writes a short response silently. *)
let write_all fd text =
  let b = Bytes.of_string text in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      match Io.retry_eintr (fun () -> Unix.write fd b off (len - off)) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (match Unix.select [] [ fd ] [] 1.0 with
          | _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          go off
  in
  go 0

type reader = { fd : Unix.file_descr; mutable buf : string }

let reader fd = { fd; buf = "" }

(** One newline-terminated line (newline stripped); [None] at EOF. *)
let read_line r =
  let rec go () =
    match String.index_opt r.buf '\n' with
    | Some i ->
        let line = String.sub r.buf 0 i in
        r.buf <- String.sub r.buf (i + 1) (String.length r.buf - i - 1);
        Some line
    | None -> (
        let chunk = Bytes.create 4096 in
        match Io.retry_eintr (fun () -> Unix.read r.fd chunk 0 4096) with
        | 0 -> if r.buf = "" then None else (
            let line = r.buf in
            r.buf <- "";
            Some line)
        | n ->
            r.buf <- r.buf ^ Bytes.sub_string chunk 0 n;
            go ())
  in
  go ()

(** Exactly [n] bytes (consuming the line buffer first); [None] when the
    stream ends short.  Replication frames interleave header lines with
    length-prefixed binary payloads on one connection, so this shares the
    buffer with {!read_line}. *)
let read_exact r n =
  let rec go () =
    let have = String.length r.buf in
    if have >= n then begin
      let s = String.sub r.buf 0 n in
      r.buf <- String.sub r.buf n (have - n);
      Some s
    end
    else
      let chunk = Bytes.create 4096 in
      match Io.retry_eintr (fun () -> Unix.read r.fd chunk 0 4096) with
      | 0 -> None
      | m ->
          r.buf <- r.buf ^ Bytes.sub_string chunk 0 m;
          go ()
  in
  if n = 0 then Some "" else go ()

(* --- the listener ------------------------------------------------------------ *)

type session = { reply : string -> string option; finish : unit -> unit }

type listener = {
  sock : Unix.file_descr;
  address : Protocol.address;
  stopping : bool Atomic.t;
  mu : Mutex.t;
  conns : (int, Unix.file_descr) Hashtbl.t;  (** open connections, by id *)
  mutable next_id : int;  (** under [mu] *)
}

let listen address =
  match bind address with
  | Result.Error _ as e -> e
  | Result.Ok fd ->
      Result.Ok
        {
          sock = fd;
          address = bound_address fd address;
          stopping = Atomic.make false;
          mu = Mutex.create ();
          conns = Hashtbl.create 16;
          next_id = 0;
        }

let listen_address l = l.address
let stopping l = Atomic.get l.stopping

(* Signal-safe: no lock is taken.  Closing the listener makes the next
   [select] in [serve] fail, which ends the accept loop. *)
let stop l =
  if not (Atomic.exchange l.stopping true) then
    try Unix.close l.sock with Unix.Unix_error _ -> ()

let with_conns l f =
  Mutex.lock l.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock l.mu) (fun () -> f l.conns)

let connections l = with_conns l Hashtbl.length

let greeting = Protocol.to_string (Protocol.ok [ "swsd design service" ])

(* One connection, on its own thread.  A peer hanging up mid-reply
   surfaces as EPIPE on the write (SIGPIPE is ignored): that, a read
   error, or a crashed repository IO ends this connection only.  Only
   this thread closes [fd], and only after taking it out of the table,
   so [serve]'s shutdown pass never reaches a closed or reused
   descriptor. *)
let serve_conn l open_session id fd =
  let r = reader fd in
  let s = open_session fd r in
  (try
     write_all fd greeting;
     let rec loop () =
       match read_line r with
       | None -> ()
       | Some line -> (
           match s.reply line with
           | None -> ()
           | Some text ->
               write_all fd text;
               if String.trim line <> "@quit" then loop ())
     in
     loop ()
   with Unix.Unix_error _ | Sys_error _ | Io.Crash -> ());
  s.finish ();
  with_conns l (fun conns -> Hashtbl.remove conns id);
  try Unix.close fd with Unix.Unix_error _ -> ()

let serve l open_session ~wind_down =
  (* embedded servers (tests, benches) install no stop signals; they
     still must survive client hangups *)
  ignore_sigpipe ();
  (* A blocked [accept] is not reliably woken by a concurrent [close], so
     the loop polls readiness with a short select instead: [stop] lands
     within one timeout, and a closed listener surfaces as EBADF here. *)
  (try Unix.set_nonblock l.sock with Unix.Unix_error _ -> ());
  let rec accept_loop () =
    if not (stopping l) then
      match Unix.select [ l.sock ] [] [] 0.2 with
      | [], _, _ -> accept_loop ()
      | _ -> (
          match Unix.accept l.sock with
          | fd, _ ->
              Unix.clear_nonblock fd;
              let id =
                with_conns l (fun conns ->
                    let id = l.next_id in
                    l.next_id <- id + 1;
                    Hashtbl.replace conns id fd;
                    id)
              in
              ignore (Thread.create (serve_conn l open_session id) fd);
              accept_loop ()
          | exception
              Unix.Unix_error
                ( (Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED),
                  _,
                  _ ) ->
              accept_loop ()
          | exception Unix.Unix_error _ -> stop l)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error _ ->
          (* the listener was closed (stop/SIGTERM) or is unusable *)
          stop l
  in
  accept_loop ();
  Fun.protect wind_down ~finally:(fun () ->
      (* Shutting the read side wakes a thread blocked in [read_line] with
         EOF (a [close] would not), while a reply still being computed can
         be written; each connection then ends on its own thread. *)
      with_conns l
        (Hashtbl.iter (fun _ fd ->
             try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
             with Unix.Unix_error _ -> ()));
      match l.address with
      | Protocol.Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
      | Protocol.Tcp _ -> ())

(* --- a minimal client (CLI, tests, bench, router backends) ----------------- *)

module Client = struct
  type c = reader

  let connect_to ?retry_for address =
    Result.map reader (connect ?retry_for address)

  let connect ?retry_for path =
    match Protocol.parse_address path with
    | Result.Error _ as e -> e
    | Result.Ok a -> connect_to ?retry_for a

  let fd c = c.fd
  let read_line = read_line

  (** Read body lines up to and including the status; [None] on EOF. *)
  let read_response c =
    let rec go acc =
      match read_line c with
      | None -> None
      | Some line ->
          if Protocol.is_terminator line then Some (List.rev (line :: acc))
          else go (line :: acc)
    in
    go []

  let request c line =
    write_all c.fd (line ^ "\n");
    read_response c

  let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

  let outcome lines =
    let strip line =
      let pl = String.length Protocol.body_prefix in
      if String.starts_with ~prefix:Protocol.body_prefix line then
        String.sub line pl (String.length line - pl)
      else line
    in
    match List.rev lines with
    | status :: rev_body when String.starts_with ~prefix:"!ok" status ->
        Result.Ok (List.rev_map strip rev_body)
    | status :: rev_body -> Result.Error (List.rev_map strip rev_body @ [ status ])
    | [] -> Result.Error []

  (** One short session: connect (riding out a server still binding),
      consume the greeting, then send [lines] in order.  [Ok] carries the
      last reply's body with the body prefix stripped; the first reply
      that is not [!ok] stops the session, and its body and status line
      become the [Error] text. *)
  let call address lines =
    match connect ~retry_for:2.0 address with
    | Result.Error _ as e -> e
    | Result.Ok c ->
        Fun.protect
          ~finally:(fun () -> close c)
          (fun () ->
            let rec go body = function
              | [] -> Result.Ok body
              | line :: rest -> (
                  match request c line with
                  | None -> Result.Error (address ^ ": server hung up")
                  | Some lines -> (
                      match outcome lines with
                      | Result.Ok body -> go body rest
                      | Result.Error lines ->
                          Result.Error (String.concat "\n" lines)))
            in
            match read_response c with
            | None -> Result.Error (address ^ ": server hung up before greeting")
            | Some _greeting -> go [] lines)
end
