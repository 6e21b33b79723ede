(** Socket plumbing shared by {!Server}, {!Router}, and the clients: the
    one listener both front ends serve through, connect over both
    transports ({!Protocol.address}), a partial-write loop, a buffered
    line reader, and the blocking protocol client. *)

val ignore_sigpipe : unit -> unit
(** Process-wide, idempotent: a peer hanging up mid-write must surface as
    EPIPE, never kill the process.  Called by every accept loop. *)

val on_stop_signals : (unit -> unit) -> unit
(** SIGTERM and SIGINT run the callback (from a signal handler, so it
    must only request a stop); SIGPIPE is ignored ({!ignore_sigpipe}). *)

val connect :
  ?retry_for:float ->
  ?policy:Retry.policy ->
  ?rand:Random.State.t ->
  ?sleep:(float -> unit) ->
  ?on_retry:(attempt:int -> delay:float -> unit) ->
  Protocol.address ->
  (Unix.file_descr, string) result
(** [retry_for] (seconds, default 0 = single attempt) retries the
    transient startup races (ECONNREFUSED / ENOENT / ECONNRESET) with
    {!Retry} full-jitter backoff until the deadline — so clients stop
    flaking when they race a server that is still binding, and follower
    reconnect storms decorrelate instead of synchronizing.  The optional
    [policy]/[rand]/[sleep]/[on_retry] mirror {!Retry.with_retries} and
    exist so tests can pin the jitter stream and observe the delay
    sequence without real sleeps; the defaults self-seed per call. *)

val write_all : Unix.file_descr -> string -> unit
(** Write everything, looping over partial writes (EINTR retried, EAGAIN
    waits for writability).  Raises [Unix.Unix_error] — EPIPE when the
    peer hung up. *)

type reader

val reader : Unix.file_descr -> reader

val read_line : reader -> string option
(** One newline-terminated line (newline stripped); [None] at EOF. *)

val read_exact : reader -> int -> string option
(** Exactly [n] bytes (shares the buffer with {!read_line}, so header
    lines and length-prefixed binary payloads can interleave on one
    connection — the replication stream's framing); [None] when the
    stream ends short. *)

(** {1 The listener} *)

type listener

val listen : Protocol.address -> (listener, string) result
(** Bind and listen.  Unix: probes the path first — a stale socket file
    from a crashed server is unlinked and reclaimed; a live listener or a
    non-socket file is an error.  TCP: sets [SO_REUSEADDR]; port 0 lets
    the kernel pick. *)

val listen_address : listener -> Protocol.address
(** The effective address (TCP port 0 resolved to the bound port). *)

type session = {
  reply : string -> string option;
      (** The reply to one request line, wire form.  [None] ends the
          connection without a reply: the handler has taken it over (a
          replication stream) and returned when done with it. *)
  finish : unit -> unit;  (** Runs once, after the last line. *)
}
(** What a front end supplies per connection. *)

val serve :
  listener ->
  (Unix.file_descr -> reader -> session) ->
  wind_down:(unit -> 'a) ->
  'a
(** [serve l open_session ~wind_down] accepts until {!stop}, running each
    connection on its own thread: [open_session] on the socket and its
    reader, the greeting, then one {!session.reply} per request line until
    EOF, [@quit] or [None].  A peer hanging up, a read error or
    {!Repository.Io.Crash} ends that connection only.  Once the accept
    loop exits, [wind_down] runs; then every connection still open has its
    read side shut down, so an idle one reads EOF and ends while a reply
    in flight is still written, and a Unix socket path is unlinked.
    Returns [wind_down]'s result.  Only a connection's own thread closes
    its socket.  Ignores SIGPIPE process-wide. *)

val stop : listener -> unit
(** Set the stop flag and close the listening socket.  Takes no lock, so
    it is safe from a signal handler or any thread. *)

val stopping : listener -> bool

val connections : listener -> int
(** Connections accepted and not yet ended. *)

(** {1 The client} *)

(** Blocking line-protocol client used by the CLI, tests, bench, and the
    router's backend connections. *)
module Client : sig
  type c = reader

  val connect : ?retry_for:float -> string -> (c, string) result
  (** Parses the argument with {!Protocol.parse_address}: a socket path
      or [host:port]. *)

  val connect_to : ?retry_for:float -> Protocol.address -> (c, string) result
  val fd : c -> Unix.file_descr
  val read_line : c -> string option

  val request : c -> string -> string list option
  (** Send one request line; returns the response lines (body then
      status, terminator included), or [None] if the server hung up. *)

  val read_response : c -> string list option
  (** Read one response without sending (e.g. the greeting). *)

  val close : c -> unit

  val outcome : string list -> (string list, string list) result
  (** A response's status and body: [Ok body] when the status is [!ok],
      [Error lines] otherwise.  Either way the lines before the status
      come with the body prefix stripped; [Error] keeps the status as its
      last line. *)

  val call : string -> string list -> (string list, string) result
  (** [call address lines]: connect to a socket path or [host:port]
      (riding out a server still binding for up to 2 s), consume
      the greeting, and send [lines] in order.  [Ok] is the last reply's
      body, body prefix stripped; the first reply that is not [!ok] ends
      the call with its body and status line, newline-joined, as the
      [Error].  The CLI's one-shot commands are built on this. *)
end
