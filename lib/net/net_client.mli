(** Typed TCP client for the Pequod wire protocol: the one way out of
    this process. Both user-facing tools ([pequod_cli]) and the
    server-to-server layer ([Remote], the home-server push path) speak
    through it, so connection management, the version handshake, retry
    policy and timeouts live in exactly one place.

    A client is bound to one [host:port] and connects lazily: the first
    {!call} (or {!post}/{!pipeline}) opens the socket and performs the
    [Hello]/[Welcome] protocol handshake. A connection lost to an I/O
    error or timeout is closed and re-established on the next call, with
    bounded, backed-off reconnect attempts ([net.client.retries]); a
    protocol version mismatch is permanent and never retried.

    Not thread-safe: one client, one caller (the servers are
    single-threaded event loops, as is the CLI). *)

(** Any client-visible failure: connect/retry exhaustion, handshake
    rejection, request timeout, I/O error, or an undecodable response.
    The connection is already closed when this is raised; a later call
    reconnects. *)
exception Net_error of string

type config = {
  connect_timeout : float;  (** seconds to wait for one TCP connect *)
  call_timeout : float;  (** default per-request response deadline, seconds *)
  max_retries : int;  (** reconnect attempts after the first failure *)
  backoff : float;  (** initial reconnect delay, seconds; doubles per retry *)
}

(** 5s connect, 10s call, 3 retries, 50ms initial backoff. *)
val default_config : config

type t

(** A client for the server at [host:port]; no I/O happens until the
    first request. [obs] is the registry receiving the client's metrics
    ([net.client.rpcs], [net.client.retries], [net.client.timeouts]) —
    pass the engine's registry when the client serves an engine (the
    [Remote] resolver does), omit it for standalone tools.

    [handshake:false] creates a {e push-mode} client (the home-server
    notify path): the [Hello] is pipelined and the [Welcome] never
    awaited, so establishing the connection cannot block on the peer's
    event loop — a home pushing to a subscriber that is itself blocked
    in a synchronous [Fetch] back to it must not deadlock. The peer's
    handshake answer is drained without blocking on each {!post}; a
    rejection or version mismatch surfaces there as {!Net_error}.
    Push-mode clients are {!post}-only: {!call} and {!pipeline} raise
    [Invalid_argument].

    [on_wait] runs repeatedly (every couple of milliseconds) while a
    {!call} or {!pipeline} waits for its response, so an event-loop
    owner can keep serving while blocked — a server passes a nested
    step of its own loop here. The hook must not issue a request on
    {e this} client's main connection; if re-entrant work does call back
    into the same client, that inner exchange transparently runs on a
    dedicated one-shot connection so response streams never interleave. *)
val create :
  ?obs:Obs.t ->
  ?config:config ->
  ?handshake:bool ->
  ?on_wait:(unit -> unit) ->
  host:string ->
  port:int ->
  unit ->
  t

val host : t -> string
val port : t -> int

(** Send one request and wait for its response. [timeout] overrides
    [config.call_timeout]. Raises {!Net_error}; a request that timed out
    may still have been applied by the server (the connection is closed,
    but the send happened). One-way requests are refused — use {!post}. *)
val call : ?timeout:float -> t -> Pequod_proto.Message.request -> Pequod_proto.Message.response

(** Send a one-way request (the [Notify_*] family): written to the
    socket, no response expected or read. Raises {!Net_error} on
    connection failure. *)
val post : t -> Pequod_proto.Message.request -> unit

(** Pipeline: write every request in one buffer flush, then read the
    responses in order. Equivalent to [List.map (call t)] but one
    syscall out and no per-request round-trip wait. [timeout] bounds
    each response read. One-way requests are refused. *)
val pipeline :
  ?timeout:float -> t -> Pequod_proto.Message.request list -> Pequod_proto.Message.response list

(** The exact on-the-wire bytes (length-prefixed frame) {!call} and
    {!pipeline} would write for [req]. For callers that drive their own
    sockets — the asynchronous fetcher pipelines these on nonblocking
    connections owned by the serving event loop. *)
val encode_request_frame : Pequod_proto.Message.request -> string

(** Is the underlying connection currently established? *)
val connected : t -> bool

(** Close the connection (idempotent). The client remains usable: the
    next request reconnects. *)
val close : t -> unit
