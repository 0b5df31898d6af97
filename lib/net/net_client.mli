(** Typed blocking TCP client for the Pequod wire protocol, for
    processes that are not servers: [pequod_cli], [pequod_ctl], the load
    harness and the repository benchmark. Connection management, the
    version handshake, retry policy and timeouts live here. A running server
    never uses it — a blocking call would stall its event loop — and
    reaches its peers through {!Peer} instead; the one exception is a
    directory follower's bootstrap poll, which runs before its loop
    starts.

    A client is bound to one [host:port] and connects lazily: the first
    {!call} (or {!pipeline}) opens the socket and performs the
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
    ([net.client.rpcs], [net.client.retries], [net.client.timeouts]);
    omit it for a private one. *)
val create :
  ?obs:Obs.t ->
  ?config:config ->
  host:string ->
  port:int ->
  unit ->
  t

val host : t -> string
val port : t -> int

(** Send one request and wait for its response. [timeout] overrides
    [config.call_timeout]. Raises {!Net_error}; a request that timed out
    may still have been applied by the server (the connection is closed,
    but the send happened). One-way requests are refused. *)
val call : ?timeout:float -> t -> Pequod_proto.Message.request -> Pequod_proto.Message.response

(** Pipeline: write every request in one buffer flush, then read the
    responses in order. Equivalent to [List.map (call t)] but one
    syscall out and no per-request round-trip wait. [timeout] bounds
    each response read. One-way requests are refused. *)
val pipeline :
  ?timeout:float -> t -> Pequod_proto.Message.request list -> Pequod_proto.Message.response list

(** Is the underlying connection currently established? *)
val connected : t -> bool

(** Close the connection (idempotent). The client remains usable: the
    next request reconnects. *)
val close : t -> unit
