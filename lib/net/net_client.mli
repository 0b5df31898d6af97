(** Typed blocking TCP client for the Pequod wire protocol, for
    processes that are not servers: [pequod_cli], [pequod_ctl], the load
    harness and the repository benchmark. A running server never uses it
    — a blocking call would stall its event loop — and reaches its peers
    through {!Peer} directly; the one exception is a directory
    follower's bootstrap poll, which runs before its loop starts.

    The client is a blocking loop over a private {!Poller} and {!Peer}
    pool: socket I/O, framing, connect and response matching all live in
    {!Peer}. A client is bound to one [host:port] and connects lazily:
    the first {!call} (or {!pipeline}) on a new connection is the
    [Hello]/[Welcome] handshake, and a protocol version mismatch raises
    at once. There is no retry loop: a failed connect, a broken
    connection or a missed deadline fails that request with its cause
    and drops the connection, and the next request dials again at once.

    Not thread-safe: one client, one caller. *)

(** Any client-visible failure: a refused or failed connect, handshake
    rejection, request timeout, I/O error, or an undecodable response.
    The connection is already closed when this is raised; a later call
    reconnects. A timeout's message contains ["timed out"]. *)
exception Net_error of string

type config = {
  connect_timeout : float;  (** seconds to dial and complete the handshake *)
  call_timeout : float;  (** seconds to wait for each response *)
}

(** 5 s to connect, 10 s per response. *)
val default_config : config

type t

(** A client for the server at [addr] ([host:port]); no I/O happens
    until the first request. [obs] is the registry receiving the
    client's metrics ([net.client.timeouts], and its pool's
    [peer.calls] and [peer.failed]); omit it for a private one. *)
val create : ?obs:Obs.t -> ?config:config -> string -> t

(** Send one request and wait for its response: {!pipeline} of one.
    Raises {!Net_error}; a request that timed out may still have been
    applied by the server (the connection is closed, but the send
    happened). One-way requests are refused. *)
val call : t -> Pequod_proto.Message.request -> Pequod_proto.Message.response

(** Pipeline: write every request in one flush, then wait for the
    responses, returned in order. Each response has [call_timeout] from
    the previous one (or from the flush) to arrive. One-way requests are
    refused. *)
val pipeline :
  t -> Pequod_proto.Message.request list -> Pequod_proto.Message.response list

(** Close the connection and release the poller (idempotent). The
    client remains usable: the next request reconnects. *)
val close : t -> unit
