(** A server's one outbound path to other servers: a pool of
    nonblocking connections, two per peer address (below), driven by
    the owning server's poller. Nothing here ever waits: a request is
    buffered and its answer arrives later through a continuation, so no
    event-loop step ever blocks on a peer.

    The wire has no request ids, so responses are matched to calls in
    per-connection FIFO order. The pool never sends [Hello] itself: a
    server answers frames without a handshake, and a caller that wants
    one (the blocking {!Net_client}) makes it a call. A receiver answers its connection's requests in order, so
    each address has two connections, one per {!lane}: a request that
    may park at its receiver would hold up every answer behind it. The
    caller picks the lane; the pool knows nothing of message kinds. An
    answer to a call proves every frame sent before it on the same lane
    was applied; one-way frames ({!post}) ride [Prompt].

    A connection fails on a refused or broken socket, an unexpected
    frame, or when its oldest outstanding call (or a pending connect)
    passes a constant deadline. Failing it answers every outstanding
    call [Error] (callers fail over to their next candidate or answer an
    error), reports the address to [on_lost] if one-way frames went out
    on it, and puts the peer in a short backoff during which requests to
    it fail at once. The next request after the backoff reconnects.

    Owned by exactly one server loop; not thread-safe. Metrics:
    [peer.calls], [peer.posts], [peer.failed]. *)

type t

type reply = (Pequod_proto.Message.response, string) result

(** [Prompt]: requests the receiver answers within the step that reads
    them (fetches, heartbeats, directory reads, barriers). [Parked]:
    requests the receiver may answer only after waiting on a third party
    (a forwarded read parks on its fetches, a forwarded write may be
    held by a migration flip). Keeping them apart means a [Prompt]
    answer never queues behind a parked request — whose own fetch may be
    waiting on the sender — so the pair cannot wedge. *)
type lane = Prompt | Parked

(** A pool registering its sockets with [poller]. [on_lost addr] runs
    when one-way frames to [addr] may have been lost: their connection
    failed, or a {!post} found the peer in backoff. *)
val create : poller:Poller.t -> obs:Obs.t -> on_lost:(string -> unit) -> t

(** [call t lane addr req k]: send [req] to [addr] ([host:port]) on
    [lane] and run [k] with its response, or with [Error why] if the
    connection fails first. A peer that cannot be dialled, or is in
    backoff, answers [Error "unreachable: <last failure>"]. [k] runs from a later {!ready} or {!tick} — or at once, before
    [call] returns, when the peer is in backoff or cannot be dialled. *)
val call :
  t -> lane -> string -> Pequod_proto.Message.request -> (reply -> unit) -> unit

(** Send a one-way request (the [Notify_*] family); no response. *)
val post : t -> string -> Pequod_proto.Message.request -> unit

(** A server's two ways to reach another, as values: {!call} and
    {!post}. The request core ({!Node}) holds this record, not the pool,
    so a test can wire cores together through memory; an implementation
    must keep the pool's guarantees (FIFO per sender, receiver and lane,
    answers in request order, posts on [Prompt]). *)
type outbound = {
  call : lane -> string -> Pequod_proto.Message.request -> (reply -> unit) -> unit;
  post : string -> Pequod_proto.Message.request -> unit;
}

val outbound : t -> outbound

(** Write every connection's buffered requests. The owning loop calls
    this once per iteration, so the requests of one iteration leave as
    one burst per peer. *)
val flush : t -> unit

(** Service a ready fd; [false] if the pool does not own it. *)
val ready : t -> Unix.file_descr -> readable:bool -> writable:bool -> bool

(** Fail every connection whose oldest outstanding call or pending
    connect has passed the deadline. Call once per loop iteration. *)
val tick : t -> unit

(** Close every connection without answering its outstanding calls. *)
val close : t -> unit
