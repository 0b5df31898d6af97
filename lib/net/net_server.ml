(** The network-facing Pequod server: a single-threaded, event-driven
    loop (as in the paper's implementation) multiplexing client
    connections over TCP behind the {!Poller} abstraction — epoll(7)
    where the platform has it, [Unix.select] elsewhere. This is the
    socket half of a server: the listener, connections, framing,
    in-order response slots and the shard acceptor's handoff. What a
    request means is the request core's, {!Node}; the loop owns one and
    builds its outbound record from the {!Peer} pool. Clients speak the
    length-prefixed protocol of {!Pequod_proto.Message}.

    [step] runs one iteration (tests drive it manually); [run] loops.
    One instance is owned by one domain; the only cross-domain entry
    points are {!inject} (the shard acceptor handing over an accepted
    connection) and {!request_stop}, both through a mutex and a wakeup
    pipe. No step waits on a peer: a request whose answer is not ready
    within its step holds an in-order response slot on its connection,
    and later pipelined requests are served meanwhile. *)

module Server = Pequod_core.Server
module Config = Pequod_core.Config
module Message = Pequod_proto.Message
module Frame = Pequod_proto.Frame
module Persist = Pequod_persist.Persist
module Log = Node.Log

(* One in-order response slot per request whose reply is not produced
   within its step (a parked scan, a forward): the wire protocol has no
   request ids, so responses must leave in per-connection pipeline
   order. Slots fill out of order; only the ready prefix is flushed. *)
type slot = { mutable sl_wire : string option }

type client = {
  fd : Unix.file_descr;
  peer : string;
  decoder : Frame.decoder;
  out : Outbuf.t;
  mutable want_write : bool; (* current poller write interest *)
  conn : Node.conn; (* injected by the acceptor; alive until dropped *)
  pending : slot Queue.t; (* unfilled/unflushed response slots, request order *)
}

type t = {
  node : Node.t;
  listener : Unix.file_descr;
  poller : Poller.t;
  conns : (Unix.file_descr, client) Hashtbl.t;
  rbuf : Bytes.t; (* receive buffer; frames are decoded straight out of it *)
  shutdown : bool Atomic.t;
  mutable stopped : bool; (* [stop] released every resource *)
  (* cross-domain handoff: the shard acceptor enqueues accepted fds and
     wakes the loop through the pipe *)
  inj_mu : Mutex.t;
  inj_q : Unix.file_descr Queue.t;
  wakeup_r : Unix.file_descr;
  wakeup_w : Unix.file_descr;
  persist : Persist.t option; (* durability manager, when --data-dir is set *)
  peers : Peer.t; (* the core's outbound record runs over this pool *)
  (* transport metrics, recorded into the engine's registry so one
     snapshot covers the whole server *)
  m_rpcs : Obs.Counter.t; (* net.rpcs *)
  m_rpc_kind : Obs.Counter.t array; (* rpc.<kind>, by Message.request_kind_index *)
  m_bytes_in : Obs.Counter.t; (* net.bytes_in *)
  m_bytes_out : Obs.Counter.t; (* net.bytes_out *)
  m_req_bytes : Obs.Histogram.t; (* rpc.request.bytes *)
  m_resp_bytes : Obs.Histogram.t; (* rpc.response.bytes *)
  m_queue_depth : Obs.Gauge.t; (* shard.queue.depth *)
  m_conns : Obs.Gauge.t; (* shard.conns *)
  metrics_every : float option; (* --metrics-dump period *)
  mutable next_dump : float;
}

(** Create a server listening on [port] (0 picks a free port; see {!port})
    with the given cache joins installed. When [config.persist] names a
    data directory, prior state is recovered from it first and every
    mutation is logged; [joins] already present after recovery are not
    re-installed. [metrics_every] makes {!step} print one JSON metrics
    snapshot line to stdout every that-many seconds ([--metrics-dump]).
    [backend] forces the poller backend (tests exercise both). *)
let create ?config ?metrics_every ?backend ~port ~joins ~memory_limit () =
  let config = match config with Some c -> c | None -> Config.default () in
  config.Config.memory_limit <- memory_limit;
  let engine = Server.create ~config () in
  let persist = Option.map (Persist.attach engine) config.Config.persist in
  let recovered = Server.join_texts engine in
  List.iter
    (fun j ->
      (* compare canonical forms so a recovered join is not duplicated *)
      let canonical =
        match Pequod_pattern.Joinspec.parse j with
        | Ok spec -> Pequod_pattern.Joinspec.to_string spec
        | Error msg -> failwith msg
      in
      if List.mem canonical recovered then
        Log.info (fun m -> m "join already recovered: %s" j)
      else
        match Server.add_join_text engine j with
        | Ok () -> Log.info (fun m -> m "installed join: %s" j)
        | Error msg -> failwith msg)
    joins;
  (* a peer that resets a connection must cost an EPIPE, not the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_any, port));
  Unix.listen listener 64;
  Unix.set_nonblock listener;
  let poller = Poller.create ?backend () in
  Poller.set poller listener ~read:true ~write:false;
  let wakeup_r, wakeup_w = Unix.pipe () in
  Unix.set_nonblock wakeup_r;
  Unix.set_nonblock wakeup_w;
  Poller.set poller wakeup_r ~read:true ~write:false;
  let obs = Server.obs engine in
  (* a lost push drops its subscriber at the core, built on the pool *)
  let lost = ref ignore in
  let peers = Peer.create ~poller ~obs ~on_lost:(fun addr -> !lost addr) in
  let node = Node.create ~out:(Peer.outbound peers) engine in
  lost := Node.drop_subscriber node;
  { node; listener; poller;
    conns = Hashtbl.create 16;
    rbuf = Bytes.create 65_536;
    shutdown = Atomic.make false;
    stopped = false;
    inj_mu = Mutex.create ();
    inj_q = Queue.create ();
    wakeup_r; wakeup_w;
    persist;
    peers;
    m_rpcs = Obs.counter obs "net.rpcs";
    m_rpc_kind = Array.map (fun k -> Obs.counter obs ("rpc." ^ k)) Message.request_kinds;
    m_bytes_in = Obs.counter obs "net.bytes_in";
    m_bytes_out = Obs.counter obs "net.bytes_out";
    m_req_bytes = Obs.histogram obs "rpc.request.bytes";
    m_resp_bytes = Obs.histogram obs "rpc.response.bytes";
    m_queue_depth = Obs.gauge obs "shard.queue.depth";
    m_conns = Obs.gauge obs "shard.conns";
    metrics_every;
    next_dump =
      (match metrics_every with Some s -> Unix.gettimeofday () +. s | None -> infinity) }

(** The request core this loop feeds. *)
let node t = t.node

let engine t = Node.engine t.node
let persist t = t.persist
let poller_backend t = Poller.backend t.poller

(** The port actually bound (useful with [~port:0]). *)
let port t =
  match Unix.getsockname t.listener with
  | Unix.ADDR_INET (_, p) -> p
  | _ -> invalid_arg "Net_server.port"

let peer_name fd =
  match Unix.getpeername fd with
  | Unix.ADDR_INET (addr, port) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr addr) port
  | Unix.ADDR_UNIX path -> path
  | exception _ -> "?"

let drop t client =
  Log.info (fun m -> m "client %s disconnected" client.peer);
  client.conn.alive <- false;
  Poller.remove t.poller client.fd;
  Hashtbl.remove t.conns client.fd;
  Obs.Gauge.set t.m_conns (Hashtbl.length t.conns);
  try Unix.close client.fd with Unix.Unix_error _ -> ()

(* keep the poller's write interest in sync with pending output *)
let update_interest t client =
  let want = Outbuf.length client.out > 0 in
  if want <> client.want_write then begin
    client.want_write <- want;
    Poller.set t.poller client.fd ~read:true ~write:want
  end

(* try to flush buffered output; keep the rest for the next round *)
let flush_output t client =
  if Outbuf.length client.out > 0 then begin
    match Outbuf.write client.out client.fd with
    | n ->
      Outbuf.consumed client.out n;
      update_interest t client
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) ->
      update_interest t client
    | exception Unix.Unix_error _ -> drop t client
  end

(* move the ready prefix of the slot queue into the output buffer: a
   filled slot behind an unfilled one waits (pipeline order) *)
let flush_ready client =
  let rec go () =
    match Queue.peek_opt client.pending with
    | Some { sl_wire = Some wire } ->
      ignore (Queue.pop client.pending);
      Outbuf.add_frame client.out wire;
      go ()
    | _ -> ()
  in
  go ()

let count_response t wire =
  Obs.Counter.add t.m_bytes_out (String.length wire + 4);
  Obs.Histogram.observe t.m_resp_bytes (String.length wire + 4)

(* queue one encoded response in request order: straight to the output
   buffer unless an earlier request's slot is still unfilled *)
let enqueue_response t client wire =
  count_response t wire;
  if Queue.is_empty client.pending then Outbuf.add_frame client.out wire
  else Queue.add { sl_wire = Some wire } client.pending

(* fill a deferred response slot and flush whatever prefix is ready *)
let fill_slot t client slot response =
  let wire = Message.encode_response response in
  count_response t wire;
  slot.sl_wire <- Some wire;
  if client.conn.alive then begin
    flush_ready client;
    flush_output t client
  end

(* one frame, decoded straight out of the receive buffer (no copy). An
   answer produced within this call goes straight to the output buffer;
   any other takes an in-order response slot that the core's
   continuation fills later. *)
let handle_frame t client buf ~off ~len =
  Obs.Counter.incr t.m_rpcs;
  Obs.Histogram.observe t.m_req_bytes len;
  match Message.decode_request_view buf ~off ~len with
  | exception Message.Protocol_error msg ->
    enqueue_response t client (Message.encode_response (Message.Error ("protocol error: " ^ msg)))
  | exception e ->
    enqueue_response t client (Message.encode_response (Message.Error (Printexc.to_string e)))
  | req when Message.is_oneway req ->
    Obs.Counter.incr t.m_rpc_kind.(Message.request_kind_index req);
    Node.apply_oneway t.node req
  | req -> (
    (* per-kind RPC tally; pequod's whole evaluation counts messages *)
    Obs.Counter.incr t.m_rpc_kind.(Message.request_kind_index req);
    let slot = ref None and now = ref None in
    Node.handle t.node client.conn req (fun resp ->
        match !slot with Some s -> fill_slot t client s resp | None -> now := Some resp);
    (* what this request sent out leaves now, so peers work on it
       while this loop decodes the rest of the batch *)
    Peer.flush t.peers;
    match !now with
    | Some resp -> enqueue_response t client (Message.encode_response resp)
    | None ->
      let s = { sl_wire = None } in
      Queue.add s client.pending;
      slot := Some s)

let handle_readable t client =
  match Unix.read client.fd t.rbuf 0 (Bytes.length t.rbuf) with
  | 0 -> drop t client
  | n -> (
    Obs.Counter.add t.m_bytes_in n;
    (* all responses for one read are accumulated in the client's output
       buffer and flushed once: a pipelined batch (e.g. the CLI's --load
       chunks) costs one syscall out, not one per frame *)
    match Frame.feed_bytes client.decoder t.rbuf 0 n ~frame:(handle_frame t client) with
    | () ->
      if Outbuf.length client.out > 0 then flush_output t client;
      (* after the whole batch: one coalesced push per subscriber, sent
         right behind the acks instead of at the end of the step, so a
         read the writer sends after its ack races one write, not the
         rest of the step. Pushing before the acks would order them
         fully, but on a 2-core host the woken subscriber then takes the
         core the writer needs: +30-50% write latency at the median *)
      Node.flush_notifications t.node;
      Peer.flush t.peers
    | exception Frame.Frame_too_large _ -> drop t client)
  | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop t client

let register t fd ~injected =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let client =
    { fd; peer = peer_name fd; decoder = Frame.decoder (); out = Outbuf.create ();
      want_write = false; conn = { Node.injected; alive = true }; pending = Queue.create () }
  in
  Log.info (fun m -> m "client %s connected%s" client.peer
      (if injected then " (via acceptor)" else ""));
  Hashtbl.replace t.conns fd client;
  Obs.Gauge.set t.m_conns (Hashtbl.length t.conns);
  Poller.set t.poller fd ~read:true ~write:false

let accept_clients t =
  let rec go () =
    match Unix.accept t.listener with
    | fd, _ ->
      register t fd ~injected:false;
      go ()
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Cross-domain entry points                                           *)

let wake t =
  try ignore (Unix.write_substring t.wakeup_w "x" 0 1)
  with Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EPIPE | Unix.EBADF), _, _) ->
    ()

(** Hand an accepted connection to this server's loop (thread-safe; the
    shard acceptor domain calls this). The loop adopts the fd on its
    next step. *)
let inject t fd =
  Mutex.lock t.inj_mu;
  Queue.add fd t.inj_q;
  Mutex.unlock t.inj_mu;
  wake t

(** Ask the loop to exit (thread-safe): {!run} returns after the current
    step. Resource teardown stays with the owning domain ({!stop}). *)
let request_stop t =
  Atomic.set t.shutdown true;
  wake t

let drain_wakeup t =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wakeup_r b 0 (Bytes.length b) with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) -> ()
  in
  go ()

let drain_injected t =
  Mutex.lock t.inj_mu;
  Obs.Gauge.set t.m_queue_depth (Queue.length t.inj_q);
  let fds = Queue.fold (fun acc fd -> fd :: acc) [] t.inj_q in
  Queue.clear t.inj_q;
  Mutex.unlock t.inj_mu;
  List.iter (fun fd -> register t fd ~injected:true) (List.rev fds)

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)

(* One metrics snapshot as a single JSON line on stdout, timestamped so
   dump streams can be correlated with external logs. *)
let dump_metrics t =
  let now = Unix.gettimeofday () in
  let extra = [ ("ts", Printf.sprintf "%.3f" now) ] in
  print_endline (Obs.json_of_snapshot ~extra (Server.metrics_snapshot (engine t)));
  flush stdout

let maybe_dump_metrics t =
  match t.metrics_every with
  | Some every when Unix.gettimeofday () >= t.next_dump ->
    t.next_dump <- Unix.gettimeofday () +. every;
    dump_metrics t
  | _ -> ()

(** One iteration of the event loop: wait up to [timeout] seconds for
    readiness (less when the core's pumps are due), then
    accept/read/write whatever is ready, run the core's pumps, and send
    the iteration's outbound requests as one burst per peer. Never waits
    on a peer: an answer that needs one arrives in a later step. *)
let step ?(timeout = 1.0) t =
  Peer.flush t.peers;
  let events = Poller.wait t.poller ~timeout:(Node.max_wait t.node timeout) in
  List.iter
    (fun (fd, readable, writable) ->
      if fd = t.wakeup_r then (if readable then drain_wakeup t)
      else if fd = t.listener then (if readable then accept_clients t)
      else
        match Hashtbl.find_opt t.conns fd with
        | Some client ->
          if writable then flush_output t client;
          (* [client] may have been dropped by the flush above *)
          if readable && client.conn.alive then handle_readable t client
        | None -> ignore (Peer.ready t.peers fd ~readable ~writable))
    events;
  drain_injected t;
  Peer.tick t.peers;
  Node.pump t.node;
  Option.iter Persist.tick t.persist;
  Peer.flush t.peers;
  maybe_dump_metrics t

(** Serve until {!stop} or {!request_stop}. *)
let run t =
  while not (Atomic.get t.shutdown) do
    step t
  done

(** Close the listener, every client and peer connection, and (after a
    final log sync) the durability manager. Must be called from the
    owning domain (after {!request_stop} + join when the loop runs
    elsewhere). Idempotent. *)
let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.shutdown true;
    Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
    Hashtbl.reset t.conns;
    Peer.close t.peers;
    Option.iter Persist.close t.persist;
    Poller.close t.poller;
    (try Unix.close t.wakeup_r with Unix.Unix_error _ -> ());
    (try Unix.close t.wakeup_w with Unix.Unix_error _ -> ());
    Mutex.lock t.inj_mu;
    Queue.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.inj_q;
    Queue.clear t.inj_q;
    Mutex.unlock t.inj_mu;
    try Unix.close t.listener with Unix.Unix_error _ -> ()
  end
