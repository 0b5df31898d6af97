(** The network-facing Pequod server: a single-threaded, event-driven
    loop (as in the paper's implementation) multiplexing any number of
    client connections over TCP behind the {!Poller} abstraction —
    epoll(7) where the platform has it, [Unix.select] elsewhere.

    Clients speak the length-prefixed binary protocol of
    {!Pequod_proto.Message}. The loop is exposed as [step] so tests (and
    embedding applications) can drive it manually; [run] loops forever.

    One instance is owned by exactly one domain. The only cross-domain
    entry points are {!inject} (the shard acceptor handing over an
    accepted connection) and {!request_stop}; both go through a mutex
    and a wakeup pipe. Everything else — including {!step} — must be
    called from the owning domain.

    Every keyed request is routed by the partition directory
    ({!set_directory}) before it enters the engine: a write whose home
    is another server is forwarded there, a point read goes to a replica
    or the home, and a scan is cut into segments served where they
    live. A shard ({!set_shard}) is one more directory server: its
    directory holds one wildcard entry per shard, homed at the sibling's
    own port. A scan that spans tables cannot be cut by a wildcard, so
    on a shard it is spread over every shard and the answers merged;
    only requests the acceptor handed in spread, so a spread leg is
    never spread again. [Add_join] and [Stats_full] from a client fan
    out to every shard. *)

module Server = Pequod_core.Server
module Config = Pequod_core.Config
module Message = Pequod_proto.Message
module Frame = Pequod_proto.Frame
module Persist = Pequod_persist.Persist
module Interval_map = Pequod_store.Interval_map

let src = Logs.Src.create "pequod.server"

module Log = (val Logs.src_log src : Logs.LOG)

(* Reusable output buffer: the live span slides ([off] advances as the
   socket accepts bytes) and compacts, so backpressure costs a blit at
   worst — never the O(n^2) string rebuild of [outbuf ^ more]. *)
module Outbuf = struct
  type t = { mutable b : Bytes.t; mutable off : int; mutable len : int }

  let create () = { b = Bytes.create 4096; off = 0; len = 0 }
  let length t = t.len

  let reserve t extra =
    if t.off + t.len + extra > Bytes.length t.b then begin
      if t.off > 0 then begin
        Bytes.blit t.b t.off t.b 0 t.len;
        t.off <- 0
      end;
      if t.len + extra > Bytes.length t.b then begin
        let cap = ref (Bytes.length t.b * 2) in
        while t.len + extra > !cap do
          cap := !cap * 2
        done;
        let bigger = Bytes.create !cap in
        Bytes.blit t.b 0 bigger 0 t.len;
        t.b <- bigger
      end
    end

  (* append a length-prefixed frame around [body] *)
  let add_frame t body =
    let n = String.length body in
    if n > Frame.max_frame then raise (Frame.Frame_too_large n);
    reserve t (4 + n);
    let p = t.off + t.len in
    Bytes.unsafe_set t.b p (Char.unsafe_chr ((n lsr 24) land 0xff));
    Bytes.unsafe_set t.b (p + 1) (Char.unsafe_chr ((n lsr 16) land 0xff));
    Bytes.unsafe_set t.b (p + 2) (Char.unsafe_chr ((n lsr 8) land 0xff));
    Bytes.unsafe_set t.b (p + 3) (Char.unsafe_chr (n land 0xff));
    Bytes.blit_string body 0 t.b (p + 4) n;
    t.len <- t.len + 4 + n

  (* the socket took [n] bytes *)
  let consumed t n =
    t.off <- t.off + n;
    t.len <- t.len - n;
    if t.len = 0 then begin
      t.off <- 0;
      (* a burst that ballooned the buffer should not pin the memory *)
      if Bytes.length t.b > 1 lsl 20 then t.b <- Bytes.create 4096
    end

  let write t fd = Unix.write fd t.b t.off t.len
end

(* One in-order response slot per request whose reply is not produced
   synchronously (a parked scan): the wire protocol has no request ids,
   so responses must leave in per-connection pipeline order. Slots fill
   out of order; only the ready prefix is flushed. *)
type slot = { mutable sl_wire : string option }

type client = {
  fd : Unix.file_descr;
  peer : string;
  decoder : Frame.decoder;
  out : Outbuf.t;
  mutable want_write : bool; (* current poller write interest *)
  mutable busy : bool; (* mid-request: nested steps must not read from it *)
  injected : bool; (* handed over by the shard acceptor (public traffic) *)
  pending : slot Queue.t; (* unfilled/unflushed response slots, request order *)
  mutable alive : bool; (* false once dropped: late park completions discard *)
}

(* A stamped read ([Get_at]/[Scan_at]) whose demanded versions the local
   copy does not yet satisfy: parked with an in-order response slot and
   re-checked once per step. It waits briefly for the subscription push
   to catch up, then forces a refetch by unmarking the stale pieces,
   then fails with a typed [Stale] at the deadline — never silently
   serving old data (docs/SESSIONS.md). *)
type stamp_wait = {
  sw_client : client;
  sw_slot : slot;
  sw_req : Message.request; (* the original Get_at/Scan_at *)
  sw_min : Message.stamp_entry list;
  sw_t0 : int; (* Obs.now_ns at park *)
  mutable sw_refetched : bool;
  mutable sw_fetching : bool; (* explicit refetch of the unmet ranges in flight *)
  mutable sw_fetch_failed : bool; (* refetch failed: owner unreachable, fail [Stale] *)
}

(* Shard mode, installed by the shard layer (see shard.ml): this shard's
   index into every shard's address, and the merge of every shard's
   metrics that answers a client's [Stats_full] *)
type shard = {
  sh_self : int;
  sh_addrs : string list;
  sh_merge : (int * (string * Obs.value) list) list -> (string * Obs.value) list;
  sm_ops : Obs.Counter.t; (* shard.ops: requests handled by this shard *)
  sm_client_ops : Obs.Counter.t; (* shard.client.ops: acceptor-handed requests *)
  sm_forward_out : Obs.Counter.t; (* shard.forward.out: requests sent to siblings *)
  sm_forward_in : Obs.Counter.t; (* shard.forward.in: forwards received *)
}

(* One live range migration (§ docs/PARTITIONING.md): this server is the
   source home handing [mg_table [mg_lo,mg_hi)] to [mg_dest]. The copy
   runs one chunk per event-loop step; writes landing in the range
   during the copy are captured in [mg_delta] and replayed before the
   directory epoch flips, so the destination never becomes the home of
   a range it only half holds. *)
type migration = {
  mg_table : string;
  mg_lo : string;
  mg_hi : string;
  mg_dest : string;
  mutable mg_cursor : string; (* next key to copy *)
  mutable mg_delta : (string * string option) list; (* captured writes, newest first *)
  mutable mg_keys : int;
  mutable mg_deltas : int;
  mg_reply : Unix.file_descr; (* the ctl connection awaiting the answer *)
}

(* Directory-mode state, installed by [set_directory]: this server's
   copy of the partition directory (authoritative when [ds_seed] is
   [None]), plus the migration driver and hotspot read tallies. *)
type dirstate = {
  ds_dir : Directory.t;
  ds_self : string; (* this server's advertised host:port *)
  ds_seed : string option; (* the seed's address; None: this IS the seed *)
  ds_hot_threshold : float; (* reads/s per owned range; 0 disables detection *)
  ds_hot_every : float; (* detection window, seconds *)
  mutable ds_hot_last : float;
  ds_reads : (string * string * string, int ref) Hashtbl.t; (* per-owned-range tallies *)
  mutable ds_mig : migration option; (* at most one migration at a time *)
  ds_calls : (string, Net_client.t) Hashtbl.t; (* call-mode peer clients *)
  ds_m_epoch : Obs.Gauge.t; (* dir.epoch *)
  ds_m_keys : Obs.Counter.t; (* migrate.keys_moved *)
  ds_m_delta : Obs.Counter.t; (* migrate.delta_replayed *)
  ds_m_redirect : Obs.Counter.t; (* migrate.redirects *)
  ds_m_replica_reads : Obs.Counter.t; (* replica.reads *)
  ds_m_hot : Obs.Counter.t; (* hotspot.detected *)
}

type t = {
  engine : Server.t;
  listener : Unix.file_descr;
  poller : Poller.t;
  conns : (Unix.file_descr, client) Hashtbl.t;
  (* free receive buffers: nested steps (serving while blocked on a
     sibling) pop their own so a zero-copy frame view into the outer
     step's buffer is never overwritten mid-decode *)
  mutable read_bufs : Bytes.t list;
  shutdown : bool Atomic.t;
  (* cross-domain handoff: the shard acceptor enqueues accepted fds and
     wakes the loop through the pipe *)
  inj_mu : Mutex.t;
  inj_q : Unix.file_descr Queue.t;
  wakeup_r : Unix.file_descr;
  wakeup_w : Unix.file_descr;
  mutable stepping : bool; (* a step is on the stack: nested steps skip housekeeping *)
  (* an engine call is on the stack (request handling, a parked-scan
     retry): steps taken while it is set must not service external fds,
     whose fetch completions re-enter the engine. A nested step with
     the engine off-stack — a shard blocked forwarding to a sibling —
     services them freely; that is what lets a ring of mutually blocked
     shards finish each other's parked scans instead of deadlocking. *)
  mutable in_engine : bool;
  mutable shard : shard option;
  mutable dirst : dirstate option; (* directory mode (see [set_directory]) *)
  (* a zero-timeout nested [step], the [on_wait] of this server's
     blocking clients (see [on_wait]), bound on the first real step (it
     cannot be built in [create] because [step] is defined later) *)
  mutable nested_step : unit -> unit;
  persist : Persist.t option; (* durability manager, when --data-dir is set *)
  (* home-server subscriptions (§2.4): source table -> subscriber
     callback address per fetched range. Installed by [Fetch], stabbed
     on every client-origin write, dropped when pushes to the address
     stop getting through. *)
  subs : (string, string Interval_map.t) Hashtbl.t;
  peers : (string, Net_client.t) Hashtbl.t; (* subscriber addr -> push client *)
  (* outgoing pushes, coalesced per destination within one read batch:
     one Notify_batch per subscriber per batch, as in the simulator *)
  pending_notify : (string, (string * string option) list) Hashtbl.t; (* dst -> rev items *)
  mutable pending_order : string list; (* destinations, reverse first-enqueue order *)
  (* transport metrics, recorded into the engine's registry so one
     snapshot covers the whole server *)
  m_rpcs : Obs.Counter.t; (* net.rpcs *)
  m_rpc_kind : Obs.Counter.t array; (* rpc.<kind>, by Message.request_kind_index *)
  m_bytes_in : Obs.Counter.t; (* net.bytes_in *)
  m_bytes_out : Obs.Counter.t; (* net.bytes_out *)
  m_req_bytes : Obs.Histogram.t; (* rpc.request.bytes *)
  m_resp_bytes : Obs.Histogram.t; (* rpc.response.bytes *)
  m_fetch_in : Obs.Counter.t; (* peer.fetch.in *)
  m_notify_in : Obs.Counter.t; (* peer.notify.in *)
  m_notify_out : Obs.Counter.t; (* peer.notify.out *)
  m_queue_depth : Obs.Gauge.t; (* shard.queue.depth *)
  m_conns : Obs.Gauge.t; (* shard.conns *)
  metrics_every : float option; (* --metrics-dump period *)
  mutable next_dump : float;
  (* background work run once per event-loop iteration (after I/O), e.g.
     the Remote subscription-healing heartbeat; each callback rate-limits
     itself *)
  mutable tickers : (unit -> unit) list;
  (* asynchronous fetch engine, installed by [Remote.attach]: given the
     full missing-range set of a parked scan, it issues every fetch
     (batched per peer, single-flighted across waiters) and calls back
     once all of them completed. [None]: no routes, so no scan misses. *)
  mutable fetcher : ((string * string * string) list -> (ok:bool -> unit) -> unit) option;
  (* non-client fds serviced by this loop: the fetcher's peer sockets *)
  externals : (Unix.file_descr, readable:bool -> writable:bool -> unit) Hashtbl.t;
  m_scan_parked : Obs.Counter.t; (* scan.parked *)
  m_fetch_wait : Obs.Histogram.t; (* resolver.fetch.wait_ns *)
  (* stamped reads parked for freshness, re-checked once per step *)
  mutable stamp_waits : stamp_wait list;
  m_session_reads : Obs.Counter.t; (* session.reads *)
  m_stale_waits : Obs.Counter.t; (* session.stale_waits *)
  m_stale_errors : Obs.Counter.t; (* session.stale_errors *)
  m_stamp_wait : Obs.Histogram.t; (* stamp.wait_ns *)
}

(* placeholder compared by physical equality; see [nested_step] *)
let no_nested = fun () -> ()

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
  { engine; listener; poller;
    conns = Hashtbl.create 16;
    read_bufs = [];
    shutdown = Atomic.make false;
    inj_mu = Mutex.create ();
    inj_q = Queue.create ();
    wakeup_r; wakeup_w;
    stepping = false;
    in_engine = false;
    shard = None;
    dirst = None;
    nested_step = no_nested;
    persist;
    subs = Hashtbl.create 8;
    peers = Hashtbl.create 8;
    pending_notify = Hashtbl.create 8;
    pending_order = [];
    m_rpcs = Obs.counter obs "net.rpcs";
    m_rpc_kind = Array.map (fun k -> Obs.counter obs ("rpc." ^ k)) Message.request_kinds;
    m_bytes_in = Obs.counter obs "net.bytes_in";
    m_bytes_out = Obs.counter obs "net.bytes_out";
    m_req_bytes = Obs.histogram obs "rpc.request.bytes";
    m_resp_bytes = Obs.histogram obs "rpc.response.bytes";
    m_fetch_in = Obs.counter obs "peer.fetch.in";
    m_notify_in = Obs.counter obs "peer.notify.in";
    m_notify_out = Obs.counter obs "peer.notify.out";
    m_queue_depth = Obs.gauge obs "shard.queue.depth";
    m_conns = Obs.gauge obs "shard.conns";
    metrics_every;
    next_dump =
      (match metrics_every with Some s -> Unix.gettimeofday () +. s | None -> infinity);
    tickers = [];
    fetcher = None;
    externals = Hashtbl.create 4;
    m_scan_parked = Obs.counter obs "scan.parked";
    m_fetch_wait = Obs.histogram obs "resolver.fetch.wait_ns";
    stamp_waits = [];
    m_session_reads = Obs.counter obs "session.reads";
    m_stale_waits = Obs.counter obs "session.stale_waits";
    m_stale_errors = Obs.counter obs "session.stale_errors";
    m_stamp_wait = Obs.histogram obs "stamp.wait_ns" }

let engine t = t.engine
let persist t = t.persist
let poller_backend t = Poller.backend t.poller

(** Register background work to run once per {!step} (after I/O); the
    callback is responsible for its own rate limiting. *)
let add_ticker t f = t.tickers <- t.tickers @ [ f ]

(** {2 External fds}

    The asynchronous fetcher owns nonblocking peer sockets that must be
    driven by this server's loop. [watch_fd] registers one: [on_ready]
    runs whenever the fd polls ready and no engine call is on the stack
    (nested steps taken while blocked on a sibling forward qualify), so
    fetch completions (which re-run parked scans through the engine)
    cannot re-enter an engine call already in progress. *)
let watch_fd t fd ~read ~write ~on_ready =
  Hashtbl.replace t.externals fd on_ready;
  Poller.set t.poller fd ~read ~write

(** Adjust poller interest for a watched fd (e.g. write only while the
    fetcher has buffered output — level-triggered pollers spin
    otherwise). *)
let watch_interest t fd ~read ~write = Poller.set t.poller fd ~read ~write

(** Deregister (before closing the fd). *)
let unwatch_fd t fd =
  Hashtbl.remove t.externals fd;
  Poller.remove t.poller fd

(** Install the asynchronous fetch engine (see [Remote.attach]):
    scans missing base ranges park instead of failing, and [fetcher] is
    handed the full missing set plus a completion callback. *)
let set_fetcher t fetcher = t.fetcher <- Some fetcher

(** Make this server shard [self] of a shard-per-core process whose
    shards listen at [addrs] (see shard.ml): the [shard.*] counters, the
    fan-out of a client's [Add_join] and [Stats_full] ([merge] combines
    the per-shard snapshots), and a fixed directory. Call once, after
    {!set_directory}, before serving. *)
let set_shard t ~self ~addrs ~merge =
  let obs = Server.obs t.engine in
  t.shard <-
    Some
      { sh_self = self; sh_addrs = addrs; sh_merge = merge;
        sm_ops = Obs.counter obs "shard.ops";
        sm_client_ops = Obs.counter obs "shard.client.ops";
        sm_forward_out = Obs.counter obs "shard.forward.out";
        sm_forward_in = Obs.counter obs "shard.forward.in" }

(* Run [f] as an engine call: a step nested inside it (a blocking fetch
   waiting on a peer) must not service fetcher sockets, whose
   completions re-enter the engine. *)
let in_engine t f =
  let saved = t.in_engine in
  t.in_engine <- true;
  Fun.protect ~finally:(fun () -> t.in_engine <- saved) f

(* hotspot detection: once per window, compare each owned range's read
   tally against the threshold; a hot range is counted and logged with
   the pequod_ctl command that would replicate it. Replication itself
   stays an operator decision — the directory is shared cluster state. *)
let hotspot_tick _t ds () =
  if ds.ds_hot_threshold > 0. then begin
    let now = Unix.gettimeofday () in
    let dt = now -. ds.ds_hot_last in
    if dt >= ds.ds_hot_every then begin
      ds.ds_hot_last <- now;
      Hashtbl.iter
        (fun (table, lo, hi) r ->
          let rate = float_of_int !r /. dt in
          if rate >= ds.ds_hot_threshold then begin
            Obs.Counter.incr ds.ds_m_hot;
            Log.warn (fun m ->
                m
                  "hot range %s[%s,%s): %.0f reads/s (threshold %.0f); consider: \
                   pequod_ctl replicate %s %s %s %s REPLICA_ADDR"
                  table lo hi rate ds.ds_hot_threshold
                  (Option.value ds.ds_seed ~default:ds.ds_self)
                  table lo hi)
          end;
          r := 0)
        ds.ds_reads
    end
  end

(** Install this server's partition directory: [dir] is its copy —
    authoritative when [seed] is [None] (a [--dir-host] seed, or a
    server whose [--partition] specs fixed it at epoch 1), a follower
    copy polled from [seed] otherwise. Enables serving
    [Dir_get]/[Dir_watch]/[Dir_update], the [Migrate] driver,
    forwarding of reads and writes whose directory home is another
    server, and hotspot detection over the per-owned-range read tallies
    ([hot_threshold] reads/s over [hot_check_every]-second windows; 0
    disables). Call once, before serving; pair it with {!Remote.attach}
    on the same [dir]. *)
let set_directory t ?seed ?(hot_threshold = 0.) ?(hot_check_every = 5.0) ~dir ~self_addr
    () =
  let obs = Server.obs t.engine in
  let ds =
    { ds_dir = dir; ds_self = self_addr; ds_seed = seed;
      ds_hot_threshold = hot_threshold; ds_hot_every = hot_check_every;
      ds_hot_last = Unix.gettimeofday ();
      ds_reads = Hashtbl.create 16; ds_mig = None; ds_calls = Hashtbl.create 4;
      ds_m_epoch = Obs.gauge obs "dir.epoch";
      ds_m_keys = Obs.counter obs "migrate.keys_moved";
      ds_m_delta = Obs.counter obs "migrate.delta_replayed";
      ds_m_redirect = Obs.counter obs "migrate.redirects";
      ds_m_replica_reads = Obs.counter obs "replica.reads";
      ds_m_hot = Obs.counter obs "hotspot.detected" }
  in
  Obs.Gauge.set ds.ds_m_epoch (Directory.epoch dir);
  t.dirst <- Some ds;
  add_ticker t (hotspot_tick t ds)

(** One zero-timeout nested event-loop step (a no-op before the loop's
    first step), for threading as the [on_wait] of blocking clients
    owned by this server's loop: between the client's short waits on
    its own socket, the loop keeps serving peer traffic — which is what
    makes symmetric calls between servers deadlock-free. *)
let on_wait t () = t.nested_step ()

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
  client.alive <- false;
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

(* queue one encoded response in request order: straight to the output
   buffer unless an earlier request's slot is still unfilled *)
let enqueue_response t client wire =
  Obs.Counter.add t.m_bytes_out (String.length wire + 4);
  Obs.Histogram.observe t.m_resp_bytes (String.length wire + 4);
  if Queue.is_empty client.pending then Outbuf.add_frame client.out wire
  else Queue.add { sl_wire = Some wire } client.pending

(* ------------------------------------------------------------------ *)
(* Subscription push (§2.4): the live-cluster version of the
   simulator's coalesced Notify_batch protocol.                        *)

let subs_for t table =
  match Hashtbl.find_opt t.subs table with
  | Some im -> im
  | None ->
    let im = Interval_map.create () in
    Hashtbl.add t.subs table im;
    im

let split_addr addr =
  match String.rindex_opt addr ':' with
  | Some i -> (
    match int_of_string_opt (String.sub addr (i + 1) (String.length addr - i - 1)) with
    | Some port -> (String.sub addr 0 i, port)
    | None -> invalid_arg ("bad peer address: " ^ addr))
  | None -> invalid_arg ("bad peer address: " ^ addr)

(* push client for a subscriber address; push mode ([handshake:false])
   and a short fuse — a home server must never stall its event loop on a
   subscriber, not even for the handshake round-trip: a subscriber
   blocked in a synchronous Fetch back to this home cannot answer a
   Welcome until we answer the Fetch. Connecting stays bounded (the OS
   accepts for a busy-but-alive peer without its loop running). *)
let peer_client t addr =
  match Hashtbl.find_opt t.peers addr with
  | Some c -> c
  | None ->
    let chost, cport = split_addr addr in
    let config =
      { Net_client.connect_timeout = 2.0; call_timeout = 5.0; max_retries = 2;
        backoff = 0.05 }
    in
    let c =
      Net_client.create ~obs:(Server.obs t.engine) ~config ~handshake:false ~host:chost
        ~port:cport ()
    in
    Hashtbl.add t.peers addr c;
    c

(* a subscriber stopped taking pushes: forget every subscription it held
   and its client, so one dead peer costs bounded retries once, not per
   write forever. Not silent for a subscriber that is in fact alive: its
   periodic Sub_check no longer lists the dropped ranges, so it refetches
   and resubscribes instead of serving a frozen copy. *)
let drop_subscriber t addr =
  Hashtbl.iter
    (fun _ im ->
      let doomed = ref [] in
      Interval_map.iter im (fun h ->
          if String.equal (Interval_map.handle_data h) addr then doomed := h :: !doomed);
      List.iter (Interval_map.remove im) !doomed)
    t.subs;
  match Hashtbl.find_opt t.peers addr with
  | Some c ->
    Net_client.close c;
    Hashtbl.remove t.peers addr
  | None -> ()

(* queue one update for every subscriber whose fetched range contains
   [key]; flushed once per read batch *)
let buffer_notify t key value_opt =
  (* a write applied while this server is mid-migration of a range
     containing [key] is part of the handoff delta: the snapshot chunk
     covering it may already have been copied *)
  (match t.dirst with
  | Some { ds_mig = Some mg; _ }
    when String.compare mg.mg_lo key <= 0 && String.compare key mg.mg_hi < 0 ->
    mg.mg_delta <- (key, value_opt) :: mg.mg_delta
  | _ -> ());
  if Hashtbl.length t.subs > 0 then
    match Hashtbl.find_opt t.subs (Pequod_store.Store.table_name_of key) with
    | None -> ()
    | Some im ->
      let targets = ref [] in
      Interval_map.stab im key (fun h -> targets := Interval_map.handle_data h :: !targets);
      List.iter
        (fun dst ->
          let prev =
            match Hashtbl.find_opt t.pending_notify dst with
            | Some items -> items
            | None ->
              t.pending_order <- dst :: t.pending_order;
              []
          in
          Hashtbl.replace t.pending_notify dst ((key, value_opt) :: prev))
        (List.sort_uniq compare !targets)

(* one Notify_batch per destination with pending updates, pushed one-way
   (a response-awaiting push could deadlock two servers fetching from
   each other). A push that fails after the client's bounded retries
   drops that subscriber. *)
let flush_notifications t =
  let order = List.rev t.pending_order in
  t.pending_order <- [];
  List.iter
    (fun dst ->
      match Hashtbl.find_opt t.pending_notify dst with
      | None | Some [] -> ()
      | Some rev_items ->
        Hashtbl.remove t.pending_notify dst;
        let items = List.rev rev_items in
        (* stamp trailer: once [items] are applied, every subscribed
           range of [dst] containing one of the pushed keys is current
           through the stamp recorded here — pushes leave in write order
           per connection, so the floor over the range at flush time is
           a sound promise *)
        let stamps = ref [] in
        List.iter
          (fun (key, _) ->
            let table = Pequod_store.Store.table_name_of key in
            match Hashtbl.find_opt t.subs table with
            | None -> ()
            | Some im ->
              Interval_map.stab im key (fun h ->
                  if String.equal (Interval_map.handle_data h) dst then begin
                    let slo, shi = Interval_map.handle_range h in
                    if
                      not
                        (List.exists
                           (fun (tb, l, h', _) ->
                             String.equal tb table && String.equal l slo
                             && String.equal h' shi)
                           !stamps)
                    then
                      stamps :=
                        ( table, slo, shi,
                          Server.range_stamp t.engine ~table ~lo:slo ~hi:shi )
                        :: !stamps
                  end))
          items;
        let stamps = List.filter (fun (_, _, _, s) -> s > 0) !stamps in
        (match Net_client.post (peer_client t dst) (Message.Notify_batch { items; stamps }) with
        | () -> Obs.Counter.incr t.m_notify_out
        | exception Net_client.Net_error msg ->
          Log.warn (fun m -> m "dropping subscriber %s: %s" dst msg);
          drop_subscriber t dst))
    order

(* ------------------------------------------------------------------ *)
(* Directory mode: write forwarding, read tallies, migration start     *)

(* call-mode client for a peer named by the directory (a write forward's
   destination home). [on_wait] nested-steps this server's own loop so
   two homes forwarding to each other cannot deadlock. *)
let call_client t ds addr =
  match Hashtbl.find_opt ds.ds_calls addr with
  | Some c -> c
  | None ->
    let chost, cport = split_addr addr in
    let config =
      { Net_client.connect_timeout = 2.0; call_timeout = 10.0; max_retries = 2;
        backoff = 0.05 }
    in
    let c =
      Net_client.create ~obs:(Server.obs t.engine) ~config
        ~on_wait:(on_wait t)
        ~host:chost ~port:cport ()
    in
    Hashtbl.add ds.ds_calls addr c;
    c

(* Where must a client write for [key] be applied? [Some (ds, home)]
   when the directory names another server: after a migration flips a
   range away from this server, stale-routed writers keep sending here —
   forwarding (rather than applying to the no-longer-authoritative local
   copy) is what keeps the handoff divergence-free. *)
let forward_home t key =
  match t.dirst with
  | None -> None
  | Some ds ->
    if Directory.epoch ds.ds_dir = 0 then None (* no directory yet; apply locally *)
    else (
      match Directory.home_of ds.ds_dir ~key with
      | Some h when not (String.equal h ds.ds_self) -> Some (ds, h)
      | _ -> None)

(* Split a Put_batch by directory home, preserving per-target order;
   [None] is the local group. A server with no directory (or no epoch
   yet) yields one local group, so the static path pays one list cell. *)
let split_by_home t pairs =
  match t.dirst with
  | None -> [ (None, pairs) ]
  | Some _ ->
    let groups : (string option, (string * string) list) Hashtbl.t = Hashtbl.create 4 in
    let order = ref [] in
    List.iter
      (fun ((k, _) as p) ->
        let tgt = Option.map (fun (_, h) -> h) (forward_home t k) in
        match Hashtbl.find_opt groups tgt with
        | Some l -> Hashtbl.replace groups tgt (p :: l)
        | None ->
          order := tgt :: !order;
          Hashtbl.add groups tgt [ p ])
      pairs;
    List.rev_map (fun tgt -> (tgt, List.rev (Hashtbl.find groups tgt))) !order

let forward_call t ds dest req =
  Obs.Counter.incr ds.ds_m_redirect;
  Option.iter (fun sh -> Obs.Counter.incr sh.sm_forward_out) t.shard;
  match Net_client.call (call_client t ds dest) req with
  | resp -> resp
  | exception Net_client.Net_error msg ->
    Message.Error (Printf.sprintf "home %s: %s" dest msg)

(* Who should serve a read of entry [e]'s range? [None]: this server —
   the home or a listed replica (whose copy its subscription keeps
   fresh). Otherwise the ordered candidates to try, the home last. *)
let candidates ds (e : Message.dir_entry) =
  if String.equal e.de_home ds.ds_self || List.mem ds.ds_self e.de_replicas then None
  else Some (Directory.candidates ~self:ds.ds_self e)

(* [None] also when the key is outside the directory (join outputs,
   un-governed tables) or there is no directory epoch yet *)
let read_candidates t key =
  match t.dirst with
  | Some ds when Directory.epoch ds.ds_dir > 0 -> (
    match Directory.entry_of ds.ds_dir ~key with
    | Some e -> Option.map (fun cands -> (ds, cands)) (candidates ds e)
    | None -> None)
  | _ -> None

(* forward a read, falling through the candidate list (a dead or
   refusing replica costs one hop, not the answer). A [Stale] answer —
   a replica whose copy has not caught up to a stamped read's demand —
   also falls through: the home, always last, is authoritative and can
   never be stale. *)
let read_forward t ds cands req =
  let rec go = function
    | [] -> Message.Error "no reachable server for the range"
    | [ addr ] -> forward_call t ds addr req
    | addr :: rest -> (
      match forward_call t ds addr req with
      | Message.Error _ | Message.Stale _ -> go rest
      | resp -> resp)
  in
  go cands

(* read tallies for hotspot detection (owned ranges) and the
   replica.reads counter (ranges this server replicates) *)
let tally_read t key =
  match t.dirst with
  | None -> ()
  | Some ds -> (
    match Directory.entry_of ds.ds_dir ~key with
    | None -> ()
    | Some e ->
      if String.equal e.Message.de_home ds.ds_self then begin
        if ds.ds_hot_threshold > 0. then begin
          let k = (e.Message.de_table, e.Message.de_lo, e.Message.de_hi) in
          match Hashtbl.find_opt ds.ds_reads k with
          | Some r -> incr r
          | None -> Hashtbl.add ds.ds_reads k (ref 1)
        end
      end
      else if List.mem ds.ds_self e.Message.de_replicas then
        Obs.Counter.incr ds.ds_m_replica_reads)

(* clamp a stamp demand vector to one scan segment: entries of the
   segment's own table are cut down to their intersection with [lo, hi)
   or dropped; entries of other tables pass whole, since they may be the
   sources of the join outputs the segment holds *)
let clamp_min min ~lo ~hi =
  let table = Pequod_store.Store.table_name_of lo in
  List.filter_map
    (fun ((dtable, dlo, dhi, s) as d) ->
      if String.compare dlo hi < 0 && String.compare lo dhi < 0 then
        Some
          ( dtable,
            (if String.compare lo dlo < 0 then dlo else lo),
            (if String.compare dhi hi < 0 then dhi else hi),
            s )
      else if String.equal dtable table then None
      else Some d)
    min

(* Synchronously re-establish a demand: drop the unprovable copies,
   then touch each dropped range through the engine so the resolver
   refetches it inline and re-records the owner's stamp. The
   serving read need not scan the ranges it demands (a timeline read
   demands its sources), so dropping alone is not enough — derived
   data computed from the dropped copy stays resident and would be
   served stale. Returns the ranges still unmet afterwards: non-empty
   means freshness cannot be proven here (deferred resolver, or the
   owner is unreachable) and the caller must answer the typed [Stale]
   rather than serve data the push never refreshed. *)
let heal_demand t unmet min =
  List.iter
    (fun (table, lo, hi, _) -> Server.unmark_present t.engine ~table ~lo ~hi)
    unmet;
  List.iter
    (fun (_, lo, hi, _) ->
      match Server.scan_result ~may_defer:false t.engine ~lo ~hi with
      | _ -> ()
      | exception _ -> ())
    unmet;
  Server.stamp_unsatisfied t.engine min

(* merge two key-sorted pair lists, dropping duplicate keys (a fetched
   copy on one shard duplicates the owner's pair; a join output is
   computed identically on every shard that materialized it). Left
   wins on ties, so the serving shard's freshly computed value is kept.
   Of two lists whose keys do not interleave it is the concatenation. *)
let merge_dedup a b =
  let rec go acc a b =
    match (a, b) with
    | [], l | l, [] -> List.rev_append acc l
    | ((ka, _) as x) :: a', ((kb, _) as y) :: b' ->
      let c = String.compare ka kb in
      if c < 0 then go (x :: acc) a' b
      else if c > 0 then go (y :: acc) a b'
      else go (x :: acc) a' b'
  in
  go [] a b

(* A directory-routed scan is served piecewise: segments of [lo, hi)
   homed (or replicated) here scan the local engine, segments homed
   elsewhere forward a clamped [Scan] to a replica or the home, and
   gaps the directory does not cover (join outputs, un-governed tables)
   stay local. A range spanning tables cannot be cut by wildcard
   entries: a request the shard acceptor handed in ([spread]) is spread
   instead, every wildcard home serving the whole range from what it
   holds (the local leg first); any other — a spread leg among them —
   is served here, so a leg is never spread again. [None] when no
   segment is remote: the scan then takes the ordinary local path,
   parking on a miss like any other. *)
let remote_segments t ~spread ~lo ~hi =
  match t.dirst with
  | Some ds when Directory.epoch ds.ds_dir > 0 -> (
    let segs =
      match Directory.segments (Directory.entries ds.ds_dir) ~lo ~hi with
      | `Cut pieces ->
        List.map (fun (e, slo, shi) -> (Option.bind e (candidates ds), slo, shi)) pieces
      | `Spread homes when spread ->
        (None, lo, hi)
        :: List.filter_map
             (fun h -> if String.equal h ds.ds_self then None else Some (Some [ h ], lo, hi))
             homes
      | `Spread _ -> []
    in
    if List.for_all (fun (tgt, _, _) -> tgt = None) segs then None else Some (ds, segs))
  | _ -> None

(* Serve [remote_segments]' pieces and merge them in key order. Local
   segments have no parked slot to wait in, so their misses fetch
   inline.

   [min] is a stamped read's demand vector ([] for plain scans): when a
   segment is served here, local pieces below a demanded stamp heal
   synchronously ([heal_demand]), and remote segments forward a clamped
   [Scan_at] so each candidate enforces the demand on its own copy (a
   stale replica answers [Stale] and [read_forward] falls through to the
   home). *)
let scan_segments t ds ~min segs =
  let still_unmet =
    if min = [] || List.for_all (fun (tgt, _, _) -> tgt <> None) segs then []
    else
      in_engine t (fun () ->
          match Server.stamp_unsatisfied t.engine min with
          | [] -> []
          | unmet ->
            Obs.Counter.incr t.m_stale_waits;
            heal_demand t unmet min)
  in
  match still_unmet with
  | _ :: _ as still ->
    Obs.Counter.incr t.m_stale_errors;
    Message.Stale still
  | [] ->
    let err = ref None in
    let stale = ref [] in
    let fail m = if !err = None then err := Some m in
    let parts =
      List.map
        (fun (tgt, slo, shi) ->
          match tgt with
          | None -> (
            match
              in_engine t (fun () -> Server.scan_result ~may_defer:false t.engine ~lo:slo ~hi:shi)
            with
            | `Ok pairs -> pairs
            | `Missing ((mt, mlo, mhi) :: _) ->
              fail
                (Printf.sprintf "missing base range %s[%s,%s): owning peer unreachable"
                   mt mlo mhi);
              []
            | `Missing [] -> []
            | exception e ->
              fail (Printexc.to_string e);
              [])
          | Some cands -> (
            let seg_req =
              match clamp_min min ~lo:slo ~hi:shi with
              | [] -> Message.Scan { lo = slo; hi = shi }
              | m -> Message.Scan_at { lo = slo; hi = shi; min = m }
            in
            match read_forward t ds cands seg_req with
            | Message.Pairs pairs -> pairs
            | Message.Stale st ->
              stale := st @ !stale;
              []
            | Message.Error m ->
              fail m;
              []
            | _ ->
              fail "unexpected scan response";
              []))
        segs
    in
    (match (!stale, !err) with
    | _ :: _, _ -> Message.Stale !stale
    | [], Some m -> Message.Error m
    | [], None -> Message.Pairs (List.fold_left merge_dedup [] parts))

(* start a [Migrate]: validate against the directory, then hand off to
   the per-step pump ([pump_migration]); the requesting connection is
   answered only when the handoff completes (or fails) *)
let start_migration t client ~table ~lo ~hi ~dest =
  match t.dirst with
  | None -> Some (Message.Error "no partition directory on this server")
  | Some ds ->
    if ds.ds_mig <> None then Some (Message.Error "a migration is already in progress")
    else if Directory.epoch ds.ds_dir = 0 then
      Some (Message.Error "no directory epoch yet; seed the directory first")
    else if String.equal dest ds.ds_self then
      Some (Message.Error "destination is this server")
    else begin
      (* dry-run the flip now so a doomed migration fails before any
         data moves: the range must be fully covered, by one home *)
      match Directory.assign (Directory.entries ds.ds_dir) ~table ~lo ~hi ~home:dest with
      | Error msg -> Some (Message.Error msg)
      | Ok _ ->
        if not (Directory.home_of ds.ds_dir ~key:lo = Some ds.ds_self) then
          Some
            (Message.Error
               (Printf.sprintf "this server is not the home of %s[%s,%s)" table lo hi))
        else begin
          Log.app (fun m -> m "migrating %s[%s,%s) to %s" table lo hi dest);
          ds.ds_mig <-
            Some
              { mg_table = table; mg_lo = lo; mg_hi = hi; mg_dest = dest;
                mg_cursor = lo; mg_delta = []; mg_keys = 0; mg_deltas = 0;
                mg_reply = client.fd };
          None (* deferred: the pump answers on completion *)
        end
    end

(* ------------------------------------------------------------------ *)
(* Parked scans: a miss never blocks the loop                          *)

(* a parked scan that keeps discovering new ranges (each feed can unlock
   further check-gated value ranges) retries at most this many times *)
let max_park_retries = 64

let missing_error = function
  | (table, flo, fhi) :: _ ->
    Message.Error
      (Printf.sprintf "missing base range %s[%s,%s): owning peer unreachable" table flo fhi)
  | [] -> Message.Error "missing base range: owning peer unreachable"

(* fill a deferred response slot and flush whatever prefix is ready *)
let fill_slot t client slot response =
  let wire = Message.encode_response response in
  Obs.Counter.add t.m_bytes_out (String.length wire + 4);
  Obs.Histogram.observe t.m_resp_bytes (String.length wire + 4);
  slot.sl_wire <- Some wire;
  if client.alive then begin
    flush_ready client;
    flush_output t client
  end

(* Park a scan whose base ranges are missing: enqueue its in-order
   response slot, hand the full missing set to the fetcher, and retry
   the scan when the fetches land. A retry may surface ranges that were
   unreachable before the feed (a check source gates which value ranges
   are scanned), so the loop runs until the scan completes or the retry
   budget is spent. The connection stays live throughout: later
   pipelined requests are served (their responses queue behind this
   slot) and other connections never notice — the miss no longer
   head-of-line blocks the loop.

   [slot] reuses an already-enqueued response slot: a stamped read that
   parked for freshness first and then found ranges missing keeps its
   pipeline position. *)
let park_scan ?slot t client ~lo ~hi ranges =
  Obs.Counter.incr t.m_scan_parked;
  let fetcher = match t.fetcher with Some f -> f | None -> assert false in
  let slot =
    match slot with
    | Some s -> s
    | None ->
      let s = { sl_wire = None } in
      Queue.add s client.pending;
      s
  in
  let t0 = Obs.now_ns () in
  let tries = ref 0 in
  let finish response =
    Obs.Histogram.observe t.m_fetch_wait (Obs.now_ns () - t0);
    fill_slot t client slot response
  in
  let rec attempt ranges =
    fetcher ranges (fun ~ok ->
        if not ok then finish (missing_error ranges)
        else
          match Server.scan_result t.engine ~lo ~hi with
          | `Ok pairs -> finish (Message.Pairs pairs)
          | `Missing ranges' ->
            incr tries;
            if !tries > max_park_retries then finish (missing_error ranges')
            else attempt ranges'
          | exception e -> finish (Message.Error (Printexc.to_string e)))
  in
  attempt ranges

(* ------------------------------------------------------------------ *)
(* Parked stamped reads: freshness never blocks the loop either        *)

(* The push normally lands within one event-loop step of the write ack
   (the owner flushes notifications in the same cycle as the ack), so a
   short grace is enough; past it a refetch — one fetch round trip — is
   far cheaper than keeping the reader parked. *)
let stamp_refetch_after_ns = 5_000_000 (* give the push 5ms to catch up *)
let stamp_deadline_ns = 2_000_000_000 (* then the read fails [Stale] *)

(* park a stamped read whose demand is not yet satisfied; the per-step
   pump below re-checks it *)
let park_stamped t client req ~min =
  let slot = { sl_wire = None } in
  Queue.add slot client.pending;
  t.stamp_waits <-
    { sw_client = client; sw_slot = slot; sw_req = req; sw_min = min;
      sw_t0 = Obs.now_ns (); sw_refetched = false; sw_fetching = false;
      sw_fetch_failed = false }
    :: t.stamp_waits

(* One pump pass over the parked stamped reads, called once per step:
   a wait whose demand the subscription push has satisfied is served; a
   wait older than [stamp_refetch_after_ns] drops its stale pieces so
   the serve refetches them from their owner; a wait older than
   [stamp_deadline_ns] fails with the typed [Stale] carrying the unmet
   sub-ranges. *)
let pump_stamp_waits t =
  match t.stamp_waits with
  | [] -> ()
  | waits ->
    t.stamp_waits <- [];
    let keep = ref [] in
    List.iter
      (fun w ->
        if w.sw_client.alive then begin
          let serve () =
            (* serving re-enters the engine (and may park on missing
               ranges): flag it like any request handler *)
            in_engine t @@ fun () ->
            Obs.Histogram.observe t.m_stamp_wait (Obs.now_ns () - w.sw_t0);
            match w.sw_req with
            | Message.Get_at { key; _ } ->
              let resp =
                match Server.get t.engine key with
                | v -> Message.Value v
                | exception e -> Message.Error (Printexc.to_string e)
              in
              fill_slot t w.sw_client w.sw_slot resp
            | Message.Scan_at { lo; hi; _ } -> (
              match Server.scan_result t.engine ~lo ~hi with
              | `Ok pairs -> fill_slot t w.sw_client w.sw_slot (Message.Pairs pairs)
              | `Missing ranges when t.fetcher <> None ->
                park_scan ~slot:w.sw_slot t w.sw_client ~lo ~hi ranges
              | `Missing missing -> fill_slot t w.sw_client w.sw_slot (missing_error missing)
              | exception e ->
                fill_slot t w.sw_client w.sw_slot (Message.Error (Printexc.to_string e)))
            | _ -> assert false
          in
          match Server.stamp_unsatisfied t.engine w.sw_min with
          | [] -> serve ()
          | unmet ->
            let waited = Obs.now_ns () - w.sw_t0 in
            if waited >= stamp_deadline_ns then begin
              Obs.Counter.incr t.m_stale_errors;
              Obs.Histogram.observe t.m_stamp_wait waited;
              fill_slot t w.sw_client w.sw_slot (Message.Stale unmet)
            end
            else begin
              if waited >= stamp_refetch_after_ns && not w.sw_refetched then begin
                (* the push is not catching up: drop the stale copies
                   and fetch them back explicitly. The serve need not
                   scan the ranges it demands (a timeline read demands
                   its sources), so dropping alone would let derived
                   data the push never refreshed be served as fresh —
                   only a completed refetch, which re-records the
                   owner's stamp, discharges the demand. *)
                w.sw_refetched <- true;
                List.iter
                  (fun (table, lo, hi, _) -> Server.unmark_present t.engine ~table ~lo ~hi)
                  unmet;
                (* only a server with a fetcher parks stamped reads *)
                Option.iter
                  (fun fetch ->
                    w.sw_fetching <- true;
                    fetch
                      (List.map (fun (table, lo, hi, _) -> (table, lo, hi)) unmet)
                      (fun ~ok ->
                        w.sw_fetching <- false;
                        if not ok then w.sw_fetch_failed <- true))
                  t.fetcher
              end;
              if w.sw_fetch_failed then begin
                (* the owner is unreachable: freshness cannot be
                   re-established, so fail honestly and fast *)
                Obs.Counter.incr t.m_stale_errors;
                Obs.Histogram.observe t.m_stamp_wait waited;
                fill_slot t w.sw_client w.sw_slot (Message.Stale unmet)
              end
              else if
                w.sw_refetched && (not w.sw_fetching)
                && Server.stamp_unsatisfied t.engine w.sw_min = []
              then serve ()
              else keep := w :: !keep
            end
        end)
      waits;
    t.stamp_waits <- !keep @ t.stamp_waits

(* Serve a stamped read: answer immediately when the demand is already
   satisfied; otherwise park on the async path (fetcher present), or —
   on the blocking path — heal synchronously by unmarking the stale
   pieces so the engine's resolver refetches them inline during the
   read. *)
let serve_stamped t client ~may_park req ~min =
  let answer () =
    match req with
    | Message.Get_at { key; _ } -> (
      match Server.get t.engine key with
      | v -> Some (Message.Value v)
      | exception e -> Some (Message.Error (Printexc.to_string e)))
    | Message.Scan_at { lo; hi; _ } -> (
      match Server.scan_result t.engine ~lo ~hi with
      | `Ok pairs -> Some (Message.Pairs pairs)
      | `Missing ranges ->
        if t.fetcher <> None && may_park then begin
          park_scan t client ~lo ~hi ranges;
          None
        end
        else Some (missing_error ranges)
      | exception e -> Some (Message.Error (Printexc.to_string e)))
    | _ -> assert false
  in
  match Server.stamp_unsatisfied t.engine min with
  | [] -> answer ()
  | unmet ->
    Obs.Counter.incr t.m_stale_waits;
    if t.fetcher <> None && may_park then begin
      park_stamped t client req ~min;
      None
    end
    else begin
      match heal_demand t unmet min with
      | [] -> answer ()
      | still ->
        Obs.Counter.incr t.m_stale_errors;
        Some (Message.Stale still)
    end

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)

(* [None] for one-way requests: they produce no response frame.
   [may_park] marks call sites whose result is returned to [client]
   directly (so a scan may defer its response into a slot); composite
   paths — a piece of a segmented scan — must get an immediate answer. *)
let handle_local ?(may_park = false) t client req =
  in_engine t @@ fun () ->
  match req with
  | Message.Fetch { table; lo; hi; subscriber } -> (
    Obs.Counter.incr t.m_fetch_in;
    tally_read t lo;
    match
      (* directory mode: refuse to grant a subscription on a range the
         directory homes elsewhere (unless this server replicates it —
         a replica's copy is subscription-fresh, so middleman serving
         is sound). A post-migration straggler fetching from the old
         home gets an error and replans off its refreshed directory,
         instead of a frozen snapshot. *)
      match t.dirst with
      | Some ds when Directory.epoch ds.ds_dir > 0 -> (
        match Directory.entry_of ds.ds_dir ~key:lo with
        | Some e
          when (not (String.equal e.Message.de_home ds.ds_self))
               && not (List.mem ds.ds_self e.Message.de_replicas) ->
          Some e.Message.de_home
        | _ -> None)
      | _ -> None
    with
    | Some home ->
      Some
        (Message.Error
           (Printf.sprintf "not the home for %s[%s,%s) (directory names %s)" table lo hi
              home))
    | None -> (
    (* refetches of the same range by the same subscriber (eviction
       pressure, subscription healing) are idempotent on the subs
       table: an identical live entry is reused, never duplicated,
       so a long-lived subscriber cannot grow it without bound *)
    let im = subs_for t table in
    let already = ref false in
    Interval_map.iter_overlapping im ~lo ~hi (fun h ->
        if
          (not !already)
          && Interval_map.handle_range h = (lo, hi)
          && String.equal (Interval_map.handle_data h) subscriber
        then already := true);
    (* install the subscription before snapshotting: a write landing
       in between is pushed as well, and the duplicate application
       at the subscriber is idempotent *)
    let handle =
      if subscriber = "" || !already then None
      else Some (Interval_map.add im ~lo ~hi subscriber)
    in
    match Server.scan_result t.engine ~lo ~hi with
    | `Ok pairs ->
      (* the stamp this snapshot is current through: the subscriber
         records it, and session reads demand at least it *)
      Some (Message.Subscribed { stamp = Server.range_stamp t.engine ~table ~lo ~hi; pairs })
    | `Missing _ ->
      (* this server does not own the range; rescind the subscription *)
      Option.iter (Interval_map.remove (subs_for t table)) handle;
      Some (Message.Error (Printf.sprintf "not the home for %s[%s,%s)" table lo hi))
    | exception e ->
      Option.iter (Interval_map.remove (subs_for t table)) handle;
      Some (Message.Error (Printexc.to_string e))))
  | Message.Sub_check { subscriber } ->
    (* subscription heartbeat: report every range still pushed to
       this subscriber, so it can detect (and heal) a drop *)
    let ranges = ref [] in
    Hashtbl.iter
      (fun table im ->
        Interval_map.iter im (fun h ->
            if String.equal (Interval_map.handle_data h) subscriber then begin
              let lo, hi = Interval_map.handle_range h in
              ranges := (table, lo, hi) :: !ranges
            end))
      t.subs;
    Some (Message.Sub_ranges (List.sort compare !ranges))
  | Message.Notify_put (k, v) ->
    ignore (Message.apply_to_server t.engine req);
    Obs.Counter.incr t.m_notify_in;
    buffer_notify t k (Some v);
    None
  | Message.Notify_remove k ->
    ignore (Message.apply_to_server t.engine req);
    Obs.Counter.incr t.m_notify_in;
    buffer_notify t k None;
    None
  | Message.Notify_batch { items; _ } ->
    (* [apply_to_server] applies the items and records the stamp
       trailer, so the freshness promise lands with the data *)
    ignore (Message.apply_to_server t.engine req);
    Obs.Counter.incr t.m_notify_in;
    List.iter (fun (k, v) -> buffer_notify t k v) items;
    None
  | Message.Put (k, v) ->
    let resp = Message.apply_to_server t.engine req in
    buffer_notify t k (Some v);
    Some resp
  | Message.Remove k ->
    let resp = Message.apply_to_server t.engine req in
    buffer_notify t k None;
    Some resp
  | Message.Put_batch pairs ->
    let resp = Message.apply_to_server t.engine req in
    List.iter (fun (k, v) -> buffer_notify t k (Some v)) pairs;
    Some resp
  | Message.Scan { lo; hi } -> (
    match t.fetcher with
    | Some _ when may_park -> (
      match Server.scan_result t.engine ~lo ~hi with
      | `Ok pairs -> Some (Message.Pairs pairs)
      | `Missing ranges ->
        park_scan t client ~lo ~hi ranges;
        None
      | exception e -> Some (Message.Error (Printexc.to_string e)))
    | _ -> Some (Message.apply_to_server t.engine req))
  | Message.Get_at { min; _ } | Message.Scan_at { min; _ } ->
    serve_stamped t client ~may_park req ~min
  | Message.Dir_get | Message.Dir_watch _ | Message.Dir_update _ -> (
    match t.dirst with
    | None -> Some (Message.Error "no partition directory on this server")
    | Some ds -> (
      let state () =
        Message.Dir_state
          { epoch = Directory.epoch ds.ds_dir; entries = Directory.entries ds.ds_dir }
      in
      match req with
      | Message.Dir_get -> Some (state ())
      | Message.Dir_watch { epoch } ->
        if Directory.epoch ds.ds_dir > epoch then Some (state ()) else Some Message.Done
      | Message.Dir_update { epoch; entries } -> (
        match Directory.install ds.ds_dir ~epoch ~entries with
        | Ok () ->
          Obs.Gauge.set ds.ds_m_epoch epoch;
          Log.info (fun m ->
              m "directory updated to epoch %d (%d entries)" epoch (List.length entries));
          Some Message.Done
        | Error msg -> Some (Message.Error msg))
      | _ -> assert false))
  | Message.Migrate { table; lo; hi; dest } -> start_migration t client ~table ~lo ~hi ~dest
  | req -> Some (Message.apply_to_server t.engine req)

(* Route one keyed request by the partition directory, before entering
   the engine: a write whose home is another server is forwarded there,
   a point read goes to a replica or the home, and a scan is cut into
   segments served where they live. Forwards block in nested steps with
   no engine call on the stack, so this loop keeps servicing its fetcher
   sockets meanwhile — a ring of shards forwarding into each other's
   parked scans drains instead of deadlocking. *)
let route t client req =
  match req with
  | Message.Put (k, _) | Message.Remove k -> (
    match forward_home t k with
    | Some (ds, dest) -> Some (forward_call t ds dest req)
    | None -> handle_local t client req)
  | Message.Put_batch pairs -> (
    match split_by_home t pairs with
    | [] | [ (None, _) ] -> handle_local t client req
    | groups ->
      let ds = Option.get t.dirst in
      let err = ref None in
      let vec = ref [] in
      List.iter
        (fun (target, sub) ->
          let sub = Message.Put_batch sub in
          match
            match target with
            | None -> handle_local t client sub
            | Some dest -> Some (forward_call t ds dest sub)
          with
          | Some (Message.Stamps s) -> vec := s :: !vec
          | Some Message.Done | None -> ()
          | Some (Message.Error m) -> if !err = None then err := Some m
          | Some _ -> if !err = None then err := Some "unexpected forward response")
        groups;
      Some
        (match !err with
        | None -> Message.Stamps (List.concat (List.rev !vec))
        | Some m -> Message.Error m))
  | Message.Get key | Message.Get_at { key; _ } -> (
    (match req with Message.Get_at _ -> Obs.Counter.incr t.m_session_reads | _ -> ());
    tally_read t key;
    match read_candidates t key with
    | Some (ds, cands) -> Some (read_forward t ds cands req)
    | None -> handle_local ~may_park:true t client req)
  | Message.Scan { lo; hi } | Message.Scan_at { lo; hi; _ } -> (
    let min = match req with Message.Scan_at { min; _ } -> min | _ -> [] in
    if min <> [] then Obs.Counter.incr t.m_session_reads;
    tally_read t lo;
    match remote_segments t ~spread:client.injected ~lo ~hi with
    | Some (ds, segs) -> Some (scan_segments t ds ~min segs)
    | None -> handle_local ~may_park:true t client req)
  | _ -> handle_local ~may_park:true t client req

(* A shard routes like any directory server, with three differences. A
   client's [Add_join] is installed on every shard, each materializing
   the join for the slices its clients scan, and a client's [Stats_full]
   merges every shard's registry. The directory is fixed. The keyed
   requests and joins a sibling sends count as [shard.forward.in]. *)
let dispatch_shard t sh client req =
  Obs.Counter.incr sh.sm_ops;
  if client.injected then Obs.Counter.incr sh.sm_client_ops;
  match req with
  | Message.Dir_update _ | Message.Migrate _ ->
    Some (Message.Error "a shard's partition directory is fixed")
  | Message.Add_join _ when client.injected -> (
    match handle_local t client req with
    | Some Message.Done ->
      let ds = Option.get t.dirst in
      Some
        (List.fold_left
           (fun acc addr ->
             match (acc, forward_call t ds addr req) with
             | Message.Done, Message.Done -> Message.Done
             | Message.Done, (Message.Error _ as e) -> e
             | Message.Done, _ -> Message.Error "unexpected forward response"
             | e, _ -> e)
           Message.Done
           (List.filteri (fun i _ -> i <> sh.sh_self) sh.sh_addrs))
    | other -> other)
  | Message.Stats_full when client.injected ->
    let ds = Option.get t.dirst in
    let snapshot i addr =
      if i = sh.sh_self then Server.metrics_snapshot t.engine
      else
        match Net_client.call (call_client t ds addr) Message.Stats_full with
        | Message.Metrics m -> m
        | _ -> []
        | exception Net_client.Net_error msg ->
          Log.warn (fun m -> m "stats from shard %d failed: %s" i msg);
          []
    in
    Some (Message.Metrics (sh.sh_merge (List.mapi (fun i a -> (i, snapshot i a)) sh.sh_addrs)))
  | Message.Get _ | Message.Put _ | Message.Remove _ | Message.Put_batch _ | Message.Scan _
  | Message.Get_at _ | Message.Scan_at _ | Message.Add_join _
    when not client.injected ->
    Obs.Counter.incr sh.sm_forward_in;
    route t client req
  | _ -> route t client req

let dispatch t client req =
  match t.shard with
  | None -> route t client req
  | Some sh -> dispatch_shard t sh client req

(* one frame, decoded straight out of the receive buffer (no copy) *)
let handle_frame t client buf ~off ~len =
  Obs.Counter.incr t.m_rpcs;
  Obs.Histogram.observe t.m_req_bytes len;
  let resp =
    match Message.decode_request_view buf ~off ~len with
    | req ->
      (* per-kind RPC tally; pequod's whole evaluation counts messages *)
      Obs.Counter.incr t.m_rpc_kind.(Message.request_kind_index req);
      dispatch t client req
    | exception Message.Protocol_error msg ->
      Some (Message.Error ("protocol error: " ^ msg))
    | exception e -> Some (Message.Error (Printexc.to_string e))
  in
  match resp with
  | None -> ()
  | Some response -> enqueue_response t client (Message.encode_response response)

(* receive buffers for [handle_readable]: a pool rather than one shared
   buffer because a nested step (serving while blocked on a sibling
   call) must not overwrite the outer step's in-flight frame views *)
let pop_read_buf t =
  match t.read_bufs with
  | b :: rest ->
    t.read_bufs <- rest;
    b
  | [] -> Bytes.create 65_536

let push_read_buf t b = t.read_bufs <- b :: t.read_bufs

let handle_readable t client =
  let buf = pop_read_buf t in
  Fun.protect ~finally:(fun () -> push_read_buf t buf) @@ fun () ->
  match Unix.read client.fd buf 0 (Bytes.length buf) with
  | 0 -> drop t client
  | n -> (
    Obs.Counter.add t.m_bytes_in n;
    client.busy <- true;
    match
      Fun.protect
        ~finally:(fun () -> client.busy <- false)
        (fun () ->
          (* all responses for one read are accumulated in the client's
             output buffer and flushed once: a pipelined batch (e.g. the
             CLI's --load chunks) costs one syscall out, not one per
             frame *)
          Frame.feed_bytes client.decoder buf 0 n ~frame:(handle_frame t client))
    with
    | () ->
      if Outbuf.length client.out > 0 then flush_output t client;
      (* after the whole batch: one coalesced push per subscriber *)
      flush_notifications t
    | exception Frame.Frame_too_large _ -> drop t client)
  | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop t client

let register t fd ~injected =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let client =
    { fd; peer = peer_name fd; decoder = Frame.decoder (); out = Outbuf.create ();
      want_write = false; busy = false; injected; pending = Queue.create ();
      alive = true }
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
(* Migration pump: drives at most one live range handoff, one bounded
   batch of work per event-loop step, so the source keeps serving
   while the copy runs.                                                *)

exception Mig_fail of string

(* a blocking (no [on_wait]) client for the final replay-and-flip: while
   it is in flight this loop processes nothing, so no write can land
   between the last delta item and the epoch flip *)
let mig_client t addr =
  let chost, cport = split_addr addr in
  let config =
    { Net_client.connect_timeout = 2.0; call_timeout = 15.0; max_retries = 2;
      backoff = 0.05 }
  in
  Net_client.create ~obs:(Server.obs t.engine) ~config ~host:chost ~port:cport ()

let mig_barrier c =
  (* any synchronous, locally-handled call: the response proves every
     frame posted before it on this connection has been applied (frames
     are processed in order per connection). Dir_get is answered from
     the destination's own directory copy and never forwarded — a [Get]
     for a key in the moving range would bounce straight back to this
     (blocked) server, because the destination still routes the range
     here until the epoch flips. *)
  match Net_client.call c Message.Dir_get with
  | Message.Dir_state _ -> ()
  | Message.Error msg -> raise (Mig_fail msg)
  | _ -> raise (Mig_fail "unexpected barrier response")
  | exception Net_client.Net_error msg -> raise (Mig_fail msg)

(* feed [items] ((key, Some v | None) in write order) to [c] as posted
   Notify_batch frames. Notify — not Put — so the receiver applies them
   locally instead of re-forwarding through its own directory (which
   still names this server as the range's home until the flip). *)
let mig_feed c items =
  let rec chunks = function
    | [] -> ()
    | items ->
      let rec take n acc = function
        | rest when n = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> take (n - 1) (x :: acc) rest
      in
      let batch, rest = take 1024 [] items in
      (match Net_client.post c (Message.Notify_batch { items = batch; stamps = [] }) with
      | () -> ()
      | exception Net_client.Net_error msg -> raise (Mig_fail msg));
      chunks rest
  in
  chunks items

let finish_migration t ds mg resp =
  ds.ds_mig <- None;
  (match resp with
  | Message.Error msg ->
    Log.err (fun m ->
        m
          "migration of %s[%s,%s) to %s failed after %d keys: %s (directory unchanged; \
           re-run the migration)"
          mg.mg_table mg.mg_lo mg.mg_hi mg.mg_dest mg.mg_keys msg)
  | _ ->
    Log.app (fun m ->
        m "migration of %s[%s,%s) to %s complete: %d keys, %d delta writes" mg.mg_table
          mg.mg_lo mg.mg_hi mg.mg_dest mg.mg_keys mg.mg_deltas));
  match Hashtbl.find_opt t.conns mg.mg_reply with
  | None -> () (* the requesting ctl client went away *)
  | Some client ->
    enqueue_response t client (Message.encode_response resp);
    flush_output t client

(* the copy is done: atomically replay the delta, flip the directory
   epoch, hand over subscribers, and release local ownership *)
let complete_migration t ds mg =
  let { mg_table = table; mg_lo = lo; mg_hi = hi; mg_dest = dest; _ } = mg in
  let destc = mig_client t dest in
  Fun.protect ~finally:(fun () -> Net_client.close destc) @@ fun () ->
  (* 1. replay the write delta captured during the copy. [destc] never
     nested-steps this loop, so nothing can append to the delta (or
     write to the range at all) until the flip below is visible. *)
  let rec drain () =
    match mg.mg_delta with
    | [] -> ()
    | d ->
      mg.mg_delta <- [];
      let items = List.rev d in
      mg.mg_deltas <- mg.mg_deltas + List.length items;
      Obs.Counter.add ds.ds_m_delta (List.length items);
      mig_feed destc items;
      drain ()
  in
  drain ();
  (* hand the range's version stamps over before the flip: the new
     home's counter must continue where this one stops, or a session's
     acked stamp could exceed anything the new home ever issues *)
  (let stamp_trailer =
     List.filter_map
       (fun (tb, slo, shi, s) ->
         if
           String.equal tb table
           && String.compare slo hi < 0
           && String.compare lo shi < 0
         then
           Some
             ( tb,
               (if String.compare slo lo < 0 then lo else slo),
               (if String.compare hi shi < 0 then hi else shi),
               s )
         else None)
       (Server.stamp_ranges t.engine)
   in
   if stamp_trailer <> [] then
     match
       Net_client.post destc (Message.Notify_batch { items = []; stamps = stamp_trailer })
     with
     | () -> ()
     | exception Net_client.Net_error msg -> raise (Mig_fail msg));
  mig_barrier destc;
  (* 2. flip the directory epoch: from this version on the cluster
     routes the range to [dest]. The directory is only ever updated
     after the destination holds the complete range, so a migration
     killed at any earlier point leaves the epoch — and reads — exactly
     where they were. *)
  let assign_or_fail entries =
    match Directory.assign entries ~table ~lo ~hi ~home:dest with
    | Ok e -> e
    | Error msg -> raise (Mig_fail msg)
  in
  let epoch', entries' =
    match ds.ds_seed with
    | None ->
      let entries' = assign_or_fail (Directory.entries ds.ds_dir) in
      let epoch' = Directory.epoch ds.ds_dir + 1 in
      (match Directory.install ds.ds_dir ~epoch:epoch' ~entries:entries' with
      | Ok () -> Obs.Gauge.set ds.ds_m_epoch epoch'
      | Error msg -> raise (Mig_fail msg));
      (epoch', entries')
    | Some seed ->
      let seedc = mig_client t seed in
      Fun.protect ~finally:(fun () -> Net_client.close seedc) @@ fun () ->
      let epoch0, entries0 =
        match Net_client.call seedc Message.Dir_get with
        | Message.Dir_state { epoch; entries } -> (epoch, entries)
        | Message.Error msg -> raise (Mig_fail ("seed: " ^ msg))
        | _ -> raise (Mig_fail "seed: unexpected Dir_get response")
        | exception Net_client.Net_error msg -> raise (Mig_fail ("seed: " ^ msg))
      in
      let entries' = assign_or_fail entries0 in
      let epoch' = epoch0 + 1 in
      (match Net_client.call seedc (Message.Dir_update { epoch = epoch'; entries = entries' }) with
      | Message.Done -> ()
      | Message.Error msg -> raise (Mig_fail ("seed: " ^ msg))
      | _ -> raise (Mig_fail "seed: unexpected Dir_update response")
      | exception Net_client.Net_error msg -> raise (Mig_fail ("seed: " ^ msg)));
      (* flip our own follower copy in the same breath: the very next
         write to the moved range must forward, not apply locally *)
      (match Directory.install ds.ds_dir ~epoch:epoch' ~entries:entries' with
      | Ok () -> Obs.Gauge.set ds.ds_m_epoch epoch'
      | Error _ -> ());
      (epoch', entries')
  in
  (* 3. tell the new home directly — its poll would learn the flip
     anyway; this closes the window where it still routes the range
     back to us *)
  (try
     ignore (Net_client.call destc (Message.Dir_update { epoch = epoch'; entries = entries' }))
   with Net_client.Net_error _ -> ());
  (* 4. hand our subscribers over: the new home installs each one
     through the ordinary Fetch path (naming the subscriber's own
     callback address), so pushes keep flowing without waiting for each
     subscriber's Sub_check heal round to notice *)
  (match Hashtbl.find_opt t.subs table with
  | None -> ()
  | Some im ->
    let handles = ref [] in
    Interval_map.iter_overlapping im ~lo ~hi (fun h -> handles := h :: !handles);
    List.iter
      (fun h ->
        let slo, shi = Interval_map.handle_range h in
        let addr = Interval_map.handle_data h in
        if not (String.equal addr dest) then begin
          let clo = if String.compare lo slo < 0 then slo else lo in
          let chi = if String.compare shi hi < 0 then shi else hi in
          try
            ignore
              (Net_client.call destc
                 (Message.Fetch { table; lo = clo; hi = chi; subscriber = addr }))
          with Net_client.Net_error _ -> ()
        end;
        (* entries fully inside the moved range are dropped (their
           subscriber hears from the new home now); a straddling entry
           keeps serving its unmoved part — its moved part can never
           fire again, because writes there no longer apply locally *)
        if String.compare lo slo <= 0 && String.compare shi hi <= 0 then
          Interval_map.remove im h)
      !handles);
  (* 5. this server no longer owns the range; its own resolver (on the
     flipped routes) now fetches it from the new home on demand *)
  Server.unmark_present t.engine ~table ~lo ~hi;
  finish_migration t ds mg
    (Message.Pairs
       [ ("keys_moved", string_of_int mg.mg_keys);
         ("delta_replayed", string_of_int mg.mg_deltas);
         ("epoch", string_of_int epoch') ])

let mig_chunk = 512 (* keys per posted snapshot batch *)
let mig_chunks_per_step = 64

(* one step's worth of copying: up to [mig_chunks_per_step] chunks
   posted to the destination, then a barrier call (which nested-steps
   this loop, so clients keep getting served while the copy cruises) *)
let pump_migration t =
  match t.dirst with
  | None -> ()
  | Some ds -> (
    match ds.ds_mig with
    | None -> ()
    | Some mg -> (
      try
        let destc = call_client t ds mg.mg_dest in
        let copied_all = ref false in
        let budget = ref mig_chunks_per_step in
        while (not !copied_all) && !budget > 0 do
          decr budget;
          match
            Server.scan_result ~limit:mig_chunk t.engine ~lo:mg.mg_cursor ~hi:mg.mg_hi
          with
          | `Missing _ -> raise (Mig_fail "this server does not hold the range")
          | `Ok pairs ->
            let n = List.length pairs in
            if n > 0 then begin
              mig_feed destc (List.map (fun (k, v) -> (k, Some v)) pairs);
              mg.mg_keys <- mg.mg_keys + n;
              Obs.Counter.add ds.ds_m_keys n
            end;
            if n = mig_chunk then mg.mg_cursor <- fst (List.nth pairs (n - 1)) ^ "\x00"
            else copied_all := true
        done;
        mig_barrier destc;
        if !copied_all then complete_migration t ds mg
      with Mig_fail msg -> finish_migration t ds mg (Message.Error msg)))

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)

(* One metrics snapshot as a single JSON line on stdout, timestamped so
   dump streams can be correlated with external logs. *)
let dump_metrics t =
  let now = Unix.gettimeofday () in
  let extra = [ ("ts", Printf.sprintf "%.3f" now) ] in
  print_endline (Obs.json_of_snapshot ~extra (Server.metrics_snapshot t.engine));
  flush stdout

let maybe_dump_metrics t =
  match t.metrics_every with
  | None -> ()
  | Some every ->
    let now = Unix.gettimeofday () in
    if now >= t.next_dump then begin
      t.next_dump <- now +. every;
      dump_metrics t
    end

(** One iteration of the event loop: wait up to [timeout] seconds for
    readiness, then accept/read/write whatever is ready.

    Re-entrant by design: a shard blocked in a synchronous sibling call
    serves its own connections through nested steps (the Net_client
    [on_wait] hook), which is what makes symmetric cross-shard calls
    deadlock-free. A nested step skips accepting, adopting injected
    connections, tickers and persistence housekeeping — and never reads
    from a connection whose request is already on the stack ([busy]) or
    from acceptor-handed (public) connections, so while blocked a shard
    only advances sibling/peer traffic. *)
let rec step ?(timeout = 1.0) t =
  if t.nested_step == no_nested then
    t.nested_step <- (fun () -> step ~timeout:0.0 t);
  let nested = t.stepping in
  t.stepping <- true;
  Fun.protect ~finally:(fun () -> t.stepping <- nested) @@ fun () ->
  let timeout =
    (* a live migration wants the pump back promptly, idle or not *)
    match t.dirst with Some { ds_mig = Some _; _ } -> 0.0 | _ -> timeout
  in
  let timeout =
    (* so do parked stamped reads: their refetch/deadline clocks tick
       even when no frame arrives *)
    if t.stamp_waits <> [] then Float.min timeout 0.002 else timeout
  in
  let events = Poller.wait t.poller ~timeout in
  List.iter
    (fun (fd, readable, writable) ->
      if fd = t.wakeup_r then (if readable then drain_wakeup t)
      else if fd = t.listener then begin
        (* accepted even while nested: connections to a shard's own
           listener are always cluster-internal (a sibling's fetch or
           forward client connecting lazily) — refusing them while
           blocked on that very sibling would deadlock the pair. Public
           traffic only ever arrives through [inject], which nested
           steps do skip. *)
        if readable then accept_clients t
      end
      else
        match Hashtbl.find_opt t.externals fd with
        | Some on_ready ->
          (* fetcher peer sockets: serviced whenever the engine is
             off-stack — a fetch completion re-runs parked scans
             through the engine, which must not re-enter an engine call
             already on the stack, but a nested step taken while merely
             blocked on a sibling forward must service them, or a ring
             of shards all waiting on each other's parked scans never
             completes any of them *)
          if not t.in_engine then in_engine t (fun () -> on_ready ~readable ~writable)
        | None -> (
          match Hashtbl.find_opt t.conns fd with
          | None -> () (* dropped earlier in this very event batch *)
          | Some client ->
            if writable then flush_output t client;
            if readable && not client.busy && not (nested && client.injected) then (
              (* [client] may have been dropped by the flush above *)
              match Hashtbl.find_opt t.conns fd with
              | Some c when c == client -> handle_readable t client
              | _ -> ())))
    events;
  if not nested then begin
    drain_injected t;
    pump_migration t;
    pump_stamp_waits t;
    Option.iter Persist.tick t.persist;
    (* tickers feed the engine (subscription heals, replica warming):
       like a request handler, they hold off fetch completions that
       would re-enter it from a nested step *)
    in_engine t (fun () -> List.iter (fun f -> f ()) t.tickers);
    maybe_dump_metrics t
  end

(** Serve until {!stop} or {!request_stop}. *)
let run t =
  while not (Atomic.get t.shutdown) do
    step t
  done

(** Close the listener, every client connection, and (after a final log
    sync) the durability manager. Must be called from the owning domain
    (after {!request_stop} + join when the loop runs elsewhere). *)
let stop t =
  Atomic.set t.shutdown true;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
  Hashtbl.reset t.conns;
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) t.externals;
  Hashtbl.reset t.externals;
  Hashtbl.iter (fun _ c -> Net_client.close c) t.peers;
  Hashtbl.reset t.peers;
  Option.iter Persist.close t.persist;
  Poller.close t.poller;
  (try Unix.close t.wakeup_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wakeup_w with Unix.Unix_error _ -> ());
  Mutex.lock t.inj_mu;
  Queue.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.inj_q;
  Queue.clear t.inj_q;
  Mutex.unlock t.inj_mu;
  try Unix.close t.listener with Unix.Unix_error _ -> ()
