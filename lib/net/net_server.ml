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
    out to every shard.

    No step ever waits on a peer. Every request to another server —
    forwards, scan legs, fetches, pushes, heartbeats, the migration
    copy and flip — goes out through the server's {!Peer} pool and
    answers through a continuation. A request whose answer is not ready
    within its own step holds an in-order response slot on its
    connection; later pipelined requests are served meanwhile and their
    responses queue behind it. *)

module Server = Pequod_core.Server
module Config = Pequod_core.Config
module Message = Pequod_proto.Message
module Frame = Pequod_proto.Frame
module Persist = Pequod_persist.Persist
module Interval_map = Pequod_store.Interval_map

let src = Logs.Src.create "pequod.server"

module Log = (val Logs.src_log src : Logs.LOG)

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
  injected : bool; (* handed over by the shard acceptor (public traffic) *)
  pending : slot Queue.t; (* unfilled/unflushed response slots, request order *)
  mutable alive : bool; (* false once dropped: late completions discard *)
}

(* A stamped read's demand ([Get_at]/[Scan_at]) the local copy does not
   yet satisfy: parked and re-checked once per step. It waits briefly
   for the subscription push to catch up, then forces a refetch by
   unmarking the stale pieces, then fails with a typed [Stale] at the
   deadline — never silently serving old data (docs/SESSIONS.md). *)
type stamp_wait = {
  sw_client : client;
  sw_min : Message.stamp_entry list;
  sw_t0 : int; (* Obs.now_ns at park *)
  sw_k : Message.stamp_entry list -> unit; (* [] once satisfied, else the unmet ranges *)
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
   posts a bounded batch of chunks per event-loop step and then waits
   for a barrier; writes landing in the range during the copy are
   captured in [mg_delta]. Once the copy is done the flip holds every
   write to the range, replays the delta and flips the directory epoch,
   so the destination never becomes the home of a range it only half
   holds. *)
type migration = {
  mg_table : string;
  mg_lo : string;
  mg_hi : string;
  mg_dest : string;
  mutable mg_cursor : string; (* next key to copy *)
  mutable mg_delta : (string * string option) list; (* captured writes, newest first *)
  mutable mg_keys : int;
  mutable mg_deltas : int;
  mutable mg_waiting : bool; (* a barrier or the flip is outstanding: the pump waits *)
  mutable mg_flipping : bool; (* the copy is done: writes to the range are held *)
  mutable mg_held : (unit -> unit) list; (* held writes' retries, newest first *)
  mg_reply : Message.response -> unit; (* answers the Migrate request *)
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
  rbuf : Bytes.t; (* receive buffer; frames are decoded straight out of it *)
  shutdown : bool Atomic.t;
  (* cross-domain handoff: the shard acceptor enqueues accepted fds and
     wakes the loop through the pipe *)
  inj_mu : Mutex.t;
  inj_q : Unix.file_descr Queue.t;
  wakeup_r : Unix.file_descr;
  wakeup_w : Unix.file_descr;
  mutable shard : shard option;
  mutable dirst : dirstate option; (* directory mode (see [set_directory]) *)
  persist : Persist.t option; (* durability manager, when --data-dir is set *)
  (* home-server subscriptions (§2.4): source table -> subscriber
     callback address per fetched range. Installed by [Fetch], stabbed
     on every client-origin write, dropped when pushes to the address
     stop getting through. *)
  subs : (string, string Interval_map.t) Hashtbl.t;
  peers : Peer.t; (* every outbound request: forwards, fetches, pushes *)
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
     full missing-range set of a parked read, it issues every fetch
     (batched per peer, single-flighted across waiters) and calls back
     once all of them completed. [None]: no routes, so no read misses. *)
  mutable fetcher : ((string * string * string) list -> (ok:bool -> unit) -> unit) option;
  m_scan_parked : Obs.Counter.t; (* scan.parked *)
  m_get : Obs.Counter.t; (* op.get: once per local Get, not per retry *)
  m_fetch_wait : Obs.Histogram.t; (* resolver.fetch.wait_ns *)
  (* stamped reads parked for freshness, re-checked once per step *)
  mutable stamp_waits : stamp_wait list;
  m_session_reads : Obs.Counter.t; (* session.reads *)
  m_stale_waits : Obs.Counter.t; (* session.stale_waits *)
  m_stale_errors : Obs.Counter.t; (* session.stale_errors *)
  m_stamp_wait : Obs.Histogram.t; (* stamp.wait_ns *)
}

(* a subscriber stopped taking pushes: forget every subscription it held,
   so one dead peer costs one failed connection, not one per write
   forever. Not silent for a subscriber that is in fact alive: its
   periodic Sub_check no longer lists the dropped ranges, so it refetches
   and resubscribes instead of serving a frozen copy. *)
let drop_subscriber subs addr =
  let doomed = ref [] in
  Hashtbl.iter
    (fun _ im ->
      Interval_map.iter im (fun h ->
          if String.equal (Interval_map.handle_data h) addr then doomed := (im, h) :: !doomed))
    subs;
  if !doomed <> [] then
    Log.warn (fun m -> m "dropping subscriber %s: pushes to it were lost" addr);
  List.iter (fun (im, h) -> Interval_map.remove im h) !doomed

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
  let subs = Hashtbl.create 8 in
  { engine; listener; poller;
    conns = Hashtbl.create 16;
    rbuf = Bytes.create 65_536;
    shutdown = Atomic.make false;
    inj_mu = Mutex.create ();
    inj_q = Queue.create ();
    wakeup_r; wakeup_w;
    shard = None;
    dirst = None;
    persist;
    subs;
    peers = Peer.create ~poller ~obs ~on_lost:(drop_subscriber subs);
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
    m_scan_parked = Obs.counter obs "scan.parked";
    m_get = Obs.counter obs "op.get";
    m_fetch_wait = Obs.histogram obs "resolver.fetch.wait_ns";
    stamp_waits = [];
    m_session_reads = Obs.counter obs "session.reads";
    m_stale_waits = Obs.counter obs "session.stale_waits";
    m_stale_errors = Obs.counter obs "session.stale_errors";
    m_stamp_wait = Obs.histogram obs "stamp.wait_ns" }

let engine t = t.engine
let persist t = t.persist
let poller_backend t = Poller.backend t.poller

(** The server's outbound pool (see {!Peer}): every request this server
    sends another one goes through it. *)
let peers t = t.peers

(** Register background work to run once per {!step} (after I/O); the
    callback is responsible for its own rate limiting. *)
let add_ticker t f = t.tickers <- t.tickers @ [ f ]

(** Install the asynchronous fetch engine (see [Remote.attach]): reads
    missing base ranges park instead of failing, and [fetcher] is handed
    the full missing set plus a completion callback. *)
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
      ds_reads = Hashtbl.create 16; ds_mig = None;
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
  if client.alive then begin
    flush_ready client;
    flush_output t client
  end

(* Start every leg at once; [k] gets their answers, in leg order, once
   the last has answered. *)
let gather legs k =
  match legs with
  | [] -> k []
  | _ ->
    let out = Array.make (List.length legs) Message.Done in
    let left = ref (Array.length out) in
    List.iteri
      (fun i leg ->
        leg (fun resp ->
            out.(i) <- resp;
            decr left;
            if !left = 0 then k (Array.to_list out)))
      legs

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

(* one Notify_batch per destination with pending updates, posted one-way
   through the peer pool; a subscriber whose connection fails is dropped
   (the pool's [on_lost]) *)
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
        Obs.Counter.incr t.m_notify_out;
        Peer.post t.peers dst (Message.Notify_batch { items; stamps }))
    order

(* ------------------------------------------------------------------ *)
(* Directory mode: forwarding, read tallies                            *)

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

(* send [req] to [dest] and answer [k] with its response; a failed peer
   answers [Error]. Forwards ride the [Parked] lane: the receiver may
   park them on its own fetches, or hold a write behind a flip. *)
let forward t ds dest req k =
  Obs.Counter.incr ds.ds_m_redirect;
  Option.iter (fun sh -> Obs.Counter.incr sh.sm_forward_out) t.shard;
  Peer.call t.peers Peer.Parked dest req (function
    | Ok resp -> k resp
    | Error msg -> k (Message.Error (Printf.sprintf "home %s: %s" dest msg)))

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
let read_forward t ds cands req k =
  let rec go = function
    | [] -> k (Message.Error "no reachable server for the range")
    | [ addr ] -> forward t ds addr req k
    | addr :: rest ->
      forward t ds addr req (function
        | Message.Error _ | Message.Stale _ -> go rest
        | resp -> k resp)
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
   segment is remote: the scan then takes the ordinary local path. *)
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

(* ------------------------------------------------------------------ *)
(* Local reads: a miss parks, never blocks the loop                    *)

(* a parked read that keeps discovering new ranges (each feed can
   unlock further check-gated value ranges) retries at most this many
   times *)
let max_park_retries = 64

let missing_error = function
  | (table, flo, fhi) :: _ ->
    Message.Error
      (Printf.sprintf "missing base range %s[%s,%s): owning peer unreachable" table flo fhi)
  | [] -> Message.Error "missing base range: owning peer unreachable"

(* Serve a local read into [k]. [read ()] runs it against the engine:
   its answer, or the base ranges it misses. A miss parks: the full
   missing set goes to the fetcher and the read retries when the fetches
   land. A retry may surface ranges that were unreachable before the
   feed (a check source gates which value ranges are scanned), so the
   loop runs until the read completes or the retry budget is spent. *)
let serve_read t read k =
  match read () with
  | `Ok resp -> k resp
  | exception e -> k (Message.Error (Printexc.to_string e))
  | `Missing ranges -> (
    match t.fetcher with
    | None -> k (missing_error ranges)
    | Some fetch ->
      Obs.Counter.incr t.m_scan_parked;
      let t0 = Obs.now_ns () in
      let finish resp =
        Obs.Histogram.observe t.m_fetch_wait (Obs.now_ns () - t0);
        k resp
      in
      let rec attempt tries ranges =
        fetch ranges (fun ~ok ->
            if not ok then finish (missing_error ranges)
            else
              match read () with
              | `Ok resp -> finish resp
              | `Missing ranges' ->
                if tries >= max_park_retries then finish (missing_error ranges')
                else attempt (tries + 1) ranges'
              | exception e -> finish (Message.Error (Printexc.to_string e)))
      in
      attempt 1 ranges)

let local_scan t ~lo ~hi k =
  serve_read t
    (fun () ->
      match Server.scan_result t.engine ~lo ~hi with
      | `Ok pairs -> `Ok (Message.Pairs pairs)
      | `Missing _ as m -> m)
    k

let local_get t key k =
  Obs.Counter.incr t.m_get;
  serve_read t
    (fun () ->
      match Server.get_result t.engine key with
      | `Ok v -> `Ok (Message.Value v)
      | `Missing _ as m -> m)
    k

(* ------------------------------------------------------------------ *)
(* Parked stamped reads: freshness never blocks the loop either        *)

(* The push normally lands within one event-loop step of the write ack
   (the owner flushes notifications in the same cycle as the ack), so a
   short grace is enough; past it a refetch — one fetch round trip — is
   far cheaper than keeping the reader parked. *)
let stamp_refetch_after_ns = 5_000_000 (* give the push 5ms to catch up *)
let stamp_deadline_ns = 2_000_000_000 (* then the read fails [Stale] *)

(* One pump pass over the parked stamped reads, called once per step:
   a wait whose demand the subscription push has satisfied is served; a
   wait older than [stamp_refetch_after_ns] drops its stale pieces and
   fetches them back; a wait older than [stamp_deadline_ns], or whose
   refetch failed, fails with the typed [Stale] carrying the unmet
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
          let settle unmet =
            Obs.Histogram.observe t.m_stamp_wait (Obs.now_ns () - w.sw_t0);
            if unmet <> [] then Obs.Counter.incr t.m_stale_errors;
            w.sw_k unmet
          in
          match Server.stamp_unsatisfied t.engine w.sw_min with
          | [] -> settle []
          | unmet ->
            let waited = Obs.now_ns () - w.sw_t0 in
            if waited >= stamp_refetch_after_ns && not w.sw_refetched then begin
              (* the push is not catching up: drop the stale copies and
                 fetch them back explicitly. The serve need not scan the
                 ranges it demands (a timeline read demands its
                 sources), so dropping alone would let derived data the
                 push never refreshed be served as fresh — only a
                 completed refetch, which re-records the owner's stamp,
                 discharges the demand. *)
              w.sw_refetched <- true;
              List.iter
                (fun (table, lo, hi, _) -> Server.unmark_present t.engine ~table ~lo ~hi)
                unmet;
              match t.fetcher with
              | None -> w.sw_fetch_failed <- true
              | Some fetch ->
                w.sw_fetching <- true;
                fetch
                  (List.map (fun (table, lo, hi, _) -> (table, lo, hi)) unmet)
                  (fun ~ok ->
                    w.sw_fetching <- false;
                    if not ok then w.sw_fetch_failed <- true)
            end;
            (* the owner is unreachable: freshness cannot be
               re-established, so fail honestly and fast *)
            if waited >= stamp_deadline_ns || w.sw_fetch_failed then settle unmet
            else if
              w.sw_refetched && (not w.sw_fetching)
              && Server.stamp_unsatisfied t.engine w.sw_min = []
            then settle []
            else keep := w :: !keep
        end)
      waits;
    t.stamp_waits <- !keep @ t.stamp_waits

(* Serve a stamped read: answer at once when the local copy already
   satisfies the demand; otherwise park until the push (or an explicit
   refetch) catches up, or answer [Stale] at the deadline. *)
let serve_stamped t client ~min ~read k =
  match Server.stamp_unsatisfied t.engine min with
  | [] -> read k
  | _ ->
    Obs.Counter.incr t.m_stale_waits;
    t.stamp_waits <-
      { sw_client = client; sw_min = min; sw_t0 = Obs.now_ns ();
        sw_k = (function [] -> read k | unmet -> k (Message.Stale unmet));
        sw_refetched = false; sw_fetching = false; sw_fetch_failed = false }
      :: t.stamp_waits

(* Serve [Scan]/[Scan_at] pieces all at once and merge them in key order
   when the last answers. Local pieces are ordinary local reads (a
   stamped one waits for its demand first); remote pieces forward a
   [Scan_at] clamped to the piece, so each candidate enforces the demand
   on its own copy (a stale replica answers [Stale] and [read_forward]
   falls through to the home). [min] is [] for plain scans. *)
let scan_segments t client ds ~min segs k =
  let leg (tgt, slo, shi) k =
    match tgt with
    | None ->
      let read = local_scan t ~lo:slo ~hi:shi in
      if min = [] then read k else serve_stamped t client ~min ~read k
    | Some cands ->
      read_forward t ds cands
        (match clamp_min min ~lo:slo ~hi:shi with
        | [] -> Message.Scan { lo = slo; hi = shi }
        | m -> Message.Scan_at { lo = slo; hi = shi; min = m })
        k
  in
  gather (List.map leg segs) (fun resps ->
      let stale, err, parts =
        List.fold_left
          (fun (stale, err, parts) resp ->
            match resp with
            | Message.Pairs pairs -> (stale, err, pairs :: parts)
            | Message.Stale st -> (st @ stale, err, parts)
            | Message.Error m -> (stale, (if err = None then Some m else err), parts)
            | _ -> (stale, (if err = None then Some "unexpected scan response" else err), parts))
          ([], None, []) resps
      in
      k
        (match (stale, err) with
        | _ :: _, _ -> Message.Stale stale
        | [], Some m -> Message.Error m
        | [], None -> Message.Pairs (List.fold_left merge_dedup [] (List.rev parts))))

(* ------------------------------------------------------------------ *)
(* Migration: the copy pump and the flip                               *)

exception Mig_fail of string

let mig_chunk = 512 (* keys per posted snapshot batch *)
let mig_chunks_per_step = 64

let in_moving mg key = String.compare mg.mg_lo key <= 0 && String.compare key mg.mg_hi < 0

(* Hold a write that [touches] the range a migration is flipping (it is
   handed the range's membership test): [retry] re-routes it once the
   flip installs (it then forwards to the new home) or fails (it then
   applies here); if the retry raises, [k] answers [Error]. [false]: not
   held. *)
let hold t touches k retry =
  match t.dirst with
  | Some { ds_mig = Some ({ mg_flipping = true; _ } as mg); _ } when touches (in_moving mg) ->
    let retry () = try retry () with e -> k (Message.Error (Printexc.to_string e)) in
    mg.mg_held <- retry :: mg.mg_held;
    true
  | _ -> false

(* the migration is over: release the held writes, which re-route by
   the directory as it now stands (forwarded to the new home after an
   install, applied here after a failure) *)
let end_migration ds mg =
  ds.ds_mig <- None;
  let held = List.rev mg.mg_held in
  mg.mg_held <- [];
  List.iter (fun retry -> retry ()) held

let fail_migration ds mg msg =
  Log.err (fun m ->
      m
        "migration of %s[%s,%s) to %s failed after %d keys: %s (directory unchanged; re-run \
         the migration)"
        mg.mg_table mg.mg_lo mg.mg_hi mg.mg_dest mg.mg_keys msg);
  end_migration ds mg;
  mg.mg_reply (Message.Error msg)

(* [k resp] for [req] sent to [addr] on [lane]; a peer failure, an
   [Error] answer or a raise in [k] fails the migration *)
let mig_call t ds mg lane addr req k =
  Peer.call t.peers lane addr req (fun reply ->
      match reply with
      | Ok (Message.Error msg) | Error msg ->
        fail_migration ds mg (if String.equal addr mg.mg_dest then msg else "seed: " ^ msg)
      | Ok resp -> (
        try k resp with
        | Mig_fail msg -> fail_migration ds mg msg
        | e -> fail_migration ds mg (Printexc.to_string e)))

(* any locally-handled call answered by the destination on the [Prompt]
   lane proves every frame posted before it has been applied (frames are
   processed in order per connection). Dir_get is answered from the
   destination's own directory copy and never forwarded — a [Get] for a
   key in the moving range would bounce straight back here, because the
   destination still routes the range to this server until the flip. *)
let mig_barrier t ds mg k =
  mig_call t ds mg Peer.Prompt mg.mg_dest Message.Dir_get (function
    | Message.Dir_state _ -> k ()
    | _ -> raise (Mig_fail "unexpected barrier response"))

(* post [items] ((key, Some v | None) in write order) to the destination
   as Notify_batch frames. Notify — not Put — so the receiver applies
   them locally instead of re-forwarding through its own directory
   (which still names this server as the range's home until the flip). *)
let mig_feed t mg items =
  let rec chunks = function
    | [] -> ()
    | items ->
      let rec take n acc = function
        | rest when n = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> take (n - 1) (x :: acc) rest
      in
      let batch, rest = take 1024 [] items in
      Peer.post t.peers mg.mg_dest (Message.Notify_batch { items = batch; stamps = [] });
      chunks rest
  in
  chunks items

(* The copy is done: flip the range to the destination, one answer at a
   time — delta and stamp trailer, a barrier, the new directory (from
   the seed, when there is one), the local install, then the
   destination's [Dir_update] and the subscriber handoff. Writes to the
   range are held from the first link to the last; everything else keeps
   being served. *)
let flip_migration t ds mg =
  let { mg_table = table; mg_lo = lo; mg_hi = hi; mg_dest = dest; _ } = mg in
  mg.mg_flipping <- true;
  (* 1. the write delta captured during the copy; held writes cannot
     add to it any more *)
  let items = List.rev mg.mg_delta in
  mg.mg_delta <- [];
  mg.mg_deltas <- mg.mg_deltas + List.length items;
  Obs.Counter.add ds.ds_m_delta (List.length items);
  mig_feed t mg items;
  (* hand the range's version stamps over before the flip: the new
     home's counter must continue where this one stops, or a session's
     acked stamp could exceed anything the new home ever issues *)
  let stamp_trailer =
    List.filter_map
      (fun (tb, slo, shi, s) ->
        if String.equal tb table && String.compare slo hi < 0 && String.compare lo shi < 0
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
    Peer.post t.peers dest (Message.Notify_batch { items = []; stamps = stamp_trailer });
  let assign entries =
    match Directory.assign entries ~table ~lo ~hi ~home:dest with
    | Ok e -> e
    | Error msg -> raise (Mig_fail msg)
  in
  (* 3. (after 2., the barrier and the seed's new directory, below) from
     this epoch on the cluster routes the range to [dest]. The
     directory is only ever updated after the destination holds the
     complete range, so a migration failing at any earlier point leaves
     the epoch — and reads — exactly where they were. *)
  let installed epoch' entries' =
    (match Directory.install ds.ds_dir ~epoch:epoch' ~entries:entries' with
    | Ok () -> Obs.Gauge.set ds.ds_m_epoch epoch'
    | Error msg -> if ds.ds_seed = None then raise (Mig_fail msg));
    (* this server no longer owns the range; its own resolver (on the
       flipped routes) fetches it from the new home on demand *)
    Server.unmark_present t.engine ~table ~lo ~hi;
    (* 4. tell the new home directly — its poll would learn the flip
       anyway; this closes the window where it still routes the range
       back here — and hand our subscribers over: the new home installs
       each one through the ordinary Fetch path (naming the subscriber's
       own callback address), so pushes keep flowing without waiting for
       each subscriber's Sub_check heal round to notice *)
    let handoff =
      match Hashtbl.find_opt t.subs table with
      | None -> []
      | Some im ->
        let handles = ref [] in
        Interval_map.iter_overlapping im ~lo ~hi (fun h -> handles := h :: !handles);
        List.filter_map
          (fun h ->
            let slo, shi = Interval_map.handle_range h in
            let addr = Interval_map.handle_data h in
            (* entries fully inside the moved range are dropped (their
               subscriber hears from the new home now); a straddling
               entry keeps serving its unmoved part — its moved part can
               never fire again, because writes there no longer apply
               locally *)
            if String.compare lo slo <= 0 && String.compare shi hi <= 0 then
              Interval_map.remove im h;
            if String.equal addr dest then None
            else
              let clo = if String.compare lo slo < 0 then slo else lo in
              let chi = if String.compare shi hi < 0 then shi else hi in
              Some (Message.Fetch { table; lo = clo; hi = chi; subscriber = addr }))
          !handles
    in
    let result =
      Message.Pairs
        [ ("keys_moved", string_of_int mg.mg_keys);
          ("delta_replayed", string_of_int mg.mg_deltas);
          ("epoch", string_of_int epoch') ]
    in
    (* All on the [Parked] lane, in this order: the new home applies the
       [Dir_update] before the forwards this server now sends it for the
       range, and before the handoff [Fetch]es, which it would refuse
       while it still named this server as the home. The held writes
       stay held until every one has answered: forwarded any earlier,
       they could reach it before its [Dir_update] and bounce back here.
       The range has flipped already, so a failure is logged, not fatal:
       a subscriber whose handoff failed heals through its Sub_check. *)
    let warn reply =
      match reply with
      | Ok (Message.Error msg) | Error msg ->
        Log.warn (fun m ->
            m "migration of %s[%s,%s): handing over to %s: %s" table lo hi dest msg)
      | Ok _ -> ()
    in
    gather
      (List.map
         (fun req k ->
           Peer.call t.peers Peer.Parked dest req (fun reply ->
               warn reply;
               k Message.Done))
         (Message.Dir_update { epoch = epoch'; entries = entries' } :: handoff))
      (fun _ ->
        Log.app (fun m ->
            m "migration of %s[%s,%s) to %s complete: %d keys, %d delta writes" table lo hi
              dest mg.mg_keys mg.mg_deltas);
        end_migration ds mg;
        mg.mg_reply result)
  in
  (* 2. the barrier proves the destination applied the delta; then the
     new directory: assigned here, or at the seed when there is one *)
  mig_barrier t ds mg (fun () ->
      match ds.ds_seed with
      | None ->
        let entries' = assign (Directory.entries ds.ds_dir) in
        installed (Directory.epoch ds.ds_dir + 1) entries'
      | Some seed ->
        mig_call t ds mg Peer.Prompt seed Message.Dir_get (function
          | Message.Dir_state { epoch; entries } ->
            let entries' = assign entries in
            (* [Parked], with forwards: one sent to the seed after it
               finds the seed on the new epoch *)
            mig_call t ds mg Peer.Parked seed
              (Message.Dir_update { epoch = epoch + 1; entries = entries' })
              (function
                | Message.Done -> installed (epoch + 1) entries'
                | _ -> raise (Mig_fail "seed: unexpected Dir_update response"))
          | _ -> raise (Mig_fail "seed: unexpected Dir_get response")))

(* one step's worth of copying: up to [mig_chunks_per_step] chunks
   posted to the destination, then a barrier the pump waits on; the
   last barrier starts the flip *)
let pump_migration t =
  match t.dirst with
  | Some ({ ds_mig = Some mg; _ } as ds) when not mg.mg_waiting -> (
    try
      let copied_all = ref false in
      let budget = ref mig_chunks_per_step in
      while (not !copied_all) && !budget > 0 do
        decr budget;
        match Server.scan_result ~limit:mig_chunk t.engine ~lo:mg.mg_cursor ~hi:mg.mg_hi with
        | `Missing _ -> raise (Mig_fail "this server does not hold the range")
        | `Ok pairs ->
          let n = List.length pairs in
          if n > 0 then begin
            mig_feed t mg (List.map (fun (k, v) -> (k, Some v)) pairs);
            mg.mg_keys <- mg.mg_keys + n;
            Obs.Counter.add ds.ds_m_keys n
          end;
          if n = mig_chunk then mg.mg_cursor <- fst (List.nth pairs (n - 1)) ^ "\x00"
          else copied_all := true
      done;
      mg.mg_waiting <- true;
      mig_barrier t ds mg (fun () ->
          if !copied_all then flip_migration t ds mg else mg.mg_waiting <- false)
    with Mig_fail msg -> fail_migration ds mg msg)
  | _ -> ()

(* start a [Migrate]: validate against the directory, then hand off to
   the per-step pump ([pump_migration]); [k] answers when the handoff
   completes (or fails) *)
let start_migration t ~table ~lo ~hi ~dest k =
  match t.dirst with
  | None -> k (Message.Error "no partition directory on this server")
  | Some ds ->
    if ds.ds_mig <> None then k (Message.Error "a migration is already in progress")
    else if Directory.epoch ds.ds_dir = 0 then
      k (Message.Error "no directory epoch yet; seed the directory first")
    else if String.equal dest ds.ds_self then k (Message.Error "destination is this server")
    else begin
      (* dry-run the flip now so a doomed migration fails before any
         data moves: the range must be fully covered, by one home *)
      match Directory.assign (Directory.entries ds.ds_dir) ~table ~lo ~hi ~home:dest with
      | Error msg -> k (Message.Error msg)
      | Ok _ ->
        if not (Directory.home_of ds.ds_dir ~key:lo = Some ds.ds_self) then
          k
            (Message.Error
               (Printf.sprintf "this server is not the home of %s[%s,%s)" table lo hi))
        else begin
          Log.app (fun m -> m "migrating %s[%s,%s) to %s" table lo hi dest);
          ds.ds_mig <-
            Some
              { mg_table = table; mg_lo = lo; mg_hi = hi; mg_dest = dest; mg_cursor = lo;
                mg_delta = []; mg_keys = 0; mg_deltas = 0; mg_waiting = false;
                mg_flipping = false; mg_held = []; mg_reply = k }
        end
    end

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)

(* One-way requests: applied, never answered. *)
let apply_oneway t req =
  ignore (Message.apply_to_server t.engine req);
  Obs.Counter.incr t.m_notify_in;
  match req with
  | Message.Notify_put (k, v) -> buffer_notify t k (Some v)
  | Message.Notify_remove k -> buffer_notify t k None
  | Message.Notify_batch { items; _ } ->
    (* [apply_to_server] applies the items and records the stamp
       trailer, so the freshness promise lands with the data *)
    List.iter (fun (k, v) -> buffer_notify t k v) items
  | _ -> ()

(* The requests this server answers from its own state at once. *)
let handle_local t req =
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
      Message.Error
        (Printf.sprintf "not the home for %s[%s,%s) (directory names %s)" table lo hi home)
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
      Message.Subscribed { stamp = Server.range_stamp t.engine ~table ~lo ~hi; pairs }
    | `Missing _ ->
      (* this server does not own the range; rescind the subscription *)
      Option.iter (Interval_map.remove (subs_for t table)) handle;
      Message.Error (Printf.sprintf "not the home for %s[%s,%s)" table lo hi)
    | exception e ->
      Option.iter (Interval_map.remove (subs_for t table)) handle;
      Message.Error (Printexc.to_string e)))
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
    Message.Sub_ranges (List.sort compare !ranges)
  | Message.Put (k, v) ->
    let resp = Message.apply_to_server t.engine req in
    buffer_notify t k (Some v);
    resp
  | Message.Remove k ->
    let resp = Message.apply_to_server t.engine req in
    buffer_notify t k None;
    resp
  | Message.Put_batch pairs ->
    let resp = Message.apply_to_server t.engine req in
    List.iter (fun (k, v) -> buffer_notify t k (Some v)) pairs;
    resp
  | Message.Dir_get | Message.Dir_watch _ | Message.Dir_update _ -> (
    match t.dirst with
    | None -> Message.Error "no partition directory on this server"
    | Some ds -> (
      let state () =
        Message.Dir_state
          { epoch = Directory.epoch ds.ds_dir; entries = Directory.entries ds.ds_dir }
      in
      match req with
      | Message.Dir_watch { epoch } ->
        if Directory.epoch ds.ds_dir > epoch then state () else Message.Done
      | Message.Dir_update { epoch; entries } -> (
        match Directory.install ds.ds_dir ~epoch ~entries with
        | Ok () ->
          Obs.Gauge.set ds.ds_m_epoch epoch;
          Log.info (fun m ->
              m "directory updated to epoch %d (%d entries)" epoch (List.length entries));
          Message.Done
        | Error msg -> Message.Error msg)
      | _ -> state ()))
  | req -> Message.apply_to_server t.engine req

(* Route one keyed request by the partition directory, before entering
   the engine: a write whose home is another server is forwarded there,
   a point read goes to a replica or the home, and a scan is cut into
   segments served where they live. [k] receives the answer — within
   this call, or later from a peer's answer or a fetch's landing. *)
let rec route t client req k =
  match req with
  | Message.Put (key, _) | Message.Remove key ->
    if not (hold t (fun inside -> inside key) k (fun () -> route t client req k)) then (
      match forward_home t key with
      | Some (ds, dest) -> forward t ds dest req k
      | None -> k (handle_local t req))
  | Message.Put_batch pairs ->
    if
      not
        (hold t
           (fun inside -> List.exists (fun (key, _) -> inside key) pairs)
           k
           (fun () -> route t client req k))
    then (
      match split_by_home t pairs with
      | [] | [ (None, _) ] -> k (handle_local t req)
      | groups ->
        let ds = Option.get t.dirst in
        gather
          (List.map
             (fun (target, sub) k ->
               let sub = Message.Put_batch sub in
               match target with
               | None -> k (handle_local t sub)
               | Some dest -> forward t ds dest sub k)
             groups)
          (fun resps ->
            let err = ref None and vec = ref [] in
            List.iter
              (function
                | Message.Stamps s -> vec := s :: !vec
                | Message.Done -> ()
                | Message.Error m -> if !err = None then err := Some m
                | _ -> if !err = None then err := Some "unexpected forward response")
              resps;
            k
              (match !err with
              | None -> Message.Stamps (List.concat (List.rev !vec))
              | Some m -> Message.Error m)))
  | Message.Get key | Message.Get_at { key; _ } -> (
    (match req with Message.Get_at _ -> Obs.Counter.incr t.m_session_reads | _ -> ());
    tally_read t key;
    match (read_candidates t key, req) with
    | Some (ds, cands), _ -> read_forward t ds cands req k
    | None, Message.Get_at { min; _ } -> serve_stamped t client ~min ~read:(local_get t key) k
    | None, _ -> local_get t key k)
  | Message.Scan { lo; hi } | Message.Scan_at { lo; hi; _ } -> (
    let min = match req with Message.Scan_at { min; _ } -> min | _ -> [] in
    if min <> [] then Obs.Counter.incr t.m_session_reads;
    tally_read t lo;
    match remote_segments t ~spread:client.injected ~lo ~hi with
    | Some (ds, segs) -> scan_segments t client ds ~min segs k
    | None ->
      let read = local_scan t ~lo ~hi in
      if min = [] then read k else serve_stamped t client ~min ~read k)
  | Message.Migrate { table; lo; hi; dest } -> start_migration t ~table ~lo ~hi ~dest k
  | _ -> k (handle_local t req)

(* A shard routes like any directory server, with three differences. A
   client's [Add_join] is installed on every shard, each materializing
   the join for the slices its clients scan, and a client's [Stats_full]
   merges every shard's registry. The directory is fixed. The keyed
   requests and joins a sibling sends count as [shard.forward.in]. *)
let dispatch_shard t sh client req k =
  Obs.Counter.incr sh.sm_ops;
  if client.injected then Obs.Counter.incr sh.sm_client_ops;
  match req with
  | Message.Dir_update _ | Message.Migrate _ ->
    k (Message.Error "a shard's partition directory is fixed")
  | Message.Add_join _ when client.injected -> (
    match handle_local t req with
    | Message.Done ->
      let ds = Option.get t.dirst in
      gather
        (List.filteri (fun i _ -> i <> sh.sh_self) sh.sh_addrs
        |> List.map (fun addr -> forward t ds addr req))
        (fun resps ->
          k
            (List.fold_left
               (fun acc resp ->
                 match (acc, resp) with
                 | Message.Done, Message.Done -> Message.Done
                 | Message.Done, (Message.Error _ as e) -> e
                 | Message.Done, _ -> Message.Error "unexpected forward response"
                 | e, _ -> e)
               Message.Done resps))
    | other -> k other)
  | Message.Stats_full when client.injected ->
    gather
      (List.mapi
         (fun i addr k ->
           if i = sh.sh_self then k (Message.Metrics (Server.metrics_snapshot t.engine))
           else
             Peer.call t.peers Peer.Prompt addr Message.Stats_full (function
               | Ok (Message.Metrics _ as m) -> k m
               | Ok _ -> k (Message.Metrics [])
               | Error msg ->
                 Log.warn (fun m -> m "stats from shard %d failed: %s" i msg);
                 k (Message.Metrics [])))
         sh.sh_addrs)
      (fun resps ->
        k
          (Message.Metrics
             (sh.sh_merge
                (List.mapi
                   (fun i -> function Message.Metrics m -> (i, m) | _ -> (i, []))
                   resps))))
  | Message.Get _ | Message.Put _ | Message.Remove _ | Message.Put_batch _ | Message.Scan _
  | Message.Get_at _ | Message.Scan_at _ | Message.Add_join _
    when not client.injected ->
    Obs.Counter.incr sh.sm_forward_in;
    route t client req k
  | _ -> route t client req k

(* one frame, decoded straight out of the receive buffer (no copy). An
   answer produced within this call goes straight to the output buffer;
   any other takes an in-order response slot that its continuation
   fills later. *)
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
    apply_oneway t req
  | req -> (
    (* per-kind RPC tally; pequod's whole evaluation counts messages *)
    Obs.Counter.incr t.m_rpc_kind.(Message.request_kind_index req);
    (* the first answer wins: a continuation that raised after [k] ran
       may be answered [Error] again by whoever caught it *)
    let slot = ref None and now = ref None in
    let k resp =
      match !slot with
      | Some s -> if s.sl_wire = None then fill_slot t client s resp
      | None -> if !now = None then now := Some resp
    in
    (try
       match t.shard with
       | None -> route t client req k
       | Some sh -> dispatch_shard t sh client req k
     with e -> k (Message.Error (Printexc.to_string e)));
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
      flush_notifications t;
      Peer.flush t.peers
    | exception Frame.Frame_too_large _ -> drop t client)
  | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop t client

let register t fd ~injected =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let client =
    { fd; peer = peer_name fd; decoder = Frame.decoder (); out = Outbuf.create ();
      want_write = false; injected; pending = Queue.create (); alive = true }
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
    readiness, then accept/read/write whatever is ready, run the pumps
    and tickers, and send the iteration's outbound requests as one burst
    per peer. Never waits on a peer: an answer that needs one arrives in
    a later step. *)
let step ?(timeout = 1.0) t =
  Peer.flush t.peers;
  let timeout =
    (* a live copy wants the pump back promptly, idle or not *)
    match t.dirst with Some { ds_mig = Some { mg_waiting = false; _ }; _ } -> 0.0 | _ -> timeout
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
      else if fd = t.listener then (if readable then accept_clients t)
      else
        match Hashtbl.find_opt t.conns fd with
        | Some client ->
          if writable then flush_output t client;
          (* [client] may have been dropped by the flush above *)
          if readable && client.alive then handle_readable t client
        | None -> ignore (Peer.ready t.peers fd ~readable ~writable))
    events;
  drain_injected t;
  Peer.tick t.peers;
  pump_migration t;
  pump_stamp_waits t;
  Option.iter Persist.tick t.persist;
  List.iter (fun f -> f ()) t.tickers;
  flush_notifications t;
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
    elsewhere). *)
let stop t =
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
