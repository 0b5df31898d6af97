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
    ({!set_directory}, installed by [Remote.attach]) before it enters
    the engine: a write whose home is another server is forwarded there,
    a point read goes to a replica or the home, and a scan is cut into
    segments served where they live. Each of those decisions is a pure
    {!Directory} function; this module only carries them out. A
    [Migrate] hands a range to another server through {!Migration}. A
    shard ({!set_shard}) is one more directory server: its
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

type t = {
  engine : Server.t;
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
  mutable shard : shard option;
  (* routing truth, installed by [set_directory]; until then empty
     (epoch 0), which routes every key here *)
  mutable dir : Directory.t;
  mutable self : string; (* this server's advertised host:port *)
  mutable seed : string option; (* the seed's address; None: [dir] is authoritative *)
  mutable migration : Migration.t option; (* at most one at a time *)
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
  m_redirect : Obs.Counter.t; (* migrate.redirects: requests forwarded by the directory *)
  m_replica_reads : Obs.Counter.t; (* replica.reads *)
  metrics_every : float option; (* --metrics-dump period *)
  mutable next_dump : float;
  (* the Remote maintenance tick (directory sync, subscription healing),
     run once per event-loop iteration after I/O; it rate-limits itself *)
  mutable tick : unit -> unit;
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
    stopped = false;
    inj_mu = Mutex.create ();
    inj_q = Queue.create ();
    wakeup_r; wakeup_w;
    shard = None;
    dir = Directory.create ();
    self = "";
    seed = None;
    migration = None;
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
    m_redirect = Obs.counter obs "migrate.redirects";
    m_replica_reads = Obs.counter obs "replica.reads";
    metrics_every;
    next_dump =
      (match metrics_every with Some s -> Unix.gettimeofday () +. s | None -> infinity);
    tick = ignore;
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

(** Route this server by the partition directory [dir], its copy:
    authoritative when [seed] is [None] (a [--dir-host] seed, a server
    whose [--partition] specs fixed it at epoch 1, a shard), a follower
    copy polled from [seed] otherwise. Reads missing base ranges park,
    and [fetcher] is handed the full missing set plus a completion
    callback; [tick] runs once per {!step}, after I/O, and rate-limits
    itself. [Remote.attach] calls this, once, before serving. *)
let set_directory t ?seed ~dir ~self_addr ~fetcher ~tick () =
  t.dir <- dir;
  t.self <- self_addr;
  t.seed <- seed;
  t.fetcher <- Some fetcher;
  t.tick <- tick

(** Make this server shard [self] of a shard-per-core process whose
    shards listen at [addrs] (see shard.ml): the [shard.*] counters, the
    fan-out of a client's [Add_join] and [Stats_full] ([merge] combines
    the per-shard snapshots), and a fixed directory. Call once, after
    [Remote.attach], before serving. *)
let set_shard t ~self ~addrs ~merge =
  let obs = Server.obs t.engine in
  t.shard <-
    Some
      { sh_self = self; sh_addrs = addrs; sh_merge = merge;
        sm_ops = Obs.counter obs "shard.ops";
        sm_client_ops = Obs.counter obs "shard.client.ops";
        sm_forward_out = Obs.counter obs "shard.forward.out";
        sm_forward_in = Obs.counter obs "shard.forward.in" }

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
  Option.iter (fun mg -> Migration.capture mg key value_opt) t.migration;
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
(* Directory routing: carrying out {!Directory}'s decisions             *)

let entries t = Directory.entries t.dir

(* Split a Put_batch by directory home, preserving per-target order;
   [None] is the local group. After a migration flips a range away from
   this server, stale-routed writers keep sending here: forwarding
   (rather than applying to the no-longer-authoritative local copy) is
   what keeps the handoff divergence-free. *)
let split_by_home t pairs =
  let groups : (string option, (string * string) list) Hashtbl.t = Hashtbl.create 4 in
  let order = ref [] in
  List.iter
    (fun ((key, _) as p) ->
      let tgt = Directory.write_home (entries t) ~self:t.self ~key in
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
let forward t dest req k =
  Obs.Counter.incr t.m_redirect;
  Option.iter (fun sh -> Obs.Counter.incr sh.sm_forward_out) t.shard;
  Peer.call t.peers Peer.Parked dest req (function
    | Ok resp -> k resp
    | Error msg -> k (Message.Error (Printf.sprintf "home %s: %s" dest msg)))

(* forward a read, falling through the candidate list (a dead or
   refusing replica costs one hop, not the answer). A [Stale] answer —
   a replica whose copy has not caught up to a stamped read's demand —
   also falls through: the home, always last, is authoritative and can
   never be stale. *)
let read_forward t cands req k =
  let rec go = function
    | [] -> k (Message.Error "no reachable server for the range")
    | [ addr ] -> forward t addr req k
    | addr :: rest ->
      forward t addr req (function
        | Message.Error _ | Message.Stale _ -> go rest
        | resp -> k resp)
  in
  go cands

let count_replica t = function
  | Directory.Replica -> Obs.Counter.incr t.m_replica_reads
  | Directory.Local | Directory.Forward _ -> ()

(* clamp a stamp demand vector to one scan segment: entries of the
   segment's own table are cut down to their intersection with [lo, hi)
   or dropped; entries of other tables pass whole, since they may be the
   sources of the join outputs the segment holds *)
let clamp_min min ~lo ~hi =
  let table = Pequod_store.Store.table_name_of lo in
  List.filter_map
    (fun ((dtable, dlo, dhi, s) as d) ->
      match Directory.intersect ~lo ~hi (dlo, dhi) with
      | Some (l, h) -> Some (dtable, l, h, s)
      | None -> if String.equal dtable table then None else Some d)
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

(* a local scan; a stamped one ([min] not []) waits for its demand first *)
let local_read t client ~min ~lo ~hi k =
  let read = local_scan t ~lo ~hi in
  if min = [] then read k else serve_stamped t client ~min ~read k

(* Serve [Scan]/[Scan_at] pieces all at once and merge them in key order
   when the last answers. Local pieces are ordinary local reads; remote
   pieces forward a [Scan_at] clamped to the piece, so each candidate
   enforces the demand on its own copy (a stale replica answers [Stale]
   and [read_forward] falls through to the home). *)

let scan_segments t client ~min segs k =
  let leg (route, slo, shi) k =
    match route with
    | Directory.Local | Directory.Replica -> local_read t client ~min ~lo:slo ~hi:shi k
    | Directory.Forward cands ->
      read_forward t cands
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
(* Request handling                                                    *)

(* One-way requests: applied, never answered. *)
let apply_oneway t req =
  ignore (Message.apply_to_server t.engine req);
  Obs.Counter.incr t.m_notify_in;
  match req with
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
    (* refuse to grant a subscription on a range the directory routes
       elsewhere (a replica's copy is subscription-fresh, so it may
       serve). A post-migration straggler fetching from the old home
       gets an error and replans off its refreshed directory, instead of
       a frozen snapshot. *)
    match Directory.read_route (entries t) ~self:t.self ~key:lo with
    | Directory.Forward cands ->
      Message.Error
        (Printf.sprintf "not the home for %s[%s,%s) (directory routes it to %s)" table lo hi
           (String.concat ", " cands))
    | route -> (
    count_replica t route;
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
  | Message.Dir_watch { epoch } when Directory.epoch t.dir <= epoch -> Message.Done
  | Message.Dir_get | Message.Dir_watch _ ->
    Message.Dir_state { epoch = Directory.epoch t.dir; entries = entries t }
  | Message.Dir_update { epoch; entries } -> (
    match Directory.install t.dir ~epoch ~entries with
    | Ok () ->
      Log.info (fun m ->
          m "directory updated to epoch %d (%d entries)" epoch (List.length entries));
      Message.Done
    | Error msg -> Message.Error msg)
  | req -> Message.apply_to_server t.engine req

(* Route one keyed request by the partition directory, before entering
   the engine: a write whose home is another server is forwarded there,
   a point read goes to a replica or the home, and a scan is cut into
   segments served where they live. [k] receives the answer — within
   this call, or later from a peer's answer or a fetch's landing. *)
let rec route t client req k =
  let held touches =
    match t.migration with
    | Some mg -> Migration.hold mg touches k (fun () -> route t client req k)
    | None -> false
  in
  match req with
  | Message.Put (key, _) | Message.Remove key ->
    if not (held (fun inside -> inside key)) then (
      match Directory.write_home (entries t) ~self:t.self ~key with
      | Some dest -> forward t dest req k
      | None -> k (handle_local t req))
  | Message.Put_batch pairs ->
    if not (held (fun inside -> List.exists (fun (key, _) -> inside key) pairs)) then (
      match split_by_home t pairs with
      | [] | [ (None, _) ] -> k (handle_local t req)
      | groups ->
        gather
          (List.map
             (fun (target, sub) k ->
               let sub = Message.Put_batch sub in
               match target with
               | None -> k (handle_local t sub)
               | Some dest -> forward t dest sub k)
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
    match Directory.read_route (entries t) ~self:t.self ~key with
    | Directory.Forward cands -> read_forward t cands req k
    | route -> (
      count_replica t route;
      match req with
      | Message.Get_at { min; _ } -> serve_stamped t client ~min ~read:(local_get t key) k
      | _ -> local_get t key k))
  | Message.Scan { lo; hi } | Message.Scan_at { lo; hi; _ } ->
    let min = match req with Message.Scan_at { min; _ } -> min | _ -> [] in
    if min <> [] then Obs.Counter.incr t.m_session_reads;
    let segs = Directory.scan_route (entries t) ~self:t.self ~spread:client.injected ~lo ~hi in
    if List.exists (fun (route, _, _) -> route = Directory.Replica) segs then
      Obs.Counter.incr t.m_replica_reads;
    if List.exists (function Directory.Forward _, _, _ -> true | _ -> false) segs then
      scan_segments t client ~min segs k
    else local_read t client ~min ~lo ~hi k
  | Message.Migrate { table; lo; hi; dest } -> (
    let env =
      { Migration.peers = t.peers; engine = t.engine; dir = t.dir; self = t.self;
        seed = t.seed; subs = t.subs }
    in
    match t.migration with
    | Some _ -> k (Message.Error "a migration is already in progress")
    | None -> (
      match
        Migration.start env ~table ~lo ~hi ~dest ~on_end:(fun () -> t.migration <- None) k
      with
      | Ok mg -> t.migration <- Some mg
      | Error msg -> k (Message.Error msg)))
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
      gather
        (List.filteri (fun i _ -> i <> sh.sh_self) sh.sh_addrs
        |> List.map (fun addr -> forward t addr req))
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
    and the Remote tick, and send the iteration's outbound requests as
    one burst per peer. Never waits on a peer: an answer that needs one
    arrives in a later step. *)
let step ?(timeout = 1.0) t =
  Peer.flush t.peers;
  let timeout =
    (* a live copy wants the pump back promptly, idle or not *)
    match t.migration with
    | Some mg when Migration.phase mg = Migration.Copying -> 0.0
    | _ -> timeout
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
  Option.iter Migration.pump t.migration;
  pump_stamp_waits t;
  Option.iter Persist.tick t.persist;
  t.tick ();
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
