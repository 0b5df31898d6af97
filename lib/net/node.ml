(** A server's request core, without sockets: everything between a
    decoded request and its answer. {!Net_server} owns one and feeds it
    its connections' frames; a test can wire several through memory.

    Every keyed request is routed by the partition directory
    ({!set_directory}, installed by [Remote.attach]), each decision a
    pure {!Directory} function: a write goes to its home, a point read
    to a replica or the home, a scan is cut into segments served where
    they live. A read missing base ranges parks on the fetcher, a
    stamped read on the stamp pump; {!Subs} grants a [Fetch] and owes
    every applied write to its subscribers, and a [Migrate] runs through
    {!Migration}. A shard ({!set_shard}) is one more directory server
    whose wildcard entries are homed at its siblings: only
    acceptor-handed requests spread a multi-table scan over every shard,
    and a client's [Add_join] and [Stats_full] fan out to all of them.

    The core reaches other servers only through its {!Peer.outbound}
    record and reads time only from the engine's clock, [Config.now].
    Nothing waits on a peer: answers arrive through continuations, and
    the owner runs {!pump} once per step. *)

module Server = Pequod_core.Server
module Config = Pequod_core.Config
module Message = Pequod_proto.Message

let src = Logs.Src.create "pequod.server"

module Log = (val Logs.src_log src : Logs.LOG)

(* the connection a request arrived on, as the core sees it *)
type conn = {
  injected : bool; (* handed over by the shard acceptor (public traffic) *)
  mutable alive : bool; (* false once dropped: late completions discard *)
}

(* A stamped read's demand ([Get_at]/[Scan_at]) the local copy does not
   yet satisfy: parked and re-checked once per pump. It waits briefly
   for the subscription push to catch up, then forces refetches by
   unmarking the stale pieces, then fails with a typed [Stale] at the
   deadline — never silently serving old data (docs/SESSIONS.md). *)
type stamp_wait = {
  sw_conn : conn;
  sw_min : Message.stamp_entry list;
  sw_t0 : float; (* Config.now at park *)
  sw_k : Message.stamp_entry list -> unit; (* [] once satisfied, else the unmet ranges *)
  mutable sw_fetching : bool; (* explicit refetch of the unmet ranges in flight *)
  mutable sw_fetch_failed : bool; (* refetch failed: owner unreachable, fail [Stale] *)
  mutable sw_refetched : Message.stamp_entry list list; (* the unmet sets refetched *)
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
  out : Peer.outbound; (* every request to another server *)
  mutable shard : shard option;
  (* routing truth, installed by [set_directory]; until then empty
     (epoch 0), which routes every key here — except on a follower,
     which answers keyed requests [Error] until it first syncs *)
  mutable dir : Directory.t;
  mutable self : string; (* this server's advertised address *)
  mutable seed : string option; (* the seed's address; None: [dir] is authoritative *)
  mutable migration : Migration.t option; (* at most one at a time *)
  subscriptions : Subs.t; (* the home's subscriptions and the pushes they owe *)
  m_notify_in : Obs.Counter.t; (* peer.notify.in *)
  m_redirect : Obs.Counter.t; (* migrate.redirects: requests forwarded by the directory *)
  m_replica_reads : Obs.Counter.t; (* replica.reads *)
  (* the Remote maintenance tick (directory sync, subscription healing),
     run once per pump; it rate-limits itself *)
  mutable tick : unit -> unit;
  (* asynchronous fetch engine, installed by [Remote.attach]: given the
     full missing-range set of a parked read, it issues every fetch
     (batched per peer, single-flighted across waiters) and calls back
     once all of them completed. [None]: no routes, so no read misses. *)
  mutable fetcher : ((string * string * string) list -> (ok:bool -> unit) -> unit) option;
  (* sees every applied push: the fetcher's replay log ([Remote.attach]) *)
  mutable on_push : (string * string option) list -> Message.stamp_entry list -> unit;
  m_scan_parked : Obs.Counter.t; (* scan.parked *)
  m_get : Obs.Counter.t; (* op.get: once per local Get, not per retry *)
  m_fetch_wait : Obs.Histogram.t; (* resolver.fetch.wait_ns *)
  (* stamped reads parked for freshness, re-checked once per pump *)
  mutable stamp_waits : stamp_wait list;
  m_session_reads : Obs.Counter.t; (* session.reads *)
  m_stale_waits : Obs.Counter.t; (* session.stale_waits *)
  m_refetches : Obs.Counter.t; (* session.refetches *)
  m_stale_errors : Obs.Counter.t; (* session.stale_errors *)
  m_stamp_wait : Obs.Histogram.t; (* stamp.wait_ns *)
}

(** A core serving [engine], reaching other servers through [out]. *)
let create ~out engine =
  let obs = Server.obs engine in
  { engine; out;
    shard = None;
    dir = Directory.create ();
    self = "";
    seed = None;
    migration = None;
    subscriptions = Subs.create engine;
    m_notify_in = Obs.counter obs "peer.notify.in";
    m_redirect = Obs.counter obs "migrate.redirects";
    m_replica_reads = Obs.counter obs "replica.reads";
    tick = ignore;
    fetcher = None;
    on_push = (fun _ _ -> ());
    m_scan_parked = Obs.counter obs "scan.parked";
    m_get = Obs.counter obs "op.get";
    m_fetch_wait = Obs.histogram obs "resolver.fetch.wait_ns";
    stamp_waits = [];
    m_session_reads = Obs.counter obs "session.reads";
    m_stale_waits = Obs.counter obs "session.stale_waits";
    m_refetches = Obs.counter obs "session.refetches";
    m_stale_errors = Obs.counter obs "session.stale_errors";
    m_stamp_wait = Obs.histogram obs "stamp.wait_ns" }

let engine t = t.engine
let out t = t.out
let now t = (Server.config t.engine).Config.now ()

(** Route this core by the partition directory [dir], its copy:
    authoritative when [seed] is [None] (a [--dir-host] seed, a server
    whose [--partition] specs fixed it at epoch 1, a shard), a follower
    copy polled from [seed] otherwise. Reads missing base ranges park,
    and [fetcher] is handed the full missing set plus a completion
    callback; [on_push] sees every applied push; [tick] runs once per
    {!pump} and rate-limits itself. [Remote.attach] calls this, once,
    before serving. *)
let set_directory t ?seed ~dir ~self_addr ~fetcher ~on_push ~tick () =
  t.dir <- dir;
  t.self <- self_addr;
  t.seed <- seed;
  t.fetcher <- Some fetcher;
  t.on_push <- on_push;
  t.tick <- tick

(** Make this core shard [self] of a shard-per-core process whose
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

(** A subscriber's pushes were lost (the outbound path's [on_lost]). *)
let drop_subscriber t addr = Subs.drop t.subscriptions addr

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

(* a write applied here: part of a moving range's delta, and owed to
   its subscribers *)
let wrote t key value =
  Option.iter (fun mg -> Migration.capture mg key value) t.migration;
  Subs.enqueue t.subscriptions key value

(** Post one [Notify_batch] per subscriber with pushes owed. *)
let flush_notifications t =
  List.iter (fun (dst, batch) -> t.out.post dst batch) (Subs.flush t.subscriptions)

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
  t.out.call Peer.Parked dest req (function
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
   far cheaper than keeping the reader parked. Seconds of [Config.now]. *)
let stamp_refetch_after = 0.005 (* give the push 5ms to catch up *)
let stamp_deadline = 2.0 (* then the read fails [Stale] *)
let max_refetches = 4 (* per parked read *)

(* One pump pass over the parked stamped reads: a wait whose demand the
   subscription push has satisfied is served; a wait older than
   [stamp_refetch_after] with no refetch in flight drops the pieces
   still unmet and fetches them back; a wait older than
   [stamp_deadline], or whose refetch failed, fails with the typed
   [Stale] carrying the unmet sub-ranges. A refetch may land and leave
   a new entry unmet: another read's fetch can make a table governed
   after this wait parked, and an entry the table did not hold a copy
   of then counts as a gap. So a wait refetches again for an unmet set
   it has not refetched yet, at most [max_refetches] times; a demand
   the owner's copy cannot reach waits out the deadline after one. *)
let pump_stamp_waits t =
  match t.stamp_waits with
  | [] -> ()
  | waits ->
    t.stamp_waits <- [];
    let now = now t in
    let keep = ref [] in
    List.iter
      (fun w ->
        if w.sw_conn.alive then begin
          let waited = now -. w.sw_t0 in
          let settle unmet =
            Obs.Histogram.observe t.m_stamp_wait (int_of_float (waited *. 1e9));
            if unmet <> [] then Obs.Counter.incr t.m_stale_errors;
            w.sw_k unmet
          in
          match Server.stamp_unsatisfied t.engine w.sw_min with
          | [] -> settle []
          | unmet ->
            let refetching =
              waited >= stamp_refetch_after && (not w.sw_fetching)
              && List.length w.sw_refetched < max_refetches && not (List.mem unmet w.sw_refetched)
            in
            if refetching then begin
              (* the push is not catching up: drop the stale copies and
                 fetch them back explicitly. The serve need not scan the
                 ranges it demands (a timeline read demands its
                 sources), so dropping alone would let derived data the
                 push never refreshed be served as fresh — only a
                 completed refetch, which re-records the owner's stamp,
                 discharges the demand. *)
              Obs.Counter.incr t.m_refetches;
              w.sw_refetched <- unmet :: w.sw_refetched;
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
            if waited >= stamp_deadline || w.sw_fetch_failed then settle unmet
            else keep := w :: !keep
        end)
      waits;
    t.stamp_waits <- !keep @ t.stamp_waits

(* Serve a stamped read: answer at once when the local copy already
   satisfies the demand; otherwise park until the push (or an explicit
   refetch) catches up, or answer [Stale] at the deadline. *)
let serve_stamped t conn ~min ~read k =
  match Server.stamp_unsatisfied t.engine min with
  | [] -> read k
  | _ ->
    Obs.Counter.incr t.m_stale_waits;
    t.stamp_waits <-
      { sw_conn = conn; sw_min = min; sw_t0 = now t;
        sw_k = (function [] -> read k | unmet -> k (Message.Stale unmet));
        sw_fetching = false; sw_fetch_failed = false; sw_refetched = [] }
      :: t.stamp_waits

(* a local scan; a stamped one ([min] not []) waits for its demand first *)
let local_read t conn ~min ~lo ~hi k =
  let read = local_scan t ~lo ~hi in
  if min = [] then read k else serve_stamped t conn ~min ~read k

(* Serve [Scan]/[Scan_at] pieces all at once and merge them in key order
   when the last answers. Local pieces are ordinary local reads; remote
   pieces forward a [Scan_at] clamped to the piece, so each candidate
   enforces the demand on its own copy (a stale replica answers [Stale]
   and [read_forward] falls through to the home). *)
let scan_segments t conn ~min segs k =
  let leg (route, slo, shi) k =
    match route with
    | Directory.Local | Directory.Replica -> local_read t conn ~min ~lo:slo ~hi:shi k
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

(** Apply a one-way request (a push); never answered. *)
let apply_oneway t req =
  ignore (Message.apply_to_server t.engine req);
  Obs.Counter.incr t.m_notify_in;
  match req with
  | Message.Notify_batch { items; stamps } ->
    (* [apply_to_server] applies the items and records the stamp
       trailer, so the freshness promise lands with the data *)
    List.iter (fun (k, v) -> wrote t k v) items;
    t.on_push items stamps
  | _ -> ()

(* The requests this server answers from its own state at once. *)
let handle_local t req =
  match req with
  | Message.Fetch { table; lo; hi; subscriber } ->
    (* refuse a range the directory routes elsewhere, even in part (a
       replica's copy is subscription-fresh, so it may serve). A
       post-migration straggler fetching from the old home gets an error
       and replans off its refreshed directory, instead of a frozen
       snapshot: a base-table scan here would answer the moved part from
       the copy the migration left behind, and no write would ever reach
       that subscription. *)
    let segs = Directory.scan_route (entries t) ~self:t.self ~spread:false ~lo ~hi in
    let refused =
      match List.find_map (function Directory.Forward c, _, _ -> Some c | _ -> None) segs with
      | Some cands ->
        Some
          (Printf.sprintf "not the home for %s[%s,%s) (directory routes it to %s)" table lo hi
             (String.concat ", " cands))
      | None ->
        List.iter (fun (route, _, _) -> count_replica t route) segs;
        None
    in
    Subs.grant t.subscriptions ~refused ~table ~lo ~hi ~subscriber
  | Message.Sub_check { subscriber } ->
    (* subscription heartbeat: every range still pushed to this
       subscriber, so it can detect (and heal) a drop *)
    Message.Sub_ranges (Subs.ranges_of t.subscriptions subscriber)
  | Message.(Put _ | Remove _ | Put_batch _) ->
    let resp = Message.apply_to_server t.engine req in
    (match req with
    | Message.Put (k, v) -> wrote t k (Some v)
    | Message.Remove k -> wrote t k None
    | Message.Put_batch pairs -> List.iter (fun (k, v) -> wrote t k (Some v)) pairs
    | _ -> ());
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
let rec route t conn req k =
  let held touches =
    match t.migration with
    | Some mg -> Migration.hold mg touches k (fun () -> route t conn req k)
    | None -> false
  in
  match req with
  | Message.(Put _ | Remove _ | Put_batch _ | Get _ | Get_at _ | Scan _ | Scan_at _)
    when t.seed <> None && Directory.epoch t.dir = 0 ->
    (* a follower that has not synced yet knows no home: served here, a
       write homed elsewhere would be lost and a read answered empty *)
    k (Message.Error "directory not yet synced")
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
      | Message.Get_at { min; _ } -> serve_stamped t conn ~min ~read:(local_get t key) k
      | _ -> local_get t key k))
  | Message.Scan { lo; hi } | Message.Scan_at { lo; hi; _ } ->
    let min = match req with Message.Scan_at { min; _ } -> min | _ -> [] in
    if min <> [] then Obs.Counter.incr t.m_session_reads;
    let segs = Directory.scan_route (entries t) ~self:t.self ~spread:conn.injected ~lo ~hi in
    if List.exists (fun (route, _, _) -> route = Directory.Replica) segs then
      Obs.Counter.incr t.m_replica_reads;
    if List.exists (function Directory.Forward _, _, _ -> true | _ -> false) segs then
      scan_segments t conn ~min segs k
    else local_read t conn ~min ~lo ~hi k
  | Message.Migrate { table; lo; hi; dest } -> (
    let env =
      { Migration.out = t.out; engine = t.engine; dir = t.dir; self = t.self;
        seed = t.seed; hand_off = Subs.hand_off t.subscriptions }
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
let dispatch_shard t sh conn req k =
  Obs.Counter.incr sh.sm_ops;
  if conn.injected then Obs.Counter.incr sh.sm_client_ops;
  match req with
  | Message.Dir_update _ | Message.Migrate _ ->
    k (Message.Error "a shard's partition directory is fixed")
  | Message.Add_join _ when conn.injected -> (
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
  | Message.Stats_full when conn.injected ->
    gather
      (List.mapi
         (fun i addr k ->
           if i = sh.sh_self then k (Message.Metrics (Server.metrics_snapshot t.engine))
           else
             t.out.call Peer.Prompt addr Message.Stats_full (function
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
    when not conn.injected ->
    Obs.Counter.incr sh.sm_forward_in;
    route t conn req k
  | _ -> route t conn req k

(** Answer one two-way request from [conn] into [k], now or from a later
    continuation. [k] runs once: a continuation that raised after [k] ran
    may be answered [Error] again by whoever caught it; the first wins. *)
let handle t conn req k =
  let answered = ref false in
  let k resp =
    if not !answered then begin
      answered := true;
      k resp
    end
  in
  try
    match t.shard with
    | None -> route t conn req k
    | Some sh -> dispatch_shard t sh conn req k
  with e -> k (Message.Error (Printexc.to_string e))

(** The core's per-step work: a migration copy step, a pass over the
    parked stamped reads, the [Remote] tick, and the coalesced pushes. *)
let pump t =
  Option.iter Migration.pump t.migration;
  pump_stamp_waits t;
  t.tick ();
  flush_notifications t

(** How long the owner may wait for I/O before the next {!pump}, at most
    [timeout]: none while a migration copies or removes, 2 ms while
    stamped reads are parked. *)
let max_wait t timeout =
  match t.migration with
  | Some mg when Migration.(phase mg = Copying || phase mg = Removing) -> 0.0
  | _ -> if t.stamp_waits <> [] then Float.min timeout 0.002 else timeout
