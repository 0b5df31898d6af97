(* Wires Net_client into a cache engine as its missing-range resolver:
   the compute-server half of the §2.4 fetch/subscribe protocol. *)

module Server = Pequod_core.Server
module Message = Pequod_proto.Message
module Pattern = Pequod_pattern.Pattern
module Joinspec = Pequod_pattern.Joinspec

let src = Logs.Src.create "pequod.remote"

module Log = (val Logs.src_log src : Logs.LOG)

(* TABLE[:LO:HI][@HOST:PORT]; a bare TABLE covers the whole table,
   [T|, T}) in the repo's key order *)
let parse_spec ~peers ~self_addr spec =
  let body, addr =
    match String.index_opt spec '@' with
    | Some i ->
      ( String.sub spec 0 i,
        Some (String.sub spec (i + 1) (String.length spec - i - 1)) )
    | None -> (spec, None)
  in
  let home =
    match (addr, peers) with
    | Some a, _ -> Ok a
    | None, [] -> Ok self_addr (* no peers: this process is the home *)
    | None, [ p ] -> Ok p
    | None, _ :: _ :: _ ->
      Error
        (Printf.sprintf
           "partition %S: several --peer addresses; say which owns it with @HOST:PORT"
           spec)
  in
  let entry de_table de_lo de_hi de_home =
    Ok { Message.de_table; de_lo; de_hi; de_home; de_replicas = [] }
  in
  match home with
  | Error _ as e -> e
  | Ok home -> (
    match String.split_on_char ':' body with
    (* "*" is the directory's wildcard, whose bounds are component
       space; a spec's bounds are key space *)
    | "*" :: _ -> Error (Printf.sprintf "partition %S: \"*\" is not a table" spec)
    | [ table ] when table <> "" -> entry table (table ^ "|") (table ^ "}") home
    | [ table; lo; hi ] when table <> "" && String.compare lo hi < 0 -> entry table lo hi home
    | _ -> Error (Printf.sprintf "partition %S: expected TABLE or TABLE:LO:HI" spec))

let entries_of_specs ~peers ~self_addr specs =
  List.fold_left
    (fun acc spec ->
      match (acc, parse_spec ~peers ~self_addr spec) with
      | (Error _ as e), _ -> e
      | _, (Error _ as e) -> e
      | Ok es, Ok e -> Ok (e :: es))
    (Ok []) specs
  |> Result.map List.rev

let host_port addr =
  match String.rindex_opt addr ':' with
  | Some i -> (
    match int_of_string_opt (String.sub addr (i + 1) (String.length addr - i - 1)) with
    | Some p -> (String.sub addr 0 i, p)
    | None -> invalid_arg ("bad peer address: " ^ addr))
  | None -> invalid_arg ("bad peer address: " ^ addr)

(* peer clients, one per owning address, created lazily and registered
   in the engine's own metrics registry ([net.client.retries] etc.) *)
let client_cache ~on_wait obs =
  let cache : (string, Net_client.t) Hashtbl.t = Hashtbl.create 4 in
  fun addr ->
    match Hashtbl.find_opt cache addr with
    | Some c -> c
    | None ->
      let chost, cport = host_port addr in
      let c = Net_client.create ~obs ~on_wait ~host:chost ~port:cport () in
      Hashtbl.add cache addr c;
      c

(* One blocking fetch+subscribe exchange: the §2.4 [Fetch] naming this
   server as the subscriber, answered by a [Subscribed] snapshot. On
   success the granted subscription is recorded in [tracked] (keyed by
   the exact clamp, valued by the granting server) for the healing
   heartbeat to audit. Shared by the blocking resolver, replica warming
   and the heartbeat's refetch. *)
let fetch_one ~engine ~client_for ~tracked ~m_fetch_out ~self_addr ~table ~lo ~hi addr =
  Obs.Counter.incr m_fetch_out;
  match
    Net_client.call (client_for addr)
      (Message.Fetch { table; lo; hi; subscriber = self_addr })
  with
  | Message.Subscribed { stamp; pairs } ->
    Hashtbl.replace tracked (table, lo, hi) addr;
    (* record the snapshot's version: stamped reads compare their demand
       against it. Every feed path must go through this — the replica
       warming path used to skip it, leaving a warmed replica unable to
       detect (and heal) its own staleness under a stamped read. *)
    if stamp > 0 then Server.set_range_stamp engine ~table ~lo ~hi stamp;
    Some pairs
  | Message.Error msg ->
    Log.warn (fun m -> m "fetch %s[%s,%s) from %s refused: %s" table lo hi addr msg);
    None
  | _ ->
    Log.warn (fun m -> m "fetch %s[%s,%s) from %s: unexpected response" table lo hi addr);
    None
  | exception Net_client.Net_error msg ->
    Log.warn (fun m -> m "fetch %s[%s,%s) from %s failed: %s" table lo hi addr msg);
    None

(* Which entries serve a missing [lo, hi) of [table]?
   [`Unrouted]: no entry governs the table — it is purely local.
   [`Gap]: entries govern the table but leave part of the range
   uncovered — a partition misconfiguration; treating the gap as
   present-and-empty would silently serve wrong answers.
   [`Fetch clamps]: the (entry, clamp_lo, clamp_hi) fetches that cover
   the range, one per overlapping entry homed elsewhere. *)
let plan ~self_addr ~entries ~table ~lo ~hi =
  match Directory.for_table entries ~table with
  | [] -> `Unrouted
  | governing ->
    let pieces = Directory.cut governing ~lo ~hi in
    if List.exists (fun (e, _, _) -> e = None) pieces then `Gap
    else
      `Fetch
        (List.filter_map
           (function
             | Some (e : Message.dir_entry), flo, fhi
               when not (String.equal e.de_home self_addr) ->
               Some (e, flo, fhi)
             | _ -> None (* homed here; already present *))
           pieces)

(* The asynchronous fetch engine behind [Net_server]'s parked scans.

   Where the blocking resolver holds the event loop hostage for one
   round-trip per missing range, the fetcher owns its own nonblocking
   peer sockets, driven by the serving loop itself
   ([Net_server.watch_fd]): a parked scan's whole missing-range set is
   planned into clamps and written as one pipelined burst per peer,
   concurrently across peers. Responses are matched to fetches in
   per-connection pipeline order (the wire has no request ids), fed
   into the engine, and the scan retried once the full set has landed.

   Each clamp carries its candidate servers: the range's read replicas,
   then its home. A candidate that refuses, is down, or drops the
   connection hands the fetch to the next one; the waiters fail only
   once the home has failed too.

   Single-flight: an in-flight table keyed by the exact (table, lo, hi)
   clamp means N concurrent parked scans missing the same range share
   one wire [Fetch] and one [feed_base]; the extra joins are counted in
   [fetch.coalesced]. No [Hello] is sent on fetcher sockets — the
   server answers frames without a handshake, and a [Welcome] would
   desynchronise the response-order matching. *)
module Fetcher = struct
  module Frame = Pequod_proto.Frame

  type waiter = {
    mutable w_remaining : int; (* clamps not yet landed *)
    mutable w_failed : bool;
    w_k : ok:bool -> unit;
  }

  type flight = {
    fl_key : string * string * string; (* table, clamp lo, clamp hi *)
    mutable fl_cands : string list; (* candidates not yet tried, the home last *)
    mutable fl_waiters : waiter list;
  }

  type peer = {
    p_addr : string;
    mutable p_fd : Unix.file_descr option;
    mutable p_connecting : bool; (* nonblocking connect pending SO_ERROR *)
    mutable p_decoder : Frame.decoder;
    p_out : Buffer.t; (* encoded frames not yet written *)
    p_flights : flight Queue.t; (* responses match heads in order *)
    mutable p_down_until : float; (* reconnect backoff deadline *)
  }

  type t = {
    f_server : Net_server.t;
    f_engine : Server.t;
    f_self : string;
    (* missing range -> (table, clamp lo, clamp hi, candidates) fetches,
       re-planned at fetch time *)
    f_plan :
      table:string -> lo:string -> hi:string ->
      [ `Fail | `Nothing | `Clamps of (string * string * string * string list) list ];
    f_tracked : (string * string * string, string) Hashtbl.t;
    f_peers : (string, peer) Hashtbl.t;
    f_inflight : (string * string * string, flight) Hashtbl.t;
    f_buf : Bytes.t;
    m_fetch_out : Obs.Counter.t; (* peer.fetch.out *)
    m_coalesced : Obs.Counter.t; (* fetch.coalesced *)
    m_inflight : Obs.Gauge.t; (* fetch.inflight *)
  }

  let create ~server ~self_addr ~plan ~tracked =
    let engine = Net_server.engine server in
    let obs = Server.obs engine in
    { f_server = server;
      f_engine = engine;
      f_self = self_addr;
      f_plan = plan;
      f_tracked = tracked;
      f_peers = Hashtbl.create 4;
      f_inflight = Hashtbl.create 16;
      f_buf = Bytes.create 65_536;
      m_fetch_out = Obs.counter obs "peer.fetch.out";
      m_coalesced = Obs.counter obs "fetch.coalesced";
      m_inflight = Obs.gauge obs "fetch.inflight" }

  let peer_of f addr =
    match Hashtbl.find_opt f.f_peers addr with
    | Some p -> p
    | None ->
      let p =
        { p_addr = addr; p_fd = None; p_connecting = false;
          p_decoder = Frame.decoder (); p_out = Buffer.create 256;
          p_flights = Queue.create (); p_down_until = neg_infinity }
      in
      Hashtbl.add f.f_peers addr p;
      p

  let complete_waiter w ~ok =
    if not ok then w.w_failed <- true;
    w.w_remaining <- w.w_remaining - 1;
    if w.w_remaining = 0 then w.w_k ~ok:(not w.w_failed)

  (* The flight leaves the in-flight table before its waiters run: a
     waiter's retry may miss the same range again (eviction raced the
     feed) and must start a fresh fetch, not join a completed one. *)
  let complete_flight f fl ~ok =
    Hashtbl.remove f.f_inflight fl.fl_key;
    Obs.Gauge.set f.m_inflight (Hashtbl.length f.f_inflight);
    let ws = fl.fl_waiters in
    fl.fl_waiters <- [];
    List.iter (fun w -> complete_waiter w ~ok) ws

  (* Queue [fl]'s [Fetch] on its next candidate, skipping candidates in
     dead-peer backoff, and return that peer for flushing; with no
     candidate left the flight fails. *)
  let rec issue f fl now =
    match fl.fl_cands with
    | [] ->
      complete_flight f fl ~ok:false;
      None
    | addr :: rest ->
      fl.fl_cands <- rest;
      let peer = peer_of f addr in
      if peer.p_fd = None && now < peer.p_down_until then issue f fl now
      else begin
        Obs.Counter.incr f.m_fetch_out;
        Queue.add fl peer.p_flights;
        let table, lo, hi = fl.fl_key in
        Buffer.add_string peer.p_out
          (Net_client.encode_request_frame
             (Message.Fetch { table; lo; hi; subscriber = f.f_self }));
        Some peer
      end

  let rec write_some fd data pos len =
    if pos >= len then pos
    else
      match Unix.write_substring fd data pos (len - pos) with
      | n -> write_some fd data (pos + n) len
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_some fd data pos len
      | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> pos

  let sockaddr_of addr =
    let host, port = host_port addr in
    let inet =
      match Unix.inet_addr_of_string host with
      | a -> a
      | exception _ -> (
        match (Unix.gethostbyname host).Unix.h_addr_list with
        | [||] -> raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host))
        | addrs -> addrs.(0)
        | exception Not_found ->
          raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host)))
    in
    Unix.ADDR_INET (inet, port)

  (* a candidate failed [fl]: hand it to the next one *)
  let rec retry f fl =
    match issue f fl (Unix.gettimeofday ()) with
    | Some peer -> kick f peer
    | None -> ()

  (* connect if needed, then push the whole pipeline out in as few
     writes as the socket allows *)
  and kick f peer =
    ensure_connected f peer;
    flush_peer f peer

  (* Tear a peer connection down: every fetch still in its pipeline
     moves on to its next candidate (or fails, and its parked scans
     answer Error), and the peer sits out a short backoff so a dead
     server is one failed [connect] per half second, not per scan. *)
  and fail_peer f peer msg =
    if not (Queue.is_empty peer.p_flights) then
      Log.warn (fun m ->
          m "peer %s: %s; re-routing %d in-flight fetches" peer.p_addr msg
            (Queue.length peer.p_flights));
    (match peer.p_fd with
    | Some fd ->
      peer.p_fd <- None;
      Net_server.unwatch_fd f.f_server fd;
      (try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    peer.p_connecting <- false;
    peer.p_decoder <- Frame.decoder ();
    Buffer.clear peer.p_out;
    peer.p_down_until <- Unix.gettimeofday () +. 0.5;
    let flights = List.of_seq (Queue.to_seq peer.p_flights) in
    Queue.clear peer.p_flights;
    List.iter (retry f) flights

  (* Nonblocking flush; write interest stays on exactly while bytes
     remain buffered (a level-triggered poller would spin otherwise). *)
  and flush_peer f peer =
    match peer.p_fd with
    | None -> ()
    | Some _ when peer.p_connecting -> ()
    | Some fd -> (
      let data = Buffer.contents peer.p_out in
      Buffer.clear peer.p_out;
      let len = String.length data in
      match write_some fd data 0 len with
      | pos ->
        if pos < len then begin
          Buffer.add_substring peer.p_out data pos (len - pos);
          Net_server.watch_interest f.f_server fd ~read:true ~write:true
        end
        else Net_server.watch_interest f.f_server fd ~read:true ~write:false
      | exception Unix.Unix_error (err, _, _) ->
        fail_peer f peer ("write: " ^ Unix.error_message err))

  (* one response frame = the head of this peer's pipeline *)
  and handle_frame f peer frame =
    match Queue.take_opt peer.p_flights with
    | None -> fail_peer f peer "unexpected frame with no fetch in flight"
    | Some fl -> (
      let table, lo, hi = fl.fl_key in
      let failed why =
        Log.warn (fun m -> m "fetch %s[%s,%s) from %s %s" table lo hi peer.p_addr why);
        retry f fl
      in
      match Message.decode_response frame with
      | Message.Subscribed { stamp; pairs } ->
        Hashtbl.replace f.f_tracked fl.fl_key peer.p_addr;
        Server.feed_base f.f_engine ~table ~lo ~hi pairs;
        if stamp > 0 then Server.set_range_stamp f.f_engine ~table ~lo ~hi stamp;
        complete_flight f fl ~ok:true
      | Message.Error msg -> failed ("refused: " ^ msg)
      | _ -> failed "answered unexpectedly"
      | exception Message.Protocol_error msg -> failed ("broke protocol: " ^ msg))

  and read_peer f peer fd =
    match Unix.read fd f.f_buf 0 (Bytes.length f.f_buf) with
    | 0 -> fail_peer f peer "connection closed"
    | n ->
      List.iter
        (fun frame ->
          (* a completion may tear this peer down re-entrantly (its own
             parked-scan retry failing it); later frames are then stale *)
          if peer.p_fd = Some fd then handle_frame f peer frame)
        (Frame.feed peer.p_decoder (Bytes.sub_string f.f_buf 0 n))
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error (err, _, _) ->
      fail_peer f peer ("read: " ^ Unix.error_message err)

  and peer_ready f peer fd ~readable ~writable =
    if peer.p_fd = Some fd then begin
      if writable then
        if peer.p_connecting then (
          match Unix.getsockopt_error fd with
          | Some err -> fail_peer f peer ("connect: " ^ Unix.error_message err)
          | None ->
            peer.p_connecting <- false;
            (try Unix.setsockopt fd Unix.TCP_NODELAY true
             with Unix.Unix_error _ -> ());
            flush_peer f peer)
        else flush_peer f peer;
      if readable && peer.p_fd = Some fd then read_peer f peer fd
    end

  and ensure_connected f peer =
    if peer.p_fd = None then begin
      match
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try Unix.set_nonblock fd
         with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
        (fd, (try Unix.connect fd (sockaddr_of peer.p_addr); false with
              | Unix.Unix_error (Unix.EINPROGRESS, _, _) -> true
              | e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e))
      with
      | fd, pending ->
        if not pending then
          (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        peer.p_fd <- Some fd;
        peer.p_connecting <- pending;
        peer.p_decoder <- Frame.decoder ();
        (* while the connect is pending, write-ready signals its outcome
           (SO_ERROR) *)
        Net_server.watch_fd f.f_server fd ~read:true ~write:pending
          ~on_ready:(fun ~readable ~writable -> peer_ready f peer fd ~readable ~writable)
      | exception Unix.Unix_error (err, _, _) ->
        fail_peer f peer ("connect: " ^ Unix.error_message err)
    end

  (* The [Net_server.set_fetcher] entry point: issue one parked scan's
     whole missing-range set, calling [k ~ok] once every clamp has
     landed (or failed on every candidate). Completion may run
     synchronously — every candidate in dead-peer backoff — or later
     from [peer_ready]; the caller handles both. *)
  let request f ranges k =
    let planned =
      List.fold_left
        (fun acc (table, lo, hi) ->
          match acc with
          | `Fail -> `Fail
          | `Ok clamps -> (
            match f.f_plan ~table ~lo ~hi with
            | `Fail -> `Fail
            | `Nothing ->
              (* the directory moved under the scan (a new epoch):
                 nothing to fetch; the retry re-plans *)
              `Ok clamps
            | `Clamps cs -> `Ok (List.rev_append cs clamps)))
        (`Ok []) ranges
    in
    match planned with
    | `Fail -> k ~ok:false
    | `Ok [] -> k ~ok:true
    | `Ok clamps ->
      let now = Unix.gettimeofday () in
      let waiter = { w_remaining = List.length clamps; w_failed = false; w_k = k } in
      let touched = ref [] in
      List.iter
        (fun (table, flo, fhi, cands) ->
          let key = (table, flo, fhi) in
          match Hashtbl.find_opt f.f_inflight key with
          | Some fl ->
            (* single-flight: share the wire fetch already under way *)
            Obs.Counter.incr f.m_coalesced;
            fl.fl_waiters <- waiter :: fl.fl_waiters
          | None -> (
            let fl = { fl_key = key; fl_cands = cands; fl_waiters = [ waiter ] } in
            Hashtbl.replace f.f_inflight key fl;
            Obs.Gauge.set f.m_inflight (Hashtbl.length f.f_inflight);
            match issue f fl now with
            | Some peer -> if not (List.memq peer !touched) then touched := peer :: !touched
            | None -> ()))
        clamps;
      (* one burst per touched peer *)
      List.iter (kick f) (List.rev !touched)
end

let attach ~server ~self_addr ~check_every ?seed ?(poll_every = 1.0) dir =
  let engine = Net_server.engine server in
  let obs = Server.obs engine in
  let on_wait = Net_server.on_wait server in
  let client_for = client_cache ~on_wait obs in
  let m_fetch_out = Obs.counter obs "peer.fetch.out" in
  let m_sub_lost = Obs.counter obs "peer.sub.lost" in
  (* live subscriptions this server believes it holds: exactly the
     (table, clamp) ranges whose Fetch was granted, keyed to the server
     that granted them. The healing heartbeat audits this against that
     server's own Sub_check answer. *)
  let tracked : (string * string * string, string) Hashtbl.t = Hashtbl.create 16 in
  let fetch_one = fetch_one ~engine ~client_for ~tracked ~m_fetch_out ~self_addr in
  (* the directory entries in force and the epoch they reflect: 0 until
     a follower first syncs *)
  let entries = ref [] in
  let applied = ref 0 in
  let plan ~table ~lo ~hi =
    (* a wildcard slice never claims a join-output table: each shard
       recomputes its outputs from subscription-fresh sources, and a
       fetched copy would freeze, because join-derived writes are not
       client-origin and are never pushed *)
    let sink =
      List.exists
        (fun spec -> String.equal (Pattern.table (Joinspec.output spec)) table)
        (Server.joins engine)
    in
    let entries =
      if sink then List.filter (fun e -> not (Directory.is_wildcard e)) !entries
      else !entries
    in
    plan ~self_addr ~entries ~table ~lo ~hi
  in
  let candidates = Directory.candidates ~self:self_addr in
  (* one clamp's blocking fetch, falling through the candidates *)
  let fetch_clamp ((e : Message.dir_entry), flo, fhi) =
    List.find_map (fun addr -> fetch_one ~table:e.de_table ~lo:flo ~hi:fhi addr) (candidates e)
  in
  let resolve ~table ~lo ~hi =
    if !applied = 0 then
      (* no directory yet: resolving [Local] here would mark the range
         present and freeze it empty; defer until the first epoch *)
      Server.Deferred
    else
      match plan ~table ~lo ~hi with
      | `Unrouted | `Fetch [] -> Server.Local
      | `Gap ->
        (* surface the misconfiguration instead of serving the gap as
           present-and-empty: the scan reports the range missing *)
        Log.warn (fun m ->
            m "partition routes leave a gap inside %s[%s,%s); check the partition specs"
              table lo hi);
        Server.Deferred
      | `Fetch _ when Server.collecting engine ->
        (* a collect-mode scan: report the miss and keep collecting; the
           server parks the scan and the fetcher issues the whole
           missing set as one burst *)
        Server.Deferred
      | `Fetch clamps ->
        (* a caller with no retry loop above it (an updater firing
           inside a feed_base, a bare scan or get): fetch each clamp
           inline; all must answer for the range to resolve *)
        let rec fetch acc = function
          | [] -> Server.Resolved (List.concat (List.rev acc))
          | clamp :: rest -> (
            match fetch_clamp clamp with
            | Some pairs -> fetch (pairs :: acc) rest
            | None -> Server.Deferred)
        in
        fetch [] clamps
  in
  (* A server that has synced and whose entries are all its own needs no
     resolver, and keeping it off leaves its tables ungoverned — the
     authority for every stamp a session can hold, like a lone server.
     Once needed (a follower not yet synced, a remote range) it stays. *)
  let resolving = ref false in
  let govern () =
    if
      (not !resolving)
      && (!applied = 0
         || List.exists
              (fun (e : Message.dir_entry) -> not (String.equal e.de_home self_addr))
              !entries)
    then begin
      resolving := true;
      Server.set_resolver engine resolve
    end
  in
  let fetcher =
    Fetcher.create ~server ~self_addr ~tracked ~plan:(fun ~table ~lo ~hi ->
        if !applied = 0 then `Fail
        else
          match plan ~table ~lo ~hi with
          | `Unrouted | `Fetch [] -> `Nothing
          | `Gap -> `Fail
          | `Fetch clamps ->
            `Clamps (List.map (fun (e, flo, fhi) -> (table, flo, fhi, candidates e)) clamps))
  in
  Net_server.set_fetcher server (Fetcher.request fetcher);
  (* replica duty waiting to be established: (table, lo, hi, home)
     ranges this server replicates but has not fetch+subscribed yet.
     Retried every second until the home answers. *)
  let warm_pending = ref [] in
  let warm_replicas () =
    warm_pending :=
      List.filter
        (fun (table, lo, hi, home) ->
          match fetch_one ~table ~lo ~hi home with
          | Some pairs ->
            Server.feed_base engine ~table ~lo ~hi pairs;
            Log.info (fun m -> m "replicating %s[%s,%s) from %s" table lo hi home);
            false
          | None -> true)
        !warm_pending
  in
  (* owned ranges; a local wildcard slice has no concrete table to
     mark — it resolves as `Fetch with no remote clamps, i.e. Local *)
  let owned_of es =
    List.filter_map
      (fun (e : Message.dir_entry) ->
        if String.equal e.de_home self_addr && not (Directory.is_wildcard e) then
          Some (e.de_table, e.de_lo, e.de_hi)
        else None)
      es
  in
  (* Bring this server in line with the directory's [new_entries]:
     adjust owned presence by diff, drop subscriptions whose granting
     server the entries no longer name for the range, and warm any range
     this server now replicates. *)
  let apply ~epoch new_entries =
    let old_owned = owned_of !entries in
    let new_owned = owned_of new_entries in
    List.iter
      (fun ((table, lo, hi) as k) ->
        if not (List.mem k old_owned) then Server.mark_present engine ~table ~lo ~hi)
      new_owned;
    List.iter
      (fun ((table, lo, hi) as k) ->
        if not (List.mem k new_owned) then Server.unmark_present engine ~table ~lo ~hi)
      old_owned;
    entries := new_entries;
    applied := epoch;
    govern ();
    Log.info (fun m ->
        m "directory epoch %d applied: %d entries, %d owned" epoch (List.length new_entries)
          (List.length new_owned));
    let stale =
      Hashtbl.fold
        (fun ((table, lo, hi) as key) addr acc ->
          match plan ~table ~lo ~hi with
          | `Fetch clamps
            when List.exists (fun (e, _, _) -> List.mem addr (candidates e)) clamps ->
            acc
          | _ -> key :: acc)
        tracked []
    in
    List.iter
      (fun ((table, lo, hi) as key) ->
        Hashtbl.remove tracked key;
        (* the data moved out from under the subscription: forget the
           presence; the next scan refetches from the current home *)
        Server.unmark_present engine ~table ~lo ~hi)
      stale;
    (* replica duty: a direct fetch+subscribe from the home feeds the
       copy in (base-table scans never resolve on their own) *)
    warm_pending :=
      List.filter_map
        (fun (e : Message.dir_entry) ->
          if
            List.mem self_addr e.de_replicas
            && not (Hashtbl.mem tracked (e.de_table, e.de_lo, e.de_hi))
          then Some (e.de_table, e.de_lo, e.de_hi, e.de_home)
          else None)
        new_entries;
    warm_replicas ()
  in
  let m_dir_fetch = Obs.counter obs "dir.fetch" in
  let m_epoch = Obs.gauge obs "dir.epoch" in
  (* apply the local copy's epoch if it moved — a poll, a pushed
     [Dir_update] or a migration flip installed it *)
  let sync () =
    let epoch = Directory.epoch dir in
    if epoch > !applied then begin
      apply ~epoch (Directory.entries dir);
      Obs.Gauge.set m_epoch epoch
    end
  in
  (* ask the seed for a newer directory (rate-limited) *)
  let poll =
    match seed with
    | None -> fun _ -> () (* installs land in [dir] directly *)
    | Some seed_addr ->
      (* a dedicated short-fuse client, so a dead seed costs the tick
         half a second, not the full fetch retry budget *)
      let host, port = host_port seed_addr in
      let client =
        Net_client.create ~obs ~on_wait ~host ~port
          ~config:
            { Net_client.connect_timeout = 0.5; call_timeout = 2.0; max_retries = 0;
              backoff = 0.05 }
          ()
      in
      let last_poll = ref neg_infinity in
      fun now ->
        if now -. !last_poll >= poll_every then begin
          last_poll := now;
          match Net_client.call client (Message.Dir_watch { epoch = Directory.epoch dir }) with
          | Message.Dir_state { epoch; entries } -> (
            Obs.Counter.incr m_dir_fetch;
            (* a migration flip pushed to this server can race the poll:
               an answer at-or-below the installed epoch is just old news *)
            if epoch > Directory.epoch dir then
              match Directory.install dir ~epoch ~entries with
              | Ok () -> ()
              | Error msg -> Log.warn (fun m -> m "directory update from seed rejected: %s" msg))
          | Message.Done -> Obs.Counter.incr m_dir_fetch (* unchanged *)
          | Message.Error msg -> Log.warn (fun m -> m "seed %s refused Dir_watch: %s" seed_addr msg)
          | _ -> ()
          | exception Net_client.Net_error msg ->
            Log.debug (fun m -> m "directory seed %s unreachable: %s" seed_addr msg)
        end
  in
  (* a range the heartbeat found dropped: re-plan it against the
     current directory and refetch each clamp (feed_base reconciles the
     data, the Fetch re-subscribes); a clamp no candidate answers is
     un-marked present so the next scan goes back through the resolver *)
  let refetch (table, lo, hi) =
    match plan ~table ~lo ~hi with
    | `Unrouted | `Fetch [] -> () (* owned here now *)
    | `Gap -> Server.unmark_present engine ~table ~lo ~hi
    | `Fetch clamps ->
      List.iter
        (fun ((_, flo, fhi) as clamp) ->
          match fetch_clamp clamp with
          | Some pairs -> Server.feed_base engine ~table ~lo:flo ~hi:fhi pairs
          | None -> Server.unmark_present engine ~table ~lo:flo ~hi:fhi)
        clamps
  in
  (* The healing heartbeat: every [check_every] seconds ask each server
     we hold subscriptions from which of them it still pushes, and
     refetch every range it dropped (a failed push while we were
     blocked or down, a restart, a migration). Without this, a dropped
     subscription would freeze the fetched copy forever with no error. *)
  let last_check = ref neg_infinity in
  let heal now =
    if Hashtbl.length tracked > 0 && now -. !last_check >= check_every then begin
      last_check := now;
      let by_addr = Hashtbl.create 4 in
      Hashtbl.iter
        (fun key addr ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_addr addr) in
          Hashtbl.replace by_addr addr (key :: prev))
        tracked;
      Hashtbl.iter
        (fun addr keys ->
          match
            Net_client.call ~timeout:2.0 (client_for addr)
              (Message.Sub_check { subscriber = self_addr })
          with
          | Message.Sub_ranges live ->
            (* hash the answer: a compute tracks one range per fetched
               timeline piece, so [keys] and [live] both grow with the
               working set and a List.mem join is quadratic *)
            let live_set = Hashtbl.create (1 + List.length live) in
            List.iter (fun k -> Hashtbl.replace live_set k ()) live;
            List.iter
              (fun ((table, lo, hi) as key) ->
                if not (Hashtbl.mem live_set key) then begin
                  Obs.Counter.force_add m_sub_lost 1;
                  Log.warn (fun m ->
                      m "subscription %s[%s,%s) lost at %s; refetching" table lo hi addr);
                  Hashtbl.remove tracked key;
                  refetch key
                end)
              keys
          | _ -> ()
          | exception Net_client.Net_error _ ->
            (* unreachable: scans surface it; the next heartbeat retries
               once it returns *)
            ())
        by_addr
    end
  in
  (* a follower's first poll doubles as its bootstrap fetch *)
  poll (Unix.gettimeofday ());
  sync ();
  govern ();
  let last_warm = ref neg_infinity in
  fun () ->
    let now = Unix.gettimeofday () in
    poll now;
    sync ();
    if !warm_pending <> [] && now -. !last_warm >= 1.0 then begin
      last_warm := now;
      warm_replicas ()
    end;
    heal now
